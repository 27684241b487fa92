//! Reference implementations of engines that were rebuilt for speed, kept
//! in the test tree as their oracles.
//!
//! Here: the full-table structure generators that the arena engines of
//! [`crate::dsd`] and [`crate::factor`] replaced. Every recursion step
//! clones whole tables, allocates its cover partitions and keys the memo
//! by the full table. The tests assert that the engines return exactly
//! these gate lists. The submodules `resub` and `rewrite` hold the oracles
//! of resubstitution and rewriting, and this module the graphs they share.

use crate::builder::{sig_not, Sig, StructBuilder, SIG_FALSE, SIG_TRUE};
use crate::{apply_op, Recipe, SynthOp};
use aig::hash::FastMap;
use aig::{Aig, Cube, GateList, Lit, Tt, Var};
use workloads::datapath::{alu, carry_lookahead_adder, carry_select_adder, ripple_carry_adder};
use workloads::lec::{miter, restructure};

mod resub;
mod rewrite;

/// Structure of `f` by recursive decomposition over full tables.
pub(crate) fn decompose(f: &Tt) -> GateList {
    let mut b = StructBuilder::new(f.nvars());
    let mut memo: FastMap<Tt, Sig> = FastMap::default();
    let root = decompose_rec(f, &mut b, &mut memo);
    b.finish(root)
}

fn decompose_rec(f: &Tt, b: &mut StructBuilder, memo: &mut FastMap<Tt, Sig>) -> Sig {
    if f.is_zero() {
        return SIG_FALSE;
    }
    if f.is_one() {
        return SIG_TRUE;
    }
    if let Some(&s) = memo.get(f) {
        return s;
    }
    let nf = !f;
    if let Some(&s) = memo.get(&nf) {
        return sig_not(s);
    }

    let sup = f.support();
    debug_assert!(!sup.is_empty());
    if sup.len() == 1 {
        let v = sup[0];
        let s = if f.bit(1 << v) {
            b.leaf(v)
        } else {
            sig_not(b.leaf(v))
        };
        memo.insert(f.clone(), s);
        return s;
    }

    let mut most_binate: Option<(u64, usize)> = None;
    for &v in &sup {
        let c0 = f.cofactor0(v);
        let c1 = f.cofactor1(v);
        let distance: u64 = c0
            .words()
            .iter()
            .zip(c1.words())
            .map(|(a, b)| (a ^ b).count_ones() as u64)
            .sum();
        let lv = b.leaf(v);
        let s = if c0.is_zero() {
            let inner = decompose_rec(&c1, b, memo);
            Some(b.and(lv, inner))
        } else if c1.is_zero() {
            let inner = decompose_rec(&c0, b, memo);
            Some(b.and(sig_not(lv), inner))
        } else if c0.is_one() {
            let inner = decompose_rec(&c1, b, memo);
            Some(b.or(sig_not(lv), inner))
        } else if c1.is_one() {
            let inner = decompose_rec(&c0, b, memo);
            Some(b.or(lv, inner))
        } else if distance == 1 << f.nvars() {
            let inner = decompose_rec(&c0, b, memo);
            Some(b.xor(lv, inner))
        } else {
            None
        };
        if let Some(s) = s {
            memo.insert(f.clone(), s);
            return s;
        }
        if most_binate.is_none_or(|(d, _)| distance >= d) {
            most_binate = Some((distance, v));
        }
    }

    let (_, v) = most_binate.expect("non-empty support");
    let c0 = f.cofactor0(v);
    let c1 = f.cofactor1(v);
    let s0 = decompose_rec(&c0, b, memo);
    let s1 = decompose_rec(&c1, b, memo);
    let lv = b.leaf(v);
    let s = b.mux(lv, s1, s0);
    memo.insert(f.clone(), s);
    s
}

/// Structure of `f` by factoring the ISOP covers of `f` and `!f`.
pub(crate) fn factor(f: &Tt) -> GateList {
    let mut cover = Vec::new();
    f.isop_into(false, &mut cover);
    let pos = factor_cover(f.nvars(), &cover);
    cover.clear();
    f.isop_into(true, &mut cover);
    let neg = factor_cover(f.nvars(), &cover);
    if pos.size() <= neg.size() {
        pos
    } else {
        GateList {
            root: sig_not(neg.root),
            ..neg
        }
    }
}

fn factor_cover(nvars: usize, cover: &[Cube]) -> GateList {
    let mut b = StructBuilder::new(nvars);
    let root = factor_rec(cover, &mut b);
    b.finish(root)
}

fn factor_rec(cover: &[Cube], b: &mut StructBuilder) -> Sig {
    if cover.is_empty() {
        return SIG_FALSE;
    }
    if cover.iter().any(|c| c.mask == 0) {
        return SIG_TRUE;
    }
    if cover.len() == 1 {
        return build_cube(&cover[0], b);
    }
    let (var, positive) = most_frequent_literal(cover);
    let mut quotient = Vec::new();
    let mut remainder = Vec::new();
    let bit = 1u32 << var;
    for c in cover {
        if c.mask & bit != 0 && (c.vals & bit != 0) == positive {
            let mut q = *c;
            q.mask &= !bit;
            q.vals &= !bit;
            quotient.push(q);
        } else {
            remainder.push(*c);
        }
    }
    let q_sig = factor_rec(&quotient, b);
    let lit_sig = if positive {
        b.leaf(var)
    } else {
        sig_not(b.leaf(var))
    };
    let lhs = b.and(lit_sig, q_sig);
    if remainder.is_empty() {
        lhs
    } else {
        let r_sig = factor_rec(&remainder, b);
        b.or(lhs, r_sig)
    }
}

fn build_cube(c: &Cube, b: &mut StructBuilder) -> Sig {
    let mut acc = SIG_TRUE;
    for (v, pos) in c.lits() {
        let l = if pos { b.leaf(v) } else { sig_not(b.leaf(v)) };
        acc = b.and(acc, l);
    }
    acc
}

fn most_frequent_literal(cover: &[Cube]) -> (usize, bool) {
    let (mut pos, mut neg) = ([0usize; 32], [0usize; 32]);
    for c in cover {
        let mut lits = c.mask;
        while lits != 0 {
            let v = lits.trailing_zeros() as usize;
            lits &= lits - 1;
            if c.vals >> v & 1 != 0 {
                pos[v] += 1;
            } else {
                neg[v] += 1;
            }
        }
    }
    // Ties go to the lowest variable, positive literal first.
    let mut best = (0usize, true);
    let mut best_count = 0usize;
    for v in 0..32 {
        if pos[v] > best_count {
            best_count = pos[v];
            best = (v, true);
        }
        if neg[v] > best_count {
            best_count = neg[v];
            best = (v, false);
        }
    }
    best
}

/// The smaller of the two structures, decomposition first on a tie.
pub(crate) fn best_structure(f: &Tt) -> GateList {
    let d = decompose(f);
    let a = factor(f);
    if d.size() <= a.size() {
        d
    } else {
        a
    }
}

/// `synth_equivalence`'s random graph.
fn random_aig(seed: u64, n_pis: usize, n_gates: usize) -> Aig {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut g = Aig::new();
    let mut pool: Vec<Lit> = g.add_pis(n_pis);
    for _ in 0..n_gates {
        let a = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
        let b = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
        let l = match rng.gen_range(0..4) {
            0 | 1 => g.and(a, b),
            2 => g.or(a, b),
            _ => g.xor(a, b),
        };
        pool.push(l);
    }
    let n = pool.len();
    g.add_po(pool[n - 1]);
    g.add_po(pool[n - 2].xor_compl(true));
    g
}

/// `synth_equivalence`'s four pinned graphs.
fn pinned_graphs() -> [Aig; 4] {
    [
        ripple_carry_adder(16).aig,
        carry_lookahead_adder(12).aig,
        alu(8).aig,
        random_aig(2025, 12, 220),
    ]
}

/// Asserts that two graphs are equal node for node: the same inputs, the
/// same fanins per node and the same outputs.
fn assert_same_graph(got: &Aig, want: &Aig, what: &str) {
    assert_eq!(got.num_nodes(), want.num_nodes(), "{what}: node count");
    assert_eq!(got.pis(), want.pis(), "{what}: inputs");
    for v in 0..got.num_nodes() as Var {
        assert_eq!(got.node(v), want.node(v), "{what}: node {v}");
    }
    assert_eq!(got.pos(), want.pos(), "{what}: outputs");
}

/// Adder-architecture and ALU miters at 4–16 bits, as `workloads`
/// pairs them.
fn datapath_miters() -> Vec<(String, Aig)> {
    let mut out = Vec::new();
    for bits in 4..=16 {
        let (rca, cla) = (
            ripple_carry_adder(bits).aig,
            carry_lookahead_adder(bits).aig,
        );
        let alu = alu(bits).aig;
        let pairs = [
            ("rca/cla", rca.clone(), cla.clone()),
            ("rca/csel", rca, carry_select_adder(bits, 2 + bits / 6).aig),
            ("cla/csel", cla, carry_select_adder(bits, 2).aig),
            ("alu", restructure(&alu, bits as u64), alu),
        ];
        for (name, a, b) in pairs {
            out.push((format!("{name} {bits}"), miter(&a, &b)));
        }
    }
    out
}

/// Every graph `resub` meets on `synth_equivalence`'s four pinned graphs
/// under `rs;rs;rw` and the size script: each input, each intermediate
/// and each output.
fn recipe_graphs() -> Vec<(String, Aig)> {
    use SynthOp::{Resub, Rewrite};
    let recipes = [
        vec![Resub, Resub, Rewrite],
        Recipe::size_script().ops().to_vec(),
    ];
    let mut out = Vec::new();
    for (gi, g) in pinned_graphs().into_iter().enumerate() {
        for ops in &recipes {
            let mut h = g.clone();
            for (step, &op) in ops.iter().enumerate() {
                let next = apply_op(&h, op);
                out.push((format!("graph {gi} before step {step} of {ops:?}"), h));
                h = next;
            }
            out.push((format!("graph {gi} after {ops:?}"), h));
        }
    }
    out
}

mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Asserts that the engines return the oracle's gate lists for `f`.
    fn assert_matches_oracle(f: &Tt) {
        assert_eq!(crate::dsd::decompose(f), decompose(f), "decompose {f:?}");
        assert_eq!(crate::factor::factor(f), factor(f), "factor {f:?}");
        let best = crate::factor::best_structure(f);
        assert_eq!(best, best_structure(f), "best_structure {f:?}");
    }

    #[test]
    fn every_three_variable_function() {
        for bits in 0..256 {
            assert_matches_oracle(&Tt::from_u64(3, bits));
        }
    }

    #[test]
    fn every_npn_canon() {
        let canons = aig::npn::npn_class_representatives();
        assert_eq!(canons.len(), 222);
        for canon in canons {
            assert_matches_oracle(&Tt::from_u16(canon));
        }
    }

    #[test]
    fn random_5_to_10_variable_tables() {
        let mut rng = StdRng::seed_from_u64(0xD5D);
        for n in 5..=10usize {
            for _ in 0..12 {
                let words = (0..1 << n.saturating_sub(6)).map(|_| rng.gen()).collect();
                let f = Tt::from_words(n, words);
                assert_matches_oracle(&f);
                // The same arity with some variables ignored, below and
                // above the word boundary: the support reduction.
                let mut g = f.clone();
                for _ in 0..rng.gen_range(1..n) {
                    g = g.cofactor1(rng.gen_range(0..n));
                }
                assert_matches_oracle(&g);
                // A variable AND-, OR- and XOR-ed onto a reduced table
                // takes the top decompositions.
                let x = Tt::var(n, rng.gen_range(0..n));
                assert_matches_oracle(&(&x & &g));
                assert_matches_oracle(&(&!&x | &g));
                assert_matches_oracle(&(&x ^ &g));
            }
        }
    }

    /// Every cut function refactoring synthesises on `synth_equivalence`'s
    /// four pinned graphs, as given and as the size script hands them to
    /// refactoring (after balancing and rewriting).
    #[test]
    fn every_cut_function_refactor_meets() {
        let mut seen = 0;
        for g in &pinned_graphs() {
            let scripted = crate::rewrite(&crate::balance(g), false);
            for input in [g, &scripted] {
                crate::refactor::refactor_with(input, |f| {
                    seen += 1;
                    assert_matches_oracle(f);
                    best_structure(f)
                });
            }
        }
        // Distinct per call; the count moves only with the graphs, the
        // passes before refactoring or the cut enumeration.
        assert_eq!(seen, 194);
    }
}
