//! Window-based Boolean resubstitution (`resub`).
//!
//! For each node, a window is built from a reconvergence-driven cut; the
//! truth tables of every window node over the cut leaves are computed into
//! one reused word arena ([`aig::Window`]), and the engine looks for
//! *divisors* — existing nodes (outside the logic that would disappear)
//! whose functions re-express the target:
//!
//! * **0-resub**: the target equals a divisor (possibly complemented) — the
//!   node is forwarded for free;
//! * **1-resub**: the target is the AND/OR of two divisors in some polarity
//!   — one fresh gate replaces the whole cone.
//!
//! Every test reads the window tables, which are exact: a divisor's cone
//! bottoms out at the cut, so equal tables mean equal global functions.
//! At eight leaves a table is at most four words, so no cheaper filter
//! could read less. A 1-resub pair is tried only if each input, in its
//! polarity, contains the target; those cover bits are computed once per
//! divisor. Side divisors come from a walk over the graph's fanout rows,
//! which ascend, so the walk stops at the first consumer not below the
//! node. The cut builder, the divisor and frontier lists and the window
//! are reused for the whole pass.
//!
//! This follows the permissible-function resubstitution lineage the paper
//! cites (Sato et al.) in its windowed, truth-table-driven ABC form.

use crate::plan::{rebuild, Choice};
use crate::reconv::ReconvCut;
use aig::mffc::Mffc;
use aig::{Aig, GateList, Lit, Var, Window};

/// Maximum leaves of the window cut (hard cap 12).
pub(crate) const MAX_LEAVES: usize = 8;
/// Maximum divisors examined per node.
pub(crate) const MAX_DIVISORS: usize = 64;

/// A replacement: leaf literals and the structure over them.
type Resub = (Vec<Lit>, GateList);

/// Resubstitutes nodes from existing logic, returning an equivalent graph.
pub fn resub(aig: &Aig) -> Aig {
    let mut mffc = Mffc::new(aig);
    let fanouts = aig.fanouts();
    let mut cuts = ReconvCut::new(aig);
    let mut choices: Vec<Choice> = vec![Choice::Copy; aig.num_nodes()];
    let mut window = Window::new();
    let mut cone: Vec<Var> = Vec::new();
    let mut divisors: Vec<Var> = Vec::new();
    let mut frontier: Vec<Var> = Vec::new();
    let mut covers: Vec<u8> = Vec::new();
    // Cone membership: node `d` is in the current node's cone when
    // `cone_epoch[d] == epoch`; each node takes a fresh epoch.
    let mut cone_epoch: Vec<u32> = vec![0; aig.num_nodes()];
    let mut epoch = 0u32;

    for v in aig.iter_ands() {
        // Every MFFC query restores the counts, so this is v's fanout.
        if mffc.refs(v) == 0 {
            continue;
        }
        let leaves = cuts.cut(aig, v, MAX_LEAVES);
        if leaves.len() < 2 {
            continue;
        }
        mffc.cone_collect(aig, v, leaves, &mut cone);
        if cone.is_empty() {
            continue;
        }
        epoch += 1;
        for &c in &cone {
            cone_epoch[c as usize] = epoch;
        }

        // Window truth tables: evaluate the whole cone between leaves and v,
        // keeping every intermediate node as a divisor candidate.
        window.start(aig, leaves);
        window.eval_cone(aig, v);

        // Divisors: the cut leaves themselves, plus window nodes that
        // survive the replacement (not in the disappearing cone), strictly
        // below v...
        divisors.clear();
        divisors.extend(
            window
                .nodes()
                .iter()
                .copied()
                .filter(|&d| d < v && cone_epoch[d as usize] != epoch),
        );
        debug_assert!(
            leaves.iter().all(|l| divisors.contains(l)),
            "leaves are divisors"
        );
        // ...plus *side* divisors: logic outside the cone whose support lies
        // within the cut, grown by walking fanouts of known-table nodes.
        // The frontier holds the leaves twice (once among the divisors);
        // that copy fixes the order in which side divisors are found.
        frontier.clear();
        frontier.extend_from_slice(&divisors);
        frontier.extend_from_slice(leaves);
        let mut qi = 0;
        while qi < frontier.len() && divisors.len() < MAX_DIVISORS {
            let d = frontier[qi];
            qi += 1;
            // Rows ascend, so every later consumer is at or above v. Cone
            // nodes already have tables, so `try_eval` refuses them.
            for &c in fanouts.of(d) {
                if c >= v {
                    break;
                }
                if window.try_eval(aig, c) {
                    divisors.push(c);
                    frontier.push(c);
                }
            }
        }
        divisors.truncate(MAX_DIVISORS);

        // 1-resub only pays when at least two nodes disappear.
        let pairs = cone.len() >= 2;
        if let Some((leaves, gl)) = find_resub(&window, v, &divisors, pairs, &mut covers) {
            choices[v as usize] = Choice::Structure { leaves, gl };
        }
    }

    rebuild(aig, &choices)
}

/// The table of a window node.
fn table(window: &Window, d: Var) -> &[u64] {
    window.table(d).expect("window node has a table")
}

/// All-ones when `c` is set: XOR with it complements a word.
fn mask(c: bool) -> u64 {
    if c {
        !0
    } else {
        0
    }
}

/// The first replacement of `v` by its divisors, if any.
///
/// 0-resub comes first: the first divisor whose table is the target's or
/// its complement. Then, if `pairs` is set, 1-resub: the first pair
/// `i < j` of divisors, in [`POLARITIES`] order within a pair, whose AND
/// reproduces the target.
fn find_resub(
    window: &Window,
    v: Var,
    divisors: &[Var],
    pairs: bool,
    covers: &mut Vec<u8>,
) -> Option<Resub> {
    let ft = table(window, v);
    // Bits 0 and 3 of a divisor's cover bits say it equals the target,
    // bits 1 and 2 that it equals the target's complement.
    covers.clear();
    for &d in divisors {
        let bits = cover_bits(table(window, d), ft);
        let compl = bits & 0b0110 == 0b0110;
        if compl || bits & 0b1001 == 0b1001 {
            return Some((vec![Lit::from_var(d, false)], identity_gl(compl)));
        }
        covers.push(bits);
    }
    if !pairs {
        return None;
    }
    // An AND reproduces the target only if each input, in its polarity,
    // contains it under the pair's output polarity. `partner` holds the
    // bits of `covers[j]` under an output polarity that `covers[i]` has a
    // bit for: a pair with none of them has no polarity to try.
    for i in 0..divisors.len() {
        let ci = covers[i];
        let partner =
            if ci & 0b0011 != 0 { 0b0011 } else { 0 } | if ci & 0b1100 != 0 { 0b1100 } else { 0 };
        if partner == 0 {
            continue;
        }
        let ta = table(window, divisors[i]);
        for j in (i + 1)..divisors.len() {
            let cj = covers[j];
            if cj & partner == 0 {
                continue;
            }
            for (ca, cb, co) in POLARITIES {
                let k = 2 * co as usize;
                if ci >> (k + ca as usize) & cj >> (k + cb as usize) & 1 == 0 {
                    continue;
                }
                let (ma, mb, mo) = (mask(ca), mask(cb), mask(co));
                let hit = ta
                    .iter()
                    .zip(table(window, divisors[j]))
                    .zip(ft)
                    .all(|((&wa, &wb), &wf)| ((wa ^ ma) & (wb ^ mb)) ^ mo == wf);
                if hit {
                    let leaves = vec![
                        Lit::from_var(divisors[i], ca),
                        Lit::from_var(divisors[j], cb),
                    ];
                    return Some((leaves, and2_gl(co)));
                }
            }
        }
    }
    None
}

/// Which polarities of divisor table `d` contain which polarities of
/// target table `f`: bit `2 * co + c` is set when `d`, complemented if
/// `c`, contains `f`, complemented if `co`.
fn cover_bits(d: &[u64], f: &[u64]) -> u8 {
    // Per bit: the words where `f ^ co` is set and `d ^ c` is not.
    let mut missed = [0u64; 4];
    for (&x, &y) in d.iter().zip(f) {
        missed[0] |= y & !x;
        missed[1] |= y & x;
        missed[2] |= !y & !x;
        missed[3] |= !y & x;
    }
    (0..4).fold(0, |bits, k| bits | ((missed[k] == 0) as u8) << k)
}

/// All input/output polarity combinations for 1-resub. `(ca, cb, co)` tries
/// `co ^ ((a ^ ca) & (b ^ cb))`, covering AND and OR in every polarity.
pub(crate) const POLARITIES: [(bool, bool, bool); 8] = [
    (false, false, false),
    (true, false, false),
    (false, true, false),
    (true, true, false),
    (false, false, true),
    (true, false, true),
    (false, true, true),
    (true, true, true),
];

/// The structure of a 0-resub: its one leaf, complemented if `compl`.
pub(crate) fn identity_gl(compl: bool) -> GateList {
    GateList {
        n_leaves: 1,
        gates: vec![],
        root: GateList::leaf(0, compl),
    }
}

/// The structure of a 1-resub: the AND of its two leaves, complemented if
/// `out_compl`. Input complements live in the caller's leaf literals.
pub(crate) fn and2_gl(out_compl: bool) -> GateList {
    GateList {
        n_leaves: 2,
        gates: vec![(GateList::leaf(0, false), GateList::leaf(1, false))],
        root: 2 << 1 | out_compl as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::check::{exhaustive_equiv, sim_equiv};

    fn random_aig(seed: u64, n_pis: usize, n_gates: usize) -> Aig {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let pis = g.add_pis(n_pis);
        let mut pool: Vec<Lit> = pis;
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
        g.add_po(pool[n / 2]);
        g
    }

    #[test]
    fn preserves_function_small() {
        for seed in 0..8 {
            let g = random_aig(seed, 6, 50);
            let h = resub(&g);
            assert!(exhaustive_equiv(&g, &h), "seed {seed}");
        }
    }

    #[test]
    fn preserves_function_larger() {
        for seed in 60..63 {
            let g = random_aig(seed, 20, 300);
            let h = resub(&g);
            assert!(sim_equiv(&g, &h, 8, seed), "seed {seed}");
        }
    }

    #[test]
    fn finds_zero_resub() {
        // Two structurally different but equivalent cones; resub should
        // forward one to the other.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        // xor built twice with different structure.
        let x1 = g.xor(a, b);
        let o = g.or(a, b);
        let na = g.and(a, b);
        let x2 = g.and(o, !na); // same function as x1
        let u1 = g.and(x1, c);
        let u2 = g.and(x2, !c);
        g.add_po(u1);
        g.add_po(u2);
        let before = g.num_ands();
        let h = resub(&g);
        assert!(exhaustive_equiv(&g, &h));
        assert!(h.num_ands() < before, "{} !< {}", h.num_ands(), before);
    }

    #[test]
    fn does_not_grow() {
        for seed in 10..16 {
            let g = random_aig(seed, 8, 100);
            let h = resub(&g);
            assert!(h.num_ands() <= g.num_ands(), "seed {seed}");
        }
    }
}
