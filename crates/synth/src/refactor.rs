//! Large-cut refactoring (`refactor`).
//!
//! For each node, a reconvergence-driven cut of up to `MAX_LEAVES` inputs is
//! grown, the function of the node over the cut is extracted, and a fresh
//! implementation is synthesised by algebraic factoring / decomposition
//! ([`crate::factor::best_structure`]). The node is replaced when the new
//! structure is smaller than the logic it makes redundant — Brayton-style
//! re-factorisation as in ABC's `refactor`.
//!
//! Synthesis dominates the pass, and a graph repeats cut functions (an
//! adder's bit slices, say), so one call memoises the structure of each
//! cut function it has synthesised. The memo lives for that call only: a
//! second call on the same graph synthesises everything again. Neither
//! generator allocates per recursion step: decomposition works on
//! tables reduced to each sub-function's support (most depend on six
//! variables or fewer, so one word instead of the cut's 16) and factoring
//! partitions its cubes in one arena.
//!
//! Cuts come from the builder resubstitution shares (`crate::reconv`): it
//! marks leaves with epoch stamps instead of scanning the leaf list, and
//! one builder serves the whole pass. Candidates are priced by the dry run
//! rewriting shares ([`crate::plan::DryRun`]), with a budget of one gate
//! fewer than the cone: it stops as soon as a candidate cannot gain.

use crate::factor::best_structure;
use crate::plan::{rebuild, Choice, DryRun};
use crate::reconv::ReconvCut;
use aig::hash::FastMap;
use aig::mffc::Mffc;
use aig::{Aig, GateList, Lit, Tt, Var, Window};

/// Maximum leaves of the reconvergence-driven cut (hard cap 12).
const MAX_LEAVES: usize = 10;

/// Refactors the graph, returning a functionally equivalent one.
pub fn refactor(aig: &Aig) -> Aig {
    refactor_with(aig, best_structure)
}

/// [`refactor`] with `synthesise` in place of [`best_structure`]: it is
/// called once per distinct cut function, which lets the tests see every
/// function refactoring meets.
pub(crate) fn refactor_with(aig: &Aig, mut synthesise: impl FnMut(&Tt) -> GateList) -> Aig {
    let mut mffc = Mffc::new(aig);
    let mut cuts = ReconvCut::new(aig);
    let mut choices: Vec<Choice> = vec![Choice::Copy; aig.num_nodes()];
    let mut window = Window::new();
    let mut dry_run = DryRun::new(aig);
    let mut cone: Vec<Var> = Vec::new();
    let mut leaf_lits: Vec<Lit> = Vec::new();
    // Structure per cut function synthesised in this call.
    let mut memo: FastMap<Tt, GateList> = FastMap::default();

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
        if cone.len() < 2 {
            continue; // nothing worth saving here
        }
        let f = window.cut_function(aig, v, leaves);
        let gl = memo.entry(f).or_insert_with_key(|f| synthesise(f));
        leaf_lits.clear();
        leaf_lits.extend(leaves.iter().map(|&l| Lit::from_var(l, false)));
        // Zero-gain replacements are not accepted: a gain of at least 1
        // leaves a budget of one gate fewer than the cone.
        if dry_run
            .cost(aig, &leaf_lits, gl, &cone, cone.len() - 1)
            .is_some()
        {
            choices[v as usize] = Choice::Structure {
                leaves: leaf_lits.clone(),
                gl: gl.clone(),
            };
        }
    }

    rebuild(aig, &choices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::check::{exhaustive_equiv, sim_equiv};
    use aig::cut::cut_function;

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
        g
    }

    #[test]
    fn reconv_cut_is_a_cut() {
        let g = random_aig(1, 6, 60);
        let mut cuts = ReconvCut::new(&g);
        for v in g.iter_ands() {
            let leaves = cuts.cut(&g, v, 8);
            assert!(leaves.len() <= 8);
            // Verify it is a cut: evaluating the cone must never escape the
            // leaves (cut_function panics otherwise).
            let _ = cut_function(&g, v, leaves);
        }
    }

    #[test]
    fn preserves_function_small() {
        for seed in 0..8 {
            let g = random_aig(seed, 6, 50);
            let h = refactor(&g);
            assert!(exhaustive_equiv(&g, &h), "seed {seed}");
        }
    }

    #[test]
    fn preserves_function_larger() {
        for seed in 50..53 {
            let g = random_aig(seed, 20, 300);
            let h = refactor(&g);
            assert!(sim_equiv(&g, &h, 8, seed), "seed {seed}");
        }
    }

    #[test]
    fn collapses_redundant_cones() {
        // (a & b) | (a & !b) == a: a refactor over a 2-leaf cut finds it.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let t0 = g.and(a, b);
        let t1 = g.and(a, !b);
        let o = g.or(t0, t1);
        let extra = g.add_pi();
        let out = g.and(o, extra);
        g.add_po(out);
        let h = refactor(&g);
        assert!(exhaustive_equiv(&g, &h));
        assert!(
            h.num_ands() < g.num_ands(),
            "{} !< {}",
            h.num_ands(),
            g.num_ands()
        );
    }
}
