//! DAG-aware 4-cut NPN rewriting (`rewrite`).
//!
//! For every AND node, each enumerated 4-feasible cut's function is NPN
//! canonised and looked up in the structure library, both by plain index
//! into tables built once per process; the candidate's cost is
//! measured by a dry-run build against the existing graph (gates that
//! already exist — outside the node's MFFC — are free), and the node is
//! replaced when the saving is positive. This is the reconstruction
//! formulation of Mishchenko–Chatterjee–Brayton's DAG-aware rewriting.
//!
//! Cut functions come with the cuts: the low 16 bits of a cut's word
//! ([`aig::cut::Cut::truth`]) are its function over four variables, so no
//! cone is evaluated per cut. A candidate must beat the best one so far
//! (or reach the gain threshold while there is none), so it may add at
//! most `cone - need` gates: a cut whose cone is smaller than `need` is
//! skipped before the lookup, and the dry run stops as soon as the
//! candidate exceeds that budget. The first candidate with the maximum
//! gain is still the one applied.

use crate::builder::sig_not;
use crate::plan::{rebuild, Choice, DryRun};
use crate::rewrite_lib::npn_structure;
use aig::cut::{enumerate_cuts, CutParams};
use aig::mffc::Mffc;
use aig::npn::npn_canon;
use aig::{Aig, GateList, Lit, Var};

/// Priority cuts kept per node.
pub(crate) const MAX_CUTS: usize = 8;

/// Rewrites the graph, returning a functionally equivalent one.
///
/// `zero_gain` accepts replacements with zero estimated gain (ABC's
/// `rewrite -z`), useful as a perturbation before further passes.
pub fn rewrite(aig: &Aig, zero_gain: bool) -> Aig {
    let cuts = enumerate_cuts(
        aig,
        &CutParams {
            k: 4,
            max_cuts: MAX_CUTS,
        },
    );
    let mut mffc = Mffc::new(aig);
    let mut choices: Vec<Choice> = vec![Choice::Copy; aig.num_nodes()];
    let mut dry_run = DryRun::new(aig);
    let mut cone: Vec<Var> = Vec::new();
    let threshold = if zero_gain { 0 } else { 1 };

    for v in aig.iter_ands() {
        // Every MFFC query restores the counts, so this is v's fanout.
        if mffc.refs(v) == 0 {
            continue; // dead logic disappears in the rebuild anyway
        }
        // (gain, structure leaves, class structure, output complement)
        let mut best: Option<(usize, [Lit; 4], &GateList, bool)> = None;
        for cut in &cuts[v as usize] {
            let nl = cut.size();
            if nl < 2 || cut.leaves() == [v] {
                continue;
            }
            // Nodes that disappear if v is re-expressed over this cut.
            mffc.cone_collect(aig, v, cut.leaves(), &mut cone);
            // The gain this candidate must reach to be kept.
            let need = best.as_ref().map_or(threshold, |&(g, ..)| g + 1);
            let Some(budget) = cone.len().checked_sub(need) else {
                continue;
            };
            // The word's low 16 bits are the cut function over four
            // variables (missing leaves are don't-cares).
            let (canon, tr) = npn_canon(cut.truth() as u16);
            let gl = npn_structure(canon);
            // Concrete leaves, padded to 4 with constant-false.
            let mut leaves4 = [Lit::FALSE; 4];
            for (i, &l) in cut.leaves().iter().enumerate() {
                leaves4[i] = Lit::from_var(l, false);
            }
            let (w, out_compl) = tr.instantiate(&leaves4);
            if let Some(cost) = dry_run.cost(aig, &w, gl, &cone, budget) {
                best = Some((cone.len() - cost, w, gl, out_compl));
            }
        }

        if let Some((_, leaves, gl, out_compl)) = best {
            let root = if out_compl { sig_not(gl.root) } else { gl.root };
            choices[v as usize] = Choice::Structure {
                leaves: leaves.to_vec(),
                gl: GateList { root, ..gl.clone() },
            };
        }
    }

    rebuild(aig, &choices)
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
        g.add_po(pool[n.saturating_sub(3)]);
        g
    }

    #[test]
    fn preserves_function_small() {
        for seed in 0..8 {
            let g = random_aig(seed, 6, 40);
            let h = rewrite(&g, false);
            assert!(exhaustive_equiv(&g, &h), "seed {seed}");
        }
    }

    #[test]
    fn preserves_function_larger_sim() {
        for seed in 100..103 {
            let g = random_aig(seed, 24, 400);
            let h = rewrite(&g, false);
            assert!(sim_equiv(&g, &h, 8, seed), "seed {seed}");
        }
    }

    #[test]
    fn reduces_redundant_logic() {
        // Build something deliberately redundant: mux(s, x, x) trees and
        // double negations through and-chains.
        let mut g = Aig::new();
        let pis = g.add_pis(4);
        let x = g.xor(pis[0], pis[1]);
        let m = g.mux(pis[2], x, x); // = x, but structurally bigger
        let y = g.and(m, pis[3]);
        g.add_po(y);
        let before = g.num_ands();
        let h = rewrite(&g, false);
        assert!(exhaustive_equiv(&g, &h));
        assert!(
            h.num_ands() <= before,
            "rewrite must not grow: {} -> {}",
            before,
            h.num_ands()
        );
    }

    #[test]
    fn zero_gain_allowed_still_equivalent() {
        let g = random_aig(7, 8, 80);
        let h = rewrite(&g, true);
        assert!(sim_equiv(&g, &h, 8, 1234));
    }

    #[test]
    fn idempotent_convergence() {
        let g = random_aig(42, 8, 120);
        let h1 = rewrite(&g, false);
        let h2 = rewrite(&h1, false);
        let h3 = rewrite(&h2, false);
        assert!(sim_equiv(&g, &h3, 8, 5));
        // The pass chain must not blow the graph up overall.
        assert!(
            h3.num_ands() <= g.num_ands(),
            "{} -> {}",
            g.num_ands(),
            h3.num_ands()
        );
    }
}
