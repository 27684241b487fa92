//! Large-cut refactoring (`refactor`).
//!
//! For each node, a reconvergence-driven cut of up to `MAX_LEAVES` inputs is
//! grown, the function of the node over the cut is extracted, and a fresh
//! implementation is synthesised by algebraic factoring / decomposition
//! ([`crate::factor::best_structure`]). The node is replaced when the new
//! structure is smaller than the logic it makes redundant — Brayton-style
//! re-factorisation as in ABC's `refactor`.

use crate::factor::best_structure;
use crate::plan::{dry_run_cost, rebuild, Choice};
use aig::hash::FastSet;
use aig::mffc::Mffc;
use aig::{Aig, Lit, Var, Window};

/// Maximum leaves of the reconvergence-driven cut (hard cap 12).
const MAX_LEAVES: usize = 10;

/// Refactors the graph, returning a functionally equivalent one.
pub fn refactor(aig: &Aig) -> Aig {
    let mut mffc = Mffc::new(aig);
    let fanout = aig.fanout_counts();
    let mut choices: Vec<Choice> = vec![Choice::Copy; aig.num_nodes()];
    let mut window = Window::new();

    for v in aig.iter_ands() {
        if fanout[v as usize] == 0 {
            continue;
        }
        let leaves = reconvergence_cut(aig, v, MAX_LEAVES);
        if leaves.len() < 2 {
            continue;
        }
        let cone = mffc.cone_collect(aig, v, &leaves);
        if cone.len() < 2 {
            continue; // nothing worth saving here
        }
        let cone_set: FastSet<Var> = cone.iter().copied().collect();
        let f = window.cut_function(aig, v, &leaves);
        let gl = best_structure(&f);
        let leaf_lits: Vec<Lit> = leaves.iter().map(|&l| Lit::from_var(l, false)).collect();
        let cost = dry_run_cost(aig, &leaf_lits, &gl, &cone_set);
        let gain = cone.len() as i64 - cost as i64;
        // Zero-gain replacements are not accepted.
        if gain >= 1 {
            choices[v as usize] = Choice::Structure {
                leaves: leaf_lits,
                gl,
            };
        }
    }

    rebuild(aig, &choices)
}

/// Grows a reconvergence-driven cut of `root` with at most `max_leaves`
/// leaves: starting from `{root}`, repeatedly expands the leaf whose fanins
/// add the fewest new leaves (preferring reconvergent expansions).
pub(crate) fn reconvergence_cut(aig: &Aig, root: Var, max_leaves: usize) -> Vec<Var> {
    let mut leaves: Vec<Var> = vec![root];
    loop {
        let mut best: Option<(i32, usize)> = None; // (cost, index in leaves)
        for (i, &l) in leaves.iter().enumerate() {
            let n = aig.node(l);
            if !n.is_and() {
                continue;
            }
            let f0 = n.fanin0().var();
            let f1 = n.fanin1().var();
            let cost =
                (!leaves.contains(&f0)) as i32 + (!leaves.contains(&f1) && f1 != f0) as i32 - 1;
            if leaves.len() as i32 + cost > max_leaves as i32 {
                continue;
            }
            if best.is_none() || cost < best.expect("some").0 {
                best = Some((cost, i));
            }
        }
        let Some((_, i)) = best else { break };
        let n = *aig.node(leaves[i]);
        leaves.swap_remove(i);
        for f in n.fanins() {
            if !leaves.contains(&f.var()) {
                leaves.push(f.var());
            }
        }
        if leaves.len() >= max_leaves {
            break;
        }
    }
    leaves.sort_unstable();
    leaves.dedup();
    leaves
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
        for v in g.iter_ands() {
            let leaves = reconvergence_cut(&g, v, 8);
            assert!(leaves.len() <= 8);
            // Verify it is a cut: evaluating the cone must never escape the
            // leaves (cut_function panics otherwise).
            let _ = cut_function(&g, v, &leaves);
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
