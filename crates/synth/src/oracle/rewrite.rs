//! Rewriting as it was before cuts carried their functions, kept as the
//! oracle of [`crate::rewrite()`].
//!
//! Every cut's function comes from evaluating its cone in a [`Window`],
//! and every candidate's cost from a dry run without a budget that tests
//! cone membership by scanning the cone. The tests assert that `rewrite`
//! returns the same graph, node for node, with and without zero-gain
//! replacements.

use super::{assert_same_graph, datapath_miters, random_aig, recipe_graphs};
use crate::builder::sig_not;
use crate::plan::{rebuild, Choice};
use crate::rewrite::MAX_CUTS;
use crate::rewrite_lib::npn_structure;
use aig::cut::{enumerate_cuts, CutParams};
use aig::mffc::Mffc;
use aig::npn::npn_canon;
use aig::{Aig, GateList, Lit, Var, Window};

/// Rewrites the graph, returning a functionally equivalent one.
fn rewrite(aig: &Aig, zero_gain: bool) -> Aig {
    let cuts = enumerate_cuts(
        aig,
        &CutParams {
            k: 4,
            max_cuts: MAX_CUTS,
        },
    );
    let mut mffc = Mffc::new(aig);
    let mut choices: Vec<Choice> = vec![Choice::Copy; aig.num_nodes()];
    let mut window = Window::new();
    let mut cone: Vec<Var> = Vec::new();

    for v in aig.iter_ands() {
        if mffc.refs(v) == 0 {
            continue;
        }
        // (gain, structure leaves, class structure, output complement)
        let mut best: Option<(i64, [Lit; 4], &GateList, bool)> = None;
        for cut in &cuts[v as usize] {
            let nl = cut.size();
            if nl < 2 || cut.leaves() == [v] {
                continue;
            }
            mffc.cone_collect(aig, v, cut.leaves(), &mut cone);
            window.start(aig, cut.leaves());
            window.eval_cone(aig, v);
            let f4 = window.table(v).expect("root evaluated")[0] as u16;
            let (canon, tr) = npn_canon(f4);
            let gl = npn_structure(canon);
            let mut leaves4 = [Lit::FALSE; 4];
            for (i, &l) in cut.leaves().iter().enumerate() {
                leaves4[i] = Lit::from_var(l, false);
            }
            let (w, out_compl) = tr.instantiate(&leaves4);
            let cost = dry_run_cost(aig, &w, gl, &cone);
            let gain = cone.len() as i64 - cost as i64;
            if best.as_ref().is_none_or(|&(g, ..)| gain > g) {
                best = Some((gain, w, gl, out_compl));
            }
        }

        if let Some((gain, leaves, gl, out_compl)) = best {
            let threshold = if zero_gain { 0 } else { 1 };
            if gain >= threshold {
                let root = if out_compl { sig_not(gl.root) } else { gl.root };
                choices[v as usize] = Choice::Structure {
                    leaves: leaves.to_vec(),
                    gl: GateList { root, ..gl.clone() },
                };
            }
        }
    }

    rebuild(aig, &choices)
}

/// The number of new gates `gl` over `leaves` needs, crediting existing
/// gates outside `cone`.
fn dry_run_cost(aig: &Aig, leaves: &[Lit], gl: &GateList, cone: &[Var]) -> usize {
    let mut sigs: Vec<Option<Lit>> = leaves.iter().map(|&l| Some(l)).collect();
    let decode = |sigs: &[Option<Lit>], s: u32| -> Option<Lit> {
        match s {
            GateList::FALSE => Some(Lit::FALSE),
            GateList::TRUE => Some(Lit::TRUE),
            _ => sigs[(s >> 1) as usize].map(|l| l.xor_compl(s & 1 != 0)),
        }
    };
    let mut cost = 0usize;
    for &(a, b) in &gl.gates {
        let out = match (decode(&sigs, a), decode(&sigs, b)) {
            (Some(x), Some(y)) => match aig.find_and(x, y) {
                Some(l) if l.is_const() || !cone.contains(&l.var()) => Some(l),
                _ => {
                    cost += 1;
                    None
                }
            },
            _ => {
                cost += 1;
                None
            }
        };
        sigs.push(out);
    }
    cost
}

/// Asserts that `rewrite` returns the oracle's graph on `g`, with and
/// without zero-gain replacements.
fn assert_matches_oracle(g: &Aig, what: &str) {
    for zero_gain in [false, true] {
        let what = format!("{what}, zero_gain {zero_gain}");
        let got = crate::rewrite(g, zero_gain);
        assert_same_graph(&got, &rewrite(g, zero_gain), &what);
    }
}

mod tests {
    use super::*;

    #[test]
    fn rewrite_matches_oracle_on_random_graphs() {
        for (n_pis, n_gates) in [(6, 40), (8, 80), (8, 120), (24, 400)] {
            for seed in 0..24 {
                let g = random_aig(seed, n_pis, n_gates);
                assert_matches_oracle(&g, &format!("{n_pis}/{n_gates} seed {seed}"));
            }
        }
    }

    #[test]
    fn rewrite_matches_oracle_on_datapath_miters() {
        for (what, g) in datapath_miters() {
            assert_matches_oracle(&g, &what);
        }
    }

    #[test]
    fn rewrite_matches_oracle_on_every_recipe_graph() {
        for (what, g) in recipe_graphs() {
            assert_matches_oracle(&g, &what);
        }
    }
}
