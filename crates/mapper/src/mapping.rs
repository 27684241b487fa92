//! Priority-cut k-LUT mapping with area-flow refinement.
//!
//! A simplified `if`-mapper: k-feasible priority cuts are enumerated once,
//! each with its function as one word (k <= 6), and every non-trivial cut
//! is priced once from that word. Several area-flow passes then pick, per
//! node, the cut minimising `cost(cut) + Σ flow(leaf)/refs(leaf)`, with
//! reference estimates refined from the previous pass's actual cover. The
//! final cover is extracted from the PO drivers downward and emitted as a
//! [`LutNetlist`]; only its LUTs get a truth table.
//!
//! Mapping keeps depth-optimal PO levels, the paper's delay constraint
//! ("fixing the delay cost as a constraint", Sec. III-C2). The first pass
//! holds every node to its depth-optimal label; each later pass holds the
//! cover to required times anchored at each PO's depth-optimal level, and
//! nodes outside the cover to their labels. Cut cost only chooses among
//! the cuts that meet that bound.

use crate::cost::CutCost;
use aig::cut::{enumerate_cuts, Cut, CutParams};
use aig::{Aig, Tt, Var};
use cnf::{LutNetlist, LutSignal};

/// Priority cuts kept per node.
const MAX_CUTS: usize = 8;
/// Area-flow refinement rounds after the first pass.
const ROUNDS: usize = 2;

/// Mapping parameters.
#[derive(Clone, Copy, Debug)]
pub struct MapParams {
    /// LUT input count (2..=6; the paper uses k = 4).
    pub k: usize,
}

impl Default for MapParams {
    fn default() -> MapParams {
        MapParams { k: 4 }
    }
}

/// Maps the (PO-reachable logic of the) graph into a LUT netlist.
///
/// Inputs are preserved 1:1 (netlist input `i` is AIG PI `i`), outputs
/// correspond to the AIG POs in order.
///
/// # Panics
/// Panics if `params.k` is outside `2..=6`.
pub fn map_luts(aig: &Aig, params: &MapParams, cost: &dyn CutCost) -> LutNetlist {
    assert!((2..=6).contains(&params.k), "LUT size must be 2..=6");
    let cuts = enumerate_cuts(
        aig,
        &CutParams {
            k: params.k,
            max_cuts: MAX_CUTS,
        },
    );
    let prices = Prices::new(aig, &cuts, cost);

    // Depth labels of the depth-optimal mapping (LUT levels).
    let opt_depth = depth_labels(aig, &cuts);

    // Reference estimates start at structural fanout.
    let mut est_refs: Vec<f64> = aig
        .fanout_counts()
        .iter()
        .map(|&c| (c as f64).max(1.0))
        .collect();

    let n = aig.num_nodes();
    let mut best_cut: Vec<usize> = vec![usize::MAX; n];
    // Required times exist once a cover does; until then, and outside the
    // cover, a node's depth-optimal label is its limit.
    let mut required: Vec<u32> = vec![u32::MAX; n];
    for round in 0..=ROUNDS {
        area_flow_pass(
            aig,
            &cuts,
            &prices,
            &est_refs,
            &required,
            &opt_depth,
            &mut best_cut,
        );
        if round < ROUNDS {
            // Refine reference estimates from the actual cover, blending
            // with the previous estimate to damp oscillation.
            let refs = cover_refs(aig, &cuts, &best_cut);
            for (e, &r) in est_refs.iter_mut().zip(&refs) {
                *e = ((*e + r as f64) / 2.0).max(1.0);
            }
            compute_required(aig, &cuts, &best_cut, &refs, &opt_depth, &mut required);
        }
    }

    derive_netlist(aig, &cuts, &best_cut)
}

/// The cost of every non-trivial cut, computed once from its word.
struct Prices {
    /// The cost of cut `i` of node `v` is `cost[start[v] + i]`.
    start: Vec<usize>,
    cost: Vec<f64>,
}

impl Prices {
    fn new(aig: &Aig, cuts: &[Vec<Cut>], model: &dyn CutCost) -> Prices {
        let mut start = vec![0; aig.num_nodes()];
        let mut cost = Vec::new();
        for v in aig.iter_ands() {
            start[v as usize] = cost.len();
            for cut in &cuts[v as usize] {
                // The trivial cut is not implementable; it is never read.
                let price = if cut.leaves() == [v] {
                    f64::NAN
                } else {
                    model.cut_cost(cut.size(), cut.truth())
                };
                cost.push(price);
            }
        }
        Prices { start, cost }
    }

    /// The cost of cut `i` of node `v`.
    #[inline]
    fn of(&self, v: Var, i: usize) -> f64 {
        self.cost[self.start[v as usize] + i]
    }
}

/// Depth-optimal arrival labels: the minimum LUT level of every node.
fn depth_labels(aig: &Aig, cuts: &[Vec<Cut>]) -> Vec<u32> {
    let mut depth = vec![0u32; aig.num_nodes()];
    for v in aig.iter_ands() {
        let vi = v as usize;
        let mut best = u32::MAX;
        for cut in &cuts[vi] {
            if cut.leaves() == [v] {
                continue;
            }
            let arr = 1 + cut
                .leaves()
                .iter()
                .map(|&l| depth[l as usize])
                .max()
                .unwrap_or(0);
            best = best.min(arr);
        }
        depth[vi] = best;
    }
    depth
}

/// Required times induced by the current cover, whose reference counts
/// are `refs` ([`cover_refs`]), anchored at the depth-optimal PO levels.
fn compute_required(
    aig: &Aig,
    cuts: &[Vec<Cut>],
    best_cut: &[usize],
    refs: &[u32],
    opt_depth: &[u32],
    required: &mut [u32],
) {
    for r in required.iter_mut() {
        *r = u32::MAX;
    }
    for po in aig.pos() {
        let v = po.var() as usize;
        required[v] = required[v].min(opt_depth[v]);
    }
    // Reverse topological propagation over the cover.
    for v in (1..aig.num_nodes() as Var).rev() {
        let vi = v as usize;
        if !aig.node(v).is_and() || refs[vi] == 0 || required[vi] == u32::MAX {
            continue;
        }
        let cut = &cuts[vi][best_cut[vi]];
        let req_leaf = required[vi].saturating_sub(1);
        for &l in cut.leaves() {
            required[l as usize] = required[l as usize].min(req_leaf);
        }
    }
}

/// One bottom-up area-flow pass; fills `best_cut` and returns per-node flow.
fn area_flow_pass(
    aig: &Aig,
    cuts: &[Vec<Cut>],
    prices: &Prices,
    est_refs: &[f64],
    required: &[u32],
    opt_depth: &[u32],
    best_cut: &mut [usize],
) -> Vec<f64> {
    let mut flow = vec![0.0f64; aig.num_nodes()];
    let mut arrival = vec![0u32; aig.num_nodes()];
    for v in aig.iter_ands() {
        let vi = v as usize;
        let mut best = f64::INFINITY;
        let mut best_i = usize::MAX;
        let mut best_arr = u32::MAX;
        for (i, cut) in cuts[vi].iter().enumerate() {
            if cut.leaves() == [v] {
                continue; // the trivial cut is not implementable
            }
            let arr = 1 + cut
                .leaves()
                .iter()
                .map(|&l| arrival[l as usize])
                .max()
                .unwrap_or(0);
            // Depth feasibility: before required times exist (first pass,
            // or nodes outside the previous cover) the node's depth-optimal
            // label is the limit, making the first pass depth-oriented.
            let limit = if required[vi] != u32::MAX {
                required[vi]
            } else {
                opt_depth[vi]
            };
            let feasible = arr <= limit;
            let mut f = prices.of(v, i);
            for &l in cut.leaves() {
                f += flow[l as usize] / est_refs[l as usize];
            }
            let better = match (feasible, best_arr != u32::MAX) {
                (true, false) => true, // first feasible beats any infeasible
                (true, true) => f < best - 1e-12,
                (false, true) => false,
                (false, false) => f < best - 1e-12,
            };
            if better {
                best = f;
                best_i = i;
                best_arr = if feasible { arr } else { u32::MAX };
            }
        }
        debug_assert!(best_i != usize::MAX, "every AND node has a non-trivial cut");
        flow[vi] = best;
        arrival[vi] = 1 + cuts[vi][best_i]
            .leaves()
            .iter()
            .map(|&l| arrival[l as usize])
            .max()
            .unwrap_or(0);
        best_cut[vi] = best_i;
    }
    flow
}

/// Reference counts induced by the current choice of best cuts.
fn cover_refs(aig: &Aig, cuts: &[Vec<Cut>], best_cut: &[usize]) -> Vec<u32> {
    let mut refs = vec![0u32; aig.num_nodes()];
    let mut stack: Vec<Var> = Vec::new();
    for po in aig.pos() {
        refs[po.var() as usize] += 1;
        if aig.node(po.var()).is_and() && refs[po.var() as usize] == 1 {
            stack.push(po.var());
        }
    }
    while let Some(v) = stack.pop() {
        let cut = &cuts[v as usize][best_cut[v as usize]];
        for &l in cut.leaves() {
            refs[l as usize] += 1;
            if aig.node(l).is_and() && refs[l as usize] == 1 {
                stack.push(l);
            }
        }
    }
    refs
}

/// Extracts the cover and builds the netlist.
fn derive_netlist(aig: &Aig, cuts: &[Vec<Cut>], best_cut: &[usize]) -> LutNetlist {
    let mut net = LutNetlist::new(aig.num_pis());

    // Mark required AND nodes (cover roots).
    let mut required = vec![false; aig.num_nodes()];
    let mut stack: Vec<Var> = Vec::new();
    for po in aig.pos() {
        let v = po.var();
        if aig.node(v).is_and() && !required[v as usize] {
            required[v as usize] = true;
            stack.push(v);
        }
    }
    while let Some(v) = stack.pop() {
        let cut = &cuts[v as usize][best_cut[v as usize]];
        for &l in cut.leaves() {
            if aig.node(l).is_and() && !required[l as usize] {
                required[l as usize] = true;
                stack.push(l);
            }
        }
    }

    // Emit LUTs in topological (index) order; map node -> netlist signal.
    let mut signal: Vec<Option<LutSignal>> = vec![None; aig.num_nodes()];
    for (i, &pi) in aig.pis().iter().enumerate() {
        signal[pi as usize] = Some(LutSignal::new(i as u32));
    }
    for v in aig.iter_ands() {
        if !required[v as usize] {
            continue;
        }
        let vi = v as usize;
        let cut = &cuts[vi][best_cut[vi]];
        let tt = Tt::from_u64(cut.size(), cut.truth());
        let fanins: Vec<LutSignal> = cut
            .leaves()
            .iter()
            .map(|&l| signal[l as usize].expect("cut leaves precede the root"))
            .collect();
        signal[vi] = Some(net.add_lut(fanins, tt));
    }

    for po in aig.pos() {
        let v = po.var();
        let s = if po.is_const() {
            // Constant PO: a zero-input LUT holding the constant.
            let value = po.is_compl(); // !node0 == true
            net.add_lut(Vec::new(), if value { Tt::one(0) } else { Tt::zero(0) })
        } else {
            signal[v as usize]
                .expect("PO driver mapped")
                .xor_compl(po.is_compl())
        };
        net.add_output(s);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AreaCost, BranchingCost};
    use aig::Lit;

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
        g.add_po(pool[n / 2].xor_compl(true));
        g
    }

    fn check_netlist_equiv(g: &Aig, net: &LutNetlist) {
        assert_eq!(net.num_inputs(), g.num_pis());
        assert_eq!(net.num_outputs(), g.num_pos());
        let n = g.num_pis();
        assert!(n <= 12);
        for m in 0..(1usize << n) {
            let ins: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
            assert_eq!(g.eval(&ins), net.eval(&ins), "m={m}");
        }
    }

    #[test]
    fn mapping_preserves_function() {
        for seed in 0..6 {
            let g = random_aig(seed, 7, 60);
            for k in [3usize, 4, 5, 6] {
                let net = map_luts(&g, &MapParams { k }, &AreaCost);
                check_netlist_equiv(&g, &net);
                assert!(net.max_fanin() <= k);
            }
        }
    }

    #[test]
    fn branching_cost_mapping_preserves_function() {
        for seed in 20..25 {
            let g = random_aig(seed, 8, 80);
            let net = map_luts(&g, &MapParams::default(), &BranchingCost::new());
            check_netlist_equiv(&g, &net);
        }
    }

    /// LUT level of each netlist output; inputs and constants are level 0.
    fn output_levels(net: &LutNetlist) -> Vec<u32> {
        let mut level = vec![0u32; net.num_inputs()];
        for lut in net.luts() {
            let fanin = lut.fanins.iter().map(|f| level[f.node as usize]).max();
            level.push(fanin.map_or(0, |l| l + 1));
        }
        net.outputs()
            .iter()
            .map(|s| level[s.node as usize])
            .collect()
    }

    #[test]
    fn po_levels_are_depth_optimal() {
        for seed in 0..8 {
            let g = random_aig(seed, 8, 80);
            for k in [3usize, 4, 6] {
                let cuts = enumerate_cuts(
                    &g,
                    &CutParams {
                        k,
                        max_cuts: MAX_CUTS,
                    },
                );
                let labels = depth_labels(&g, &cuts);
                let optimal: Vec<u32> =
                    g.pos().iter().map(|po| labels[po.var() as usize]).collect();
                for cost in [&AreaCost as &dyn CutCost, &BranchingCost::new()] {
                    let net = map_luts(&g, &MapParams { k }, cost);
                    assert_eq!(output_levels(&net), optimal, "seed={seed} k={k}");
                }
            }
        }
    }

    #[test]
    fn mapping_compresses_and_chain() {
        // A 16-input AND chain fits in five 4-LUTs.
        let mut g = Aig::new();
        let pis = g.add_pis(16);
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        let net = map_luts(&g, &MapParams::default(), &AreaCost);
        assert!(net.num_luts() <= 5, "got {} LUTs", net.num_luts());
    }

    #[test]
    fn branching_cost_avoids_xor_packing() {
        // An XOR tree: the branching-cost mapper should produce a netlist
        // with no higher total branching complexity than the area mapper.
        let mut g = Aig::new();
        let pis = g.add_pis(8);
        let x = g.xor_many(&pis);
        g.add_po(x);
        let area_net = map_luts(&g, &MapParams::default(), &AreaCost);
        let br_net = map_luts(&g, &MapParams::default(), &BranchingCost::new());
        assert!(
            br_net.total_branching_complexity() <= area_net.total_branching_complexity(),
            "branching {} vs area {}",
            br_net.total_branching_complexity(),
            area_net.total_branching_complexity()
        );
    }

    #[test]
    fn constant_and_pi_outputs() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(Lit::TRUE);
        g.add_po(Lit::FALSE);
        g.add_po(a);
        g.add_po(!a);
        let net = map_luts(&g, &MapParams::default(), &AreaCost);
        assert_eq!(net.eval(&[true]), vec![true, false, true, false]);
        assert_eq!(net.eval(&[false]), vec![true, false, false, true]);
    }

    #[test]
    fn dead_logic_not_mapped() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let live = g.and(a, b);
        let _dead = g.xor(a, b);
        g.add_po(live);
        let net = map_luts(&g, &MapParams::default(), &AreaCost);
        assert_eq!(net.num_luts(), 1);
    }
}
