//! Mapping and encoding invariants across crates:
//! cover correctness, depth constraints, branching-complexity accounting,
//! and Tseitin-vs-LUT encoding equisatisfiability.

use aig::Aig;
use cnf::{lut_to_cnf, lut_to_cnf_sat_instance, tseitin_sat_instance};
use mapper::{map_luts, AreaCost, BranchingCost, CutCost, MapParams};
use sat::{solve_cnf, Budget, SolverConfig};
use workloads::datapath::{alu, array_multiplier, carry_lookahead_adder, parity};
use workloads::lec::{inject_bug, miter};

fn exhaustive_agree(aig: &Aig, net: &cnf::LutNetlist) {
    let n = aig.num_pis();
    assert!(n <= 14, "exhaustive check bound");
    for m in 0..(1usize << n) {
        let ins: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
        assert_eq!(aig.eval(&ins), net.eval(&ins), "m={m}");
    }
}

#[test]
fn mapping_equivalent_on_datapath_all_costs_and_k() {
    let circuits: Vec<Aig> = vec![
        alu(4).aig,
        array_multiplier(3).aig,
        carry_lookahead_adder(5).aig,
        parity(9).aig,
    ];
    for c in &circuits {
        for k in [3usize, 4, 6] {
            let params = MapParams { k };
            let a = map_luts(c, &params, &AreaCost);
            exhaustive_agree(c, &a);
            let b = map_luts(c, &params, &BranchingCost::new());
            exhaustive_agree(c, &b);
        }
    }
}

#[test]
fn branching_cost_never_exceeds_area_cost_mapping() {
    // By construction the branching-cost mapper minimises total branching
    // complexity; the area mapper's netlist must not beat it on that metric.
    for c in [alu(8).aig, array_multiplier(5).aig, parity(16).aig] {
        let params = MapParams::default();
        let area = map_luts(&c, &params, &AreaCost);
        let br = map_luts(&c, &params, &BranchingCost::new());
        assert!(
            br.total_branching_complexity() <= area.total_branching_complexity(),
            "branching mapper must win its own metric: {} vs {}",
            br.total_branching_complexity(),
            area.total_branching_complexity()
        );
    }
}

#[test]
fn clause_count_equals_total_branching_complexity() {
    // The gate clauses of lut2cnf are exactly the netlist's branching
    // complexity — the invariant linking Sec. III-C to the CNF.
    for c in [alu(6).aig, carry_lookahead_adder(8).aig] {
        let net = map_luts(&c, &MapParams::default(), &BranchingCost::new());
        let (formula, _) = lut_to_cnf(&net);
        assert_eq!(formula.num_clauses(), net.total_branching_complexity());
    }
}

#[test]
fn encodings_equisatisfiable_on_miters() {
    let blk = array_multiplier(4);
    let buggy = inject_bug(&blk.aig, 3, 64).expect("bug");
    let sat_inst = miter(&blk.aig, &buggy);
    let unsat_inst = miter(&blk.aig, &workloads::datapath::column_multiplier(4).aig);
    for (inst, expect_sat) in [(&sat_inst, true), (&unsat_inst, false)] {
        let (tseitin, tmap) = tseitin_sat_instance(inst);
        let net = map_luts(inst, &MapParams::default(), &BranchingCost::new());
        let (lut, lmap) = lut_to_cnf_sat_instance(&net);
        for (formula, is_lut) in [(&tseitin, false), (&lut, true)] {
            let (res, _) = solve_cnf(formula, SolverConfig::cadical_like(), Budget::UNLIMITED);
            assert_eq!(res.is_sat(), expect_sat, "lut={is_lut}");
            if let sat::SolveResult::Sat(model) = res {
                let ins = if is_lut {
                    lmap.decode_inputs(&model)
                } else {
                    tmap.decode_inputs(&model)
                };
                assert_eq!(inst.eval(&ins), vec![true]);
            }
        }
    }
}

#[test]
fn depth_constraint_bounds_lut_levels() {
    // Mapping keeps depth-optimal PO levels, which depend on the cuts
    // alone: whatever the cut cost, the netlist is equally deep.
    for c in [
        carry_lookahead_adder(12).aig,
        alu(8).aig,
        array_multiplier(5).aig,
    ] {
        for k in [3usize, 4, 6] {
            let params = MapParams { k };
            let area = net_depth(&map_luts(&c, &params, &AreaCost));
            let branching = net_depth(&map_luts(&c, &params, &BranchingCost::new()));
            assert_eq!(area, branching, "k={k}");
        }
    }
}

fn net_depth(net: &cnf::LutNetlist) -> u32 {
    let mut level = vec![0u32; net.num_inputs() + net.num_luts()];
    for (i, lut) in net.luts().iter().enumerate() {
        let l = 1 + lut
            .fanins
            .iter()
            .map(|f| level[f.node as usize])
            .max()
            .unwrap_or(0);
        level[net.num_inputs() + i] = l;
    }
    net.outputs()
        .iter()
        .map(|s| level[s.node as usize])
        .max()
        .unwrap_or(0)
}

#[test]
fn xor_cells_priced_higher_than_and_cells() {
    // Fig. 3 sanity at the trait level.
    let cost = BranchingCost::new();
    let (and2, xor2) = (0x8, 0x6);
    assert_eq!(cost.cut_cost(2, and2), 3.0);
    assert_eq!(cost.cut_cost(2, xor2), 4.0);
}

#[test]
fn cut_words_match_cone_tables_on_datapath_miters() {
    // Every enumerated cut carries its function from the merge; a window
    // evaluating the cut's cone must give the same table, stretched to
    // six variables, at every cut size the mapper and rewriting use.
    use aig::cut::{enumerate_cuts, CutParams};
    use workloads::datapath::{carry_select_adder, ripple_carry_adder};
    use workloads::lec::restructure;

    let mut window = aig::Window::new();
    for bits in 4..=16 {
        let (rca, cla) = (
            ripple_carry_adder(bits).aig,
            carry_lookahead_adder(bits).aig,
        );
        let alu = alu(bits).aig;
        let miters = [
            ("rca/cla", miter(&rca, &cla)),
            (
                "rca/csel",
                miter(&rca, &carry_select_adder(bits, 2 + bits / 6).aig),
            ),
            ("cla/csel", miter(&cla, &carry_select_adder(bits, 2).aig)),
            ("alu", miter(&restructure(&alu, bits as u64), &alu)),
        ];
        for (name, g) in &miters {
            for k in 2..=6 {
                let cuts = enumerate_cuts(g, &CutParams { k, max_cuts: 8 });
                for v in g.iter_ands() {
                    for cut in &cuts[v as usize] {
                        let table = window.cut_function(g, v, cut.leaves());
                        let want = table.extend_to(6).to_u64();
                        assert_eq!(cut.truth(), want, "{name} {bits}: k={k} v={v}");
                    }
                }
            }
        }
    }
}
