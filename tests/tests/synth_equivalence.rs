//! Exact (SAT-miter) equivalence checks for every synthesis operation.
//!
//! The unit suites verify equivalence by exhaustive/random simulation; here
//! the full stack is closed: old-vs-new miters are built and *proved* UNSAT
//! with the CDCL solver, on random graphs and on real datapath circuits.

use aig::{Aig, Lit};
use cnf::tseitin_sat_instance;
use rand::{Rng, SeedableRng};
use sat::{solve_cnf, Budget, SolverConfig};
use synth::{apply_op, apply_recipe, Recipe, SynthOp};
use workloads::datapath::{alu, array_multiplier, carry_lookahead_adder, ripple_carry_adder};
use workloads::lec::miter;

fn random_aig(seed: u64, n_pis: usize, n_gates: usize) -> Aig {
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
    g.add_po(pool[n - 2].xor_compl(true));
    g
}

/// Proves `a == b` by showing their miter is UNSAT.
fn prove_equivalent(a: &Aig, b: &Aig) -> bool {
    let m = miter(a, b);
    let (formula, _) = tseitin_sat_instance(&m);
    let (res, _) = solve_cnf(&formula, SolverConfig::kissat_like(), Budget::UNLIMITED);
    res.is_unsat()
}

#[test]
fn each_op_proved_equivalent_on_random_graphs() {
    for seed in 0..4 {
        let g = random_aig(seed, 10, 120);
        for op in SynthOp::ALL {
            let h = apply_op(&g, op);
            assert!(prove_equivalent(&g, &h), "seed {seed} op {op}");
        }
    }
}

#[test]
fn recipes_proved_equivalent_on_datapath() {
    let circuits: Vec<Aig> = vec![
        ripple_carry_adder(10).aig,
        carry_lookahead_adder(8).aig,
        alu(6).aig,
        array_multiplier(4).aig,
    ];
    for (i, c) in circuits.iter().enumerate() {
        let h = Recipe::size_script().apply(c);
        assert!(prove_equivalent(c, &h), "circuit {i} size_script");
        let h = apply_recipe(c, &[SynthOp::Resub, SynthOp::Resub, SynthOp::Rewrite]);
        assert!(prove_equivalent(c, &h), "circuit {i} rs;rs;rw");
    }
}

#[test]
fn long_random_recipes_proved_equivalent() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let g = random_aig(99, 12, 200);
    for trial in 0..3 {
        let ops: Vec<SynthOp> = (0..8)
            .map(|_| SynthOp::ALL[rng.gen_range(0..SynthOp::ALL.len())])
            .collect();
        let h = apply_recipe(&g, &ops);
        assert!(prove_equivalent(&g, &h), "trial {trial} ops {ops:?}");
    }
}

#[test]
fn fraig_proved_equivalent_on_random_graphs_and_datapath() {
    // SAT sweeping merges nodes based on its *own* SAT proofs; close the
    // loop by re-proving input/output equivalence with an independent
    // miter for every sweep.
    for seed in 0..4 {
        let g = random_aig(seed + 1000, 10, 150);
        let out = sweep::fraig(&g, &sweep::FraigParams::default());
        assert!(prove_equivalent(&g, &out.aig), "seed {seed}");
        assert!(out.aig.num_ands() <= g.num_ands(), "seed {seed}");
    }
    for c in [carry_lookahead_adder(8).aig, array_multiplier(4).aig] {
        let out = sweep::fraig(&c, &sweep::FraigParams::default());
        assert!(prove_equivalent(&c, &out.aig));
    }
}

#[test]
fn fraig_composes_with_synthesis_recipes() {
    // recipe ∘ fraig and fraig ∘ recipe both preserve the function.
    let g = random_aig(4242, 10, 140);
    let swept = sweep::fraig(&g, &sweep::FraigParams::default()).aig;
    let then_synth = Recipe::size_script().apply(&swept);
    assert!(prove_equivalent(&g, &then_synth));

    let synth_first = Recipe::size_script().apply(&g);
    let then_swept = sweep::fraig(&synth_first, &sweep::FraigParams::default()).aig;
    assert!(prove_equivalent(&g, &then_swept));
}

#[test]
fn fraig_collapses_datapath_equivalence_miters() {
    // An adder-architecture miter is UNSAT; sweeping must discover that
    // structurally (constant-false PO) on its own.
    let m = miter(&ripple_carry_adder(8).aig, &carry_lookahead_adder(8).aig);
    let out = sweep::fraig(&m, &sweep::FraigParams::default());
    assert_eq!(
        out.aig.pos()[0],
        Lit::FALSE,
        "miter must sweep to constant false"
    );
    assert_eq!(out.aig.num_ands(), 0);
}

#[test]
fn synthesis_reduces_datapath_size() {
    // The size script must shrink redundancy-heavy circuits.
    let base = carry_lookahead_adder(16).aig;
    let re = workloads::lec::restructure(&base, 5);
    assert!(re.num_ands() > base.num_ands());
    let opt = Recipe::size_script().apply(&re);
    assert!(
        opt.num_ands() < re.num_ands(),
        "synthesis should remove injected redundancy: {} -> {}",
        re.num_ands(),
        opt.num_ands()
    );
    assert!(prove_equivalent(&re, &opt));
}

/// Order-sensitive digest of a CNF's clause list: the solver sees clauses
/// in this order, so a reordering counts as drift.
fn clause_digest(cnf: &cnf::Cnf) -> u64 {
    use std::hash::Hasher;
    let mut h = aig::hash::FastHasher::default();
    for clause in cnf.clauses() {
        h.write_u64(clause.len() as u64);
        for lit in clause {
            h.write_u64(lit.to_dimacs() as i64 as u64);
        }
    }
    h.finish()
}

/// Exact outputs of every synthesis operation, the fixed recipes, and the
/// LUT mapping and encoding of the `rs;rs;rw` result:
/// `(num_ands, structural_hash)` per synthesis output and
/// `(luts, branching, clauses, clause digest)` per mapping cost. The
/// values were recorded with table-allocating truth-table kernels; any
/// kernel must reproduce them exactly (the same cubes in the same order,
/// the same cut tables, the same resubstitution choices), since the CNF's
/// clause order steers the solver.
#[test]
fn synthesis_and_mapping_outputs_are_pinned() {
    use cnf::lut_to_cnf;
    use mapper::{map_luts, AreaCost, BranchingCost, CutCost, MapParams};

    let circuits: [(&str, Aig); 4] = [
        ("rca16", ripple_carry_adder(16).aig),
        ("cla12", carry_lookahead_adder(12).aig),
        ("alu8", alu(8).aig),
        ("random", random_aig(2025, 12, 220)),
    ];
    let mut got = Vec::new();
    for (name, g) in &circuits {
        let mut row = Vec::new();
        for op in SynthOp::ALL {
            let h = apply_op(g, op);
            row.push((h.num_ands(), h.structural_hash()));
        }
        let h = Recipe::size_script().apply(g);
        row.push((h.num_ands(), h.structural_hash()));
        let ours = apply_recipe(g, &[SynthOp::Resub, SynthOp::Resub, SynthOp::Rewrite]);
        row.push((ours.num_ands(), ours.structural_hash()));
        let mut mapped = Vec::new();
        let costs: [&dyn CutCost; 2] = [&AreaCost, &BranchingCost::new()];
        for cost in costs {
            let net = map_luts(&ours, &MapParams::default(), cost);
            let (formula, _) = lut_to_cnf(&net);
            mapped.push((
                net.num_luts(),
                net.total_branching_complexity(),
                formula.num_clauses(),
                clause_digest(&formula),
            ));
        }
        got.push((*name, row, mapped));
    }
    // Columns: b, rw, rwz, rf, rs, size_script, rs;rs;rw.
    #[allow(clippy::type_complexity)]
    let want: [(&str, [(usize, u64); 7], [(usize, usize, usize, u64); 2]); 4] = [
        (
            "rca16",
            [
                (139, 551371359245354189),
                (124, 3517459078978321342),
                (124, 13142288429559003637),
                (123, 14856936732810142755),
                (139, 716672985741823765),
                (108, 6107588471789222977),
                (124, 3517459078978321342),
            ],
            [
                (46, 291, 291, 16459105624640760664),
                (50, 262, 262, 9446512929608339988),
            ],
        ),
        (
            "cla12",
            [
                (279, 3775471094601931686),
                (212, 8145982236878036058),
                (212, 12217145004249609197),
                (242, 9580186186426337164),
                (197, 18387217151158606432),
                (218, 6437524759224678347),
                (176, 8963728898767772244),
            ],
            [
                (75, 473, 473, 12855451542681349288),
                (74, 421, 421, 7268448419951646153),
            ],
        ),
        (
            "alu8",
            [
                (147, 15248554272352421309),
                (129, 4780512487393825397),
                (129, 13691745915945788760),
                (135, 1745707490877629884),
                (145, 9639364128109576363),
                (129, 17610677210670678103),
                (135, 6830564991039387479),
            ],
            [
                (43, 239, 239, 4320819409792015663),
                (47, 225, 225, 4957303359063548136),
            ],
        ),
        (
            "random",
            [
                (306, 2387466389859405404),
                (57, 13587083553089070165),
                (57, 10226461256017219592),
                (61, 4556165529667038090),
                (51, 3701037774028314299),
                (43, 14095366387232690002),
                (44, 11581290121959185898),
            ],
            [
                (14, 70, 70, 9849992691875501624),
                (14, 65, 65, 928078769115491222),
            ],
        ),
    ];
    for ((name, row, mapped), (want_name, want_row, want_mapped)) in got.iter().zip(&want) {
        assert_eq!(name, want_name);
        assert_eq!(
            row.as_slice(),
            want_row.as_slice(),
            "{name}: synthesis outputs"
        );
        assert_eq!(
            mapped.as_slice(),
            want_mapped.as_slice(),
            "{name}: area, branching mappings"
        );
    }
}

/// Exact LUT mappings of the `rs;rs;rw` result at the LUT sizes the pin
/// above leaves out: `(luts, branching, clauses, clause digest)` per LUT
/// size and cost. Cut functions over fewer leaves than the LUT size carry
/// don't-care variables, so these rows catch a cut function whose
/// variables sit in the wrong places.
#[test]
fn mapping_at_lut_sizes_3_5_and_6_is_pinned() {
    use cnf::lut_to_cnf;
    use mapper::{map_luts, AreaCost, BranchingCost, CutCost, MapParams};

    let circuits: [(&str, Aig); 4] = [
        ("rca16", ripple_carry_adder(16).aig),
        ("cla12", carry_lookahead_adder(12).aig),
        ("alu8", alu(8).aig),
        ("random", random_aig(2025, 12, 220)),
    ];
    let mut got = Vec::new();
    for (name, g) in &circuits {
        let ours = apply_recipe(g, &[SynthOp::Resub, SynthOp::Resub, SynthOp::Rewrite]);
        let mut mapped = Vec::new();
        for k in [3, 5, 6] {
            let costs: [&dyn CutCost; 2] = [&AreaCost, &BranchingCost::new()];
            for cost in costs {
                let net = map_luts(&ours, &MapParams { k }, cost);
                let (formula, _) = lut_to_cnf(&net);
                mapped.push((
                    net.num_luts(),
                    net.total_branching_complexity(),
                    formula.num_clauses(),
                    clause_digest(&formula),
                ));
            }
        }
        got.push((*name, mapped));
    }
    // Per circuit: k = 3, 5 and 6, each under area then branching cost.
    #[allow(clippy::type_complexity)]
    let want: [(&str, [(usize, usize, usize, u64); 6]); 4] = [
        (
            "rca16",
            [
                (32, 217, 217, 10470965410161647893),
                (47, 217, 217, 16490040957318619565),
                (46, 291, 291, 16459105624640760664),
                (50, 262, 262, 9446512929608339988),
                (46, 291, 291, 16459105624640760664),
                (50, 262, 262, 9446512929608339988),
            ],
        ),
        (
            "cla12",
            [
                (94, 431, 431, 8070250860861333310),
                (94, 377, 377, 5955263132996944078),
                (74, 471, 471, 13928250354075112909),
                (74, 421, 421, 7268448419951646153),
                (74, 471, 471, 13928250354075112909),
                (74, 421, 421, 7268448419951646153),
            ],
        ),
        (
            "alu8",
            [
                (46, 224, 224, 4255334368987951456),
                (52, 222, 222, 8107742626234023793),
                (41, 244, 244, 10168351568000686631),
                (45, 227, 227, 16481371860956180638),
                (41, 244, 244, 10168351568000686631),
                (45, 227, 227, 16481371860956180638),
            ],
        ),
        (
            "random",
            [
                (21, 84, 84, 4298002835513797153),
                (21, 81, 81, 5238271054495680862),
                (13, 76, 76, 6195624895615725721),
                (13, 64, 64, 15546470566343055187),
                (13, 76, 76, 6195624895615725721),
                (13, 64, 64, 15546470566343055187),
            ],
        ),
    ];
    for ((name, mapped), (want_name, want_mapped)) in got.iter().zip(&want) {
        assert_eq!(name, want_name);
        assert_eq!(
            mapped.as_slice(),
            want_mapped.as_slice(),
            "{name}: k = 3, 5, 6 area and branching mappings"
        );
    }
}

/// *Comp.* is the *C. Mapper* arm on the fixed size script: the same
/// clauses in the same order, the same decoder and the same recipe string
/// on each pinned circuit, under its own report name.
#[test]
fn comp_pipeline_is_the_conventional_mapper_on_the_size_script() {
    use csat_preproc::{CompPipeline, FrameworkPipeline, Pipeline};
    use rl::RecipePolicy;

    let comp = CompPipeline;
    let cmap = FrameworkPipeline::conventional_mapper(RecipePolicy::Fixed(Recipe::size_script()));
    assert_eq!(comp.name(), "Comp.");
    let circuits: [(&str, Aig); 4] = [
        ("rca16", ripple_carry_adder(16).aig),
        ("cla12", carry_lookahead_adder(12).aig),
        ("alu8", alu(8).aig),
        ("random", random_aig(2025, 12, 220)),
    ];
    for (name, g) in &circuits {
        let (a, b) = (comp.preprocess(g), cmap.preprocess(g));
        assert!(a.cnf == b.cnf, "{name}: clauses");
        assert_eq!(
            format!("{:?}", a.decoder),
            format!("{:?}", b.decoder),
            "{name}: decoder"
        );
        assert_eq!(a.recipe, b.recipe, "{name}: recipe");
    }
}
