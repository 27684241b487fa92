//! Differential tests for the flat-arena clause database: the arena-backed
//! CDCL solver against the DPLL reference on generated corpora, plus
//! GC-under-load checks that force clause-database reductions mid-solve
//! and assert the watch/reason invariants survive arena compaction.
//!
//! UNSAT verdicts get a second, independent witness: they are routed
//! through the `checker` crate's backward RUP checker (via
//! [`csat_tests::solve_certified`] / [`sat::Solver::certify`])
//! rather than resting on DPLL-reference agreement alone.

use cnf::{Cnf, CnfLit};
use csat_tests::reference::dpll_sat;
use csat_tests::solve_certified;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sat::{solve_cnf, Budget, SolveResult, Solver, SolverConfig};
use workloads::cnf_gen::pigeonhole;
use workloads::dataset::{generate, DatasetParams};

fn random_cnf(rng: &mut rand::rngs::StdRng, n_vars: u32, n_clauses: usize, max_len: usize) -> Cnf {
    let mut f = Cnf::new();
    f.ensure_vars(n_vars);
    for _ in 0..n_clauses {
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
fn arena_agrees_with_reference_on_seed_corpus() {
    // The built-in workload corpus, Tseitin-encoded: verdicts must match
    // the instance labels and every SAT model must evaluate the circuit.
    let set = generate(
        &DatasetParams {
            count: 8,
            min_bits: 4,
            max_bits: 7,
            hard_multipliers: false,
        },
        0xA12E,
    );
    for inst in &set {
        let (formula, map) = cnf::tseitin_sat_instance(&inst.aig);
        for cfg in [SolverConfig::kissat_like(), SolverConfig::cadical_like()] {
            let res = solve_certified(&formula, cfg);
            if let Some(expected) = inst.expected {
                assert_eq!(res.is_sat(), expected, "{}", inst.name);
            }
            if let SolveResult::Sat(model) = &res {
                assert!(formula.eval(model), "{}: model must satisfy CNF", inst.name);
                let ins = map.decode_inputs(model);
                assert_eq!(inst.aig.eval(&ins), vec![true], "{}", inst.name);
            }
        }
    }
}

#[test]
fn arena_agrees_with_dpll_on_random_mixed_formulas() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1FF);
    for iter in 0..200 {
        let n = rng.gen_range(3..=13);
        let m = rng.gen_range(4..=(n as usize * 6));
        let f = random_cnf(&mut rng, n, m, 4);
        let expected = dpll_sat(&f);
        let res = solve_certified(&f, SolverConfig::default());
        assert_eq!(res.is_sat(), expected, "iter {iter}");
        if let SolveResult::Sat(model) = &res {
            assert!(f.eval(model), "iter {iter}: invalid model");
        }
    }
}

proptest! {
    /// Arena solver verdict == DPLL verdict and models are valid, on
    /// proptest-driven random formulas (both presets).
    #[test]
    fn arena_verdicts_match_dpll(seed in any::<u64>(), n in 3u32..=11, density in 20u32..=55) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = (n * density / 10) as usize;
        let f = random_cnf(&mut rng, n, m, 3);
        let expected = dpll_sat(&f);
        for cfg in [SolverConfig::kissat_like(), SolverConfig::cadical_like()] {
            let res = solve_certified(&f, cfg);
            prop_assert_eq!(res.is_sat(), expected);
            if let SolveResult::Sat(model) = &res {
                prop_assert!(f.eval(model), "invalid model");
            }
        }
    }
}

#[test]
fn binary_tier_agrees_with_dpll_on_random_2sat() {
    // Pure 2-SAT (plus occasional units): every clause lives in the inline
    // binary tier, so propagation, conflict analysis, and minimisation all
    // run on literal-valued reasons. Densities straddle the 2-SAT
    // SAT/UNSAT threshold (m/n = 1) to exercise both verdicts.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB1A2);
    for iter in 0..300 {
        let n = rng.gen_range(3..=14);
        let m = rng.gen_range(2..=(n as usize * 3));
        let f = random_cnf(&mut rng, n, m, 2);
        let expected = dpll_sat(&f);
        for cfg in [SolverConfig::kissat_like(), SolverConfig::cadical_like()] {
            let mut cfg = cfg;
            cfg.proof = true;
            let mut solver = Solver::from_cnf(&f, cfg);
            let res = solver.solve();
            solver.assert_integrity();
            assert_eq!(res.is_sat(), expected, "iter {iter}");
            if res.is_unsat() {
                // Binary-tier learnts (2-literal, inline) must show up in
                // the certificate like any other lemma.
                solver.certify(&[]).expect("UNSAT certificate verifies");
            }
            if let SolveResult::Sat(model) = &res {
                assert!(f.eval(model), "iter {iter}: invalid model");
            }
        }
    }
}

#[test]
fn binary_tier_handles_chains_and_implication_cycles() {
    // Structured binary workloads: long implication chains, consistent
    // cycles (all-equal loops), and contradictory cycles (x -> ... -> ¬x
    // with x forced). Everything resolves inside the binary tier.
    let chain = |f: &mut Cnf, from: u32, to: u32| {
        f.add_clause(vec![CnfLit::neg(from), CnfLit::pos(to)]); // from -> to
    };

    // A 64-long chain forced from the front: SAT, fully propagated.
    let mut f = Cnf::new();
    for i in 1..64 {
        chain(&mut f, i, i + 1);
    }
    f.add_unit(CnfLit::pos(1));
    let mut s = Solver::from_cnf(&f, SolverConfig::default());
    let res = s.solve();
    s.assert_integrity();
    match res {
        SolveResult::Sat(m) => assert!(m[..64].iter().all(|&b| b), "chain forces all"),
        other => panic!("expected SAT, got {other:?}"),
    }

    // An implication cycle is consistent (all-equal) ...
    let mut g = Cnf::new();
    for i in 1..=8 {
        chain(&mut g, i, i % 8 + 1);
    }
    assert!(dpll_sat(&g));
    let (res, _) = solve_cnf(&g, SolverConfig::default(), Budget::UNLIMITED);
    assert!(res.is_sat());

    // ... until one edge is flipped into x1 -> ... -> ¬x1 and x1 is
    // forced: the strongly connected component is contradictory.
    g.add_clause(vec![CnfLit::neg(8), CnfLit::neg(1)]);
    g.add_unit(CnfLit::pos(1));
    assert!(!dpll_sat(&g));
    let cfg = SolverConfig {
        proof: true,
        ..Default::default()
    };
    let mut s = Solver::from_cnf(&g, cfg);
    let res = s.solve();
    s.assert_integrity();
    assert!(res.is_unsat(), "contradictory implication cycle");
    s.certify(&[]).expect("UNSAT certificate verifies");
}

#[test]
fn mixed_binary_and_long_clauses_reduce_and_collect_soundly() {
    // Binary-heavy mixtures under an aggressive reduction cadence: learnt
    // twos go to the inline tier (never deleted), long learnts churn
    // through reduce + GC, and the verdict must still match DPLL.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x2B1D);
    let mut cfg = SolverConfig::kissat_like();
    cfg.reduce_first = 50;
    cfg.reduce_increment = 25;
    cfg.proof = true;
    for iter in 0..40 {
        let n = rng.gen_range(8..=16);
        let mut f = Cnf::new();
        f.ensure_vars(n);
        // ~2/3 binary clauses, ~1/3 ternary.
        for _ in 0..(n as usize * 4) {
            let len = if rng.gen_range(0..3) < 2 { 2 } else { 3 };
            let mut clause: Vec<CnfLit> = Vec::new();
            while clause.len() < len {
                let v = rng.gen_range(1..=n);
                if clause.iter().all(|l| l.var() != v) {
                    clause.push(CnfLit::new(v, rng.gen()));
                }
            }
            f.add_clause(clause);
        }
        let expected = dpll_sat(&f);
        let mut solver = Solver::from_cnf(&f, cfg.clone());
        let res = solver.solve();
        solver.assert_integrity();
        assert_eq!(res.is_sat(), expected, "iter {iter}");
        if res.is_unsat() {
            // The log must survive reduce_db churn: deletions are steps
            // too, and the checker replays them.
            solver.certify(&[]).expect("UNSAT certificate verifies");
        }
        if let SolveResult::Sat(model) = &res {
            assert!(f.eval(model), "iter {iter}: invalid model");
        }
    }
}

#[test]
fn gc_under_load_keeps_watches_and_reasons_intact() {
    // An aggressive reduction cadence forces many delete + compact cycles
    // while the solver is mid-proof; interrupting on a conflict budget
    // lets us audit the watch lists and reason table between bursts.
    let mut cfg = SolverConfig::kissat_like();
    cfg.reduce_first = 60;
    cfg.reduce_increment = 30;
    cfg.proof = true;
    let mut solver = Solver::from_cnf(&pigeonhole(7), cfg);
    solver.assert_integrity();
    let mut verdict = None;
    for burst in 1..=400u64 {
        solver.set_budget(Budget::conflicts(burst * 120));
        let res = solver.solve();
        solver.assert_integrity();
        if res != SolveResult::Unknown {
            verdict = Some(res);
            break;
        }
    }
    assert_eq!(verdict, Some(SolveResult::Unsat), "php(7) is UNSAT");
    let stats = solver.stats();
    assert!(stats.gcs > 0, "reduction cadence must trigger arena GC");
    assert!(stats.deleted_clauses > 0, "reduction must delete clauses");
    // The certificate survived budget interruptions, reductions, AND
    // arena GC — the independent checker signs off on the whole history.
    solver.certify(&[]).expect("UNSAT certificate verifies");
}

#[test]
fn gc_under_load_incremental_queries_stay_sound() {
    // GC between incremental queries with assumptions: learnt clauses are
    // reduced and compacted, later queries must still answer correctly.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x6C0D);
    let mut cfg = SolverConfig::cadical_like();
    cfg.reduce_first = 40;
    cfg.reduce_increment = 20;
    cfg.proof = true;
    let f = random_cnf(&mut rng, 16, 70, 3);
    let mut solver = Solver::from_cnf(&f, cfg);
    for iter in 0..30 {
        let a = CnfLit::new(rng.gen_range(1..=16), rng.gen());
        let b = CnfLit::new(rng.gen_range(1..=16), rng.gen());
        let assumptions = if b.var() == a.var() {
            vec![a]
        } else {
            vec![a, b]
        };
        let res = solver.solve_with_assumptions(&assumptions);
        solver.assert_integrity();
        // Reference: assumptions added as units to a copy.
        let mut f_units = f.clone();
        for &l in &assumptions {
            f_units.add_unit(l);
        }
        assert_eq!(res.is_sat(), dpll_sat(&f_units), "iter {iter}");
        if res.is_unsat() {
            // Assumption-UNSAT certificates: formula + assumption units
            // must refute, via the cumulative incremental log.
            solver
                .certify(&assumptions)
                .expect("UNSAT certificate verifies");
        }
        if let SolveResult::Sat(model) = &res {
            assert!(f_units.eval(model), "iter {iter}: model breaks assumptions");
        }
    }
}
