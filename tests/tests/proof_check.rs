//! Certificate round-trip suite: every UNSAT verdict the solver produces
//! must come with a proof the independent backward RUP checker accepts,
//! the solver's hints must settle every hinted lemma the checker
//! re-verifies, and corrupted certificates — or genuine ones checked
//! against a satisfiable weakening of their formula — must be rejected.

use checker::{CheckError, CheckOutcome, Proof};
use cnf::{tseitin_sat_instance, Cnf, CnfLit};
use csat_tests::{cnf_clauses, solve_certified};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sat::{SolveResult, Solver, SolverConfig};
use workloads::cnf_gen::{pigeonhole, random_2sat, random_3sat};
use workloads::lec::adder_miter;

/// Solves with proof logging on; on UNSAT returns the certificate and its
/// (asserted-valid) check outcome.
fn certificate(f: &Cnf, mut config: SolverConfig) -> Option<(Vec<Vec<i32>>, Proof, CheckOutcome)> {
    config.proof = true;
    let mut solver = Solver::from_cnf(f, config);
    if !solver.solve().is_unsat() {
        return None;
    }
    let formula = cnf_clauses(f);
    let proof = solver.into_proof().expect("logging on");
    let outcome = checker::check(&formula, &proof)
        .expect("UNSAT verdict must carry a checker-accepted certificate");
    Some((formula, proof, outcome))
}

/// The proof with every lemma's hints replaced by as many random
/// variables of `formula` (possibly repeated).
fn scramble_hints(formula: &[Vec<i32>], proof: &Proof, seed: u64) -> Proof {
    let max_var = formula
        .iter()
        .flatten()
        .map(|l| l.unsigned_abs())
        .max()
        .unwrap_or(1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut p = proof.clone();
    for step in &mut p.steps {
        for h in &mut step.hints {
            *h = rng.gen_range(1..=max_var);
        }
    }
    p
}

/// The proof with step `idx` removed.
fn drop_step(proof: &Proof, idx: usize) -> Proof {
    let mut p = proof.clone();
    p.steps.remove(idx);
    p
}

/// The proof with literal `li` of step `si` polarity-flipped.
fn flip_lit(proof: &Proof, si: usize, li: usize) -> Proof {
    let mut p = proof.clone();
    p.steps[si].lits[li] = -p.steps[si].lits[li];
    p
}

/// Index of the (single) empty-clause addition.
fn empty_step(proof: &Proof) -> usize {
    proof
        .steps
        .iter()
        .position(|s| !s.delete && s.lits.is_empty())
        .expect("a genuine UNSAT proof ends with the empty clause")
}

#[test]
fn pigeonhole_certificates_verify_under_both_presets() {
    for holes in 2..=5 {
        let f = pigeonhole(holes);
        for config in [SolverConfig::kissat_like(), SolverConfig::cadical_like()] {
            let (_, proof, outcome) =
                certificate(&f, config).expect("pigeonhole formulas are UNSAT");
            assert!(outcome.verified_adds >= 1);
            assert!(
                proof.steps.iter().any(|s| !s.delete && s.lits.is_empty()),
                "genuine UNSAT must log the empty clause"
            );
        }
    }
}

#[test]
fn adder_miter_certificates_verify() {
    for bits in [2, 4, 8] {
        let (f, _) = tseitin_sat_instance(&adder_miter(bits));
        let (_, _, outcome) =
            certificate(&f, SolverConfig::default()).expect("equal adders: miter is UNSAT");
        assert!(outcome.verified_adds >= 1);
    }
}

#[test]
fn hints_settle_every_hinted_core_lemma() {
    let cases = [
        ("adder_miter(8)", tseitin_sat_instance(&adder_miter(8)).0),
        ("adder_miter(16)", tseitin_sat_instance(&adder_miter(16)).0),
        ("pigeonhole(5)", pigeonhole(5)),
    ];
    for (name, f) in &cases {
        for config in [SolverConfig::kissat_like(), SolverConfig::cadical_like()] {
            let (_, proof, outcome) = certificate(f, config).expect("UNSAT");
            let hinted_core = outcome
                .core_steps
                .iter()
                .filter(|&&si| !proof.steps[si].hints.is_empty())
                .count();
            assert!(outcome.hinted_adds > 0, "{name}: no lemma settled by hints");
            assert_eq!(
                outcome.hinted_adds, hinted_core,
                "{name}: a hinted lemma fell back to full propagation"
            );
        }
    }
}

#[test]
fn stripping_the_empty_clause_is_always_rejected() {
    let f = pigeonhole(4);
    let (formula, proof, _) = certificate(&f, SolverConfig::default()).unwrap();
    let truncated = drop_step(&proof, empty_step(&proof));
    assert_eq!(
        checker::check(&formula, &truncated),
        Err(CheckError::EmptyClauseMissing)
    );
}

#[test]
fn mutated_certificates_are_rejected() {
    let f = pigeonhole(4);
    let (formula, proof, outcome) = certificate(&f, SolverConfig::default()).unwrap();
    let empty = empty_step(&proof);
    let core: Vec<usize> = outcome
        .core_steps
        .iter()
        .copied()
        .filter(|&si| si != empty)
        .collect();
    assert!(!core.is_empty(), "php(4) needs derived lemmas");
    assert!(outcome.hinted_adds > 0, "the mutants below carry hints");
    // Random in-range hints are no mutation: the certificate still holds.
    checker::check(&formula, &scramble_hints(&formula, &proof, 4)).unwrap();
    let mut drop_rejects = 0usize;
    let mut flip_rejects = 0usize;
    for &si in &core {
        if checker::check(&formula, &drop_step(&proof, si)).is_err() {
            drop_rejects += 1;
        }
        if checker::check(&formula, &flip_lit(&proof, si, 0)).is_err() {
            flip_rejects += 1;
        }
    }
    // Not every mutant is rejectable — a backward checker may route the
    // refutation around a dropped or damaged lemma — but for php(4) the
    // bulk of the core is load-bearing (empirically 27/30 drops and
    // 22/30 flips reject; deterministic for a fixed instance + preset).
    assert!(
        drop_rejects >= core.len() / 2,
        "{drop_rejects}/{}",
        core.len()
    );
    assert!(
        flip_rejects >= core.len() / 2,
        "{flip_rejects}/{}",
        core.len()
    );
}

/// `formula` without the clauses at the indices in `removed`.
fn without(formula: &[Vec<i32>], removed: &[usize]) -> Vec<Vec<i32>> {
    let kept = (0..formula.len()).filter(|i| !removed.contains(i));
    kept.map(|i| formula[i].clone()).collect()
}

/// True when the solver finds a model of `clauses` (over `num_vars`
/// variables) and the model satisfies every clause on replay.
fn replayed_sat(clauses: &[Vec<i32>], num_vars: u32) -> bool {
    let mut f = Cnf::new();
    f.ensure_vars(num_vars);
    for c in clauses {
        f.add_clause(c.iter().map(|&l| CnfLit::from_dimacs(l)).collect());
    }
    match Solver::from_cnf(&f, SolverConfig::default()).solve() {
        SolveResult::Sat(model) => {
            let holds = |l: i32| model[l.unsigned_abs() as usize - 1] == (l > 0);
            assert!(clauses.iter().all(|c| c.iter().any(|&l| holds(l))));
            true
        }
        SolveResult::Unsat => false,
        SolveResult::Unknown => unreachable!("no budget was set"),
    }
}

/// Satisfiable weakenings of `formula`, each with a replayed model: the
/// formula without one of up to `n` clauses spread over `core`, for each
/// such clause whose removal leaves it satisfiable; if none does, the
/// formula without the first core clauses, as few as leave it so.
fn satisfiable_weakenings(
    formula: &[Vec<i32>],
    num_vars: u32,
    core: &[usize],
    n: usize,
) -> Vec<Vec<Vec<i32>>> {
    let spread = core.iter().step_by((core.len() / n).max(1)).take(n);
    let mut out: Vec<Vec<Vec<i32>>> = spread
        .map(|&ci| without(formula, &[ci]))
        .filter(|w| replayed_sat(w, num_vars))
        .collect();
    if out.is_empty() {
        let prefix = (1..=core.len()).map(|k| without(formula, &core[..k]));
        out.extend(prefix.filter(|w| replayed_sat(w, num_vars)).take(1));
    }
    out
}

/// The checker's soundness, whatever its engine: a certificate checked
/// against a satisfiable weakening of its formula refutes nothing, so
/// every such check must be rejected.
#[test]
fn certificates_are_rejected_on_satisfiable_weakenings() {
    let mut cases: Vec<(String, Cnf, Vec<usize>)> = Vec::new();
    for holes in 4..=6u32 {
        // Clause p is pigeon p's at-least-one clause: without it the
        // other pigeons fit.
        cases.push((
            format!("php({holes})"),
            pigeonhole(holes),
            vec![0, holes as usize],
        ));
    }
    cases.push((
        "adder_miter(8)".into(),
        tseitin_sat_instance(&adder_miter(8)).0,
        vec![],
    ));
    let unsat_3sat = (0..64u64)
        .map(|seed| (seed, random_3sat(40, 6.0, seed)))
        .filter(|(_, f)| !replayed_sat(&cnf_clauses(f), f.num_vars()))
        .take(4);
    for (seed, f) in unsat_3sat {
        cases.push((format!("random_3sat(40, 6.0, {seed})"), f, vec![]));
    }
    assert_eq!(cases.len(), 8, "four seeded UNSAT 3-SAT formulas");
    for (name, f, named) in &cases {
        let (formula, proof, outcome) =
            certificate(f, SolverConfig::kissat_like()).expect("the cases are UNSAT");
        let mut weakenings: Vec<Vec<Vec<i32>>> =
            named.iter().map(|&ci| without(&formula, &[ci])).collect();
        assert!(
            weakenings.iter().all(|w| replayed_sat(w, f.num_vars())),
            "{name}"
        );
        weakenings.extend(satisfiable_weakenings(
            &formula,
            f.num_vars(),
            &outcome.core_formula,
            4,
        ));
        assert!(!weakenings.is_empty(), "{name}: no satisfiable weakening");
        for w in &weakenings {
            assert!(
                checker::check(w, &proof).is_err(),
                "{name}: a certificate was accepted for a satisfiable formula"
            );
        }
    }
}

proptest! {
    // Case count follows PROPTEST_CASES (CI: 16 default, 48 certified job).

    #[test]
    fn random_3sat_unsat_verdicts_are_certified(
        n in 5u32..16,
        ratio_pct in 400u32..600,
        seed in 0u64..1_000_000,
    ) {
        let f = random_3sat(n, f64::from(ratio_pct) / 100.0, seed);
        // Certified against BOTH presets: any UNSAT answer panics inside
        // solve_certified unless the independent checker accepts it.
        let a = solve_certified(&f, SolverConfig::kissat_like());
        let b = solve_certified(&f, SolverConfig::cadical_like());
        prop_assert_eq!(a.is_sat(), b.is_sat(), "presets disagree on {:?}", f);
    }

    #[test]
    fn random_2sat_unsat_verdicts_are_certified(
        n in 4u32..40,
        ratio_pct in 150u32..300,
        seed in 0u64..1_000_000,
    ) {
        let f = random_2sat(n, f64::from(ratio_pct) / 100.0, seed);
        solve_certified(&f, SolverConfig::kissat_like());
        solve_certified(&f, SolverConfig::cadical_like());
    }

    #[test]
    fn unsat_certificates_survive_mutation_screening(
        n in 6u32..14,
        seed in 0u64..1_000_000,
    ) {
        let f = random_3sat(n, 5.5, seed);
        if let Some((formula, proof, _)) = certificate(&f, SolverConfig::default()) {
            // Guaranteed-reject mutation: a proof without its terminal
            // empty clause asserts nothing.
            let truncated = drop_step(&proof, empty_step(&proof));
            prop_assert_eq!(
                checker::check(&formula, &truncated),
                Err(CheckError::EmptyClauseMissing)
            );
            // Hints are advice: random in-range ones change no verdict.
            let scrambled = scramble_hints(&formula, &proof, seed);
            prop_assert!(checker::check(&formula, &scrambled).is_ok());
        }
    }
}
