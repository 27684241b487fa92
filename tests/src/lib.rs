//! Integration test support crate (tests live in `tests/tests/`).
//!
//! Most helpers here route UNSAT verdicts through the independent
//! `checker` crate: solve with proof logging on and demand the backward
//! RUP checker accepts the solver's certificate ([`Solver::certify`]).
//! Test suites use these instead of trusting the solver's (or the DPLL
//! reference's) word for unsatisfiability. [`eval_node_words`] is the
//! scalar reference the compiled simulation engine is tested against, and
//! [`reference::dpll_sat`] the plain DPLL oracle the solver's verdicts
//! are cross-checked against.

#![forbid(unsafe_code)]

pub mod reference;

use aig::{Aig, Lit};
use cnf::Cnf;
use sat::{SolveResult, Solver, SolverConfig};

/// A [`Cnf`] as the checker's plain DIMACS clause list.
pub fn cnf_clauses(f: &Cnf) -> Vec<Vec<i32>> {
    f.clauses()
        .iter()
        .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
        .collect()
}

/// Solves `f` with proof logging forced on and, when the verdict is
/// UNSAT, verifies the certificate with the independent checker —
/// panicking if the checker rejects it. Returns the verdict so callers
/// can keep asserting against their own expectations.
pub fn solve_certified(f: &Cnf, config: SolverConfig) -> SolveResult {
    let mut config = config;
    config.proof = true;
    let mut solver = Solver::from_cnf(f, config);
    let result = solver.solve();
    if result.is_unsat() {
        let log = solver.proof().expect("proof logging was enabled");
        let outcome = checker::check(&cnf_clauses(f), log.proof())
            .expect("UNSAT verdict must carry a checker-accepted certificate");
        assert!(
            outcome.verified_adds >= 1,
            "a refutation verifies at least the empty clause"
        );
    }
    result
}

/// Scalar reference simulation of every node: for each of the 64 patterns
/// packed in `pi_words` (bit `j` of word `i` is PI `i` in pattern `j`),
/// evaluates `g` with [`Aig::eval`] alone and packs each node's value
/// back into one word per node, in node order (constant node first).
///
/// `eval` reports POs only, so it runs on a copy of `g` with every node
/// added as a PO.
pub fn eval_node_words(g: &Aig, pi_words: &[u64]) -> Vec<u64> {
    let mut probe = g.clone();
    for v in 0..g.num_nodes() {
        probe.add_po(Lit::from_var(v as u32, false));
    }
    let mut words = vec![0u64; g.num_nodes()];
    for bit in 0..64 {
        let ins: Vec<bool> = pi_words.iter().map(|w| w >> bit & 1 != 0).collect();
        for (word, value) in words.iter_mut().zip(&probe.eval(&ins)[g.num_pos()..]) {
            *word |= u64::from(*value) << bit;
        }
    }
    words
}
