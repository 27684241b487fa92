//! Clausal (DRAT-style) proof logging.
//!
//! When [`crate::SolverConfig::proof`] is on, the solver records every
//! clause it is *given* (the originals) and every clause it *derives or
//! deletes* (the steps): learnt clauses of all three tiers (units,
//! binary-tier two-literal learnts, arena clauses) with their
//! post-minimization literal sets, input clauses whose stored form was
//! strengthened by level-0 simplification, the empty clause on genuine
//! UNSAT, and every `reduce_db` deletion. The steps are recorded directly
//! in the independent checker's format ([`checker::Proof`]), so the log
//! is a certificate as it stands: [`crate::Solver::certify`] checks it by
//! reverse unit propagation without trusting any solver code.
//!
//! Each learnt clause carries *hints*: the variables its conflict
//! analysis used — every current-level literal resolved on the way to the
//! first UIP, every literal minimisation removed, and every variable the
//! redundancy search expanded successfully. Level-0 variables are left
//! out (the checker's root trail already assigns them). The checker
//! propagates only the hinted variables before falling back to full
//! propagation; hints steer its search but never decide its verdict.
//! Strengthened inputs and the empty clause carry none.
//!
//! Literals and hint variables are stored in DIMACS convention
//! (`±(var+1)`), the lingua franca between solver, serialized `.drat`
//! files (which carry no hints), and checker.
//!
//! Queries that fail only under assumptions do not log an empty clause —
//! the derived lemmas are implied by the original formula alone, so a
//! consumer certifies such a verdict by checking
//! `originals + one unit clause per assumption` against the steps plus an
//! explicit terminal empty clause (see `checker::Proof::close`).

use crate::types::{Lit, Var};
use checker::Proof;

/// Accumulated proof log of one solver: original clauses plus derivation
/// and deletion steps, in the order they happened.
///
/// Cloning a solver clones its log (sharded sweep oracles rely on this):
/// each clone continues certifying independently from the shared prefix.
#[derive(Clone, Debug, Default)]
pub struct ProofLog {
    originals: Vec<Vec<i32>>,
    proof: Proof,
}

fn to_dimacs(lits: &[Lit]) -> Vec<i32> {
    lits.iter().map(|l| l.to_cnf().to_dimacs()).collect()
}

impl ProofLog {
    /// Records an input clause exactly as the caller asserted it.
    pub(crate) fn log_original(&mut self, lits: &[Lit]) {
        self.originals.push(to_dimacs(lits));
    }

    /// Records a derived clause addition (strengthened input or the empty
    /// clause) whose check needs no hints.
    pub(crate) fn log_add(&mut self, lits: &[Lit]) {
        self.proof.add(to_dimacs(lits));
    }

    /// Records a learnt clause with the variables its derivation used.
    pub(crate) fn log_lemma(&mut self, lits: &[Lit], hint_vars: &[Var]) {
        let hints = hint_vars.iter().map(|&v| v + 1).collect();
        self.proof.add_hinted(to_dimacs(lits), hints);
    }

    /// Records a clause deletion.
    pub(crate) fn log_delete(&mut self, lits: &[Lit]) {
        self.proof.delete(to_dimacs(lits));
    }

    /// The input clauses, in assertion order.
    pub fn originals(&self) -> &[Vec<i32>] {
        &self.originals
    }

    /// The derivation/deletion steps, in the order they happened, as a
    /// checkable proof.
    pub fn proof(&self) -> &Proof {
        &self.proof
    }

    /// Consumes the log, keeping the steps.
    pub(crate) fn into_proof(self) -> Proof {
        self.proof
    }

    /// Number of addition steps.
    pub fn additions(&self) -> usize {
        self.proof.steps.iter().filter(|s| !s.delete).count()
    }

    /// Number of deletion steps.
    pub fn deletions(&self) -> usize {
        self.proof.steps.iter().filter(|s| s.delete).count()
    }

    /// True once an empty-clause addition has been logged (the proof
    /// certifies unconditional UNSAT from that point on).
    pub fn has_empty_clause(&self) -> bool {
        self.proof
            .steps
            .iter()
            .any(|s| !s.delete && s.lits.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, neg: bool) -> Lit {
        let l = Lit::new(v, true);
        if neg {
            !l
        } else {
            l
        }
    }

    #[test]
    fn dimacs_conversion_and_serialization() {
        let mut log = ProofLog::default();
        log.log_original(&[lit(0, false), lit(1, true)]);
        log.log_lemma(&[lit(1, true)], &[0, 2]);
        log.log_delete(&[lit(0, false), lit(1, true)]);
        log.log_add(&[]);
        assert_eq!(log.originals(), &[vec![1, -2]]);
        assert_eq!(log.additions(), 2);
        assert_eq!(log.deletions(), 1);
        assert!(log.has_empty_clause());
        assert_eq!(
            log.proof().steps[0].hints,
            vec![1, 3],
            "hints are DIMACS vars"
        );
        assert_eq!(log.proof().to_drat_string(), "-2 0\nd 1 -2 0\n0\n");
    }

    #[test]
    fn empty_log_has_no_empty_clause() {
        let log = ProofLog::default();
        assert!(!log.has_empty_clause());
        assert_eq!(log.proof().to_drat_string(), "");
    }
}
