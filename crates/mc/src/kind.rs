//! k-induction: proving safety, not just falsifying it.
//!
//! For strength `k` the method discharges two obligations:
//!
//! * **Base**: no counterexample within `k` frames from the initial state
//!   — delegated to the incremental [`BmcEngine`].
//! * **Step**: no *simple path* `s_0 → … → s_k` with the property holding
//!   at frames `0..k` and failing at frame `k`, where `s_0` is fully
//!   symbolic and the states are constrained pairwise distinct
//!   (simple-path / state-uniqueness constraints).
//!
//! If both hold, the property is invariant: a minimal-depth violation at
//! depth `d ≥ k` would end in a k-suffix whose states are distinct (a
//! repeated state would shortcut to a shallower violation, contradicting
//! minimality) and whose prefix satisfies the property (minimality again)
//! — exactly a witness the step query proved impossible. The base case
//! covers `d < k`. The uniqueness constraints also make the method
//! complete on finite machines: once `k` exceeds the longest simple path,
//! the step query becomes vacuously UNSAT.
//!
//! The step solver is as incremental as the base engine: each strength
//! adds one frame, the new state's distinctness clauses, the previous
//! frame's property assertion, and a fresh activation literal — nothing is
//! re-encoded, every learnt clause survives.

use crate::bmc::{BmcEngine, BmcOptions, BmcResult, Preprocess};
use crate::enc::{certify_unsat, Enc, Val};
use aig::seq::SeqAig;
use cnf::CnfLit;
use sat::{Budget, SolveResult};
use std::time::Instant;

/// Outcome of a [`prove`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KindResult {
    /// The property is invariant, established at induction strength `k`.
    Proved {
        /// Induction strength that closed the proof.
        k: usize,
    },
    /// The property fails; same payload as [`BmcResult::Cex`].
    Cex {
        /// First frame at which a real PO fires.
        depth: usize,
        /// Frame-major real-PI input trace, replayable by `SeqAig::simulate`.
        trace: Vec<Vec<bool>>,
    },
    /// Neither proved nor falsified within `max_k` (or budget exhausted).
    Unknown {
        /// Strength reached when the run stopped.
        k: usize,
    },
}

impl KindResult {
    /// True for [`KindResult::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, KindResult::Proved { .. })
    }
}

/// Attempts to prove the machine's safety property by k-induction with
/// strengths `1..=max_k`. It takes the BMC engine's [`BmcOptions`]:
///
/// * the preprocessing runs once, and the base and step solvers share it;
/// * the conflict budget applies per query;
/// * the deadline covers the whole run: once it passes, the result is
///   [`KindResult::Unknown`] with the deepest strength reached, every
///   strength below it having been discharged;
/// * certified mode also re-checks the step solver's proof-closing UNSAT
///   verdicts;
/// * the registry goes to the base engine.
///
/// ```
/// use mc::{prove, BmcOptions, KindResult};
/// use workloads::seq::mod_counter;
///
/// // Modulo-6 counter over 3 bits: the all-ones state is unreachable.
/// // BMC alone can never close this; k-induction proves it.
/// let m = mod_counter(3, 6);
/// assert!(prove(&m, 8, &BmcOptions::default()).is_proved());
/// ```
///
/// # Panics
/// Panics if the machine has no real PO.
pub fn prove(seq: &SeqAig, max_k: usize, opts: &BmcOptions) -> KindResult {
    let seq = opts.preprocess.apply(seq);
    let mut base = BmcEngine::new(
        &seq,
        BmcOptions {
            preprocess: Preprocess::None,
            ..opts.clone()
        },
    );
    let mut step = StepEngine::new(&seq, opts);
    for k in 1..=max_k {
        // Out of time: report the deepest strength whose obligations were
        // fully discharged. (`k - 1` held; `k` was never attempted.)
        if opts.deadline.is_some_and(|d| Instant::now() >= d) {
            return KindResult::Unknown { k: k - 1 };
        }
        // Base: no counterexample within k frames.
        match base.check_frames(k) {
            BmcResult::Cex { depth, trace } => return KindResult::Cex { depth, trace },
            BmcResult::Unknown { .. } => return KindResult::Unknown { k },
            BmcResult::Clean { .. } => {}
        }
        // Step: can a simple path of length k end in a violation?
        match step.query(k) {
            StepVerdict::Unsat => return KindResult::Proved { k },
            StepVerdict::Sat => {} // induction too weak at k; deepen
            StepVerdict::Unknown => return KindResult::Unknown { k },
        }
    }
    KindResult::Unknown { k: max_k }
}

enum StepVerdict {
    Sat,
    Unsat,
    Unknown,
}

/// The incremental step-case solver.
#[derive(Debug)]
struct StepEngine {
    seq: SeqAig,
    reach: Vec<bool>,
    enc: Enc,
    query_budget: Option<u64>,
    deadline: Option<Instant>,
    /// Certified mode ([`BmcOptions::certify`]).
    certify: bool,
    /// `states[i]` = symbolic state entering frame `i` (`states[0]` free).
    states: Vec<Vec<Val>>,
    /// `bads[i]` = bad value of frame `i`.
    bads: Vec<Val>,
    /// Frames whose `¬bad` is permanently asserted (a prefix).
    clean_asserted: usize,
    /// States `0..distinct_upto` are pairwise-distinct-constrained.
    distinct_upto: usize,
    /// Activation literal of the current strength's query, if any.
    active: Option<CnfLit>,
}

impl StepEngine {
    fn new(seq: &SeqAig, opts: &BmcOptions) -> StepEngine {
        let reach = seq.comb().reachable_from_pos();
        let mut enc = Enc::new(opts.certify);
        // s_0 is an arbitrary state: one fresh variable per latch.
        let s0: Vec<Val> = (0..seq.num_latches())
            .map(|_| Val::Lit(enc.fresh_lit()))
            .collect();
        StepEngine {
            seq: seq.clone(),
            reach,
            enc,
            query_budget: opts.query_budget,
            deadline: opts.deadline,
            certify: opts.certify,
            states: vec![s0],
            bads: Vec::new(),
            clean_asserted: 0,
            distinct_upto: 0,
            active: None,
        }
    }

    /// Runs the strength-`k` step query. Strengths must be queried in
    /// increasing order (as [`prove`] does).
    fn query(&mut self, k: usize) -> StepVerdict {
        // Retire the previous strength's guard: its SAT answer only meant
        // "induction too weak", the gadget must not constrain this query.
        if let Some(act) = self.active.take() {
            self.enc.solver.add_clause_cnf(&[!act]);
        }
        self.ensure_frames(k);
        // Property holds along the prefix: frames 0..k.
        while self.clean_asserted < k {
            let bad = self.bads[self.clean_asserted];
            self.assert_not_bad(bad);
            self.clean_asserted += 1;
        }
        // Simple path: states 0..=k pairwise distinct. (NOT state k+1 —
        // the path under scrutiny ends at s_k; constraining its successor
        // would wrongly exclude violations that loop back.)
        while self.distinct_upto <= k {
            let j = self.distinct_upto;
            for i in 0..j {
                self.add_distinct(i, j);
            }
            self.distinct_upto += 1;
        }
        match self.bads[k] {
            Val::Const(false) => StepVerdict::Unsat,
            Val::Const(true) => StepVerdict::Sat,
            Val::Lit(bad) => {
                let act = self.enc.fresh_lit();
                self.enc.solver.add_clause_cnf(&[!act, bad]);
                self.active = Some(act);
                let limit = self
                    .query_budget
                    .map(|b| self.enc.solver.stats().conflicts + b);
                self.enc.solver.set_budget(
                    Budget {
                        conflicts: limit,
                        ..Budget::UNLIMITED
                    }
                    .with_deadline(self.deadline),
                );
                match self.enc.solver.solve_with_assumptions(&[act]) {
                    SolveResult::Sat(_) => StepVerdict::Sat,
                    SolveResult::Unsat => {
                        // An UNSAT step case closes the induction proof —
                        // certify it before reporting (the guard is still
                        // live: it is only retired on the next, never
                        // reached, query).
                        if self.certify {
                            certify_unsat(&self.enc.solver, &[act]);
                        }
                        StepVerdict::Unsat
                    }
                    SolveResult::Unknown => StepVerdict::Unknown,
                }
            }
        }
    }

    /// Encodes frames until `bads[k]` exists (states up to `s_{k+1}`).
    fn ensure_frames(&mut self, k: usize) {
        while self.bads.len() <= k {
            let t = self.bads.len();
            let pis: Vec<Val> = (0..self.seq.num_pis())
                .map(|_| Val::Lit(self.enc.fresh_lit()))
                .collect();
            let mut ins = pis;
            ins.extend(self.states[t].iter().copied());
            let (pos, next) = self.enc.encode_frame(&self.seq, &self.reach, &ins);
            let bad = self.enc.bad_of(pos);
            self.bads.push(bad);
            self.states.push(next);
        }
    }

    /// Permanently asserts `¬bad` for a prefix frame.
    fn assert_not_bad(&mut self, bad: Val) {
        match bad {
            Val::Const(false) => {}
            // An always-violating frame leaves no clean-prefix path at
            // all: the step formula collapses to UNSAT, which is sound
            // because the base case separately covers those depths.
            Val::Const(true) => self.enc.solver.add_clause_cnf(&[]),
            Val::Lit(b) => self.enc.solver.add_clause_cnf(&[!b]),
        }
    }

    /// Adds the state-uniqueness clause for states `i < j`: some latch
    /// differs. Two structurally equal states yield the empty clause —
    /// "no simple path this long exists", collapsing the query to UNSAT,
    /// which the induction argument reads as proved.
    fn add_distinct(&mut self, i: usize, j: usize) {
        let (u, v) = (self.states[i].clone(), self.states[j].clone());
        let mut clause: Vec<CnfLit> = Vec::with_capacity(u.len());
        for (a, b) in u.into_iter().zip(v) {
            match (a, b) {
                (Val::Const(x), Val::Const(y)) => {
                    if x != y {
                        return; // constant disagreement: always distinct
                    }
                }
                (Val::Const(c), Val::Lit(p)) | (Val::Lit(p), Val::Const(c)) => {
                    // p differs from the constant c iff p == !c.
                    clause.push(if c { !p } else { p });
                }
                (Val::Lit(p), Val::Lit(q)) => {
                    if p == !q {
                        return; // complementary literals: always distinct
                    }
                    if p != q {
                        clause.push(self.enc.implies_xor(p, q));
                    }
                }
            }
        }
        self.enc.solver.add_clause_cnf(&clause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::seq::{counter, mod_counter, pattern_fsm, retimed_adder_lec};

    #[test]
    fn proves_mod_counter_invariant() {
        // Unreachable-state property: BMC can never close it, k-induction
        // does (at k=2: state 6 is the only P-satisfying predecessor of
        // the bad state and has no P-satisfying, distinct predecessor).
        let m = mod_counter(3, 6);
        match prove(&m, 8, &BmcOptions::default()) {
            KindResult::Proved { k } => assert!(k <= 3, "expected small strength, got {k}"),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn proves_retimed_adder_equivalence() {
        // The product machine is 1-inductive: every reachable-or-not state
        // transitions into a consistent one.
        let m = retimed_adder_lec(3);
        match prove(&m, 4, &BmcOptions::default()) {
            KindResult::Proved { k } => assert!(k <= 2),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn falsifiable_property_yields_the_bmc_cex() {
        let m = counter(3);
        match prove(&m, 10, &BmcOptions::default()) {
            KindResult::Cex { depth, trace } => {
                assert_eq!(depth, 7);
                assert!(m.simulate(&trace)[depth][0]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn shallow_cex_beats_the_step_case() {
        let m = pattern_fsm(&[true, true]);
        match prove(&m, 6, &BmcOptions::default()) {
            KindResult::Cex { depth, trace } => {
                assert!(m.simulate(&trace)[depth][0]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn certified_mode_backs_base_and_step_verdicts() {
        // Certified k-induction: every base-case UNSAT frame and the
        // proof-closing step-case UNSAT are re-checked by the independent
        // RUP checker (certify_unsat panics on rejection), and the
        // verdict matches the uncertified run.
        let m = mod_counter(3, 6);
        let certified = BmcOptions {
            certify: true,
            ..BmcOptions::default()
        };
        match prove(&m, 8, &certified) {
            KindResult::Proved { k } => assert!(k <= 3),
            other => panic!("expected certified proof, got {other:?}"),
        }
        // Falsifiable property under certification: the base-case frames
        // proved clean before the violation still certify.
        let m = counter(3);
        match prove(&m, 10, &certified) {
            KindResult::Cex { depth, .. } => assert_eq!(depth, 7),
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn proof_survives_preprocessing() {
        let m = mod_counter(3, 6);
        let opts = BmcOptions {
            preprocess: Preprocess::Synth(synth::Recipe::size_script()),
            ..BmcOptions::default()
        };
        assert!(prove(&m, 8, &opts).is_proved());
    }

    #[test]
    fn expired_deadline_reports_best_so_far() {
        // An already-expired deadline stops before strength 1 is ever
        // attempted — Unknown at k = 0 — while the same options with the
        // deadline lifted prove the property outright.
        let m = mod_counter(3, 6);
        let throttled = BmcOptions {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..BmcOptions::default()
        };
        assert_eq!(prove(&m, 8, &throttled), KindResult::Unknown { k: 0 });
        let unthrottled = BmcOptions::default();
        assert!(prove(&m, 8, &unthrottled).is_proved());
    }

    #[test]
    fn bounded_strength_returns_unknown() {
        // Modulo counter with a long simple path: strength 1 cannot close
        // it, so max_k = 1 must report Unknown, not a bogus verdict.
        let m = mod_counter(4, 14);
        assert_eq!(
            prove(&m, 1, &BmcOptions::default()),
            KindResult::Unknown { k: 1 }
        );
        assert!(prove(&m, 6, &BmcOptions::default()).is_proved());
    }
}
