//! Incremental bounded model checking on one persistent CDCL solver.
//!
//! The engine keeps a single [`sat::Solver`] alive across the whole depth
//! sweep. Each new time frame is Tseitin-encoded directly into the live
//! solver — state variables stitched frame-to-frame, frame 0 folded
//! against the all-zero initial state — and the frame-`t` property is
//! guarded by a per-frame activation literal and queried through
//! [`sat::Solver::solve_with_assumptions`]. Learnt clauses, variable
//! activities, and saved phases therefore carry across bounds: the work
//! the solver did refuting depth `t` is the starting point for depth
//! `t + 1`, instead of being thrown away and re-derived as the monolithic
//! [`SeqAig::bmc_instance`]-per-bound baseline does.
//!
//! After an UNSAT answer the guard is retired with a unit clause and the
//! *proved fact* `¬bad_t` is asserted, strengthening every later query.

use crate::enc::{certify_unsat, Enc, Val};
use aig::seq::SeqAig;
use cnf::CnfLit;
use sat::{Budget, SolveResult, Stats};
use std::time::Instant;

/// One-time preprocessing of the transition relation before unrolling —
/// the paper's framework as a model-checking front end. The combinational
/// core is optimised *once*; every unrolled frame then reuses the smaller
/// relation.
#[derive(Clone, Debug, Default)]
pub enum Preprocess {
    /// Encode the core as-is.
    #[default]
    None,
    /// Run a synthesis recipe (rewrite/refactor/balance/...) on the core.
    Synth(synth::Recipe),
    /// SAT-sweep the core (fraig).
    Sweep(sweep::FraigParams),
    /// Recipe first, then sweeping.
    Both(synth::Recipe, sweep::FraigParams),
}

impl Preprocess {
    /// Applies the preprocessing to the machine's combinational core.
    /// Every variant preserves the core's PI/PO interface, so the latch
    /// boundary transfers unchanged.
    pub fn apply(&self, seq: &SeqAig) -> SeqAig {
        let core = match self {
            Preprocess::None => return seq.clone(),
            Preprocess::Synth(recipe) => recipe.apply(seq.comb()),
            Preprocess::Sweep(params) => sweep::fraig(seq.comb(), params).aig,
            Preprocess::Both(recipe, params) => sweep::fraig(&recipe.apply(seq.comb()), params).aig,
        };
        SeqAig::new(core, seq.num_pis(), seq.num_latches())
    }
}

/// Options for [`BmcEngine`] and for k-induction ([`prove`](crate::prove)).
#[derive(Clone, Debug, Default)]
pub struct BmcOptions {
    /// Conflict budget per frame query (`None` = unlimited). The engine
    /// charges it on top of the solver's cumulative conflict count, so a
    /// budgeted query never eats a later query's allowance.
    pub query_budget: Option<u64>,
    /// Wall-clock deadline for the whole depth sweep. Once passed, the
    /// engine stops *before* encoding another frame and interrupts any
    /// in-flight query, returning [`BmcResult::Unknown`] with the deepest
    /// bound reached ([`BmcEngine::clean_frames`] frames are still proved
    /// clean — the best-so-far verdict stands). The interrupted query
    /// stays pending, so extending the deadline
    /// ([`BmcEngine::set_deadline`]) and re-calling resumes it.
    pub deadline: Option<Instant>,
    /// One-time transition-relation preprocessing.
    pub preprocess: Preprocess,
    /// Certified mode: the solver logs DRAT steps and every UNSAT frame
    /// verdict is re-checked by the independent backward RUP checker
    /// *before* its guard is retired (panicking on rejection). The
    /// cumulative log is re-verified per frame, so this is a
    /// test-harness/audit mode, not a production setting.
    pub certify: bool,
    /// Observability domain: each frame solve runs under an `mc.frame`
    /// span (the persistent solver re-parented per frame), and the
    /// clean-frame prefix is published as the `mc.clean_frames` gauge.
    /// The default (disabled) registry keeps every probe to one branch.
    /// Note this does *not* propagate to [`Preprocess::Sweep`] — set
    /// [`FraigParams::obs`](sweep::FraigParams::obs) there directly.
    pub obs: obs::Registry,
}

/// Outcome of a [`BmcEngine::check_frames`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmcResult {
    /// The property fires at frame `depth`; `trace` is the frame-major
    /// input trace (one vector of real-PI values per frame `0..=depth`),
    /// replayable by [`SeqAig::simulate`] or, word-level, by
    /// [`SeqAig::stepper`]. The depth is minimal: every earlier frame was
    /// proved clean first. The engine itself re-verifies every trace
    /// against the compiled stepper before returning it (debug builds).
    Cex {
        /// First frame at which a real PO fires.
        depth: usize,
        /// Real-PI values per frame, `trace[t][i]` = PI `i` at frame `t`.
        trace: Vec<Vec<bool>>,
    },
    /// All checked frames are property-clean.
    Clean {
        /// Number of frames proved clean (frames `0..frames`).
        frames: usize,
    },
    /// The per-query budget ran out while checking `frame`.
    Unknown {
        /// Frame whose query exhausted the budget.
        frame: usize,
    },
}

impl BmcResult {
    /// True for [`BmcResult::Cex`].
    pub fn is_cex(&self) -> bool {
        matches!(self, BmcResult::Cex { .. })
    }
}

/// A pending (budget-exhausted) frame query: frame index, activation
/// literal, property literal.
#[derive(Clone, Copy, Debug)]
struct PendingQuery {
    frame: usize,
    act: CnfLit,
    bad: CnfLit,
}

/// Incremental bounded-model-checking engine.
///
/// ```
/// use mc::{BmcEngine, BmcOptions, BmcResult};
/// # use aig::{Aig, Lit};
/// # use aig::seq::SeqAig;
/// # // 2-bit enable-gated counter, bad = all-ones.
/// # let mut g = Aig::new();
/// # let en = g.add_pi();
/// # let s0 = g.add_pi();
/// # let s1 = g.add_pi();
/// # let n0 = g.xor(s0, en);
/// # let c = g.and(s0, en);
/// # let n1 = g.xor(s1, c);
/// # let bad = g.and(s0, s1);
/// # g.add_po(bad);
/// # g.add_po(n0);
/// # g.add_po(n1);
/// # let machine = SeqAig::new(g, 1, 2);
/// let mut engine = BmcEngine::new(&machine, BmcOptions::default());
/// assert_eq!(engine.check_frames(3), BmcResult::Clean { frames: 3 });
/// match engine.check_frames(6) {
///     BmcResult::Cex { depth: 3, trace } => {
///         // The trace replays through the machine itself.
///         let outs = machine.simulate(&trace);
///         assert!(outs[3][0]);
///     }
///     other => panic!("expected a depth-3 counterexample, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct BmcEngine {
    seq: SeqAig,
    reach: Vec<bool>,
    enc: Enc,
    query_budget: Option<u64>,
    deadline: Option<Instant>,
    /// Solver variables of each encoded frame's real PIs.
    frame_pis: Vec<Vec<u32>>,
    /// State values entering the next frame to encode.
    state: Vec<Val>,
    /// Frames proved property-clean so far (a prefix `0..clean_frames`).
    clean_frames: usize,
    /// Certified mode ([`BmcOptions::certify`]).
    certify: bool,
    /// UNSAT frame verdicts whose certificates the checker accepted.
    certified_queries: u64,
    /// Query interrupted by the budget, to resume instead of re-encoding.
    pending: Option<PendingQuery>,
    /// Counterexample, once found (the engine is then exhausted).
    cex: Option<(usize, Vec<Vec<bool>>)>,
    /// Observability domain ([`BmcOptions::obs`]).
    obs: obs::Registry,
}

impl BmcEngine {
    /// Builds an engine for the machine (applying the configured one-time
    /// preprocessing to the transition relation).
    ///
    /// # Panics
    /// Panics if the machine has no real PO to use as the bad signal.
    pub fn new(seq: &SeqAig, opts: BmcOptions) -> BmcEngine {
        assert!(
            seq.num_pos() > 0,
            "property check needs at least one real PO"
        );
        let seq = opts.preprocess.apply(seq);
        let reach = seq.comb().reachable_from_pos();
        let state = vec![Val::Const(false); seq.num_latches()];
        BmcEngine {
            reach,
            enc: Enc::new(opts.certify),
            query_budget: opts.query_budget,
            deadline: opts.deadline,
            frame_pis: Vec::new(),
            state,
            clean_frames: 0,
            certify: opts.certify,
            certified_queries: 0,
            pending: None,
            cex: None,
            obs: opts.obs,
            seq,
        }
    }

    /// The machine under check (after preprocessing).
    pub fn machine(&self) -> &SeqAig {
        &self.seq
    }

    /// Frames proved clean so far.
    pub fn clean_frames(&self) -> usize {
        self.clean_frames
    }

    /// Replaces the wall-clock deadline (`None` lifts it). Lets a caller
    /// that received [`BmcResult::Unknown`] at the deadline grant more
    /// time and resume the sweep where it stopped.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Cumulative statistics of the persistent solver.
    pub fn stats(&self) -> &Stats {
        self.enc.solver.stats()
    }

    /// UNSAT frame verdicts whose certificates the independent checker
    /// accepted (always 0 unless [`BmcOptions::certify`] is set; frames
    /// that constant-fold clean never reach the solver and are not
    /// counted).
    pub fn certified_queries(&self) -> u64 {
        self.certified_queries
    }

    /// Ensures frames `0..frames` are checked, reusing all prior work.
    ///
    /// Returns the first counterexample (its depth is minimal), `Clean`
    /// when every requested frame is refuted, or `Unknown` on budget
    /// exhaustion — in which case calling again continues the interrupted
    /// query with a fresh budget instead of starting over.
    pub fn check_frames(&mut self, frames: usize) -> BmcResult {
        if let Some((depth, trace)) = &self.cex {
            // The cached counterexample only answers bounds that include
            // its frame; below that, every requested frame was proved
            // clean before the violation was found.
            return if *depth < frames {
                BmcResult::Cex {
                    depth: *depth,
                    trace: trace.clone(),
                }
            } else {
                BmcResult::Clean { frames }
            };
        }
        while self.clean_frames < frames {
            if let Some(result) = self.step() {
                return result;
            }
        }
        BmcResult::Clean { frames }
    }

    /// Checks one more frame (or resumes an interrupted query). `None`
    /// means the frame was proved clean and the sweep may continue.
    fn step(&mut self) -> Option<BmcResult> {
        // Don't start encoding a frame we have no time to check; report
        // the deepest bound reached instead. A pending query is exempt:
        // resuming it (after the caller extends the deadline) must not be
        // starved by this pre-check — the solver's own interrupt polling
        // handles an in-flight expiry.
        if self.pending.is_none() && self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(BmcResult::Unknown {
                frame: self.clean_frames,
            });
        }
        let resumed = self.pending.is_some();
        let query = match self.pending.take() {
            Some(q) => q,
            None => match self.encode_next_frame() {
                Ok(q) => q,
                Err(result) => {
                    self.obs
                        .set_gauge("mc.clean_frames", self.clean_frames as u64);
                    return result;
                }
            },
        };
        // One span tree per frame solve; the persistent solver re-parents
        // under it so its `sat.solve` span nests in the right frame.
        let frame_span = self.obs.span_with(
            "mc.frame",
            &[("frame", query.frame.into()), ("resumed", resumed.into())],
        );
        self.enc.solver.set_observer(frame_span.handle());
        // Always reset the budget: a lifted deadline (or budget) must not
        // leave a stale limit in the persistent solver.
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
        let result = self.enc.solver.solve_with_assumptions(&[query.act]);
        frame_span.record(
            "result",
            match &result {
                SolveResult::Sat(_) => "cex",
                SolveResult::Unsat => "clean",
                SolveResult::Unknown => "unknown",
            },
        );
        let out = match result {
            SolveResult::Sat(model) => {
                let trace = self.decode_trace(&model, query.frame);
                debug_assert!(
                    self.replay_fires(&trace, query.frame),
                    "decoded trace must replay to a violation at frame {}",
                    query.frame
                );
                self.cex = Some((query.frame, trace.clone()));
                Some(BmcResult::Cex {
                    depth: query.frame,
                    trace,
                })
            }
            SolveResult::Unsat => {
                // Certify against the pre-retirement formula: once the
                // `!act` unit lands, the query would be trivially
                // refutable and the certificate would assert nothing.
                if self.certify {
                    certify_unsat(&self.enc.solver, &[query.act]);
                    self.certified_queries += 1;
                }
                // Retire the guard and assert the proved fact: the bad
                // signal cannot fire at this frame.
                self.enc.solver.add_clause_cnf(&[!query.act]);
                self.enc.solver.add_clause_cnf(&[!query.bad]);
                self.clean_frames += 1;
                None
            }
            SolveResult::Unknown => {
                self.pending = Some(query);
                Some(BmcResult::Unknown { frame: query.frame })
            }
        };
        self.obs
            .set_gauge("mc.clean_frames", self.clean_frames as u64);
        out
    }

    /// Encodes the next time frame and prepares its guarded property
    /// query. `Err` short-circuits: either the frame folded to a constant
    /// (clean, or a trivial counterexample) and no query is needed.
    fn encode_next_frame(&mut self) -> Result<PendingQuery, Option<BmcResult>> {
        let t = self.frame_pis.len();
        let pis: Vec<u32> = (0..self.seq.num_pis()).map(|_| self.enc.fresh()).collect();
        let mut ins: Vec<Val> = pis.iter().map(|&v| Val::Lit(CnfLit::pos(v))).collect();
        ins.extend(self.state.iter().copied());
        self.frame_pis.push(pis);
        let (pos, next) = self.enc.encode_frame(&self.seq, &self.reach, &ins);
        self.state = next;
        match self.enc.bad_of(pos) {
            Val::Const(false) => {
                // The frame cannot fire regardless of inputs.
                self.clean_frames += 1;
                Err(None)
            }
            Val::Const(true) => {
                // The frame fires for *every* input assignment: any trace
                // is a witness.
                let trace = vec![vec![false; self.seq.num_pis()]; t + 1];
                debug_assert!(
                    self.replay_fires(&trace, t),
                    "constant-true frame must replay to a violation at frame {t}"
                );
                self.cex = Some((t, trace.clone()));
                Err(Some(BmcResult::Cex { depth: t, trace }))
            }
            Val::Lit(bad) => {
                let act = self.enc.fresh_lit();
                self.enc.solver.add_clause_cnf(&[!act, bad]);
                Ok(PendingQuery { frame: t, act, bad })
            }
        }
    }

    /// Word-level replay of a frame-major trace on the (preprocessed)
    /// machine through the compiled sequential stepper
    /// ([`SeqAig::stepper`]): true iff a real PO fires at frame `depth`
    /// and at no earlier frame (the engine's depths are minimal, so a
    /// decoded trace may never fire early).
    fn replay_fires(&self, trace: &[Vec<bool>], depth: usize) -> bool {
        let mut stepper = self.seq.stepper();
        let mut fires_at_depth = false;
        for (t, frame) in trace.iter().enumerate() {
            let pis: Vec<u64> = frame.iter().map(|&b| u64::from(b)).collect();
            let fires = stepper.step_words(&pis).iter().any(|&w| w & 1 != 0);
            match t.cmp(&depth) {
                std::cmp::Ordering::Less if fires => return false,
                std::cmp::Ordering::Equal => fires_at_depth = fires,
                _ => {}
            }
        }
        fires_at_depth
    }

    /// Frame-major input trace for frames `0..=depth` from a solver model.
    fn decode_trace(&self, model: &[bool], depth: usize) -> Vec<Vec<bool>> {
        self.frame_pis[..=depth]
            .iter()
            .map(|vars| {
                vars.iter()
                    // A PI that appears in no clause may sit beyond the
                    // solver's model; any value works, pick false.
                    .map(|&v| model.get(v as usize - 1).copied().unwrap_or(false))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::seq::{counter, mod_counter, pattern_fsm, retimed_adder_lec};

    fn check(seq: &SeqAig, frames: usize) -> BmcResult {
        BmcEngine::new(seq, BmcOptions::default()).check_frames(frames)
    }

    #[test]
    fn counter_counterexample_at_exact_depth() {
        let m = counter(3);
        let mut engine = BmcEngine::new(&m, BmcOptions::default());
        assert_eq!(engine.check_frames(7), BmcResult::Clean { frames: 7 });
        match engine.check_frames(12) {
            BmcResult::Cex { depth, trace } => {
                assert_eq!(depth, 7, "3-bit counter saturates after 7 ticks");
                let outs = m.simulate(&trace);
                assert!(outs[depth][0], "trace must replay to a violation");
                assert!(outs[..depth].iter().all(|o| !o[0]), "depth is minimal");
                // Word-level replay through the compiled stepper agrees.
                let mut stepper = m.stepper();
                for (t, frame) in trace.iter().enumerate() {
                    let pis: Vec<u64> = frame.iter().map(|&b| u64::from(b)).collect();
                    let fires = stepper.step_words(&pis)[0] & 1 != 0;
                    assert_eq!(fires, t == depth, "stepper replay at frame {t}");
                }
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn deepening_reuses_the_cached_cex() {
        let m = counter(2);
        let mut engine = BmcEngine::new(&m, BmcOptions::default());
        let first = engine.check_frames(8);
        assert!(matches!(first, BmcResult::Cex { depth: 3, .. }));
        assert_eq!(engine.check_frames(20), first, "cex is cached");
        // A bound below the cached depth is still a clean verdict: the
        // violation lies outside the requested frames.
        assert_eq!(engine.check_frames(3), BmcResult::Clean { frames: 3 });
        assert_eq!(engine.check_frames(4), first, "bound includes the cex");
    }

    #[test]
    fn true_invariant_stays_clean() {
        let m = mod_counter(3, 6);
        assert_eq!(check(&m, 25), BmcResult::Clean { frames: 25 });
    }

    #[test]
    fn lec_product_machine_stays_clean() {
        let m = retimed_adder_lec(3);
        assert_eq!(check(&m, 8), BmcResult::Clean { frames: 8 });
    }

    #[test]
    fn pattern_fsm_found_at_pattern_length() {
        let pattern = [true, false, true];
        let m = pattern_fsm(&pattern);
        match check(&m, 10) {
            BmcResult::Cex { depth, trace } => {
                assert_eq!(depth, pattern.len());
                assert!(m.simulate(&trace)[depth][0]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn budget_interrupt_resumes() {
        // A one-conflict budget interrupts queries constantly; re-calling
        // must resume the same frame (fresh allowance), not skip or
        // re-encode it, and the drip-fed sweep must reach the same
        // minimal-depth counterexample as an unbudgeted run.
        let m = counter(4);
        let mut engine = BmcEngine::new(
            &m,
            BmcOptions {
                query_budget: Some(1),
                ..BmcOptions::default()
            },
        );
        let mut unknowns = 0;
        loop {
            match engine.check_frames(16) {
                BmcResult::Unknown { .. } => unknowns += 1,
                BmcResult::Cex { depth, trace } => {
                    assert_eq!(depth, 15);
                    assert!(m.simulate(&trace)[depth][0]);
                    break;
                }
                BmcResult::Clean { .. } => panic!("counter must fire at depth 15"),
            }
            assert!(unknowns < 10_000, "no progress under budget");
        }
    }

    #[test]
    fn expired_deadline_reports_deepest_bound_and_resumes() {
        // An already-expired deadline must stop the sweep before any
        // frame is encoded, report the deepest clean bound (0), and leave
        // the engine resumable: lifting the deadline continues to the
        // exact verdict of a never-throttled run.
        let m = counter(3);
        let mut engine = BmcEngine::new(
            &m,
            BmcOptions {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..BmcOptions::default()
            },
        );
        assert_eq!(engine.check_frames(12), BmcResult::Unknown { frame: 0 });
        assert_eq!(
            engine.check_frames(12),
            BmcResult::Unknown { frame: 0 },
            "still starved until the deadline moves"
        );
        assert_eq!(engine.clean_frames(), 0);
        engine.set_deadline(None);
        match engine.check_frames(12) {
            BmcResult::Cex { depth, trace } => {
                assert_eq!(depth, 7);
                assert!(m.simulate(&trace)[depth][0]);
            }
            other => panic!("expected counterexample after deadline lift, got {other:?}"),
        }
    }

    #[test]
    fn deadline_interrupts_inflight_query_and_preserves_progress() {
        // Tight-but-live deadline: whatever bound the sweep reaches, the
        // clean prefix must be real — extending the deadline resumes from
        // it rather than restarting, and the final verdict matches the
        // unthrottled one.
        let m = counter(4);
        let mut engine = BmcEngine::new(
            &m,
            BmcOptions {
                deadline: Some(Instant::now() + std::time::Duration::from_micros(200)),
                ..BmcOptions::default()
            },
        );
        let first = engine.check_frames(16);
        if let BmcResult::Unknown { frame } = first {
            assert!(frame >= engine.clean_frames());
            engine.set_deadline(None);
        }
        match engine.check_frames(16) {
            BmcResult::Cex { depth, trace } => {
                assert_eq!(depth, 15);
                assert!(m.simulate(&trace)[depth][0]);
            }
            other => panic!("expected depth-15 counterexample, got {other:?}"),
        }
    }

    #[test]
    fn preprocessing_preserves_verdicts() {
        let m = counter(3);
        for pre in [
            Preprocess::Synth(synth::Recipe::size_script()),
            Preprocess::Sweep(sweep::FraigParams {
                threads: 1,
                ..sweep::FraigParams::default()
            }),
        ] {
            let mut engine = BmcEngine::new(
                &m,
                BmcOptions {
                    preprocess: pre,
                    ..BmcOptions::default()
                },
            );
            assert_eq!(engine.check_frames(7), BmcResult::Clean { frames: 7 });
            match engine.check_frames(9) {
                BmcResult::Cex { depth, trace } => {
                    assert_eq!(depth, 7);
                    // The trace replays on the ORIGINAL machine.
                    assert!(m.simulate(&trace)[depth][0]);
                }
                other => panic!("expected counterexample, got {other:?}"),
            }
        }
    }

    #[test]
    fn certified_mode_verifies_every_unsat_frame() {
        // The LEC product machine stays clean, so every frame verdict is
        // an UNSAT answer that certified mode must back with a
        // checker-accepted DRAT certificate (certify_unsat panics
        // otherwise). The PIs keep each frame symbolic, so the queries
        // genuinely reach the solver rather than constant-folding away.
        let m = retimed_adder_lec(3);
        let mut engine = BmcEngine::new(
            &m,
            BmcOptions {
                certify: true,
                ..BmcOptions::default()
            },
        );
        assert_eq!(engine.check_frames(6), BmcResult::Clean { frames: 6 });
        assert!(
            engine.certified_queries() >= 1,
            "symbolic frames must produce certified UNSAT verdicts"
        );
        // Certification must not change verdicts: the plain run agrees.
        let mut plain = BmcEngine::new(&m, BmcOptions::default());
        assert_eq!(plain.check_frames(6), BmcResult::Clean { frames: 6 });
        assert_eq!(plain.certified_queries(), 0);
    }

    #[test]
    fn certified_mode_reaches_the_same_counterexample() {
        let m = counter(3);
        let mut engine = BmcEngine::new(
            &m,
            BmcOptions {
                certify: true,
                ..BmcOptions::default()
            },
        );
        match engine.check_frames(12) {
            BmcResult::Cex { depth, trace } => {
                assert_eq!(depth, 7);
                assert!(m.simulate(&trace)[depth][0]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn zero_latch_machine_is_per_frame_sat() {
        // Combinational XOR as a "machine": frame 0 already fires.
        let mut g = aig::Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        g.add_po(x);
        let m = SeqAig::new(g, 2, 0);
        match check(&m, 4) {
            BmcResult::Cex { depth, trace } => {
                assert_eq!(depth, 0);
                assert!(m.simulate(&trace)[0][0]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }
}
