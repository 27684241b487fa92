//! The fraig engine: simulate, conjecture, SAT-prove, merge, rebuild.
//!
//! Each round simulates the graph, groups nodes into candidate classes and
//! proves the resulting pair list in **windows** of [`WINDOW`] pairs on
//! **sharded** SAT oracles running on worker threads. After each window,
//! its counterexamples — at most 64, one simulation word — are packed into
//! one word per primary input and run through the compiled program on the
//! calling thread: the round's later pairs that the word separates are
//! dropped unqueried, and the word joins the replayed columns of every
//! later round. No counterexample is discarded, so a refuted conjecture
//! never re-forms.
//!
//! Pair `i` of a window is always proved on oracle `i % shards` in
//! ascending order, and answers are merged in pair order, so each window's
//! contents depend only on pair order and on earlier windows' answers —
//! for a given shard count ([`DEFAULT_SHARDS`] unless set) the outcome is
//! bit-identical for every thread count.

use crate::classes::candidate_classes;
use crate::pool::{resolve_threads, run_sharded, ChaosPlan, Fault};
use aig::sim::{random_columns, simulate_columns, SimVectors};
use aig::{Aig, Lit, SimProgram, Var};
use cnf::{tseitin, CnfLit, VarMap};
use sat::{Budget, SolveResult, Solver, SolverConfig};
use std::time::Instant;

/// Maximum simulate–prove–refine rounds.
const MAX_ROUNDS: usize = 4;
/// Pairs proved between two counterexample replays: the 64 patterns of
/// one simulation word, so a window's counterexamples always fit the one
/// word that replays them.
const WINDOW: usize = 64;
/// Simulation seed.
const SEED: u64 = 0x5eed_f4a1;
/// Oracle shards of a default sweep ([`FraigParams::shards`]). Fixed, so
/// a default sweep decides the same on every host; two, because on two
/// cores two oracles beat one (the README's "Concurrency model").
pub const DEFAULT_SHARDS: usize = 2;

/// Tuning knobs for [`fraig`].
#[derive(Clone, Debug)]
pub struct FraigParams {
    /// Words (64 patterns each) of base random simulation per round.
    pub sim_words: usize,
    /// Conflict budget per SAT equivalence query; exceeding it leaves the
    /// pair unproven (no unsoundness, only missed merges).
    pub conflict_budget: u64,
    /// Worker threads for the SAT queries. `0` (the default)
    /// means one per available core, `1` runs fully sequentially — no
    /// spawns, no channels. For a fixed [`FraigParams::shards`] value the
    /// *outcome* is identical for every thread count: work assignment is
    /// fixed by the shard layout, threads only decide how much of it runs
    /// concurrently.
    pub threads: usize,
    /// Logical oracle shards, [`DEFAULT_SHARDS`] by default; at least 1.
    /// Pair `i` of a window is always proved on oracle `i % shards`,
    /// whatever `threads` is, so every oracle sees the same query sequence
    /// (and returns the same answers, counterexamples included) on one
    /// core or many, and the result is bit-identical from one thread to
    /// many. One shard maximises learnt-clause reuse (`shards: 1` *is* the
    /// classic single-oracle sweep). Effective parallelism is capped by the
    /// shard count.
    pub shards: usize,
    /// Whole-sweep wall-clock deadline. Once passed, the round loop exits
    /// before starting another round, and in-flight SAT queries are
    /// interrupted by the solver's own deadline check — either way the
    /// partial result is sound: merges proved so far are kept, remaining
    /// pairs stay `Undecided`, and the cut is recorded in
    /// [`FraigStats::deadline_interrupts`]. `None` (the default) never
    /// interrupts. Unlike the other knobs a deadline is inherently
    /// schedule-dependent, so a deadlined sweep waives the thread-count
    /// bit-identity contract (a pinned-shard run still stays sound and
    /// deterministic *given* where the cut lands).
    pub deadline: Option<Instant>,
    /// Deterministic fault-injection plan (test harness). `None` — the
    /// default and the production setting — injects nothing and leaves
    /// every path untouched. See [`ChaosPlan`].
    pub chaos: Option<ChaosPlan>,
    /// Checked mode: every oracle runs with proof logging on, and every
    /// UNSAT answer — the verdicts merges rest on — is verified by the
    /// independent `checker` crate before the merge is accepted; a
    /// rejected certificate panics the sweep. Each verification re-checks
    /// the shard's cumulative log, so this is a test-harness/audit mode,
    /// not a production default. Default `false`.
    pub certify: bool,
    /// Observability domain: the sweep runs under a `sweep.fraig` span
    /// with per-round children and, under those, one `sweep.shard` child
    /// per shard per window; per-round candidate pair counts feed
    /// the `sweep.round.pairs` histogram, shard oracles report `sat.*`
    /// counters, and [`FraigStats`] is published as `sweep.stats.*`
    /// gauges on completion. The default (disabled) registry keeps every
    /// probe to one branch. (This field is why `FraigParams` is `Clone`
    /// but no longer `Copy`.)
    pub obs: obs::Registry,
}

impl Default for FraigParams {
    fn default() -> FraigParams {
        FraigParams {
            sim_words: 8,
            conflict_budget: 2_000,
            threads: 0,
            shards: DEFAULT_SHARDS,
            deadline: None,
            chaos: None,
            certify: false,
            obs: obs::Registry::disabled(),
        }
    }
}

/// Counters describing one [`fraig`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FraigStats {
    /// Simulate–prove rounds executed.
    pub rounds: usize,
    /// SAT equivalence queries issued.
    pub sat_calls: u64,
    /// Queries answered UNSAT (equivalence proved, node merged).
    pub proved: usize,
    /// Queries answered SAT (counterexample found, class split).
    pub disproved: usize,
    /// Queries that ran out of budget (including those lost to faults).
    pub unknown: usize,
    /// Counterexample patterns fed back into simulation. Every window's
    /// counterexamples become one replayed simulation word, so this equals
    /// `disproved`.
    pub cex_patterns: usize,
    /// Deadline interruptions observed: one per SAT query cut mid-search
    /// by the sweep deadline, plus one if the round loop itself was cut
    /// before finishing.
    pub deadline_interrupts: u64,
    /// Shard workers that panicked and were contained; their unanswered
    /// pairs degraded to `Undecided` and their oracles were rebuilt.
    pub shard_failures: u64,
    /// UNSAT merge verdicts verified by the independent proof checker
    /// (equals `proved` when [`FraigParams::certify`] is on; 0 otherwise).
    pub certified: u64,
}

impl FraigStats {
    /// Every counter with its name, in field order: the one list the
    /// `sweep.stats.*` gauges and the CLI's resource report read.
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("rounds", self.rounds as u64),
            ("sat_calls", self.sat_calls),
            ("proved", self.proved as u64),
            ("disproved", self.disproved as u64),
            ("unknown", self.unknown as u64),
            ("cex_patterns", self.cex_patterns as u64),
            ("deadline_interrupts", self.deadline_interrupts),
            ("shard_failures", self.shard_failures),
            ("certified", self.certified),
        ]
    }

    /// Publishes every counter as a `sweep.stats.<name>` gauge
    /// (last-write-wins); [`fraig`] calls this on completion so live
    /// snapshots and the final stats struct agree by construction.
    pub fn publish(&self, reg: &obs::Registry) {
        if !reg.is_enabled() {
            return;
        }
        for (name, value) in self.counters() {
            reg.set_gauge(&format!("sweep.stats.{name}"), value);
        }
    }
}

/// Result of a [`fraig`] run.
#[derive(Clone, Debug)]
pub struct FraigOutcome {
    /// The swept, functionally equivalent graph.
    pub aig: Aig,
    /// Run counters.
    pub stats: FraigStats,
}

/// One candidate equivalence query: prove `member ≡ repr ⊕ phase`.
#[derive(Clone, Copy, Debug)]
struct PairTask {
    repr: Var,
    member: Var,
    phase: bool,
}

/// SAT-sweeps the graph: merges nodes proved functionally equivalent
/// (up to complementation) and returns the reduced graph.
///
/// The output is functionally equivalent to the input by construction:
/// every merge is justified by an UNSAT answer on the pairwise miter
/// `a ⊕ b` over the *original* graph, so substitutions compose soundly in
/// any order. Budget exhaustion only loses reductions, never correctness.
///
/// The run is deterministic for a fixed seed and independent of the
/// thread count: the pairs of each window are assigned to logical oracle
/// shards by index, each shard's query sequence is fixed, and each
/// window's answers are applied in pair order whatever order they arrive
/// in, before the next window is formed.
///
/// # Panics
/// Panics if `params.shards` is 0.
///
/// ```
/// use aig::Aig;
/// use sweep::{fraig, FraigParams};
///
/// let mut g = Aig::new();
/// let pis = g.add_pis(4);
/// let f = g.and_many(&pis);
/// g.add_po(f);
/// let out = fraig(&g, &FraigParams::default());
/// assert!(aig::check::exhaustive_equiv(&g, &out.aig));
/// ```
pub fn fraig(aig: &Aig, params: &FraigParams) -> FraigOutcome {
    let mut stats = FraigStats::default();
    let n = aig.num_nodes();
    assert!(params.shards > 0, "FraigParams::shards must be at least 1");
    let threads = resolve_threads(params.threads);
    let shards = params.shards;
    let reach = aig.reachable_from_pos();
    let (base_cnf, vmap) = tseitin(aig);
    // The Tseitin encoding is normalised into a solver once; each oracle
    // shard then *clones* that base solver — a flat memcpy of the arena and
    // watcher lists — instead of re-adding every clause. Learnt clauses
    // carry over between a shard's queries; per-query miter gadgets are
    // guarded by activation literals (assumed for the query, retired by a
    // unit).
    let base_solver = Solver::from_cnf(
        &base_cnf,
        SolverConfig {
            proof: params.certify,
            ..SolverConfig::default()
        },
    );
    let base_vars = base_cnf.num_vars();
    let mut oracles: Vec<Option<PairOracle>> = (0..shards).map(|_| None).collect();

    // equiv[v] = Some(l): node v is equivalent to old-graph literal l
    // (l.var() < v). Chains are resolved during rebuild.
    let mut equiv: Vec<Option<Lit>> = vec![None; n];
    // Every counterexample found so far, 64 per word: each column is one
    // packed simulation word per PI (bit j of column[i] = value of PI i
    // in the window's j-th counterexample), so replaying them costs one
    // matrix column per window — no per-pattern bool vectors.
    let mut cex_columns: Vec<Vec<u64>> = Vec::new();
    // Pairs left undecided (budget, deadline or fault); never retried. A
    // disproved pair needs no entry: its counterexample is replayed in
    // every later round, so its two nodes never again share a class in
    // the phase it refuted. Kept as a sorted vector of packed
    // (repr, member) keys — a binary search per candidate instead of
    // hashing inside the refinement loop.
    let mut undecided: Vec<u64> = Vec::new();
    let pair_key = |repr: Var, member: Var| (repr as u64) << 32 | member as u64;

    // One signature matrix reused across rounds (buffer grows by the
    // rounds' new counterexample columns, never reallocates from scratch).
    let mut sigs = SimVectors::new();
    // The sweep never mutates the graph mid-run, so the compiled program
    // is built once and reused by every round's resimulation and every
    // window's replay.
    let prog = SimProgram::new(aig);
    // Node values under the latest window's counterexample word.
    let mut window_vals: Vec<u64> = Vec::new();
    let sweep_span = params.obs.span_with(
        "sweep.fraig",
        &[("nodes", n.into()), ("shards", shards.into())],
    );
    let pairs_hist = params.obs.histogram("sweep.round.pairs");
    for round in 0..MAX_ROUNDS {
        // Whole-sweep deadline: never start a round past it. Everything
        // merged so far is individually SAT-proved, so cutting here only
        // loses further reductions, never soundness.
        if params.deadline.is_some_and(|d| Instant::now() >= d) {
            stats.deadline_interrupts += 1;
            break;
        }
        stats.rounds = round + 1;
        let round_span = sweep_span.child_with("sweep.round", &[("round", round.into())]);
        let calls_before = stats.sat_calls;
        let proved_before = stats.proved;
        let disproved_before = stats.disproved;
        let columns_before = cex_columns.len();
        simulate_round(&prog, params, round, &cex_columns, &mut sigs);

        // Candidates: constant node + reachable, not-yet-merged PIs/ANDs.
        let members =
            (0..n as Var).filter(|&v| v == 0 || (reach[v as usize] && equiv[v as usize].is_none()));
        let classes = candidate_classes(&sigs, members);

        // The round's pair list, fixed up front in class order: each node
        // is a member of at most one class, so the list depends only on
        // *previous* rounds.
        let tasks: Vec<PairTask> = classes
            .classes()
            .iter()
            .flat_map(|class| {
                let repr = class[0];
                class[1..].iter().map(move |member| PairTask {
                    repr: repr.var,
                    member: member.var,
                    phase: repr.phase != member.phase,
                })
            })
            .filter(|t| {
                undecided
                    .binary_search(&pair_key(t.repr, t.member))
                    .is_err()
            })
            .collect();
        pairs_hist.observe(tasks.len() as u64);

        // Prove the list WINDOW pairs at a time, each window on the
        // sharded oracles (in parallel when threads allow), merging its
        // answers in pair order. `pending` holds the positions, in the
        // round's list, of pairs not yet queried.
        let mut pending: Vec<usize> = (0..tasks.len()).collect();
        while !pending.is_empty() {
            let window: Vec<usize> = pending.drain(..WINDOW.min(pending.len())).collect();
            stats.sat_calls += window.len() as u64;
            let (answers, failed_shards) = prove_window(
                &mut oracles,
                &base_solver,
                base_vars,
                &vmap,
                &tasks,
                &window,
                params,
                round,
                threads,
                &round_span.handle(),
            );
            // A panicked shard's oracle is poisoned mid-query: drop it so
            // the next window lazily rebuilds from the clean base solver.
            // Its unanswered pairs surface as `Undecided` below.
            stats.shard_failures += failed_shards.len() as u64;
            for s in failed_shards {
                oracles[s] = None;
            }

            // The window's counterexamples, packed on the fly (bit j of
            // word[i] = value of PI i in the j-th counterexample).
            let mut word = vec![0u64; aig.num_pis()];
            let mut patterns = 0usize;
            for (&t, answer) in window.iter().zip(&answers) {
                let task = &tasks[t];
                match answer {
                    Answer::Equivalent => {
                        stats.proved += 1;
                        if params.certify {
                            // prove_pair verified the certificate (or
                            // panicked) before reporting Equivalent.
                            stats.certified += 1;
                        }
                        equiv[task.member as usize] = Some(Lit::from_var(task.repr, task.phase));
                    }
                    Answer::Different(pattern) => {
                        stats.disproved += 1;
                        for (i, &bit) in pattern.iter().enumerate() {
                            word[i] |= (bit as u64) << patterns;
                        }
                        patterns += 1;
                    }
                    Answer::Undecided {
                        deadline_interrupted,
                    } => {
                        stats.unknown += 1;
                        if *deadline_interrupted {
                            stats.deadline_interrupts += 1;
                        }
                        // A round's pairs are distinct and an undecided
                        // pair is never listed again, so no key repeats.
                        undecided.push(pair_key(task.repr, task.member));
                    }
                }
            }
            if patterns == 0 {
                continue;
            }
            // Replay the word and drop every pending pair it separates:
            // the pair's two nodes differ (up to its phase) on one of the
            // word's input patterns, so its query could only answer SAT.
            prog.run_dense(&mut window_vals, 1, &word);
            pending.retain(|&t| {
                let task = &tasks[t];
                let diff = window_vals[task.repr as usize] ^ window_vals[task.member as usize];
                diff == if task.phase { !0 } else { 0 }
            });
            stats.cex_patterns += patterns;
            cex_columns.push(word);
        }
        undecided.sort_unstable();
        round_span.record("pairs", tasks.len());
        round_span.record("tasks", stats.sat_calls - calls_before);
        round_span.record("proved", stats.proved - proved_before);
        round_span.record("disproved", stats.disproved - disproved_before);
        if cex_columns.len() == columns_before {
            break;
        }
    }

    drop(sweep_span);
    stats.publish(&params.obs);
    FraigOutcome {
        aig: rebuild(aig, &equiv),
        stats,
    }
}

/// Proves one window of the round's tasks on the sharded oracles and
/// returns the answers in window order plus the indices of shards whose
/// worker panicked. `window` holds positions in `tasks`, the round's list.
///
/// Pair `j` of the window runs on oracle `j % shards`; within a shard,
/// pairs run in ascending order. Both facts are independent of `threads`,
/// so each oracle's incremental state (learnt clauses, activities, budget
/// clock) evolves identically however the shards are scheduled — the
/// returned vector is bit-identical from one core to many. Workers stream
/// `(index, answer)` pairs over a channel; [`run_sharded`] reassembles
/// them into window order. Chaos faults are rolled on the pair's position
/// in the round's list, so a fault pattern does not depend on where the
/// window boundaries fall.
///
/// A shard panic (contained by the pool) loses that shard's remaining
/// answers; the lost slots degrade to `Undecided` — the same sound
/// "no answer" the budget path produces — so the merge loop never has to
/// care how an answer went missing.
#[allow(clippy::too_many_arguments)]
fn prove_window(
    oracles: &mut [Option<PairOracle>],
    base_solver: &Solver,
    base_vars: u32,
    vmap: &VarMap,
    tasks: &[PairTask],
    window: &[usize],
    params: &FraigParams,
    round: usize,
    threads: usize,
    round_span: &obs::SpanHandle,
) -> (Vec<Answer>, Vec<usize>) {
    let shards = oracles.len();
    let run = run_sharded(threads, oracles, window.len(), |s, oracle, emit| {
        if s >= window.len() {
            return;
        }
        // One `sweep.shard` span per shard per window; the oracle is
        // re-parented under it each window (its previous window's shard
        // span is closed by then).
        let shard_span = round_span.child_with("sweep.shard", &[("shard", s.into())]);
        let mut observed = false;
        for (j, &t) in window.iter().enumerate().skip(s).step_by(shards) {
            match params.chaos.as_ref().and_then(|c| c.roll(round, t)) {
                Some(Fault::Unknown) => {
                    emit(
                        j,
                        Answer::Undecided {
                            deadline_interrupted: false,
                        },
                    );
                    continue;
                }
                Some(Fault::Panic) => panic!("chaos: injected shard-worker panic"),
                None => {}
            }
            // Oracles are built lazily so tiny rounds never pay for
            // shards they do not touch; first use is per-shard
            // deterministic.
            let oracle = oracle.get_or_insert_with(|| PairOracle::new(base_solver, base_vars));
            if !observed {
                oracle.solver.set_observer(shard_span.handle());
                observed = true;
            }
            let task = &tasks[t];
            emit(
                j,
                oracle.prove_pair(vmap, task.member, task.repr, task.phase, params),
            );
        }
    });
    let answers = run
        .results
        .into_iter()
        .map(|a| {
            a.unwrap_or(Answer::Undecided {
                deadline_interrupted: false,
            })
        })
        .collect();
    (answers, run.failed_shards)
}

enum Answer {
    Equivalent,
    Different(Vec<bool>),
    Undecided {
        /// The query was cut by the sweep deadline (as opposed to the
        /// conflict budget or an injected fault).
        deadline_interrupted: bool,
    },
}

/// Incremental equivalence oracle: one CDCL solver holding the Tseitin
/// encoding, queried per candidate pair through activation literals.
struct PairOracle {
    solver: Solver,
    /// Next fresh variable for activation literals.
    next_var: u32,
}

impl PairOracle {
    /// Clones the pre-loaded base solver instead of re-normalising the
    /// shared CNF — oracle construction is a memcpy, so sharding the
    /// oracle pool does not multiply the encoding cost.
    fn new(base_solver: &Solver, base_vars: u32) -> PairOracle {
        PairOracle {
            solver: base_solver.clone(),
            next_var: base_vars + 1,
        }
    }

    /// Budgeted SAT check of `member ≡ repr ⊕ phase` over the original
    /// graph. Learnt clauses persist across calls.
    fn prove_pair(
        &mut self,
        vmap: &VarMap,
        member: Var,
        repr: Var,
        phase: bool,
        params: &FraigParams,
    ) -> Answer {
        let a = vmap
            .lit(Lit::from_var(member, false))
            .expect("member is PO-reachable, hence encoded");
        // The conflict budget is cumulative on the shard's solver; the
        // sweep deadline rides along so a mid-round cut interrupts the
        // remaining queries promptly instead of letting each burn its full
        // conflict allowance.
        let limit = self.solver.stats().conflicts + params.conflict_budget;
        let deadline_interrupts_before = self.solver.stats().deadline_interrupts;
        self.solver
            .set_budget(Budget::conflicts(limit).with_deadline(params.deadline));
        let result = match cnf_lit_of(vmap, repr, phase) {
            Some(b) => {
                // Miter gadget `s -> (a ⊕ b)` under fresh activation var s.
                let s = CnfLit::pos(self.next_var);
                self.next_var += 1;
                self.solver.add_clause_cnf(&[!s, a, b]);
                self.solver.add_clause_cnf(&[!s, !a, !b]);
                let r = self.solver.solve_with_assumptions(&[s]);
                if params.certify && r.is_unsat() {
                    // Certify against the pre-retirement formula: once the
                    // `!s` unit lands, `s` would be trivially refutable and
                    // the check would prove nothing about the miter.
                    self.certify_unsat(&[s]);
                }
                // Retire the gadget so later queries never revisit it.
                self.solver.add_clause_cnf(&[!s]);
                r
            }
            None => {
                // repr is the constant node: test `member ≠ phase`.
                let assumption = if phase { !a } else { a };
                let r = self.solver.solve_with_assumptions(&[assumption]);
                if params.certify && r.is_unsat() {
                    self.certify_unsat(&[assumption]);
                }
                r
            }
        };
        // Paranoia: the oracle leans on incremental solving — gadget
        // binaries in the inline tier, long learnts churning through
        // reduction/GC between queries — so audit the two-tier
        // watcher/reason invariants after every query in debug builds.
        // Under parallel sweeping this runs concurrently on every shard.
        #[cfg(debug_assertions)]
        self.solver.assert_integrity();
        match result {
            SolveResult::Unsat => Answer::Equivalent,
            SolveResult::Sat(model) => Answer::Different(vmap.decode_inputs(&model)),
            SolveResult::Unknown => Answer::Undecided {
                deadline_interrupted: self.solver.stats().deadline_interrupts
                    > deadline_interrupts_before,
            },
        }
    }

    /// Verifies the oracle's UNSAT-under-assumptions verdict with the
    /// independent RUP checker ([`Solver::certify`]). Panics if rejected —
    /// a merge justified by an unverifiable UNSAT answer must never be
    /// applied.
    fn certify_unsat(&self, assumptions: &[CnfLit]) {
        if let Err(e) = self.solver.certify(assumptions) {
            panic!("sweep oracle UNSAT merge verdict failed certification: {e}");
        }
    }
}

/// CNF literal of an old-graph node, or `None` for the constant node when
/// it was not encoded.
fn cnf_lit_of(vmap: &VarMap, var: Var, phase: bool) -> Option<CnfLit> {
    if var == 0 {
        // Constant false node; may be unencoded. Handled by the caller.
        return None;
    }
    Some(
        vmap.lit(Lit::from_var(var, phase))
            .expect("repr is PO-reachable, hence encoded"),
    )
}

/// Rebuilds the graph substituting merged nodes, then drops dangling logic.
fn rebuild(aig: &Aig, equiv: &[Option<Lit>]) -> Aig {
    let mut out = Aig::with_capacity(aig.num_nodes());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for &pi in aig.pis() {
        map[pi as usize] = out.add_pi();
    }
    for v in aig.iter_ands() {
        map[v as usize] = match equiv[v as usize] {
            Some(rep) => map[rep.var() as usize].xor_compl(rep.is_compl()),
            None => {
                let node = aig.node(v);
                let f0 = node.fanin0();
                let f1 = node.fanin1();
                let a = map[f0.var() as usize].xor_compl(f0.is_compl());
                let b = map[f1.var() as usize].xor_compl(f1.is_compl());
                out.and(a, b)
            }
        };
    }
    for &po in aig.pos() {
        let l = map[po.var() as usize].xor_compl(po.is_compl());
        out.add_po(l);
    }
    out.compact().0
}

/// One round's signature matrix: `sim_words` fresh random columns plus one
/// replayed column per earlier window's counterexample word, all run
/// through the sweep's compiled program into a single strided
/// [`SimVectors`] buffer.
fn simulate_round(
    prog: &SimProgram,
    params: &FraigParams,
    round: usize,
    cex_columns: &[Vec<u64>],
    sigs: &mut SimVectors,
) {
    // Reshape without zeroing: every column below is fully written.
    sigs.reshape(prog.n_slots(), params.sim_words + cex_columns.len());
    let seed = SEED ^ round as u64;
    random_columns(prog, sigs, 0, params.sim_words, seed);
    let jobs: Vec<(usize, &[u64])> = cex_columns
        .iter()
        .enumerate()
        .map(|(k, word)| (params.sim_words + k, word.as_slice()))
        .collect();
    simulate_columns(prog, sigs, &jobs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::check::{exhaustive_equiv, sim_equiv};

    /// Two structurally different adders over shared PIs, XOR-mitered:
    /// the classic fraig victim.
    fn equivalence_miter(bits: usize) -> Aig {
        let mut g = Aig::new();
        let xs = g.add_pis(bits);
        let ys = g.add_pis(bits);
        // Ripple-carry sum bits.
        let mut carry = Lit::FALSE;
        let mut sums_a = Vec::new();
        for i in 0..bits {
            let s = g.xor(xs[i], ys[i]);
            let s = g.xor(s, carry);
            sums_a.push(s);
            let c1 = g.and(xs[i], ys[i]);
            let t = g.xor(xs[i], ys[i]);
            let c2 = g.and(t, carry);
            carry = g.or(c1, c2);
        }
        // Second copy with majority-form carries.
        let mut carry = Lit::FALSE;
        let mut sums_b = Vec::new();
        for i in 0..bits {
            let s1 = g.xor(xs[i], ys[i]);
            let s = g.xor(s1, carry);
            sums_b.push(s);
            let ab = g.and(xs[i], ys[i]);
            let ac = g.and(xs[i], carry);
            let bc = g.and(ys[i], carry);
            let t = g.or(ab, ac);
            carry = g.or(t, bc);
        }
        let diffs: Vec<Lit> = sums_a
            .iter()
            .zip(&sums_b)
            .map(|(&a, &b)| g.xor(a, b))
            .collect();
        let any = g.or_many(&diffs);
        g.add_po(any);
        g
    }

    #[test]
    fn collapses_equivalence_miter_to_constant_false() {
        let g = equivalence_miter(4);
        let out = fraig(&g, &FraigParams::default());
        assert_eq!(
            out.aig.pos()[0],
            Lit::FALSE,
            "miter of equal circuits is constant 0"
        );
        assert_eq!(out.aig.num_ands(), 0);
        assert!(out.stats.proved > 0);
    }

    #[test]
    fn preserves_function_on_non_constant_outputs() {
        let mut g = Aig::new();
        let pis = g.add_pis(6);
        let a = g.xor_many(&pis[..3]);
        let b = g.and_many(&pis[3..]);
        let f = g.mux(pis[0], a, b);
        g.add_po(f);
        g.add_po(a);
        let out = fraig(&g, &FraigParams::default());
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn merges_duplicate_cones() {
        // The same 3-input majority built twice; sweeping should remove
        // roughly half the gates.
        let mut g = Aig::new();
        let p = g.add_pis(3);
        let maj = |g: &mut Aig| {
            let ab = g.and(p[0], p[1]);
            let ac = g.and(p[0], p[2]);
            let bc = g.and(p[1], p[2]);
            let t = g.or(ab, ac);
            g.or(t, bc)
        };
        let m1 = maj(&mut g);
        // Force distinct structure for the second copy: different
        // association order.
        let bc = g.and(p[1], p[2]);
        let ac = g.and(p[2], p[0]);
        let ab = g.and(p[0], p[1]);
        let t = g.or(bc, ac);
        let m2 = g.or(t, ab);
        let both = g.and(m1, m2); // = majority, since m1 ≡ m2
        g.add_po(both);
        let before = g.num_ands();
        let out = fraig(&g, &FraigParams::default());
        assert!(exhaustive_equiv(&g, &out.aig));
        assert!(
            out.aig.num_ands() <= before / 2 + 1,
            "expected ~half the gates, got {} of {before}",
            out.aig.num_ands()
        );
    }

    #[test]
    fn detects_complemented_equivalence() {
        // f and ¬f as two POs; sweeping must keep both POs correct.
        let mut g = Aig::new();
        let p = g.add_pis(3);
        let f = g.xor_many(&p);
        // De-Morgan complement built structurally.
        let x01 = g.xnor(p[0], p[1]);
        let nf = g.xnor(x01, !p[2]);
        g.add_po(f);
        g.add_po(nf);
        let out = fraig(&g, &FraigParams::default());
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn zero_budget_degrades_gracefully() {
        let g = equivalence_miter(3);
        let params = FraigParams {
            conflict_budget: 0,
            ..FraigParams::default()
        };
        let out = fraig(&g, &params);
        // Few merges may be proved, but the graph must stay equivalent.
        assert!(sim_equiv(&g, &out.aig, 8, 7));
        assert_eq!(
            out.stats.proved + out.stats.disproved + out.stats.unknown,
            out.stats.sat_calls as usize
        );
    }

    #[test]
    fn counterexamples_refine_classes() {
        // A pair of functions that agree on most patterns (differ only
        // when all PIs are 1): simulation may alias them, SAT must split.
        let mut g = Aig::new();
        let p = g.add_pis(6);
        let all = g.and_many(&p);
        let most = g.and_many(&p[..5]); // differs from `all` on one minterm class
        let d = g.xor(all, most);
        g.add_po(d);
        let out = fraig(
            &g,
            &FraigParams {
                sim_words: 1,
                ..FraigParams::default()
            },
        );
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn idempotent_on_swept_graphs() {
        let g = equivalence_miter(3);
        let once = fraig(&g, &FraigParams::default());
        let twice = fraig(&once.aig, &FraigParams::default());
        assert_eq!(once.aig.num_ands(), twice.aig.num_ands());
    }

    #[test]
    fn handles_constant_pos_and_empty_graphs() {
        let mut g = Aig::new();
        g.add_po(Lit::TRUE);
        let out = fraig(&g, &FraigParams::default());
        assert_eq!(out.aig.pos()[0], Lit::TRUE);

        let mut g2 = Aig::new();
        let a = g2.add_pi();
        g2.add_po(a);
        let out2 = fraig(&g2, &FraigParams::default());
        assert_eq!(out2.aig.num_ands(), 0);
        assert_eq!(out2.aig.num_pis(), 1);
    }

    #[test]
    fn expired_deadline_yields_sound_partial_result() {
        // A deadline in the past cuts the sweep before round 1: no merges,
        // no SAT calls, but a functionally identical graph and the cut
        // recorded in the stats.
        let g = equivalence_miter(4);
        let out = fraig(
            &g,
            &FraigParams {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..FraigParams::default()
            },
        );
        assert_eq!(out.stats.rounds, 0);
        assert_eq!(out.stats.sat_calls, 0);
        assert!(out.stats.deadline_interrupts >= 1);
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn chaos_panic_storm_is_contained() {
        // Every query panics the worker: the sweep must still terminate
        // with an equivalent graph, all pairs undecided, and the failures
        // counted — the process-level contract behind the serve layer.
        let g = equivalence_miter(4);
        let out = fraig(
            &g,
            &FraigParams {
                threads: 1,
                shards: 2,
                chaos: Some(ChaosPlan {
                    seed: 7,
                    panic_in_1024: 1024,
                    ..ChaosPlan::default()
                }),
                ..FraigParams::default()
            },
        );
        assert!(out.stats.shard_failures >= 1);
        assert_eq!(out.stats.proved, 0);
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    /// Structural equality of two rebuilt graphs (node-for-node).
    fn same_aig(a: &Aig, b: &Aig) -> bool {
        a.num_nodes() == b.num_nodes()
            && a.pis() == b.pis()
            && a.pos() == b.pos()
            && a.iter_ands().zip(b.iter_ands()).all(|(va, vb)| {
                let (na, nb) = (a.node(va), b.node(vb));
                va == vb && na.fanin0() == nb.fanin0() && na.fanin1() == nb.fanin1()
            })
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        // With the shard count pinned, the thread count is pure schedule.
        // The second graph adds a near-equal pair (differing on one
        // minterm) that starved simulation aliases and SAT disproves, so
        // counterexamples carry the sweep into later rounds.
        let mut near = equivalence_miter(5);
        let extra = near.add_pis(6);
        let all = near.and_many(&extra);
        let most = near.and_many(&extra[..5]);
        let d = near.xor(all, most);
        let po0 = near.pos()[0];
        let both = near.or(po0, d);
        near.set_po(0, both);
        for (g, sim_words) in [(equivalence_miter(5), 17), (near, 1)] {
            let outcomes: Vec<FraigOutcome> = [1usize, 2, 3, 4, 8]
                .iter()
                .map(|&threads| {
                    fraig(
                        &g,
                        &FraigParams {
                            threads,
                            shards: 4,
                            sim_words,
                            ..FraigParams::default()
                        },
                    )
                })
                .collect();
            for (i, out) in outcomes.iter().enumerate().skip(1) {
                assert_eq!(out.stats, outcomes[0].stats, "stats diverged at run {i}");
                assert!(
                    same_aig(&out.aig, &outcomes[0].aig),
                    "graph diverged at {i}"
                );
            }
            assert!(sim_equiv(&g, &outcomes[0].aig, 16, 11));
            if sim_words == 1 {
                assert!(outcomes[0].stats.rounds > 1, "counterexamples refine");
                assert!(outcomes[0].stats.disproved > 0, "near pairs split");
            } else {
                assert_eq!(outcomes[0].aig.pos()[0], Lit::FALSE);
            }
        }
    }

    #[test]
    fn single_shard_matches_the_classic_sequential_sweep() {
        // Different shard counts are *allowed* to produce different (still
        // correct) outcomes; every configuration must stay equivalent to
        // the input.
        let g = equivalence_miter(4);
        for shards in [1usize, 2, 8] {
            let out = fraig(
                &g,
                &FraigParams {
                    shards,
                    threads: 2,
                    ..FraigParams::default()
                },
            );
            assert_eq!(out.aig.pos()[0], Lit::FALSE, "shards={shards}");
        }
        // threads=1, shards=1 is the classic single-oracle sweep: one
        // solver, every pair in order — same outcome as a single shard at
        // any thread count.
        let classic = fraig(
            &g,
            &FraigParams {
                threads: 1,
                shards: 1,
                ..FraigParams::default()
            },
        );
        let one_shard = fraig(
            &g,
            &FraigParams {
                threads: 4,
                shards: 1,
                ..FraigParams::default()
            },
        );
        assert_eq!(classic.stats, one_shard.stats);
        assert!(same_aig(&classic.aig, &one_shard.aig));
    }

    #[test]
    #[should_panic(expected = "shards must be at least 1")]
    fn zero_shards_is_rejected() {
        fraig(
            &equivalence_miter(4),
            &FraigParams {
                shards: 0,
                ..FraigParams::default()
            },
        );
    }
}
