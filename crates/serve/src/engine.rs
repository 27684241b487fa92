//! The bounded-queue worker-pool engine.
//!
//! ## Life of a query
//!
//! [`Engine::submit`] normalizes the query (rejecting malformed shapes
//! synchronously), derives a per-query child of the engine's root
//! [`Cancellation`] token, and admits the job into a bounded queue —
//! blocking for space under [`Admission::Block`] (backpressure) or
//! answering `Unknown(Shed)` immediately under [`Admission::Shed`]
//! (load shedding). Workers pull jobs **earliest-deadline-first** (FIFO
//! among equals), so under overload the engine finishes the queries that
//! can still make their deadlines and sheds the ones that already cannot:
//! a job whose deadline passed while queued is answered `Unknown(Shed)`
//! without wasting a solve on it.
//!
//! Each worker attempt builds a fresh proof-logging solver, loads the
//! Tseitin encoding of the normalized cone, and solves under the
//! per-query budget. Verdicts are memoized in the [`VerdictCache`]; SAT
//! witnesses are replayed through the cone and UNSAT certificates
//! re-verified by the independent checker before first reuse, so a
//! corrupted cache entry degrades to a live solve rather than an unsound
//! answer.
//!
//! ## Fault tolerance
//!
//! - **Budget exhaustion** (`Unknown`): retried with a ×4 conflict budget
//!   after a deterministically jittered exponential backoff, up to
//!   `max_attempts`, then answered `Unknown(Budget)`.
//! - **Worker panic**: contained with `catch_unwind` exactly like
//!   `sweep::pool` shards; the job is retried on a fresh solver up to
//!   `panic_retries`, then answered `Failed`. The panicking attempt can
//!   never corrupt other queries — solver state is per-attempt.
//! - **Cancellation**: one root token fans out to per-query children
//!   ([`sat::Cancellation::child`]); [`Engine::shutdown`] cancels the root,
//!   drains the queue as `Unknown(Cancelled)`, interrupts in-flight solves,
//!   and joins the workers. Individual queries are cancelled through their
//!   [`Ticket`] without disturbing neighbors.
//!
//! Every admitted query gets **exactly one** response: jobs are owned
//! linearly (queue → worker → response or requeue), requeue and shutdown
//! drain race under the same lock, and shed-at-submit responds before
//! returning. The chaos hooks reuse [`sweep::ChaosPlan`] with
//! `round = attempt` and `task = query id`, so injected faults are a pure
//! function of the query and schedule-independent — a fixed seed yields
//! identical verdicts for any worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use sat::{Budget, Cancellation, SolveResult, Solver, SolverConfig};
use sweep::{ChaosPlan, Fault};

use crate::cache::{CacheAnswer, CacheStats, VerdictCache};
use crate::query::{NormalizedQuery, Query, QueryError, QueryKind};

/// What to do when the queue is full at submission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Block the submitting thread until space frees up (backpressure).
    Block,
    /// Admit the query but immediately answer `Unknown(Shed)` (load
    /// shedding). The caller still receives exactly one response.
    Shed,
}

/// Conflict-budget multiplier applied on each retry of an `Unknown`.
const BUDGET_ESCALATION: u64 = 4;
/// Seed for the deterministic backoff jitter.
const SEED: u64 = 0x5e12_7e11;

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads; `0` = one per available core (like
    /// `sweep::pool::resolve_threads`).
    pub workers: usize,
    /// Maximum queued (not yet running) queries before admission control
    /// kicks in.
    pub queue_capacity: usize,
    /// Full-queue policy.
    pub admission: Admission,
    /// Conflict budget of a query's first attempt.
    pub base_conflicts: u64,
    /// Total attempts for a query whose solves keep exhausting their
    /// budget; afterwards it is answered `Unknown(Budget)`.
    pub max_attempts: u32,
    /// Retries granted to a query whose worker panicked; afterwards it is
    /// answered `Failed`.
    pub panic_retries: u32,
    /// Base of the jittered exponential retry backoff.
    pub backoff: Duration,
    /// Deterministic fault injection for robustness tests: rolled per
    /// (attempt, query id), independent of worker count and schedule.
    pub chaos: Option<ChaosPlan>,
    /// Observability registry. Disabled by default; when tracing, each
    /// query runs under one `serve.query` span tree (admission →
    /// queue-wait → per-attempt solve → response).
    pub obs: obs::Registry,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 0,
            queue_capacity: 64,
            admission: Admission::Block,
            base_conflicts: 20_000,
            max_attempts: 3,
            panic_retries: 2,
            backoff: Duration::from_micros(500),
            chaos: None,
            obs: obs::Registry::disabled(),
        }
    }
}

/// Why a query came back [`Verdict::Unknown`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnknownReason {
    /// Every attempt exhausted its conflict budget.
    Budget,
    /// The per-query deadline expired mid-solve.
    Deadline,
    /// The query (or the whole engine) was cancelled.
    Cancelled,
    /// Load-shed: queue full under [`Admission::Shed`], or the deadline
    /// passed while the query was still queued.
    Shed,
}

impl UnknownReason {
    /// Stable lowercase name used in CLI result lines.
    pub fn name(self) -> &'static str {
        match self {
            UnknownReason::Budget => "budget",
            UnknownReason::Deadline => "deadline",
            UnknownReason::Cancelled => "cancelled",
            UnknownReason::Shed => "shed",
        }
    }
}

/// Final verdict for one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable — counterexample / distinguishing input / reachable bad
    /// state. The witness is over the *instance's* PIs and has been
    /// replayed through the cone before being reported.
    Sat(Vec<bool>),
    /// Unsatisfiable — proved, with a DRAT certificate retained in the
    /// cache.
    Unsat,
    /// No verdict, for the given reason. Never silently dropped.
    Unknown(UnknownReason),
    /// Worker attempts kept panicking past the retry cap. A bug report,
    /// not an answer — but still exactly one response.
    Failed,
}

impl Verdict {
    /// True for [`Verdict::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Verdict::Sat(_))
    }

    /// True for [`Verdict::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Verdict::Unsat)
    }

    /// Stable lowercase status used in CLI result lines.
    pub fn status(&self) -> &'static str {
        match self {
            Verdict::Sat(_) => "sat",
            Verdict::Unsat => "unsat",
            Verdict::Unknown(_) => "unknown",
            Verdict::Failed => "failed",
        }
    }
}

/// One response per submitted query — no losses, no duplicates.
#[derive(Clone, Debug)]
pub struct Response {
    /// Id returned by [`Engine::submit`].
    pub id: u64,
    /// Query flavor, echoed for reporting.
    pub kind: QueryKind,
    /// The verdict.
    pub verdict: Verdict,
    /// True when the verdict came from the cache rather than a live solve.
    pub cache_hit: bool,
    /// Solve attempts consumed (0 for cache hits and queue-time sheds).
    pub attempts: u32,
    /// Wall-clock time from submission to response.
    pub wall: Duration,
}

/// Per-query submission options.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryOpts {
    /// Wall-clock deadline; expiry answers `Unknown(Deadline)` (mid-solve)
    /// or `Unknown(Shed)` (still queued).
    pub deadline: Option<Instant>,
}

/// Submission errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The query failed shape validation; nothing was enqueued.
    Malformed(QueryError),
    /// The engine is shut down.
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Malformed(e) => write!(f, "malformed query: {e}"),
            SubmitError::ShutDown => write!(f, "engine is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Handle to a submitted query: its id and its cancellation token (a child
/// of the engine's root token, so engine shutdown also cancels it).
#[derive(Clone, Debug)]
pub struct Ticket {
    /// Query id; responses carry it.
    pub id: u64,
    cancel: Cancellation,
}

impl Ticket {
    /// Cancels this query only: if still queued it answers
    /// `Unknown(Cancelled)` when popped; if mid-solve the solver interrupts
    /// at its next poll.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }
}

/// Aggregate engine counters (monotonic snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries admitted (including shed-at-submit).
    pub submitted: u64,
    /// Responses emitted.
    pub responded: u64,
    /// `Sat` verdicts.
    pub sat: u64,
    /// `Unsat` verdicts.
    pub unsat: u64,
    /// `Unknown(Budget)` verdicts.
    pub unknown_budget: u64,
    /// `Unknown(Deadline)` verdicts.
    pub unknown_deadline: u64,
    /// `Unknown(Cancelled)` verdicts.
    pub cancelled: u64,
    /// `Unknown(Shed)` verdicts (submit-time and queue-time).
    pub sheds: u64,
    /// Budget-escalation retries scheduled.
    pub retries: u64,
    /// Worker panics contained (injected or real).
    pub panics_contained: u64,
    /// `Failed` verdicts (panic retry cap exhausted).
    pub failures: u64,
    /// Verdict-cache counters.
    pub cache: CacheStats,
}

impl EngineStats {
    /// Publishes every counter as a `serve.stats.*` gauge in `reg`
    /// (last-write-wins), so the CLI summary, the `stats` line-protocol
    /// command, and bench totals all read from one registry snapshot.
    pub fn publish(&self, reg: &obs::Registry) {
        if !reg.is_enabled() {
            return;
        }
        reg.set_gauge("serve.stats.submitted", self.submitted);
        reg.set_gauge("serve.stats.responded", self.responded);
        reg.set_gauge("serve.stats.sat", self.sat);
        reg.set_gauge("serve.stats.unsat", self.unsat);
        reg.set_gauge("serve.stats.unknown_budget", self.unknown_budget);
        reg.set_gauge("serve.stats.unknown_deadline", self.unknown_deadline);
        reg.set_gauge("serve.stats.cancelled", self.cancelled);
        reg.set_gauge("serve.stats.sheds", self.sheds);
        reg.set_gauge("serve.stats.retries", self.retries);
        reg.set_gauge("serve.stats.panics_contained", self.panics_contained);
        reg.set_gauge("serve.stats.failures", self.failures);
        reg.set_gauge("serve.stats.cache_hits", self.cache.hits);
        reg.set_gauge("serve.stats.cache_misses", self.cache.misses);
        reg.set_gauge("serve.stats.cache_insertions", self.cache.insertions);
        reg.set_gauge("serve.stats.certs_verified", self.cache.certs_verified);
        reg.set_gauge("serve.stats.certs_rejected", self.cache.certs_rejected);
    }
}

impl std::fmt::Display for EngineStats {
    /// Stable `key=value` rendering, same convention as [`sat::Stats`] —
    /// the `csat serve` shutdown summary line prints this.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted={} responded={} sat={} unsat={} unknown_budget={} unknown_deadline={} \
             cancelled={} sheds={} retries={} panics={} failures={} cache_hits={} \
             cache_misses={} certs_verified={} certs_rejected={}",
            self.submitted,
            self.responded,
            self.sat,
            self.unsat,
            self.unknown_budget,
            self.unknown_deadline,
            self.cancelled,
            self.sheds,
            self.retries,
            self.panics_contained,
            self.failures,
            self.cache.hits,
            self.cache.misses,
            self.cache.certs_verified,
            self.cache.certs_rejected
        )
    }
}

/// One queued query. Owned linearly: by the queue, then by exactly one
/// worker, until a response is emitted or it is requeued.
struct Job {
    id: u64,
    norm: NormalizedQuery,
    deadline: Option<Instant>,
    cancel: Cancellation,
    attempt: u32,
    panics: u32,
    next_conflicts: u64,
    not_before: Option<Instant>,
    submitted_at: Instant,
    /// The query's `serve.query` span, opened at admission. Travels with
    /// the job across requeues; closes (emitting its exit event) when the
    /// job is dropped after its single response — including drops during
    /// a worker panic unwind, which keeps the event stream balanced.
    span: obs::Span,
}

struct QueueState {
    queue: Vec<Job>,
    shutdown: bool,
}

#[derive(Default)]
struct Telemetry {
    submitted: AtomicU64,
    responded: AtomicU64,
    sat: AtomicU64,
    unsat: AtomicU64,
    unknown_budget: AtomicU64,
    unknown_deadline: AtomicU64,
    cancelled: AtomicU64,
    sheds: AtomicU64,
    retries: AtomicU64,
    panics_contained: AtomicU64,
    failures: AtomicU64,
}

struct Shared {
    cfg: EngineConfig,
    state: Mutex<QueueState>,
    /// Signalled when work arrives or shutdown begins.
    work_cv: Condvar,
    /// Signalled when queue space frees up.
    space_cv: Condvar,
    cache: Mutex<VerdictCache>,
    root: Cancellation,
    tx: Mutex<Sender<Response>>,
    tel: Telemetry,
    /// Observability registry (clone of `cfg.obs`, hoisted for probe sites).
    obs: obs::Registry,
    /// Admission-to-first-dequeue wait, in microseconds.
    queue_wait: obs::Histogram,
}

/// The solver-as-a-service engine. See the [crate docs](crate).
pub struct Engine {
    shared: Arc<Shared>,
    rx: Mutex<Receiver<Response>>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    resolved_workers: usize,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.resolved_workers)
            .field("stats", &self.stats())
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("serve engine mutex poisoned")
}

/// Same mix as `sweep::pool` uses for chaos rolls; here it only feeds the
/// retry-backoff jitter, so determinism (not quality) is what matters.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Engine {
    /// Starts the worker pool. Workers idle until queries arrive.
    pub fn new(cfg: EngineConfig) -> Engine {
        let resolved_workers = sweep::pool::resolve_threads(cfg.workers);
        let (tx, rx) = channel();
        let obs = cfg.obs.clone();
        let queue_wait = obs.histogram("serve.queue_wait_us");
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(QueueState {
                queue: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            cache: Mutex::new(VerdictCache::new()),
            root: Cancellation::new(),
            tx: Mutex::new(tx),
            tel: Telemetry::default(),
            obs,
            queue_wait,
        });
        let workers = (0..resolved_workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh, i))
                    .expect("spawn serve worker")
            })
            .collect();
        Engine {
            shared,
            rx: Mutex::new(rx),
            workers: Mutex::new(workers),
            next_id: AtomicU64::new(0),
            resolved_workers,
        }
    }

    /// Number of worker threads actually running.
    pub fn workers(&self) -> usize {
        self.resolved_workers
    }

    /// Normalizes and admits a query. Returns once admission control lets
    /// it through (see [`Admission`]); the response arrives later through
    /// [`Engine::recv_timeout`].
    pub fn submit(&self, q: &Query, opts: QueryOpts) -> Result<Ticket, SubmitError> {
        let norm = q.normalize().map_err(SubmitError::Malformed)?;
        self.submit_normalized(norm, opts)
    }

    /// Admits an already-normalized query (lets callers amortize
    /// normalization across resubmissions).
    pub fn submit_normalized(
        &self,
        norm: NormalizedQuery,
        opts: QueryOpts,
    ) -> Result<Ticket, SubmitError> {
        let sh = &self.shared;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cancel = sh.root.child();
        let span = sh.obs.span_with(
            "serve.query",
            &[("id", id.into()), ("kind", norm.kind.name().into())],
        );
        let job = Job {
            id,
            norm,
            deadline: opts.deadline,
            cancel: cancel.clone(),
            attempt: 0,
            panics: 0,
            next_conflicts: sh.cfg.base_conflicts,
            not_before: None,
            submitted_at: Instant::now(),
            span,
        };
        let mut st = lock(&sh.state);
        if st.shutdown {
            return Err(SubmitError::ShutDown);
        }
        while st.queue.len() >= sh.cfg.queue_capacity {
            match sh.cfg.admission {
                Admission::Shed => {
                    sh.tel.submitted.fetch_add(1, Ordering::Relaxed);
                    drop(st);
                    sh.respond(&job, Verdict::Unknown(UnknownReason::Shed), false);
                    return Ok(Ticket { id, cancel });
                }
                Admission::Block => {
                    st = sh.space_cv.wait(st).expect("serve engine mutex poisoned");
                    if st.shutdown {
                        return Err(SubmitError::ShutDown);
                    }
                }
            }
        }
        sh.tel.submitted.fetch_add(1, Ordering::Relaxed);
        st.queue.push(job);
        drop(st);
        sh.work_cv.notify_one();
        Ok(Ticket { id, cancel })
    }

    /// Warm-loads an UNSAT certificate for a query's cone. The certificate
    /// is *not* trusted: like any cached certificate it must pass the
    /// independent checker before its first reuse, and is evicted (falling
    /// through to a live solve) if it does not. Returns the cache key.
    pub fn seed_cache_unsat(&self, q: &Query, proof: checker::Proof) -> Result<u64, QueryError> {
        let norm = q.normalize()?;
        lock(&self.shared.cache).insert_unsat(norm.key, norm.cone, proof, false);
        Ok(norm.key)
    }

    /// Receives the next response, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Response> {
        lock(&self.rx).recv_timeout(timeout).ok()
    }

    /// Receives a response if one is already pending.
    pub fn try_recv(&self) -> Option<Response> {
        lock(&self.rx).try_recv().ok()
    }

    /// Submits every query and blocks until all responses are in; returns
    /// them ordered by submission. Panics on malformed queries — validate
    /// with [`Query::normalize`] first when the input is untrusted — and
    /// assumes no other thread is consuming responses concurrently.
    pub fn run_batch(&self, queries: &[(Query, QueryOpts)]) -> Vec<Response> {
        let mut responses = Vec::with_capacity(queries.len());
        for (q, opts) in queries {
            self.submit(q, *opts)
                .expect("run_batch requires well-formed queries");
            // Drain eagerly to keep memory flat on very long batches.
            while let Some(r) = self.try_recv() {
                responses.push(r);
            }
        }
        while responses.len() < queries.len() {
            let r = self
                .recv_timeout(Duration::from_secs(300))
                .expect("engine guarantees one response per query");
            responses.push(r);
        }
        responses.sort_by_key(|r| r.id);
        responses
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let t = &self.shared.tel;
        EngineStats {
            submitted: t.submitted.load(Ordering::Relaxed),
            responded: t.responded.load(Ordering::Relaxed),
            sat: t.sat.load(Ordering::Relaxed),
            unsat: t.unsat.load(Ordering::Relaxed),
            unknown_budget: t.unknown_budget.load(Ordering::Relaxed),
            unknown_deadline: t.unknown_deadline.load(Ordering::Relaxed),
            cancelled: t.cancelled.load(Ordering::Relaxed),
            sheds: t.sheds.load(Ordering::Relaxed),
            retries: t.retries.load(Ordering::Relaxed),
            panics_contained: t.panics_contained.load(Ordering::Relaxed),
            failures: t.failures.load(Ordering::Relaxed),
            cache: lock(&self.shared.cache).stats(),
        }
    }

    /// Cancels the root token (fanning out to every queued and in-flight
    /// query), answers all queued jobs `Unknown(Cancelled)`, and joins the
    /// workers. Idempotent; also runs on drop. Pending responses remain
    /// receivable afterwards.
    pub fn shutdown(&self) {
        let sh = &self.shared;
        sh.root.cancel();
        let drained: Vec<Job> = {
            let mut st = lock(&sh.state);
            st.shutdown = true;
            sh.work_cv.notify_all();
            sh.space_cv.notify_all();
            std::mem::take(&mut st.queue)
        };
        for job in &drained {
            sh.respond(job, Verdict::Unknown(UnknownReason::Cancelled), false);
        }
        let handles = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Index of the best eligible job (earliest deadline, then FIFO), or the
/// earliest `not_before` among backoff-parked jobs when none is eligible.
fn pick(queue: &[Job], now: Instant, shutdown: bool) -> (Option<usize>, Option<Instant>) {
    let mut best: Option<usize> = None;
    let mut next_ready: Option<Instant> = None;
    for (i, job) in queue.iter().enumerate() {
        // Backoff parking is void once shutdown begins — those jobs just
        // need their Cancelled response.
        if !shutdown {
            if let Some(t) = job.not_before {
                if t > now {
                    next_ready = Some(next_ready.map_or(t, |n| n.min(t)));
                    continue;
                }
            }
        }
        let better = match best {
            None => true,
            Some(b) => {
                let (bd, bi) = (&queue[b].deadline, queue[b].id);
                match (job.deadline, bd) {
                    (Some(a), Some(b)) => (a, job.id) < (*b, bi),
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => job.id < bi,
                }
            }
        };
        if better {
            best = Some(i);
        }
    }
    (best, next_ready)
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    // One span per worker lifetime; query spans are parented to the
    // submitter, so this mostly anchors per-thread idle/busy boundaries.
    let _worker_span = shared
        .obs
        .span_with("serve.worker", &[("worker", index.into())]);
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                let now = Instant::now();
                let (best, next_ready) = pick(&st.queue, now, st.shutdown);
                if let Some(i) = best {
                    break Some(st.queue.swap_remove(i));
                }
                if st.shutdown {
                    break None;
                }
                st = match next_ready {
                    Some(t) => {
                        let wait = t.saturating_duration_since(now);
                        shared
                            .work_cv
                            .wait_timeout(st, wait)
                            .expect("serve engine mutex poisoned")
                            .0
                    }
                    None => shared
                        .work_cv
                        .wait(st)
                        .expect("serve engine mutex poisoned"),
                };
            }
        };
        let Some(job) = job else { return };
        shared.space_cv.notify_one();
        shared.process(job);
    }
}

/// Outcome of one live solve attempt.
enum AttemptOutcome {
    /// Witness over the cone's PIs.
    Sat(Vec<bool>),
    /// DRAT certificate for the cone's Tseitin encoding.
    Unsat(checker::Proof),
    /// Budget, deadline, or cancellation interrupt.
    Interrupted,
}

impl Shared {
    /// Runs one job to a response or a requeue. The only entry point that
    /// consumes jobs, so response-exactly-once follows from job ownership.
    fn process(&self, mut job: Job) {
        if job.attempt == 0 && job.panics == 0 {
            // First dequeue only: requeued jobs re-enter with backoff, and
            // their wait is retry policy, not queue pressure.
            let wait = job.submitted_at.elapsed();
            self.queue_wait.observe_micros(wait);
            job.span
                .event("dequeue", &[("wait_us", (wait.as_micros() as u64).into())]);
        }
        if job.cancel.is_cancelled() {
            self.respond(&job, Verdict::Unknown(UnknownReason::Cancelled), false);
            return;
        }
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            // Too late to be worth a solve: shed instead of burning a
            // worker on a query that already missed its deadline.
            self.respond(&job, Verdict::Unknown(UnknownReason::Shed), false);
            return;
        }
        job.attempt += 1;
        // Chaos rolls before the cache probe: a fault injected for
        // (attempt, id) must fire regardless of what other queries have
        // populated the cache with, or injected outcomes would depend on
        // the schedule.
        let fault = self
            .cfg
            .chaos
            .as_ref()
            .and_then(|c| c.roll(job.attempt as usize, job.id as usize));
        if matches!(fault, Some(Fault::Unknown)) {
            self.retry_or_unknown(job);
            return;
        }
        match lock(&self.cache).lookup(job.norm.key, &job.norm.cone) {
            CacheAnswer::Sat(w) => {
                let witness = job.norm.expand_witness(&w);
                self.respond(&job, Verdict::Sat(witness), true);
                return;
            }
            CacheAnswer::Unsat => {
                self.respond(&job, Verdict::Unsat, true);
                return;
            }
            CacheAnswer::Miss => {}
        }
        let inject_panic = matches!(fault, Some(Fault::Panic));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            assert!(!inject_panic, "chaos: injected serve worker panic");
            self.solve_attempt(&job)
        }));
        match outcome {
            Err(_) => {
                self.tel.panics_contained.fetch_add(1, Ordering::Relaxed);
                if job.panics >= self.cfg.panic_retries {
                    self.respond(&job, Verdict::Failed, false);
                } else {
                    job.panics += 1;
                    job.not_before = Some(Instant::now() + self.backoff_delay(&job));
                    self.requeue(job);
                }
            }
            Ok(AttemptOutcome::Sat(w)) => {
                // Soundness backstop: never report a witness the cone
                // itself rejects.
                if job.norm.cone.eval(&w).iter().any(|&b| b) {
                    lock(&self.cache).insert_sat(job.norm.key, job.norm.cone.clone(), w.clone());
                    let witness = job.norm.expand_witness(&w);
                    self.respond(&job, Verdict::Sat(witness), false);
                } else {
                    self.respond(&job, Verdict::Failed, false);
                }
            }
            Ok(AttemptOutcome::Unsat(proof)) => {
                lock(&self.cache).insert_unsat(job.norm.key, job.norm.cone.clone(), proof, false);
                self.respond(&job, Verdict::Unsat, false);
            }
            Ok(AttemptOutcome::Interrupted) => {
                if job.cancel.is_cancelled() {
                    self.respond(&job, Verdict::Unknown(UnknownReason::Cancelled), false);
                } else if job.deadline.is_some_and(|d| Instant::now() >= d) {
                    self.respond(&job, Verdict::Unknown(UnknownReason::Deadline), false);
                } else {
                    self.retry_or_unknown(job);
                }
            }
        }
    }

    /// One solve on a fresh proof-logging solver under the job's budget.
    fn solve_attempt(&self, job: &Job) -> AttemptOutcome {
        // `serve.solve` child per attempt; the solver's own `sat.solve`
        // span nests under it via the observer. If this attempt panics,
        // the span closes during unwind, keeping the stream balanced.
        let attempt_span = job.span.child_with(
            "serve.solve",
            &[
                ("attempt", job.attempt.into()),
                ("conflicts_budget", job.next_conflicts.into()),
            ],
        );
        let (formula, vmap) = cnf::tseitin_sat_instance(&job.norm.cone);
        // Proof logging is on: the cache stores certificates.
        let mut solver = Solver::new(SolverConfig {
            proof: true,
            ..SolverConfig::default()
        });
        solver.set_observer(attempt_span.handle());
        for clause in formula.clauses() {
            solver.add_clause_cnf(clause);
        }
        solver.set_budget(
            Budget::conflicts(job.next_conflicts)
                .with_deadline(job.deadline)
                .with_cancel(job.cancel.clone()),
        );
        match solver.solve() {
            SolveResult::Sat(model) => AttemptOutcome::Sat(vmap.decode_inputs(&model)),
            SolveResult::Unsat => {
                let log = solver.proof().expect("attempt solver logs proofs");
                AttemptOutcome::Unsat(checker::Proof::from_steps(
                    log.steps().iter().map(|s| (s.delete, s.lits.clone())),
                ))
            }
            SolveResult::Unknown => AttemptOutcome::Interrupted,
        }
    }

    /// Budget-exhausted attempt: escalate and requeue, or give up.
    fn retry_or_unknown(&self, mut job: Job) {
        if job.attempt >= self.cfg.max_attempts {
            self.respond(&job, Verdict::Unknown(UnknownReason::Budget), false);
            return;
        }
        self.tel.retries.fetch_add(1, Ordering::Relaxed);
        job.next_conflicts = job.next_conflicts.saturating_mul(BUDGET_ESCALATION);
        job.not_before = Some(Instant::now() + self.backoff_delay(&job));
        self.requeue(job);
    }

    /// Jittered exponential backoff, a pure function of (seed, id, attempt)
    /// so retry timing is reproducible.
    fn backoff_delay(&self, job: &Job) -> Duration {
        let exp = (job.attempt + job.panics).min(6);
        let base = self.cfg.backoff.saturating_mul(1u32 << exp);
        let j = splitmix64(
            SEED.wrapping_add(job.id.wrapping_mul(0x9E37_79B9))
                .wrapping_add(u64::from(job.attempt) << 48),
        ) % 1024;
        base.mul_f64(0.5 + j as f64 / 1024.0)
    }

    /// Puts a retried job back in the queue — unless shutdown won the race,
    /// in which case it is answered like any other drained job.
    fn requeue(&self, job: Job) {
        let mut st = lock(&self.state);
        if st.shutdown {
            drop(st);
            self.respond(&job, Verdict::Unknown(UnknownReason::Cancelled), false);
            return;
        }
        st.queue.push(job);
        drop(st);
        self.work_cv.notify_one();
    }

    /// Emits the job's single response and accounts for it.
    fn respond(&self, job: &Job, verdict: Verdict, cache_hit: bool) {
        let counter = match &verdict {
            Verdict::Sat(_) => &self.tel.sat,
            Verdict::Unsat => &self.tel.unsat,
            Verdict::Unknown(UnknownReason::Budget) => &self.tel.unknown_budget,
            Verdict::Unknown(UnknownReason::Deadline) => &self.tel.unknown_deadline,
            Verdict::Unknown(UnknownReason::Cancelled) => &self.tel.cancelled,
            Verdict::Unknown(UnknownReason::Shed) => &self.tel.sheds,
            Verdict::Failed => &self.tel.failures,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.tel.responded.fetch_add(1, Ordering::Relaxed);
        let wall = job.submitted_at.elapsed();
        job.span.record("status", verdict.status());
        job.span.record("cache_hit", cache_hit);
        job.span.record("attempts", job.attempt);
        job.span.record("wall_us", wall.as_micros() as u64);
        // A receiver that hung up just discards responses; that is the
        // caller's prerogative, not an engine error.
        let _ = lock(&self.tx).send(Response {
            id: job.id,
            kind: job.norm.kind,
            verdict,
            cache_hit,
            attempts: job.attempt,
            wall,
        });
    }
}
