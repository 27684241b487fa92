//! The service workload: a query stream into `serve::Engine`.
//!
//! The client drives the engine the way `csat batch --queue N` does: it
//! normalizes every query up front (`Query::normalize`), submits the whole
//! stream with `Engine::submit_normalized` into a queue that holds it all,
//! then drains every response. The batch's wall time covers all three
//! steps. Latency is the engine's own `Response::wall`, from the submit
//! call to the response, so it is mostly the wait for the queries ahead.
//!
//! The traffic is assumed, not measured: how often each case repeats is
//! the workload's choice, and the engine runs [`WORKERS`] worker. With one
//! worker the queue is served in submission order, so every hit, miss,
//! certificate check and retry repeats exactly from run to run.

use crate::workload::Case;
use serve::{Engine, EngineConfig, EngineStats, Query, QueryOpts, Verdict};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Worker threads of the engine. One: with two workers next to the client
/// on a two-core host, the batch statistics measured the scheduler
/// (`serve.p50_ms` of a warm batch spread by 22% of its median over five
/// seeds), and a repeat picked while its first copy was still solving
/// missed too, so hit counts depended on the schedule.
pub const WORKERS: usize = 1;

/// A fresh engine with the configuration every run uses. Its queue holds
/// `queue` queries, as `csat batch --queue N` sets it: a queue that holds
/// the whole stream admits every query at once.
pub fn engine(queue: usize) -> Engine {
    Engine::new(EngineConfig {
        workers: WORKERS,
        queue_capacity: queue,
        ..EngineConfig::default()
    })
}

/// One answered query.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Seconds from the `submit` call to the response.
    pub latency_s: f64,
    /// Answered from the cache.
    pub hit: bool,
    /// Attempts the engine reports (a hit counts its cache probe).
    pub attempts: u32,
}

/// Engine counters accrued by a stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// UNSAT certificates verified on first reuse.
    pub certs_verified: u64,
    /// Budget-escalation retries.
    pub retries: u64,
    /// SAT verdicts.
    pub sat: u64,
    /// UNSAT verdicts.
    pub unsat: u64,
}

impl Counts {
    fn of(s: &EngineStats) -> Counts {
        Counts {
            hits: s.cache.hits,
            misses: s.cache.misses,
            certs_verified: s.cache.certs_verified,
            retries: s.retries,
            sat: s.sat,
            unsat: s.unsat,
        }
    }

    fn since(self, before: Counts) -> Counts {
        Counts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            certs_verified: self.certs_verified - before.certs_verified,
            retries: self.retries - before.retries,
            sat: self.sat - before.sat,
            unsat: self.unsat - before.unsat,
        }
    }
}

/// One pass over a stream.
#[derive(Clone, Debug, Default)]
pub struct StreamRun {
    /// Wall seconds of the whole batch: normalizing every query, submitting
    /// it and draining the last response.
    pub wall_s: f64,
    /// Per-query samples, in response order.
    pub samples: Vec<Sample>,
    /// Seconds spent in `Query::normalize`, the first step of the batch.
    pub normalize_s: f64,
    /// Engine counters accrued by this pass.
    pub counts: Counts,
    /// Failure messages (case name first).
    pub failures: Vec<String>,
}

impl StreamRun {
    /// Latencies in milliseconds of the queries `keep` accepts.
    pub fn latencies_ms(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency_s * 1e3)
            .collect()
    }
}

/// Checks a service verdict against the case's ground truth and replays a
/// witness on the submitted circuits.
fn judge(case: &Case, truth: Option<bool>, verdict: &Verdict) -> Result<(), String> {
    match verdict {
        Verdict::Sat(w) => {
            let distinguishes = match &case.query {
                Query::Lec(a, b) => a.eval(w) != b.eval(w),
                Query::Solve(g) => g.eval(w).iter().any(|&o| o),
                Query::Bmc(..) => false,
            };
            if !distinguishes {
                return Err("witness does not replay on the submitted circuits".into());
            }
            if truth == Some(false) {
                return Err("SAT on a case known UNSAT".into());
            }
            Ok(())
        }
        Verdict::Unsat if truth == Some(true) => Err("UNSAT on a case known SAT".into()),
        Verdict::Unsat => Ok(()),
        other => Err(format!("service answered {other:?}")),
    }
}

/// Runs `stream` (indices into `cases`) once through `engine`, in batches
/// of `batch` queries: each batch is submitted whole and drained before the
/// next. `stream.len()` is one batch, as `csat batch` sends it; 1 asks one
/// query at a time, so each latency is that query's service time.
/// `truth[i]` is case `i`'s known satisfiability.
pub fn run_stream(
    engine: &Engine,
    cases: &[Case],
    stream: &[usize],
    truth: &[Option<bool>],
    batch: usize,
) -> StreamRun {
    let before = Counts::of(&engine.stats());
    let mut run = StreamRun::default();
    let t0 = Instant::now();
    let normalized: Vec<_> = stream
        .iter()
        .map(|&ci| cases[ci].query.normalize())
        .collect();
    run.normalize_s = t0.elapsed().as_secs_f64();
    // query id -> case index
    let mut pending: HashMap<u64, usize> = HashMap::with_capacity(batch);
    let mut queries = stream.iter().zip(normalized).peekable();
    while queries.peek().is_some() {
        for (&ci, norm) in queries.by_ref().take(batch) {
            let ticket = norm
                .map_err(serve::SubmitError::Malformed)
                .and_then(|n| engine.submit_normalized(n, QueryOpts::default()));
            match ticket {
                Ok(t) => {
                    pending.insert(t.id, ci);
                }
                Err(e) => run
                    .failures
                    .push(format!("{}: submit: {e}", cases[ci].name)),
            }
        }
        drain(engine, cases, truth, &mut pending, &mut run);
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    run.counts = Counts::of(&engine.stats()).since(before);
    run
}

/// Receives the response of every pending query and checks it.
fn drain(
    engine: &Engine,
    cases: &[Case],
    truth: &[Option<bool>],
    pending: &mut HashMap<u64, usize>,
    run: &mut StreamRun,
) {
    while !pending.is_empty() {
        let Some(r) = engine.recv_timeout(Duration::from_secs(120)) else {
            run.failures
                .push("engine gave no response within 120 s".to_string());
            break;
        };
        let Some(ci) = pending.remove(&r.id) else {
            run.failures
                .push(format!("response for unknown query id {}", r.id));
            continue;
        };
        if let Err(e) = judge(&cases[ci], truth[ci], &r.verdict) {
            run.failures
                .push(format!("{} [serve]: {e}", cases[ci].name));
        }
        run.samples.push(Sample {
            latency_s: r.wall.as_secs_f64(),
            hit: r.cache_hit,
            attempts: r.attempts,
        });
    }
}
