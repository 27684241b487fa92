//! Robustness contract of the `serve` query engine under deterministic
//! fault injection, cancellation, and cache corruption:
//!
//! * **Exactly-once responses**: every admitted query yields one response —
//!   no losses, no duplicates — under seeded panic/Unknown storms, per-query
//!   cancellation, and engine shutdown with a populated queue.
//! * **Soundness under faults**: any `Sat`/`Unsat` verdict that survives the
//!   chaos matches the query's ground truth (constructed equivalent vs.
//!   bug-injected LEC pairs), and SAT witnesses replay on the original
//!   circuits. Faults degrade answers to `Unknown`/`Failed`, never corrupt
//!   them.
//! * **Schedule independence**: fault rolls are pure functions of
//!   `(attempt, query id)`, so a fixed chaos seed produces bit-identical
//!   verdicts (witnesses included) at any worker count.
//! * **Cache integrity**: cache-hit verdicts are bit-identical to fresh
//!   solves; a corrupted UNSAT certificate is rejected by the checker,
//!   evicted, and the query falls through to a live solve whose certificate
//!   then re-verifies on first reuse.

use proptest::prelude::*;
use serve::{Engine, EngineConfig, Query, QueryOpts, Verdict};
use std::collections::HashMap;
use std::time::Duration;
use sweep::ChaosPlan;
use workloads::lec::{inject_bug, restructure};
use workloads::random_aig::{random_aig, RandomAigParams};

fn small_aig(seed: u64, n_gates: usize) -> aig::Aig {
    random_aig(
        &RandomAigParams {
            n_pis: 6,
            n_gates,
            n_pos: 2,
            ..RandomAigParams::default()
        },
        seed,
    )
}

/// One LEC query with constructed ground truth (`true` = expect SAT, i.e.
/// the sides genuinely differ).
struct GroundTruth {
    a: aig::Aig,
    b: aig::Aig,
    expect_sat: bool,
}

impl GroundTruth {
    fn query(&self) -> Query {
        Query::Lec(self.a.clone(), self.b.clone())
    }

    /// The verdict is only *wrong* if it contradicts construction; chaos
    /// may legitimately degrade it to Unknown/Failed.
    fn check(&self, verdict: &Verdict) -> Result<(), String> {
        match verdict {
            Verdict::Sat(w) => {
                if !self.expect_sat {
                    return Err("SAT verdict for an equivalent pair".into());
                }
                if self.a.eval(w) == self.b.eval(w) {
                    return Err("witness does not distinguish the circuits".into());
                }
                Ok(())
            }
            Verdict::Unsat => {
                if self.expect_sat {
                    return Err("UNSAT verdict for a bug-injected pair".into());
                }
                Ok(())
            }
            Verdict::Unknown(_) | Verdict::Failed => Ok(()),
        }
    }
}

/// A deterministic stream of near-duplicate LEC queries: equivalent
/// (restructured) pairs expecting UNSAT interleaved with bug-injected pairs
/// expecting SAT.
fn query_stream(seed: u64, n: usize) -> Vec<GroundTruth> {
    (0..n)
        .map(|i| {
            let g = small_aig(seed ^ (0x51ab_ed00 + i as u64), 40);
            if i % 2 == 0 {
                GroundTruth {
                    b: restructure(&g, seed ^ (i as u64) << 8),
                    a: g,
                    expect_sat: false,
                }
            } else {
                match inject_bug(&g, seed ^ (i as u64) << 16, 16) {
                    Some(bad) => GroundTruth {
                        b: bad,
                        a: g,
                        expect_sat: true,
                    },
                    None => GroundTruth {
                        b: restructure(&g, seed ^ (i as u64) << 8),
                        a: g,
                        expect_sat: false,
                    },
                }
            }
        })
        .collect()
}

fn chaotic_config(workers: usize, seed: u64, unknown: u16, panic: u16) -> EngineConfig {
    EngineConfig {
        workers,
        max_attempts: 2,
        panic_retries: 1,
        chaos: Some(ChaosPlan {
            seed,
            unknown_in_1024: unknown,
            panic_in_1024: panic,
            ..ChaosPlan::default()
        }),
        ..EngineConfig::default()
    }
}

/// Runs a stream to completion and returns `id -> response`.
fn collect(engine: &Engine, stream: &[GroundTruth]) -> HashMap<u64, serve::Response> {
    let ids: Vec<u64> = stream
        .iter()
        .map(|gt| {
            engine
                .submit(&gt.query(), QueryOpts::default())
                .expect("submit")
                .id
        })
        .collect();
    let mut responses = HashMap::new();
    for _ in 0..ids.len() {
        let r = engine
            .recv_timeout(Duration::from_secs(30))
            .expect("engine must answer every query");
        assert!(
            responses.insert(r.id, r).is_none(),
            "duplicate response for one query id"
        );
    }
    assert_eq!(
        responses.len(),
        ids.len(),
        "exactly one response per submitted query"
    );
    for id in ids {
        assert!(responses.contains_key(&id), "query {id} lost its response");
    }
    responses
}

proptest! {
    /// (a) Under a seeded panic/Unknown storm with a third of the queries
    /// cancelled mid-queue, every submitted query still gets exactly one
    /// response, and every decisive verdict matches ground truth.
    #[test]
    fn exactly_one_response_under_panic_storm_and_cancellation(
        seed in 0u64..5_000,
        unknown in 0u16..400,
        panic in 0u16..400,
    ) {
        let stream = query_stream(seed, 8);
        let engine = Engine::new(chaotic_config(3, seed, unknown, panic));
        let tickets: Vec<_> = stream
            .iter()
            .map(|gt| engine.submit(&gt.query(), QueryOpts::default()).expect("submit"))
            .collect();
        for t in tickets.iter().step_by(3) {
            t.cancel();
        }
        let mut responses = HashMap::new();
        for _ in 0..tickets.len() {
            let r = engine
                .recv_timeout(Duration::from_secs(30))
                .expect("engine must answer every query");
            prop_assert!(
                responses.insert(r.id, r).is_none(),
                "duplicate response for one query id"
            );
        }
        for (t, gt) in tickets.iter().zip(&stream) {
            let checked = gt.check(&responses[&t.id].verdict);
            prop_assert!(checked.is_ok(), "query {}: {:?}", t.id, checked);
        }
        // Nothing extra ever arrives.
        prop_assert!(engine.recv_timeout(Duration::from_millis(20)).is_none());
        let stats = engine.stats();
        prop_assert_eq!(stats.submitted, stream.len() as u64);
        prop_assert_eq!(stats.responded, stream.len() as u64);
        engine.shutdown();
    }

    /// Shutdown with a populated queue: the draining answers every pending
    /// query (as `Unknown(Cancelled)` or better), exactly once.
    #[test]
    fn shutdown_mid_queue_loses_nothing(seed in 0u64..5_000, panic in 0u16..600) {
        let stream = query_stream(seed, 6);
        let engine = Engine::new(chaotic_config(1, seed, 0, panic));
        let ids: Vec<u64> = stream
            .iter()
            .map(|gt| engine.submit(&gt.query(), QueryOpts::default()).expect("submit").id)
            .collect();
        engine.shutdown();
        let mut got = Vec::new();
        for _ in 0..ids.len() {
            let r = engine
                .recv_timeout(Duration::from_secs(30))
                .expect("drained queries must still be answered");
            got.push(r.id);
        }
        got.sort_unstable();
        prop_assert_eq!(got, ids, "every query answered exactly once across shutdown");
        prop_assert!(engine.recv_timeout(Duration::from_millis(20)).is_none());
    }

    /// (determinism) A fixed chaos seed yields bit-identical verdicts —
    /// witnesses and attempt counts included — at 1 and 4 workers: fault
    /// rolls are functions of (attempt, query id), never of the schedule.
    #[test]
    fn chaos_verdicts_are_worker_count_invariant(
        seed in 0u64..5_000,
        unknown in 0u16..400,
        panic in 0u16..400,
    ) {
        let stream = query_stream(seed, 6);
        let at1 = collect(&Engine::new(chaotic_config(1, seed, unknown, panic)), &stream);
        let at4 = collect(&Engine::new(chaotic_config(4, seed, unknown, panic)), &stream);
        prop_assert_eq!(at1.len(), at4.len());
        for (id, r1) in &at1 {
            let r4 = &at4[id];
            prop_assert_eq!(&r1.verdict, &r4.verdict, "verdict diverged for query {}", id);
            prop_assert_eq!(r1.attempts, r4.attempts, "attempts diverged for query {}", id);
        }
    }

    /// (b) Cache-hit verdicts are bit-identical to fresh-solve verdicts:
    /// the same query through a shared-cache engine (second submission is
    /// a guaranteed hit at one worker) and through a cold engine agree
    /// exactly, witness bits included.
    #[test]
    fn cache_hit_is_bit_identical_to_fresh_solve(seed in 0u64..5_000) {
        let stream = query_stream(seed, 2); // one UNSAT pair, one SAT pair
        for gt in &stream {
            let warm = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
            let rs = warm.run_batch(&[
                (gt.query(), QueryOpts::default()),
                (gt.query(), QueryOpts::default()),
            ]);
            prop_assert!(rs[1].cache_hit, "identical cone must hit at one worker");
            prop_assert!(!rs[0].cache_hit);
            prop_assert_eq!(&rs[0].verdict, &rs[1].verdict, "hit diverged from its own miss");
            let cold = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
            let fresh = cold.run_batch(&[(gt.query(), QueryOpts::default())]);
            prop_assert_eq!(&fresh[0].verdict, &rs[1].verdict, "hit diverged from fresh solve");
            prop_assert!(gt.check(&fresh[0].verdict).is_ok());
        }
    }

    /// (c) A corrupted cached certificate is rejected and evicted, the
    /// query falls through to a live solve with the right verdict, and the
    /// replacement certificate verifies on its first reuse.
    #[test]
    fn corrupted_certificate_falls_through_to_live_solve(seed in 0u64..5_000) {
        // Pigeonhole: UNSAT, and never refutable by unit propagation alone,
        // so an unsupported empty-clause "certificate" is guaranteed to be
        // rejected rather than accidentally RUP.
        let holes = 2 + (seed % 3) as u32;
        let q = Query::Solve(workloads::cnf_gen::pigeonhole_aig(holes));
        let engine = Engine::new(EngineConfig { workers: 1, ..EngineConfig::default() });
        // Corrupt cache entry: an empty-clause claim with no support.
        let mut bogus = checker::Proof::default();
        bogus.add(vec![]);
        engine.seed_cache_unsat(&q, bogus).expect("well-formed query");
        let rs = engine.run_batch(&[
            (q.clone(), QueryOpts::default()),
            (q, QueryOpts::default()),
        ]);
        prop_assert!(rs[0].verdict.is_unsat(), "live solve must still prove UNSAT");
        prop_assert!(!rs[0].cache_hit, "a rejected certificate is not a hit");
        prop_assert!(rs[1].verdict.is_unsat());
        prop_assert!(rs[1].cache_hit, "replacement entry serves the repeat");
        let stats = engine.stats();
        prop_assert_eq!(stats.cache.certs_rejected, 1);
        prop_assert_eq!(
            stats.cache.certs_verified, 1,
            "replacement certificate re-verified before first reuse"
        );
    }
}

/// Non-proptest sanity: a fault-free run decides every query and reports
/// zero sheds, failures, panics, and retries.
#[test]
fn clean_run_has_zero_sheds_and_failures() {
    let stream = query_stream(7, 6);
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let responses = collect(&engine, &stream);
    for (_, r) in responses {
        assert!(r.verdict.is_sat() || r.verdict.is_unsat());
    }
    let stats = engine.stats();
    assert_eq!(stats.sheds, 0);
    assert_eq!(stats.failures, 0);
    assert_eq!(stats.panics_contained, 0);
    assert_eq!(stats.retries, 0);
}
