//! # `serve` — solver-as-a-service: a fault-tolerant concurrent query engine
//!
//! The workspace's batch pipelines (`csat`, `sweep`, `mc`) each drive one
//! solver to completion. This crate turns the same machinery into a
//! *service*: a bounded-queue worker pool that accepts a stream of
//! heterogeneous queries — plain circuit-SAT, LEC, BMC — and answers each
//! one exactly once, under overload, deadlines, cancellation, and even
//! worker panics.
//!
//! The design leans on three workspace primitives:
//!
//! - [`sat::Solver`] per attempt: every attempt runs on a fresh solver,
//!   so a panicking or cancelled attempt can never corrupt anyone else's
//!   state — containment by construction, the same idiom as
//!   `sweep::pool`'s sharded oracles.
//! - [`sat::Cancellation`]'s token tree: one engine-root token fans out to
//!   per-query children, so shutdown interrupts everything while a single
//!   query can still be cancelled (or retried) alone.
//! - [`checker`]'s independence: cached UNSAT verdicts carry their DRAT
//!   certificate and must pass the checker before first reuse, so the
//!   cache can be warm-loaded (or corrupted) without ever compromising
//!   soundness — a bad certificate degrades to a live solve.
//!
//! Queries are normalized (LEC → miter, BMC → unrolling, then
//! [`aig::Aig::normalized_cone`]) and memoized by structural hash, so
//! repeated and dangling-logic-differing queries hit the cache; a hit
//! additionally requires exact structural identity, making 64-bit hash
//! collisions harmless. Fault injection reuses [`sweep::ChaosPlan`] keyed
//! by (attempt, query id): deterministic for a fixed seed at any worker
//! count.
//!
//! ```
//! use serve::{Engine, EngineConfig, Query, QueryOpts};
//!
//! let mut g = aig::Aig::new();
//! let a = g.add_pi();
//! let b = g.add_pi();
//! let x = g.and(a, b);
//! g.add_po(x);
//!
//! let engine = Engine::new(EngineConfig {
//!     workers: 1, // one worker: the repeat is guaranteed to hit the cache
//!     ..EngineConfig::default()
//! });
//! let responses = engine.run_batch(&[
//!     (Query::Solve(g.clone()), QueryOpts::default()),
//!     (Query::Solve(g), QueryOpts::default()), // same cone: cache hit
//! ]);
//! assert!(responses.iter().all(|r| r.verdict.is_sat()));
//! assert!(responses[1].cache_hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod engine;
mod query;

pub use cache::{CacheAnswer, CacheStats, VerdictCache};
pub use engine::{
    Admission, Engine, EngineConfig, EngineStats, QueryOpts, Response, SubmitError, Ticket,
    UnknownReason, Verdict,
};
pub use query::{NormalizedQuery, Query, QueryError, QueryKind};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn small_engine(workers: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
    }

    fn xor_pair() -> (aig::Aig, aig::Aig) {
        // Two structurally different XOR implementations: equivalent.
        let mut a = aig::Aig::new();
        let (p, q) = (a.add_pi(), a.add_pi());
        let x = a.xor(p, q);
        a.add_po(x);
        let mut b = aig::Aig::new();
        let (p, q) = (b.add_pi(), b.add_pi());
        let o = b.or(p, q);
        let n = b.and(p, q);
        let x = b.and(o, !n);
        b.add_po(x);
        (a, b)
    }

    #[test]
    fn lec_of_equivalent_circuits_is_unsat_and_caches() {
        let (a, b) = xor_pair();
        // One worker so the repeated query deterministically hits the cache.
        let engine = small_engine(1);
        let q = Query::Lec(a, b);
        let rs = engine.run_batch(&[(q.clone(), QueryOpts::default()), (q, QueryOpts::default())]);
        assert!(rs.iter().all(|r| r.verdict.is_unsat()));
        assert!(rs[1].cache_hit, "identical cone must hit the cache");
        let stats = engine.stats();
        assert_eq!(stats.unsat, 2);
        assert_eq!(stats.cache.certs_verified, 1, "cert checked on first reuse");
        assert_eq!(stats.sheds + stats.failures, 0);
    }

    #[test]
    fn lec_of_different_circuits_yields_validated_witness() {
        let (a, _) = xor_pair();
        let mut b = aig::Aig::new();
        let (p, q) = (b.add_pi(), b.add_pi());
        let x = b.and(p, q); // AND, not XOR
        b.add_po(x);
        let engine = small_engine(1);
        let rs = engine.run_batch(&[(Query::Lec(a.clone(), b.clone()), QueryOpts::default())]);
        let Verdict::Sat(w) = &rs[0].verdict else {
            panic!("expected SAT, got {:?}", rs[0].verdict);
        };
        // The witness distinguishes the two circuits.
        assert_ne!(a.eval(w), b.eval(w));
    }

    #[test]
    fn deadline_already_past_sheds_without_solving() {
        let engine = small_engine(1);
        let (a, b) = xor_pair();
        let opts = QueryOpts {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        let rs = engine.run_batch(&[(Query::Lec(a, b), QueryOpts::default()), {
            let (a, b) = xor_pair();
            (Query::Lec(a, b), opts)
        }]);
        assert!(rs[0].verdict.is_unsat());
        assert_eq!(rs[1].verdict, Verdict::Unknown(UnknownReason::Shed));
        assert_eq!(engine.stats().sheds, 1);
    }

    #[test]
    fn shutdown_drains_queue_with_cancelled_responses() {
        // Zero-ish workers is impossible (resolve_threads floors at 1), so
        // park the only worker on a query while more wait in the queue.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            base_conflicts: u64::MAX,
            max_attempts: 1,
            ..EngineConfig::default()
        });
        let ph = workloads::cnf_gen::pigeonhole_aig(7); // slow UNSAT
        let mut ids = vec![
            engine
                .submit(&Query::Solve(ph), QueryOpts::default())
                .unwrap()
                .id,
        ];
        for _ in 0..3 {
            let (a, b) = xor_pair();
            ids.push(
                engine
                    .submit(&Query::Lec(a, b), QueryOpts::default())
                    .unwrap()
                    .id,
            );
        }
        engine.shutdown();
        let mut got = Vec::new();
        while let Some(r) = engine.recv_timeout(Duration::from_secs(10)) {
            got.push(r.id);
            if got.len() == ids.len() {
                break;
            }
        }
        got.sort_unstable();
        ids.sort_unstable();
        assert_eq!(got, ids, "every submitted query answered exactly once");
        assert!(engine
            .submit(
                &Query::Solve(workloads::cnf_gen::pigeonhole_aig(3)),
                QueryOpts::default()
            )
            .is_err());
    }

    #[test]
    fn per_query_cancellation_leaves_neighbors_alone() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            base_conflicts: u64::MAX,
            max_attempts: 1,
            ..EngineConfig::default()
        });
        // Occupy the worker, then cancel a queued query.
        let busy = engine
            .submit(
                &Query::Solve(workloads::cnf_gen::pigeonhole_aig(7)),
                QueryOpts::default(),
            )
            .unwrap();
        let victim = {
            let (a, b) = xor_pair();
            engine
                .submit(&Query::Lec(a, b), QueryOpts::default())
                .unwrap()
        };
        let survivor = {
            let (a, b) = xor_pair();
            let mut b2 = b;
            // Distinct cone so it cannot ride the victim's cache entry.
            let extra = b2.pos()[0];
            b2.add_po(extra);
            let mut a2 = a;
            let extra = a2.pos()[0];
            a2.add_po(extra);
            engine
                .submit(&Query::Lec(a2, b2), QueryOpts::default())
                .unwrap()
        };
        victim.cancel();
        busy.cancel();
        let mut verdicts = std::collections::HashMap::new();
        for _ in 0..3 {
            let r = engine
                .recv_timeout(Duration::from_secs(60))
                .expect("response");
            verdicts.insert(r.id, r.verdict);
        }
        assert_eq!(
            verdicts[&victim.id],
            Verdict::Unknown(UnknownReason::Cancelled)
        );
        assert_eq!(
            verdicts[&busy.id],
            Verdict::Unknown(UnknownReason::Cancelled)
        );
        assert!(verdicts[&survivor.id].is_unsat(), "survivor unaffected");
    }

    #[test]
    fn corrupted_seeded_cert_falls_through_to_live_solve() {
        let (a, b) = xor_pair();
        let q = Query::Lec(a, b);
        let engine = small_engine(1);
        let mut bogus = checker::Proof::default();
        bogus.add(vec![]); // unsupported empty clause: checker must reject
        engine.seed_cache_unsat(&q, bogus).unwrap();
        let rs = engine.run_batch(&[(q, QueryOpts::default())]);
        assert!(rs[0].verdict.is_unsat(), "live solve still proves UNSAT");
        assert!(!rs[0].cache_hit, "rejected cert is not a hit");
        assert_eq!(engine.stats().cache.certs_rejected, 1);
    }

    #[test]
    fn traced_engine_emits_balanced_query_spans() {
        let reg = obs::Registry::tracing();
        let (a, b) = xor_pair();
        let engine = Engine::new(EngineConfig {
            workers: 2,
            obs: reg.clone(),
            ..EngineConfig::default()
        });
        let rs = engine.run_batch(&[
            (Query::Lec(a, b), QueryOpts::default()),
            (
                Query::Solve(workloads::cnf_gen::pigeonhole_aig(4)),
                QueryOpts::default(),
            ),
        ]);
        assert_eq!(rs.len(), 2);
        let stats = engine.stats();
        stats.publish(&reg);
        engine.shutdown(); // workers joined: every span is closed
        let events = reg.drain_events();
        obs::check::validate(&events).expect("span stream well-formed");
        let queries = events
            .iter()
            .filter(|e| e.kind == obs::EventKind::Enter && e.name == "serve.query")
            .count();
        assert_eq!(queries, 2, "one serve.query span per submission");
        // Per-query conflict counts (summed over sat.solve exits) must
        // agree with the live counter — the "span tree sums to solver
        // totals" check at unit scale.
        let snap = reg.snapshot();
        assert_eq!(
            obs::check::sum_field(&events, "sat.solve", "conflicts"),
            snap.value("sat.conflicts").unwrap_or(0)
        );
        assert_eq!(stats.responded, 2);
        for (name, value) in stats.counters() {
            assert_eq!(snap.value(&format!("serve.stats.{name}")), Some(value));
        }
        assert!(snap.histogram("serve.queue_wait_us").is_some());
    }

    #[test]
    fn shed_admission_answers_overflow_immediately() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            queue_capacity: 1,
            admission: Admission::Shed,
            base_conflicts: u64::MAX,
            max_attempts: 1,
            ..EngineConfig::default()
        });
        // One slow query occupies the worker; the queue holds one more;
        // everything past that sheds.
        let mut tickets = Vec::new();
        for holes in [7, 6, 5, 4] {
            tickets.push(
                engine
                    .submit(
                        &Query::Solve(workloads::cnf_gen::pigeonhole_aig(holes)),
                        QueryOpts::default(),
                    )
                    .unwrap(),
            );
        }
        let mut sheds = 0;
        for _ in 0..2 {
            let r = engine
                .recv_timeout(Duration::from_secs(10))
                .expect("shed response");
            assert_eq!(r.verdict, Verdict::Unknown(UnknownReason::Shed));
            sheds += 1;
        }
        assert_eq!(sheds, 2);
        engine.shutdown();
    }

    /// Pins the retry ladder: this miter needs more than 40 and at most 80
    /// conflicts, so its first attempt runs out of a 20-conflict budget and
    /// the second, with four times the budget, decides it.
    #[test]
    fn budget_retry_escalates_and_decides() {
        use workloads::datapath::{carry_lookahead_adder, ripple_carry_adder};
        let engine = Engine::new(EngineConfig {
            workers: 1,
            base_conflicts: 20,
            ..EngineConfig::default()
        });
        let q = Query::Lec(ripple_carry_adder(6).aig, carry_lookahead_adder(6).aig);
        let rs = engine.run_batch(&[(q, QueryOpts::default())]);
        assert_eq!(rs[0].verdict, Verdict::Unsat);
        assert_eq!(rs[0].attempts, 2);
        assert_eq!(engine.stats().retries, 1);
    }
}
