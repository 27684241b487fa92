//! Cross-crate contract of the `obs` tracing layer:
//!
//! * **Well-formedness under chaos**: the span stream a traced `serve`
//!   engine emits stays balanced and properly nested — every enter has
//!   one exit, children stay inside their parents, per-thread timestamps
//!   never go backwards — even under seeded worker-panic/Unknown storms,
//!   because the `serve.query` and `serve.solve` guards close during the
//!   contained unwind.
//! * **Span/counter agreement**: per-attempt `conflicts` recorded on
//!   `sat.solve` exits sum to the live `sat.conflicts` counter, chaos or
//!   not (injected panics fire *before* the solver runs, so they never
//!   tear a solve span).
//! * **Zero-cost when off**: the disabled registry's hot-path operations
//!   (counter/gauge/histogram updates, span open/record/event/close)
//!   perform no heap allocation at all, measured with a counting global
//!   allocator.

use proptest::prelude::*;
use serve::{Engine, EngineConfig, Query, QueryOpts};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;
use sweep::ChaosPlan;
use workloads::lec::restructure;
use workloads::random_aig::{random_aig, RandomAigParams};

// ---------------------------------------------------------------------
// Counting allocator: thread-local so the measurement ignores allocation
// traffic from concurrently running tests on other harness threads.
// ---------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the only added
// behaviour is bumping a thread-local counter, which never allocates
// (const-initialised `Cell<u64>`, no destructor) and so cannot recurse.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn disabled_registry_allocates_nothing_on_hot_path() {
    let reg = obs::Registry::disabled();
    // Handles are created once at setup time, like instrumented code does.
    let counter = reg.counter("sat.conflicts");
    let gauge = reg.gauge("sat.trail");
    let hist = reg.histogram("sat.propagation_burst");
    let parent = reg.root();

    let before = allocations_so_far();
    for i in 0..10_000u64 {
        counter.inc();
        counter.add(i);
        gauge.set(i);
        hist.observe(i);
        let span = parent.child_with("sat.solve", &[("i", i.into())]);
        span.event("restart", &[("conflicts", i.into())]);
        span.record("result", "unsat");
        let inner = span.child("inner");
        drop(inner);
        drop(span);
        // Writing a gauge by name, as `EngineStats::publish` writes its
        // `serve.stats.*` gauges, must also stay free.
        reg.set_gauge("serve.stats.submitted", i);
    }
    let after = allocations_so_far();
    assert_eq!(
        after - before,
        0,
        "disabled observability must cost one branch, zero allocations"
    );
    assert!(reg.drain_events().is_empty());
    assert!(reg.snapshot().is_empty());
}

// ---------------------------------------------------------------------
// Span-tree well-formedness under fault injection.
// ---------------------------------------------------------------------

/// A deterministic mixed stream: LEC pairs (restructured, UNSAT) and
/// pigeonhole instances (UNSAT, slow enough to span multiple restarts).
fn query_stream(seed: u64, n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let g = random_aig(
                    &RandomAigParams {
                        n_pis: 6,
                        n_gates: 40,
                        n_pos: 2,
                        ..RandomAigParams::default()
                    },
                    seed ^ (0x0b5_7ace + i as u64),
                );
                Query::Lec(restructure(&g, seed ^ ((i as u64) << 8)), g)
            } else {
                Query::Solve(workloads::cnf_gen::pigeonhole_aig(3 + (i as u32 % 2)))
            }
        })
        .collect()
}

proptest! {
    /// Under a seeded panic/Unknown storm at 1–3 workers, the drained
    /// event stream validates (balanced, nested, monotone) and the
    /// per-attempt conflict fields sum to the live counter.
    #[test]
    fn span_stream_well_formed_under_panic_storm(
        seed in 0u64..5_000,
        unknown in 0u16..400,
        panic in 0u16..600,
        workers in 1usize..4,
    ) {
        let reg = obs::Registry::tracing();
        let engine = Engine::new(EngineConfig {
            workers,
            max_attempts: 2,
            panic_retries: 1,
            chaos: Some(ChaosPlan {
                seed,
                unknown_in_1024: unknown,
                panic_in_1024: panic,
                ..ChaosPlan::default()
            }),
            obs: reg.clone(),
            ..EngineConfig::default()
        });
        let stream = query_stream(seed, 6);
        let ids: Vec<u64> = stream
            .iter()
            .map(|q| engine.submit(q, QueryOpts::default()).expect("submit").id)
            .collect();
        for _ in &ids {
            engine
                .recv_timeout(Duration::from_secs(30))
                .expect("engine answers every query");
        }
        engine.stats().publish(&reg);
        engine.shutdown(); // joins the workers: every span guard dropped

        prop_assert_eq!(reg.dropped_events(), 0, "ring must not overflow here");
        let events = reg.drain_events();
        let checked = obs::check::validate(&events);
        prop_assert!(checked.is_ok(), "invalid span stream: {:?}", checked);

        // One serve.query span per admission, each closed exactly once
        // (validate() above already guarantees enter/exit balance).
        let queries = events
            .iter()
            .filter(|e| e.kind == obs::EventKind::Enter && e.name == "serve.query")
            .count();
        prop_assert_eq!(queries, ids.len(), "one query span per submission");

        // Span tree sums to solver totals, chaos notwithstanding.
        let snap = reg.snapshot();
        prop_assert_eq!(
            obs::check::sum_field(&events, "sat.solve", "conflicts"),
            snap.value("sat.conflicts").unwrap_or(0),
            "per-attempt conflict fields must total the live counter"
        );
        // The final stats publication made it into the same registry.
        prop_assert_eq!(snap.value("serve.stats.submitted"), Some(ids.len() as u64));
        prop_assert_eq!(snap.value("serve.stats.responded"), Some(ids.len() as u64));
    }
}
