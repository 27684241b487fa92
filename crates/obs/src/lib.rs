//! Unified tracing + metrics layer for the whole stack.
//!
//! The paper's central premise is that *solver-internal* quantities
//! (branching counts, conflicts) are the signal everything else optimises
//! against — yet totals-at-exit structs cannot show **when** or **where**
//! those quantities accrue. This crate supplies the missing timeline:
//!
//! * **Metrics** — lock-free [`Counter`]s, [`Gauge`]s and log2-bucketed
//!   [`Histogram`]s registered by name in a [`Registry`]. Updates are one
//!   relaxed atomic op; registration (the only locking path) happens at
//!   setup time. [`Registry::snapshot`] renders them as a summary table or
//!   a Prometheus text-format exposition.
//! * **Spans** — hierarchical [`Span`]s with monotonic timestamps,
//!   explicit parent links and structured `key=value` fields. Enter/exit
//!   (and instant) events land in per-thread ring buffers and drain to
//!   JSONL or a Chrome `trace_event` file (see [`export`]).
//!
//! ## Cost model
//!
//! Everything hangs off an `Option<Arc<..>>`: a **disabled** registry
//! (the production default, [`Registry::disabled`]) makes every handle a
//! `None`, so the instrumented hot paths pay exactly one branch and zero
//! allocations — the same pattern as the solver's `Option<Box<ProofLog>>`
//! proof sink. `metrics_only` enables the atomics; its spans emit nothing,
//! but their handles still reach the registry, so a component parented
//! to a span still counts. `tracing` turns on event buffering too.
//!
//! ## Ordering contract
//!
//! Every event carries a global sequence number from one atomic and a
//! nanosecond timestamp from the registry's monotonic epoch. Sequence
//! numbers respect happens-before: if span A's enter is ordered (by any
//! synchronisation, e.g. a queue handoff) before span B's enter, A's
//! sequence number is smaller. Per-thread, timestamps are non-decreasing
//! in sequence order. [`check::validate`] audits both plus enter/exit
//! balance and parent/child nesting — the well-formedness property the
//! integration tests drive under chaos plans.

#![forbid(unsafe_code)]

pub mod check;
pub mod export;
pub mod json;
mod metrics;
mod span;

pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, Snapshot};
pub use span::{Event, EventKind, FieldValue, Span, SpanHandle, SpanId};

use metrics::HistCore;
use span::SinkEntry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-thread event-ring capacity (events, not bytes).
const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// Named metric stores; locked only at registration/snapshot time.
#[derive(Default)]
pub(crate) struct MetricsMap {
    pub(crate) counters: BTreeMap<String, Arc<AtomicU64>>,
    pub(crate) gauges: BTreeMap<String, Arc<AtomicU64>>,
    pub(crate) hists: BTreeMap<String, Arc<HistCore>>,
}

/// Shared state behind an enabled [`Registry`].
pub(crate) struct Inner {
    /// Monotonic epoch all event timestamps are measured from.
    pub(crate) start: Instant,
    /// Whether span/event buffering is on (`tracing`) or only metrics.
    pub(crate) events: bool,
    /// Per-thread ring capacity; overflow drops the newest event.
    pub(crate) ring_capacity: usize,
    /// Global event sequence; total order respecting happens-before.
    pub(crate) seq: AtomicU64,
    /// Span-id allocator; 0 is reserved for "no parent" (root).
    pub(crate) next_span: AtomicU64,
    /// Events dropped to ring overflow.
    pub(crate) dropped: AtomicU64,
    pub(crate) metrics: Mutex<MetricsMap>,
    /// One ring buffer per thread that ever emitted an event.
    pub(crate) sinks: Mutex<Vec<SinkEntry>>,
}

/// Handle to a tracing/metrics domain. Cloning shares the same store;
/// the default ([`Registry::disabled`]) is a no-op on every path.
#[derive(Clone, Default)]
pub struct Registry {
    pub(crate) inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("tracing", &self.tracing_enabled())
            .finish()
    }
}

impl Registry {
    /// The no-op registry: every handle is `None`, every probe one branch.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Metrics (counters/gauges/histograms) live; spans and events off.
    pub fn metrics_only() -> Registry {
        Registry::build(false, DEFAULT_RING_CAPACITY)
    }

    /// Everything on: metrics plus span/event buffering.
    pub fn tracing() -> Registry {
        Registry::build(true, DEFAULT_RING_CAPACITY)
    }

    /// Tracing registry with an explicit per-thread ring capacity
    /// (events; overflow drops the newest and counts it).
    pub fn tracing_with_capacity(ring_capacity: usize) -> Registry {
        Registry::build(true, ring_capacity.max(1))
    }

    fn build(events: bool, ring_capacity: usize) -> Registry {
        Registry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                events,
                ring_capacity,
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
                metrics: Mutex::new(MetricsMap::default()),
                sinks: Mutex::new(Vec::new()),
            })),
        }
    }

    /// True unless this is the disabled registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when span/event buffering is on (not just metrics).
    pub fn tracing_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.events)
    }

    /// Registers (or retrieves) a counter. Disabled registry → no-op handle.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            let mut m = lock_metrics(inner);
            Arc::clone(m.counters.entry(name.to_string()).or_default())
        }))
    }

    /// Registers (or retrieves) a gauge. Disabled registry → no-op handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            let mut m = lock_metrics(inner);
            Arc::clone(m.gauges.entry(name.to_string()).or_default())
        }))
    }

    /// Registers (or retrieves) a log2-bucketed histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            let mut m = lock_metrics(inner);
            Arc::clone(m.hists.entry(name.to_string()).or_default())
        }))
    }

    /// Convenience for one-shot publication: `gauge(name).set(value)`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.gauge(name).set(value);
        }
    }

    /// Opens a root span (no parent). The span closes on drop.
    pub fn span(&self, name: &'static str) -> Span {
        span::open(self.inner.clone(), 0, name, &[])
    }

    /// Opens a root span with fields attached to its enter event.
    pub fn span_with(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) -> Span {
        span::open(self.inner.clone(), 0, name, fields)
    }

    /// A parent handle denoting "root" — children of it are root spans.
    /// Lets instrumented components take one uniform `SpanHandle` knob.
    pub fn root(&self) -> SpanHandle {
        SpanHandle::new(self.inner.clone(), 0)
    }

    /// Drains every thread's ring buffer; events come back sorted by
    /// sequence number (the global order). Buffers are left empty.
    pub fn drain_events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<Event> = Vec::new();
        for entry in lock_sinks(inner).iter() {
            out.extend(entry.drain());
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events lost to ring-buffer overflow so far.
    pub fn dropped_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let m = lock_metrics(inner);
        Snapshot {
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: m
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            hists: m.hists.iter().map(|(k, v)| (k.clone(), v.snap())).collect(),
        }
    }
}

pub(crate) fn lock_metrics(inner: &Inner) -> std::sync::MutexGuard<'_, MetricsMap> {
    inner.metrics.lock().expect("obs metrics mutex poisoned")
}

pub(crate) fn lock_sinks(inner: &Inner) -> std::sync::MutexGuard<'_, Vec<SinkEntry>> {
    inner.sinks.lock().expect("obs sink mutex poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        let c = reg.counter("x");
        c.add(5);
        reg.histogram("h").observe(9);
        let s = reg.span("root");
        s.record("k", 1u64);
        drop(s);
        assert!(!reg.is_enabled());
        assert!(reg.drain_events().is_empty());
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.hists.is_empty());
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = Registry::metrics_only();
        let c = reg.counter("sat.conflicts");
        c.add(3);
        c.inc();
        reg.counter("sat.conflicts").add(6); // same underlying cell
        reg.set_gauge("sweep.rounds", 4);
        let snap = reg.snapshot();
        assert_eq!(snap.value("sat.conflicts"), Some(10));
        assert_eq!(snap.value("sweep.rounds"), Some(4));
        assert_eq!(snap.value("missing"), None);
    }

    #[test]
    fn metrics_only_span_handles_keep_the_registry() {
        let reg = Registry::metrics_only();
        let span = reg.span("outer").child("inner");
        assert!(!span.enabled());
        span.handle().registry().counter("n").inc();
        assert_eq!(reg.snapshot().value("n"), Some(1));
        assert!(reg.drain_events().is_empty());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = Registry::metrics_only();
        let h = reg.histogram("lat");
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").expect("registered");
        assert_eq!(hs.count, 8);
        assert_eq!(hs.sum, 1025);
        // Bucket upper bounds are 2^i - 1: 0, 1, 3, 7, 15, ...
        let cum = |le: u64| {
            hs.buckets
                .iter()
                .filter(|&&(b, _)| b <= le)
                .map(|&(_, n)| n)
                .sum::<u64>()
        };
        assert_eq!(cum(0), 1); // just 0
        assert_eq!(cum(1), 2); // 0, 1
        assert_eq!(cum(3), 4); // + 2, 3
        assert_eq!(cum(7), 6); // + 4, 7
        assert_eq!(cum(15), 7); // + 8
        assert_eq!(cum(1023), 8); // + 1000
    }

    #[test]
    fn spans_nest_and_validate() {
        let reg = Registry::tracing();
        {
            let root = reg.span_with("outer", &[("id", 7u64.into())]);
            {
                let child = root.child("inner");
                child.event("tick", &[("n", 1u64.into())]);
                child.record("result", "ok");
            }
            root.record("total", 2u64);
        }
        let events = reg.drain_events();
        check::validate(&events).expect("well-formed");
        assert_eq!(events.len(), 5); // enter x2, instant, exit x2
        assert!(reg.drain_events().is_empty(), "drain empties the rings");
    }

    #[test]
    fn cross_thread_spans_keep_order() {
        let reg = Registry::tracing();
        let root = reg.span("root");
        let handle = root.handle();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let h = handle.clone();
                s.spawn(move || {
                    let sp = h.child("worker");
                    sp.record("i", i);
                });
            }
        });
        drop(root);
        let events = reg.drain_events();
        check::validate(&events).expect("well-formed across threads");
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == EventKind::Enter && e.name == "worker")
                .count(),
            4
        );
    }

    #[test]
    fn ring_overflow_drops_newest_and_counts() {
        let reg = Registry::tracing_with_capacity(4);
        let root = reg.span("r");
        for _ in 0..100 {
            root.event("e", &[]);
        }
        drop(root);
        assert!(reg.dropped_events() > 0);
        assert!(reg.drain_events().len() <= 4);
    }
}
