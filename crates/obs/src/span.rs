//! Hierarchical spans and the per-thread event rings behind them.
//!
//! A [`Span`] is an RAII guard: creation emits an `Enter` event, drop
//! emits `Exit` carrying any fields [`Span::record`]ed in between.
//! Parenting is explicit — [`Span::child`]/[`SpanHandle::child`] — never
//! inferred from thread-local state, so a span tree can hop threads (a
//! serve query enters on the submitter and solves on a worker) and still
//! reconstruct exactly.
//!
//! Events land in the emitting thread's own ring buffer (registered on
//! first use, drained by [`Registry::drain_events`](crate::Registry));
//! a full ring drops the newest event and counts the loss rather than
//! blocking or reallocating.

use crate::Inner;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Span identifier; unique per registry, `0` means "no parent" / root.
pub type SpanId = u64;

/// What an [`Event`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Enter,
    /// A span closed (fields = everything recorded on it).
    Exit,
    /// A point-in-time marker inside a span (restart, GC, cache probe...).
    Instant,
}

impl EventKind {
    /// Stable lowercase name used in trace files.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Instant => "instant",
        }
    }
}

/// A structured field value; static strings and integers only, so field
/// emission never allocates per value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Static string (verdict names, result kinds, ...).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One buffered trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the registry's epoch (monotonic clock).
    pub ts_ns: u64,
    /// Global sequence number; total order respecting happens-before.
    pub seq: u64,
    /// Enter / exit / instant.
    pub kind: EventKind,
    /// Span (or marker) name.
    pub name: &'static str,
    /// Id of the span this event belongs to.
    pub span: SpanId,
    /// Parent span id (`0` for roots); only meaningful on `Enter`.
    pub parent: SpanId,
    /// Index of the emitting thread's sink (dense, assigned on first use).
    pub thread: u64,
    /// Structured `key=value` payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// One thread's ring buffer.
pub(crate) struct SinkEntry {
    tid: ThreadId,
    index: u64,
    buf: Arc<Mutex<VecDeque<Event>>>,
}

impl SinkEntry {
    pub(crate) fn drain(&self) -> Vec<Event> {
        self.buf
            .lock()
            .expect("obs ring mutex poisoned")
            .drain(..)
            .collect()
    }
}

/// Emits one event into the current thread's ring.
fn emit(
    inner: &Arc<Inner>,
    kind: EventKind,
    name: &'static str,
    span: SpanId,
    parent: SpanId,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if !inner.events {
        return;
    }
    let ts_ns = inner.start.elapsed().as_nanos() as u64;
    let tid = std::thread::current().id();
    let (index, buf) = {
        let mut sinks = crate::lock_sinks(inner);
        match sinks.iter().find(|e| e.tid == tid) {
            Some(e) => (e.index, Arc::clone(&e.buf)),
            None => {
                let index = sinks.len() as u64;
                let buf = Arc::new(Mutex::new(VecDeque::new()));
                sinks.push(SinkEntry {
                    tid,
                    index,
                    buf: Arc::clone(&buf),
                });
                (index, buf)
            }
        }
    };
    let mut buf = buf.lock().expect("obs ring mutex poisoned");
    if buf.len() >= inner.ring_capacity {
        // Drop-newest: keeping the oldest events preserves every open
        // span's Enter, so a truncated trace still has a consistent tree.
        inner.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // The sequence number is taken while holding the ring lock, after the
    // timestamp: per thread both are monotone, and cross-thread the
    // counter's modification order makes `seq` a total order that
    // respects happens-before.
    let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
    buf.push_back(Event {
        ts_ns,
        seq,
        kind,
        name,
        span,
        parent,
        thread: index,
        fields,
    });
}

pub(crate) fn open(
    inner: Option<Arc<Inner>>,
    parent: SpanId,
    name: &'static str,
    fields: &[(&'static str, FieldValue)],
) -> Span {
    match inner {
        Some(inner) if inner.events => {
            let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
            emit(&inner, EventKind::Enter, name, id, parent, fields.to_vec());
            Span {
                inner: Some(inner),
                body: Some(SpanBody {
                    id,
                    name,
                    recorded: Mutex::new(Vec::new()),
                }),
            }
        }
        // Disabled or metrics-only: no id and no events, but a metrics-only
        // span keeps its registry so `handle()` still reaches the metrics.
        inner => Span { inner, body: None },
    }
}

struct SpanBody {
    id: SpanId,
    name: &'static str,
    /// Fields accumulated via [`Span::record`], attached to the Exit
    /// event. A `Mutex` (not `RefCell`) so `Span` stays `Sync` — solvers
    /// holding an active span are captured by reference in `Sync` shard
    /// closures. Uncontended by construction and locked only on the cold
    /// record/exit path.
    recorded: Mutex<Vec<(&'static str, FieldValue)>>,
}

/// RAII span guard: `Enter` on creation, `Exit` (with recorded fields) on
/// drop. A span from a disabled registry is an inert zero-allocation
/// shell; one from a metrics-only registry emits nothing either, but its
/// [`Span::handle`] still reaches the registry's metrics.
pub struct Span {
    /// The registry; `None` only when it is disabled.
    inner: Option<Arc<Inner>>,
    /// Id and recorded fields, present iff the registry records events.
    body: Option<SpanBody>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.body {
            Some(b) => write!(f, "Span({} #{})", b.name, b.id),
            None => write!(f, "Span(disabled)"),
        }
    }
}

impl Span {
    /// This span's id (`0` when disabled).
    pub fn id(&self) -> SpanId {
        self.body.as_ref().map_or(0, |b| b.id)
    }

    /// True when the span actually emits events.
    pub fn enabled(&self) -> bool {
        self.body.is_some()
    }

    /// Opens a child span.
    pub fn child(&self, name: &'static str) -> Span {
        self.child_with(name, &[])
    }

    /// Opens a child span with enter-event fields.
    pub fn child_with(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) -> Span {
        open(self.inner.clone(), self.id(), name, fields)
    }

    /// Emits an instant event inside this span.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        if let (Some(inner), Some(b)) = (&self.inner, &self.body) {
            emit(inner, EventKind::Instant, name, b.id, b.id, fields.to_vec());
        }
    }

    /// Attaches a field to this span's eventual Exit event. Interior
    /// mutability (`&self`) so late results can be recorded through
    /// shared references (e.g. a response writer holding `&Job`).
    pub fn record(&self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(b) = &self.body {
            b.recorded
                .lock()
                .expect("obs record mutex poisoned")
                .push((key, value.into()));
        }
    }

    /// A cloneable, lifetime-free reference to this span for parenting
    /// work on other components/threads (outliving it is allowed but the
    /// children would no longer nest — re-parent per round/frame instead).
    pub fn handle(&self) -> SpanHandle {
        SpanHandle::new(self.inner.clone(), self.id())
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(inner), Some(b)) = (&self.inner, self.body.take()) {
            let fields = b.recorded.into_inner().unwrap_or_default();
            emit(inner, EventKind::Exit, b.name, b.id, 0, fields);
        }
    }
}

/// Cloneable span reference: lets an instrumented component (a solver, a
/// shard worker) hang its own spans under a caller's span without
/// borrowing it. [`Registry::root`](crate::Registry::root) provides the
/// top-level handle.
#[derive(Clone)]
pub struct SpanHandle {
    inner: Option<Arc<Inner>>,
    id: SpanId,
}

impl std::fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpanHandle(#{}, enabled={})", self.id, self.enabled())
    }
}

impl SpanHandle {
    pub(crate) fn new(inner: Option<Arc<Inner>>, id: SpanId) -> SpanHandle {
        SpanHandle { inner, id }
    }

    /// True when the underlying registry records events.
    pub fn enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.events)
    }

    /// The registry this handle belongs to (disabled handle → disabled
    /// registry), for registering metrics next to the spans.
    pub fn registry(&self) -> crate::Registry {
        crate::Registry {
            inner: self.inner.clone(),
        }
    }

    /// Opens a child span under the referenced span.
    pub fn child(&self, name: &'static str) -> Span {
        self.child_with(name, &[])
    }

    /// Opens a child span with enter-event fields.
    pub fn child_with(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) -> Span {
        open(self.inner.clone(), self.id, name, fields)
    }

    /// Emits an instant event attached to the referenced span.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        if let Some(inner) = &self.inner {
            emit(
                inner,
                EventKind::Instant,
                name,
                self.id,
                self.id,
                fields.to_vec(),
            );
        }
    }
}
