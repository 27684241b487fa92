//! Structural validation of drained event streams.
//!
//! Used by the test suites (well-formedness under chaos plans, and the
//! traces `csat` writes, read back with
//! [`export::from_jsonl`](crate::export::from_jsonl)) and by the
//! benchmarks' span-tree readers: a valid stream has unique sequence
//! numbers, balanced enter/exit pairs, children strictly nested inside
//! their parents (by sequence number), instant events inside their
//! span's window, and per-thread non-decreasing timestamps.

use crate::span::{Event, EventKind, SpanId};
use std::collections::BTreeMap;

/// Per-span bookkeeping gathered in one pass.
#[derive(Default)]
struct SpanWindow {
    name: &'static str,
    parent: SpanId,
    enter_seq: Option<u64>,
    exit_seq: Option<u64>,
}

/// Validates a drained event stream (any order; events are sorted by
/// `seq` internally). Returns the first violation as a human-readable
/// message.
pub fn validate(events: &[Event]) -> Result<(), String> {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.seq);
    for pair in sorted.windows(2) {
        if pair[0].seq == pair[1].seq {
            return Err(format!("duplicate seq {}", pair[0].seq));
        }
    }

    let mut spans: BTreeMap<SpanId, SpanWindow> = BTreeMap::new();
    let mut thread_ts: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &sorted {
        let last = thread_ts.entry(e.thread).or_insert(0);
        if e.ts_ns < *last {
            return Err(format!(
                "thread {} timestamp went backwards at seq {} ({} < {})",
                e.thread, e.seq, e.ts_ns, last
            ));
        }
        *last = e.ts_ns;

        match e.kind {
            EventKind::Enter => {
                let w = spans.entry(e.span).or_default();
                if w.enter_seq.is_some() {
                    return Err(format!("span {} ({}) entered twice", e.span, e.name));
                }
                w.name = e.name;
                w.parent = e.parent;
                w.enter_seq = Some(e.seq);
            }
            EventKind::Exit => {
                let w = spans.entry(e.span).or_default();
                if w.enter_seq.is_none() {
                    return Err(format!("span {} ({}) exited before enter", e.span, e.name));
                }
                if w.exit_seq.is_some() {
                    return Err(format!("span {} ({}) exited twice", e.span, e.name));
                }
                w.exit_seq = Some(e.seq);
            }
            EventKind::Instant => {
                let Some(w) = spans.get(&e.span) else {
                    return Err(format!(
                        "instant '{}' at seq {} targets unknown span {}",
                        e.name, e.seq, e.span
                    ));
                };
                let enter = w.enter_seq.expect("known span always has enter");
                if e.seq < enter {
                    return Err(format!(
                        "instant '{}' (seq {}) precedes its span's enter (seq {enter})",
                        e.name, e.seq
                    ));
                }
                if let Some(exit) = w.exit_seq {
                    if e.seq > exit {
                        return Err(format!(
                            "instant '{}' (seq {}) follows its span's exit (seq {exit})",
                            e.name, e.seq
                        ));
                    }
                }
            }
        }
    }

    for (id, w) in &spans {
        let enter = w
            .enter_seq
            .ok_or_else(|| format!("span {id} has exit but no enter"))?;
        let exit = w
            .exit_seq
            .ok_or_else(|| format!("span {id} ({}) never exited", w.name))?;
        if exit <= enter {
            return Err(format!("span {id} ({}) exit seq <= enter seq", w.name));
        }
        if w.parent != 0 {
            let Some(p) = spans.get(&w.parent) else {
                return Err(format!(
                    "span {id} ({}) has unknown parent {}",
                    w.name, w.parent
                ));
            };
            let p_enter = p.enter_seq.expect("validated above or later");
            if enter <= p_enter {
                return Err(format!(
                    "span {id} ({}) entered before its parent {}",
                    w.name, w.parent
                ));
            }
            if let Some(p_exit) = p.exit_seq {
                if exit >= p_exit {
                    return Err(format!(
                        "span {id} ({}) exited after its parent {}",
                        w.name, w.parent
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Sums a named `u64` field over the Exit events of spans with `name`.
/// Used by the conflict-sum acceptance check (per-query `conflicts`
/// recorded on serve/solve spans must total the solver counter).
pub fn sum_field(events: &[Event], span_name: &str, field: &str) -> u64 {
    use crate::span::FieldValue;
    events
        .iter()
        .filter(|e| e.kind == EventKind::Exit && e.name == span_name)
        .flat_map(|e| e.fields.iter())
        .filter(|(k, _)| *k == field)
        .map(|(_, v)| match v {
            FieldValue::U64(n) => *n,
            FieldValue::Str(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn rejects_unbalanced_and_misnested_streams() {
        let reg = Registry::tracing();
        let root = reg.span("root");
        let child = root.child("child");
        drop(child);
        drop(root);
        let mut events = reg.drain_events();
        assert!(validate(&events).is_ok());

        // Drop the child's exit: unbalanced.
        let removed = events.remove(2);
        assert_eq!(removed.kind, EventKind::Exit);
        let err = validate(&events).unwrap_err();
        assert!(err.contains("never exited"), "{err}");
    }

    #[test]
    fn rejects_child_escaping_parent() {
        let reg = Registry::tracing();
        let root = reg.span("root");
        let child = root.child("child");
        drop(root);
        drop(child); // exits after parent: misnested
        let events = reg.drain_events();
        let err = validate(&events).unwrap_err();
        assert!(err.contains("exited after its parent"), "{err}");
    }

    #[test]
    fn sums_exit_fields_by_span_name() {
        let reg = Registry::tracing();
        for n in [3u64, 5, 7] {
            let sp = reg.span("serve.solve");
            sp.record("conflicts", n);
        }
        let other = reg.span("sat.solve");
        other.record("conflicts", 100u64);
        drop(other);
        let events = reg.drain_events();
        assert_eq!(sum_field(&events, "serve.solve", "conflicts"), 15);
        assert_eq!(sum_field(&events, "sat.solve", "conflicts"), 100);
    }
}
