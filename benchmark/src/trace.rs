//! Self times from the benchmark's own span tree.
//!
//! A span's self time is its duration minus the durations of its direct
//! children. The traced arm run opens one `arm` root span, one `case` span
//! per case under it, and one span per layer call under that; the self
//! time of `arm` and `case` spans is glue (loop and bookkeeping work that
//! belongs to no layer).

use obs::{Event, EventKind, SpanId};
use std::collections::BTreeMap;

/// Summed self seconds per span name, and the summed root-span duration.
#[derive(Clone, Debug, Default)]
pub struct SelfTimes {
    /// Self seconds by span name.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Summed duration of root spans, in seconds.
    pub root_s: f64,
}

impl SelfTimes {
    /// Self seconds of one span name (0 if it never ran).
    pub fn get(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Share of the root spans' time outside every layer span: the self
    /// time of the `arm` and `case` spans.
    pub fn glue_frac(&self) -> f64 {
        (self.get("arm") + self.get("case")) / self.root_s
    }

    /// Summed self seconds of every name the predicate accepts.
    pub fn sum(&self, pred: impl Fn(&str) -> bool) -> f64 {
        self.by_name
            .iter()
            .filter(|(n, _)| pred(n))
            .map(|(_, s)| s)
            .sum()
    }
}

/// Validates a drained stream with `obs::check::validate` and folds it
/// into self times. Fails on a malformed stream or lost events.
pub fn self_times(events: &[Event], dropped: u64) -> Result<SelfTimes, String> {
    if dropped > 0 {
        return Err(format!("{dropped} trace events lost to ring overflow"));
    }
    obs::check::validate(events)?;
    struct Window {
        name: &'static str,
        parent: SpanId,
        enter: u64,
        exit: u64,
    }
    let mut spans: BTreeMap<SpanId, Window> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::Enter => {
                spans.insert(
                    e.span,
                    Window {
                        name: e.name,
                        parent: e.parent,
                        enter: e.ts_ns,
                        exit: e.ts_ns,
                    },
                );
            }
            EventKind::Exit => {
                if let Some(w) = spans.get_mut(&e.span) {
                    w.exit = e.ts_ns;
                }
            }
            EventKind::Instant => {}
        }
    }
    let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
    for w in spans.values() {
        if w.parent != 0 {
            *child_ns.entry(w.parent).or_default() += w.exit - w.enter;
        }
    }
    let mut out = SelfTimes::default();
    for (id, w) in &spans {
        let dur = w.exit - w.enter;
        let children = child_ns.get(id).copied().unwrap_or(0);
        if children > dur {
            return Err(format!(
                "span {id} ({}) is shorter than its children",
                w.name
            ));
        }
        *out.by_name.entry(w.name).or_default() += (dur - children) as f64 * 1e-9;
        if w.parent == 0 {
            out.root_s += dur as f64 * 1e-9;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_sum_to_root() {
        let reg = obs::Registry::tracing();
        {
            let root = reg.span("arm");
            let case = root.child("case");
            let _a = case.child("encode");
        }
        let t = self_times(&reg.drain_events(), reg.dropped_events()).unwrap();
        let total: f64 = t.by_name.values().sum();
        assert!((total - t.root_s).abs() < 1e-9);
        assert_eq!(t.by_name.len(), 3);
    }

    #[test]
    fn unbalanced_stream_is_rejected() {
        let reg = obs::Registry::tracing();
        let root = reg.span("arm");
        let events = reg.drain_events();
        drop(root);
        assert!(self_times(&events, 0).is_err());
    }
}
