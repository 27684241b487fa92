//! Trace-file serialisation: JSONL (one event per line, plus trailing
//! metric records) and Chrome `trace_event` JSON for flamegraph viewers,
//! and [`from_jsonl`], which reads a JSONL trace back.
//!
//! Both formats are hand-rolled — field keys and span names are
//! `&'static str` identifiers and values are integers, so escaping is
//! trivial and the crate stays dependency-free.

use crate::json::{self, Value};
use crate::span::{Event, EventKind, FieldValue};
use crate::{HistSnapshot, Snapshot};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_fields(out: &mut String, fields: &[(&'static str, FieldValue)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match v {
            FieldValue::U64(n) => {
                let _ = write!(out, "\"{}\":{n}", json_escape(k));
            }
            FieldValue::Str(s) => {
                let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(s));
            }
        }
    }
    out.push('}');
}

/// Renders events as JSON Lines: one `{"ev":...}` object per event in
/// `seq` order, followed by one `{"metric":...}` object per registered
/// counter/gauge and `{"hist":...}` per histogram, so external checkers
/// can cross-validate span fields against metric totals from one file.
pub fn to_jsonl(events: &[Event], snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for e in events {
        let _ = write!(
            out,
            "{{\"ev\":\"{}\",\"name\":\"{}\",\"span\":{},\"parent\":{},\"thread\":{},\"seq\":{},\"ts_ns\":{},\"fields\":",
            e.kind.name(),
            json_escape(e.name),
            e.span,
            e.parent,
            e.thread,
            e.seq,
            e.ts_ns,
        );
        write_fields(&mut out, &e.fields);
        out.push_str("}\n");
    }
    for (name, v) in snapshot.counters.iter().chain(snapshot.gauges.iter()) {
        let _ = writeln!(
            out,
            "{{\"metric\":\"{}\",\"value\":{v}}}",
            json_escape(name)
        );
    }
    for (name, h) in &snapshot.hists {
        let _ = write!(
            out,
            "{{\"hist\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
            json_escape(name),
            h.count,
            h.sum
        );
        for (i, (le, n)) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{le},{n}]");
        }
        out.push_str("]}\n");
    }
    out
}

/// Reads back what [`to_jsonl`] wrote: the events in file order, and a
/// snapshot whose `counters` hold every `metric` line (the file does not
/// tell counters from gauges) and whose `hists` hold every `hist` line.
/// A malformed line is an error that names its line number.
pub fn from_jsonl(text: &str) -> Result<(Vec<Event>, Snapshot), String> {
    let mut events = Vec::new();
    let mut snapshot = Snapshot::default();
    for (i, line) in text.lines().enumerate() {
        let record = json::parse_from(line, i + 1)?;
        let read = if record.get("ev").is_some() {
            read_event(&record).map(|e| events.push(e))
        } else if let Some(name) = record.get("metric").and_then(Value::as_str) {
            integer(&record, "value").map(|v| snapshot.counters.push((name.to_string(), v)))
        } else if let Some(name) = record.get("hist").and_then(Value::as_str) {
            read_hist(&record).map(|h| snapshot.hists.push((name.to_string(), h)))
        } else {
            Err("not an event, metric or hist record".to_string())
        };
        read.map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok((events, snapshot))
}

/// The `u64` field `key` of a record.
fn integer(record: &Value, key: &str) -> Result<u64, String> {
    record
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("'{key}' is not an unsigned integer"))
}

/// The string field `key` of a record.
fn text<'a>(record: &'a Value, key: &str) -> Result<&'a str, String> {
    record
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("'{key}' is not a string"))
}

fn read_event(record: &Value) -> Result<Event, String> {
    let kind = match text(record, "ev")? {
        "enter" => EventKind::Enter,
        "exit" => EventKind::Exit,
        "instant" => EventKind::Instant,
        other => return Err(format!("unknown event kind '{other}'")),
    };
    let Some(Value::Object(raw)) = record.get("fields") else {
        return Err("'fields' is not an object".to_string());
    };
    let mut fields = Vec::with_capacity(raw.len());
    for (key, value) in raw {
        let value = match value {
            Value::String(s) => FieldValue::Str(intern(s)),
            number => FieldValue::U64(
                number
                    .as_u64()
                    .ok_or_else(|| format!("field '{key}' is neither a string nor a u64"))?,
            ),
        };
        fields.push((intern(key), value));
    }
    Ok(Event {
        ts_ns: integer(record, "ts_ns")?,
        seq: integer(record, "seq")?,
        kind,
        name: intern(text(record, "name")?),
        span: integer(record, "span")?,
        parent: integer(record, "parent")?,
        thread: integer(record, "thread")?,
        fields,
    })
}

fn read_hist(record: &Value) -> Result<HistSnapshot, String> {
    let Some(Value::Array(raw)) = record.get("buckets") else {
        return Err("'buckets' is not an array".to_string());
    };
    let buckets = raw
        .iter()
        .map(|pair| match pair {
            Value::Array(pair) if pair.len() == 2 => pair[0].as_u64().zip(pair[1].as_u64()),
            _ => None,
        })
        .collect::<Option<Vec<(u64, u64)>>>()
        .ok_or("a bucket is not a [bound, count] pair of integers")?;
    Ok(HistSnapshot {
        count: integer(record, "count")?,
        sum: integer(record, "sum")?,
        buckets,
    })
}

/// The process-wide copy of `s`: events hold names as `&'static str`, so
/// [`from_jsonl`] allocates each distinct text once and reuses it.
fn intern(s: &str) -> &'static str {
    static TEXTS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut texts = TEXTS.lock().expect("obs intern table poisoned");
    if let Some(&t) = texts.get(s) {
        return t;
    }
    let t: &'static str = Box::leak(s.into());
    texts.insert(t);
    t
}

/// Renders events in Chrome `trace_event` format (the JSON array form):
/// Enter/Exit become `ph:"B"`/`ph:"E"` duration events, Instant becomes
/// `ph:"i"`; `tid` is the obs thread index and timestamps are in
/// microseconds as the format requires. Load in `chrome://tracing` or
/// Perfetto.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ph = match e.kind {
            EventKind::Enter => "B",
            EventKind::Exit => "E",
            EventKind::Instant => "i",
        };
        let ts_us = e.ts_ns as f64 / 1000.0;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3}",
            json_escape(e.name),
            e.thread,
        );
        if e.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if !e.fields.is_empty() || e.kind == EventKind::Enter {
            out.push_str(",\"args\":");
            let mut args: Vec<(&'static str, FieldValue)> = Vec::new();
            if e.kind == EventKind::Enter {
                args.push(("span", FieldValue::U64(e.span)));
                args.push(("parent", FieldValue::U64(e.parent)));
            }
            args.extend(e.fields.iter().copied());
            write_fields(&mut out, &args);
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn jsonl_has_one_object_per_line() {
        let reg = Registry::tracing();
        reg.counter("sat.conflicts").add(3);
        {
            let sp = reg.span("sat.solve");
            sp.event("restart", &[("n", 1u64.into())]);
            sp.record("result", "sat");
        }
        let events = reg.drain_events();
        let text = to_jsonl(&events, &reg.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // enter, instant, exit, metric
        assert!(lines[0].contains("\"ev\":\"enter\""));
        assert!(lines[1].contains("\"restart\""));
        assert!(lines[2].contains("\"result\":\"sat\""));
        assert!(lines[3].contains("\"metric\":\"sat.conflicts\",\"value\":3"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn jsonl_reads_back_to_the_same_events_and_metrics() {
        let reg = Registry::tracing();
        reg.counter("sat.\"conflicts\"").add(3);
        reg.set_gauge("queue\\depth", 7);
        let h = reg.histogram("lat\tency");
        for v in [0, 5, 1000] {
            h.observe(v);
        }
        {
            let root = reg.span_with("quote\"d \\ span\n", &[("i\td", 7u64.into())]);
            let child = root.child("ctl\u{1}\u{7f} é");
            child.event("tick", &[("why", "back\\slash \"q\"".into())]);
            child.record("result", "sat");
            root.record("total", u64::MAX);
        }
        let events = reg.drain_events();
        let snapshot = reg.snapshot();
        let (back, metrics) = from_jsonl(&to_jsonl(&events, &snapshot)).expect("well-formed");
        assert_eq!(back, events);
        let mut values = snapshot.counters.clone();
        values.extend(snapshot.gauges.iter().cloned());
        assert_eq!(metrics.counters, values);
        assert!(metrics.gauges.is_empty());
        assert_eq!(metrics.hists, snapshot.hists);
    }

    #[test]
    fn malformed_jsonl_names_its_line() {
        let reg = Registry::tracing();
        drop(reg.span("root"));
        let good = to_jsonl(&reg.drain_events(), &reg.snapshot());
        assert_eq!(good.lines().count(), 2);
        for (bad, expected) in [
            ("{\"ev\":\"enter\"", "line 3, column 14:"),
            ("{\"metric\":\"m\",\"value\":-1}", "line 3: 'value'"),
            (
                "{\"ev\":\"leave\",\"fields\":{}}",
                "line 3: unknown event kind",
            ),
            ("{\"other\":1}", "line 3: not an event"),
            ("", "line 3, column 1:"),
        ] {
            let err = from_jsonl(&format!("{good}{bad}\n")).expect_err(bad);
            assert!(err.starts_with(expected), "{bad}: {err}");
        }
    }

    #[test]
    fn chrome_trace_is_a_json_array_with_b_e_pairs() {
        let reg = Registry::tracing();
        drop(reg.span("root"));
        let text = to_chrome_trace(&reg.drain_events());
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
    }
}
