//! `bench_validate FRESH COMMITTED`: checks a fresh `bench_hotpath` file
//! against the committed `BENCH_hotpath.json`, row by row.
//!
//! Both files must hold the same sections, rows and fields. A timing
//! field (its key ends in `_s`, `_per_sec` or `_ratio`, or is `qps`) may
//! be at most [`SLOWDOWN`] times slower than committed: a time or an
//! overhead ratio at most 3× its committed value, a rate at least a third
//! of it. Every other field must equal its committed value as written,
//! except the few in [`EXEMPT`], which follow the host or thread
//! scheduling. Exit 0 when the fresh file passes, 1 with one line per
//! mismatch when it does not, 2 when an argument or a file is bad.

use obs::json::{self, Value};
use std::process::ExitCode;

/// How much slower than committed a timing field may be.
const SLOWDOWN: f64 = 3.0;

/// The only fields that may differ from the committed file.
const EXEMPT: &[&str] = &[
    // The machine's core count.
    "context.available_parallelism",
    // The 2- and 4-worker serve rows: a duplicate can be solved alongside
    // its twin, so their cache hits, and the rates made of them, follow
    // scheduling. The 1-worker row (`serve[0]`) is compared exactly.
    "serve[1].cache_hits",
    "serve[1].cache_hit_rate",
    "serve[2].cache_hits",
    "serve[2].cache_hit_rate",
    "totals.serve_cache_hit_rate",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [fresh, committed] = args.as_slice() else {
        eprintln!("usage: bench_validate FRESH.json COMMITTED.json");
        return ExitCode::from(2);
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (fresh_json, committed_json) = match (read(fresh), read(committed)) {
        (Ok(f), Ok(c)) => (f, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_validate: {e}");
            return ExitCode::from(2);
        }
    };
    let mismatches = compare(&fresh_json, &committed_json);
    if mismatches.is_empty() {
        println!("{fresh} matches {committed}");
        return ExitCode::SUCCESS;
    }
    for m in &mismatches {
        println!("{m}");
    }
    eprintln!(
        "bench_validate: {fresh} departs from {committed} in {} field(s)",
        mismatches.len()
    );
    ExitCode::from(1)
}

/// Every way `fresh` departs from `committed`, one message per field or
/// row, each starting with its path (`section[row].field`).
fn compare(fresh: &Value, committed: &Value) -> Vec<String> {
    let mut out = Vec::new();
    walk("", "", fresh, committed, &mut out);
    out
}

/// Compares the values at `path`; `key` is the field name that holds them.
fn walk(path: &str, key: &str, fresh: &Value, committed: &Value, out: &mut Vec<String>) {
    match (fresh, committed) {
        (Value::Object(f), Value::Object(c)) => {
            let at = |k: &str| match path {
                "" => k.to_string(),
                _ => format!("{path}.{k}"),
            };
            for (k, cv) in c {
                match fresh.get(k) {
                    Some(fv) => walk(&at(k), k, fv, cv, out),
                    None => out.push(format!("{}: missing", at(k))),
                }
            }
            let added = f.iter().filter(|(k, _)| committed.get(k).is_none());
            out.extend(added.map(|(k, _)| format!("{}: not in the committed file", at(k))));
        }
        (Value::Array(f), Value::Array(c)) => {
            for (i, cv) in c.iter().enumerate() {
                match f.get(i) {
                    Some(fv) => walk(&format!("{path}[{i}]"), key, fv, cv, out),
                    None => out.push(format!("{path}[{i}]: row missing")),
                }
            }
            let added = c.len()..f.len();
            out.extend(added.map(|i| format!("{path}[{i}]: row not in the committed file")));
        }
        _ if EXEMPT.contains(&path) => {}
        _ => {
            if let Some(msg) = scalar(key, fresh, committed) {
                out.push(format!("{path}: {msg}"));
            }
        }
    }
}

/// Why the value of field `key` fails against its committed value, if it
/// does.
fn scalar(key: &str, fresh: &Value, committed: &Value) -> Option<String> {
    let rate = key.ends_with("_per_sec") || key == "qps";
    let time = key.ends_with("_s") || key.ends_with("_ratio");
    if !(rate || time) {
        return (fresh != committed)
            .then(|| format!("{}, committed {}", show(fresh), show(committed)));
    }
    let (Some(f), Some(c)) = (fresh.as_f64(), committed.as_f64()) else {
        return Some(format!(
            "{} is no timing, committed {}",
            show(fresh),
            show(committed)
        ));
    };
    if rate && f * SLOWDOWN < c {
        Some(format!("{f} is under a third of committed {c}"))
    } else if time && f > c * SLOWDOWN {
        Some(format!("{f} is over {SLOWDOWN}x committed {c}"))
    } else {
        None
    }
}

/// A value as a message shows it.
fn show(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => n.clone(),
        Value::String(s) => format!("\"{s}\""),
        Value::Array(_) => "an array".into(),
        Value::Object(_) => "an object".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../BENCH_hotpath.json");

    fn committed() -> Value {
        json::parse(COMMITTED).expect("the committed file is JSON")
    }

    /// The value at `path` (`section[row].field`), for editing.
    fn at<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
        path.split('.').fold(v, |v, part| {
            let (name, row) = match part.split_once('[') {
                Some((name, row)) => (name, row.trim_end_matches(']').parse::<usize>().ok()),
                None => (part, None),
            };
            let Value::Object(fields) = v else {
                panic!("{part}: not an object")
            };
            let (_, v) = fields.iter_mut().find(|(k, _)| k == name).expect(part);
            match row {
                None => v,
                Some(i) => match v {
                    Value::Array(rows) => &mut rows[i],
                    _ => panic!("{part}: not a section"),
                },
            }
        })
    }

    /// `committed` with the number at `path` scaled by `factor`.
    fn scaled(path: &str, factor: f64) -> Value {
        let mut v = committed();
        let field = at(&mut v, path);
        let x = field.as_f64().expect("a number") * factor;
        *field = Value::Number(format!("{x:.6}"));
        v
    }

    #[test]
    fn the_committed_file_matches_itself() {
        assert_eq!(compare(&committed(), &committed()), Vec::<String>::new());
    }

    #[test]
    fn a_counter_off_by_one_is_rejected() {
        let mut fresh = committed();
        *at(&mut fresh, "fraig[4].sat_calls") = Value::Number("646".into());
        let errors = compare(&fresh, &committed());
        assert_eq!(errors, ["fraig[4].sat_calls: 646, committed 645"]);
    }

    #[test]
    fn a_deleted_row_is_rejected() {
        let mut fresh = committed();
        let Value::Array(rows) = at(&mut fresh, "solver") else {
            panic!("solver is a section")
        };
        let last = rows.len() - 1;
        rows.pop();
        let missing = format!("solver[{last}]: row missing");
        assert_eq!(compare(&fresh, &committed()), [missing]);
    }

    #[test]
    fn an_added_field_is_rejected() {
        let mut fresh = committed();
        let Value::Object(fields) = at(&mut fresh, "check[0]") else {
            panic!("a row is an object")
        };
        fields.push(("extra".into(), Value::Bool(true)));
        let errors = compare(&fresh, &committed());
        assert_eq!(errors, ["check[0].extra: not in the committed file"]);
    }

    #[test]
    fn timings_may_be_up_to_three_times_slower() {
        for path in [
            "synth[2].wall_s",
            "proof.overhead_ratio",
            "solver[0].load_s",
        ] {
            assert!(
                compare(&scaled(path, 2.9), &committed()).is_empty(),
                "{path}"
            );
            assert!(
                compare(&scaled(path, 0.1), &committed()).is_empty(),
                "{path}"
            );
            let errors = compare(&scaled(path, 3.1), &committed());
            assert_eq!(errors.len(), 1, "{path}: {errors:?}");
            assert!(errors[0].starts_with(&format!("{path}: ")), "{errors:?}");
        }
        for path in ["solver[1].props_per_sec", "serve[0].qps"] {
            assert!(compare(&scaled(path, 1.0 / 2.9), &committed()).is_empty());
            assert!(compare(&scaled(path, 10.0), &committed()).is_empty());
            let errors = compare(&scaled(path, 1.0 / 3.1), &committed());
            assert_eq!(errors.len(), 1, "{path}: {errors:?}");
            assert!(errors[0].starts_with(&format!("{path}: ")), "{errors:?}");
        }
    }

    #[test]
    fn only_the_exempt_fields_may_differ() {
        let mut fresh = committed();
        for path in EXEMPT {
            *at(&mut fresh, path) = Value::Number("1".into());
        }
        assert!(compare(&fresh, &committed()).is_empty());
        // The 1-worker row's hits are a counter.
        *at(&mut fresh, "serve[0].cache_hits") = Value::Number("43".into());
        assert_eq!(
            compare(&fresh, &committed()),
            ["serve[0].cache_hits: 43, committed 44"]
        );
    }

    #[test]
    fn a_value_of_another_type_is_rejected() {
        let mut fresh = committed();
        *at(&mut fresh, "bmc[0].verdicts_agree") = Value::Bool(false);
        *at(&mut fresh, "npn[0].wall_s") = Value::String("fast".into());
        *at(&mut fresh, "context") = Value::Null;
        // The message quotes the committed timing as written, which moves
        // whenever the file is regenerated.
        let Value::Number(npn_wall) = at(&mut committed(), "npn[0].wall_s").clone() else {
            panic!("npn[0].wall_s is a number")
        };
        assert_eq!(
            compare(&fresh, &committed()),
            [
                "context: null, committed an object".to_string(),
                "bmc[0].verdicts_agree: false, committed true".to_string(),
                format!("npn[0].wall_s: \"fast\" is no timing, committed {npn_wall}"),
            ]
        );
    }
}
