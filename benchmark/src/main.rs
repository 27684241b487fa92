//! `armbench`: time-to-verdict of the paper's preprocessing arms and of the
//! query service, end to end, with a traced per-layer breakdown.
//!
//! ```text
//! armbench --workload lec-wide|small-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! A run builds its workload from the seed (set-up), then repeats passes
//! for about `S` seconds. A pass runs the four arms over every case and
//! the service over the query stream. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` each pass also re-runs the arms
//! composed from their layer calls under `obs` spans, and the run reports
//! the per-layer metrics.
//! The last line of standard output is the result as one JSON object;
//! the lines before it hold the context record and the fingerprints.

mod arms;
mod calib;
mod report;
mod serving;
mod trace;
mod workload;

use arms::{Arm, ArmRun, LayerCounts, Outcome};
use calib::Calibration;
use report::{median, percentile, Fingerprint, Report};
use serving::StreamRun;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::SelfTimes;
use workload::{Kind, Layout, Workload};

const USAGE: &str = "usage: armbench --workload lec-wide|small-mix --seed N \
                     --seconds S --trace 0|1";

/// Fewest set-up repetitions, each in a fresh process, whose median is
/// reported as `setup_s`. A run times one before every pass, and tops up
/// to this many after the last.
const SETUP_REPS: usize = 5;

/// Command-line arguments.
#[derive(Clone, Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: set up once, print the seconds it took, and exit. The
    /// benchmark times its set-up in fresh processes this way, so the
    /// process-global caches start empty every time.
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unexpected argument '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("armbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let layout = args.kind.layout(false);
    if args.setup_only {
        let t = Instant::now();
        set_up(layout, args.seed);
        println!("{}", t.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let w = set_up(layout, args.seed);
    // Only the end-to-end report carries `setup_s`.
    let timer = || time_setup(&argv);
    let run = measure(
        &w,
        args.trace,
        Duration::from_secs(args.seconds),
        (!args.trace).then_some(&timer as &dyn Fn() -> Result<f64, String>),
    );
    let extra = format!(
        ", \"cases\": {}, \"queries_per_stream\": {}, \
         \"passes\": {}, \"streams\": {}, \"sweep_threads\": {}, \
         \"probes\": {}, \"probe_ms\": {}, \"time_scale\": {}",
        w.cases.len(),
        w.stream.len(),
        run.passes.len(),
        run.streams().count(),
        sweep::pool::resolve_threads(sweep::FraigParams::default().threads),
        run.probes,
        run.probe_s * 1e3,
        run.time_scale(),
    );
    println!(
        "# context {}",
        report::context(
            args.kind.name(),
            args.seed,
            args.seconds,
            args.trace,
            &extra
        )
    );
    for line in run.fingerprint_lines(args.kind) {
        println!("# fingerprint {line}");
    }
    let report = if args.trace {
        run.layer_report()
    } else {
        run.e2e_report()
    };
    for f in &report.failures {
        eprintln!("armbench: FAILED {f}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// Fills the process-global lazy caches (`aig::npn`'s canonical-form memo
/// and `synth::rewrite_lib`'s structure library) completely, so every pass
/// starts from the same cache state and work moved into them shows up in
/// `setup_s`.
fn warm_caches() {
    for canon in aig::npn::npn_class_representatives() {
        synth::rewrite_lib::npn_structure(canon);
    }
}

/// Set-up: fill the lazy caches, generate the workload, and start and
/// stop an engine.
fn set_up(layout: Layout, seed: u64) -> Workload {
    warm_caches();
    let w = workload::build(layout, seed);
    serving::engine(w.stream.len()).shutdown();
    w
}

/// Times one set-up in a fresh process of this benchmark with the same
/// arguments, so the process-global caches start empty. Host noise comes
/// in bursts of a few seconds, so a run spreads these over its passes
/// rather than timing them back to back.
fn time_setup(argv: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(&exe)
        .args(argv)
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up: spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .map_err(|_| format!("set-up process printed '{}' ({})", text.trim(), out.status))
}

/// Traced-only results of one pass.
#[derive(Clone, Debug, Default)]
struct TracedPass {
    /// Per arm: per-case wall seconds of the traced arm run.
    case_s: Vec<Vec<f64>>,
    /// Per arm: span self times.
    selfs: Vec<SelfTimes>,
    /// Per arm: per-case layer counters.
    layers: Vec<Vec<LayerCounts>>,
    /// The service stream asked one query at a time, so each latency is
    /// that query's service time.
    serial: StreamRun,
}

/// One pass: every arm over every case, then the service streams.
#[derive(Clone, Debug)]
struct Pass {
    arms: Vec<ArmRun>,
    streams: Vec<StreamRun>,
    traced: Option<TracedPass>,
    failures: Vec<String>,
}

/// Every pass of a run.
#[derive(Clone, Debug)]
struct Run {
    passes: Vec<Pass>,
    attempted: u64,
    /// Seconds of each fresh-process set-up (end-to-end runs only).
    setups: Vec<f64>,
    /// Set-ups that failed.
    setup_failures: Vec<String>,
    /// Median seconds of the run's calibration probes.
    probe_s: f64,
    /// Calibration probes taken.
    probes: usize,
}

/// Known satisfiability of each case: its label, else the arms' agreed
/// verdict. Arms that decide a case differently are a failure.
fn consensus(w: &Workload, arms: &[ArmRun]) -> (Vec<Option<bool>>, Vec<String>) {
    let mut failures = Vec::new();
    let truth: Vec<Option<bool>> = w
        .cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let decided: Vec<bool> = arms
                .iter()
                .filter_map(|a| match a.counts[i].outcome {
                    Some(Outcome::Sat) => Some(true),
                    Some(Outcome::Unsat) => Some(false),
                    _ => None,
                })
                .collect();
            if decided.iter().any(|&d| d != decided[0]) {
                failures.push(format!("{}: arms disagree on the verdict", case.name));
            }
            case.expected.or(decided.first().copied())
        })
        .collect();
    (truth, failures)
}

/// Within a pass, the service stream repeats until it has run for at
/// least this long, so a cheap batch gets as many samples as an expensive
/// one.
const MIN_SAMPLE_S: f64 = 1.0;

/// Repetitions that bring a batch of `first_s` seconds up to
/// [`MIN_SAMPLE_S`].
fn reps_for(first_s: f64) -> usize {
    ((MIN_SAMPLE_S / first_s.max(1e-6)).ceil() as usize).clamp(1, 32)
}

/// Repeats passes for about `seconds`. Each service stream starts a fresh
/// engine, so its cache starts cold. With `setup_timer`, a set-up is timed
/// before every pass, and at least [`SETUP_REPS`] in all. Calibration
/// probes run between measurements (see [`calib`]).
fn measure(
    w: &Workload,
    traced: bool,
    seconds: Duration,
    setup_timer: Option<&dyn Fn() -> Result<f64, String>>,
) -> Run {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut attempted = 0;
    let (mut setups, mut setup_failures) = (Vec::new(), Vec::new());
    let mut time_setup = || {
        if let Some(timer) = setup_timer {
            match timer() {
                Ok(s) => setups.push(s),
                Err(e) => setup_failures.push(e),
            }
        }
    };
    let mut cal = Calibration::default();
    loop {
        cal.tick();
        time_setup();
        let arms = arms::run_plain(&w.cases, &mut || cal.tick());
        attempted += (Arm::ALL.len() * w.cases.len()) as u64;
        let (truth, mut failures) = consensus(w, &arms);
        let stream = |batch| {
            let engine = serving::engine(w.stream.len());
            serving::run_stream(&engine, &w.cases, &w.stream, &truth, batch)
        };
        let traced_pass = traced.then(|| {
            attempted += (Arm::ALL.len() * w.cases.len() + w.stream.len()) as u64;
            let mut tp = trace_arms(w, &arms, &mut failures);
            tp.serial = stream(1);
            tp
        });
        cal.tick();
        let mut streams = vec![stream(w.stream.len())];
        for _ in 1..reps_for(streams[0].wall_s) {
            cal.tick();
            streams.push(stream(w.stream.len()));
        }
        attempted += (streams.len() * w.stream.len()) as u64;
        passes.push(Pass {
            arms,
            streams,
            traced: traced_pass,
            failures,
        });
        let per_pass = start.elapsed() / passes.len() as u32;
        if start.elapsed() + per_pass > seconds {
            break;
        }
    }
    for _ in passes.len()..SETUP_REPS {
        cal.tick();
        time_setup();
    }
    cal.tick();
    Run {
        passes,
        attempted,
        setups,
        setup_failures,
        probe_s: cal.median_s(),
        probes: cal.probes(),
    }
}

/// The largest share of a traced arm's time that may fall outside every
/// layer span. Measured glue is at most 5% on either workload; more means
/// the composition does work that no layer span covers.
const MAX_GLUE_FRAC: f64 = 0.10;

/// Runs every arm again, composed from its layer calls under spans, and
/// checks it against the plain run: the same exact counters, a
/// well-formed span tree with no lost events, and layer spans that account
/// for all but [`MAX_GLUE_FRAC`] of the arm's time.
fn trace_arms(w: &Workload, plain: &[ArmRun], failures: &mut Vec<String>) -> TracedPass {
    let mut tp = TracedPass::default();
    for (i, &arm) in Arm::ALL.iter().enumerate() {
        let reg = obs::Registry::tracing();
        let (run, layers) = arms::run_traced(arm, &w.cases, &reg);
        failures.extend(run.failures.iter().cloned());
        if run.counts != plain[i].counts {
            failures.push(format!(
                "[{}]: traced layer composition diverges from the pipeline's counters",
                arm.name()
            ));
        }
        let selfs = match trace::self_times(&reg.drain_events(), reg.dropped_events()) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("[{}]: malformed trace: {e}", arm.name()));
                SelfTimes::default()
            }
        };
        if selfs.glue_frac() > MAX_GLUE_FRAC {
            failures.push(format!(
                "[{}]: {:.1}% of the traced arm's time is outside every layer span \
                 (at most {:.0}% allowed)",
                arm.name(),
                100.0 * selfs.glue_frac(),
                100.0 * MAX_GLUE_FRAC
            ));
        }
        tp.case_s.push(run.case_s);
        tp.selfs.push(selfs);
        tp.layers.push(layers);
    }
    tp
}

fn arm_fingerprint(run: &ArmRun) -> Fingerprint {
    let mut f = Fingerprint::default();
    for c in &run.counts {
        f.add(match c.outcome {
            None => 0,
            Some(Outcome::Sat) => 1,
            Some(Outcome::Unsat) => 2,
            Some(Outcome::Unsolved) => 3,
        });
        for x in [c.decisions, c.conflicts, c.vars, c.clauses] {
            f.add(x);
        }
    }
    f
}

fn layer_fingerprint(layers: &[LayerCounts]) -> Fingerprint {
    let mut f = Fingerprint::default();
    for l in layers {
        for x in [
            l.synth_ands,
            l.ands_out,
            l.luts,
            l.branching,
            l.sweep_sat_calls,
            l.sweep_proved,
            l.propagations,
        ] {
            f.add(x);
        }
    }
    f
}

/// The traced results of a pass of a traced run.
fn traced(p: &Pass) -> &TracedPass {
    p.traced.as_ref().expect("traced runs trace every pass")
}

impl Run {
    /// One line per arm and one for the service, from the first pass;
    /// [`Run::failures`] holds every later pass to the same counters.
    fn fingerprint_lines(&self, kind: Kind) -> Vec<String> {
        let p = &self.passes[0];
        let mut lines = Vec::new();
        for (i, arm) in Arm::ALL.iter().enumerate() {
            let r = &p.arms[i];
            let sum = |f: fn(&arms::Counts) -> u64| r.counts.iter().map(f).sum::<u64>();
            let mut line = format!(
                "{} {} solved={} decisions={} conflicts={} vars={} clauses={} hash={:016x}",
                kind.name(),
                arm.name(),
                r.solved(),
                sum(|c| c.decisions),
                sum(|c| c.conflicts),
                sum(|c| c.vars),
                sum(|c| c.clauses),
                arm_fingerprint(r).0
            );
            if let Some(t) = &p.traced {
                let l = &t.layers[i];
                let lsum = |f: fn(&LayerCounts) -> u64| l.iter().map(f).sum::<u64>();
                line.push_str(&format!(
                    " synth_ands={} luts={} sweep_sat_calls={} layer_hash={:016x}",
                    lsum(|c| c.synth_ands),
                    lsum(|c| c.luts),
                    lsum(|c| c.sweep_sat_calls),
                    layer_fingerprint(l).0
                ));
            }
            lines.push(line);
        }
        let c = self.serve_counts();
        lines.push(format!(
            "{} serve queries={} sat={} unsat={} hits={} misses={} certs_verified={} retries={}",
            kind.name(),
            p.streams[0].samples.len(),
            c.sat,
            c.unsat,
            c.hits,
            c.misses,
            c.certs_verified,
            c.retries,
        ));
        lines
    }

    /// Failures of every pass plus a failure for any pass whose exact
    /// counters differ from the first pass's.
    fn failures(&self) -> Vec<String> {
        let first = &self.passes[0];
        let mut out = self.setup_failures.clone();
        for (n, p) in self.passes.iter().enumerate() {
            out.extend(p.failures.iter().cloned());
            if let Some(t) = &p.traced {
                out.extend(t.serial.failures.iter().cloned());
            }
            for r in &p.arms {
                out.extend(r.failures.iter().cloned());
            }
            for (i, arm) in Arm::ALL.iter().enumerate() {
                if arm_fingerprint(&p.arms[i]) != arm_fingerprint(&first.arms[i]) {
                    out.push(format!(
                        "pass {n} [{}]: counters differ from pass 0",
                        arm.name()
                    ));
                }
            }
            let s0 = &first.streams[0];
            for s in &p.streams {
                out.extend(s.failures.iter().cloned());
                if s.counts != s0.counts || s.samples.len() != s0.samples.len() {
                    out.push(format!("pass {n} [serve]: counters differ from pass 0"));
                }
            }
        }
        out
    }

    fn base_report(&self) -> Report {
        Report {
            attempted: self.attempted,
            failures: self.failures(),
            ..Report::default()
        }
    }

    /// Smallest value over passes of `f`.
    fn best(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        self.passes.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    /// An arm's total: the sum over cases of each case's best time across
    /// the passes. Interference from other work on the host only ever adds
    /// time, so the best of several passes is the steadiest estimate of
    /// what a case costs.
    fn total_s(&self, arm: usize) -> f64 {
        let cases = self.passes[0].arms[arm].case_s.len();
        self.sum_of_best(cases, |p, c| p.arms[arm].case_s[c])
    }

    /// Sums, over `cases` cases, each case's best value of `f` across the
    /// passes.
    fn sum_of_best(&self, cases: usize, f: impl Fn(&Pass, usize) -> f64) -> f64 {
        (0..cases).map(|c| self.best(|p| f(p, c))).sum()
    }

    /// Every measured service stream.
    fn streams(&self) -> impl Iterator<Item = &StreamRun> {
        self.passes.iter().flat_map(|p| &p.streams)
    }

    /// Smallest value over measured streams of `f`.
    fn best_stream(&self, f: impl Fn(&StreamRun) -> f64) -> f64 {
        self.streams().map(f).fold(f64::INFINITY, f64::min)
    }

    /// Service counters of the run's first stream.
    fn serve_counts(&self) -> serving::Counts {
        self.passes[0].streams[0].counts
    }

    /// See [`calib::time_scale`].
    fn time_scale(&self) -> f64 {
        calib::time_scale(self.probe_s)
    }

    /// Every timed metric is scaled to the reference host (see [`calib`]).
    fn e2e_report(&self) -> Report {
        let mut r = self.base_report();
        let k = self.time_scale();
        r.push("setup_s", k * median(&self.setups), "s");
        for (i, arm) in Arm::ALL.iter().enumerate() {
            r.push(format!("{}.total_s", arm.name()), k * self.total_s(i), "s");
        }
        for (i, arm) in Arm::ALL.iter().enumerate() {
            r.push(
                format!("{}.solved", arm.name()),
                self.passes[0].arms[i].solved() as f64,
                "count",
            );
        }
        // Each measured batch gives one qps, p50 and p99 (a batch holds
        // over 1,000 queries, so ten lie beyond its p99); the run reports
        // their medians over every batch, which a burst of host noise in a
        // few batches does not move.
        let per_batch =
            |f: &dyn Fn(&StreamRun) -> f64| median(&self.streams().map(f).collect::<Vec<_>>());
        let pct = |q: f64| move |s: &StreamRun| percentile(&s.latencies_ms(|_| true), q);
        r.push(
            "serve.qps",
            per_batch(&|s| s.samples.len() as f64 / s.wall_s) / k,
            "1/s",
        );
        r.push("serve.p50_ms", k * per_batch(&pct(0.50)), "ms");
        r.push("serve.p99_ms", k * per_batch(&pct(0.99)), "ms");
        r
    }

    fn layer_report(&self) -> Report {
        let mut r = self.base_report();
        for (i, arm) in Arm::ALL.iter().enumerate() {
            let a = arm.name();
            let st = |f: &dyn Fn(&SelfTimes) -> f64| self.best(|p| f(&traced(p).selfs[i]));
            let counts = &self.passes[0].arms[i].counts;
            let layers = &traced(&self.passes[0]).layers[i];
            let csum = |f: fn(&arms::Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
            let lsum = |f: fn(&LayerCounts) -> u64| layers.iter().map(f).sum::<u64>() as f64;
            let search_s = st(&|s| s.get("sat.search"));
            r.push(format!("{a}.sat.search_s"), search_s, "s");
            r.push(format!("{a}.sat.load_s"), st(&|s| s.get("sat.load")), "s");
            r.push(format!("{a}.sat.decisions"), csum(|c| c.decisions), "count");
            r.push(format!("{a}.sat.conflicts"), csum(|c| c.conflicts), "count");
            r.push(
                format!("{a}.sat.propagations"),
                lsum(|l| l.propagations),
                "count",
            );
            r.push(
                format!("{a}.sat.props_per_s"),
                lsum(|l| l.propagations) / search_s,
                "1/s",
            );
            if *arm != Arm::Baseline {
                r.push(
                    format!("{a}.synth.s"),
                    st(&|s| s.sum(|n| n.starts_with("synth."))),
                    "s",
                );
                let ops: &[&str] = if *arm == Arm::Comp {
                    &["b", "rw", "rf"]
                } else {
                    &["rs", "rw"]
                };
                for op in ops {
                    let name = format!("synth.{op}");
                    r.push(format!("{a}.synth.{op}.s"), st(&|s| s.get(&name)), "s");
                }
                r.push(
                    format!("{a}.synth.ands_out"),
                    lsum(|l| l.synth_ands),
                    "count",
                );
                r.push(format!("{a}.map.s"), st(&|s| s.get("map")), "s");
                r.push(format!("{a}.map.luts"), lsum(|l| l.luts), "count");
                r.push(format!("{a}.map.branching"), lsum(|l| l.branching), "count");
            }
            if *arm == Arm::OursFraig {
                r.push(format!("{a}.sweep.s"), st(&|s| s.get("sweep")), "s");
                r.push(
                    format!("{a}.sweep.sat_calls"),
                    lsum(|l| l.sweep_sat_calls),
                    "count",
                );
                r.push(
                    format!("{a}.sweep.proved"),
                    lsum(|l| l.sweep_proved),
                    "count",
                );
                r.push(format!("{a}.sweep.ands_out"), lsum(|l| l.ands_out), "count");
            }
            r.push(format!("{a}.encode.s"), st(&|s| s.get("encode")), "s");
            r.push(format!("{a}.cnf.vars"), csum(|c| c.vars), "count");
            r.push(format!("{a}.cnf.clauses"), csum(|c| c.clauses), "count");
            r.push(format!("{a}.check.s"), st(&|s| s.get("check")), "s");
            r.push(format!("{a}.glue_frac"), st(&SelfTimes::glue_frac), "ratio");
        }
        // Service times: the serial streams of every pass.
        let serial = || self.passes.iter().map(|p| &traced(p).serial);
        let ms = |hit: bool| -> Vec<f64> {
            serial()
                .flat_map(|s| s.latencies_ms(|x| x.hit == hit))
                .collect()
        };
        let (hits, misses) = (ms(true), ms(false));
        let c = self.serve_counts();
        r.push(
            "serve.normalize_s",
            self.best_stream(|s| s.normalize_s),
            "s",
        );
        r.push("serve.hit_ms.p50", percentile(&hits, 0.5), "ms");
        r.push("serve.miss_ms.p50", percentile(&misses, 0.5), "ms");
        r.push("serve.miss_ms.p90", percentile(&misses, 0.9), "ms");
        r.push("serve.certs_verified", c.certs_verified as f64, "count");
        let attempts = |s: &StreamRun| {
            s.samples
                .iter()
                .filter(|x| !x.hit)
                .map(|x| u64::from(x.attempts))
                .sum::<u64>()
        };
        r.push(
            "serve.live_attempts",
            attempts(&self.passes[0].streams[0]) as f64,
            "count",
        );
        r.push("serve.retries", c.retries as f64, "count");
        let summed = |v: &[f64]| v.iter().sum::<f64>();
        r.push(
            "serve.miss_time_frac",
            summed(&misses) / (summed(&misses) + summed(&hits)),
            "ratio",
        );
        r.push(
            "serve.cache_hit_rate",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            "ratio",
        );
        // Both sides: every case's best time across passes, one sample per
        // pass (traced runs do not repeat arms within a pass).
        let plain: f64 = (0..Arm::ALL.len()).map(|i| self.total_s(i)).sum();
        let cases = self.passes[0].arms[0].case_s.len();
        let traced_total: f64 = (0..Arm::ALL.len())
            .map(|i| self.sum_of_best(cases, |p, c| traced(p).case_s[i][c]))
            .sum();
        r.push(
            "trace.overhead_frac",
            (traced_total - plain) / plain,
            "ratio",
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Case keys and fingerprint lines of one traced tiny run, which must
    /// be free of failures (verdicts, traced-vs-plain counters, spans).
    fn tiny_run(kind: Kind, seed: u64) -> (Vec<u64>, Vec<String>) {
        let w = workload::build(kind.layout(true), seed);
        let run = measure(&w, true, Duration::ZERO, None);
        assert_eq!(run.failures(), Vec::<String>::new(), "{}", kind.name());
        let keys = w.cases.iter().map(|c| c.key).collect();
        (keys, run.fingerprint_lines(kind))
    }

    #[test]
    fn fingerprints_repeat_and_seeds_change_the_cases() {
        for kind in Kind::ALL {
            let first = tiny_run(kind, 7);
            assert_eq!(
                first,
                tiny_run(kind, 7),
                "{} is not deterministic",
                kind.name()
            );
            assert_ne!(
                first.0,
                tiny_run(kind, 8).0,
                "{} ignores the seed",
                kind.name()
            );
        }
    }

    /// The `"name": "..."` values of a section of `BENCHMARK.json`.
    fn listed(section: &str) -> HashSet<String> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn reports_match_benchmark_json() {
        let w = workload::build(Kind::SmallMix.layout(true), 3);
        let timer = || Ok(1.0);
        let run = measure(&w, true, Duration::ZERO, Some(&timer));
        for (report, section) in [
            (run.e2e_report(), "end_to_end"),
            (run.layer_report(), "per_layer"),
        ] {
            let names: HashSet<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(
                names.len(),
                report.metrics.len(),
                "duplicate {section} name"
            );
            assert_eq!(names, listed(section), "{section}");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
        }
        let workloads: HashSet<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, listed("workloads"));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload lec-wide --seed 1 --seconds 2 --trace 1")).is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&args("--workload lec-wide --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload lec-wide --seed 1 --seconds 2 --trace 2")).is_err());
    }
}
