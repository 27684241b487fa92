//! `csat` — command-line front end for the preprocessing framework.
//!
//! Reads a combinational AIGER instance, preprocesses it with a selectable
//! pipeline, and either writes the resulting DIMACS CNF or solves it
//! directly.
//!
//! ```text
//! csat solve   <file.aag|file.aig|file.cnf> [--pipeline baseline|comp|ours] [--recipe "rs;rw"]
//!              [--solver kissat|cadical] [--conflicts N] [--timeout-ms N] [--proof out.drat]
//! csat encode  <file.aag|file.aig> [--pipeline ...] [-o out.cnf]
//! csat check   <file.cnf> <proof.drat>
//! csat stats   <file.aag|file.aig>
//! csat fraig   <file.aag|file.aig> [--timeout-ms N] [-o out.aag]
//! csat bmc     <file.aag> [--bound K] [--kind] [--preprocess none|synth|sweep|both]
//! csat gen     php <holes> [-o out.aag]
//! csat serve   [--workers N] [--queue N] [--timeout-ms N] [--shed]
//! csat batch   <queries.txt> [--workers N] [--timeout-ms N] [--batch-timeout-ms N]
//! ```
//!
//! `serve` and `batch` drive the `serve` crate's concurrent query engine:
//! `serve` reads query lines from stdin and streams result lines to stdout
//! until EOF; `batch` runs a query file to completion. Query lines are
//! `solve <f.aag|f.aig>`, `lec <a.aag> <b.aag>`, or `bmc <m.aag> <bound>`,
//! optionally ending in `timeout=MS`; `#`-lines are comments. Each query
//! yields exactly one `r id=.. kind=.. status=..` line; verdicts repeat
//! across structurally identical cones via the engine's verified proof
//! cache (`cache=hit`).
//!
//! `bmc` reads a *sequential* AIGER file (latches allowed, real POs are
//! the bad signals) and runs the incremental `mc` engines: bounded model
//! checking up to `--bound`, or k-induction with `--kind`.
//!
//! `solve` also accepts a DIMACS CNF directly (`.cnf`/`.dimacs`); with
//! `--proof FILE` the solver logs every derived clause and, on UNSAT,
//! writes a DRAT certificate that `csat check` (the independent backward
//! RUP checker — no solver code shared) verifies against the formula.
//!
//! ## Exit codes
//!
//! `10` satisfiable / counterexample, `20` unsatisfiable / proved, `0`
//! run completed without a verdict (e.g. BMC clean within its bound, or
//! `check` accepting a certificate), `1` certificate rejected, query
//! failed (`batch`, `serve`) or a model or trace that failed its replay,
//! `30` resources exhausted (conflict budget or `--timeout-ms` deadline),
//! `2` usage or input error (only these print the usage text). Every
//! `solve`/`fraig`/`bmc` run emits one machine-readable
//! `c resource-report ...` line on stderr.

use csat_preproc::{BaselinePipeline, CompPipeline, FrameworkPipeline, Pipeline};
use rl::RecipePolicy;
use sat::{Budget, SolverConfig};
use std::io::BufReader;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use synth::Recipe;

const USAGE: &str =
    "usage: csat <solve|encode|check|stats|fraig|bmc|gen|serve|batch> <instance.aag|instance.aig> [options]
  --pipeline baseline|comp|ours   (default ours)
  --recipe   \"rs;rw;b\"            synthesis recipe for 'ours' (default rs;rs;rw)
  --sweep                          add SAT sweeping (fraig) before mapping ('ours' only)
  --presolve                       run CNF presolve (BVE+subsumption) before solving
  --solver   kissat|cadical        (default kissat)
  --conflicts N                    conflict budget (default unlimited)
  --timeout-ms N                   wall-clock deadline; exhaustion exits 30
  --proof FILE                     (solve) log DRAT; on UNSAT write the certificate
  --trace FILE                     write a span/metrics trace (JSONL; '.json' = Chrome trace_event)
  --metrics                        print a metrics summary table on stderr
  -o FILE                          output path for 'encode'/'fraig'/'gen'
solve also accepts a DIMACS formula directly (.cnf/.dimacs input)
check: csat check <formula.cnf> <proof.drat>   verify a DRAT certificate
bmc options (sequential .aag input, real POs = bad signals):
  --bound K                        frames to check / max induction strength (default 20)
  --kind                           prove by k-induction instead of plain BMC
  --preprocess none|synth|sweep|both  one-time transition-relation preprocessing
  --certify                        re-check every UNSAT verdict with the RUP checker
gen families:
  php <holes>                      pigeonhole circuit PHP(holes+1, holes), UNSAT
serve/batch (concurrent query engine; lines: solve F | lec A B | bmc M K [timeout=MS]):
  serve                            read query lines from stdin, stream results to stdout
  batch <queries.txt>              run a query file to completion
  --workers N                      worker threads (default: one per core)
  --queue N                        admission-queue capacity (default 64)
  --shed                           shed (answer unknown) instead of blocking when full
  --timeout-ms N                   default per-query deadline
  --batch-timeout-ms N             (batch) whole-batch deadline, min'd into each query
  --conflicts N                    first-attempt conflict budget (retries escalate x4)
  --retries N                      extra attempts for budget-exhausted queries (default 2)
  a 'stats' input line makes serve emit a Prometheus-text metrics snapshot
  on stdout, terminated by a '# EOF' line
  batch exit: 1 any failed, else 30 any unknown, else 10 all sat / 20 all unsat / 0 mixed
exit codes: 10 sat/cex, 20 unsat/proved, 0 inconclusive-but-complete,
            1 certificate rejected or a model/trace failed its replay,
            30 budget or deadline exhausted, 2 usage error";

/// Exit code for satisfiable instances / counterexamples found.
const EXIT_SAT: u8 = 10;
/// Exit code for unsatisfiable instances / proved properties.
const EXIT_UNSAT: u8 = 20;
/// Exit code when a conflict budget or wall-clock deadline ran out.
const EXIT_RESOURCE: u8 = 30;
/// Exit code when `csat check` rejects a certificate, a served query
/// fails, or a model or trace fails its replay.
const EXIT_FAILED: u8 = 1;
/// Exit code for usage errors (bad flags, unreadable input, ...).
const EXIT_USAGE: u8 = 2;

/// A command line that stops before its command runs: `--help` or `-h`
/// where a command or flag may stand prints the usage text on stdout and
/// exits 0; a usage or input error prints its message and the usage text
/// on stderr and exits 2.
#[derive(Debug, PartialEq)]
enum Usage {
    Help,
    Error(String),
}

impl From<String> for Usage {
    fn from(msg: String) -> Usage {
        Usage::Error(msg)
    }
}

impl From<&str> for Usage {
    fn from(msg: &str) -> Usage {
        Usage::Error(msg.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Usage::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(Usage::Error(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Usage> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "--help" | "-h" => return Err(Usage::Help),
        "gen" => return run_gen(args),
        "serve" => return Ok(run_serve(&parse_flags(&args[1..], SERVE_FLAGS)?)?),
        _ => {}
    }
    let path = args.get(1).ok_or("missing instance path")?;
    match cmd.as_str() {
        "batch" => Ok(run_batch(path, &parse_flags(&args[2..], BATCH_FLAGS)?)?),
        "bmc" => Ok(run_bmc(path, &parse_flags(&args[2..], BMC_FLAGS)?)?),
        "stats" => {
            parse_flags(&args[2..], "")?;
            let instance = load(path)?;
            println!(
                "pis={} pos={} ands={} depth={}",
                instance.num_pis(),
                instance.num_pos(),
                instance.num_ands(),
                instance.depth()
            );
            Ok(ExitCode::SUCCESS)
        }
        "encode" => {
            let flags = parse_flags(&args[2..], ENCODE_FLAGS)?;
            let pipeline = make_pipeline(&flags, None, &obs::Registry::disabled())?;
            let instance = load(path)?;
            let pre = pipeline.preprocess(&instance);
            let text = cnf::dimacs::to_dimacs_string(&pre.cnf);
            match flags.value("-o") {
                Some(out) => std::fs::write(out, text).map_err(|e| e.to_string())?,
                None => print!("{text}"),
            }
            eprintln!(
                "c {} vars={} clauses={} preprocess={:?} recipe=[{}]",
                pipeline.name(),
                pre.cnf.num_vars(),
                pre.cnf.num_clauses(),
                pre.preprocess_time,
                pre.recipe
            );
            Ok(ExitCode::SUCCESS)
        }
        "fraig" => Ok(run_fraig(path, &parse_flags(&args[2..], FRAIG_FLAGS)?)?),
        "solve" => Ok(run_solve(path, &parse_flags(&args[2..], SOLVE_FLAGS)?)?),
        "check" => {
            let proof = args.get(2).ok_or("check: missing proof path")?;
            parse_flags(&args[3..], "")?;
            Ok(run_check(path, proof)?)
        }
        other => Err(format!("unknown command '{other}'").into()),
    }
}

/// CLI-side observability wiring shared by `solve`, `fraig`, `bmc`,
/// `serve`, and `batch`: `--trace FILE` turns span tracing on, `--metrics`
/// a summary table; either flag enables the registry, both share it.
struct ObsCli {
    reg: obs::Registry,
    trace_out: Option<String>,
    metrics: bool,
}

impl ObsCli {
    fn from_flags(flags: &Flags) -> ObsCli {
        let trace_out = flags.value("--trace").map(str::to_string);
        let metrics = flags.has("--metrics");
        let reg = if trace_out.is_some() {
            obs::Registry::tracing()
        } else if metrics {
            obs::Registry::metrics_only()
        } else {
            obs::Registry::disabled()
        };
        ObsCli {
            reg,
            trace_out,
            metrics,
        }
    }

    /// Drains the registry at end of run: writes the trace file (Chrome
    /// `trace_event` JSON for `.json` paths, JSONL otherwise) and prints
    /// the metrics table on stderr. A malformed span stream is reported
    /// but still written — the trace is the evidence needed to debug it.
    fn finish(&self) -> Result<(), String> {
        if !self.reg.is_enabled() {
            return Ok(());
        }
        let snap = self.reg.snapshot();
        if let Some(out) = &self.trace_out {
            let events = self.reg.drain_events();
            if let Err(e) = obs::check::validate(&events) {
                eprintln!("c trace: WARNING: span stream invalid: {e}");
            }
            let text = if out.ends_with(".json") {
                obs::export::to_chrome_trace(&events)
            } else {
                obs::export::to_jsonl(&events, &snap)
            };
            std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            let dropped = self.reg.dropped_events();
            if dropped > 0 {
                eprintln!(
                    "c trace: {} events -> {out} ({dropped} dropped)",
                    events.len()
                );
            } else {
                eprintln!("c trace: {} events -> {out}", events.len());
            }
        }
        if self.metrics {
            eprint!("{}", snap.to_table());
        }
        Ok(())
    }
}

/// Reads a DIMACS CNF file (the `.cnf`/`.dimacs` direct-solve path).
fn load_cnf(path: &str) -> Result<cnf::Cnf, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    cnf::dimacs::read_dimacs(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// True for inputs `csat solve` treats as a DIMACS formula rather than an
/// AIGER circuit.
fn is_dimacs_path(path: &str) -> bool {
    path.ends_with(".cnf") || path.ends_with(".dimacs")
}

/// Solves one CNF in one solver observed by `reg`, optionally with DRAT
/// proof logging (`--proof FILE`). Under `--presolve` the solver presolves
/// the formula as it loads it, inside the same observer and proof log, so
/// the certificate refutes the formula handed in, presolve included. On
/// UNSAT the certificate is written to `proof_out`; SAT and Unknown
/// verdicts write nothing (a DRAT proof only ever certifies UNSAT).
fn solve_cnf_cli(
    f: &cnf::Cnf,
    mut config: SolverConfig,
    budget: Budget,
    proof_out: Option<&str>,
    reg: &obs::Registry,
) -> Result<(sat::SolveResult, sat::Stats), String> {
    config.proof = proof_out.is_some();
    let mut solver = sat::Solver::new(config);
    solver.set_observer(reg.root());
    solver.add_cnf(f);
    solver.set_budget(budget);
    let res = solver.solve();
    let stats = *solver.stats();
    if let Some(out) = proof_out {
        if res.is_unsat() {
            let log = solver.proof().expect("proof logging was enabled");
            std::fs::write(out, log.proof().to_drat_string())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!(
                "c proof: {} additions, {} deletions -> {out}",
                log.additions(),
                log.deletions()
            );
        } else {
            eprintln!("c proof: verdict is not UNSAT, no certificate written to {out}");
        }
    }
    Ok((res, stats))
}

/// `csat solve`: preprocess and solve one combinational instance, or
/// solve a DIMACS formula directly (`.cnf`/`.dimacs` input).
fn run_solve(path: &str, flags: &Flags) -> Result<ExitCode, String> {
    let obs_cli = ObsCli::from_flags(flags);
    let timeout_ms: Option<u64> = flags.parsed("--timeout-ms")?;
    let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut solver = match flags.value("--solver") {
        None | Some("kissat") => SolverConfig::kissat_like(),
        Some("cadical") => SolverConfig::cadical_like(),
        Some(other) => return Err(format!("unknown solver '{other}'")),
    };
    solver.presolve = flags.has("--presolve");
    let budget = Budget {
        conflicts: flags.parsed("--conflicts")?,
        ..Budget::UNLIMITED
    }
    .with_deadline(deadline);
    let proof_out = flags.value("--proof");

    if is_dimacs_path(path) {
        for flag in ["--pipeline", "--recipe", "--sweep"] {
            if flags.has(flag) {
                return Err(format!(
                    "{flag} applies to AIGER inputs, not a DIMACS formula"
                ));
            }
        }
        return run_solve_dimacs(path, budget, solver, proof_out, timeout_ms, &obs_cli);
    }

    let pipeline = make_pipeline(flags, deadline, &obs_cli.reg)?;
    let instance = load(path)?;
    let t0 = Instant::now();
    let pre = pipeline.preprocess(&instance);
    if proof_out.is_some() {
        eprintln!(
            "c proof: certificate refers to the encoded CNF \
             (reproduce it with 'csat encode' and identical pipeline flags)"
        );
    }
    let solved = solve_cnf_cli(&pre.cnf, solver, budget, proof_out, &obs_cli.reg)?;
    report_solve(
        &pipeline.name(),
        &pre.cnf,
        solved,
        t0,
        timeout_ms,
        &obs_cli,
        |model| {
            // The PI witness, replayed on the instance itself.
            let ins = pre.decoder.decode_inputs(model);
            if !instance.eval(&ins).iter().any(|&o| o) {
                return Err("internal error: model does not satisfy the instance".into());
            }
            let bits: String = ins.iter().map(|&b| if b { '1' } else { '0' }).collect();
            Ok(format!("v inputs {bits}"))
        },
    )
}

/// `csat solve` on a DIMACS formula: no pipeline, no AIG witness — the
/// model is checked against the formula itself, and UNSAT verdicts can be
/// certified with `--proof`.
fn run_solve_dimacs(
    path: &str,
    budget: Budget,
    config: SolverConfig,
    proof_out: Option<&str>,
    timeout_ms: Option<u64>,
    obs_cli: &ObsCli,
) -> Result<ExitCode, String> {
    let f = load_cnf(path)?;
    let t0 = Instant::now();
    let solved = solve_cnf_cli(&f, config, budget, proof_out, &obs_cli.reg)?;
    report_solve("dimacs", &f, solved, t0, timeout_ms, obs_cli, |model| {
        if !f.eval(model) {
            return Err("internal error: model does not satisfy the formula".into());
        }
        let lits: Vec<String> = (1..=f.num_vars())
            .map(|v| {
                if model[(v - 1) as usize] {
                    v.to_string()
                } else {
                    format!("-{v}")
                }
            })
            .collect();
        Ok(format!("v {} 0", lits.join(" ")))
    })
}

/// The end of `csat solve` on either input kind: the `c <name>:` line,
/// the resource report, the trace and metrics, then the `s` line with its
/// exit code. A SAT model goes through `witness`, which replays it on the
/// input and renders the `v` line, before any `s` or `v` line is printed,
/// so a model that fails its input leaves no answer on stdout, only an
/// `error:` line and exit 1.
fn report_solve(
    name: &str,
    cnf: &cnf::Cnf,
    (res, stats): (sat::SolveResult, sat::Stats),
    t0: Instant,
    timeout_ms: Option<u64>,
    obs_cli: &ObsCli,
    witness: impl FnOnce(&[bool]) -> Result<String, String>,
) -> Result<ExitCode, String> {
    let dt = t0.elapsed();
    eprintln!(
        "c {name}: vars={} clauses={} decisions={} conflicts={} solve={dt:?}",
        cnf.num_vars(),
        cnf.num_clauses(),
        stats.decisions,
        stats.conflicts
    );
    let status = match res {
        sat::SolveResult::Sat(_) => "sat",
        sat::SolveResult::Unsat => "unsat",
        sat::SolveResult::Unknown => "unknown",
    };
    resource_report("solve", status, dt, timeout_ms, &stats.counters());
    obs_cli.finish()?;
    let (verdict, code, v_line) = match res {
        sat::SolveResult::Sat(model) => match witness(&model) {
            Ok(v_line) => ("SATISFIABLE", EXIT_SAT, Some(v_line)),
            Err(msg) => return Ok(replay_failed(&msg)),
        },
        sat::SolveResult::Unsat => ("UNSATISFIABLE", EXIT_UNSAT, None),
        // CDCL is complete: Unknown only ever means a budget or deadline
        // fired, so it gets the resource exit code.
        sat::SolveResult::Unknown => ("UNKNOWN", EXIT_RESOURCE, None),
    };
    println!("s {verdict}");
    if let Some(v) = v_line {
        println!("{v}");
    }
    Ok(ExitCode::from(code))
}

/// A model or trace that failed its replay is a fault of the solver or
/// an engine, not of the command line: `error: …` without the usage
/// text, and exit 1.
fn replay_failed(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(EXIT_FAILED)
}

/// `csat check`: verify a DRAT certificate against a DIMACS formula with
/// the independent backward RUP checker. Exit 0 = verified, 1 = rejected,
/// 2 = unreadable/malformed inputs.
fn run_check(path: &str, proof_path: &str) -> Result<ExitCode, String> {
    let f = load_cnf(path)?;
    let text = std::fs::read_to_string(proof_path)
        .map_err(|e| format!("cannot open {proof_path}: {e}"))?;
    let proof =
        checker::Proof::parse_drat(&text).map_err(|e| format!("cannot parse {proof_path}: {e}"))?;
    let clauses: Vec<Vec<i32>> = f
        .clauses()
        .iter()
        .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
        .collect();
    let t0 = Instant::now();
    match checker::check(&clauses, &proof) {
        Ok(outcome) => {
            eprintln!(
                "c check: verified_adds={} skipped_adds={} core_formula={}/{} in {:?}",
                outcome.verified_adds,
                outcome.skipped_adds,
                outcome.core_formula.len(),
                f.num_clauses(),
                t0.elapsed()
            );
            println!("s VERIFIED");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("c check: rejected after {:?}", t0.elapsed());
            println!("s NOT VERIFIED ({e})");
            Ok(ExitCode::from(EXIT_FAILED))
        }
    }
}

/// `csat fraig`: SAT-sweep one combinational instance.
fn run_fraig(path: &str, flags: &Flags) -> Result<ExitCode, String> {
    let obs_cli = ObsCli::from_flags(flags);
    let instance = load(path)?;
    let timeout_ms: Option<u64> = flags.parsed("--timeout-ms")?;
    let params = sweep::FraigParams {
        deadline: timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        obs: obs_cli.reg.clone(),
        ..sweep::FraigParams::default()
    };
    let t0 = Instant::now();
    let outcome = sweep::fraig(&instance, &params);
    let dt = t0.elapsed();
    let s = &outcome.stats;
    eprintln!(
        "c fraig: ands {} -> {} rounds={} proved={} disproved={} unknown={}",
        instance.num_ands(),
        outcome.aig.num_ands(),
        s.rounds,
        s.proved,
        s.disproved,
        s.unknown
    );
    let timed_out = s.deadline_interrupts > 0;
    resource_report(
        "fraig",
        if timed_out { "timeout" } else { "done" },
        dt,
        timeout_ms,
        &s.counters(),
    );
    obs_cli.finish()?;
    if let Some(out) = flags.value("-o") {
        let file = std::fs::File::create(out).map_err(|e| format!("cannot write {out}: {e}"))?;
        aig::aiger::write_aag(&outcome.aig, file).map_err(|e| e.to_string())?;
    }
    Ok(if timed_out {
        ExitCode::from(EXIT_RESOURCE)
    } else {
        ExitCode::SUCCESS
    })
}

/// `csat gen`: write a generated workload as ASCII AIGER.
fn run_gen(args: &[String]) -> Result<ExitCode, Usage> {
    let family = args.get(1).ok_or("gen: missing family (try 'php')")?;
    let (aig, flags) = match family.as_str() {
        "php" => {
            let holes: u32 = args
                .get(2)
                .ok_or("gen php: missing hole count")?
                .parse()
                .map_err(|_| "gen php: bad hole count")?;
            if !(1..=64).contains(&holes) {
                return Err("gen php: hole count must be in 1..=64".into());
            }
            let flags = parse_flags(&args[3..], "-o=")?;
            (workloads::cnf_gen::pigeonhole_aig(holes), flags)
        }
        other => return Err(format!("unknown gen family '{other}'").into()),
    };
    match flags.value("-o") {
        Some(out) => {
            let file =
                std::fs::File::create(out).map_err(|e| format!("cannot write {out}: {e}"))?;
            aig::aiger::write_aag(&aig, file).map_err(|e| e.to_string())?;
        }
        None => {
            print!("{}", aig::aiger::to_aag_string(&aig));
        }
    }
    eprintln!(
        "c gen {}: pis={} ands={}",
        family,
        aig.num_pis(),
        aig.num_ands()
    );
    Ok(ExitCode::SUCCESS)
}

/// The `--preprocess` stage of `csat bmc` (BMC and `--kind` alike). Its
/// sweep runs under the command's deadline, as `csat solve --sweep` does:
/// a timed-out sweep keeps fewer merges instead of running unbounded.
fn bmc_preprocess(
    mode: Option<&str>,
    deadline: Option<Instant>,
    reg: &obs::Registry,
) -> Result<mc::Preprocess, String> {
    let sweep_params = || sweep::FraigParams {
        deadline,
        obs: reg.clone(),
        ..sweep::FraigParams::default()
    };
    Ok(match mode {
        None | Some("none") => mc::Preprocess::None,
        Some("synth") => mc::Preprocess::Synth(synth::Recipe::size_script()),
        Some("sweep") => mc::Preprocess::Sweep(sweep_params()),
        Some("both") => mc::Preprocess::Both(synth::Recipe::size_script(), sweep_params()),
        Some(other) => return Err(format!("unknown preprocess mode '{other}'")),
    })
}

/// `csat bmc`: incremental bounded model checking / k-induction.
fn run_bmc(path: &str, flags: &Flags) -> Result<ExitCode, String> {
    // The inner runner has several verdict-specific early returns; the
    // wrapper guarantees the trace/metrics drain happens on all of them.
    let obs_cli = ObsCli::from_flags(flags);
    let code = run_bmc_inner(path, flags, &obs_cli.reg)?;
    obs_cli.finish()?;
    Ok(code)
}

fn run_bmc_inner(path: &str, flags: &Flags, reg: &obs::Registry) -> Result<ExitCode, String> {
    if !path.ends_with(".aag") {
        return Err("bmc needs an ASCII sequential AIGER (.aag) file".into());
    }
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let machine = aig::aiger::read_seq_aag(BufReader::new(file))
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    if machine.num_pos() == 0 {
        return Err("machine has no real PO to use as a bad signal".into());
    }
    let bound: usize = flags.parsed("--bound")?.unwrap_or(20);
    let query_budget: Option<u64> = flags.parsed("--conflicts")?;
    let timeout_ms: Option<u64> = flags.parsed("--timeout-ms")?;
    let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let preprocess = bmc_preprocess(flags.value("--preprocess"), deadline, reg)?;
    eprintln!(
        "c machine: pis={} latches={} pos={} ands={}",
        machine.num_pis(),
        machine.num_latches(),
        machine.num_pos(),
        machine.comb().num_ands()
    );
    let opts = mc::BmcOptions {
        query_budget,
        deadline,
        preprocess,
        certify: flags.has("--certify"),
        obs: reg.clone(),
    };
    let t0 = Instant::now();
    let (cex, proved, frames) = if flags.has("--kind") {
        match mc::prove(&machine, bound, &opts) {
            mc::KindResult::Proved { k } => {
                eprintln!("c proved invariant by {k}-induction in {:?}", t0.elapsed());
                resource_report("kind", "proved", t0.elapsed(), timeout_ms, &[]);
                (None, true, k)
            }
            mc::KindResult::Cex { depth, trace } => (Some((depth, trace)), false, depth + 1),
            mc::KindResult::Unknown { k } => {
                eprintln!("c inconclusive at strength {k} after {:?}", t0.elapsed());
                resource_report("kind", "unknown", t0.elapsed(), timeout_ms, &[]);
                println!("s UNKNOWN");
                return Ok(ExitCode::from(EXIT_RESOURCE));
            }
        }
    } else {
        let mut engine = mc::BmcEngine::new(&machine, opts);
        let result = engine.check_frames(bound);
        let stats = *engine.stats();
        let counters = stats.counters();
        match result {
            mc::BmcResult::Cex { depth, trace } => {
                resource_report("bmc", "cex", t0.elapsed(), timeout_ms, &counters);
                (Some((depth, trace)), false, depth + 1)
            }
            mc::BmcResult::Clean { frames } => {
                eprintln!(
                    "c no counterexample in {frames} frames ({} conflicts, {:?})",
                    stats.conflicts,
                    t0.elapsed()
                );
                resource_report("bmc", "clean", t0.elapsed(), timeout_ms, &counters);
                println!("s UNKNOWN");
                // The run *completed* — every requested frame was checked
                // — so this is the inconclusive-but-done exit, not the
                // resource one.
                return Ok(ExitCode::SUCCESS);
            }
            mc::BmcResult::Unknown { frame } => {
                eprintln!(
                    "c budget exhausted at frame {frame} after {:?}",
                    t0.elapsed()
                );
                resource_report("bmc", "unknown", t0.elapsed(), timeout_ms, &counters);
                println!("s UNKNOWN");
                return Ok(ExitCode::from(EXIT_RESOURCE));
            }
        }
    };
    if proved {
        println!("s UNSATISFIABLE");
        eprintln!("c property is invariant (k = {frames})");
        return Ok(ExitCode::from(EXIT_UNSAT));
    }
    let Some((depth, trace)) = cex else {
        return Ok(replay_failed(
            "internal error: non-proved path lost its counterexample",
        ));
    };
    // Replay the trace word-level (compiled stepper, trace in bit 0)
    // before reporting it.
    let mut stepper = machine.stepper();
    let mut fired = false;
    for frame in &trace {
        let pis: Vec<u64> = frame.iter().map(|&b| u64::from(b)).collect();
        fired = stepper.step_words(&pis).iter().any(|&w| w & 1 != 0);
    }
    if !fired {
        return Ok(replay_failed(
            "internal error: trace does not reach a violation",
        ));
    }
    eprintln!("c counterexample at depth {depth} in {:?}", t0.elapsed());
    println!("s SATISFIABLE");
    for (t, frame) in trace.iter().enumerate() {
        let bits: Vec<String> = frame
            .iter()
            .map(|&b| if b { "1".into() } else { "0".to_string() })
            .collect();
        println!("v frame {t} inputs {}", bits.join(""));
    }
    Ok(ExitCode::from(EXIT_SAT))
}

/// Builds the query engine from the shared serve/batch flags.
fn engine_from_flags(flags: &Flags, reg: &obs::Registry) -> Result<serve::Engine, String> {
    let defaults = serve::EngineConfig::default();
    let cfg = serve::EngineConfig {
        workers: flags.parsed("--workers")?.unwrap_or(0),
        obs: reg.clone(),
        queue_capacity: flags.parsed("--queue")?.unwrap_or(defaults.queue_capacity),
        admission: if flags.has("--shed") {
            serve::Admission::Shed
        } else {
            serve::Admission::Block
        },
        // Like `csat solve`, the default is an unlimited conflict budget —
        // budget-escalating retries only engage once --conflicts bounds it.
        base_conflicts: flags.parsed("--conflicts")?.unwrap_or(u64::MAX),
        max_attempts: flags
            .parsed::<u32>("--retries")?
            .unwrap_or(defaults.max_attempts - 1)
            .saturating_add(1),
        ..defaults
    };
    Ok(serve::Engine::new(cfg))
}

/// One parsed query line: the query plus its per-line `timeout=MS`.
struct QueryLine {
    query: serve::Query,
    timeout_ms: Option<u64>,
}

/// Parses one `solve F | lec A B | bmc M K [timeout=MS]` line; `None` for
/// blanks and `#` comments.
fn parse_query_line(line: &str) -> Result<Option<QueryLine>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut tokens: Vec<&str> = trimmed.split_whitespace().collect();
    let mut timeout_ms = None;
    if let Some(v) = tokens.last().and_then(|t| t.strip_prefix("timeout=")) {
        timeout_ms = Some(
            v.parse()
                .map_err(|_| format!("bad timeout in query line '{trimmed}'"))?,
        );
        tokens.pop();
    }
    let query = match tokens.as_slice() {
        ["solve", f] => serve::Query::Solve(load(f)?),
        ["lec", a, b] => serve::Query::Lec(load(a)?, load(b)?),
        ["bmc", m, k] => {
            if !m.ends_with(".aag") {
                return Err("bmc queries need an ASCII sequential AIGER (.aag) file".into());
            }
            let file = std::fs::File::open(m).map_err(|e| format!("cannot open {m}: {e}"))?;
            let machine = aig::aiger::read_seq_aag(BufReader::new(file))
                .map_err(|e| format!("cannot parse {m}: {e}"))?;
            let bound: usize = k
                .parse()
                .map_err(|_| format!("bad bmc bound in query line '{trimmed}'"))?;
            serve::Query::Bmc(machine, bound)
        }
        _ => return Err(format!("bad query line '{trimmed}'")),
    };
    Ok(Some(QueryLine { query, timeout_ms }))
}

/// Prints the one structured result line a query's response maps to.
fn print_response(r: &serve::Response) {
    let reason = match &r.verdict {
        serve::Verdict::Unknown(u) => format!(" reason={}", u.name()),
        _ => String::new(),
    };
    let witness = match &r.verdict {
        serve::Verdict::Sat(w) if w.len() <= 256 => {
            let bits: String = w.iter().map(|&b| if b { '1' } else { '0' }).collect();
            format!(" witness={bits}")
        }
        _ => String::new(),
    };
    println!(
        "r id={} kind={} status={}{reason}{witness} elapsed_ms={} attempts={} cache={}",
        r.id,
        r.kind.name(),
        r.verdict.status(),
        r.wall.as_millis(),
        r.attempts,
        if r.cache_hit { "hit" } else { "miss" }
    );
}

/// Folds per-query verdicts into the PR 7 exit-code convention: any
/// `Failed` beats any `Unknown` (30), else all-SAT is 10, all-UNSAT 20,
/// and a mixed (or empty) but complete run is 0.
fn exit_for_responses<'a>(verdicts: impl Iterator<Item = &'a serve::Verdict>) -> ExitCode {
    let (mut sat, mut unsat, mut unknown, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for v in verdicts {
        match v {
            serve::Verdict::Sat(_) => sat += 1,
            serve::Verdict::Unsat => unsat += 1,
            serve::Verdict::Unknown(_) => unknown += 1,
            serve::Verdict::Failed => failed += 1,
        }
    }
    if failed > 0 {
        ExitCode::from(EXIT_FAILED)
    } else if unknown > 0 {
        ExitCode::from(EXIT_RESOURCE)
    } else if sat > 0 && unsat == 0 {
        ExitCode::from(EXIT_SAT)
    } else if unsat > 0 && sat == 0 {
        ExitCode::from(EXIT_UNSAT)
    } else {
        ExitCode::SUCCESS
    }
}

/// `csat serve`: line-oriented service on stdin/stdout. Queries stream in,
/// result lines stream out as verdicts land (a printer thread owns stdout,
/// so a slow query never blocks earlier results); EOF drains outstanding
/// queries, shuts the engine down, and exits by the batch convention.
fn run_serve(flags: &Flags) -> Result<ExitCode, String> {
    use std::io::BufRead;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let obs_cli = ObsCli::from_flags(flags);
    let engine = Arc::new(engine_from_flags(flags, &obs_cli.reg)?);
    let default_timeout: Option<u64> = flags.parsed("--timeout-ms")?;
    let submitted = Arc::new(AtomicU64::new(0));
    let eof = Arc::new(AtomicBool::new(false));
    let printer = {
        let engine = Arc::clone(&engine);
        let submitted = Arc::clone(&submitted);
        let eof = Arc::clone(&eof);
        std::thread::spawn(move || {
            let mut verdicts = Vec::new();
            loop {
                match engine.recv_timeout(Duration::from_millis(50)) {
                    Some(r) => {
                        print_response(&r);
                        verdicts.push(r.verdict);
                    }
                    None => {
                        if eof.load(Ordering::Acquire)
                            && verdicts.len() as u64 >= submitted.load(Ordering::Acquire)
                        {
                            return verdicts;
                        }
                    }
                }
            }
        })
    };
    let t0 = Instant::now();
    let mut parse_errors = 0u64;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        if line.trim() == "stats" {
            // Live introspection: a Prometheus-text snapshot of the
            // session registry (or a throwaway one when tracing is off),
            // written atomically w.r.t. result lines — holding the stdout
            // lock parks the printer thread between its own lines.
            let reg = if obs_cli.reg.is_enabled() {
                obs_cli.reg.clone()
            } else {
                obs::Registry::metrics_only()
            };
            engine.stats().publish(&reg);
            let prom = reg.snapshot().to_prometheus();
            use std::io::Write;
            let mut out = std::io::stdout().lock();
            out.write_all(prom.as_bytes())
                .and_then(|()| out.write_all(b"# EOF\n"))
                .and_then(|()| out.flush())
                .map_err(|e| format!("stdout: {e}"))?;
            continue;
        }
        let parsed_line = match parse_query_line(&line) {
            Ok(Some(q)) => q,
            Ok(None) => continue,
            Err(e) => {
                // A malformed line must not kill the service; report it and
                // fold it into the exit code like a failed query.
                eprintln!("c error: {e}");
                parse_errors += 1;
                continue;
            }
        };
        let deadline = parsed_line
            .timeout_ms
            .or(default_timeout)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        match engine.submit(&parsed_line.query, serve::QueryOpts { deadline }) {
            Ok(_) => {
                submitted.fetch_add(1, Ordering::Release);
            }
            Err(e) => {
                eprintln!("c error: {e}");
                parse_errors += 1;
            }
        }
    }
    eof.store(true, Ordering::Release);
    let verdicts = printer.join().expect("printer thread panicked");
    engine.shutdown();
    let stats = engine.stats();
    stats.publish(&obs_cli.reg);
    let status = if parse_errors > 0 || stats.failures > 0 {
        "failed"
    } else if verdicts
        .iter()
        .any(|v| matches!(v, serve::Verdict::Unknown(_)))
    {
        "unknown"
    } else {
        "done"
    };
    resource_report(
        "serve",
        status,
        t0.elapsed(),
        default_timeout,
        &stats.counters(),
    );
    obs_cli.finish()?;
    if parse_errors > 0 {
        return Ok(ExitCode::from(EXIT_FAILED));
    }
    Ok(exit_for_responses(verdicts.iter()))
}

/// `csat batch`: run a query file to completion through the engine.
fn run_batch(path: &str, flags: &Flags) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut queries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if let Some(q) =
            parse_query_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?
        {
            // Normalize up front so shape defects are a usage error (exit
            // 2) before anything is admitted, keeping one-response-each
            // for everything that does get submitted.
            let norm = q
                .query
                .normalize()
                .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
            queries.push((norm, q.timeout_ms));
        }
    }
    let default_timeout: Option<u64> = flags.parsed("--timeout-ms")?;
    let batch_timeout: Option<u64> = flags.parsed("--batch-timeout-ms")?;
    let obs_cli = ObsCli::from_flags(flags);
    let engine = engine_from_flags(flags, &obs_cli.reg)?;
    let t0 = Instant::now();
    let batch_deadline = batch_timeout.map(|ms| t0 + Duration::from_millis(ms));
    let total = queries.len();
    for (norm, timeout_ms) in queries {
        let per_query = timeout_ms
            .or(default_timeout)
            .map(|ms| t0 + Duration::from_millis(ms));
        let deadline = match (per_query, batch_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        engine
            .submit_normalized(norm, serve::QueryOpts { deadline })
            .map_err(|e| format!("{e}"))?;
    }
    let mut responses = Vec::with_capacity(total);
    while responses.len() < total {
        let r = engine
            .recv_timeout(Duration::from_secs(600))
            .ok_or("engine lost a response (bug)")?;
        responses.push(r);
    }
    responses.sort_by_key(|r| r.id);
    for r in &responses {
        print_response(r);
    }
    engine.shutdown();
    let stats = engine.stats();
    stats.publish(&obs_cli.reg);
    let status = if stats.failures > 0 {
        "failed"
    } else if responses
        .iter()
        .any(|r| matches!(r.verdict, serve::Verdict::Unknown(_)))
    {
        "unknown"
    } else {
        "done"
    };
    resource_report(
        "batch",
        status,
        t0.elapsed(),
        batch_timeout.or(default_timeout),
        &stats.counters(),
    );
    obs_cli.finish()?;
    Ok(exit_for_responses(responses.iter().map(|r| &r.verdict)))
}

/// Emits the machine-readable telemetry line every resource-governed mode
/// prints exactly once, whatever the outcome:
/// `c resource-report mode=.. status=.. elapsed_ms=.. timeout_ms=.. k=v ...`
fn resource_report(
    mode: &str,
    status: &str,
    elapsed: Duration,
    timeout_ms: Option<u64>,
    counters: &[(&str, u64)],
) {
    let timeout = timeout_ms.map_or("none".to_string(), |ms| ms.to_string());
    let extras: String = counters
        .iter()
        .map(|(k, v)| format!(" {k}={v}"))
        .collect::<Vec<_>>()
        .join("");
    eprintln!(
        "c resource-report mode={mode} status={status} elapsed_ms={} timeout_ms={timeout}{extras}",
        elapsed.as_millis()
    );
}

fn load(path: &str) -> Result<aig::Aig, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = BufReader::new(file);
    let result = if path.ends_with(".aag") {
        aig::aiger::read_aag(&mut reader)
    } else {
        aig::aiger::read_aig_binary(&mut reader)
    };
    result.map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The pipeline `--pipeline` names. `--recipe` and `--sweep` configure
/// only the *Ours* pipeline, so naming them with another one is an error
/// rather than a silently ignored flag.
fn make_pipeline(
    flags: &Flags,
    deadline: Option<Instant>,
    reg: &obs::Registry,
) -> Result<Box<dyn Pipeline>, String> {
    let name = flags.value("--pipeline");
    if let Some(fixed @ ("baseline" | "comp")) = name {
        for flag in ["--recipe", "--sweep"] {
            if flags.has(flag) {
                return Err(format!(
                    "{flag} applies to the 'ours' pipeline, not '{fixed}'"
                ));
            }
        }
    }
    match name {
        Some("baseline") => Ok(Box::new(BaselinePipeline)),
        Some("comp") => Ok(Box::new(CompPipeline)),
        None | Some("ours") => {
            let recipe: Recipe = flags
                .value("--recipe")
                .unwrap_or("rs;rs;rw")
                .parse()
                .map_err(|e| format!("{e}"))?;
            let mut pipeline = FrameworkPipeline::ours(RecipePolicy::Fixed(recipe));
            if flags.has("--sweep") {
                // The solve deadline governs the sweep stage too: a
                // timed-out preprocess degrades to fewer merges, never to
                // a stuck run.
                pipeline = pipeline.with_sweep(sweep::FraigParams {
                    deadline,
                    obs: reg.clone(),
                    ..sweep::FraigParams::default()
                });
            }
            Ok(Box::new(pipeline))
        }
        Some(other) => Err(format!("unknown pipeline '{other}'")),
    }
}

// Each command's flags, for `parse_flags`: a trailing `=` marks a flag
// that takes the next argument as its value; the others are switches.
const SOLVE_FLAGS: &str = "--pipeline= --recipe= --solver= --conflicts= --timeout-ms= \
                           --proof= --trace= --sweep --presolve --metrics";
const ENCODE_FLAGS: &str = "--pipeline= --recipe= -o= --sweep";
const FRAIG_FLAGS: &str = "--timeout-ms= -o= --trace= --metrics";
const BMC_FLAGS: &str = "--bound= --conflicts= --timeout-ms= --preprocess= --trace= \
                         --kind --certify --metrics";
const SERVE_FLAGS: &str = "--workers= --queue= --timeout-ms= --conflicts= --retries= \
                           --trace= --shed --metrics";
const BATCH_FLAGS: &str = "--workers= --queue= --timeout-ms= --conflicts= --retries= \
                           --trace= --shed --metrics --batch-timeout-ms=";

/// One command's flags as [`parse_flags`] read them, in order: each flag
/// given, once, with its value if it takes one. The handlers read flags
/// only from here, so no argument is read both as a value and as a flag.
#[derive(Debug, Default)]
struct Flags(Vec<(&'static str, Option<String>)>);

impl Flags {
    /// The value given to `name`, if any.
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(flag, _)| *flag == name)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Parses the value of `name`, with the offending text in the error.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value '{v}' for {name}")))
            .transpose()
    }

    /// True when `name` was given, as a switch or with a value.
    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(flag, _)| *flag == name)
    }
}

/// Parses a command's arguments against its flag list in one pass. A
/// value flag takes the next argument as its value, whatever it looks
/// like; `--help` or `-h` anywhere else asks for the usage text. A value
/// flag at the end, a flag given twice, or any argument the command does
/// not accept is an error (catching typos that would otherwise be
/// silently ignored, and never letting a dangling flag fall back to a
/// default or a repeat quietly lose to the first).
fn parse_flags(args: &[String], spec: &'static str) -> Result<Flags, Usage> {
    let mut flags = Flags::default();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if a == "--help" || a == "-h" {
            return Err(Usage::Help);
        }
        let Some(flag) = spec
            .split_whitespace()
            .find(|f| f.strip_suffix('=').unwrap_or(f) == a)
        else {
            return Err(format!("unexpected argument '{a}'").into());
        };
        let name = flag.strip_suffix('=').unwrap_or(flag);
        if flags.has(name) {
            return Err(format!("flag {name} given twice").into());
        }
        let value = if flag.ends_with('=') {
            Some(rest.next().ok_or(format!("flag {name} needs a value"))?)
        } else {
            None
        };
        flags.0.push((name, value.cloned()));
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The message of a usage error.
    fn usage_error<T: std::fmt::Debug>(r: Result<T, Usage>) -> String {
        match r {
            Err(Usage::Error(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    /// The pipeline a `solve` or `encode` command line configures.
    fn pipeline_for(args: &[&str]) -> Result<String, String> {
        let spec = if args[0] == "encode" {
            ENCODE_FLAGS
        } else {
            SOLVE_FLAGS
        };
        let flags = parse_flags(&strings(&args[2..]), spec).expect("well-formed flags");
        make_pipeline(&flags, None, &obs::Registry::disabled()).map(|p| p.name())
    }

    #[test]
    fn recipe_and_sweep_are_rejected_for_baseline_and_comp() {
        for pipeline in ["baseline", "comp"] {
            for extra in [&["--recipe", "rw"][..], &["--sweep"][..]] {
                let mut args = vec!["solve", "x.aag", "--pipeline", pipeline];
                args.extend_from_slice(extra);
                let err = pipeline_for(&args).expect_err("flag must be rejected");
                assert!(err.contains(extra[0]), "{err}");
                assert!(err.contains(pipeline), "{err}");
            }
        }
    }

    #[test]
    fn recipe_and_sweep_configure_ours() {
        let args = ["solve", "x.aag", "--recipe", "rw", "--sweep"];
        assert_eq!(pipeline_for(&args).as_deref(), Ok("Ours + fraig"));
        let args = ["encode", "x.aag", "--pipeline", "ours", "--recipe", "b"];
        assert_eq!(pipeline_for(&args).as_deref(), Ok("Ours"));
        let args = ["solve", "x.aag", "--pipeline", "comp"];
        assert_eq!(pipeline_for(&args).as_deref(), Ok("Comp."));
        let args = ["solve", "x.aag", "--pipeline", "baseline"];
        assert_eq!(pipeline_for(&args).as_deref(), Ok("Baseline"));
    }

    #[test]
    fn rejection_is_a_usage_error_before_the_input_is_read() {
        let args = strings(&["encode", "missing.aag", "--pipeline", "comp", "--sweep"]);
        let err = usage_error(run(&args));
        assert!(err.contains("--sweep"), "{err}");
    }

    #[test]
    fn a_token_taken_as_a_value_is_not_also_a_switch() {
        // `--proof` takes `--metrics` as its file name, so no metrics
        // table is printed as well.
        let args = strings(&["--pipeline", "baseline", "--proof", "--metrics"]);
        let flags = parse_flags(&args, SOLVE_FLAGS).expect("well-formed");
        assert_eq!(flags.value("--proof"), Some("--metrics"));
        assert!(!flags.has("--metrics"));
        let obs_cli = ObsCli::from_flags(&flags);
        assert!(!obs_cli.metrics);
        assert!(!obs_cli.reg.is_enabled());
        // A value flag at the end has no value.
        let err = usage_error(parse_flags(&strings(&["--proof"]), SOLVE_FLAGS));
        assert!(err.contains("--proof"), "{err}");
    }

    #[test]
    fn help_is_read_only_where_a_flag_may_stand() {
        for args in [
            &["--help"][..],
            &["-h"],
            &["solve", "missing.aag", "--help"],
            &["solve", "missing.aag", "--pipeline", "baseline", "-h"],
            &["serve", "-h"],
            &["gen", "php", "3", "--help"],
            &["check", "missing.cnf", "missing.drat", "-h"],
        ] {
            assert_eq!(run(&strings(args)), Err(Usage::Help), "{args:?}");
        }
        // As a value, `-h` is a file name: the certificate goes to `-h`.
        let args = strings(&["--pipeline", "baseline", "--proof", "-h"]);
        let flags = parse_flags(&args, SOLVE_FLAGS).expect("well-formed");
        assert_eq!(flags.value("--proof"), Some("-h"));
        let args = strings(&["--timeout-ms", "--help"]);
        let flags = parse_flags(&args, FRAIG_FLAGS).expect("well-formed");
        assert_eq!(flags.value("--timeout-ms"), Some("--help"));
    }

    #[test]
    fn a_repeated_flag_is_a_usage_error_that_names_it() {
        let args = [
            "--pipeline",
            "baseline",
            "--conflicts",
            "1",
            "--conflicts",
            "100000",
        ];
        let err = usage_error(parse_flags(&strings(&args), SOLVE_FLAGS));
        assert_eq!(err, "flag --conflicts given twice");
        let err = usage_error(parse_flags(&strings(&["--sweep", "--sweep"]), SOLVE_FLAGS));
        assert_eq!(err, "flag --sweep given twice");
        // Before the input is read.
        let mut args = vec!["solve", "missing.aag"];
        args.extend(["--trace", "a.jsonl", "--metrics", "--trace", "b.jsonl"]);
        assert_eq!(
            usage_error(run(&strings(&args))),
            "flag --trace given twice"
        );
    }

    /// A scratch directory for one test, removed when dropped.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(test: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("csat-{test}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create a scratch directory");
            Scratch(dir)
        }

        /// The path of `name` in the directory.
        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }

        /// Writes php(`holes`) as ASCII AIGER and returns its path.
        fn php(&self, holes: u32) -> String {
            let path = self.path(&format!("php{holes}.aag"));
            let aag = aig::aiger::to_aag_string(&workloads::cnf_gen::pigeonhole_aig(holes));
            std::fs::write(&path, aag).expect("write the instance");
            path
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Reads back a JSONL trace csat wrote and checks its span stream
    /// with `obs::check::validate`.
    fn read_trace(path: &str) -> (Vec<obs::Event>, obs::Snapshot) {
        let text = std::fs::read_to_string(path).expect("the trace was written");
        let (events, metrics) = obs::export::from_jsonl(&text).expect("the trace is JSONL");
        assert!(!events.is_empty(), "the trace has events");
        obs::check::validate(&events).expect("the span stream is well-formed");
        (events, metrics)
    }

    /// The exit events of spans named `name`.
    fn exits<'a>(events: &'a [obs::Event], name: &str) -> Vec<&'a obs::Event> {
        let exit = |e: &&obs::Event| e.kind == obs::EventKind::Exit && e.name == name;
        events.iter().filter(exit).collect()
    }

    #[test]
    fn traced_solves_write_traces_that_agree_with_their_metrics() {
        let dir = Scratch::new("traced-solve");
        let php = dir.php(8);
        for presolve in [false, true] {
            let trace = dir.path(&format!("presolve-{presolve}.jsonl"));
            let mut args = vec!["solve", &php, "--pipeline", "baseline", "--trace", &trace];
            args.push(if presolve { "--presolve" } else { "--metrics" });
            assert_eq!(run(&strings(&args)), Ok(ExitCode::from(EXIT_UNSAT)));
            let (events, metrics) = read_trace(&trace);
            let solves = exits(&events, "sat.solve");
            assert!(!solves.is_empty(), "no sat.solve span");
            // One name per number: each per-solve span field sums to its
            // `sat.*` counter, and no `sat.stats.*` mirror of them is left.
            for field in ["conflicts", "decisions", "propagations", "ticks"] {
                let spans = obs::check::sum_field(&events, "sat.solve", field);
                let counter = metrics.value(&format!("sat.{field}"));
                assert_eq!(Some(spans), counter, "{field}, presolve {presolve}");
            }
            let mirror = metrics
                .counters
                .iter()
                .find(|(k, _)| k.starts_with("sat.stats."));
            assert_eq!(mirror, None);
            let presolves = exits(&events, "sat.presolve").len();
            assert_eq!(presolves, usize::from(presolve), "presolve {presolve}");
        }
    }

    #[test]
    fn a_traced_batch_certifies_the_hit_once_under_its_query() {
        let dir = Scratch::new("traced-batch");
        let php = dir.php(4);
        let queries = dir.path("queries.txt");
        std::fs::write(&queries, format!("solve {php}\nsolve {php}\n")).expect("write queries");
        let trace = dir.path("batch.jsonl");
        let args = ["batch", &queries, "--workers", "1", "--trace", &trace];
        assert_eq!(run(&strings(&args)), Ok(ExitCode::from(EXIT_UNSAT)));
        let (events, _) = read_trace(&trace);
        // One worker: the duplicate hits the cache, and its first reuse
        // checks the certificate under one serve.certify span, a child of
        // that query's serve.query span. The checker accepted it
        // (booleans are recorded as 0 or 1).
        let certify = exits(&events, "serve.certify");
        assert_eq!(certify.len(), 1, "{certify:?}");
        let parent = events
            .iter()
            .find(|e| e.kind == obs::EventKind::Enter && e.span == certify[0].span)
            .map(|e| e.parent);
        let query = events
            .iter()
            .find(|e| e.kind == obs::EventKind::Enter && Some(e.span) == parent);
        assert_eq!(query.map(|e| e.name), Some("serve.query"));
        let accepted = certify[0].fields.iter().find(|(k, _)| *k == "accepted");
        assert_eq!(accepted, Some(&("accepted", obs::FieldValue::U64(1))));
    }

    #[test]
    fn failed_witness_replay_exits_1_not_as_a_usage_error() {
        let obs_cli = ObsCli::from_flags(&Flags::default());
        let solved = (sat::SolveResult::Sat(vec![true]), sat::Stats::default());
        let code = report_solve(
            "dimacs",
            &cnf::Cnf::new(),
            solved,
            Instant::now(),
            None,
            &obs_cli,
            |_| Err("internal error: model does not satisfy the formula".into()),
        );
        assert_eq!(code, Ok(ExitCode::from(EXIT_FAILED)));
    }

    #[test]
    fn bmc_preprocess_sweeps_under_the_deadline() {
        let reg = obs::Registry::disabled();
        let deadline = Some(Instant::now() + Duration::from_millis(50));
        for mode in ["sweep", "both"] {
            let params = match bmc_preprocess(Some(mode), deadline, &reg) {
                Ok(mc::Preprocess::Sweep(p) | mc::Preprocess::Both(_, p)) => p,
                other => panic!("{mode}: {other:?}"),
            };
            assert_eq!(params.deadline, deadline, "{mode}");
        }
        assert!(matches!(
            bmc_preprocess(None, deadline, &reg),
            Ok(mc::Preprocess::None)
        ));
        assert!(matches!(
            bmc_preprocess(Some("synth"), deadline, &reg),
            Ok(mc::Preprocess::Synth(_))
        ));
        let err = bmc_preprocess(Some("fraig"), deadline, &reg).expect_err("unknown mode");
        assert!(err.contains("fraig"), "{err}");
    }
}
