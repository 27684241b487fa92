//! Hot-path throughput harness: `BENCH_hotpath.json` emitter.
//!
//! Times CDCL propagation, bit-parallel resimulation, SAT sweeping, BMC
//! and the query service on fixed built-in workloads; every timed row
//! comes from one sampler, [`sample`], as a median with its spread.
//!
//! Usage: `bench_hotpath [--smoke] [--out PATH] [--threads LIST]`
//!
//! `--smoke` shrinks every workload so CI can check the harness in
//! seconds. `--threads 1,2,4` selects the thread counts for the parallel
//! kernels (fraig oracle shards and serve workers), one row each; the
//! `context` object records the machine facts rows depend on.

use csat_preproc::{BaselinePipeline, Pipeline};
use mc::{BmcEngine, BmcOptions, BmcResult};
use sat::{solve_cnf, Budget, SolveResult, Solver, SolverConfig};
use serve::{Engine, EngineConfig, Query, QueryOpts};
use std::fmt::Display;
use std::slice;
use std::time::Instant;
use sweep::{fraig, FraigParams};
use workloads::cnf_gen::{pigeonhole, random_2sat, random_3sat};
use workloads::datapath::{carry_lookahead_adder, ripple_carry_adder};
use workloads::lec::{adder_miter, miter, restructure};
use workloads::random_aig::{random_aig, RandomAigParams};
use workloads::seq::counter;

/// Timed runs behind every row, after one untimed warm-up.
const REPS: usize = 5;

/// Median, minimum and maximum of one measurement over the timed runs.
#[derive(Clone, Copy, Debug)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

/// The sampler: calls `run(0)` as a warm-up and discards it, then `run(1)`
/// to `run(REPS)`, and summarises each of the `N` measurements a call
/// returns. The call index lets a row rotate what it compares.
fn sample<const N: usize>(mut run: impl FnMut(usize) -> [f64; N]) -> [Spread; N] {
    run(0);
    let mut series = [[0.0; REPS]; N];
    for rep in 0..REPS {
        for (xs, x) in series.iter_mut().zip(run(rep + 1)) {
            xs[rep] = x;
        }
    }
    series.map(|mut xs| {
        xs.sort_by(f64::total_cmp);
        Spread {
            median: xs[REPS / 2],
            min: xs[0],
            max: xs[REPS - 1],
        }
    })
}

/// Seconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// A JSON string.
fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// The fields of one JSON object, in order, with their values as written.
type Row = Vec<(String, String)>;

/// A value the row writer can write under a key.
trait Field {
    /// Appends this value's fields under `key` to `row`.
    fn write(&self, key: &str, row: &mut Row);
}

/// Any displayable value, such as a number or rendered JSON, is one field.
impl<T: Display> Field for T {
    fn write(&self, key: &str, row: &mut Row) {
        row.push((key.to_string(), self.to_string()));
    }
}

/// A sampled time under `key` (ending in `_s`) writes its median there,
/// then its minimum and maximum under `_min_s` and `_max_s`.
impl Field for Spread {
    fn write(&self, key: &str, row: &mut Row) {
        let stem = key.strip_suffix("_s").expect("time keys end in _s");
        format!("{:.6}", self.median).write(key, row);
        format!("{:.6}", self.min).write(&format!("{stem}_min_s"), row);
        format!("{:.6}", self.max).write(&format!("{stem}_max_s"), row);
    }
}

/// The row writer: `row! {"key": value, ...}` writes each field once, in order.
macro_rules! row {
    ($($key:literal: $value:expr),* $(,)?) => {{
        let mut row = Row::new();
        $(Field::write(&$value, $key, &mut row);)*
        row
    }};
}

/// The row's fields as JSON, joined by `sep`.
fn join(row: &Row, sep: &str) -> String {
    let fields: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    fields.join(sep)
}

/// One JSON object on one line.
fn object(row: &Row) -> String {
    format!("{{{}}}", join(row, ", "))
}

/// A JSON array of objects, one per line.
fn list(rows: &[Row]) -> String {
    let rows: Vec<String> = rows.iter().map(object).collect();
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// The sum of the numeric field `key` over `rows`, as written: the
/// `totals` object reads the rows back, so it cannot disagree with them.
fn sum<'a>(rows: impl IntoIterator<Item = &'a Row>, key: &str) -> f64 {
    let values = rows.into_iter().flatten().filter(|(k, _)| k == key);
    values
        .map(|(_, v)| v.parse::<f64>().expect("numeric field"))
        .sum()
}

/// One `solver` row: the solve's time with its spread, the load's median
/// apart, and the counters of one solve (every run repeats the search).
fn solver_row(name: &str, [load, solve]: [Spread; 2], s: &sat::Stats) -> Row {
    let props_per_sec = s.propagations as f64 / solve.median.max(1e-9);
    row! {
        "name": quoted(name), "reps": REPS, "load_s": format!("{:.6}", load.median),
        "wall_s": solve, "propagations": s.propagations, "conflicts": s.conflicts,
        "props_per_sec": format!("{props_per_sec:.0}"),
        "deadline_interrupts": s.deadline_interrupts, "cancellations": s.cancellations,
    }
}

/// Loads `f` and solves it once under `reg` (if any), timing each step.
/// Like the registry counters, the statistics leave out loading's units.
fn load_and_solve(
    f: &cnf::Cnf,
    cfg: &SolverConfig,
    reg: Option<&obs::Registry>,
) -> ([f64; 2], sat::Stats, SolveResult, Solver) {
    let (load_s, mut solver) = timed(|| Solver::from_cnf(f, cfg.clone()));
    if let Some(reg) = reg {
        solver.set_observer(reg.root());
    }
    solver.set_budget(Budget::conflicts(2_000_000));
    let pre = *solver.stats();
    let (solve_s, result) = timed(|| solver.solve());
    let mut stats = *solver.stats();
    stats.propagations -= pre.propagations;
    stats.conflicts -= pre.conflicts;
    ([load_s, solve_s], stats, result, solver)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let value_of = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1)
    };
    let out_path = value_of("--out").map_or("BENCH_hotpath.json", String::as_str);
    let thread_counts: Vec<usize> = value_of("--threads").map_or_else(
        || if smoke { vec![1, 2] } else { vec![1, 2, 4] },
        |s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4"))
                .collect()
        },
    );
    let (php_holes, sat_vars, twosat_vars, adder_bits, gates, words, passes) = if smoke {
        (5, 40, 2_000, 4, 500, 16, 2)
    } else {
        (8, 150, 120_000, 12, 20_000, 64, 10)
    };

    // One interleaved php loop feeds the solver, proof and obs rows. Each
    // rep runs four variants of one search (proof logging off, proof
    // logging on, a disabled-registry observer, which detaches entirely so
    // its ratio is the harness's A/A noise floor, and a tracing registry),
    // rotating which goes first, so drift in the host's load falls on all
    // alike. Each ratio is the median of per-rep ratios to proof-off.
    let php = pigeonhole(php_holes);
    let kissat = SolverConfig::kissat_like();
    let mut logging = kissat.clone();
    logging.proof = true;
    let disabled = obs::Registry::disabled();
    let tracing = obs::Registry::tracing();
    let mut php_stats = sat::Stats::default();
    let mut proof_solver = None;
    let [php_load, off, on, dis, tra, on_ratio, dis_ratio, tra_ratio] = sample(|rep| {
        let (mut load, mut solve) = (0.0, [0.0; 4]);
        for k in 0..4 {
            let variant = (rep + k) % 4;
            let cfg = if variant == 1 { &logging } else { &kissat };
            let reg = [None, None, Some(&disabled), Some(&tracing)][variant];
            let ([l, s], stats, result, solver) = load_and_solve(&php, cfg, reg);
            assert!(result.is_unsat(), "php is UNSAT");
            solve[variant] = s;
            match variant {
                0 => (load, php_stats) = (l, stats),
                // Kept from the warm-up, so no timed rep frees a kept solver.
                1 if rep == 0 => proof_solver = Some(solver),
                _ => {}
            }
        }
        let [off, on, dis, tra] = solve;
        [load, off, on, dis, tra, on / off, dis / off, tra / off]
    });

    // CDCL propagation. The registries' counters must equal the rows'
    // per-solve statistics times the solves they observed.
    let solver_reg = obs::Registry::metrics_only();
    let rca = ripple_carry_adder(adder_bits).aig;
    let cla = carry_lookahead_adder(adder_bits).aig;
    let lec_cnf = BaselinePipeline.preprocess(&miter(&rca, &cla)).cnf;
    let mut solver_rows = vec![solver_row("php", [php_load, off], &php_stats)];
    for (name, f, cfg) in [
        ("random3sat", random_3sat(sat_vars, 4.2, 3), &kissat),
        // All-binary workload: propagation runs entirely in the solver's
        // inline binary-watcher tier (ratio just under the 2-SAT
        // threshold keeps it SAT with long implication chains).
        ("random2sat", random_2sat(twosat_vars, 0.95, 9), &kissat),
        ("lec_miter", lec_cnf, &SolverConfig::cadical_like()),
    ] {
        let mut stats = sat::Stats::default();
        let spread = sample(|_| {
            let (t, s, _, _) = load_and_solve(&f, cfg, Some(&solver_reg));
            stats = s;
            t
        });
        solver_rows.push(solver_row(name, spread, &stats));
    }
    let published = |reg: &obs::Registry| reg.snapshot().value("sat.propagations").unwrap_or(0);
    assert_eq!(
        published(&solver_reg) + published(&tracing),
        (REPS as u64 + 1) * sum(&solver_rows, "propagations") as u64,
        "registry counters and per-solve stats must agree"
    );

    // The independent checker verifies the warm-up's php certificate.
    let proof_solver = proof_solver.expect("the loop ran the proof-on variant");
    let log = proof_solver.proof().expect("proof logging was on");
    let mut outcome = None;
    let [check] = sample(|_| {
        let (t, o) = timed(|| checker::check(log.originals(), log.proof()));
        outcome = Some(o);
        [t]
    });
    let outcome = outcome.expect("the checker ran");
    let proof_row = row! {
        "name": quoted("php"), "holes": php_holes, "reps": REPS, "logging_off_wall_s": off,
        "logging_on_wall_s": on, "overhead_ratio": format!("{:.4}", on_ratio.median),
        "proof_additions": log.additions(), "proof_deletions": log.deletions(), "check_wall_s": check,
        "check_verified": outcome.is_ok(),
        "check_verified_adds": outcome.as_ref().map_or(0, |o| o.verified_adds),
        "check_hinted_adds": outcome.as_ref().map_or(0, |o| o.hinted_adds),
    };

    let events = tracing.drain_events();
    obs::check::validate(&events).expect("bench trace stream well-formed");
    let span_conflicts = obs::check::sum_field(&events, "sat.solve", "conflicts");
    let counter_conflicts = tracing.snapshot().value("sat.conflicts").unwrap_or(0);
    assert_eq!(
        span_conflicts, counter_conflicts,
        "span tree and live counter must agree on total conflicts"
    );
    let obs_row = row! {
        "name": quoted("php"), "holes": php_holes, "reps": REPS, "baseline_wall_s": off,
        "disabled_wall_s": dis, "disabled_overhead_ratio": format!("{:.4}", dis_ratio.median),
        "tracing_wall_s": tra, "tracing_overhead_ratio": format!("{:.4}", tra_ratio.median),
        "events": events.len(), "span_conflicts": span_conflicts, "counter_conflicts": counter_conflicts,
    };

    // Resimulation: the compiled [`aig::SimProgram`] fills a matrix from
    // per-block RNG streams `passes` times per run. The checksum mixes
    // every word of every pass, so a wrong word anywhere changes it.
    let params = RandomAigParams {
        n_pis: 64,
        n_gates: gates,
        n_pos: 8,
        ..RandomAigParams::default()
    };
    let g = random_aig(&params, 0xC0FFEE);
    let prog = aig::SimProgram::new(&g);
    let mut sigs = aig::sim::SimVectors::zero(g.num_nodes(), words);
    let mut checksum = 0u64;
    let [sim] = sample(|_| {
        let (t, sum) = timed(|| {
            (0..passes).fold(0u64, |sum, pass| {
                aig::sim::random_columns(&prog, &mut sigs, 0, words, pass);
                sum.rotate_left(1) ^ sigs.checksum()
            })
        });
        checksum = sum;
        [t]
    });
    let words_simulated = (g.num_nodes() * words) as u64 * passes;
    let words_per_sec = format!("{:.0}", words_simulated as f64 / sim.median.max(1e-9));
    let sim_row = row! {
        "nodes": g.num_nodes(), "words": words, "reps": REPS, "passes": passes, "wall_s": sim,
        "words_simulated": words_simulated, "words_per_sec": words_per_sec, "checksum": checksum,
    };

    // SAT sweeping: per miter, one row with one oracle, then one per thread
    // count with the shards pinned to the largest, so those rows differ
    // only in scheduling. The smoke miter's first round spans two 64-pair
    // windows, so refutations are replayed mid-round. Telemetry is read
    // back from the `sweep.stats.*` gauges the last timed run wrote.
    let fraig_bits: &[usize] = if smoke { &[12] } else { &[16, 24] };
    let pinned = thread_counts.iter().copied().max().unwrap_or(1);
    let mut configs = vec![(1, 1)];
    configs.extend(thread_counts.iter().map(|&t| (t, pinned)));
    let mut fraig_rows = Vec::new();
    for &bits in fraig_bits {
        let fg = adder_miter(bits);
        for &(threads, shards) in &configs {
            let reg = obs::Registry::metrics_only();
            let params = FraigParams {
                threads,
                shards,
                obs: reg.clone(),
                ..FraigParams::default()
            };
            let mut ands_out = 0;
            let [wall] = sample(|_| {
                let (t, out) = timed(|| fraig(&fg, &params));
                ands_out = out.aig.num_ands();
                [t]
            });
            let snap = reg.snapshot();
            let g = |k: &str| snap.value(&format!("sweep.stats.{k}")).unwrap_or(0);
            fraig_rows.push(row! {
                "bits": bits, "threads": threads, "shards": shards, "reps": REPS, "wall_s": wall,
                "sat_calls": g("sat_calls"), "proved": g("proved"), "disproved": g("disproved"),
                "cex_patterns": g("cex_patterns"), "rounds": g("rounds"), "ands_out": ands_out,
                "deadline_interrupts": g("deadline_interrupts"), "shard_failures": g("shard_failures"),
            });
        }
    }

    // BMC to every bound up to `bmc_bound`, all UNSAT (the counter cannot
    // saturate). The incremental engine keeps one solver; the monolithic
    // baseline re-encodes and re-solves each bound from scratch, so the
    // conflict gap is learnt-clause reuse and the wall gap adds O(k^2)
    // re-encoding.
    let (bmc_bits, bmc_bound) = if smoke { (5, 6) } else { (8, 20) };
    let machine = counter(bmc_bits);
    let (mut inc_conflicts, mut mono_conflicts, mut agree) = (0, 0, true);
    let [inc, mono] = sample(|_| {
        let (inc_s, clean) = timed(|| {
            let mut engine = BmcEngine::new(&machine, BmcOptions::default());
            let clean: Vec<bool> = (1..=bmc_bound)
                .map(|k| matches!(engine.check_frames(k), BmcResult::Clean { .. }))
                .collect();
            inc_conflicts = engine.stats().conflicts;
            clean
        });
        mono_conflicts = 0;
        let (mono_s, unsat) = timed(|| {
            (1..=bmc_bound)
                .map(|k| {
                    let (f, _) = cnf::tseitin_sat_instance(&machine.bmc_instance(k));
                    let (res, stats) = solve_cnf(&f, SolverConfig::default(), Budget::UNLIMITED);
                    mono_conflicts += stats.conflicts;
                    res.is_unsat()
                })
                .collect::<Vec<bool>>()
        });
        agree &= clean == unsat;
        [inc_s, mono_s]
    });
    let bmc_row = row! {
        "name": quoted("bmc_counter"), "bits": bmc_bits, "bound": bmc_bound, "reps": REPS,
        "incremental_wall_s": inc, "incremental_conflicts": inc_conflicts,
        "monolithic_wall_s": mono, "monolithic_conflicts": mono_conflicts, "verdicts_agree": agree,
    };

    // The query service: an adder LEC pair and three restructured
    // near-duplicates, each submitted repeatedly, so repeats are cache
    // hits and near-duplicates solve live. Every run starts a cold engine;
    // telemetry is read back from the `serve.stats.*` gauges of the last.
    let (serve_bits, queries) = if smoke { (3, 12) } else { (6, 48) };
    let a = ripple_carry_adder(serve_bits).aig;
    let b = carry_lookahead_adder(serve_bits).aig;
    let rhs: Vec<aig::Aig> = std::iter::once(b.clone())
        .chain((0..3).map(|v| restructure(&b, 0x5e12_0000 + v)))
        .collect();
    let stream: Vec<(Query, QueryOpts)> = (0..queries)
        .map(|i| Query::Lec(a.clone(), rhs[i % rhs.len()].clone()))
        .map(|query| (query, QueryOpts::default()))
        .collect();
    let mut serve_rows = Vec::new();
    for &workers in &thread_counts {
        let reg = obs::Registry::metrics_only();
        let [wall] = sample(|_| {
            let config = EngineConfig {
                workers,
                obs: reg.clone(),
                ..EngineConfig::default()
            };
            let engine = Engine::new(config);
            let (t, responses) = timed(|| engine.run_batch(&stream));
            let all_unsat = responses.iter().all(|r| r.verdict.is_unsat());
            assert!(all_unsat, "the adder LEC stream is all-UNSAT");
            engine.stats().publish(&reg);
            engine.shutdown();
            [t]
        });
        let snap = reg.snapshot();
        let g = |k: &str| snap.value(&format!("serve.stats.{k}")).unwrap_or(0);
        let hits = g("cache_hits");
        let qps = queries as f64 / wall.median.max(1e-9);
        serve_rows.push(row! {
            "bits": serve_bits, "workers": workers, "queries": queries, "reps": REPS, "wall_s": wall,
            "qps": format!("{qps:.1}"), "cache_hits": hits,
            "cache_hit_rate": format!("{:.4}", hits as f64 / queries as f64),
            "certs_verified": g("certs_verified"), "retries": g("retries"), "sheds": g("sheds"),
            "failures": g("failures"),
        });
    }

    // `totals` sums the rows' medians and counters as written. Nonzero
    // failure telemetry marks a degraded run whose rows are not comparable.
    let kernels = || {
        let rows = solver_rows.iter().chain(&fraig_rows).chain(&serve_rows);
        rows.chain([&sim_row, &bmc_row])
    };
    let wall = |key| sum(kernels(), key);
    let wall_s =
        wall("load_s") + wall("wall_s") + wall("incremental_wall_s") + wall("monolithic_wall_s");
    let props_per_sec = sum(&solver_rows, "propagations") / sum(&solver_rows, "wall_s").max(1e-9);
    let hit_rate = sum(&serve_rows, "cache_hits") / sum(&serve_rows, "queries").max(1.0);
    let threads: Vec<String> = thread_counts.iter().map(|t| t.to_string()).collect();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let document = row! {
        "mode": quoted(if smoke { "smoke" } else { "full" }),
        "context": object(&row! {
            "available_parallelism": parallelism, "threads_tested": format!("[{}]", threads.join(", ")),
            "build_profile": quoted(if cfg!(debug_assertions) { "debug" } else { "release" }),
            "debug_assertions": cfg!(debug_assertions),
        }),
        "solver": list(&solver_rows), "proof": object(&proof_row), "obs": object(&obs_row),
        "sim": list(slice::from_ref(&sim_row)), "fraig": list(&fraig_rows),
        "bmc": list(slice::from_ref(&bmc_row)), "serve": list(&serve_rows),
        "totals": object(&row! {
            "wall_s": format!("{wall_s:.6}"), "propagations_per_sec": format!("{props_per_sec:.0}"),
            "words_per_sec": words_per_sec, "deadline_interrupts": sum(kernels(), "deadline_interrupts"),
            "cancellations": sum(kernels(), "cancellations"),
            "shard_failures": sum(kernels(), "shard_failures"),
            "serve_cache_hit_rate": format!("{hit_rate:.4}"), "serve_retries": sum(&serve_rows, "retries"),
            "serve_sheds": sum(&serve_rows, "sheds"), "serve_failures": sum(&serve_rows, "failures"),
        }),
    };
    let json = format!("{{\n  {}\n}}\n", join(&document, ",\n  "));
    std::fs::write(out_path, &json).expect("write BENCH_hotpath.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_summarises_the_timed_runs_only() {
        // Call 0 is the warm-up; its outlier must not reach the spread.
        let samples = [100.0, 0.3, 0.1, 0.5, 0.2, 0.4];
        let [s] = sample(|rep| [samples[rep]]);
        assert_eq!((s.median, s.min, s.max), (0.3, 0.1, 0.5));
    }

    #[test]
    fn row_writer_renders_fields_in_order() {
        let (median, min, max) = (0.5, 0.25, 1.0);
        let row = row! {
            "name": quoted("php"), "reps": REPS, "check_wall_s": Spread { median, min, max },
            "ratio": format!("{:.4}", 1.023456), "ok": true,
        };
        let expected = "{\"name\": \"php\", \"reps\": 5, \"check_wall_s\": 0.500000, \
            \"check_wall_min_s\": 0.250000, \"check_wall_max_s\": 1.000000, \
            \"ratio\": 1.0235, \"ok\": true}";
        assert_eq!(object(&row), expected);
        let two = list(&[row.clone(), row]);
        assert_eq!(two, format!("[\n    {expected},\n    {expected}\n  ]"));
        assert_eq!(sum(&[row! {"n": 2, "m": 1}, row! {"n": 3}], "n"), 5.0);
    }
}
