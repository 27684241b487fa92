//! Hot-path throughput harness: `BENCH_hotpath.json` emitter.
//!
//! Times CDCL search, proof checking, bit-parallel resimulation, SAT
//! sweeping, BMC, the query service, each synthesis op, LUT mapping under
//! each cut cost and the NPN table build on fixed built-in workloads;
//! every timed row comes from one sampler, [`sample`], as a median with
//! its spread. The rows whose call takes under about 10 ms (synthesis,
//! mapping, the NPN table) time [`BATCH`] calls per sample and report
//! seconds per call, so one slow spell of the host moves them no more
//! than the longer rows.
//!
//! Usage: `bench_hotpath [--out PATH]` (default `BENCH_hotpath.json`).
//!
//! Every run measures the same workloads, the ones the committed
//! `BENCH_hotpath.json` holds, with the parallel kernels (fraig oracle
//! shards and serve workers) at each of [`THREADS`]; the `context` object
//! records the machine facts rows depend on. Each relation that must hold
//! within one run is an `assert!` where its row is built, so a run that
//! breaks one writes no file. `bench_validate FRESH COMMITTED` then
//! compares a fresh file with the committed one, row by row.

use csat_preproc::{BaselinePipeline, Pipeline};
use mapper::{map_luts, AreaCost, BranchingCost, CutCost, MapParams};
use mc::{BmcEngine, BmcOptions, BmcResult};
use sat::{solve_cnf, Budget, SolveResult, Solver, SolverConfig};
use serve::{Engine, EngineConfig, EngineStats, Query, QueryOpts};
use std::fmt::Display;
use std::slice;
use std::time::Instant;
use sweep::{fraig, FraigParams, FraigStats};
use synth::{apply_op, apply_recipe, SynthOp};
use workloads::cnf_gen::{pigeonhole, random_2sat, random_3sat};
use workloads::datapath::{carry_lookahead_adder, ripple_carry_adder};
use workloads::lec::{adder_miter, miter, restructure};
use workloads::random_aig::{random_aig, RandomAigParams};
use workloads::seq::counter;

/// Timed runs behind every row, after one untimed warm-up.
const REPS: usize = 5;

/// Calls timed together in each sample of a sub-10-ms row.
const BATCH: usize = 16;

/// Thread counts of the parallel kernels, one row each.
const THREADS: [usize; 3] = [1, 2, 4];

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

/// Seconds per call of `f` over [`BATCH`] calls, with the last call's
/// result. Call `i` gets `i`, so each can use its own input.
fn timed_batch<T>(mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let (t, out) = timed(|| (0..BATCH).map(&mut f).last());
    (t / BATCH as f64, out.expect("a batch has calls"))
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

/// Order-sensitive digest of a CNF's clause list: the solver sees clauses
/// in this order, so a reordering changes it.
fn clause_digest(f: &cnf::Cnf) -> u64 {
    use std::hash::Hasher;
    let mut h = aig::hash::FastHasher::default();
    for clause in f.clauses() {
        h.write_u64(clause.len() as u64);
        for lit in clause {
            h.write_u64(lit.to_dimacs() as i64 as u64);
        }
    }
    h.finish()
}

/// The checker's verdict on a certificate the bench made: it must be
/// accepted, with some core lemma settled by the solver's hints alone, so
/// the bench fails if the solver stops emitting hints.
fn checked(
    outcome: Option<Result<checker::CheckOutcome, checker::CheckError>>,
    name: &str,
) -> checker::CheckOutcome {
    let outcome = outcome.expect("the checker ran");
    let outcome = outcome.unwrap_or_else(|e| panic!("{name}: certificate rejected: {e:?}"));
    assert!(
        0 < outcome.hinted_adds && outcome.hinted_adds <= outcome.verified_adds,
        "{name}: {} hinted of {} verified additions",
        outcome.hinted_adds,
        outcome.verified_adds
    );
    outcome
}

/// One `solver` row: the solve's time with its spread, the load's median
/// apart, and the counters of one solve (every run repeats the search).
/// Ticks are the solver's deterministic effort unit, so `ticks_per_sec`
/// falling at equal `ticks` is a slower search step.
fn solver_row(name: &str, [load, solve]: [Spread; 2], s: &sat::Stats) -> Row {
    let per_sec = |n: u64| format!("{:.0}", n as f64 / solve.median.max(1e-9));
    row! {
        "name": quoted(name), "reps": REPS, "load_s": format!("{:.6}", load.median),
        "wall_s": solve, "decisions": s.decisions, "propagations": s.propagations,
        "conflicts": s.conflicts, "ticks": s.ticks, "props_per_sec": per_sec(s.propagations),
        "ticks_per_sec": per_sec(s.ticks),
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
    stats.ticks -= pre.ticks;
    ([load_s, solve_s], stats, result, solver)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => "BENCH_hotpath.json",
        [flag, path] if flag == "--out" => path.as_str(),
        _ => {
            eprintln!("usage: bench_hotpath [--out PATH]");
            std::process::exit(2);
        }
    };
    let php_holes = 8;

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

    // CDCL search. The registries' counters must equal the rows'
    // per-solve statistics times the solves they observed.
    let solver_reg = obs::Registry::metrics_only();
    let adder_miter_cnf = |bits| {
        let (rca, cla) = (ripple_carry_adder(bits), carry_lookahead_adder(bits));
        BaselinePipeline.preprocess(&miter(&rca.aig, &cla.aig)).cnf
    };
    let mut solver_rows = vec![solver_row("php", [php_load, off], &php_stats)];
    for (name, f, cfg) in [
        ("random3sat", random_3sat(150, 4.2, 3), &kissat),
        // All-binary workload: propagation runs entirely in the solver's
        // inline binary-watcher tier (ratio just under the 2-SAT
        // threshold keeps it SAT with long implication chains).
        ("random2sat", random_2sat(120_000, 0.95, 9), &kissat),
        (
            "lec_miter",
            adder_miter_cnf(12),
            &SolverConfig::cadical_like(),
        ),
        // The `lec-wide` case that dominates armbench's Baseline arm.
        ("lec_rca44", adder_miter_cnf(44), &kissat),
    ] {
        let mut stats = sat::Stats::default();
        let spread = sample(|_| {
            let (t, s, _, _) = load_and_solve(&f, cfg, Some(&solver_reg));
            stats = s;
            t
        });
        solver_rows.push(solver_row(name, spread, &stats));
    }
    for key in ["propagations", "ticks"] {
        let published = |reg: &obs::Registry| reg.snapshot().value(&format!("sat.{key}"));
        assert_eq!(
            published(&solver_reg).unwrap_or(0) + published(&tracing).unwrap_or(0),
            (REPS as u64 + 1) * sum(&solver_rows, key) as u64,
            "registry counters and per-solve stats must agree on {key}"
        );
    }

    // The independent checker verifies the warm-up's php certificate.
    let proof_solver = proof_solver.expect("the loop ran the proof-on variant");
    let log = proof_solver.proof().expect("proof logging was on");
    let mut outcome = None;
    let [check] = sample(|_| {
        let (t, o) = timed(|| checker::check(log.originals(), log.proof()));
        outcome = Some(o);
        [t]
    });
    let outcome = checked(outcome, "php");
    let proof_row = row! {
        "name": quoted("php"), "holes": php_holes, "reps": REPS, "logging_off_wall_s": off,
        "logging_on_wall_s": on, "overhead_ratio": format!("{:.4}", on_ratio.median),
        "proof_additions": log.additions(), "proof_deletions": log.deletions(), "check_wall_s": check,
        "check_verified": true, "check_verified_adds": outcome.verified_adds,
        "check_hinted_adds": outcome.hinted_adds,
    };

    // The checker on an equivalence miter's certificate: the Tseitin CNF
    // of two adder architectures, solved once with proof logging on.
    let check_bits = 32;
    let lec = miter(
        &ripple_carry_adder(check_bits).aig,
        &carry_lookahead_adder(check_bits).aig,
    );
    let (lec_formula, _) = cnf::tseitin_sat_instance(&lec);
    let mut lec_solver = Solver::from_cnf(&lec_formula, logging.clone());
    assert!(
        lec_solver.solve().is_unsat(),
        "equal adders: the miter is UNSAT"
    );
    let lec_log = lec_solver.proof().expect("proof logging was on");
    let mut lec_outcome = None;
    let [lec_check] = sample(|_| {
        let (t, o) = timed(|| checker::check(lec_log.originals(), lec_log.proof()));
        lec_outcome = Some(o);
        [t]
    });
    let lec_outcome = checked(lec_outcome, "miter_rca_cla");
    let check_row = row! {
        "name": quoted("miter_rca_cla"), "bits": check_bits, "reps": REPS,
        "steps": lec_log.proof().steps.len(), "check_wall_s": lec_check, "accepted": true,
        "verified_adds": lec_outcome.verified_adds, "hinted_adds": lec_outcome.hinted_adds,
    };

    let events = tracing.drain_events();
    obs::check::validate(&events).expect("bench trace stream well-formed");
    let span_conflicts = obs::check::sum_field(&events, "sat.solve", "conflicts");
    let counter_conflicts = tracing.snapshot().value("sat.conflicts").unwrap_or(0);
    assert_eq!(
        span_conflicts, counter_conflicts,
        "span tree and live counter must agree on total conflicts"
    );
    // The disabled registry detaches entirely, so its ratio is the A/A
    // noise floor and must stay near 1.
    assert!(
        0.5 < dis_ratio.median && dis_ratio.median < 1.5,
        "disabled-registry overhead ratio {} is outside (0.5, 1.5)",
        dis_ratio.median
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
    let (words, passes) = (64, 10);
    let params = RandomAigParams {
        n_pis: 64,
        n_gates: 20_000,
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
    // only in scheduling and must decide bit-identically. Every
    // refutation is replayed as a counterexample pattern. The counters
    // are the last timed run's.
    let pinned = THREADS[THREADS.len() - 1];
    let mut configs = vec![(1, 1)];
    configs.extend(THREADS.map(|t| (t, pinned)));
    let mut fraig_rows = Vec::new();
    for bits in [16, 24] {
        let fg = adder_miter(bits);
        let mut pinned_outcome = None;
        for &(threads, shards) in &configs {
            let params = FraigParams {
                threads,
                shards,
                ..FraigParams::default()
            };
            let (mut s, mut ands_out) = (FraigStats::default(), 0);
            let [wall] = sample(|_| {
                let (t, out) = timed(|| fraig(&fg, &params));
                (s, ands_out) = (out.stats, out.aig.num_ands());
                [t]
            });
            assert_eq!(s.cex_patterns, s.disproved, "every refutation is replayed");
            if shards == pinned {
                let outcome = (s.sat_calls, s.proved, s.disproved, s.cex_patterns, ands_out);
                let first = *pinned_outcome.get_or_insert(outcome);
                assert_eq!(outcome, first, "{threads} threads, {shards} shards");
            }
            fraig_rows.push(row! {
                "bits": bits, "threads": threads, "shards": shards, "reps": REPS, "wall_s": wall,
                "sat_calls": s.sat_calls, "proved": s.proved, "disproved": s.disproved,
                "cex_patterns": s.cex_patterns, "rounds": s.rounds, "ands_out": ands_out,
                "deadline_interrupts": s.deadline_interrupts, "shard_failures": s.shard_failures,
            });
        }
    }

    // BMC to every bound up to `bmc_bound`, all UNSAT (the counter cannot
    // saturate). The incremental engine keeps one solver; the monolithic
    // baseline re-encodes and re-solves each bound from scratch, so the
    // conflict gap is learnt-clause reuse and the wall gap adds O(k^2)
    // re-encoding.
    let (bmc_bits, bmc_bound) = (8, 20);
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
    assert!(agree, "incremental and monolithic BMC agree at every bound");
    let bmc_row = row! {
        "name": quoted("bmc_counter"), "bits": bmc_bits, "bound": bmc_bound, "reps": REPS,
        "incremental_wall_s": inc, "incremental_conflicts": inc_conflicts,
        "monolithic_wall_s": mono, "monolithic_conflicts": mono_conflicts, "verdicts_agree": agree,
    };

    // The query service: an adder LEC pair and three restructured
    // near-duplicates, each submitted repeatedly, so repeats are cache
    // hits and near-duplicates solve live. Every run starts a cold engine;
    // the counters are the last run's.
    let (serve_bits, queries) = (6, 48);
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
    for workers in THREADS {
        let mut s = EngineStats::default();
        let [wall] = sample(|_| {
            let engine = Engine::new(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            let (t, responses) = timed(|| engine.run_batch(&stream));
            let all_unsat = responses.iter().all(|r| r.verdict.is_unsat());
            assert!(all_unsat, "the adder LEC stream is all-UNSAT");
            engine.shutdown();
            s = engine.stats();
            [t]
        });
        let hits = s.cache.hits;
        assert!(
            hits > 0 && s.cache.certs_verified > 0,
            "repeats hit the cache"
        );
        assert_eq!(
            (s.sheds, s.failures),
            (0, 0),
            "a clean run sheds and fails nothing"
        );
        if workers == 1 {
            // One worker answers each of the four cones before any
            // duplicate of it, so every other query hits, and each cone's
            // certificate is verified once. With more workers a duplicate
            // can be solved alongside its twin.
            assert_eq!(hits, queries as u64 - 4, "one miss per cone");
            assert_eq!(s.cache.certs_verified, 4, "one check per cone");
        }
        let qps = queries as f64 / wall.median.max(1e-9);
        serve_rows.push(row! {
            "bits": serve_bits, "workers": workers, "queries": queries, "reps": REPS, "wall_s": wall,
            "qps": format!("{qps:.1}"), "cache_hits": hits,
            "cache_hit_rate": format!("{:.4}", hits as f64 / queries as f64),
            "certs_verified": s.cache.certs_verified, "retries": s.retries, "sheds": s.sheds,
            "failures": s.failures,
        });
    }

    // Synthesis: each op applied to one adder miter, the output's size and
    // structural hash recorded, timed per call over a batch. The warm-up
    // builds the process-wide NPN table and structure library, so the `rw`
    // row times rewriting alone; the `npn` row times the table build by
    // itself.
    let synth_bits = 16;
    let synth_in = miter(
        &ripple_carry_adder(synth_bits).aig,
        &carry_lookahead_adder(synth_bits).aig,
    );
    let mut synth_rows = Vec::new();
    for op in [
        SynthOp::Balance,
        SynthOp::Rewrite,
        SynthOp::Refactor,
        SynthOp::Resub,
    ] {
        let (mut ands_out, mut hash) = (0, 0);
        let [wall] = sample(|_| {
            let (t, out) = timed_batch(|_| apply_op(&synth_in, op));
            (ands_out, hash) = (out.num_ands(), out.structural_hash());
            [t]
        });
        assert!(ands_out <= synth_in.num_ands(), "{op:?} grew the miter");
        synth_rows.push(row! {
            "op": quoted(op.mnemonic()), "bits": synth_bits, "reps": REPS, "wall_s": wall,
            "ands_in": synth_in.num_ands(), "ands_out": ands_out, "hash": hash,
        });
    }

    // LUT mapping: the `rs;rs;rw` output of the synthesis miter, mapped
    // under each cut cost with a fresh cost model per call, as the
    // pipelines map, timed per call over a batch. The exact fields pin the
    // cover and its clause list.
    let map_in = apply_recipe(
        &synth_in,
        &[SynthOp::Resub, SynthOp::Resub, SynthOp::Rewrite],
    );
    let mut map_rows = Vec::new();
    for cost_name in ["area", "branching"] {
        let mut net = None;
        let [wall] = sample(|_| {
            let costs: Vec<Box<dyn CutCost>> = (0..BATCH)
                .map(|_| -> Box<dyn CutCost> {
                    match cost_name {
                        "area" => Box::new(AreaCost),
                        _ => Box::new(BranchingCost::new()),
                    }
                })
                .collect();
            let (t, out) =
                timed_batch(|i| map_luts(&map_in, &MapParams::default(), costs[i].as_ref()));
            net = Some(out);
            [t]
        });
        let net = net.expect("the sampler ran");
        let (formula, _) = cnf::lut_to_cnf(&net);
        let branching = net.total_branching_complexity();
        assert_eq!(
            formula.num_clauses(),
            branching,
            "{cost_name}: a LUT's clauses are its branching complexity"
        );
        map_rows.push(row! {
            "cost": quoted(cost_name), "bits": synth_bits, "reps": REPS, "wall_s": wall,
            "ands_in": map_in.num_ands(), "luts": net.num_luts(), "branching": branching,
            "clauses": formula.num_clauses(), "clause_digest": clause_digest(&formula),
        });
    }

    let mut classes = 0;
    let [npn_build] = sample(|_| {
        let (t, table) = timed_batch(|_| aig::npn::NpnTable::build());
        classes = table.canons().len();
        [t]
    });
    let npn_row = row! { "name": quoted("npn4_table"), "reps": REPS, "wall_s": npn_build, "classes": classes };

    // `totals` sums the rows' medians and counters as written. The bench
    // runs unthrottled and fault-free: nonzero failure telemetry would
    // mark a degraded run whose rows are not comparable.
    let kernels = || {
        let rows = solver_rows
            .iter()
            .chain(&fraig_rows)
            .chain(&serve_rows)
            .chain(&synth_rows)
            .chain(&map_rows);
        rows.chain([&sim_row, &bmc_row, &npn_row])
    };
    for key in ["deadline_interrupts", "cancellations", "shard_failures"] {
        assert_eq!(sum(kernels(), key), 0.0, "{key} in a fault-free run");
    }
    let wall = |key| sum(kernels(), key);
    let wall_s =
        wall("load_s") + wall("wall_s") + wall("incremental_wall_s") + wall("monolithic_wall_s");
    let props_per_sec = sum(&solver_rows, "propagations") / sum(&solver_rows, "wall_s").max(1e-9);
    let hit_rate = sum(&serve_rows, "cache_hits") / sum(&serve_rows, "queries").max(1.0);
    let threads = THREADS.map(|t| t.to_string()).join(", ");
    let parallelism = std::thread::available_parallelism().expect("the core count is known");
    let document = row! {
        // The one configuration; the key keeps files of every run comparable.
        "mode": quoted("full"),
        "context": object(&row! {
            "available_parallelism": parallelism, "threads_tested": format!("[{threads}]"),
            "build_profile": quoted(if cfg!(debug_assertions) { "debug" } else { "release" }),
            "debug_assertions": cfg!(debug_assertions),
        }),
        "solver": list(&solver_rows), "proof": object(&proof_row),
        "check": list(slice::from_ref(&check_row)), "obs": object(&obs_row),
        "sim": list(slice::from_ref(&sim_row)), "fraig": list(&fraig_rows),
        "bmc": list(slice::from_ref(&bmc_row)), "serve": list(&serve_rows),
        "synth": list(&synth_rows), "map": list(&map_rows),
        "npn": list(slice::from_ref(&npn_row)),
        "totals": object(&row! {
            "wall_s": format!("{wall_s:.6}"), "propagations_per_sec": format!("{props_per_sec:.0}"),
            "words_per_sec": sum([&sim_row], "words_per_sec"),
            "deadline_interrupts": sum(kernels(), "deadline_interrupts"),
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
    fn batches_time_every_call_and_keep_the_last_result() {
        let mut calls = Vec::new();
        let (t, last) = timed_batch(|i| {
            calls.push(i);
            i * 10
        });
        assert_eq!(calls, (0..BATCH).collect::<Vec<_>>());
        assert_eq!(last, (BATCH - 1) * 10);
        assert!(t >= 0.0);
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
