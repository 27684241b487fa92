//! Hot-path throughput harness: `BENCH_hotpath.json` emitter.
//!
//! Times the two kernels the preprocessing pipeline lives in — CDCL
//! two-watched-literal propagation and bit-parallel resimulation — plus an
//! end-to-end fraig run, on fixed built-in workloads. The JSON output is
//! the recorded perf trajectory for this and future optimisation PRs:
//! run it before and after a change and diff the throughput numbers.
//!
//! Usage: `bench_hotpath [--smoke] [--out PATH] [--threads LIST]`
//!
//! `--smoke` shrinks every workload so CI can assert the harness still
//! runs and the JSON still carries the expected keys in a few seconds.
//! `--threads 1,2,4` selects the thread counts for the parallel kernels
//! (fraig oracle shards and serve workers); each count gets its own row,
//! so cross-PR tables can separate single-thread speed from scaling. The
//! `context` object records the machine facts (available parallelism,
//! build profile) that make those rows comparable across PRs.

use cnf::Cnf;
use csat_preproc::{BaselinePipeline, Pipeline};
use mc::{BmcEngine, BmcOptions, BmcResult};
use sat::{solve_cnf, Budget, SolverConfig};
use std::fmt::Write as _;
use std::time::Instant;
use sweep::{fraig, FraigParams};
use workloads::cnf_gen::{pigeonhole, random_2sat, random_3sat};
use workloads::datapath::{carry_lookahead_adder, ripple_carry_adder};
use workloads::lec::{adder_miter, miter};
use workloads::random_aig::{random_aig, RandomAigParams};
use workloads::seq::counter;

/// Timed runs (after one warm-up) behind each row reported as a median
/// with its minimum and maximum: the fraig rows and the proof row's check.
const FRAIG_REPS: usize = 5;

struct SolverRow {
    name: &'static str,
    wall_s: f64,
    propagations: u64,
    conflicts: u64,
    props_per_sec: f64,
    deadline_interrupts: u64,
    cancellations: u64,
}

/// Times one workload: a warm-up run (unobserved, so registry totals
/// cover exactly the timed reps), then `reps` runs observed through `reg`
/// — the same `obs` export path the CLI prints, so the report's solver
/// totals can be cross-checked against one registry snapshot.
fn time_solver(
    name: &'static str,
    f: &Cnf,
    cfg: SolverConfig,
    reps: usize,
    reg: &obs::Registry,
) -> SolverRow {
    let run = |observed: bool| {
        let mut solver = sat::Solver::from_cnf(f, cfg.clone());
        if observed {
            solver.set_observer(reg.root());
        }
        solver.set_budget(Budget::conflicts(2_000_000));
        // Unit clauses propagate at load time, before solve(); report the
        // per-solve delta — exactly what the registry counters accumulate.
        let pre = *solver.stats();
        let _ = solver.solve();
        let post = *solver.stats();
        sat::Stats {
            propagations: post.propagations - pre.propagations,
            conflicts: post.conflicts - pre.conflicts,
            ..post
        }
    };
    let _ = run(false); // warm-up
    let start = Instant::now();
    let mut propagations = 0u64;
    let mut conflicts = 0u64;
    let mut deadline_interrupts = 0u64;
    let mut cancellations = 0u64;
    for _ in 0..reps {
        let stats = run(true);
        propagations += stats.propagations;
        conflicts += stats.conflicts;
        deadline_interrupts += stats.deadline_interrupts;
        cancellations += stats.cancellations;
    }
    let wall_s = start.elapsed().as_secs_f64();
    SolverRow {
        name,
        wall_s,
        propagations,
        conflicts,
        props_per_sec: propagations as f64 / wall_s.max(1e-9),
        deadline_interrupts,
        cancellations,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_hotpath.json", |s| s.as_str());
    let thread_counts: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4"))
                .collect()
        })
        .unwrap_or_else(|| if smoke { vec![1, 2] } else { vec![1, 2, 4] });

    let (php_holes, sat_vars, twosat_vars, adder_bits, solver_reps) = if smoke {
        (5, 40, 2_000, 4, 1)
    } else {
        (8, 150, 120_000, 12, 3)
    };

    // --- CDCL propagation kernel ---------------------------------------
    let lec_cnf = {
        let a = ripple_carry_adder(adder_bits);
        let b = carry_lookahead_adder(adder_bits);
        BaselinePipeline.preprocess(&miter(&a.aig, &b.aig)).cnf
    };
    // Every timed rep publishes into this registry; the `totals` section
    // reads its counters back, cross-checked against the per-row sums.
    let solver_reg = obs::Registry::metrics_only();
    let solver_rows = [
        time_solver(
            "php",
            &pigeonhole(php_holes),
            SolverConfig::kissat_like(),
            solver_reps,
            &solver_reg,
        ),
        time_solver(
            "random3sat",
            &random_3sat(sat_vars, 4.2, 3),
            SolverConfig::kissat_like(),
            solver_reps,
            &solver_reg,
        ),
        // All-binary workload: propagation runs entirely in the solver's
        // inline binary-watcher tier (ratio just under the 2-SAT
        // threshold keeps it SAT with long implication chains).
        time_solver(
            "random2sat",
            &random_2sat(twosat_vars, 0.95, 9),
            SolverConfig::kissat_like(),
            solver_reps,
            &solver_reg,
        ),
        time_solver(
            "lec_miter",
            &lec_cnf,
            SolverConfig::cadical_like(),
            solver_reps,
            &solver_reg,
        ),
    ];

    // --- proof logging: zero-cost-when-off + logging overhead -----------
    // Same php workload as the solver row, solved with proof logging off
    // and on. The off row must stay within noise of the plain solver rows
    // (the disabled path is one `None` check at conflict rate); the on
    // row records the real cost of recording every learnt and deleted
    // clause. The certificate is then verified FRAIG_REPS times by the
    // independent checker, whose median wall time, spread and verdict are
    // part of the row — CI fails the build if the certificate is rejected
    // or if no lemma was settled by its hints alone.
    struct ProofRow {
        logging_off_wall_s: f64,
        logging_on_wall_s: f64,
        overhead_ratio: f64,
        proof_additions: usize,
        proof_deletions: usize,
        check_wall_s: f64,
        check_wall_min_s: f64,
        check_wall_max_s: f64,
        check_verified: bool,
        check_verified_adds: usize,
        check_hinted_adds: usize,
    }
    let proof_row = {
        let f = pigeonhole(php_holes);
        let time_php = |proof: bool| {
            let mut cfg = SolverConfig::kissat_like();
            cfg.proof = proof;
            let mut solver = sat::Solver::from_cnf(&f, cfg.clone());
            assert!(solver.solve().is_unsat(), "php is UNSAT"); // warm-up
            let start = Instant::now();
            for _ in 0..solver_reps {
                solver = sat::Solver::from_cnf(&f, cfg.clone());
                assert!(solver.solve().is_unsat(), "php is UNSAT");
            }
            (start.elapsed().as_secs_f64(), solver)
        };
        let (logging_off_wall_s, _) = time_php(false);
        let (logging_on_wall_s, solver) = time_php(true);
        let log = solver.proof().expect("proof logging was on");
        let formula: Vec<Vec<i32>> = f
            .clauses()
            .iter()
            .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
            .collect();
        let mut outcome = checker::check(&formula, log.proof()); // warm-up
        let mut walls = [0f64; FRAIG_REPS];
        for wall in &mut walls {
            let start = Instant::now();
            outcome = checker::check(&formula, log.proof());
            *wall = start.elapsed().as_secs_f64();
        }
        walls.sort_by(f64::total_cmp);
        let counts = outcome
            .as_ref()
            .map_or((0, 0), |o| (o.verified_adds, o.hinted_adds));
        ProofRow {
            logging_off_wall_s,
            logging_on_wall_s,
            overhead_ratio: logging_on_wall_s / logging_off_wall_s.max(1e-9),
            proof_additions: log.additions(),
            proof_deletions: log.deletions(),
            check_wall_s: walls[FRAIG_REPS / 2],
            check_wall_min_s: walls[0],
            check_wall_max_s: walls[FRAIG_REPS - 1],
            check_verified: outcome.is_ok(),
            check_verified_adds: counts.0,
            check_hinted_adds: counts.1,
        }
    };

    // --- observability: zero-cost-when-off + tracing overhead -----------
    // Same php workload, solved three ways: no observer, a
    // disabled-registry observer (which must detach entirely — one branch
    // per probe site), and a full tracing registry. The disabled wall
    // must stay within noise of the baseline; the tracing wall records
    // the real cost of span + counter emission. The tracing run also
    // proves the single-source property: the conflict counts recorded on
    // `sat.solve` span exits sum to exactly the registry's live counter.
    struct ObsRow {
        baseline_wall_s: f64,
        disabled_wall_s: f64,
        disabled_overhead_ratio: f64,
        tracing_wall_s: f64,
        tracing_overhead_ratio: f64,
        events: usize,
        span_conflicts: u64,
        counter_conflicts: u64,
    }
    let obs_row = {
        let f = pigeonhole(php_holes);
        let time_php = |reg: Option<&obs::Registry>| {
            let cfg = SolverConfig::kissat_like();
            let run = || {
                let mut solver = sat::Solver::from_cnf(&f, cfg.clone());
                if let Some(r) = reg {
                    solver.set_observer(r.root());
                }
                assert!(solver.solve().is_unsat(), "php is UNSAT");
            };
            run(); // warm-up
            let start = Instant::now();
            for _ in 0..solver_reps {
                run();
            }
            start.elapsed().as_secs_f64()
        };
        let disabled = obs::Registry::disabled();
        let tracing = obs::Registry::tracing();
        let baseline_wall_s = time_php(None);
        let disabled_wall_s = time_php(Some(&disabled));
        let tracing_wall_s = time_php(Some(&tracing));
        let events = tracing.drain_events();
        obs::check::validate(&events).expect("bench trace stream well-formed");
        let span_conflicts = obs::check::sum_field(&events, "sat.solve", "conflicts");
        let counter_conflicts = tracing.snapshot().value("sat.conflicts").unwrap_or(0);
        assert_eq!(
            span_conflicts, counter_conflicts,
            "span tree and live counter must agree on total conflicts"
        );
        ObsRow {
            baseline_wall_s,
            disabled_wall_s,
            disabled_overhead_ratio: disabled_wall_s / baseline_wall_s.max(1e-9),
            tracing_wall_s,
            tracing_overhead_ratio: tracing_wall_s / baseline_wall_s.max(1e-9),
            events: events.len(),
            span_conflicts,
            counter_conflicts,
        }
    };

    // --- bit-parallel resimulation kernel -------------------------------
    // One row: the compiled full-mode [`aig::SimProgram`] filling a strided
    // matrix from per-block RNG streams. The checksum mixes every word of
    // every rep's matrix, rotated by column, so a wrong row anywhere in the
    // matrix changes it; it is pinned across changes to the kernel.
    let (sim_gates, sim_words, sim_reps) = if smoke {
        (500, 16, 2)
    } else {
        (20_000, 64, 10)
    };
    let g = random_aig(
        &RandomAigParams {
            n_pis: 64,
            n_gates: sim_gates,
            n_pos: 8,
            ..RandomAigParams::default()
        },
        0xC0FFEE,
    );
    struct SimRow {
        wall_s: f64,
        words_simulated: u64,
        words_per_sec: f64,
        checksum: u64,
    }
    let sim_row = {
        let prog = aig::SimProgram::full(&g);
        let mut sigs = aig::sim::SimVectors::zero(g.num_nodes(), sim_words);
        aig::sim::random_columns(&prog, &mut sigs, 0, sim_words, 1); // warm-up
        let start = Instant::now();
        let mut checksum = 0u64;
        for rep in 0..sim_reps {
            aig::sim::random_columns(&prog, &mut sigs, 0, sim_words, rep as u64);
            checksum = checksum.rotate_left(1) ^ sigs.checksum();
        }
        let wall_s = start.elapsed().as_secs_f64();
        let words_simulated = (g.num_nodes() * sim_words * sim_reps) as u64;
        SimRow {
            wall_s,
            words_simulated,
            words_per_sec: words_simulated as f64 / wall_s.max(1e-9),
            checksum,
        }
    };

    // --- fraig (sweep) kernel ------------------------------------------
    // Two kinds of rows per miter: a sequential *trajectory* row
    // (threads=1, one oracle — directly comparable with the PR 2/3
    // numbers), and *scaling* rows with the shard count pinned to the
    // largest tested thread count, so every scaling row does the same
    // sharded work and differs only in scheduling. adder-16 is the
    // historical workload; the wider miter gives each round enough SAT
    // work for thread scaling to show. The smoke miter, adder-12, lists
    // 113 pairs in its first round, so that round spans two 64-pair
    // windows and its counterexamples are replayed mid-round. Each row
    // times FRAIG_REPS runs after one warm-up and reports their median,
    // minimum and maximum.
    let fraig_bits: &[usize] = if smoke { &[12] } else { &[16, 24] };
    let pinned_shards = thread_counts.iter().copied().max().unwrap_or(1);
    struct FraigRow {
        bits: usize,
        threads: usize,
        shards: usize,
        wall_s: f64,
        wall_min_s: f64,
        wall_max_s: f64,
        sat_calls: u64,
        proved: u64,
        disproved: u64,
        cex_patterns: u64,
        rounds: u64,
        deadline_interrupts: u64,
        shard_failures: u64,
        ands_out: usize,
    }
    let mut fraig_rows: Vec<FraigRow> = Vec::new();
    for &bits in fraig_bits {
        let fg = adder_miter(bits);
        let mut run = |threads: usize, shards: usize| {
            // Per-row registry: row telemetry is read back from the
            // published `sweep.stats.*` gauges — the same export path the
            // CLI prints — not from the returned stats struct. The
            // warm-up publishes too; last-write-wins leaves the timed run.
            let reg = obs::Registry::metrics_only();
            let params = FraigParams {
                threads,
                shards,
                obs: reg.clone(),
                ..FraigParams::default()
            };
            let _ = fraig(&fg, &params); // warm-up
            let mut walls = [0f64; FRAIG_REPS];
            let mut ands_out = 0;
            for wall in &mut walls {
                let start = Instant::now();
                let out = fraig(&fg, &params);
                *wall = start.elapsed().as_secs_f64();
                ands_out = out.aig.num_ands();
            }
            walls.sort_by(f64::total_cmp);
            let snap = reg.snapshot();
            let gauge = |k: &str| snap.value(k).unwrap_or(0);
            fraig_rows.push(FraigRow {
                bits,
                threads,
                shards,
                wall_s: walls[FRAIG_REPS / 2],
                wall_min_s: walls[0],
                wall_max_s: walls[FRAIG_REPS - 1],
                sat_calls: gauge("sweep.stats.sat_calls"),
                proved: gauge("sweep.stats.proved"),
                disproved: gauge("sweep.stats.disproved"),
                cex_patterns: gauge("sweep.stats.cex_patterns"),
                rounds: gauge("sweep.stats.rounds"),
                deadline_interrupts: gauge("sweep.stats.deadline_interrupts"),
                shard_failures: gauge("sweep.stats.shard_failures"),
                ands_out,
            });
        };
        // The trajectory row, then one scaling row per thread count.
        run(1, 1);
        for &threads in &thread_counts {
            run(threads, pinned_shards);
        }
    }

    // --- BMC depth sweep: incremental engine vs monolithic baseline -----
    // One machine, every bound up to `bmc_bound`, all queries UNSAT (the
    // counter cannot saturate within the bound). The incremental engine
    // keeps one solver across the sweep; the monolithic baseline
    // re-unrolls, re-encodes and re-solves from scratch per bound — the
    // cumulative conflict gap is the learnt-clause reuse, the wall gap
    // adds the O(k^2) re-encoding.
    let (bmc_bits, bmc_bound) = if smoke { (5, 6) } else { (8, 20) };
    let machine = counter(bmc_bits);
    struct BmcRow {
        name: &'static str,
        bits: usize,
        bound: usize,
        incremental_wall_s: f64,
        incremental_conflicts: u64,
        monolithic_wall_s: f64,
        monolithic_conflicts: u64,
        verdicts_agree: bool,
    }
    let bmc_row = {
        let start = Instant::now();
        let mut engine = BmcEngine::new(&machine, BmcOptions::default());
        let mut inc_clean_per_bound = Vec::with_capacity(bmc_bound);
        for k in 1..=bmc_bound {
            inc_clean_per_bound.push(matches!(engine.check_frames(k), BmcResult::Clean { .. }));
        }
        let incremental_wall_s = start.elapsed().as_secs_f64();
        let incremental_conflicts = engine.stats().conflicts;

        let start = Instant::now();
        let mut monolithic_conflicts = 0u64;
        let mut verdicts_agree = true;
        for k in 1..=bmc_bound {
            let inst = machine.bmc_instance(k);
            let (f, _) = cnf::tseitin_sat_instance(&inst);
            let (res, stats) = solve_cnf(&f, SolverConfig::default(), Budget::UNLIMITED);
            monolithic_conflicts += stats.conflicts;
            verdicts_agree &= res.is_unsat() == inc_clean_per_bound[k - 1];
        }
        let monolithic_wall_s = start.elapsed().as_secs_f64();
        BmcRow {
            name: "bmc_counter",
            bits: bmc_bits,
            bound: bmc_bound,
            incremental_wall_s,
            incremental_conflicts,
            monolithic_wall_s,
            monolithic_conflicts,
            verdicts_agree,
        }
    };

    // --- serve: concurrent query engine throughput ----------------------
    // A regression-shaped LEC stream: one base adder pair plus a few
    // function-preserving restructured near-duplicates, each submitted
    // repeatedly. Repeats of an already-answered cone are cache hits (the
    // UNSAT certificate re-verifies once, then the hit is free); the
    // near-duplicates are distinct cache keys and solve live. Each worker
    // count gets a fresh engine with a cold cache, so rows are comparable:
    // qps folds solve + certificate-check + cache-service time together.
    // A clean run must report zero sheds/retries/failures — nonzero means
    // the row was degraded and CI's perf-smoke job fails the build.
    let (serve_bits, serve_queries, serve_variants) = if smoke { (3, 12, 3) } else { (6, 48, 3) };
    struct ServeRow {
        workers: usize,
        queries: usize,
        wall_s: f64,
        qps: f64,
        cache_hits: u64,
        cache_hit_rate: f64,
        certs_verified: u64,
        retries: u64,
        sheds: u64,
        failures: u64,
    }
    let serve_rows: Vec<ServeRow> = {
        use serve::{Engine, EngineConfig, Query, QueryOpts};
        use workloads::lec::restructure;
        let a = ripple_carry_adder(serve_bits).aig;
        let b = carry_lookahead_adder(serve_bits).aig;
        let pairs: Vec<(aig::Aig, aig::Aig)> = std::iter::once(b.clone())
            .chain((0..serve_variants as u64).map(|v| restructure(&b, 0x5e12_0000 + v)))
            .map(|rhs| (a.clone(), rhs))
            .collect();
        let stream: Vec<(Query, QueryOpts)> = (0..serve_queries)
            .map(|i| {
                let (l, r) = &pairs[i % pairs.len()];
                (Query::Lec(l.clone(), r.clone()), QueryOpts::default())
            })
            .collect();
        thread_counts
            .iter()
            .map(|&workers| {
                // Per-row registry: telemetry is read back from the
                // `serve.stats.*` gauges the engine publishes — the same
                // snapshot the CLI's `stats` command serves.
                let reg = obs::Registry::metrics_only();
                let engine = Engine::new(EngineConfig {
                    workers,
                    obs: reg.clone(),
                    ..EngineConfig::default()
                });
                let start = Instant::now();
                let responses = engine.run_batch(&stream);
                let wall_s = start.elapsed().as_secs_f64();
                assert!(
                    responses.iter().all(|r| r.verdict.is_unsat()),
                    "the adder LEC stream is all-UNSAT"
                );
                engine.stats().publish(&reg);
                engine.shutdown();
                let snap = reg.snapshot();
                let gauge = |k: &str| snap.value(k).unwrap_or(0);
                let cache_hits = gauge("serve.stats.cache_hits");
                ServeRow {
                    workers,
                    queries: serve_queries,
                    wall_s,
                    qps: serve_queries as f64 / wall_s.max(1e-9),
                    cache_hits,
                    cache_hit_rate: cache_hits as f64 / serve_queries as f64,
                    certs_verified: gauge("serve.stats.certs_verified"),
                    retries: gauge("serve.stats.retries"),
                    sheds: gauge("serve.stats.sheds"),
                    failures: gauge("serve.stats.failures"),
                }
            })
            .collect()
    };

    // --- report ---------------------------------------------------------
    // Solver totals come from the shared registry snapshot — the same
    // source `csat --metrics` prints — cross-checked against the per-row
    // struct sums so the two export paths can never silently diverge.
    let total_props: u64 = solver_reg
        .snapshot()
        .value("sat.propagations")
        .expect("observed solver reps registered the counter");
    assert_eq!(
        total_props,
        solver_rows.iter().map(|r| r.propagations).sum::<u64>(),
        "registry counter and per-row stats sums must agree"
    );
    let total_solver_wall: f64 = solver_rows.iter().map(|r| r.wall_s).sum();
    let fraig_wall: f64 = fraig_rows.iter().map(|r| r.wall_s).sum();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    // Machine context: what must match for cross-PR rows to be comparable.
    let _ = writeln!(
        json,
        "  \"context\": {{\"available_parallelism\": {}, \"threads_tested\": [{}], \"build_profile\": \"{}\", \"debug_assertions\": {}}},",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        thread_counts
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cfg!(debug_assertions)
    );
    json.push_str("  \"solver\": [\n");
    for (i, r) in solver_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"wall_s\": {:.6}, \"propagations\": {}, \"conflicts\": {}, \"props_per_sec\": {:.0}, \"deadline_interrupts\": {}, \"cancellations\": {}}}{}",
            r.name,
            r.wall_s,
            r.propagations,
            r.conflicts,
            r.props_per_sec,
            r.deadline_interrupts,
            r.cancellations,
            if i + 1 < solver_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    {
        let r = &proof_row;
        let _ = writeln!(
            json,
            "  \"proof\": {{\"name\": \"php\", \"holes\": {php_holes}, \"reps\": {solver_reps}, \"logging_off_wall_s\": {:.6}, \"logging_on_wall_s\": {:.6}, \"overhead_ratio\": {:.4}, \"proof_additions\": {}, \"proof_deletions\": {}, \"check_reps\": {FRAIG_REPS}, \"check_wall_s\": {:.6}, \"check_wall_min_s\": {:.6}, \"check_wall_max_s\": {:.6}, \"check_verified\": {}, \"check_verified_adds\": {}, \"check_hinted_adds\": {}}},",
            r.logging_off_wall_s,
            r.logging_on_wall_s,
            r.overhead_ratio,
            r.proof_additions,
            r.proof_deletions,
            r.check_wall_s,
            r.check_wall_min_s,
            r.check_wall_max_s,
            r.check_verified,
            r.check_verified_adds,
            r.check_hinted_adds
        );
    }
    {
        let r = &obs_row;
        let _ = writeln!(
            json,
            "  \"obs\": {{\"name\": \"php\", \"holes\": {php_holes}, \"reps\": {solver_reps}, \"baseline_wall_s\": {:.6}, \"disabled_wall_s\": {:.6}, \"disabled_overhead_ratio\": {:.4}, \"tracing_wall_s\": {:.6}, \"tracing_overhead_ratio\": {:.4}, \"events\": {}, \"span_conflicts\": {}, \"counter_conflicts\": {}}},",
            r.baseline_wall_s,
            r.disabled_wall_s,
            r.disabled_overhead_ratio,
            r.tracing_wall_s,
            r.tracing_overhead_ratio,
            r.events,
            r.span_conflicts,
            r.counter_conflicts
        );
    }
    json.push_str("  \"sim\": [\n");
    {
        let r = &sim_row;
        let _ = writeln!(
            json,
            "    {{\"nodes\": {}, \"words\": {}, \"reps\": {}, \"wall_s\": {:.6}, \"words_simulated\": {}, \"words_per_sec\": {:.0}, \"checksum\": {}}}",
            g.num_nodes(),
            sim_words,
            sim_reps,
            r.wall_s,
            r.words_simulated,
            r.words_per_sec,
            r.checksum
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"fraig\": [\n");
    for (i, r) in fraig_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"bits\": {}, \"threads\": {}, \"shards\": {}, \"reps\": {FRAIG_REPS}, \"wall_s\": {:.6}, \"wall_min_s\": {:.6}, \"wall_max_s\": {:.6}, \"sat_calls\": {}, \"proved\": {}, \"disproved\": {}, \"cex_patterns\": {}, \"rounds\": {}, \"ands_out\": {}, \"deadline_interrupts\": {}, \"shard_failures\": {}}}{}",
            r.bits,
            r.threads,
            r.shards,
            r.wall_s,
            r.wall_min_s,
            r.wall_max_s,
            r.sat_calls,
            r.proved,
            r.disproved,
            r.cex_patterns,
            r.rounds,
            r.ands_out,
            r.deadline_interrupts,
            r.shard_failures,
            if i + 1 < fraig_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"bmc\": [\n");
    {
        let r = &bmc_row;
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"bits\": {}, \"bound\": {}, \"incremental_wall_s\": {:.6}, \"incremental_conflicts\": {}, \"monolithic_wall_s\": {:.6}, \"monolithic_conflicts\": {}, \"verdicts_agree\": {}}}",
            r.name,
            r.bits,
            r.bound,
            r.incremental_wall_s,
            r.incremental_conflicts,
            r.monolithic_wall_s,
            r.monolithic_conflicts,
            r.verdicts_agree
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"serve\": [\n");
    for (i, r) in serve_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"bits\": {serve_bits}, \"workers\": {}, \"queries\": {}, \"wall_s\": {:.6}, \"qps\": {:.1}, \"cache_hits\": {}, \"cache_hit_rate\": {:.4}, \"certs_verified\": {}, \"retries\": {}, \"sheds\": {}, \"failures\": {}}}{}",
            r.workers,
            r.queries,
            r.wall_s,
            r.qps,
            r.cache_hits,
            r.cache_hit_rate,
            r.certs_verified,
            r.retries,
            r.sheds,
            r.failures,
            if i + 1 < serve_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    // Failure telemetry: a healthy, unthrottled bench run reports zeros
    // here; anything else means the run was degraded and its perf rows
    // should not be compared against clean baselines.
    let total_deadline_interrupts: u64 = solver_rows
        .iter()
        .map(|r| r.deadline_interrupts)
        .chain(fraig_rows.iter().map(|r| r.deadline_interrupts))
        .sum();
    let total_cancellations: u64 = solver_rows.iter().map(|r| r.cancellations).sum();
    let total_shard_failures: u64 = fraig_rows.iter().map(|r| r.shard_failures).sum();
    let serve_wall: f64 = serve_rows.iter().map(|r| r.wall_s).sum();
    let serve_hits: u64 = serve_rows.iter().map(|r| r.cache_hits).sum();
    let serve_total_queries: u64 = serve_rows.iter().map(|r| r.queries as u64).sum();
    let serve_retries: u64 = serve_rows.iter().map(|r| r.retries).sum();
    let serve_sheds: u64 = serve_rows.iter().map(|r| r.sheds).sum();
    let serve_failures: u64 = serve_rows.iter().map(|r| r.failures).sum();
    let _ = writeln!(
        json,
        "  \"totals\": {{\"wall_s\": {:.6}, \"propagations_per_sec\": {:.0}, \"words_per_sec\": {:.0}, \"deadline_interrupts\": {}, \"cancellations\": {}, \"shard_failures\": {}, \"serve_cache_hit_rate\": {:.4}, \"serve_retries\": {}, \"serve_sheds\": {}, \"serve_failures\": {}}}",
        total_solver_wall + sim_row.wall_s + fraig_wall + bmc_row.incremental_wall_s
            + bmc_row.monolithic_wall_s + serve_wall,
        total_props as f64 / total_solver_wall.max(1e-9),
        sim_row.words_per_sec,
        total_deadline_interrupts,
        total_cancellations,
        total_shard_failures,
        serve_hits as f64 / (serve_total_queries as f64).max(1.0),
        serve_retries,
        serve_sheds,
        serve_failures
    );
    json.push_str("}\n");

    std::fs::write(out_path, &json).expect("write BENCH_hotpath.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
