//! Parallel/sequential equivalence of the sweep engine.
//!
//! The fraig engine's concurrency contract is that for a pinned shard
//! count the thread count changes *nothing* about the result: the pairs
//! of each 64-pair window are assigned to logical oracle shards by index,
//! every shard's query sequence is fixed, and each window's answers are
//! merged in pair order. These tests check the contract the hard way —
//! running the same sweeps at 1 and 4 threads and demanding bit-identical
//! [`FraigOutcome`]s (same merges, same stats, same rebuilt graph) — and
//! keep the solver's two-tier watcher/reason integrity audit running on
//! every shard while they do (the oracle calls `Solver::assert_integrity`
//! after each query in debug builds, which is how `cargo test` and the CI
//! paranoia job run).

use aig::check::{exhaustive_equiv, sim_equiv};
use aig::Aig;
use proptest::prelude::*;
use sweep::{fraig, ChaosPlan, FraigOutcome, FraigParams, FraigStats};
use workloads::lec::{adder_miter, miter, restructure};
use workloads::random_aig::{random_aig, RandomAigParams};

/// Structural equality of two graphs, node for node.
fn same_aig(a: &Aig, b: &Aig) -> bool {
    a.num_nodes() == b.num_nodes()
        && a.pis() == b.pis()
        && a.pos() == b.pos()
        && a.iter_ands().zip(b.iter_ands()).all(|(va, vb)| {
            let (na, nb) = (a.node(va), b.node(vb));
            va == vb && na.fanin0() == nb.fanin0() && na.fanin1() == nb.fanin1()
        })
}

/// Asserts two outcomes are bit-identical; returns the shared outcome.
fn assert_identical(a: &FraigOutcome, b: &FraigOutcome) {
    assert_eq!(a.stats, b.stats, "run counters diverged");
    assert!(same_aig(&a.aig, &b.aig), "rebuilt graphs diverged");
}

proptest! {
    /// Random equivalence miters: a random graph against a functionally
    /// identical, structurally perturbed copy. Sequential and 4-thread
    /// sweeps must produce the same merges, the same counterexample
    /// trajectory (visible through the stats), and the same output graph —
    /// which must itself stay equivalent to the input.
    #[test]
    fn parallel_fraig_matches_sequential(seed in 0u64..10_000, n_gates in 20usize..100) {
        let g = random_aig(
            &RandomAigParams {
                n_pis: 7,
                n_gates,
                n_pos: 3,
                ..RandomAigParams::default()
            },
            seed,
        );
        let m = miter(&g, &restructure(&g, seed ^ 0xD1CE));
        // 17 sim words = 3 simulation blocks, so the parallel resimulation
        // path (not just the sharded oracles) is exercised; 4 pinned
        // shards make the outcome a pure function of the input.
        let base = FraigParams { sim_words: 17, shards: 4, ..FraigParams::default() };
        let seq = fraig(&m, &FraigParams { threads: 1, ..base.clone() });
        let par = fraig(&m, &FraigParams { threads: 4, ..base.clone() });
        assert_identical(&seq, &par);
        prop_assert!(exhaustive_equiv(&m, &par.aig), "sweep must preserve the function");
    }
}

proptest! {
    /// Tight budgets force `Unknown` answers and per-shard budget clocks
    /// into play; the outcome must still be thread-count-invariant.
    #[test]
    fn parallel_fraig_matches_sequential_under_budget_pressure(seed in 0u64..10_000) {
        let g = random_aig(
            &RandomAigParams {
                n_pis: 6,
                n_gates: 60,
                n_pos: 2,
                ..RandomAigParams::default()
            },
            seed,
        );
        let m = miter(&g, &restructure(&g, seed ^ 0xBEEF));
        let base = FraigParams { conflict_budget: 3, shards: 4, ..FraigParams::default() };
        let seq = fraig(&m, &FraigParams { threads: 1, ..base.clone() });
        let par = fraig(&m, &FraigParams { threads: 4, ..base.clone() });
        assert_identical(&seq, &par);
        prop_assert!(sim_equiv(&m, &par.aig, 8, 11));
    }
}

/// The adder miter at a size where every round carries real SAT work:
/// parallel sweeping must collapse it to constant false exactly like the
/// sequential engine, with the solver integrity audit live on every shard
/// (debug builds run `assert_integrity` after each oracle query).
#[test]
fn integrity_audited_parallel_sweep_collapses_adder_miter() {
    let m = adder_miter(8);
    let base = FraigParams {
        shards: 4,
        ..FraigParams::default()
    };
    let seq = fraig(
        &m,
        &FraigParams {
            threads: 1,
            ..base.clone()
        },
    );
    let par = fraig(
        &m,
        &FraigParams {
            threads: 4,
            ..base.clone()
        },
    );
    assert_identical(&seq, &par);
    assert_eq!(
        par.aig.pos()[0],
        aig::Lit::FALSE,
        "equivalent adders: miter is 0"
    );
    assert_eq!(par.aig.num_ands(), 0);
    assert!(par.stats.proved > 0);
}

/// A certified sweep checks each merge's UNSAT answer with the independent
/// proof checker and otherwise decides exactly as a plain one: the same
/// graph, the same counters, and one accepted certificate per proved pair.
#[test]
fn certified_fraig_matches_plain_and_certifies_every_merge() {
    for (bits, proved) in [(4, 12), (8, 44), (12, 76)] {
        let m = adder_miter(bits);
        let plain = fraig(&m, &FraigParams::default());
        let certified = fraig(
            &m,
            &FraigParams {
                certify: true,
                ..FraigParams::default()
            },
        );
        assert_eq!(plain.stats.certified, 0, "bits={bits}");
        assert_eq!(certified.stats.proved, proved, "bits={bits}");
        assert_eq!(certified.stats.certified, proved as u64, "bits={bits}");
        assert_identical(
            &plain,
            &FraigOutcome {
                stats: FraigStats {
                    certified: 0,
                    ..certified.stats
                },
                aig: certified.aig,
            },
        );
    }
}

/// An observed sweep counts every oracle solve, traced or not. The shard
/// oracles hang under `sweep.shard` spans, which a metrics-only registry
/// does not record, yet its counters must still reach them: every
/// `sat::Stats` counter is registered as `sat.<name>`, the metrics-only
/// and tracing runs of one pinned-shard sweep agree on each, the per-solve
/// span fields sum to the counters, and `sweep.stats.*` equals the
/// returned stats.
#[test]
fn observed_fraig_counts_every_oracle_solve() {
    let m = adder_miter(8);
    let run = |reg: &obs::Registry| {
        let params = FraigParams {
            threads: 1,
            shards: 2,
            obs: reg.clone(),
            ..FraigParams::default()
        };
        (fraig(&m, &params), reg.snapshot())
    };
    let tracing = obs::Registry::tracing();
    let (traced, snap) = run(&tracing);
    let (plain, metrics) = run(&obs::Registry::metrics_only());
    assert_identical(&traced, &plain);
    for (name, value) in traced.stats.counters() {
        let key = format!("sweep.stats.{name}");
        assert_eq!(snap.value(&key), Some(value), "{key}");
    }
    for (name, _) in sat::Stats::default().counters() {
        let key = format!("sat.{name}");
        assert!(snap.value(&key).is_some(), "{key} is registered");
        assert_eq!(metrics.value(&key), snap.value(&key), "{key}");
    }
    assert!(snap.value("sat.learnt_clauses") > Some(0));
    let events = tracing.drain_events();
    obs::check::validate(&events).expect("well-formed");
    for field in ["conflicts", "decisions", "propagations", "ticks"] {
        let spans = obs::check::sum_field(&events, "sat.solve", field);
        assert_eq!(Some(spans), snap.value(&format!("sat.{field}")), "{field}");
    }
}

/// Auto thread selection (`threads = 0`) must also match an explicit
/// thread count for a given shard count — on any machine, with any core
/// count.
#[test]
fn auto_threads_match_sequential_under_pinned_shards() {
    let m = adder_miter(6);
    let base = FraigParams {
        shards: 2,
        ..FraigParams::default()
    };
    let auto = fraig(&m, &base);
    let seq = fraig(
        &m,
        &FraigParams {
            threads: 1,
            ..base.clone()
        },
    );
    assert_identical(&auto, &seq);
}

/// Rounds that span several 64-pair windows. The 24-bit adder miter lists
/// hundreds of candidate pairs per round, so each window's counterexamples
/// are replayed, and the pairs they separate dropped, before the next
/// window is formed. Every refutation must reach simulation, and the
/// pinned-shard outcome must stay thread-count-invariant, with and without
/// injected `Unknown` answers.
#[test]
fn multi_window_rounds_replay_every_counterexample() {
    let m = adder_miter(24);
    let single = fraig(
        &m,
        &FraigParams {
            threads: 1,
            shards: 1,
            ..FraigParams::default()
        },
    );
    let s = single.stats;
    assert!(
        s.sat_calls > 64 * s.rounds as u64,
        "some round spans several windows: {s:?}"
    );
    assert_eq!(s.cex_patterns, s.disproved, "every refutation is replayed");
    // A round-at-once sweep that replays at most 64 counterexamples per
    // round makes 991 calls here (819 refutations, 256 replayed).
    assert!(s.sat_calls < 991, "{s:?}");
    assert_eq!(single.aig.num_ands(), 0, "equivalent adders: miter is 0");

    for chaos in [
        None,
        Some(ChaosPlan {
            seed: 24,
            unknown_in_1024: 200,
            ..ChaosPlan::default()
        }),
    ] {
        let base = FraigParams {
            shards: 4,
            chaos,
            ..FraigParams::default()
        };
        let outcomes: Vec<FraigOutcome> = [1, 2, 4]
            .iter()
            .map(|&threads| {
                fraig(
                    &m,
                    &FraigParams {
                        threads,
                        ..base.clone()
                    },
                )
            })
            .collect();
        assert_identical(&outcomes[0], &outcomes[1]);
        assert_identical(&outcomes[0], &outcomes[2]);
        let s = outcomes[0].stats;
        assert_eq!(s.cex_patterns, s.disproved, "{chaos:?}");
        if chaos.is_some() {
            assert!(s.unknown > 0, "the storm must eat some queries: {s:?}");
        }
        assert!(sim_equiv(&m, &outcomes[0].aig, 8, 5));
    }
}
