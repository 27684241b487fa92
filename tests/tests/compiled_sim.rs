//! Differential tests: the compiled simulation engine vs a scalar
//! reference.
//!
//! [`aig::SimProgram`] is the workspace's one simulation engine: it lowers
//! an AIG into a flat, level-ordered program of fused word-ops, and every
//! signature matrix (sweep classes, resub filters, the RL embedding, ATPG
//! fault filtering, `check::sim_equiv`) is its output. These tests hold it
//! to the scalar `Aig::eval` interpreter, which shares no code with it,
//! through [`csat_tests::eval_node_words`]:
//!
//! * random AIGs: every node's row of a full-mode random fill, column by
//!   column, equals `eval` on the PI words that column holds;
//! * adversarial edge shapes (constant POs, PI passthroughs, duplicated
//!   and complemented POs, deep fanout-free chains that the outputs-only
//!   compiler fuses into multi-input ops);
//! * counterexample-style replay columns (`simulate_columns`) on explicit
//!   PI patterns;
//! * the compiled sequential stepper: `SeqAig::simulate_words` lanes ==
//!   64 independent step-by-step bool simulations (`unroll` + `eval` is
//!   covered by `mc_differential`; here the oracle is per-frame `eval`
//!   of the core);
//! * pinned outputs: a random fill's checksum and the sweep's counters on
//!   a fixed miter, so a drift in the random streams or the kernel that
//!   stays self-consistent still fails.

use aig::seq::SeqAig;
use aig::sim::{random_columns, random_signatures, simulate_columns, SimVectors};
use aig::{Aig, Lit, SimProgram};
use csat_tests::eval_node_words;
use proptest::prelude::*;
use sweep::{fraig, FraigParams, FraigStats};
use workloads::lec::adder_miter;
use workloads::random_aig::{random_aig, RandomAigParams};

fn random_graph(gates: usize, pis: usize, seed: u64) -> Aig {
    random_aig(
        &RandomAigParams {
            n_pis: pis,
            n_gates: gates,
            n_pos: 4,
            ..RandomAigParams::default()
        },
        seed,
    )
}

/// Asserts that column `w` of a full-mode matrix matches the scalar
/// reference on the PI words the column holds.
fn assert_column_matches_eval(g: &Aig, sigs: &SimVectors, w: usize) {
    let pi_words: Vec<u64> = g
        .pis()
        .iter()
        .map(|&pi| sigs.word(pi as usize, w))
        .collect();
    for (v, expect) in eval_node_words(g, &pi_words).into_iter().enumerate() {
        assert_eq!(sigs.word(v, w), expect, "node {v}, column {w}");
    }
}

/// A compiled random fill checked column by column against the scalar
/// reference; `random_signatures` must produce the same matrix.
fn assert_fill_matches_eval(g: &Aig, n_words: usize, seed: u64) {
    let mut sigs = SimVectors::zero(g.num_nodes(), n_words);
    random_columns(&SimProgram::full(g), &mut sigs, 0, n_words, seed);
    for w in 0..n_words {
        assert_column_matches_eval(g, &sigs, w);
    }
    assert_eq!(sigs, random_signatures(g, n_words, seed));
}

/// Edge shapes the fold/fusion paths must survive: constant POs, PI
/// passthroughs (plain and complemented), one PO repeated, and a deep
/// fanout-free AND chain (fused into multi-input ops by the
/// outputs-only compiler, node-per-node in full mode).
fn edge_shape() -> Aig {
    let mut g = Aig::new();
    let pis = g.add_pis(9);
    g.add_po(Lit::FALSE);
    g.add_po(Lit::TRUE);
    g.add_po(pis[0]);
    g.add_po(!pis[0]);
    let chain = g.and_many(&pis);
    g.add_po(chain);
    g.add_po(chain);
    g.add_po(!chain);
    let x = g.xor(pis[1], pis[2]);
    let gated = g.and(x, !pis[3]);
    g.add_po(gated);
    g
}

#[test]
fn edge_shapes_fill_identically() {
    assert_fill_matches_eval(&edge_shape(), 8, 0xDEAD_BEEF);
}

#[test]
fn edge_shape_outputs_only_program_matches_eval() {
    let g = edge_shape();
    let prog = SimProgram::outputs_only(&g);
    assert_eq!(prog.num_outputs(), g.num_pos());
    let n = g.num_pis();
    for pattern in 0..1u32 << n {
        let ins: Vec<bool> = (0..n).map(|i| pattern >> i & 1 != 0).collect();
        let expect = g.eval(&ins);
        let pi_words: Vec<u64> = ins.iter().map(|&b| u64::from(b)).collect();
        let mut vals = Vec::new();
        prog.run_dense(&mut vals, 1, &pi_words);
        for (o, &e) in expect.iter().enumerate() {
            assert_eq!(
                prog.output(o).read(&vals, 1, 0) & 1 != 0,
                e,
                "PO {o} under pattern {pattern:#b}"
            );
        }
    }
}

/// A random fill and the single-oracle sweep on a fixed miter, pinned.
/// Any change to the random streams, the replay columns or the kernel
/// moves the checksums and the sweep's candidate classes, and with them
/// these counters.
#[test]
fn random_fill_and_sweep_outcome_are_pinned() {
    let g = random_graph(300, 16, 7);
    for (n_words, pinned) in [
        (2, 7_634_426_004_716_547_239u64),
        (8, 12_363_071_666_897_063_444),
        (17, 14_701_206_547_840_851_786),
    ] {
        assert_eq!(random_signatures(&g, n_words, 99).checksum(), pinned);
    }
    let out = fraig(
        &adder_miter(12),
        &FraigParams {
            threads: 1,
            ..FraigParams::default()
        },
    );
    assert_eq!(
        out.stats,
        FraigStats {
            rounds: 4,
            sat_calls: 128,
            proved: 76,
            disproved: 52,
            unknown: 0,
            cex_patterns: 52,
            deadline_interrupts: 0,
            shard_failures: 0,
            certified: 0,
        }
    );
    assert_eq!(out.aig.num_ands(), 0);
}

proptest! {
    /// Compiled full-mode fills match the scalar `Aig::eval` interpreter,
    /// node by node and column by column, on random AIGs.
    #[test]
    fn compiled_matches_interpreter_on_random_aigs(
        gates in 1usize..120,
        pis in 1usize..12,
        words in 1usize..10,
        seed in any::<u64>(),
    ) {
        assert_fill_matches_eval(&random_graph(gates, pis, seed), words, seed);
    }

    /// Replay columns (explicit PI words, the sweeper's counterexample
    /// path) match the scalar interpreter and leave other columns alone.
    #[test]
    fn compiled_replay_matches_interpreter(
        gates in 1usize..80,
        pis in 1usize..8,
        seed in any::<u64>(),
        pi_fill in any::<u64>(),
    ) {
        let g = random_graph(gates, pis, seed);
        let prog = SimProgram::full(&g);
        let patterns: Vec<Vec<u64>> = (0..3u64)
            .map(|w| (0..pis as u64).map(|i| pi_fill.rotate_left((w * 13 + i * 7) as u32)).collect())
            .collect();
        let jobs: Vec<(usize, &[u64])> = patterns
            .iter()
            .enumerate()
            .map(|(w, p)| (w * 2, p.as_slice()))
            .collect();
        let mut sigs = SimVectors::zero(g.num_nodes(), 6);
        simulate_columns(&prog, &mut sigs, &jobs);
        for (k, pattern) in patterns.iter().enumerate() {
            for (v, e) in eval_node_words(&g, pattern).into_iter().enumerate() {
                prop_assert_eq!(sigs.word(v, 2 * k), e, "node {} column {}", v, 2 * k);
                prop_assert_eq!(sigs.word(v, 2 * k + 1), 0, "untouched column {}", 2 * k + 1);
            }
        }
    }

    /// Every lane of the compiled sequential stepper is an independent
    /// machine: `simulate_words` with 64 packed traces matches 64
    /// separate per-frame `eval` walks of the core.
    #[test]
    fn stepper_lanes_match_per_frame_eval(
        pis in 1usize..3,
        latches in 1usize..4,
        gates in 4usize..40,
        frames in 1usize..6,
        seed in any::<u64>(),
        stim in any::<u64>(),
    ) {
        let core = random_aig(
            &RandomAigParams {
                n_pis: pis + latches,
                n_gates: gates,
                n_pos: 2 + latches,
                ..RandomAigParams::default()
            },
            seed,
        );
        let m = SeqAig::new(core, pis, latches);
        // Frame-major word stimulus; lane `l` reads bit `l`.
        let stimulus: Vec<Vec<u64>> = (0..frames)
            .map(|t| (0..pis).map(|i| stim.rotate_left((t * pis + i) as u32 * 11)).collect())
            .collect();
        let outs = m.simulate_words(&stimulus);
        prop_assert_eq!(outs.len(), frames);
        for lane in [0usize, 1, 31, 63] {
            // Bool oracle: walk the core with `eval`, threading latch
            // state by hand.
            let mut state = vec![false; latches];
            for (t, frame) in stimulus.iter().enumerate() {
                let mut ins: Vec<bool> =
                    frame.iter().map(|&w| w >> lane & 1 != 0).collect();
                ins.extend(state.iter().copied());
                let full = m.comb().eval(&ins);
                for (o, &e) in full[..m.num_pos()].iter().enumerate() {
                    prop_assert_eq!(
                        outs[t][o] >> lane & 1 != 0,
                        e,
                        "lane {} frame {} PO {}",
                        lane,
                        t,
                        o
                    );
                }
                state = full[m.num_pos()..].to_vec();
            }
        }
    }
}
