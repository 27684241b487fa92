//! Differential tests for the `mc` model-checking subsystem.
//!
//! Two oracles keep the incremental engines honest:
//!
//! * `SeqAig::simulate` — step-by-step semantics. Time-frame expansion
//!   (`unroll`) plus combinational evaluation must agree with it on random
//!   machines, and every counterexample trace must replay to a violation.
//! * The monolithic pipeline — `SeqAig::bmc_instance(k)` through Tseitin
//!   and a fresh solver per bound. The incremental `mc::bmc` engine (one
//!   persistent solver, activation-literal-guarded frames) must reproduce
//!   its SAT/UNSAT-at-depth verdict at every bound.

use aig::seq::SeqAig;
use mc::{prove, BmcEngine, BmcOptions, BmcResult, KindResult, Preprocess};
use proptest::prelude::*;
use sat::{solve_cnf, Budget, SolverConfig};
use workloads::random_aig::{random_aig, RandomAigParams};
use workloads::seq::{counter, mod_counter, pattern_fsm, retimed_adder_lec};

/// Builds a random sequential machine: a layered random core with `pis`
/// real inputs, `latches` state bits, and one real PO as the bad signal.
fn random_machine(pis: usize, latches: usize, gates: usize, seed: u64) -> SeqAig {
    let core = random_aig(
        &RandomAigParams {
            n_pis: pis + latches,
            n_gates: gates,
            n_pos: 1 + latches,
            ..RandomAigParams::default()
        },
        seed,
    );
    SeqAig::new(core, pis, latches)
}

/// Monolithic BMC verdict at bound `k`: is some frame `0..k` violable?
fn monolithic_sat(seq: &SeqAig, k: usize) -> bool {
    let inst = seq.bmc_instance(k);
    let (f, _) = cnf::tseitin_sat_instance(&inst);
    let (res, _) = solve_cnf(&f, SolverConfig::default(), Budget::UNLIMITED);
    assert!(
        !matches!(res, sat::SolveResult::Unknown),
        "unbudgeted solve cannot be unknown"
    );
    res.is_sat()
}

/// Checks the incremental engine against the monolithic baseline for every
/// bound `1..=max_k`, and validates any counterexample trace end-to-end.
fn differential_bmc(seq: &SeqAig, max_k: usize) {
    let mut engine = BmcEngine::new(seq, BmcOptions::default());
    for k in 1..=max_k {
        let incremental = engine.check_frames(k);
        let mono_sat = monolithic_sat(seq, k);
        match incremental {
            BmcResult::Clean { frames } => {
                assert_eq!(frames, k);
                assert!(
                    !mono_sat,
                    "monolithic found a cex the engine missed at k={k}"
                );
            }
            BmcResult::Cex { depth, ref trace } => {
                assert!(
                    mono_sat,
                    "engine cex at depth {depth} but monolithic UNSAT at k={k}"
                );
                assert!(depth < k);
                assert_eq!(trace.len(), depth + 1);
                assert!(trace.iter().all(|f| f.len() == seq.num_pis()));
                let outs = seq.simulate(trace);
                assert!(
                    outs[depth].iter().any(|&o| o),
                    "trace must replay to a violation at its reported depth"
                );
                assert!(
                    outs[..depth].iter().all(|o| !o.iter().any(|&x| x)),
                    "reported depth must be minimal"
                );
            }
            BmcResult::Unknown { frame } => panic!("unbudgeted query unknown at frame {frame}"),
        }
    }
}

#[test]
fn fixed_workloads_match_monolithic_to_depth_12() {
    differential_bmc(&counter(3), 12); // cex at depth 7
    differential_bmc(&mod_counter(3, 6), 12); // clean forever
    differential_bmc(&pattern_fsm(&[true, false, true]), 12); // cex at depth 3
    differential_bmc(&retimed_adder_lec(2), 12); // clean forever
}

#[test]
fn preprocessed_engine_matches_monolithic() {
    // The synthesis front end must not change any verdict.
    let m = counter(3);
    let mut engine = BmcEngine::new(
        &m,
        BmcOptions {
            preprocess: Preprocess::Synth(synth::Recipe::size_script()),
            ..BmcOptions::default()
        },
    );
    for k in 1..=12 {
        let sat = engine.check_frames(k).is_cex();
        assert_eq!(sat, monolithic_sat(&m, k), "k={k}");
    }
}

#[test]
fn kind_proves_what_bmc_cannot_close() {
    // The modulo-6 counter's bad state is unreachable: BMC stays clean at
    // every tested bound (it can never *prove* anything), k-induction
    // closes the property outright.
    let m = mod_counter(3, 6);
    assert_eq!(
        BmcEngine::new(&m, BmcOptions::default()).check_frames(30),
        BmcResult::Clean { frames: 30 }
    );
    match prove(&m, 8, &BmcOptions::default()) {
        KindResult::Proved { k } => assert!(k <= 3),
        other => panic!("expected proof, got {other:?}"),
    }
    // And on a falsifiable machine, kind degrades to exactly the BMC cex.
    match prove(&counter(3), 10, &BmcOptions::default()) {
        KindResult::Cex { depth: 7, trace } => {
            assert!(counter(3).simulate(&trace)[7][0]);
        }
        other => panic!("expected the depth-7 counterexample, got {other:?}"),
    }
}

proptest! {
    /// Time-frame expansion is the machine: `unroll(k)` + combinational
    /// evaluation ≡ step-by-step simulation on random machines and random
    /// stimuli.
    #[test]
    fn unroll_matches_simulation(
        pis in 1usize..4,
        latches in 0usize..5,
        gates in 4usize..40,
        k in 1usize..7,
        seed in any::<u64>(),
        stimulus_bits in any::<u64>(),
    ) {
        let m = random_machine(pis, latches, gates, seed);
        let unrolled = m.unroll(k);
        prop_assert_eq!(unrolled.num_pis(), k * pis);
        prop_assert_eq!(unrolled.num_pos(), k * m.num_pos());
        let stimulus: Vec<Vec<bool>> = (0..k)
            .map(|t| (0..pis).map(|i| stimulus_bits >> ((t * pis + i) % 64) & 1 != 0).collect())
            .collect();
        let seq_out = m.simulate(&stimulus);
        let flat: Vec<bool> = stimulus.iter().flatten().copied().collect();
        let comb_out = unrolled.eval(&flat);
        let expect: Vec<bool> = seq_out.iter().flatten().copied().collect();
        prop_assert_eq!(comb_out, expect);
    }

    /// The incremental engine agrees with the monolithic baseline on
    /// random machines at every bound.
    #[test]
    fn incremental_bmc_matches_monolithic(
        pis in 1usize..3,
        latches in 0usize..4,
        gates in 4usize..30,
        seed in any::<u64>(),
    ) {
        let m = random_machine(pis, latches, gates, seed);
        differential_bmc(&m, 8);
    }

    /// Sequential AIGER round-trip: write + read preserves machine
    /// behaviour on random machines.
    #[test]
    fn seq_aiger_roundtrip(
        pis in 1usize..4,
        latches in 0usize..5,
        gates in 4usize..40,
        seed in any::<u64>(),
        stimulus_bits in any::<u64>(),
    ) {
        let m = random_machine(pis, latches, gates, seed);
        let text = aig::aiger::to_seq_aag_string(&m);
        let h = aig::aiger::read_seq_aag(text.as_bytes()).unwrap();
        prop_assert_eq!(h.num_pis(), m.num_pis());
        prop_assert_eq!(h.num_latches(), m.num_latches());
        let stimulus: Vec<Vec<bool>> = (0..6)
            .map(|t| (0..pis).map(|i| stimulus_bits >> ((t * pis + i) % 64) & 1 != 0).collect())
            .collect();
        prop_assert_eq!(m.simulate(&stimulus), h.simulate(&stimulus));
    }

    /// A k-induction proof is never wrong: whenever `prove` says Proved,
    /// deep BMC must stay clean well beyond the proof strength.
    #[test]
    fn kind_proofs_are_sound_on_random_machines(
        pis in 1usize..3,
        latches in 1usize..4,
        gates in 4usize..25,
        seed in any::<u64>(),
    ) {
        let m = random_machine(pis, latches, gates, seed);
        if let KindResult::Proved { k } = prove(&m, 5, &BmcOptions::default()) {
            let frames = (k + 10).max(16);
            prop_assert_eq!(
                BmcEngine::new(&m, BmcOptions::default()).check_frames(frames),
                BmcResult::Clean { frames }
            );
        }
    }
}
