//! Full-framework integration: a miniature version of the paper's entire
//! pipeline — train the agent, deploy it against the ablation arms, and
//! check the report machinery — in one deterministic test.

use csat_preproc::report::{cactus, run_campaign, total_runtime, Status};
use csat_preproc::{BaselinePipeline, FrameworkPipeline, Pipeline};
use rl::env::{measure_branchings, EnvConfig};
use rl::train::{train_agent, TrainConfig};
use rl::{DqnConfig, RecipePolicy};
use sat::{solve_cnf, Budget, SolverConfig};
use workloads::dataset::{generate, generate_hard, DatasetParams};

#[test]
fn miniature_paper_run() {
    // Train on a handful of easy instances.
    let train = generate(
        &DatasetParams {
            count: 6,
            min_bits: 4,
            max_bits: 7,
            hard_multipliers: false,
        },
        11,
    );
    let instances: Vec<aig::Aig> = train.iter().map(|i| i.aig.clone()).collect();
    let cfg = TrainConfig {
        episodes: 20,
        env: EnvConfig {
            budget: Budget::conflicts(5_000),
            ..EnvConfig::default()
        },
        dqn: DqnConfig {
            eps_decay_steps: 100,
            ..DqnConfig::default()
        },
        seed: 3,
    };
    let (agent, stats) = train_agent(&instances, &cfg);
    assert_eq!(stats.episode_rewards.len(), 20);

    // Deploy all arms on a small test set.
    let test = generate(
        &DatasetParams {
            count: 6,
            min_bits: 5,
            max_bits: 8,
            hard_multipliers: false,
        },
        99,
    );
    let solver = SolverConfig::kissat_like();
    let budget = Budget::conflicts(100_000);
    let arms: Vec<Box<dyn Pipeline>> = vec![
        Box::new(BaselinePipeline),
        Box::new(FrameworkPipeline::ours(RecipePolicy::Agent(Box::new(
            agent,
        )))),
        Box::new(FrameworkPipeline::without_rl(1, 4)),
        Box::new(FrameworkPipeline::conventional_mapper(RecipePolicy::Fixed(
            synth::Recipe::size_script(),
        ))),
    ];
    for arm in &arms {
        let records = run_campaign(
            arm.as_ref(),
            &test,
            solve_cnf,
            "kissat",
            &solver,
            budget.clone(),
        );
        assert_eq!(records.len(), test.len());
        // All models valid, no verdict contradicting its label.
        for r in &records {
            if let Status::Wrong { reason } = &r.status {
                panic!("{}: {reason} in {}", r.instance, arm.name());
            }
        }
        // Cactus series is consistent with the record set.
        let series = cactus(&records);
        assert!(series.len() <= records.len());
        let total = total_runtime(&records, 10.0);
        assert!(total >= 0.0);
    }
}

#[test]
fn branching_measurement_improves_with_resub_on_redundant_logic() {
    // The quantity the RL reward is built on must respond to synthesis.
    let base = workloads::datapath::carry_lookahead_adder(12).aig;
    let redundant = workloads::lec::restructure(&base, 9);
    let inst = workloads::lec::miter(&base, &redundant);
    let before = measure_branchings(&inst, Budget::conflicts(200_000));
    let optimised = synth::apply_recipe(&inst, &[synth::SynthOp::Resub, synth::SynthOp::Resub]);
    let after = measure_branchings(&optimised, Budget::conflicts(200_000));
    assert!(
        after <= before,
        "resub on a redundancy-miter must not increase branchings: {before} -> {after}"
    );
}

#[test]
fn hard_split_is_harder_than_easy_split() {
    let easy = generate(
        &DatasetParams {
            count: 4,
            min_bits: 4,
            max_bits: 6,
            hard_multipliers: false,
        },
        5,
    );
    let hard = generate_hard(4, 5, 1);
    let avg = |set: &[workloads::Instance]| {
        set.iter().map(|i| i.aig.num_ands()).sum::<usize>() / set.len()
    };
    assert!(
        avg(&hard) > 4 * avg(&easy),
        "hard split must be much larger: {} vs {}",
        avg(&hard),
        avg(&easy)
    );
}
