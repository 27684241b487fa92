//! Train the RL agent on a small synthetic dataset and deploy it.
//!
//! Mirrors the paper's Sec. III-B at laptop scale: Deep-Q training over
//! easy LEC/ATPG instances with the branching-reduction reward, then a
//! greedy rollout on unseen instances compared against the random-recipe
//! ablation (*w/o RL*).
//!
//! ```text
//! cargo run --release --example train_agent
//! ```

use rl::env::{measure_branchings, EnvConfig};
use rl::train::{train_agent, RecipePolicy, TrainConfig};
use rl::DqnConfig;
use sat::Budget;
use workloads::dataset::{generate, DatasetParams};

fn main() {
    // Training split: easy instances (small widths).
    let train = generate(
        &DatasetParams {
            count: 12,
            min_bits: 4,
            max_bits: 8,
            hard_multipliers: false,
        },
        101,
    );
    let instances: Vec<aig::Aig> = train.iter().map(|i| i.aig.clone()).collect();
    println!("training on {} easy instances", instances.len());

    let cfg = TrainConfig {
        episodes: 40,
        env: EnvConfig {
            budget: Budget::conflicts(5_000),
            ..EnvConfig::default()
        },
        dqn: DqnConfig {
            eps_decay_steps: 200,
            ..DqnConfig::default()
        },
        seed: 7,
    };
    let (agent, stats) = train_agent(&instances, &cfg);
    println!(
        "trained {} episodes; mean terminal reward (last 10): {:+.3}",
        cfg.episodes,
        stats.recent_mean_reward(10)
    );

    // Deploy on unseen instances and compare against the random policy.
    let test = generate(
        &DatasetParams {
            count: 6,
            min_bits: 6,
            max_bits: 10,
            hard_multipliers: false,
        },
        999,
    );
    let env_cfg = EnvConfig::default();
    let agent_policy = RecipePolicy::Agent(Box::new(agent));
    let random_policy = RecipePolicy::Random { seed: 3, steps: 10 };

    println!(
        "\n{:<28} {:>10} {:>10} {:>10}",
        "instance", "initial", "agent", "random"
    );
    let (mut sum_a, mut sum_r, mut sum_0) = (0u64, 0u64, 0u64);
    for inst in &test {
        let budget = Budget::conflicts(50_000);
        let init = measure_branchings(&inst.aig, budget.clone());
        let (ga, recipe) = agent_policy.run(&inst.aig, &env_cfg);
        let ba = measure_branchings(&ga, budget.clone());
        let (gr, _) = random_policy.run(&inst.aig, &env_cfg);
        let br = measure_branchings(&gr, budget);
        println!(
            "{:<28} {:>10} {:>10} {:>10}   (recipe: {})",
            inst.name, init, ba, br, recipe
        );
        sum_0 += init;
        sum_a += ba;
        sum_r += br;
    }
    println!("\ntotal branchings — no recipe: {sum_0}, agent: {sum_a}, random: {sum_r}");
}
