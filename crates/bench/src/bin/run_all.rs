//! Runs the complete evaluation — Table I, Fig. 4(a), Fig. 4(c), Fig. 5 —
//! and prints a consolidated report.
//!
//! ```text
//! CSAT_SCALE=standard cargo run --release -p bench --bin run_all
//! ```

use bench::experiments::{
    count_wrong, exit_status, fig4, fig5, render_arms, render_table1, table1, trained_agent, Scale,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let scale = Scale::from_env(Scale::standard());
    let t0 = std::time::Instant::now();
    println!("scale: {scale:?}\n");

    println!("==================== Table I ====================");
    print!("{}", render_table1(&table1(&scale)));

    println!("\ntraining RL agent ({} episodes)...", scale.episodes);
    let agent = trained_agent(&scale);
    let mut wrong = 0;

    for (fig, solver) in [("4(a)", "kissat"), ("4(c)", "cadical")] {
        println!("\n==================== Fig. {fig} ({solver}-like) ====================");
        let arms = fig4(&scale, solver, Some(agent.clone()));
        print!("{}", render_arms(&arms, scale.penalty_secs));
        wrong += count_wrong(&arms);
        let base = arms[0].total_secs(scale.penalty_secs);
        let comp = arms[1].total_secs(scale.penalty_secs);
        let ours = arms[2].total_secs(scale.penalty_secs);
        println!(
            "reduction vs Baseline: {:.1}%   vs Comp.: {:.1}%",
            100.0 * (1.0 - ours / base),
            100.0 * (1.0 - ours / comp)
        );
    }

    println!("\n==================== Fig. 5 (ablation) ====================");
    let arms = fig5(&scale, Some(agent));
    print!("{}", render_arms(&arms, scale.penalty_secs));
    wrong += count_wrong(&arms);
    let ours = arms[0].total_secs(scale.penalty_secs);
    println!(
        "w/o RL: {:+.1}%   C. Mapper: {:+.1}% (relative to Ours)",
        100.0 * (arms[1].total_secs(scale.penalty_secs) / ours - 1.0),
        100.0 * (arms[2].total_secs(scale.penalty_secs) / ours - 1.0)
    );

    println!("\ntotal harness time: {:.1?}", t0.elapsed());
    exit_status(wrong)
}
