//! Regenerates **Fig. 5** — the ablation study: *Ours* vs. *w/o RL*
//! (random recipes) vs. *C. Mapper* (conventional area-cost mapping).
//!
//! ```text
//! CSAT_SCALE=standard cargo run --release -p bench --bin run_fig5
//! ```

use bench::experiments::{
    count_wrong, exit_status, fig5, records_to_csv, render_arms, trained_agent, Scale,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let csv_path = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1).cloned());
    let scale = Scale::from_env(Scale::standard());

    println!(
        "== Fig. 5: ablation study ({} test instances, budget {} conflicts) ==",
        scale.test_count, scale.budget_conflicts
    );
    println!("training RL agent ({} episodes)...", scale.episodes);
    let agent = trained_agent(&scale);
    let arms = fig5(&scale, Some(agent));
    print!("{}", render_arms(&arms, scale.penalty_secs));

    let ours = arms[0].total_secs(scale.penalty_secs);
    let worl = arms[1].total_secs(scale.penalty_secs);
    let cmap = arms[2].total_secs(scale.penalty_secs);
    println!(
        "\nw/o RL overhead: {:+.1}% (paper: +13.6%)   C. Mapper overhead: {:+.1}% (paper: +50.8%)",
        100.0 * (worl / ours - 1.0),
        100.0 * (cmap / ours - 1.0)
    );
    if let Some(path) = csv_path {
        std::fs::write(&path, records_to_csv(&arms)).expect("write csv");
        println!("records written to {path}");
    }
    exit_status(count_wrong(&arms))
}
