//! Regenerates **Table I** — statistics of the RL training dataset.
//!
//! ```text
//! CSAT_SCALE=standard cargo run --release -p bench --bin run_table1
//! ```

use bench::experiments::{render_table1, table1, Scale};

fn main() {
    let scale = Scale::from_env(Scale::standard());
    println!("== Table I: statistics of the training dataset ==");
    println!(
        "(scale: {} instances, widths {:?}, budget {} conflicts)\n",
        scale.train_count, scale.train_bits, scale.budget_conflicts
    );
    let rows = table1(&scale);
    print!("{}", render_table1(&rows));
    println!("\npaper (200 industrial instances) for reference:");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "", "Avg.", "Std.", "Min.", "Max."
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "# Gates", 4299.06, 4328.16, 60, 24178
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "# PIs", 43.66, 25.17, 6, 102
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "Depth", 66.43, 19.98, 18, 138
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "# Clauses", 10687.28, 10801.96, 131, 60294
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "Time (ms)", 2010, 1960, 40, 6680
    );
}
