//! Runs the complete evaluation — Table I, Fig. 4(a), Fig. 4(c), Fig. 5
//! and the extension ablations — and prints a consolidated report. Exits
//! non-zero when any verdict is wrong; `--csv PATH` also writes every
//! record.
//!
//! ```text
//! CSAT_SCALE=standard cargo run --release -p bench --bin run_all -- --csv run_all.csv
//! ```

use bench::experiments::{
    exit_status, ext, fig4, fig5, records_to_csv, render_arms, render_table1, table1,
    trained_agent, Scale,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--csv" => Some(path),
        _ => {
            eprintln!("usage: run_all [--csv PATH]");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::from_env(Scale::standard());
    let penalty = scale.penalty_secs;
    let t0 = std::time::Instant::now();
    println!("scale: {scale:?}\n");

    println!("==================== Table I ====================");
    let (rows, train) = table1(&scale);
    print!("{}", render_table1(&rows));
    let mut arms = vec![train];

    println!("\ntraining RL agent ({} episodes)...", scale.episodes);
    let agent = trained_agent(&scale);

    let mut fig4a_ours = None;
    for (fig, solver) in [("4(a)", "kissat"), ("4(c)", "cadical")] {
        println!("\n==================== Fig. {fig} ({solver}-like) ====================");
        let fig4 = fig4(&scale, solver, &agent);
        print!("{}", render_arms(&fig4, penalty));
        let [base, comp, ours] = [0, 1, 2].map(|i| fig4[i].total_secs(penalty));
        println!(
            "reduction vs Baseline: {:.1}%   vs Comp.: {:.1}%",
            100.0 * (1.0 - ours / base),
            100.0 * (1.0 - ours / comp)
        );
        fig4a_ours.get_or_insert_with(|| fig4[2].clone());
        arms.extend(fig4);
    }

    println!("\n==================== Fig. 5 (ablation) ====================");
    let ablations = fig5(&scale, &agent);
    let shown: Vec<_> = fig4a_ours.into_iter().chain(ablations.clone()).collect();
    print!("{}", render_arms(&shown, penalty));
    let ours = shown[0].total_secs(penalty);
    println!(
        "w/o RL: {:+.1}%   C. Mapper: {:+.1}% (relative to Ours, Fig. 4(a)'s arm)",
        100.0 * (shown[1].total_secs(penalty) / ours - 1.0),
        100.0 * (shown[2].total_secs(penalty) / ours - 1.0)
    );
    arms.extend(ablations);

    println!("\n==================== Extensions (fraig, presolve) ====================");
    let ext = ext(&scale);
    print!("{}", render_arms(&ext, penalty));
    arms.extend(ext);

    if let Some(path) = csv_path {
        if let Err(e) = std::fs::write(path, records_to_csv(&arms)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nrecords written to {path}");
    }
    println!("\ntotal harness time: {:.1?}", t0.elapsed());
    exit_status(&arms)
}
