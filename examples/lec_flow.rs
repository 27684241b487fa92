//! LEC flow: equivalence-check two multiplier architectures, with and
//! without a deliberately injected bug, through all three pipelines.
//!
//! ```text
//! cargo run --release --example lec_flow
//! ```

use csat_preproc::{BaselinePipeline, CompPipeline, FrameworkPipeline, Pipeline};
use rl::RecipePolicy;
use sat::{solve_cnf, Budget, SolverConfig};
use synth::Recipe;
use workloads::datapath::{array_multiplier, column_multiplier};
use workloads::lec::{inject_bug, miter};

fn main() {
    let n = 5;
    let a = array_multiplier(n);
    let b = column_multiplier(n);
    println!(
        "LEC: {} ({} gates) vs {} ({} gates)",
        a.name,
        a.aig.num_ands(),
        b.name,
        b.aig.num_ands()
    );

    // Case 1: the architectures are equivalent -> UNSAT proof.
    let eq_miter = miter(&a.aig, &b.aig);
    run_all("equivalent", &eq_miter);

    // Case 2: one side carries a bug -> SAT, and the model is a
    // counterexample distinguishing the two circuits.
    let buggy = inject_bug(&b.aig, 42, 100).expect("observable bug");
    let bug_miter = miter(&a.aig, &buggy);
    run_all("bug-injected", &bug_miter);
}

fn run_all(label: &str, instance: &aig::Aig) {
    println!(
        "\n== {label} miter: {} gates, {} PIs ==",
        instance.num_ands(),
        instance.num_pis()
    );
    let pipelines: Vec<Box<dyn Pipeline>> = vec![
        Box::new(BaselinePipeline),
        Box::new(CompPipeline),
        Box::new(FrameworkPipeline::ours(RecipePolicy::Fixed(
            Recipe::size_script(),
        ))),
    ];
    for p in &pipelines {
        let pre = p.preprocess(instance);
        let t0 = std::time::Instant::now();
        let (res, stats) = solve_cnf(&pre.cnf, SolverConfig::cadical_like(), Budget::UNLIMITED);
        let dt = t0.elapsed();
        let verdict = match &res {
            sat::SolveResult::Sat(model) => {
                // Validate the counterexample against the original miter.
                let ins = pre.decoder.decode_inputs(model);
                assert_eq!(
                    instance.eval(&ins),
                    vec![true],
                    "model must be a real witness"
                );
                "SAT (witness validated)"
            }
            sat::SolveResult::Unsat => "UNSAT (equivalence proved)",
            sat::SolveResult::Unknown => "TIMEOUT",
        };
        println!(
            "{:>9}: {:>6} vars {:>7} clauses | {:>8} decisions | {:>7.1?} | {}",
            p.name(),
            pre.cnf.num_vars(),
            pre.cnf.num_clauses(),
            stats.decisions,
            dt,
            verdict
        );
    }
}
