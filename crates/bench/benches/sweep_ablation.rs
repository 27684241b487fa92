//! Criterion bench for the **SAT-sweeping extension ablation**: Baseline,
//! *Ours*, and *Ours + fraig* end-to-end on equivalence-heavy instances —
//! the workload class sweeping is built for. Not a paper figure; this is
//! the ablation for the sweeping extension arm.

use bench::experiments::{solver_preset, test_split, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use csat_preproc::{BaselinePipeline, FrameworkPipeline, Pipeline};
use rl::RecipePolicy;
use sat::{solve_cnf, Budget};
use sweep::FraigParams;
use synth::Recipe;

fn bench_sweep(c: &mut Criterion) {
    let scale = Scale::quick();
    let instances = test_split(&scale);
    // Keep only UNSAT-expected (equivalence) instances: the sweeping
    // success case. SAT instances pass through mostly unchanged.
    let slice: Vec<_> = instances
        .into_iter()
        .filter(|i| i.expected == Some(false))
        .take(3)
        .collect();
    assert!(
        !slice.is_empty(),
        "test split must contain equivalence miters"
    );
    let solver = solver_preset("kissat");
    let budget = Budget::conflicts(scale.budget_conflicts);

    let policy = RecipePolicy::Fixed(Recipe::size_script());
    let arms: Vec<(&str, Box<dyn Pipeline>)> = vec![
        ("baseline", Box::new(BaselinePipeline)),
        ("ours", Box::new(FrameworkPipeline::ours(policy.clone()))),
        (
            "ours_fraig",
            Box::new(FrameworkPipeline::ours(policy).with_sweep(FraigParams::default())),
        ),
    ];

    let mut group = c.benchmark_group("sweep_ablation");
    group.sample_size(10);
    for (name, p) in &arms {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let mut decisions = 0u64;
                for inst in &slice {
                    let pre = p.preprocess(&inst.aig);
                    let (_, stats) = solve_cnf(&pre.cnf, solver.clone(), budget.clone());
                    decisions += stats.decisions;
                }
                decisions
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
