//! Criterion bench for **Fig. 4**: end-to-end runtime (preprocess + solve)
//! of the three pipelines on a fixed slice of the test set, under the
//! Kissat-like preset (group `fig4_kissat`, Fig. 4(a)) and the
//! CaDiCaL-like preset (group `fig4_cadical`, Fig. 4(c)). The benchmark's
//! relative ordering is the figure's claim: Ours < Comp. < Baseline.

use bench::experiments::{solver_preset, test_split, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use csat_preproc::{BaselinePipeline, CompPipeline, FrameworkPipeline, Pipeline};
use rl::RecipePolicy;
use sat::{solve_cnf, Budget};
use synth::Recipe;

fn bench_fig4(c: &mut Criterion) {
    let scale = Scale::quick();
    let instances = test_split(&scale);
    let slice: Vec<_> = instances.into_iter().take(4).collect();
    let budget = Budget::conflicts(scale.budget_conflicts);

    let pipelines: Vec<(&str, Box<dyn Pipeline>)> = vec![
        ("baseline", Box::new(BaselinePipeline)),
        ("comp", Box::new(CompPipeline)),
        (
            "ours",
            Box::new(FrameworkPipeline::ours(RecipePolicy::Fixed(
                Recipe::size_script(),
            ))),
        ),
    ];

    for preset in ["kissat", "cadical"] {
        let solver = solver_preset(preset);
        let mut group = c.benchmark_group(format!("fig4_{preset}"));
        group.sample_size(10);
        for (name, p) in &pipelines {
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
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
