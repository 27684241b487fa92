//! Criterion bench for the **CNF-presolve ablation**: the paper "keeps the
//! default CNF-based preprocessing" of Kissat/CaDiCaL; this bench measures
//! what our SatELite-style presolve (BVE + subsumption) contributes on top
//! of the circuit-level pipelines, confirming the two are complementary
//! (footnote 1 of the paper).

use bench::experiments::{solver_preset, test_split, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use csat_preproc::{BaselinePipeline, FrameworkPipeline, Pipeline};
use rl::RecipePolicy;
use sat::presolve::solve_cnf_presolved;
use sat::solve_cnf;
use synth::Recipe;

fn bench_presolve(c: &mut Criterion) {
    let scale = Scale::quick();
    let instances = test_split(&scale);
    let slice: Vec<_> = instances.into_iter().take(3).collect();
    let solver = solver_preset("cadical");
    let budget = scale.budget();

    let pipelines: Vec<(&str, Box<dyn Pipeline>)> = vec![
        ("baseline", Box::new(BaselinePipeline)),
        (
            "ours",
            Box::new(FrameworkPipeline::ours(RecipePolicy::Fixed(
                Recipe::size_script(),
            ))),
        ),
    ];

    let mut group = c.benchmark_group("presolve_ablation");
    group.sample_size(10);
    for (pname, p) in &pipelines {
        // Preprocess once; the ablation varies only the CNF-level stage.
        let cnfs: Vec<_> = slice.iter().map(|i| p.preprocess(&i.aig).cnf).collect();
        group.bench_function(format!("{pname}/plain"), |b| {
            b.iter(|| {
                let mut decisions = 0u64;
                for f in &cnfs {
                    let (_, stats) = solve_cnf(f, solver.clone(), budget.clone());
                    decisions += stats.decisions;
                }
                decisions
            })
        });
        group.bench_function(format!("{pname}/presolved"), |b| {
            b.iter(|| {
                let mut decisions = 0u64;
                for f in &cnfs {
                    let (_, stats) = solve_cnf_presolved(f, solver.clone(), budget.clone());
                    decisions += stats.decisions;
                }
                decisions
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_presolve);
criterion_main!(benches);
