//! Ablation benches around the cost-customised mapper:
//!
//! * mapping cost model (branching vs. area) on XOR-heavy logic,
//! * LUT size sweep k ∈ {3,4,5,6} under the branching cost,
//! * CNF encoding comparison at fixed mapping (Tseitin vs. LUT-ISOP).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csat_preproc::{BaselinePipeline, Pipeline};
use mapper::{map_luts, AreaCost, BranchingCost, MapParams};
use sat::{solve_cnf, Budget, SolverConfig};
use workloads::datapath::{array_multiplier, column_multiplier, parity, ripple_carry_adder};
use workloads::lec::miter;

fn xor_heavy_instance() -> aig::Aig {
    // Parity-vs-parity restructure keeps XOR density maximal.
    let a = parity(16);
    let b = ripple_carry_adder(8);
    // XOR-rich adder miter.
    let _ = a;
    miter(&b.aig, &workloads::lec::restructure(&b.aig, 9))
}

fn bench_cost_models(c: &mut Criterion) {
    let inst = xor_heavy_instance();
    let mut group = c.benchmark_group("mapper_cost_model");
    group.sample_size(10);
    group.bench_function("map_area", |b| {
        b.iter(|| map_luts(&inst, &MapParams::default(), &AreaCost))
    });
    group.bench_function("map_branching", |b| {
        b.iter(|| map_luts(&inst, &MapParams::default(), &BranchingCost::new()))
    });
    // Downstream effect: solve time of the two encodings.
    let solver = SolverConfig::kissat_like();
    for (name, net) in [
        (
            "solve_after_area",
            map_luts(&inst, &MapParams::default(), &AreaCost),
        ),
        (
            "solve_after_branching",
            map_luts(&inst, &MapParams::default(), &BranchingCost::new()),
        ),
    ] {
        let (cnf, _) = cnf::lut_to_cnf_sat_instance(&net);
        group.bench_function(name, |b| {
            b.iter(|| solve_cnf(&cnf, solver.clone(), Budget::conflicts(50_000)))
        });
    }
    group.finish();
}

fn bench_k_sweep(c: &mut Criterion) {
    let m = miter(&array_multiplier(4).aig, &column_multiplier(4).aig);
    let solver = SolverConfig::kissat_like();
    let mut group = c.benchmark_group("mapper_k_sweep");
    group.sample_size(10);
    for k in [3usize, 4, 5, 6] {
        let net = map_luts(
            &m,
            &MapParams {
                k,
                ..MapParams::default()
            },
            &BranchingCost::new(),
        );
        let (cnf, _) = cnf::lut_to_cnf_sat_instance(&net);
        group.bench_with_input(BenchmarkId::new("solve_k", k), &cnf, |b, cnf| {
            b.iter(|| solve_cnf(cnf, solver.clone(), Budget::conflicts(100_000)))
        });
    }
    group.finish();
}

fn bench_encodings(c: &mut Criterion) {
    let m = miter(&array_multiplier(4).aig, &column_multiplier(4).aig);
    let solver = SolverConfig::kissat_like();
    let mut group = c.benchmark_group("cnf_encoding");
    group.sample_size(10);
    let tseitin = BaselinePipeline.preprocess(&m).cnf;
    group.bench_function("solve_tseitin", |b| {
        b.iter(|| solve_cnf(&tseitin, solver.clone(), Budget::conflicts(100_000)))
    });
    let net = map_luts(&m, &MapParams::default(), &BranchingCost::new());
    let (lut_cnf, _) = cnf::lut_to_cnf_sat_instance(&net);
    group.bench_function("solve_lut_isop", |b| {
        b.iter(|| solve_cnf(&lut_cnf, solver.clone(), Budget::conflicts(100_000)))
    });
    group.finish();
}

criterion_group!(benches, bench_cost_models, bench_k_sweep, bench_encodings);
criterion_main!(benches);
