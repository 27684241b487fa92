//! End-to-end equisatisfiability: every pipeline must agree with every
//! other on every instance, under both solver presets, and SAT models must
//! decode to genuine witnesses of the *original* circuit.

use csat_preproc::{BaselinePipeline, CompPipeline, FrameworkPipeline, Pipeline};
use rl::RecipePolicy;
use sat::{solve_cnf, Budget, SolverConfig};
use synth::Recipe;
use workloads::dataset::{generate, generate_extended, DatasetParams};

fn pipelines() -> Vec<Box<dyn Pipeline>> {
    vec![
        Box::new(BaselinePipeline),
        Box::new(CompPipeline),
        Box::new(FrameworkPipeline::ours(RecipePolicy::Fixed(
            Recipe::size_script(),
        ))),
        Box::new(FrameworkPipeline::ours(RecipePolicy::Fixed(
            "rs;rs".parse::<Recipe>().expect("valid recipe"),
        ))),
        Box::new(FrameworkPipeline::without_rl(5, 4)),
        Box::new(FrameworkPipeline::conventional_mapper(RecipePolicy::Fixed(
            Recipe::size_script(),
        ))),
        Box::new(
            FrameworkPipeline::ours(RecipePolicy::Fixed(Recipe::size_script()))
                .with_sweep(sweep::FraigParams::default()),
        ),
    ]
}

#[test]
fn all_pipelines_agree_on_verdicts() {
    let set = generate(
        &DatasetParams {
            count: 8,
            min_bits: 4,
            max_bits: 7,
            hard_multipliers: false,
        },
        0xBEEF,
    );
    let pipes = pipelines();
    for inst in &set {
        let mut verdicts: Vec<bool> = Vec::new();
        for p in &pipes {
            let pre = p.preprocess(&inst.aig);
            for solver in [SolverConfig::kissat_like(), SolverConfig::cadical_like()] {
                let (res, _) = solve_cnf(&pre.cnf, solver, Budget::UNLIMITED);
                match res {
                    sat::SolveResult::Sat(model) => {
                        let ins = pre.decoder.decode_inputs(&model);
                        assert_eq!(
                            inst.aig.eval(&ins),
                            vec![true],
                            "{}: {} model is not a witness",
                            inst.name,
                            p.name()
                        );
                        verdicts.push(true);
                    }
                    sat::SolveResult::Unsat => verdicts.push(false),
                    sat::SolveResult::Unknown => panic!("unbudgeted solve returned unknown"),
                }
            }
        }
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "{}: pipelines disagree: {verdicts:?}",
            inst.name
        );
        if let Some(expected) = inst.expected {
            assert_eq!(verdicts[0], expected, "{}: wrong verdict", inst.name);
        }
    }
}

#[test]
fn all_pipelines_agree_on_extended_families() {
    let set = generate_extended(
        &DatasetParams {
            count: 7,
            min_bits: 4,
            max_bits: 8,
            hard_multipliers: false,
        },
        0xD00D,
    );
    let pipes = pipelines();
    for inst in &set {
        let mut verdicts: Vec<bool> = Vec::new();
        for p in &pipes {
            let pre = p.preprocess(&inst.aig);
            let (res, _) = solve_cnf(&pre.cnf, SolverConfig::kissat_like(), Budget::UNLIMITED);
            match res {
                sat::SolveResult::Sat(model) => {
                    let ins = pre.decoder.decode_inputs(&model);
                    assert_eq!(
                        inst.aig.eval(&ins),
                        vec![true],
                        "{}: {} model is not a witness",
                        inst.name,
                        p.name()
                    );
                    verdicts.push(true);
                }
                sat::SolveResult::Unsat => verdicts.push(false),
                sat::SolveResult::Unknown => panic!("unbudgeted solve returned unknown"),
            }
        }
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "{}: pipelines disagree: {verdicts:?}",
            inst.name
        );
        if let Some(expected) = inst.expected {
            assert_eq!(verdicts[0], expected, "{}: wrong verdict", inst.name);
        }
    }
}

#[test]
fn framework_cnf_is_smaller_in_variables() {
    // The LUT encoding must hide internal nodes on non-trivial instances.
    let set = generate(
        &DatasetParams {
            count: 6,
            min_bits: 8,
            max_bits: 12,
            hard_multipliers: false,
        },
        0xFACE,
    );
    let ours = FrameworkPipeline::ours(RecipePolicy::Fixed(Recipe::size_script()));
    for inst in &set {
        let base = BaselinePipeline.preprocess(&inst.aig);
        let pre = ours.preprocess(&inst.aig);
        assert!(
            pre.cnf.num_vars() < base.cnf.num_vars(),
            "{}: {} !< {}",
            inst.name,
            pre.cnf.num_vars(),
            base.cnf.num_vars()
        );
    }
}

#[test]
fn preprocessing_time_is_recorded() {
    let set = generate(
        &DatasetParams {
            count: 2,
            min_bits: 6,
            max_bits: 8,
            hard_multipliers: false,
        },
        0xAA,
    );
    let p = FrameworkPipeline::ours(RecipePolicy::Fixed(Recipe::size_script()));
    for inst in &set {
        let pre = p.preprocess(&inst.aig);
        assert!(pre.preprocess_time.as_nanos() > 0);
        assert!(!pre.recipe.is_empty());
    }
}
