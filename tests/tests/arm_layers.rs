//! Each benchmark arm's pipeline type encodes exactly the CNF its layer
//! calls encode.
//!
//! The armbench harness (`benchmark/`) times every arm through its
//! pipeline type, then composes the same arm from the layer calls —
//! `synth::apply_op` per recipe op, `sweep::fraig`, `mapper::map_luts`
//! under `AreaCost` or `BranchingCost`, and the two `cnf` encoders — to
//! attribute its time to layers, and it compares the two runs' exact
//! counters only in its traced pass. This test pins that property here:
//! a pipeline change that the layer composition does not follow fails.
//! Equal CNFs give equal solver runs, so they give equal counters.

use aig::Aig;
use cnf::{lut_to_cnf_sat_instance, tseitin_sat_instance, Cnf};
use csat_preproc::{BaselinePipeline, CompPipeline, FrameworkPipeline, Pipeline};
use mapper::{map_luts, AreaCost, BranchingCost, MapParams};
use rl::RecipePolicy;
use synth::{apply_op, Recipe};
use workloads::dataset::{generate, DatasetParams};

/// The benchmark's arms.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arm {
    Baseline,
    Comp,
    Ours,
    OursFraig,
}

/// The recipe `csat solve` runs for the *Ours* pipeline by default.
fn ours_recipe() -> Recipe {
    "rs;rs;rw".parse().expect("valid recipe")
}

/// The arm through its pipeline type, as `csat solve` runs it.
fn via_pipeline(arm: Arm, g: &Aig) -> Cnf {
    let ours = || FrameworkPipeline::ours(RecipePolicy::Fixed(ours_recipe()));
    let pipeline: Box<dyn Pipeline> = match arm {
        Arm::Baseline => Box::new(BaselinePipeline),
        Arm::Comp => Box::new(CompPipeline),
        Arm::Ours => Box::new(ours()),
        Arm::OursFraig => Box::new(ours().with_sweep(sweep::FraigParams::default())),
    };
    pipeline.preprocess(g).cnf
}

/// The arm composed from its layer calls, as the benchmark's traced pass
/// composes it.
fn via_layers(arm: Arm, g: &Aig) -> Cnf {
    let recipe = match arm {
        Arm::Baseline => return tseitin_sat_instance(g).0,
        Arm::Comp => Recipe::size_script(),
        Arm::Ours | Arm::OursFraig => ours_recipe(),
    };
    let mut g = g.clone();
    for &op in recipe.ops() {
        g = apply_op(&g, op);
    }
    if arm == Arm::OursFraig {
        g = sweep::fraig(&g, &sweep::FraigParams::default()).aig;
    }
    let net = if arm == Arm::Comp {
        map_luts(&g, &MapParams::default(), &AreaCost)
    } else {
        map_luts(&g, &MapParams::default(), &BranchingCost::new())
    };
    lut_to_cnf_sat_instance(&net).0
}

#[test]
fn each_arms_pipeline_encodes_what_its_layer_calls_encode() {
    let cases = generate(&DatasetParams::training(9), 13);
    for case in &cases {
        for arm in [Arm::Baseline, Arm::Comp, Arm::Ours, Arm::OursFraig] {
            let (pipeline, layers) = (via_pipeline(arm, &case.aig), via_layers(arm, &case.aig));
            assert!(pipeline.num_clauses() > 0, "{} under {arm:?}", case.name);
            assert!(pipeline == layers, "{} under {arm:?}", case.name);
        }
    }
}
