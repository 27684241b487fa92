//! The paper's preprocessing framework — Algorithm 1.
//!
//! ```text
//! Input:  circuit instance G_in
//! 1. G0   <- aigmap(G_in)                 (already an AIG here)
//! 2. Gt   <- RL-guided synthesis recipe   (Sec. III-B)
//! 3. GLUT <- cost-customised LUT mapping  (Sec. III-C)
//! 4. phi  <- lut2cnf(GLUT)
//! ```
//!
//! The pipeline is generic over the recipe policy (trained agent, random,
//! fixed, none) and the mapping cost (branching vs. area), which yields all
//! arms of the evaluation: *Ours*, *w/o RL*, and *C. Mapper*.

use crate::pipeline::{Decoder, Pipeline, PreprocessResult};
use aig::Aig;
use cnf::lut_to_cnf_sat_instance;
use mapper::{map_luts, AreaCost, BranchingCost, CutCost, MapParams};
use rl::{EnvConfig, RecipePolicy};
use std::time::Instant;

/// Which cut-cost model the mapper uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MappingCost {
    /// The paper's branching-complexity cost.
    Branching,
    /// Conventional area cost (the *C. Mapper* ablation).
    Area,
}

/// The EDA-driven preprocessing framework.
#[derive(Clone, Debug)]
pub struct FrameworkPipeline {
    /// Recipe-selection policy.
    pub policy: RecipePolicy,
    /// Mapping cost model.
    pub cost: MappingCost,
    /// Optional SAT sweeping (fraig) between synthesis and mapping — the
    /// "future work" extension arm; `None` reproduces the paper exactly.
    pub sweep: Option<sweep::FraigParams>,
    /// Display name override.
    pub label: String,
}

impl FrameworkPipeline {
    /// The full framework (*Ours*): the given policy + branching-cost
    /// mapping.
    pub fn ours(policy: RecipePolicy) -> FrameworkPipeline {
        FrameworkPipeline {
            policy,
            cost: MappingCost::Branching,
            sweep: None,
            label: "Ours".to_string(),
        }
    }

    /// The *w/o RL* ablation: random recipe, branching-cost mapping.
    pub fn without_rl(seed: u64, steps: usize) -> FrameworkPipeline {
        FrameworkPipeline {
            policy: RecipePolicy::Random { seed, steps },
            cost: MappingCost::Branching,
            sweep: None,
            label: "w/o RL".to_string(),
        }
    }

    /// The *C. Mapper* ablation: same policy, conventional area cost.
    pub fn conventional_mapper(policy: RecipePolicy) -> FrameworkPipeline {
        FrameworkPipeline {
            policy,
            cost: MappingCost::Area,
            sweep: None,
            label: "C. Mapper".to_string(),
        }
    }

    /// Enables SAT sweeping (fraig) between synthesis and mapping.
    ///
    /// This is the extension arm (*Ours + fraig*): functionally redundant
    /// logic that no local synthesis window can see — e.g. the two halves
    /// of an equivalence miter — is merged before mapping, at the price of
    /// budgeted SAT calls during preprocessing.
    pub fn with_sweep(mut self, params: sweep::FraigParams) -> FrameworkPipeline {
        self.sweep = Some(params);
        self.label = format!("{} + fraig", self.label);
        self
    }
}

impl Pipeline for FrameworkPipeline {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn preprocess(&self, instance: &Aig) -> PreprocessResult {
        let t0 = Instant::now();
        // Step 2: recipe exploration / application (agent rollouts use
        // the default environment settings).
        let (synthesised, recipe) = self.policy.run(instance, &EnvConfig::default());
        // Step 2.5 (extension): SAT sweeping.
        let synthesised = match &self.sweep {
            Some(params) => sweep::fraig(&synthesised, params).aig,
            None => synthesised,
        };
        // Step 3: cost-customised LUT mapping.
        let area;
        let branching;
        let cost: &dyn CutCost = match self.cost {
            MappingCost::Area => {
                area = AreaCost;
                &area
            }
            MappingCost::Branching => {
                branching = BranchingCost::new();
                &branching
            }
        };
        let net = map_luts(&synthesised, &MapParams::default(), cost);
        // Step 4: lut2cnf.
        let (cnf, map) = lut_to_cnf_sat_instance(&net);
        PreprocessResult {
            cnf,
            decoder: Decoder::Lut(map),
            preprocess_time: t0.elapsed(),
            recipe: recipe.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{solve_cnf, Budget, SolverConfig};
    use synth::Recipe;
    use workloads::datapath::{carry_lookahead_adder, ripple_carry_adder};
    use workloads::lec::{inject_bug, miter};

    fn sat_instance() -> Aig {
        let blk = ripple_carry_adder(4);
        let buggy = inject_bug(&blk.aig, 5, 50).expect("bug");
        miter(&blk.aig, &buggy)
    }

    fn unsat_instance() -> Aig {
        let a = ripple_carry_adder(4);
        let b = carry_lookahead_adder(4);
        miter(&a.aig, &b.aig)
    }

    #[test]
    fn all_arms_preserve_satisfiability() {
        let sat_inst = sat_instance();
        let unsat_inst = unsat_instance();
        let arms: Vec<FrameworkPipeline> = vec![
            FrameworkPipeline::ours(RecipePolicy::Fixed(Recipe::size_script())),
            FrameworkPipeline::without_rl(3, 4),
            FrameworkPipeline::conventional_mapper(RecipePolicy::Fixed(Recipe::size_script())),
        ];
        for arm in &arms {
            let out = arm.preprocess(&sat_inst);
            let (res, _) = solve_cnf(&out.cnf, SolverConfig::default(), Budget::UNLIMITED);
            let model = res
                .model()
                .unwrap_or_else(|| panic!("{} lost SAT", arm.name()))
                .to_vec();
            let ins = out.decoder.decode_inputs(&model);
            assert_eq!(
                sat_inst.eval(&ins),
                vec![true],
                "{} model invalid",
                arm.name()
            );

            let out = arm.preprocess(&unsat_inst);
            let (res, _) = solve_cnf(&out.cnf, SolverConfig::default(), Budget::UNLIMITED);
            assert!(res.is_unsat(), "{} lost UNSAT", arm.name());
        }
    }

    #[test]
    fn framework_reduces_cnf_size() {
        let inst = unsat_instance();
        let base = crate::baseline::BaselinePipeline.preprocess(&inst);
        let ours =
            FrameworkPipeline::ours(RecipePolicy::Fixed(Recipe::size_script())).preprocess(&inst);
        assert!(
            ours.cnf.num_vars() < base.cnf.num_vars(),
            "{} vs {}",
            ours.cnf.num_vars(),
            base.cnf.num_vars()
        );
    }

    #[test]
    fn sweep_arm_preserves_verdicts_and_shrinks_unsat_miters() {
        let unsat_inst = unsat_instance();
        let plain = FrameworkPipeline::ours(RecipePolicy::Fixed(Recipe::size_script()));
        let swept = plain.clone().with_sweep(sweep::FraigParams::default());
        assert_eq!(swept.name(), "Ours + fraig");

        let out = swept.preprocess(&unsat_inst);
        let (res, _) = solve_cnf(&out.cnf, SolverConfig::default(), Budget::UNLIMITED);
        assert!(res.is_unsat(), "sweeping lost UNSAT");
        // Sweeping an equivalence miter should collapse most of the logic,
        // so the swept CNF must not be larger than the unswept one.
        let base = plain.preprocess(&unsat_inst);
        assert!(out.cnf.num_vars() <= base.cnf.num_vars());

        let sat_inst = sat_instance();
        let out = swept.preprocess(&sat_inst);
        let (res, _) = solve_cnf(&out.cnf, SolverConfig::default(), Budget::UNLIMITED);
        let model = res.model().expect("sweeping lost SAT").to_vec();
        let ins = out.decoder.decode_inputs(&model);
        assert_eq!(sat_inst.eval(&ins), vec![true], "swept model invalid");
    }

    #[test]
    fn labels() {
        assert_eq!(FrameworkPipeline::ours(RecipePolicy::None).name(), "Ours");
        assert_eq!(FrameworkPipeline::without_rl(0, 10).name(), "w/o RL");
        assert_eq!(
            FrameworkPipeline::conventional_mapper(RecipePolicy::None).name(),
            "C. Mapper"
        );
    }
}
