//! The *Comp.* pipeline — the Eén–Mishchenko–Sörensson (SAT 2007)
//! circuit-preprocessing baseline the paper compares against.
//!
//! "Applying Logic Synthesis for Speeding Up SAT" minimises the circuit
//! with DAG-aware rewriting and maps it into k-LUTs with a conventional
//! (size-oriented) mapper before CNF conversion. We reproduce that flow
//! with our size script + area-cost mapper; the crucial difference from
//! *Ours* is the optimisation objective: circuit size, not branching
//! complexity.

use crate::framework::FrameworkPipeline;
use crate::pipeline::{Pipeline, PreprocessResult};
use aig::Aig;
use rl::RecipePolicy;
use synth::Recipe;

/// Size-oriented circuit preprocessing (rewrite/refactor/balance to
/// minimise gates, then area-cost LUT mapping, then CNF): the *C. Mapper*
/// arm on the fixed size script, reported under its own name.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompPipeline;

impl Pipeline for CompPipeline {
    fn name(&self) -> String {
        "Comp.".to_string()
    }

    fn preprocess(&self, instance: &Aig) -> PreprocessResult {
        FrameworkPipeline::conventional_mapper(RecipePolicy::Fixed(Recipe::size_script()))
            .preprocess(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat::{solve_cnf, Budget, SolverConfig};
    use workloads::datapath::ripple_carry_adder;
    use workloads::lec::{inject_bug, miter};

    #[test]
    fn comp_solves_sat_instance_correctly() {
        let blk = ripple_carry_adder(4);
        let buggy = inject_bug(&blk.aig, 1, 50).expect("bug");
        let inst = miter(&blk.aig, &buggy);
        let out = CompPipeline.preprocess(&inst);
        let (res, _) = solve_cnf(&out.cnf, SolverConfig::default(), Budget::UNLIMITED);
        let model = res.model().expect("bug miter is SAT").to_vec();
        let ins = out.decoder.decode_inputs(&model);
        assert_eq!(inst.eval(&ins), vec![true]);
    }

    #[test]
    fn comp_preserves_unsat() {
        use workloads::datapath::carry_lookahead_adder;
        let a = ripple_carry_adder(4);
        let b = carry_lookahead_adder(4);
        let inst = miter(&a.aig, &b.aig);
        let out = CompPipeline.preprocess(&inst);
        let (res, _) = solve_cnf(&out.cnf, SolverConfig::default(), Budget::UNLIMITED);
        assert!(res.is_unsat(), "equivalent adders must stay UNSAT");
    }

    #[test]
    fn comp_shrinks_cnf_vs_baseline() {
        let blk = ripple_carry_adder(8);
        let buggy = inject_bug(&blk.aig, 2, 50).expect("bug");
        let inst = miter(&blk.aig, &buggy);
        let base = crate::baseline::BaselinePipeline.preprocess(&inst);
        let comp = CompPipeline.preprocess(&inst);
        assert!(
            comp.cnf.num_vars() < base.cnf.num_vars(),
            "LUT mapping must hide variables: {} vs {}",
            comp.cnf.num_vars(),
            base.cnf.num_vars()
        );
    }
}
