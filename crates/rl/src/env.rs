//! The synthesis MDP environment (Sec. III-B1/III-B4/III-B5).
//!
//! State: the six circuit features of the current netlist concatenated with
//! the fixed embedding of the initial netlist (Eq. 2). Actions: the four
//! synthesis operations plus `end`. Reward: zero until termination, then
//! the reduction in SAT-solver branching decisions between the initial and
//! final instance, both measured through the full preprocessing tail
//! (cost-customised LUT mapping + `lut2cnf`) — Eq. (3).

use crate::embedding::{instance_embedding, EMB_DIM};
use crate::features::{circuit_features, FeatureBaseline};
use aig::Aig;
use cnf::lut_to_cnf_sat_instance;
use mapper::{map_luts, BranchingCost, MapParams};
use sat::{solve_cnf, Budget, SolverConfig};
use synth::{apply_op, SynthOp};

/// Number of discrete actions (four operations + `end`).
pub const NUM_ACTIONS: usize = 5;
/// Dimension of the state vector.
pub const STATE_DIM: usize = 6 + EMB_DIM;

/// Maps an action index to a synthesis operation (`None` = `end`).
pub fn action_op(action: usize) -> Option<SynthOp> {
    match action {
        0 => Some(SynthOp::Balance),
        1 => Some(SynthOp::Rewrite),
        2 => Some(SynthOp::Refactor),
        3 => Some(SynthOp::Resub),
        4 => None,
        _ => panic!("action index {action} out of range"),
    }
}

/// Environment configuration.
#[derive(Clone, Debug)]
pub struct EnvConfig {
    /// Maximum episode length `T` (the paper uses 10).
    pub max_steps: usize,
    /// Budget applied to reward-measurement solves (keeps training cheap).
    pub budget: Budget,
}

impl Default for EnvConfig {
    fn default() -> EnvConfig {
        EnvConfig {
            max_steps: 10,
            budget: Budget::conflicts(20_000),
        }
    }
}

/// Counts SAT branching decisions for an AIG through the framework's tail:
/// branching-cost LUT mapping with the default [`MapParams`], ISOP CNF
/// encoding, and one budgeted solve under the Kissat-like preset.
pub fn measure_branchings(aig: &Aig, budget: Budget) -> u64 {
    let net = map_luts(aig, &MapParams::default(), &BranchingCost::new());
    let (formula, _) = lut_to_cnf_sat_instance(&net);
    let (_, stats) = solve_cnf(&formula, SolverConfig::kissat_like(), budget);
    stats.decisions
}

/// Result of one environment step.
#[derive(Clone, Debug)]
pub struct Step {
    /// State after the transition.
    pub state: Vec<f64>,
    /// Reward (non-zero only on the terminal step).
    pub reward: f64,
    /// Episode finished.
    pub done: bool,
}

/// One episode's environment around a single CSAT instance.
#[derive(Clone, Debug)]
pub struct SynthEnv {
    cfg: EnvConfig,
    baseline: FeatureBaseline,
    embedding: Vec<f64>,
    current: Aig,
    steps: usize,
    init_branchings: u64,
    /// When false, terminal rewards are not computed (deployment rollouts).
    training: bool,
}

impl SynthEnv {
    /// Starts a *training* episode: the initial branching count is measured
    /// up front so the terminal reward can be computed.
    pub fn new_training(instance: &Aig, cfg: EnvConfig) -> SynthEnv {
        let init = measure_branchings(instance, cfg.budget.clone());
        SynthEnv {
            baseline: FeatureBaseline::of(instance),
            embedding: instance_embedding(instance),
            current: instance.clone(),
            steps: 0,
            init_branchings: init,
            training: true,
            cfg,
        }
    }

    /// Starts a *deployment* episode: no reward measurement (no solving).
    pub fn new_rollout(instance: &Aig, cfg: EnvConfig) -> SynthEnv {
        SynthEnv {
            baseline: FeatureBaseline::of(instance),
            embedding: instance_embedding(instance),
            current: instance.clone(),
            steps: 0,
            init_branchings: 0,
            training: false,
            cfg,
        }
    }

    /// The current state vector `s_t = [E(G_t), D(G_0)]`.
    pub fn state(&self) -> Vec<f64> {
        let mut s = Vec::with_capacity(STATE_DIM);
        s.extend_from_slice(&circuit_features(&self.current, &self.baseline));
        s.extend_from_slice(&self.embedding);
        s
    }

    /// The current netlist.
    pub fn current(&self) -> &Aig {
        &self.current
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.steps
    }

    /// Initial branching count (training episodes only).
    pub fn initial_branchings(&self) -> u64 {
        self.init_branchings
    }

    /// Applies one action.
    ///
    /// # Panics
    /// Panics if called after the episode finished.
    pub fn step(&mut self, action: usize) -> Step {
        assert!(self.steps < self.cfg.max_steps, "episode already finished");
        let op = action_op(action);
        let done = match op {
            None => true,
            Some(op) => {
                self.current = apply_op(&self.current, op);
                self.steps += 1;
                self.steps >= self.cfg.max_steps
            }
        };
        let reward = if done && self.training {
            let fin = measure_branchings(&self.current, self.cfg.budget.clone());
            let delta = self.init_branchings as f64 - fin as f64;
            // Scaled by the initial branching count: stabilises
            // Q-learning; the argmax over recipes is unchanged.
            delta / (self.init_branchings.max(1) as f64)
        } else {
            0.0
        };
        Step {
            state: self.state(),
            reward,
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::datapath::ripple_carry_adder;
    use workloads::lec::{inject_bug, miter};

    fn small_instance() -> Aig {
        let a = ripple_carry_adder(4);
        let buggy = inject_bug(&a.aig, 3, 50).expect("bug");
        miter(&a.aig, &buggy)
    }

    #[test]
    fn state_has_fixed_dim() {
        let inst = small_instance();
        let env = SynthEnv::new_rollout(&inst, EnvConfig::default());
        assert_eq!(env.state().len(), STATE_DIM);
    }

    #[test]
    fn end_action_terminates_immediately() {
        let inst = small_instance();
        let mut env = SynthEnv::new_training(&inst, EnvConfig::default());
        let step = env.step(4);
        assert!(step.done);
        // End with no ops: zero improvement => zero reward.
        assert_eq!(step.reward, 0.0);
    }

    #[test]
    fn episode_caps_at_max_steps() {
        let inst = small_instance();
        let cfg = EnvConfig {
            max_steps: 2,
            ..EnvConfig::default()
        };
        let mut env = SynthEnv::new_rollout(&inst, cfg);
        let s1 = env.step(0);
        assert!(!s1.done);
        let s2 = env.step(1);
        assert!(s2.done);
    }

    #[test]
    fn ops_preserve_instance_function() {
        let inst = small_instance();
        let mut env = SynthEnv::new_rollout(&inst, EnvConfig::default());
        env.step(0);
        env.step(1);
        env.step(3);
        assert!(aig::check::sim_equiv(&inst, env.current(), 8, 3));
    }

    #[test]
    fn measure_branchings_is_finite_and_deterministic() {
        let inst = small_instance();
        let cfg = EnvConfig::default();
        let a = measure_branchings(&inst, cfg.budget.clone());
        let b = measure_branchings(&inst, cfg.budget);
        assert_eq!(a, b);
    }

    /// Pins the reward tail on one fixed UNSAT miter: the branching count
    /// the reward measures, and the terminal training reward of
    /// `rs; rw; end`.
    #[test]
    fn reward_tail_is_pinned() {
        use workloads::datapath::carry_lookahead_adder;
        let inst = miter(&ripple_carry_adder(6).aig, &carry_lookahead_adder(6).aig);
        let cfg = EnvConfig::default();
        let branchings = measure_branchings(&inst, cfg.budget.clone());
        let mut env = SynthEnv::new_training(&inst, cfg);
        env.step(3);
        env.step(1);
        let reward = env.step(4).reward;
        assert_eq!(branchings, 199);
        assert_eq!(env.initial_branchings(), 199);
        // 199 branchings before, 89 after, normalised by the initial count.
        assert_eq!(reward, 110.0 / 199.0);
    }
}
