//! Shared experiment machinery for the binaries and Criterion benches.

use csat_preproc::report::{
    cactus, run_campaign, summarize, total_decisions, total_runtime, RunRecord, Status, Summary,
};
use csat_preproc::{BaselinePipeline, CompPipeline, FrameworkPipeline, Pipeline};
use rl::env::EnvConfig;
use rl::train::{train_agent, TrainConfig};
use rl::{DqnAgent, DqnConfig, RecipePolicy};
use sat::{solve_cnf, Budget, SolverConfig};
use std::process::ExitCode;
use workloads::dataset::{generate, instance_stats, DatasetParams};
use workloads::Instance;

/// Experiment scale: how big, how many, how long.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Training instances (paper: 200).
    pub train_count: usize,
    /// Test instances (paper: 300).
    pub test_count: usize,
    /// RL training episodes (paper: 10 000).
    pub episodes: usize,
    /// Conflict budget standing in for the paper's 1000 s timeout.
    pub budget_conflicts: u64,
    /// Timeout penalty in seconds when totalling runtimes.
    pub penalty_secs: f64,
    /// Width range of training datapath blocks.
    pub train_bits: (usize, usize),
    /// Width range of test datapath blocks.
    pub test_bits: (usize, usize),
    /// Hard-set difficulty (0 = easy profile for CI, 1+ = `generate_hard`).
    pub hard_difficulty: usize,
}

impl Scale {
    /// Seconds-scale runs for Criterion and CI.
    pub fn quick() -> Scale {
        Scale {
            train_count: 8,
            test_count: 9,
            episodes: 12,
            budget_conflicts: 30_000,
            penalty_secs: 5.0,
            train_bits: (4, 8),
            test_bits: (6, 12),
            hard_difficulty: 0,
        }
    }

    /// Minutes-scale runs; the default for the `run_*` binaries.
    pub fn standard() -> Scale {
        Scale {
            train_count: 40,
            test_count: 36,
            episodes: 1_200,
            budget_conflicts: 400_000,
            penalty_secs: 60.0,
            train_bits: (4, 10),
            test_bits: (8, 20),
            hard_difficulty: 1,
        }
    }

    /// Paper-shaped counts (hours-scale on one core).
    pub fn full() -> Scale {
        Scale {
            train_count: 200,
            test_count: 300,
            episodes: 4_000,
            budget_conflicts: 3_000_000,
            penalty_secs: 1000.0,
            train_bits: (4, 12),
            test_bits: (8, 24),
            hard_difficulty: 2,
        }
    }

    /// Reads `CSAT_SCALE` (`quick`/`standard`/`full`); `default` when it
    /// is unset.
    ///
    /// # Panics
    /// Panics on any other value, naming the accepted ones.
    pub fn from_env(default: Scale) -> Scale {
        Scale::from_name(std::env::var("CSAT_SCALE").ok().as_deref(), default)
    }

    /// The scale a `CSAT_SCALE` value names; `None` (unset) is `default`.
    ///
    /// # Panics
    /// Panics on an unknown name, naming the accepted ones.
    fn from_name(name: Option<&str>, default: Scale) -> Scale {
        match name {
            None => default,
            Some("quick") => Scale::quick(),
            Some("standard") => Scale::standard(),
            Some("full") => Scale::full(),
            Some(other) => panic!("unknown CSAT_SCALE '{other}' (use quick|standard|full)"),
        }
    }

    /// The solve budget as a [`Budget`].
    pub fn budget(&self) -> Budget {
        Budget::conflicts(self.budget_conflicts)
    }

    fn train_params(&self) -> DatasetParams {
        DatasetParams {
            count: self.train_count,
            min_bits: self.train_bits.0,
            max_bits: self.train_bits.1,
            hard_multipliers: false,
        }
    }

    fn test_params(&self) -> DatasetParams {
        DatasetParams {
            count: self.test_count,
            min_bits: self.test_bits.0,
            max_bits: self.test_bits.1,
            hard_multipliers: true,
        }
    }
}

/// Deterministic training split.
pub fn train_split(scale: &Scale) -> Vec<Instance> {
    generate(&scale.train_params(), 0xAB1E)
}

/// Deterministic test split (disjoint seed). Scales with non-zero
/// `hard_difficulty` use the hard profile of [`workloads::dataset::generate_hard`],
/// matching the paper's "300 hard instances for testing".
pub fn test_split(scale: &Scale) -> Vec<Instance> {
    if scale.hard_difficulty > 0 {
        workloads::dataset::generate_hard(scale.test_count, 0xC0DE, scale.hard_difficulty)
    } else {
        generate(&scale.test_params(), 0xC0DE)
    }
}

/// Resolves a solver preset by name.
///
/// # Panics
/// Panics on unknown names.
pub fn solver_preset(name: &str) -> SolverConfig {
    match name {
        "kissat" => SolverConfig::kissat_like(),
        "cadical" => SolverConfig::cadical_like(),
        other => panic!("unknown solver preset '{other}' (use kissat|cadical)"),
    }
}

/// Trains the RL agent on the training split (the paper's Sec. III-B run).
pub fn trained_agent(scale: &Scale) -> DqnAgent {
    let instances: Vec<aig::Aig> = train_split(scale).into_iter().map(|i| i.aig).collect();
    let cfg = TrainConfig {
        episodes: scale.episodes,
        env: EnvConfig {
            budget: Budget::conflicts(scale.budget_conflicts.min(50_000)),
            ..EnvConfig::default()
        },
        dqn: DqnConfig {
            eps_decay_steps: (scale.episodes as u64 * 6).max(60),
            ..DqnConfig::default()
        },
        seed: 0x5EED,
    };
    let (agent, _) = train_agent(&instances, &cfg);
    agent
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One Table-I row: a metric summarised over the training set.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Metric name.
    pub metric: &'static str,
    /// Avg/Std/Min/Max.
    pub summary: Summary,
}

/// Regenerates Table I: statistics of the training dataset
/// (#gates, #PIs, depth, #clauses after Tseitin, baseline solve time in
/// milliseconds — the instances solve in well under a second each).
pub fn table1(scale: &Scale) -> Vec<Table1Row> {
    let set = train_split(scale);
    let mut gates = Vec::new();
    let mut pis = Vec::new();
    let mut depth = Vec::new();
    let mut clauses = Vec::new();
    let mut times = Vec::new();
    for inst in &set {
        let s = instance_stats(&inst.aig);
        gates.push(s.gates as f64);
        pis.push(s.pis as f64);
        depth.push(s.depth as f64);
        let pre = BaselinePipeline.preprocess(&inst.aig);
        clauses.push(pre.cnf.num_clauses() as f64);
        let t0 = std::time::Instant::now();
        let _ = solve_cnf(&pre.cnf, SolverConfig::kissat_like(), scale.budget());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    vec![
        Table1Row {
            metric: "# Gates",
            summary: summarize(&gates),
        },
        Table1Row {
            metric: "# PIs",
            summary: summarize(&pis),
        },
        Table1Row {
            metric: "Depth",
            summary: summarize(&depth),
        },
        Table1Row {
            metric: "# Clauses",
            summary: summarize(&clauses),
        },
        Table1Row {
            metric: "Time (ms)",
            summary: summarize(&times),
        },
    ]
}

/// Renders Table I in the paper's format.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}\n",
        "", "Avg.", "Std.", "Min.", "Max."
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>12.2} {:>12.2} {:>12.2} {:>12.2}\n",
            r.metric, r.summary.avg, r.summary.std, r.summary.min, r.summary.max
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 4 / Fig. 5 campaigns
// ---------------------------------------------------------------------------

/// One experiment arm: a named pipeline's records over the test set.
#[derive(Clone, Debug)]
pub struct Arm {
    /// Pipeline label.
    pub name: String,
    /// Per-instance records.
    pub records: Vec<RunRecord>,
}

impl Arm {
    /// Total runtime with timeout penalty.
    pub fn total_secs(&self, penalty: f64) -> f64 {
        total_runtime(&self.records, penalty)
    }

    /// Number of solved instances.
    pub fn solved(&self) -> usize {
        self.records.iter().filter(|r| r.solved()).count()
    }

    /// Records whose verdict was wrong ([`Status::Wrong`]).
    pub fn wrong(&self) -> impl Iterator<Item = (&RunRecord, &str)> {
        self.records.iter().filter_map(|r| match &r.status {
            Status::Wrong { reason } => Some((r, reason.as_str())),
            _ => None,
        })
    }

    /// Total branching decisions.
    pub fn decisions(&self) -> u64 {
        total_decisions(&self.records)
    }

    /// Cactus-plot series.
    pub fn cactus(&self) -> Vec<(f64, usize)> {
        cactus(&self.records)
    }
}

/// Runs the Fig. 4 comparison — Baseline vs. Comp. vs. Ours — under one
/// solver preset. `agent` is the trained agent for the *Ours* arm (pass
/// `None` to fall back to the fixed size-script policy, used by the quick
/// Criterion benches where training would dominate the measurement).
pub fn fig4(scale: &Scale, solver_name: &str, agent: Option<DqnAgent>) -> Vec<Arm> {
    let test = test_split(scale);
    let solver = solver_preset(solver_name);
    let budget = scale.budget();
    let ours_policy = match agent {
        Some(a) => RecipePolicy::Agent(Box::new(a)),
        None => RecipePolicy::Fixed(synth::Recipe::size_script()),
    };
    let pipelines: Vec<Box<dyn Pipeline>> = vec![
        Box::new(BaselinePipeline),
        Box::new(CompPipeline),
        Box::new(FrameworkPipeline::ours(ours_policy)),
    ];
    pipelines
        .iter()
        .map(|p| Arm {
            name: p.name(),
            records: run_campaign(p.as_ref(), &test, solver_name, &solver, budget.clone()),
        })
        .collect()
}

/// Runs the Fig. 5 ablation — Ours vs. w/o RL vs. C. Mapper — under the
/// Kissat-like preset (as in the paper's ablation section).
pub fn fig5(scale: &Scale, agent: Option<DqnAgent>) -> Vec<Arm> {
    let test = test_split(scale);
    let solver = solver_preset("kissat");
    let budget = scale.budget();
    let ours_policy = match agent {
        Some(a) => RecipePolicy::Agent(Box::new(a)),
        None => RecipePolicy::Fixed(synth::Recipe::size_script()),
    };
    let pipelines: Vec<Box<dyn Pipeline>> = vec![
        Box::new(FrameworkPipeline::ours(ours_policy.clone())),
        Box::new(FrameworkPipeline::without_rl(0xF165, 10)),
        Box::new(FrameworkPipeline::conventional_mapper(ours_policy)),
    ];
    pipelines
        .iter()
        .map(|p| Arm {
            name: p.name(),
            records: run_campaign(p.as_ref(), &test, "kissat", &solver, budget.clone()),
        })
        .collect()
}

/// Total wrong verdicts across arms.
pub fn count_wrong(arms: &[Arm]) -> usize {
    arms.iter().map(|a| a.wrong().count()).sum()
}

/// A campaign binary's exit status: failure, with a note on stderr, when
/// any verdict was wrong.
pub fn exit_status(wrong: usize) -> ExitCode {
    if wrong == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {wrong} wrong verdict(s), listed in the WRONG lines above");
    ExitCode::FAILURE
}

/// Renders arm totals + cactus series in the paper's Fig. 4/5 shape, plus
/// one line per wrong verdict.
pub fn render_arms(arms: &[Arm], penalty: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>8} {:>6} {:>14} {:>14}\n",
        "pipeline", "solved", "wrong", "total time (s)", "decisions"
    ));
    for a in arms {
        out.push_str(&format!(
            "{:<12} {:>8} {:>6} {:>14.2} {:>14}\n",
            a.name,
            a.solved(),
            a.wrong().count(),
            a.total_secs(penalty),
            a.decisions()
        ));
    }
    for a in arms {
        for (r, reason) in a.wrong() {
            out.push_str(&format!("WRONG {} {}: {reason}\n", a.name, r.instance));
        }
    }
    out.push_str("\ncactus series (cumulative seconds, instances solved):\n");
    for a in arms {
        let series = a.cactus();
        out.push_str(&format!("  {:<12}", a.name));
        // Print at most 12 evenly spaced points.
        let step = (series.len() / 12).max(1);
        for (t, n) in series.iter().step_by(step) {
            out.push_str(&format!(" ({t:.2},{n})"));
        }
        out.push('\n');
    }
    out
}

/// Writes records as CSV (hand-rolled; avoids extra dependencies).
pub fn records_to_csv(arms: &[Arm]) -> String {
    let mut out = String::from(
        "pipeline,solver,instance,status,decisions,conflicts,cnf_vars,cnf_clauses,preprocess_secs,solve_secs,recipe,reason\n",
    );
    for arm in arms {
        for r in &arm.records {
            let (status, reason) = match &r.status {
                Status::Sat => ("sat", ""),
                Status::Unsat => ("unsat", ""),
                Status::Timeout => ("timeout", ""),
                Status::Wrong { reason } => ("wrong", reason.as_str()),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.6},{:.6},{},{}\n",
                arm.name,
                r.solver,
                r.instance,
                status,
                r.decisions,
                r.conflicts,
                r.cnf_vars,
                r.cnf_clauses,
                r.preprocess_secs,
                r.solve_secs,
                r.recipe.replace(',', ";"),
                reason.replace(',', ";")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_are_deterministic_and_disjoint_seeds() {
        let s = Scale::quick();
        let a = train_split(&s);
        let b = train_split(&s);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].name, b[0].name);
        let t = test_split(&s);
        assert_eq!(t.len(), s.test_count);
    }

    #[test]
    fn table1_has_five_rows() {
        let rows = table1(&Scale::quick());
        assert_eq!(rows.len(), 5);
        let rendered = render_table1(&rows);
        assert!(rendered.contains("# Gates"));
        assert!(rendered.contains("Time (ms)"));
    }

    #[test]
    fn fig4_quick_shape_holds() {
        let arms = fig4(&Scale::quick(), "kissat", None);
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].name, "Baseline");
        assert_eq!(arms[2].name, "Ours");
        // Everything within budget on the quick scale.
        for a in &arms {
            assert!(
                a.solved() >= a.records.len() - 2,
                "{} timed out too much",
                a.name
            );
        }
        let csv = records_to_csv(&arms);
        assert!(csv.lines().count() > arms.len());
    }

    #[test]
    fn scale_names() {
        let quick = Scale::quick();
        assert_eq!(Scale::from_name(None, quick).episodes, quick.episodes);
        assert_eq!(
            Scale::from_name(Some("full"), quick).episodes,
            Scale::full().episodes
        );
        let err = std::panic::catch_unwind(|| Scale::from_name(Some("ful"), Scale::quick()))
            .expect_err("unknown scale must panic");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains("'ful'") && msg.contains("quick|standard|full"),
            "{msg}"
        );
    }

    #[test]
    fn solver_preset_names() {
        let _ = solver_preset("kissat");
        let _ = solver_preset("cadical");
        assert!(std::panic::catch_unwind(|| solver_preset("minisat")).is_err());
    }
}
