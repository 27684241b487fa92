//! The evaluation campaign behind `run_all`: Table I, Fig. 4, Fig. 5 and
//! the extension ablations, each a set of arms run by [`run_campaign`].

use csat_preproc::report::{
    cactus, run_campaign, summarize, total_decisions, total_runtime, RunRecord, Status, Summary,
};
use csat_preproc::{BaselinePipeline, CompPipeline, FrameworkPipeline, Pipeline};
use rl::env::EnvConfig;
use rl::train::{train_agent, TrainConfig};
use rl::{DqnAgent, DqnConfig, RecipePolicy};
use sat::{Budget, SolverConfig};
use std::process::ExitCode;
use sweep::FraigParams;
use synth::Recipe;
use workloads::dataset::{generate, generate_extended, instance_stats, DatasetParams};
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
    /// Seconds-scale runs for tests and CI.
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

    /// Minutes-scale runs; the default for `run_all`.
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

/// The extension ablations' extended families (prefix adders, tree
/// multipliers, shifters): half the test split's count, at its widths.
fn extended_split(scale: &Scale) -> Vec<Instance> {
    generate_extended(
        &DatasetParams {
            count: scale.test_count / 2,
            hard_multipliers: false,
            ..scale.test_params()
        },
        0xE87,
    )
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
/// milliseconds — the instances solve in well under a second each). The
/// clause counts and times come from the returned Kissat-like Baseline
/// arm over the training split, whose verdicts are checked like any other.
pub fn table1(scale: &Scale) -> (Vec<Table1Row>, Arm) {
    let set = train_split(scale);
    let solver = solver_preset("kissat");
    let mut arm = Arm::run(&BaselinePipeline, &set, "kissat", &solver, scale);
    arm.name = format!("train: {}", arm.name);
    let stats: Vec<_> = set.iter().map(|inst| instance_stats(&inst.aig)).collect();
    let row = |metric, xs: Vec<f64>| Table1Row {
        metric,
        summary: summarize(&xs),
    };
    let rows = vec![
        row("# Gates", stats.iter().map(|s| s.gates as f64).collect()),
        row("# PIs", stats.iter().map(|s| s.pis as f64).collect()),
        row("Depth", stats.iter().map(|s| s.depth as f64).collect()),
        row(
            "# Clauses",
            arm.records.iter().map(|r| r.cnf_clauses as f64).collect(),
        ),
        row(
            "Time (ms)",
            arm.records.iter().map(|r| r.solve_secs * 1e3).collect(),
        ),
    ];
    (rows, arm)
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
// Fig. 4 / Fig. 5 and extension campaigns
// ---------------------------------------------------------------------------

/// One experiment arm: a named pipeline's records over one instance set.
#[derive(Clone, Debug)]
pub struct Arm {
    /// Pipeline label.
    pub name: String,
    /// Per-instance records.
    pub records: Vec<RunRecord>,
}

impl Arm {
    /// Runs `pipeline` over `instances` with the named solver
    /// configuration and the scale's budget; the arm takes the pipeline's
    /// name.
    fn run(
        pipeline: &dyn Pipeline,
        instances: &[Instance],
        solver_name: &str,
        solver: &SolverConfig,
        scale: &Scale,
    ) -> Arm {
        let records = run_campaign(pipeline, instances, solver_name, solver, scale.budget());
        Arm {
            name: pipeline.name(),
            records,
        }
    }

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
}

/// Runs the Fig. 4 comparison — Baseline vs. Comp. vs. Ours with the
/// trained `agent` — under one solver preset.
pub fn fig4(scale: &Scale, solver_name: &str, agent: &DqnAgent) -> Vec<Arm> {
    let pipelines: Vec<Box<dyn Pipeline>> = vec![
        Box::new(BaselinePipeline),
        Box::new(CompPipeline),
        Box::new(FrameworkPipeline::ours(RecipePolicy::Agent(Box::new(
            agent.clone(),
        )))),
    ];
    let test = test_split(scale);
    let solver = solver_preset(solver_name);
    pipelines
        .iter()
        .map(|p| Arm::run(p.as_ref(), &test, solver_name, &solver, scale))
        .collect()
}

/// Runs the Fig. 5 ablations — w/o RL (random recipes) and C. Mapper (the
/// trained `agent`'s recipes, mapped by area cost) — under the Kissat-like
/// preset, as in the paper's ablation section. Their *Ours* reference is
/// Fig. 4(a)'s arm: the same pipeline, preset, budget and split.
pub fn fig5(scale: &Scale, agent: &DqnAgent) -> Vec<Arm> {
    let pipelines: Vec<Box<dyn Pipeline>> = vec![
        Box::new(FrameworkPipeline::without_rl(0xF165, 10)),
        Box::new(FrameworkPipeline::conventional_mapper(RecipePolicy::Agent(
            Box::new(agent.clone()),
        ))),
    ];
    let test = test_split(scale);
    let solver = solver_preset("kissat");
    pipelines
        .iter()
        .map(|p| Arm::run(p.as_ref(), &test, "kissat", &solver, scale))
        .collect()
}

/// Runs the extension ablations, which are not paper figures: SAT
/// sweeping (fraig) ahead of the cost-customised mapping, and
/// SatELite-style CNF presolve behind it. Baseline, Ours (size script)
/// and Ours + fraig are each solved plain and presolved under the
/// Kissat-like preset, on the test split and on the extended families
/// (prefix adders, tree multipliers, shifters): 12 arms, each `+presolve`
/// arm, whose solver sets [`SolverConfig::presolve`], next to its plain
/// twin.
pub fn ext(scale: &Scale) -> Vec<Arm> {
    let ours = || FrameworkPipeline::ours(RecipePolicy::Fixed(Recipe::size_script()));
    let pipelines: Vec<Box<dyn Pipeline>> = vec![
        Box::new(BaselinePipeline),
        Box::new(ours()),
        Box::new(ours().with_sweep(FraigParams::default())),
    ];
    let plain = solver_preset("kissat");
    let presolving = SolverConfig {
        presolve: true,
        ..plain.clone()
    };
    let mut arms = Vec::new();
    for (set, instances) in [
        ("test", test_split(scale)),
        ("extended", extended_split(scale)),
    ] {
        for p in &pipelines {
            for (suffix, solver) in [("", &plain), (" +presolve", &presolving)] {
                let mut arm = Arm::run(p.as_ref(), &instances, "kissat", solver, scale);
                arm.name = format!("{set}: {}{suffix}", arm.name);
                arms.push(arm);
            }
        }
    }
    arms
}

/// `run_all`'s exit status: failure when any verdict in `arms` was wrong.
/// Each wrong verdict is listed on stderr.
pub fn exit_status(arms: &[Arm]) -> ExitCode {
    let mut wrong = 0;
    for a in arms {
        for (r, reason) in a.wrong() {
            eprintln!("WRONG {} {}: {reason}", a.name, r.instance);
            wrong += 1;
        }
    }
    if wrong == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {wrong} wrong verdict(s)");
    ExitCode::FAILURE
}

/// Renders arm totals + cactus series in the paper's Fig. 4/5 shape.
pub fn render_arms(arms: &[Arm], penalty: f64) -> String {
    let width = arms
        .iter()
        .map(|a| a.name.len())
        .fold("pipeline".len(), usize::max);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$} {:>8} {:>6} {:>14} {:>14}\n",
        "pipeline", "solved", "wrong", "total time (s)", "decisions"
    ));
    for a in arms {
        out.push_str(&format!(
            "{:<width$} {:>8} {:>6} {:>14.2} {:>14}\n",
            a.name,
            a.solved(),
            a.wrong().count(),
            a.total_secs(penalty),
            a.decisions()
        ));
    }
    out.push_str("\ncactus series (cumulative seconds, instances solved):\n");
    for a in arms {
        let series = cactus(&a.records);
        out.push_str(&format!("  {:<width$}", a.name));
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
        let scale = Scale::quick();
        let (rows, arm) = table1(&scale);
        assert_eq!(rows.len(), 5);
        let avgs: Vec<f64> = rows[..4].iter().map(|r| r.summary.avg).collect();
        assert_eq!(avgs, [107.5, 11.75, 16.75, 304.75]);
        assert_eq!(arm.solved(), scale.train_count);
        let rendered = render_table1(&rows);
        assert!(rendered.contains("# Gates"));
        assert!(rendered.contains("Time (ms)"));
    }

    #[test]
    fn fig4_quick_shape_holds() {
        let scale = Scale::quick();
        let arms = fig4(&scale, "kissat", &trained_agent(&scale));
        // The trained agent's totals repeat exactly in every build profile.
        let totals: Vec<_> = arms
            .iter()
            .map(|a| (a.name.as_str(), a.solved(), a.decisions()))
            .collect();
        assert_eq!(
            totals,
            [("Baseline", 9, 1603), ("Comp.", 9, 3328), ("Ours", 9, 1456)]
        );
        let csv = records_to_csv(&arms);
        assert_eq!(csv.lines().count(), 1 + 3 * scale.test_count);
    }

    #[test]
    fn ext_quick_counts_hold() {
        let arms = ext(&Scale::quick());
        assert_eq!(arms.len(), 12);
        assert_eq!(arms.iter().map(|a| a.wrong().count()).sum::<usize>(), 0);
        for twins in arms.chunks(2) {
            assert_eq!(twins[1].name, format!("{} +presolve", twins[0].name));
            assert_eq!(twins[1].solved(), twins[0].solved(), "{}", twins[1].name);
        }
        // Plain and presolved decisions of Baseline, Ours and Ours + fraig,
        // on the test split and then the extended families. The fraig arms
        // sweep on the default shard count, so they too decide the same
        // on any host.
        let decisions: Vec<u64> = arms.iter().map(Arm::decisions).collect();
        assert_eq!(
            decisions,
            [1603, 1971, 1996, 1474, 92, 41, 301, 531, 380, 393, 44, 0]
        );
    }

    /// With presolve and proof on, the solver certifies php(8) and every
    /// UNSAT encoding of the quick test split and the extended families
    /// under Baseline and size-script Ours against the input formula; with
    /// presolve's leading steps cut out, some certificate fails to check.
    #[test]
    fn presolved_certificates_check_against_the_input() {
        let scale = Scale::quick();
        let ours = FrameworkPipeline::ours(RecipePolicy::Fixed(Recipe::size_script()));
        let instances = [test_split(&scale), extended_split(&scale)].concat();
        let mut cnfs = vec![
            BaselinePipeline
                .preprocess(&workloads::cnf_gen::pigeonhole_aig(8))
                .cnf,
        ];
        for p in [&BaselinePipeline as &dyn Pipeline, &ours] {
            cnfs.extend(instances.iter().map(|i| p.preprocess(&i.aig).cnf));
        }
        let config = SolverConfig {
            presolve: true,
            proof: true,
            ..solver_preset("kissat")
        };
        let (mut certified, mut rejected_without_presolve) = (0, 0);
        for cnf in &cnfs {
            let mut solver = sat::Solver::from_cnf(cnf, config.clone());
            solver.set_budget(scale.budget());
            if !solver.solve().is_unsat() {
                continue;
            }
            solver.certify(&[]).expect("presolved certificate checks");
            certified += 1;
            let mut presolve_steps = checker::Proof::new();
            sat::presolve::presolve(cnf, Some(&mut presolve_steps));
            let log = solver.proof().expect("logging on");
            let (head, search) = log.proof().steps.split_at(presolve_steps.steps.len());
            assert_eq!(head, presolve_steps.steps, "presolve's steps lead the log");
            let search = checker::Proof {
                steps: search.to_vec(),
            };
            if checker::check(log.originals(), &search).is_err() {
                rejected_without_presolve += 1;
            }
        }
        assert_eq!(certified, 11);
        assert!(rejected_without_presolve >= 1);
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
