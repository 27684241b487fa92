//! Experiment execution and reporting: run pipelines over instance sets,
//! collect per-instance records, and derive the paper's plots/tables
//! (cactus curves, totals, Table-I statistics).

use crate::pipeline::Pipeline;
use aig::Aig;
use cnf::Cnf;
use sat::{Budget, SolveResult, SolverConfig, Stats};
use std::time::Instant;
use workloads::Instance;

/// Outcome of one (pipeline, instance, solver) run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// Satisfiable; the decoded model satisfies the original circuit.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted (the paper's TO).
    Timeout,
    /// A wrong verdict: a model that does not satisfy the original
    /// circuit, or a verdict that contradicts the instance's label.
    /// Counts as unsolved; the campaign binary exits non-zero on it.
    Wrong {
        /// What was wrong.
        reason: String,
    },
}

/// One run record.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Instance name.
    pub instance: String,
    /// Pipeline name.
    pub pipeline: String,
    /// Solver preset name.
    pub solver: String,
    /// Outcome.
    pub status: Status,
    /// Branching decisions (the paper's core metric).
    pub decisions: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// CNF variables handed to the solver.
    pub cnf_vars: u32,
    /// CNF clauses handed to the solver.
    pub cnf_clauses: usize,
    /// Preprocessing seconds (RL inference + transformation time).
    pub preprocess_secs: f64,
    /// Solving seconds.
    pub solve_secs: f64,
    /// Executed synthesis recipe.
    pub recipe: String,
}

impl RunRecord {
    /// Total runtime of the run (preprocess + solve), as the paper reports.
    pub fn total_secs(&self) -> f64 {
        self.preprocess_secs + self.solve_secs
    }

    /// True when the run finished within budget with a right verdict.
    pub fn solved(&self) -> bool {
        matches!(self.status, Status::Sat | Status::Unsat)
    }
}

/// The solve step of a run: [`sat::solve_cnf`], or
/// [`sat::presolve::solve_cnf_presolved`] to presolve the CNF first.
pub type SolveFn = fn(&Cnf, SolverConfig, Budget) -> (SolveResult, Stats);

/// Runs one pipeline on one instance with one solver preset, solving the
/// CNF with `solve`.
pub fn run_one(
    pipeline: &dyn Pipeline,
    instance: &Instance,
    solve: SolveFn,
    solver_name: &str,
    solver: &SolverConfig,
    budget: Budget,
) -> RunRecord {
    let pre = pipeline.preprocess(&instance.aig);
    let t0 = Instant::now();
    let (result, stats) = solve(&pre.cnf, solver.clone(), budget);
    let solve_secs = t0.elapsed().as_secs_f64();
    let status = classify(&instance.aig, &pre, &result, instance.expected);
    let Stats {
        decisions,
        conflicts,
        ..
    } = stats;
    RunRecord {
        instance: instance.name.clone(),
        pipeline: pipeline.name(),
        solver: solver_name.to_string(),
        status,
        decisions,
        conflicts,
        cnf_vars: pre.cnf.num_vars(),
        cnf_clauses: pre.cnf.num_clauses(),
        preprocess_secs: pre.preprocess_time.as_secs_f64(),
        solve_secs,
        recipe: pre.recipe,
    }
}

/// Checks a verdict against the original circuit and the instance's
/// label, in every build profile: a SAT model is replayed on `aig`, and a
/// contradiction becomes [`Status::Wrong`].
fn classify(
    aig: &Aig,
    pre: &crate::pipeline::PreprocessResult,
    result: &SolveResult,
    expected: Option<bool>,
) -> Status {
    let wrong = |reason: &str| Status::Wrong {
        reason: reason.to_string(),
    };
    match result {
        SolveResult::Sat(model) => {
            let ins = pre.decoder.decode_inputs(model);
            if !aig.eval(&ins).iter().any(|&o| o) {
                wrong("decoded model does not satisfy the circuit")
            } else if expected == Some(false) {
                wrong("instance labelled UNSAT produced a model")
            } else {
                Status::Sat
            }
        }
        SolveResult::Unsat if expected == Some(true) => wrong("instance labelled SAT proved UNSAT"),
        SolveResult::Unsat => Status::Unsat,
        SolveResult::Unknown => Status::Timeout,
    }
}

/// Runs a pipeline over a whole instance set, solving with `solve`.
pub fn run_campaign(
    pipeline: &dyn Pipeline,
    instances: &[Instance],
    solve: SolveFn,
    solver_name: &str,
    solver: &SolverConfig,
    budget: Budget,
) -> Vec<RunRecord> {
    instances
        .iter()
        .map(|inst| run_one(pipeline, inst, solve, solver_name, solver, budget.clone()))
        .collect()
}

/// Cactus-plot data: after sorting solved runs by total runtime, point `i`
/// is (cumulative seconds, instances solved). This is exactly the paper's
/// Fig. 4/5 presentation.
pub fn cactus(records: &[RunRecord]) -> Vec<(f64, usize)> {
    let mut times: Vec<f64> = records
        .iter()
        .filter(|r| r.solved())
        .map(RunRecord::total_secs)
        .collect();
    times.sort_by(f64::total_cmp);
    let mut out = Vec::with_capacity(times.len());
    let mut acc = 0.0;
    for (i, t) in times.into_iter().enumerate() {
        acc += t;
        out.push((acc, i + 1));
    }
    out
}

/// Total runtime with time-outs charged at `penalty_secs` (the paper uses
/// the 1000 s limit itself).
pub fn total_runtime(records: &[RunRecord], penalty_secs: f64) -> f64 {
    records
        .iter()
        .map(|r| {
            if r.solved() {
                r.total_secs()
            } else {
                penalty_secs
            }
        })
        .sum()
}

/// Total branching decisions across a campaign.
pub fn total_decisions(records: &[RunRecord]) -> u64 {
    records.iter().map(|r| r.decisions).sum()
}

/// Avg/Std/Min/Max summary of a sample (Table I's row format).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Mean.
    pub avg: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes a [`Summary`]; returns zeros on an empty sample.
pub fn summarize(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary {
            avg: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let n = xs.len() as f64;
    let avg = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - avg) * (x - avg)).sum::<f64>() / n;
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Summary {
        avg,
        std: var.sqrt(),
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselinePipeline;
    use sat::presolve::solve_cnf_presolved;
    use sat::solve_cnf;
    use workloads::dataset::{generate, DatasetParams};

    #[test]
    fn campaign_produces_valid_records() {
        let set = generate(
            &DatasetParams {
                count: 4,
                min_bits: 4,
                max_bits: 6,
                hard_multipliers: false,
            },
            8,
        );
        let records = run_campaign(
            &BaselinePipeline,
            &set,
            solve_cnf,
            "kissat",
            &SolverConfig::kissat_like(),
            Budget::conflicts(200_000),
        );
        assert_eq!(records.len(), 4);
        for r in &records {
            assert!(
                !matches!(r.status, Status::Wrong { .. }),
                "{}: {:?}",
                r.instance,
                r.status
            );
            assert!(r.cnf_vars > 0);
        }
    }

    #[test]
    fn mislabelled_instances_are_wrong_and_unsolved() {
        // A satisfiable AND labelled UNSAT, and an unsatisfiable constant
        // output labelled SAT: both verdicts contradict their labels, with
        // or without presolve.
        let mut sat = Aig::new();
        let (a, b) = (sat.add_pi(), sat.add_pi());
        let f = sat.and(a, b);
        sat.add_po(f);
        let mut unsat = Aig::new();
        unsat.add_pi();
        unsat.add_po(aig::Lit::FALSE);
        for (aig, expected, reason) in [
            (sat, false, "instance labelled UNSAT produced a model"),
            (unsat, true, "instance labelled SAT proved UNSAT"),
        ] {
            let inst = Instance {
                name: "mislabelled".into(),
                kind: workloads::InstanceKind::Lec,
                aig,
                expected: Some(expected),
            };
            for solve in [solve_cnf as SolveFn, solve_cnf_presolved] {
                let r = run_one(
                    &BaselinePipeline,
                    &inst,
                    solve,
                    "kissat",
                    &SolverConfig::kissat_like(),
                    Budget::conflicts(1_000),
                );
                assert_eq!(
                    r.status,
                    Status::Wrong {
                        reason: reason.into()
                    }
                );
                assert!(!r.solved());
            }
        }
    }

    #[test]
    fn cactus_monotone() {
        let set = generate(
            &DatasetParams {
                count: 5,
                min_bits: 4,
                max_bits: 6,
                hard_multipliers: false,
            },
            9,
        );
        let records = run_campaign(
            &BaselinePipeline,
            &set,
            solve_cnf,
            "kissat",
            &SolverConfig::kissat_like(),
            Budget::conflicts(200_000),
        );
        let c = cactus(&records);
        assert!(!c.is_empty());
        for w in c.windows(2) {
            assert!(w[1].0 >= w[0].0, "cumulative time must not decrease");
            assert_eq!(w[1].1, w[0].1 + 1);
        }
    }

    #[test]
    fn summary_stats() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.avg, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - 1.118).abs() < 1e-3);
        let empty = summarize(&[]);
        assert_eq!(empty.avg, 0.0);
    }

    #[test]
    fn timeout_penalty_applied() {
        let records = vec![RunRecord {
            instance: "x".into(),
            pipeline: "p".into(),
            solver: "s".into(),
            status: Status::Timeout,
            decisions: 10,
            conflicts: 10,
            cnf_vars: 1,
            cnf_clauses: 1,
            preprocess_secs: 0.1,
            solve_secs: 0.5,
            recipe: String::new(),
        }];
        assert_eq!(total_runtime(&records, 1000.0), 1000.0);
    }
}
