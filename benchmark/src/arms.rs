//! The paper's pipeline arms, run two ways.
//!
//! [`run_plain`] drives each arm through its public pipeline type, exactly
//! as `csat solve` does, and times it end to end. [`run_traced`] composes
//! the same arm from the layer calls (`synth::apply_op`, `sweep::fraig`,
//! `mapper::map_luts`, the `cnf` encoders, `sat::Solver`) and wraps each
//! call in an `obs` span. Both replay every verdict through [`judge`], and
//! both produce the same exact counters, which the caller compares.

use crate::workload::Case;
use aig::Aig;
use cnf::{lut_to_cnf_sat_instance, tseitin_sat_instance};
use csat_preproc::{BaselinePipeline, CompPipeline, Decoder, FrameworkPipeline, Pipeline};
use mapper::{map_luts, AreaCost, BranchingCost, CutCost, MapParams, MappingStats};
use rl::RecipePolicy;
use sat::{solve_cnf, Budget, SolveResult, Solver, SolverConfig, Stats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use synth::{apply_op, Recipe, SynthOp};

/// Conflict budget of every arm's solve: a budget-out is unsolved, and the
/// same budget gives the same verdicts and counts on every run.
pub const CONFLICT_BUDGET: u64 = 100_000;

/// The recipe `csat solve` runs for the *Ours* pipeline by default.
pub const OURS_RECIPE: &str = "rs;rs;rw";

/// One arm of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Direct Tseitin encoding, no synthesis.
    Baseline,
    /// Size-oriented synthesis plus area-cost LUT mapping.
    Comp,
    /// The shipped framework: fixed recipe plus branching-cost mapping.
    Ours,
    /// `Ours` with SAT sweeping before mapping (`csat solve --sweep`).
    OursFraig,
}

impl Arm {
    /// Every arm, in report order.
    pub const ALL: [Arm; 4] = [Arm::Baseline, Arm::Comp, Arm::Ours, Arm::OursFraig];

    /// Metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Baseline => "baseline",
            Arm::Comp => "comp",
            Arm::Ours => "ours",
            Arm::OursFraig => "ours_fraig",
        }
    }

    fn recipe(self) -> Option<Recipe> {
        match self {
            Arm::Baseline => None,
            Arm::Comp => Some(Recipe::size_script()),
            Arm::Ours | Arm::OursFraig => Some(OURS_RECIPE.parse().expect("valid recipe")),
        }
    }

    fn pipeline(self) -> Box<dyn Pipeline> {
        let ours = || {
            FrameworkPipeline::ours(RecipePolicy::Fixed(
                self.recipe().expect("ours has a recipe"),
            ))
        };
        match self {
            Arm::Baseline => Box::new(BaselinePipeline),
            Arm::Comp => Box::new(CompPipeline::default()),
            Arm::Ours => Box::new(ours()),
            Arm::OursFraig => Box::new(ours().with_sweep(sweep::FraigParams::default())),
        }
    }
}

/// A verdict that survived the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// A model that satisfies the original circuit.
    Sat,
    /// Proved unsatisfiable.
    Unsat,
    /// Conflict budget exhausted: unsolved, not failed.
    Unsolved,
}

/// The exact counters of one case under one arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Counts {
    /// Verdict (`None` when the run failed).
    pub outcome: Option<Outcome>,
    /// Solver decisions.
    pub decisions: u64,
    /// Solver conflicts.
    pub conflicts: u64,
    /// CNF variables.
    pub vars: u64,
    /// CNF clauses.
    pub clauses: u64,
}

/// The result of one arm over all cases.
#[derive(Clone, Debug, Default)]
pub struct ArmRun {
    /// Wall seconds of preprocess + solve + verdict check, per case.
    pub case_s: Vec<f64>,
    /// Per-case counters, in case order.
    pub counts: Vec<Counts>,
    /// Failure messages (case name first).
    pub failures: Vec<String>,
}

impl ArmRun {
    /// Cases decided within the budget.
    pub fn solved(&self) -> usize {
        self.counts
            .iter()
            .filter(|c| matches!(c.outcome, Some(Outcome::Sat | Outcome::Unsat)))
            .count()
    }
}

/// The verdict oracle: replays a model on the original circuit and checks
/// the verdict against the case's label.
pub fn judge(case: &Case, decoder: &Decoder, result: &SolveResult) -> Result<Outcome, String> {
    match result {
        SolveResult::Sat(model) => {
            let inputs = decoder.decode_inputs(model);
            if !case.aig.eval(&inputs).iter().any(|&o| o) {
                return Err("model does not satisfy the original circuit".into());
            }
            if case.expected == Some(false) {
                return Err("SAT on a case labelled UNSAT".into());
            }
            Ok(Outcome::Sat)
        }
        SolveResult::Unsat => {
            if case.expected == Some(true) {
                return Err("UNSAT on a case labelled SAT".into());
            }
            Ok(Outcome::Unsat)
        }
        SolveResult::Unknown => Ok(Outcome::Unsolved),
    }
}

fn budget() -> Budget {
    Budget::conflicts(CONFLICT_BUDGET)
}

/// Runs a closure, turning a panic into a failure message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".into());
        Err(format!("panic: {msg}"))
    })
}

fn record(run: &mut ArmRun, arm: Arm, case: &Case, r: Result<Counts, String>) {
    match r {
        Ok(c) => run.counts.push(c),
        Err(e) => {
            run.failures
                .push(format!("{} [{}]: {e}", case.name, arm.name()));
            run.counts.push(Counts::default());
        }
    }
}

/// Runs every arm over the cases through its pipeline type, one arm after
/// another as the traced run does, one result per arm in [`Arm::ALL`]
/// order. `between` runs before each case, outside the timed region.
pub fn run_plain(cases: &[Case], between: &mut dyn FnMut()) -> Vec<ArmRun> {
    let mut runs = Vec::with_capacity(Arm::ALL.len());
    for arm in Arm::ALL {
        let pipeline = arm.pipeline();
        let mut run = ArmRun::default();
        for case in cases {
            between();
            let t0 = Instant::now();
            let r = guarded(|| {
                let pre = pipeline.preprocess(&case.aig);
                let (result, stats) = solve_cnf(&pre.cnf, SolverConfig::kissat_like(), budget());
                let outcome = judge(case, &pre.decoder, &result)?;
                Ok(counts(outcome, &stats, &pre.cnf))
            });
            run.case_s.push(t0.elapsed().as_secs_f64());
            record(&mut run, arm, case, r);
        }
        runs.push(run);
    }
    runs
}

fn counts(outcome: Outcome, stats: &Stats, cnf: &cnf::Cnf) -> Counts {
    Counts {
        outcome: Some(outcome),
        decisions: stats.decisions,
        conflicts: stats.conflicts,
        vars: u64::from(cnf.num_vars()),
        clauses: cnf.num_clauses() as u64,
    }
}

/// Layer counters that only the traced run can see.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct LayerCounts {
    /// AND gates after synthesis (and sweeping).
    pub ands_out: u64,
    /// AND gates after synthesis, before sweeping.
    pub synth_ands: u64,
    /// LUTs after mapping.
    pub luts: u64,
    /// Summed branching complexity of the mapping.
    pub branching: u64,
    /// Sweep SAT calls.
    pub sweep_sat_calls: u64,
    /// Sweep equivalences proved.
    pub sweep_proved: u64,
    /// Solver propagations.
    pub propagations: u64,
}

/// Span names of the synthesis operations.
fn op_span(op: SynthOp) -> &'static str {
    match op {
        SynthOp::Balance => "synth.b",
        SynthOp::Rewrite => "synth.rw",
        SynthOp::RewriteZ => "synth.rwz",
        SynthOp::Refactor => "synth.rf",
        SynthOp::Resub => "synth.rs",
    }
}

/// Runs one arm composed from its layer calls, one span per call.
pub fn run_traced(arm: Arm, cases: &[Case], tracer: &obs::Registry) -> (ArmRun, Vec<LayerCounts>) {
    let mut run = ArmRun::default();
    let mut layers = Vec::with_capacity(cases.len());
    let arm_span = tracer.span("arm");
    for case in cases {
        let t0 = Instant::now();
        let mut lc = LayerCounts::default();
        let r = guarded(|| {
            let case_span = arm_span.child("case");
            let (cnf, decoder) = match arm.recipe() {
                None => {
                    let _s = case_span.child("encode");
                    let (cnf, map) = tseitin_sat_instance(&case.aig);
                    (cnf, Decoder::Tseitin(map))
                }
                Some(recipe) => {
                    let mut g: Aig = case.aig.clone();
                    for &op in recipe.ops() {
                        let _s = case_span.child(op_span(op));
                        g = apply_op(&g, op);
                    }
                    lc.synth_ands = g.num_ands() as u64;
                    if arm == Arm::OursFraig {
                        let _s = case_span.child("sweep");
                        let out = sweep::fraig(&g, &sweep::FraigParams::default());
                        lc.sweep_sat_calls = out.stats.sat_calls;
                        lc.sweep_proved = out.stats.proved as u64;
                        g = out.aig;
                    }
                    lc.ands_out = g.num_ands() as u64;
                    let net = {
                        let _s = case_span.child("map");
                        let (area, branching);
                        let cost: &dyn CutCost = if arm == Arm::Comp {
                            area = AreaCost;
                            &area
                        } else {
                            branching = BranchingCost::new();
                            &branching
                        };
                        map_luts(&g, &MapParams::default(), cost)
                    };
                    let ms = MappingStats::of(&net);
                    lc.luts = ms.luts as u64;
                    lc.branching = ms.branching as u64;
                    let _s = case_span.child("encode");
                    let (cnf, map) = lut_to_cnf_sat_instance(&net);
                    (cnf, Decoder::Lut(map))
                }
            };
            let mut solver = {
                let _s = case_span.child("sat.load");
                Solver::from_cnf(&cnf, SolverConfig::kissat_like())
            };
            let result = {
                let _s = case_span.child("sat.search");
                solver.set_budget(budget());
                solver.solve()
            };
            let stats = *solver.stats();
            lc.propagations = stats.propagations;
            let outcome = {
                let _s = case_span.child("check");
                judge(case, &decoder, &result)?
            };
            Ok(counts(outcome, &stats, &cnf))
        });
        run.case_s.push(t0.elapsed().as_secs_f64());
        record(&mut run, arm, case, r);
        layers.push(lc);
    }
    (run, layers)
}
