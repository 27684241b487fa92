//! Solver-side observability: the [`SolverTrace`] attached by
//! [`Solver::set_observer`](crate::Solver::set_observer).
//!
//! The solver stores it as `Option<Box<SolverTrace>>` — the same shape as
//! the proof log — so an unobserved solver pays one null-check at the
//! conflict-rate probe sites and nothing on the propagation hot path.
//! Once per `solve()` the trace adds the increase of every counter in
//! [`Stats::counters`] to the registry's `sat.<name>` counter (stats are
//! lifetime totals; the registry wants per-call increments), so `sat.*`
//! counts the work done inside observed solves only. Each solve runs
//! under a `sat.solve` span carrying the per-call conflict, decision,
//! propagation and tick counts on exit; a presolving load runs under a
//! `sat.presolve` span beside them.

use crate::stats::Stats;
use crate::SolveResult;

/// Live observability hooks for one solver.
pub(crate) struct SolverTrace {
    /// Span the per-solve spans hang under (a serve query, a sweep shard,
    /// an mc frame — or the registry root).
    pub(crate) parent: obs::SpanHandle,
    /// The `sat.<name>` counters, in [`Stats::counters`] order.
    counters: Vec<obs::Counter>,
    /// Conflicts per `solve()` call (the paper's per-query cost signal).
    per_solve: obs::Histogram,
    /// Propagations from a solve's start to its first conflict, between
    /// consecutive conflicts, and after its last conflict, so the bursts
    /// sum to the solve's propagations.
    burst: obs::Histogram,
    /// Span of the in-flight `solve()`, if any.
    active: Option<obs::Span>,
    /// Stats snapshot at the start of the in-flight solve (for deltas).
    base: Stats,
    /// `stats.propagations` at the previous conflict (burst bookkeeping).
    last_props: u64,
}

impl std::fmt::Debug for SolverTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverTrace")
            .field("active", &self.active.is_some())
            .finish()
    }
}

/// Cloning a solver (sweep forks oracles across shards) must not
/// duplicate an open span: the clone starts with no in-flight solve and
/// shares the metric cells.
impl Clone for SolverTrace {
    fn clone(&self) -> SolverTrace {
        SolverTrace {
            parent: self.parent.clone(),
            counters: self.counters.clone(),
            per_solve: self.per_solve.clone(),
            burst: self.burst.clone(),
            active: None,
            base: self.base,
            last_props: 0,
        }
    }
}

impl SolverTrace {
    pub(crate) fn new(parent: obs::SpanHandle) -> SolverTrace {
        let reg = parent.registry();
        SolverTrace {
            parent,
            counters: Stats::registry_counters(&reg),
            per_solve: reg.histogram("sat.solve.conflicts"),
            burst: reg.histogram("sat.propagation_burst"),
            active: None,
            base: Stats::default(),
            last_props: 0,
        }
    }

    /// Opens the `sat.solve` span and snapshots the stats baseline.
    pub(crate) fn solve_start(&mut self, stats: &Stats, assumptions: usize) {
        self.base = *stats;
        self.last_props = stats.propagations;
        self.active = Some(
            self.parent
                .child_with("sat.solve", &[("assumptions", assumptions.into())]),
        );
    }

    /// Accumulates the solve's deltas into the live counters and closes
    /// the span with the per-call totals.
    pub(crate) fn solve_end(&mut self, stats: &Stats, result: &SolveResult) {
        let (now, then) = (stats.counters(), self.base.counters());
        for ((counter, (_, now)), (_, then)) in self.counters.iter().zip(now).zip(then) {
            counter.add(now - then);
        }
        let dc = stats.conflicts - self.base.conflicts;
        let dd = stats.decisions - self.base.decisions;
        let dp = stats.propagations - self.base.propagations;
        let dt = stats.ticks - self.base.ticks;
        self.per_solve.observe(dc);
        let tail = stats.propagations - self.last_props;
        if tail > 0 {
            self.burst.observe(tail);
        }
        if let Some(span) = self.active.take() {
            span.record("conflicts", dc);
            span.record("decisions", dd);
            span.record("propagations", dp);
            span.record("ticks", dt);
            span.record(
                "result",
                match result {
                    SolveResult::Sat(_) => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                },
            );
        }
    }

    /// Conflict probe: records the propagation burst since the previous
    /// conflict. Called once per conflict, never on the propagation path.
    pub(crate) fn on_conflict(&mut self, stats: &Stats) {
        self.burst.observe(stats.propagations - self.last_props);
        self.last_props = stats.propagations;
    }

    /// Restart boundary, as an instant event on the active solve span.
    pub(crate) fn on_restart(&self, stats: &Stats) {
        if let Some(span) = &self.active {
            span.event("restart", &[("conflicts", stats.conflicts.into())]);
        }
    }

    /// Clause-database reduction boundary.
    pub(crate) fn on_reduce(&self, stats: &Stats) {
        if let Some(span) = &self.active {
            span.event(
                "reduce_db",
                &[
                    ("conflicts", stats.conflicts.into()),
                    ("deleted", stats.deleted_clauses.into()),
                ],
            );
        }
    }

    /// Arena garbage-collection boundary.
    pub(crate) fn on_gc(&self, stats: &Stats) {
        if let Some(span) = &self.active {
            span.event("gc", &[("gcs", stats.gcs.into())]);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Solver, SolverConfig};
    use cnf::{Cnf, CnfLit};

    /// php(4): 5 pigeons, 4 holes — UNSAT with a non-trivial search.
    fn php4() -> Cnf {
        pigeons_in_holes(5, 4)
    }

    /// Each pigeon in some hole, no two in one.
    fn pigeons_in_holes(pigeons: usize, holes: usize) -> Cnf {
        let var = |p: usize, h: usize| (p * holes + h + 1) as u32;
        let mut f = Cnf::new();
        for p in 0..pigeons {
            f.add_clause((0..holes).map(|h| CnfLit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    f.add_clause(vec![CnfLit::neg(var(p1, h)), CnfLit::neg(var(p2, h))]);
                }
            }
        }
        f
    }

    #[test]
    fn observed_solve_emits_span_and_counter_deltas() {
        let reg = obs::Registry::tracing();
        let mut s = Solver::from_cnf(&php4(), SolverConfig::default());
        s.set_observer(reg.root());
        assert!(s.solve().is_unsat());
        // php(4) has no unit clause, so loading propagates nothing and
        // every live counter equals its stats total after one solve.
        let snap = reg.snapshot();
        for (name, total) in s.stats().counters() {
            assert_eq!(snap.value(&format!("sat.{name}")), Some(total), "{name}");
        }
        let events = reg.drain_events();
        obs::check::validate(&events).expect("well-formed");
        assert_eq!(
            obs::check::sum_field(&events, "sat.solve", "conflicts"),
            s.stats().conflicts
        );
        let hist = snap.histogram("sat.solve.conflicts").expect("registered");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, s.stats().conflicts);
    }

    #[test]
    fn propagation_bursts_sum_to_the_propagation_counter() {
        let reg = obs::Registry::metrics_only();
        let mut s = Solver::from_cnf(&php4(), SolverConfig::default());
        s.set_observer(reg.root());
        assert!(s.solve().is_unsat());
        // A satisfiable solve propagates after its last conflict, until
        // every variable is assigned.
        let mut t = Solver::from_cnf(&pigeons_in_holes(6, 6), SolverConfig::default());
        t.set_observer(reg.root());
        assert!(t.solve().is_sat());
        let snap = reg.snapshot();
        let bursts = snap.histogram("sat.propagation_burst").expect("registered");
        let props = snap.value("sat.propagations").expect("registered");
        assert!(props > 0);
        assert_eq!(bursts.sum, props);
    }

    #[test]
    fn presolving_load_runs_under_a_presolve_span() {
        let reg = obs::Registry::tracing();
        let f = php4();
        let mut s = Solver::new(SolverConfig {
            presolve: true,
            ..SolverConfig::default()
        });
        s.set_observer(reg.root());
        s.add_cnf(&f);
        assert!(s.solve().is_unsat());
        let events = reg.drain_events();
        obs::check::validate(&events).expect("well-formed");
        let field = |span, name| obs::check::sum_field(&events, span, name);
        assert_eq!(field("sat.presolve", "clauses_in"), f.num_clauses() as u64);
        let out = field("sat.presolve", "clauses_out");
        assert!(0 < out && out < f.num_clauses() as u64, "{out}");
        assert!(field("sat.presolve", "eliminated_vars") > 0);
        assert_eq!(field("sat.solve", "decisions"), s.stats().decisions);
        let snap = reg.snapshot();
        assert_eq!(snap.value("sat.decisions"), Some(s.stats().decisions));
    }

    #[test]
    fn cloned_observed_solver_shares_counters_but_not_spans() {
        let reg = obs::Registry::tracing();
        let mut base = Solver::from_cnf(&php4(), SolverConfig::default());
        base.set_observer(reg.root());
        let mut a = base.clone();
        let mut b = base.clone();
        assert!(a.solve().is_unsat());
        assert!(b.solve().is_unsat());
        let total = a.stats().conflicts + b.stats().conflicts;
        assert_eq!(reg.snapshot().value("sat.conflicts"), Some(total));
        obs::check::validate(&reg.drain_events()).expect("well-formed");
    }

    #[test]
    fn disabled_observer_detaches() {
        let mut s = Solver::from_cnf(&php4(), SolverConfig::default());
        s.set_observer(obs::Registry::tracing().root());
        s.set_observer(obs::Registry::disabled().root());
        assert!(s.solve().is_unsat());
    }
}
