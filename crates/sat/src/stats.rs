//! Solver statistics.
//!
//! [`Stats::decisions`] is the quantity the paper approximates solving time
//! with ("variable branching times", Sec. III-B5): it is the reward signal
//! of the RL agent and the target of the cost-customised mapper.
//!
//! [`Stats::counters`] names every counter once; each view derives from
//! that list. An observed solver (see
//! [`Solver::set_observer`](crate::Solver::set_observer)) adds each
//! `solve()`'s increase of every counter to the registry's `sat.<name>`
//! counter, so `sat.*` counts the work inside observed `solve()` calls:
//! unit propagation while clauses are loaded shows in
//! [`Stats::propagations`] but not in `sat.propagations`.

/// Counters accumulated across `solve()` calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Branching decisions made (the paper's `#Branching`).
    pub decisions: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added.
    pub learnt_clauses: u64,
    /// Learnt clauses deleted by reduction.
    pub deleted_clauses: u64,
    /// Literals removed by conflict-clause minimisation.
    pub minimized_literals: u64,
    /// Clause-database garbage collections.
    pub gcs: u64,
    /// Watch lists whose spare capacity was reclaimed after reduction.
    pub watcher_shrinks: u64,
    /// Solves interrupted by a wall-clock deadline.
    pub deadline_interrupts: u64,
    /// Solves interrupted by an external cancellation token.
    pub cancellations: u64,
}

impl Stats {
    /// Every counter with its name, in field order: the one list the
    /// registry's `sat.<name>` counters and the CLI's resource report
    /// read.
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("decisions", self.decisions),
            ("conflicts", self.conflicts),
            ("propagations", self.propagations),
            ("restarts", self.restarts),
            ("learnt_clauses", self.learnt_clauses),
            ("deleted_clauses", self.deleted_clauses),
            ("minimized_literals", self.minimized_literals),
            ("gcs", self.gcs),
            ("watcher_shrinks", self.watcher_shrinks),
            ("deadline_interrupts", self.deadline_interrupts),
            ("cancellations", self.cancellations),
        ]
    }

    /// The `sat.<name>` counter of `reg` for each entry of
    /// [`Stats::counters`], in list order.
    pub(crate) fn registry_counters(reg: &obs::Registry) -> Vec<obs::Counter> {
        Stats::default()
            .counters()
            .iter()
            .map(|(name, _)| reg.counter(&format!("sat.{name}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = Stats::default();
        assert_eq!(s.decisions, 0);
        assert_eq!(s.conflicts, 0);
    }

    #[test]
    fn counters_name_every_field_once() {
        let s = Stats {
            decisions: 1,
            conflicts: 2,
            propagations: 3,
            restarts: 4,
            learnt_clauses: 5,
            deleted_clauses: 6,
            minimized_literals: 7,
            gcs: 8,
            watcher_shrinks: 9,
            deadline_interrupts: 10,
            cancellations: 11,
        };
        let list = s.counters();
        let values: Vec<u64> = list.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=11).collect::<Vec<u64>>());
        let mut names: Vec<&str> = list.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), list.len(), "names are distinct");
    }
}
