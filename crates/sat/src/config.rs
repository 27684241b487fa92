//! Solver configuration and the two paper-substitute presets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Restart strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RestartStrategy {
    /// Luby sequence scaled by `base` conflicts (MiniSat/Kissat style).
    Luby {
        /// Conflicts per Luby unit.
        base: u64,
    },
    /// Glucose-style exponential moving averages of learnt-clause LBD:
    /// restart when `fast > margin * slow` after at least `min_interval`
    /// conflicts (CaDiCaL's focused mode).
    Glucose {
        /// Fast EMA smoothing (as a negative power of two, e.g. 5 = 2^-5).
        fast_shift: u32,
        /// Slow EMA smoothing (e.g. 14 = 2^-14).
        slow_shift: u32,
        /// Restart margin.
        margin: f64,
        /// Minimum conflicts between restarts.
        min_interval: u64,
    },
}

/// Full solver configuration.
///
/// The two presets stand in for the two solvers of the paper's evaluation
/// (Fig. 4a Kissat, Fig. 4c CaDiCaL): both are faithful CDCL configurations
/// that differ in restart policy, decay rates, and reduction cadence — the
/// dimensions along which the real solvers differ most.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// EVSIDS variable-activity decay factor.
    pub var_decay: f64,
    /// Learnt-clause activity decay factor.
    pub clause_decay: f64,
    /// Restart strategy.
    pub restart: RestartStrategy,
    /// Conflicts before the first clause-database reduction.
    pub reduce_first: u64,
    /// Additional conflicts before each subsequent reduction.
    pub reduce_increment: u64,
    /// Learnt clauses with LBD at most this are never deleted.
    pub keep_lbd: u32,
    /// Polarity used before a variable has a saved phase.
    pub default_phase: bool,
    /// Record a DRAT-style [`crate::proof::ProofLog`] of every derived
    /// clause addition (learnt clauses with hints for the checker) and
    /// deletion, presolve's steps included. Off by default; when off the
    /// solver carries no log, collects no hints, and pays nothing beyond
    /// a per-conflict `None` check.
    pub proof: bool,
    /// Run CNF presolve ([`crate::presolve`]) as the load step of
    /// [`crate::Solver::add_cnf`]: the solver searches the simplified
    /// formula, logs presolve's steps when [`SolverConfig::proof`] is on,
    /// and extends each model to the input's variables. A presolving
    /// solver takes one formula, through `add_cnf`, and nothing else:
    /// `add_clause` and non-empty assumptions panic, since a clause or
    /// an assumption on an eliminated variable would make model
    /// extension unsound. Off in both presets.
    pub presolve: bool,
}

impl SolverConfig {
    /// Aggressively restarting preset standing in for **Kissat 4.0**.
    pub fn kissat_like() -> SolverConfig {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart: RestartStrategy::Luby { base: 256 },
            reduce_first: 2000,
            reduce_increment: 1000,
            keep_lbd: 2,
            default_phase: false,
            proof: false,
            presolve: false,
        }
    }

    /// Glucose-EMA preset standing in for **CaDiCaL 2.0**.
    pub fn cadical_like() -> SolverConfig {
        SolverConfig {
            var_decay: 0.92,
            clause_decay: 0.995,
            restart: RestartStrategy::Glucose {
                fast_shift: 5,
                slow_shift: 12,
                margin: 1.25,
                min_interval: 64,
            },
            reduce_first: 3000,
            reduce_increment: 1500,
            keep_lbd: 3,
            default_phase: true,
            proof: false,
            presolve: false,
        }
    }
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig::kissat_like()
    }
}

/// Shared, hierarchical cancellation token an external controller flips to
/// interrupt every solver holding a clone of it.
///
/// Cancellation is sticky — once raised, every subsequent budgeted solve
/// returns [`crate::SolveResult::Unknown`] until [`Cancellation::reset`]
/// clears the flag (or the solver gets a budget without the token). The
/// solver polls it coarsely (once per interrupt-check period), so a
/// cancelled solve stops promptly but not instantaneously.
///
/// Tokens form a tree: [`Cancellation::child`] derives a token that is
/// cancelled whenever any of its ancestors is, while cancelling the child
/// leaves the parent (and its other children) untouched. That is how a
/// serving layer fans one engine-level shutdown out to every queued and
/// in-flight query without making the queries share a single global flag —
/// each query owns its child token and can be cancelled (or reset and
/// resumed) individually.
#[derive(Clone, Debug, Default)]
pub struct Cancellation(Arc<CancelNode>);

/// One node of the cancellation tree: an own flag plus an optional parent.
#[derive(Debug, Default)]
struct CancelNode {
    flag: AtomicBool,
    parent: Option<Arc<CancelNode>>,
}

impl Cancellation {
    /// A fresh, unraised root token.
    pub fn new() -> Cancellation {
        Cancellation::default()
    }

    /// Derives a child token: cancelled when `self` (or any ancestor of
    /// `self`) is cancelled, but cancelling the child does not reach
    /// `self`. Clones of the child share the child's flag, as always.
    pub fn child(&self) -> Cancellation {
        Cancellation(Arc::new(CancelNode {
            flag: AtomicBool::new(false),
            parent: Some(Arc::clone(&self.0)),
        }))
    }

    /// Raises this token (and therefore every descendant); safe to call
    /// from any thread, idempotent. Ancestors are unaffected.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`Cancellation::cancel`] has been called on this token or
    /// any of its ancestors.
    pub fn is_cancelled(&self) -> bool {
        let mut node: &CancelNode = &self.0;
        loop {
            if node.flag.load(Ordering::Relaxed) {
                return true;
            }
            match &node.parent {
                Some(p) => node = p,
                None => return false,
            }
        }
    }

    /// Clears this token's own flag so solvers sharing it can run again.
    /// A cancellation inherited from an ancestor is not cleared — reset
    /// the ancestor that was cancelled.
    pub fn reset(&self) {
        self.0.flag.store(false, Ordering::Relaxed);
    }
}

/// Resource limits for one `solve()` call.
///
/// Exceeding any limit makes the solver return
/// [`crate::SolveResult::Unknown`] with its incremental state intact —
/// re-querying resumes correctly. The wall-clock deadline and the
/// cancellation token are the serve-layer throttles (polled coarsely in
/// the search loop, never on the propagation hot path).
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum conflicts.
    pub conflicts: Option<u64>,
    /// Wall-clock deadline: the solve returns `Unknown` once `Instant::now()`
    /// passes it. Checked once per interrupt-check period, so overshoot is
    /// bounded by a batch of conflicts, not by the whole solve.
    pub deadline: Option<Instant>,
    /// External cancellation token shared with a controller thread.
    pub cancel: Option<Cancellation>,
}

impl Budget {
    /// No limits.
    pub const UNLIMITED: Budget = Budget {
        conflicts: None,
        deadline: None,
        cancel: None,
    };

    /// A conflict-count limit only.
    pub fn conflicts(n: u64) -> Budget {
        Budget {
            conflicts: Some(n),
            ..Budget::UNLIMITED
        }
    }

    /// A wall-clock limit only, expiring `timeout` from now.
    pub fn timeout(timeout: Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + timeout),
            ..Budget::UNLIMITED
        }
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Budget {
        self.deadline = deadline;
        self
    }

    /// Attaches a shared cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Cancellation) -> Budget {
        self.cancel = Some(cancel);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ() {
        let k = SolverConfig::kissat_like();
        let c = SolverConfig::cadical_like();
        assert_ne!(k.restart, c.restart);
        assert_ne!(k.var_decay, c.var_decay);
    }

    #[test]
    fn budget_helpers() {
        let b = Budget::conflicts(100);
        assert_eq!(b.conflicts, Some(100));
        assert!(b.deadline.is_none());
        assert!(b.cancel.is_none());
        let t = Budget::timeout(Duration::from_secs(1));
        assert!(t.deadline.is_some());
        assert!(t.conflicts.is_none());
    }

    #[test]
    fn cancellation_is_shared_sticky_and_resettable() {
        let c = Cancellation::new();
        let clone = c.clone();
        assert!(!clone.is_cancelled());
        c.cancel();
        assert!(clone.is_cancelled(), "clones share one flag");
        c.cancel(); // idempotent
        assert!(c.is_cancelled());
        clone.reset();
        assert!(!c.is_cancelled());
    }

    #[test]
    fn child_tokens_inherit_but_do_not_leak_upward() {
        let root = Cancellation::new();
        let a = root.child();
        let b = root.child();
        let grand = a.child();
        // Child cancel stays local.
        a.cancel();
        assert!(a.is_cancelled());
        assert!(grand.is_cancelled(), "grandchild inherits from parent");
        assert!(!root.is_cancelled(), "cancel must not leak upward");
        assert!(!b.is_cancelled(), "siblings are independent");
        a.reset();
        assert!(!grand.is_cancelled());
        // Root cancel reaches every descendant at once.
        root.cancel();
        assert!(a.is_cancelled() && b.is_cancelled() && grand.is_cancelled());
        // A child cannot clear an inherited cancellation...
        grand.reset();
        assert!(grand.is_cancelled());
        // ...only the ancestor that was cancelled can.
        root.reset();
        assert!(!grand.is_cancelled() && !a.is_cancelled() && !b.is_cancelled());
    }
}
