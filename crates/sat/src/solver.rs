//! The CDCL search engine.
//!
//! A MiniSat-lineage solver: two-tier watched-literal propagation (an
//! inline binary-clause tier drained ahead of blocker-guarded long-clause
//! watchers), EVSIDS branching, phase saving, first-UIP conflict analysis
//! with recursive clause minimisation over tagged reasons, LBD-aware
//! clause-database reduction, and pluggable restart policies. Decision
//! counts — the paper's branching metric — are first-class statistics.

use crate::clause::ClauseDb;
use crate::config::{Budget, SolverConfig};
use crate::heap::VarHeap;
use crate::presolve::{presolve, Presolved, Reconstructor};
use crate::proof::ProofLog;
use crate::restart::RestartPolicy;
use crate::stats::Stats;
use crate::types::{ClauseRef, LBool, Lit, Reason, Var};
use cnf::{Cnf, CnfLit};
use std::time::Instant;

/// Conflicts (or decisions) between checks of the *external* interrupt
/// sources — the wall-clock deadline and the cancellation token. Both
/// involve work too costly for every search step (`Instant::now()`, an
/// atomic load), so they are polled once per batch; the counter budgets
/// stay exact. Overshoot past a deadline is bounded by one batch.
const INTERRUPT_CHECK_PERIOD: u32 = 64;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a full model (`model[v]` = value of 0-based var `v`).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted before an answer was found.
    Unknown,
}

impl SolveResult {
    /// True for [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// True for [`SolveResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Long-clause (≥ 3 literals) watcher: arena reference plus a blocker
/// literal that short-circuits the arena load when already true.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// A conflict found by propagation: either an arena clause or an inline
/// binary clause (both literals false). Binary clauses have no
/// [`ClauseRef`], so the conflicting pair is carried by value.
#[derive(Clone, Copy, Debug)]
enum Conflict {
    Clause(ClauseRef),
    Binary(Lit, Lit),
}

/// A CDCL SAT solver.
///
/// `Clone` duplicates the *complete* solver state — clause arena, both
/// watcher tiers, learnt clauses, trail, activities — as flat buffer
/// copies. That is how the sweep engine's sharded oracles fan a formula
/// out to workers:
/// normalise the CNF into one base solver, then clone it per worker
/// instead of re-adding and re-simplifying every clause.
///
/// ```
/// use cnf::{Cnf, CnfLit};
/// use sat::{Solver, SolverConfig};
///
/// let mut f = Cnf::new();
/// f.add_clause(vec![CnfLit::pos(1), CnfLit::pos(2)]);
/// f.add_clause(vec![CnfLit::neg(1)]);
/// let mut solver = Solver::from_cnf(&f, SolverConfig::default());
/// let result = solver.solve();
/// assert!(result.is_sat());
/// ```
#[derive(Clone, Debug)]
pub struct Solver {
    config: SolverConfig,
    budget: Budget,
    stats: Stats,

    db: ClauseDb,
    /// Long-clause watch lists indexed by `Lit::index()`: clauses that must
    /// be checked when that literal becomes **true** (they watch its
    /// negation). Only clauses of three or more literals live here.
    watches: Vec<Vec<Watcher>>,
    /// Binary-clause tier, same indexing: `binary_watches[l.index()]` holds
    /// the literal implied when `l` becomes true — the whole implication in
    /// 4 bytes, no arena dereference. Binary clauses are never deleted,
    /// never relocated, and never reduction candidates, so these lists are
    /// append-only.
    binary_watches: Vec<Vec<Lit>>,
    /// Count of attached binary clauses (each contributes two entries).
    num_binary: usize,

    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    order: VarHeap,
    phase: Vec<bool>,

    restart: RestartPolicy,
    next_reduce: u64,
    reduce_count: u64,

    /// False once the formula is known UNSAT at level 0.
    ok: bool,
    /// DRAT-style certificate sink, present iff `config.proof`. Boxed so
    /// the disabled case costs one null-check at clause add/learn/delete
    /// sites (conflict rate, never the propagation hot path) and no space
    /// beyond a pointer.
    proof: Option<Box<ProofLog>>,
    /// Steps until the next deadline/cancellation poll (see
    /// [`INTERRUPT_CHECK_PERIOD`]). Re-armed at 1 by every solve so a
    /// pre-expired deadline or pre-raised token is noticed before any
    /// search work.
    interrupt_countdown: u32,
    /// Observability hooks, present iff [`Solver::set_observer`] attached
    /// an enabled registry. Boxed like the proof log: the unobserved case
    /// costs one null-check at conflict-rate probe sites only.
    trace: Option<Box<crate::trace::SolverTrace>>,
    /// Set by the presolving load ([`SolverConfig::presolve`]): extends
    /// each model to the input's variables. Empty, and never applied,
    /// when presolve refuted the formula.
    presolved: Option<Reconstructor>,

    // Analysis scratch space.
    seen: Vec<bool>,
    analyze_stack: Vec<Lit>,
    analyze_clear: Vec<Var>,
    /// Variables the last analysis resolved on, collected only while
    /// proof logging is on (the learnt clause's hints).
    hint_vars: Vec<Var>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new(config: SolverConfig) -> Solver {
        let restart = RestartPolicy::new(config.restart);
        let next_reduce = config.reduce_first;
        let proof = config.proof.then(Box::<ProofLog>::default);
        Solver {
            config,
            budget: Budget::UNLIMITED,
            stats: Stats::default(),
            db: ClauseDb::new(),
            watches: Vec::new(),
            binary_watches: Vec::new(),
            num_binary: 0,
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::new(),
            phase: Vec::new(),
            restart,
            next_reduce,
            reduce_count: 0,
            ok: true,
            proof,
            interrupt_countdown: 1,
            trace: None,
            presolved: None,
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_clear: Vec::new(),
            hint_vars: Vec::new(),
        }
    }

    /// Creates a solver pre-loaded with a formula.
    pub fn from_cnf(formula: &Cnf, config: SolverConfig) -> Solver {
        let mut s = Solver::new(config);
        s.add_cnf(formula);
        s
    }

    /// Sets resource limits for subsequent [`Solver::solve`] calls.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Attaches observability: subsequent solves run under `sat.solve`
    /// spans parented to `parent`, per-solve stat deltas accumulate into
    /// the parent registry's `sat.*` counters/histograms, and search-loop
    /// boundaries (restart, reduction, GC) become instant events. A
    /// handle from a disabled registry detaches the observer again.
    /// Cloning an observed solver shares the metric cells but never an
    /// open span (see `SolverTrace::clone`).
    pub fn set_observer(&mut self, parent: obs::SpanHandle) {
        self.trace = parent
            .registry()
            .is_enabled()
            .then(|| Box::new(crate::trace::SolverTrace::new(parent)));
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The accumulated proof log, if [`SolverConfig::proof`] was on.
    ///
    /// The log spans the solver's whole life: all original clauses ever
    /// asserted plus every derivation/deletion, across incremental
    /// queries. An UNSAT verdict under `assumptions` is certified by
    /// checking `originals + one unit clause per assumption` against the
    /// steps ([`Solver::certify`]); a plain UNSAT ends with a logged
    /// empty clause.
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_deref()
    }

    /// Consumes the solver, keeping only its proof steps (the certificate
    /// a caller stores), if [`SolverConfig::proof`] was on.
    pub fn into_proof(self) -> Option<checker::Proof> {
        self.proof.map(|log| log.into_proof())
    }

    /// Checks the latest UNSAT verdict — plain, or under `assumptions` —
    /// with the independent `checker` crate: the log's original clauses
    /// plus one unit clause per assumption must be refuted by the logged
    /// steps, closed with the empty clause.
    ///
    /// # Panics
    /// Panics if the solver was built without [`SolverConfig::proof`].
    pub fn certify(
        &self,
        assumptions: &[CnfLit],
    ) -> Result<checker::CheckOutcome, checker::CheckError> {
        let log = self
            .proof
            .as_deref()
            .expect("certify needs a solver built with proof logging on");
        let assumed: Vec<i32> = assumptions.iter().map(|l| l.to_dimacs()).collect();
        checker::check_with_assumptions(log.originals(), &assumed, log.proof())
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Ensures variables `0..n` exist.
    pub fn ensure_vars(&mut self, n: usize) {
        while self.assigns.len() < n {
            let v = self.assigns.len() as Var;
            self.assigns.push(LBool::Undef);
            self.level.push(0);
            self.reason.push(Reason::Decision);
            self.activity.push(0.0);
            self.phase.push(self.config.default_phase);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.binary_watches.push(Vec::new());
            self.binary_watches.push(Vec::new());
            self.order.insert(v, &self.activity);
        }
    }

    /// Loads every clause of a [`Cnf`].
    ///
    /// Under [`SolverConfig::presolve`] the formula is presolved first
    /// (under a `sat.presolve` span when observed, recording clauses in,
    /// clauses out and, unless presolve refutes the formula, variables
    /// eliminated) and the simplified clauses
    /// are loaded in its place, with the input's variable count. A
    /// formula presolve decides alone creates no variable, so its solve
    /// makes no decision.
    ///
    /// # Panics
    /// Panics on a second formula under [`SolverConfig::presolve`].
    pub fn add_cnf(&mut self, formula: &Cnf) {
        if self.config.presolve {
            return self.load_presolved(formula);
        }
        self.ensure_vars(formula.num_vars() as usize);
        for clause in formula.clauses() {
            self.add_clause_cnf(clause);
        }
    }

    /// The presolving load behind [`Solver::add_cnf`].
    fn load_presolved(&mut self, formula: &Cnf) {
        assert!(
            self.presolved.is_none(),
            "a presolving solver takes one formula"
        );
        let span = self
            .trace
            .as_deref()
            .map(|t| t.parent.child("sat.presolve"));
        let presolved = match self.proof.as_deref_mut() {
            Some(log) => log.log_presolve(formula),
            None => presolve(formula, None),
        };
        let (recon, clauses_out) = match presolved {
            Presolved::Unsat => {
                self.ok = false;
                (Reconstructor::default(), 0)
            }
            Presolved::Sat(recon) => (recon, 0),
            Presolved::Simplified(simplified, recon) => {
                self.ensure_vars(simplified.num_vars() as usize);
                for clause in simplified.clauses() {
                    self.load_clause(clause.iter().map(|&l| Lit::from_cnf(l)).collect());
                }
                (recon, simplified.num_clauses())
            }
        };
        if let Some(span) = span {
            span.record("clauses_in", formula.num_clauses());
            span.record("clauses_out", clauses_out);
            if self.ok {
                // A refutation returns no reconstructor to count.
                span.record("eliminated_vars", recon.eliminated_vars());
            }
        }
        self.presolved = Some(recon);
    }

    /// Adds one clause in DIMACS-literal form.
    pub fn add_clause_cnf(&mut self, clause: &[CnfLit]) {
        let lits: Vec<Lit> = clause.iter().map(|&l| Lit::from_cnf(l)).collect();
        self.add_clause(lits);
    }

    /// Adds one clause in internal-literal form. Must be called at decision
    /// level 0 (i.e. before or between `solve()` calls).
    ///
    /// # Panics
    /// Panics if called with outstanding decisions, or under
    /// [`SolverConfig::presolve`].
    pub fn add_clause(&mut self, lits: Vec<Lit>) {
        assert!(
            !self.config.presolve,
            "a presolving solver takes its formula through add_cnf only"
        );
        if self.ok {
            if let Some(p) = self.proof.as_deref_mut() {
                p.log_original(&lits);
            }
        }
        self.load_clause(lits);
    }

    /// Stores a clause the proof log already accounts for: an original
    /// logged by [`Solver::add_clause`], or a presolve output.
    fn load_clause(&mut self, mut lits: Vec<Lit>) {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at level 0"
        );
        if !self.ok {
            return;
        }
        let max_var = lits.iter().map(|l| l.var() as usize + 1).max().unwrap_or(0);
        self.ensure_vars(max_var);

        // Normalise: sort/dedup, drop false literals, detect tautology and
        // satisfied clauses under the level-0 assignment.
        lits.sort_unstable();
        lits.dedup();
        let deduped_len = lits.len();
        let mut simplified = Vec::with_capacity(lits.len());
        let mut i = 0;
        while i < lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return; // tautology (sorted order puts var's lits adjacent)
            }
            match self.value(l) {
                LBool::True => return, // already satisfied at level 0
                LBool::False => {}     // drop the false literal
                LBool::Undef => simplified.push(l),
            }
            i += 1;
        }
        // Level-0 simplification strengthened the clause (dropped false
        // literals): the stored form is itself a derived clause — log it so
        // the certificate derives everything the solver actually uses. It
        // is RUP via the level-0 units that falsified the dropped literals.
        if simplified.len() < deduped_len {
            if let Some(p) = self.proof.as_deref_mut() {
                p.log_add(&simplified);
            }
        }
        match simplified.len() {
            0 => {
                self.log_empty_clause();
                self.ok = false;
            }
            1 => {
                self.unchecked_enqueue(simplified[0], Reason::Decision);
                if self.propagate().is_some() {
                    self.log_empty_clause();
                    self.ok = false;
                }
            }
            2 => self.attach_binary(simplified[0], simplified[1]),
            _ => {
                let cref = self.db.add(&simplified, false, 0);
                self.attach(cref);
            }
        }
    }

    /// Logs the empty-clause addition that closes a proof (level-0
    /// conflict: the formula is unconditionally UNSAT).
    fn log_empty_clause(&mut self) {
        if let Some(p) = self.proof.as_deref_mut() {
            if !p.has_empty_clause() {
                p.log_add(&[]);
            }
        }
    }

    /// Attaches a long clause (≥ 3 literals) to the watcher tier.
    fn attach(&mut self, cref: ClauseRef) {
        debug_assert!(self.db.clause_len(cref) >= 3, "binary clauses are inline");
        let (l0, l1) = (self.db.lit(cref, 0), self.db.lit(cref, 1));
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
    }

    /// Attaches the binary clause `(a ∨ b)` to the inline tier: each
    /// literal's falsification implies the other, with no arena record.
    fn attach_binary(&mut self, a: Lit, b: Lit) {
        debug_assert_ne!(a.var(), b.var());
        self.binary_watches[(!a).index()].push(b);
        self.binary_watches[(!b).index()].push(a);
        self.num_binary += 1;
    }

    #[inline]
    fn value(&self, l: Lit) -> LBool {
        self.assigns[l.var() as usize].xor(!l.is_positive())
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var() as usize;
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    ///
    /// Two-tier: for each newly true literal `p` the binary tier is
    /// drained first — every entry is a complete implication held in one
    /// word, so the scan is cache-dense and conflict-cheap — before the
    /// long-clause watcher walk with its blocker checks and arena loads.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            // --- binary tier ------------------------------------------
            // The list is append-only and never touched by enqueues, so it
            // is taken out for iteration and restored verbatim.
            let bins = std::mem::take(&mut self.binary_watches[p.index()]);
            let mut binary_conflict = None;
            for &imp in &bins {
                match self.value(imp) {
                    LBool::True => {}
                    LBool::Undef => self.unchecked_enqueue(imp, Reason::Binary(!p)),
                    LBool::False => {
                        binary_conflict = Some(Conflict::Binary(imp, !p));
                        break;
                    }
                }
            }
            self.binary_watches[p.index()] = bins;
            if binary_conflict.is_some() {
                self.qhead = self.trail.len();
                return binary_conflict;
            }

            // --- long-clause tier -------------------------------------
            let mut i = 0;
            let mut j = 0;
            // Take the list out to sidestep aliasing; it is pushed back
            // compacted at the end.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let n = ws.len();
            'watchers: while i < n {
                let w = ws[i];
                i += 1;
                // Pull the *next* watcher's clause header toward the cache
                // while this clause is processed: watcher walks are the
                // propagation loop's dominant miss source, and the next
                // arena offset is already known here.
                if i < n {
                    self.db.prefetch(ws[i].cref);
                }
                // Blocker short-circuit.
                if self.value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let false_lit = !p;
                // Literals are read inline from the arena: one index off
                // the clause ref, no per-clause pointer chase.
                let lits = self.db.lits_mut(w.cref);
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker
                    && self.assigns[first.var() as usize].xor(!first.is_positive()) == LBool::True
                {
                    ws[j] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if self.assigns[lk.var() as usize].xor(!lk.is_positive()) != LBool::False {
                        lits.swap(1, k);
                        let new_watch = lits[1];
                        self.watches[(!new_watch).index()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No replacement: the clause is unit or conflicting.
                ws[j] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                j += 1;
                if self.value(first) == LBool::False {
                    // Conflict: restore the remaining watchers and bail out.
                    while i < n {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[p.index()] = ws;
                    self.qhead = self.trail.len();
                    return Some(Conflict::Clause(w.cref));
                }
                self.unchecked_enqueue(first, Reason::Clause(w.cref));
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
        }
        None
    }

    /// Marks one antecedent literal during conflict analysis: bumps its
    /// variable and either extends the resolution frontier (current level)
    /// or the learnt clause (earlier level).
    #[inline]
    fn analyze_visit(&mut self, q: Lit, path_count: &mut u32, learnt: &mut Vec<Lit>) {
        let v = q.var() as usize;
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump_var(q.var());
            if self.level[v] >= self.decision_level() {
                *path_count += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backtrack level, and the clause's LBD.
    ///
    /// With `HINTS` (proof logging on), also leaves in `hint_vars` every
    /// variable the derivation used: the current-level literals resolved
    /// on, the literals minimisation removed, and the variables its
    /// redundancy search expanded. Without it the collection compiles away.
    fn analyze<const HINTS: bool>(&mut self, confl: Conflict) -> (Vec<Lit>, u32, u32) {
        if HINTS {
            self.hint_vars.clear();
        }
        let mut learnt: Vec<Lit> = vec![Lit::UNDEF]; // slot 0 for the UIP
        let mut path_count = 0u32;
        let mut p = Lit::UNDEF;
        let mut index = self.trail.len();
        let mut cur = confl;

        loop {
            match cur {
                Conflict::Clause(cref) => {
                    self.bump_clause(cref);
                    // Walk the clause by index (excluding the resolved
                    // literal at slot 0): arena access is a plain load, so
                    // no literal copy-out is needed around the bumps.
                    let start = if p == Lit::UNDEF { 0 } else { 1 };
                    for k in start..self.db.clause_len(cref) {
                        let q = self.db.lit(cref, k);
                        self.analyze_visit(q, &mut path_count, &mut learnt);
                    }
                }
                Conflict::Binary(a, b) => {
                    // Inline binary antecedent: no arena record to bump;
                    // `a` is the resolved literal once p is set.
                    if p == Lit::UNDEF {
                        self.analyze_visit(a, &mut path_count, &mut learnt);
                    }
                    self.analyze_visit(b, &mut path_count, &mut learnt);
                }
            }
            // Next literal to resolve on: last seen literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            p = self.trail[index];
            self.seen[p.var() as usize] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            if HINTS {
                self.hint_vars.push(p.var());
            }
            cur = match self.reason[p.var() as usize] {
                Reason::Clause(cref) => Conflict::Clause(cref),
                Reason::Binary(other) => Conflict::Binary(p, other),
                Reason::Decision => unreachable!("reason must exist on the path"),
            };
        }
        learnt[0] = !p;

        // Minimise: drop literals implied by the rest of the clause.
        let abstract_levels = learnt[1..].iter().fold(0u64, |acc, l| {
            acc | level_abstraction(self.level[l.var() as usize])
        });
        let to_clear: Vec<Var> = learnt[1..].iter().map(|l| l.var()).collect();
        let before = learnt.len();
        let mut kept = vec![learnt[0]];
        for idx in 1..learnt.len() {
            let l = learnt[idx];
            if self.reason[l.var() as usize].is_decision()
                || !self.lit_redundant::<HINTS>(l, abstract_levels)
            {
                kept.push(l);
            } else if HINTS {
                self.hint_vars.push(l.var());
            }
        }
        self.stats.minimized_literals += (before - kept.len()) as u64;
        let mut learnt = kept;

        // Clear every seen flag set during analysis and minimisation.
        for v in to_clear {
            self.seen[v as usize] = false;
        }
        for v in self.analyze_clear.drain(..) {
            self.seen[v as usize] = false;
        }

        // Backtrack level: second-highest decision level in the clause.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        };

        let lbd = self.compute_lbd(&learnt);
        (learnt, bt_level, lbd)
    }

    /// [`Solver::analyze`] collecting hints. Kept out of line so that the
    /// search loop inlines only the hint-free analysis: proof-off solving
    /// compiles to the same code as without hint support.
    #[inline(never)]
    fn analyze_hinted(&mut self, confl: Conflict) -> (Vec<Lit>, u32, u32) {
        self.analyze::<true>(confl)
    }

    /// True if `l` is implied by the remaining learnt literals (recursive
    /// minimisation check, iterative formulation). With `HINTS`, a
    /// successful search adds the variables it expanded to `hint_vars`.
    fn lit_redundant<const HINTS: bool>(&mut self, l: Lit, abstract_levels: u64) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let mut pending: Vec<Var> = Vec::new();
        while let Some(q) = self.analyze_stack.pop() {
            // Expand q's antecedent (slot 0 / the implied literal excluded).
            let expanded = match self.reason[q.var() as usize] {
                Reason::Decision => unreachable!("minimised literals are implied"),
                Reason::Clause(cref) => {
                    let mut ok = true;
                    for k in 1..self.db.clause_len(cref) {
                        let r = self.db.lit(cref, k);
                        if !self.redundant_expand(r, abstract_levels, &mut pending) {
                            ok = false;
                            break;
                        }
                    }
                    ok
                }
                Reason::Binary(other) => {
                    self.redundant_expand(other, abstract_levels, &mut pending)
                }
            };
            if !expanded {
                // Hit a decision or a level outside the clause: not
                // redundant. Roll back the speculative seen marks.
                for v in pending {
                    self.seen[v as usize] = false;
                }
                return false;
            }
        }
        // Keep speculative marks; record them for final cleanup.
        if HINTS {
            self.hint_vars.extend_from_slice(&pending);
        }
        self.analyze_clear.extend(pending);
        true
    }

    /// One antecedent literal of the redundancy DFS: pushes it for further
    /// expansion, or reports `false` when it proves `l` irredundant.
    #[inline]
    fn redundant_expand(&mut self, r: Lit, abstract_levels: u64, pending: &mut Vec<Var>) -> bool {
        let v = r.var() as usize;
        if self.seen[v] || self.level[v] == 0 {
            return true;
        }
        if self.reason[v].is_decision() || level_abstraction(self.level[v]) & abstract_levels == 0 {
            return false;
        }
        self.seen[v] = true;
        pending.push(r.var());
        self.analyze_stack.push(r);
        true
    }

    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var() as usize])
            .filter(|&lv| lv > 0)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let cut = self.trail_lim[target as usize];
        for &l in &self.trail[cut..] {
            let v = l.var() as usize;
            // Phase saving: decisions reuse the variable's last polarity.
            self.phase[v] = l.is_positive();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = Reason::Decision;
            if !self.order.contains(l.var()) {
                self.order.insert(l.var(), &self.activity);
            }
        }
        self.trail.truncate(cut);
        self.trail_lim.truncate(target as usize);
        self.qhead = cut;
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.learnt(cref) {
            return;
        }
        let a = self.db.activity(cref) + self.cla_inc;
        self.db.set_activity(cref, a);
        if a > 1e20 {
            self.db.rescale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay as f32;
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v as usize] == LBool::Undef {
                return Some(Lit::new(v, self.phase[v as usize]));
            }
        }
        None
    }

    /// True if a reason clause is locked (is the reason of its first lit).
    fn locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.db.lit(cref, 0);
        self.value(l0) == LBool::True && self.reason[l0.var() as usize] == Reason::Clause(cref)
    }

    fn reduce_db(&mut self) {
        let keep_lbd = self.config.keep_lbd;
        let mut candidates: Vec<ClauseRef> = self
            .db
            .iter_refs()
            .filter(|&r| self.db.learnt(r) && self.db.lbd(r) > keep_lbd && !self.locked(r))
            .collect();
        // Delete the worse half: high LBD first, then low activity.
        candidates.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_delete = candidates.len() / 2;
        for &r in &candidates[..to_delete] {
            if self.proof.is_some() {
                let lits: Vec<Lit> = self.db.lits(r).to_vec();
                self.proof.as_deref_mut().unwrap().log_delete(&lits);
            }
            self.detach(r);
            self.db.delete(r);
            self.stats.deleted_clauses += 1;
        }
        if to_delete > 0 {
            self.shrink_watchers();
        }
        // Compact once a fifth of the arena is tombstoned words; arena GC
        // is one copy pass, so waiting for real waste beats collecting on
        // every reduction.
        if self.db.wasted() * 5 > self.db.arena_len() {
            self.garbage_collect();
        }
    }

    /// Reclaims watcher-list capacity stranded by clause deletion.
    ///
    /// Learnt-clause churn grows watch lists to their high-water mark and
    /// reduction then empties half of them; the spare capacity would
    /// otherwise live for the whole solve. A list is shrunk only when its
    /// capacity is at least `SHRINK_RATIO`× its live length *and* above a
    /// floor, and it keeps 2× headroom — so steady-state lists are never
    /// touched and a shrunk list cannot immediately thrash back through
    /// doubling regrowth.
    fn shrink_watchers(&mut self) {
        /// Minimum capacity (in watchers) worth reclaiming.
        const SHRINK_FLOOR: usize = 16;
        /// Capacity-to-length ratio that triggers a shrink.
        const SHRINK_RATIO: usize = 4;
        for ws in &mut self.watches {
            if ws.capacity() >= SHRINK_FLOOR && ws.capacity() > SHRINK_RATIO * ws.len() {
                ws.shrink_to(2 * ws.len());
                self.stats.watcher_shrinks += 1;
            }
        }
    }

    /// Removes a clause's two watchers by swap-remove.
    ///
    /// Watcher order within a list is *irrelevant* by construction:
    /// propagation visits the whole list, treats it as a set, and compacts
    /// it in place; attach order is never meaningful. That makes O(1)
    /// swap-removal safe here, instead of an order-preserving
    /// `retain` scan rewrite of the entire list per removal.
    fn detach(&mut self, cref: ClauseRef) {
        let (l0, l1) = (self.db.lit(cref, 0), self.db.lit(cref, 1));
        for l in [l0, l1] {
            let ws = &mut self.watches[(!l).index()];
            let pos = ws
                .iter()
                .position(|w| w.cref == cref)
                .expect("detached clause must be watched");
            ws.swap_remove(pos);
        }
    }

    /// Compacts the clause arena: a single copy pass that moves every
    /// still-referenced record into a fresh arena and remaps all watchers
    /// and reason references through forwarding offsets (see
    /// [`ClauseDb::reloc`]). Every live clause is watched exactly twice,
    /// so relocating via the watch lists covers the whole database;
    /// reasons are a subset and resolve through the forwards. The binary
    /// tier holds no arena references at all — binary clauses and binary
    /// reasons are immune to relocation by construction.
    fn garbage_collect(&mut self) {
        let mut to = self.db.start_collect();
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                self.db.reloc(&mut w.cref, &mut to);
            }
        }
        for r in &mut self.reason {
            if let Reason::Clause(cref) = r {
                self.db.reloc(cref, &mut to);
            }
        }
        debug_assert_eq!(to.len(), self.db.len(), "live clauses must survive GC");
        self.db = to;
        self.stats.gcs += 1;
        if let Some(t) = self.trace.as_deref() {
            t.on_gc(&self.stats);
        }
        #[cfg(debug_assertions)]
        self.assert_integrity();
    }

    /// Validates the two-tier watch/reason invariants against the clause
    /// arena.
    ///
    /// Test-suite hook (GC-under-load differential tests; also invoked
    /// after every in-search GC under `debug_assertions`): panics with a
    /// description on the first violated invariant. Checked invariants:
    /// every live arena clause has at least three literals and is watched
    /// exactly twice, on the negations of its first two literals; every
    /// watcher points at a live clause with a matching watched literal and
    /// an in-clause blocker; every binary-tier entry has its mirror entry
    /// (both directions of the implication are attached) and the tier's
    /// size matches the attached-binary count; every clause reason is a
    /// live arena clause whose slot-0 literal is the implied one; every
    /// binary reason's antecedent is false and its clause is present in
    /// the binary tier. With proof logging on, additionally audits the
    /// certificate: every live arena clause and binary-tier edge is
    /// either an original clause or a logged derivation, and the logged
    /// deletion count matches the database's.
    #[doc(hidden)]
    pub fn assert_integrity(&self) {
        let mut watch_count: std::collections::HashMap<ClauseRef, usize> =
            std::collections::HashMap::new();
        for idx in 0..self.watches.len() {
            let lit = Lit::from_index(idx); // list fires when `lit` becomes true
            for w in &self.watches[idx] {
                let lits = self.db.lits(w.cref);
                assert!(
                    lits.len() >= 3,
                    "arena clause {lits:?} short enough for the binary tier"
                );
                assert!(
                    !lits[0] == lit || !lits[1] == lit,
                    "watcher of {lit:?} not on a watched slot: {lits:?}"
                );
                assert!(
                    lits.contains(&w.blocker),
                    "blocker {:?} outside clause {lits:?}",
                    w.blocker
                );
                *watch_count.entry(w.cref).or_insert(0) += 1;
            }
        }
        let mut live = 0usize;
        for r in self.db.iter_refs() {
            live += 1;
            assert_eq!(
                watch_count.get(&r).copied().unwrap_or(0),
                2,
                "live clause {r:?} must be watched exactly twice"
            );
        }
        assert_eq!(live, self.db.len(), "live-clause count drifted");
        assert_eq!(
            watch_count.len(),
            live,
            "watcher points at a deleted clause"
        );
        // Binary tier: entry `other` on list `lit` encodes clause
        // (¬lit ∨ other); its mirror entry ¬lit must sit on (¬other)'s
        // list, and the total entry count is two per attached clause.
        let mut binary_entries = 0usize;
        for idx in 0..self.binary_watches.len() {
            let lit = Lit::from_index(idx);
            for &other in &self.binary_watches[idx] {
                binary_entries += 1;
                assert_ne!(other.var(), lit.var(), "degenerate binary clause");
                assert!(
                    self.binary_watches[(!other).index()].contains(&!lit),
                    "binary implication {lit:?} -> {other:?} lacks its mirror"
                );
            }
        }
        assert_eq!(
            binary_entries,
            2 * self.num_binary,
            "binary tier entry count drifted"
        );
        for (v, &r) in self.reason.iter().enumerate() {
            if r.is_decision() {
                continue;
            }
            assert_ne!(
                self.assigns[v],
                LBool::Undef,
                "unassigned var {v} holds a reason"
            );
            let implied = Lit::new(v as Var, self.assigns[v] == LBool::True);
            match r {
                Reason::Decision => unreachable!(),
                Reason::Clause(cref) => {
                    let l0 = self.db.lit(cref, 0);
                    assert_eq!(
                        l0.var() as usize,
                        v,
                        "reason of var {v} must imply it at slot 0"
                    );
                    assert_eq!(self.value(l0), LBool::True, "implied literal not true");
                }
                Reason::Binary(other) => {
                    assert_eq!(
                        self.value(other),
                        LBool::False,
                        "binary reason antecedent of var {v} must be false"
                    );
                    assert!(
                        self.binary_watches[(!other).index()].contains(&implied),
                        "binary reason ({implied:?} ∨ {other:?}) not in the tier"
                    );
                }
            }
        }
        // Proof-log audit: with logging on, every clause the solver can
        // still use — live arena clauses and binary-tier edges — must be
        // accounted for in the certificate, either as an original clause
        // or as a logged addition (presolve's outputs, learnts of every
        // tier, level-0 strengthened inputs). Compared as sorted literal
        // sets: watch reordering permutes stored clauses but never changes
        // their literal set. The search's deletion steps (those after
        // presolve's) must match reduce_db's count —
        // together with the watcher checks above ("watcher points at a
        // deleted clause") this pins the log to the live database.
        if let Some(log) = self.proof.as_deref() {
            let norm = |lits: Vec<i32>| {
                let mut v = lits;
                v.sort_unstable();
                v.dedup();
                v
            };
            let mut derivable: std::collections::HashSet<Vec<i32>> =
                std::collections::HashSet::new();
            for c in log.originals() {
                derivable.insert(norm(c.clone()));
            }
            for s in log.proof().steps.iter().filter(|s| !s.delete) {
                derivable.insert(norm(s.lits.clone()));
            }
            let deletions = log.search_steps().iter().filter(|s| s.delete).count() as u64;
            assert_eq!(
                deletions, self.stats.deleted_clauses,
                "every clause deletion must be logged"
            );
            let key = |lits: &[Lit]| norm(lits.iter().map(|l| l.to_cnf().to_dimacs()).collect());
            for r in self.db.iter_refs() {
                let k = key(self.db.lits(r));
                assert!(
                    derivable.contains(&k),
                    "arena clause {k:?} has no logged derivation"
                );
            }
            for idx in 0..self.binary_watches.len() {
                let lit = Lit::from_index(idx);
                for &other in &self.binary_watches[idx] {
                    let k = key(&[!lit, other]);
                    assert!(
                        derivable.contains(&k),
                        "binary clause {k:?} has no logged derivation"
                    );
                }
            }
        }
    }

    fn budget_exhausted(&self) -> bool {
        let b = &self.budget;
        b.conflicts.is_some_and(|m| self.stats.conflicts >= m)
    }

    /// Coarse poll of the external interrupt sources (deadline,
    /// cancellation). Counted into [`Stats`] when one fires; cheap to call
    /// every step — the real checks run once per
    /// [`INTERRUPT_CHECK_PERIOD`].
    fn interrupted(&mut self) -> bool {
        if self.budget.deadline.is_none() && self.budget.cancel.is_none() {
            return false;
        }
        if self.interrupt_countdown > 1 {
            self.interrupt_countdown -= 1;
            return false;
        }
        self.interrupt_countdown = INTERRUPT_CHECK_PERIOD;
        if self
            .budget
            .cancel
            .as_ref()
            .is_some_and(|c| c.is_cancelled())
        {
            self.stats.cancellations += 1;
            return true;
        }
        if self.budget.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stats.deadline_interrupts += 1;
            return true;
        }
        false
    }

    /// Runs CDCL search to completion or budget exhaustion.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under assumptions — the incremental interface.
    ///
    /// The assumptions are installed as the first decisions, in order
    /// (MiniSat-style). [`SolveResult::Unsat`] then means *unsatisfiable
    /// under the assumptions*; the solver remains usable, keeps its learnt
    /// clauses, and can be re-queried with different assumptions or after
    /// [`Solver::add_clause`]. A `Sat` model satisfies every assumption.
    ///
    /// ```
    /// use cnf::{Cnf, CnfLit};
    /// use sat::{Solver, SolveResult, SolverConfig};
    ///
    /// let mut f = Cnf::new();
    /// f.add_clause(vec![CnfLit::neg(1), CnfLit::pos(2)]); // 1 -> 2
    /// let mut s = Solver::from_cnf(&f, SolverConfig::default());
    /// assert!(s.solve_with_assumptions(&[CnfLit::pos(1), CnfLit::pos(2)]).is_sat());
    /// assert!(s.solve_with_assumptions(&[CnfLit::pos(1), CnfLit::neg(2)]).is_unsat());
    /// assert!(s.solve().is_sat()); // still satisfiable without assumptions
    /// ```
    ///
    /// # Panics
    /// Panics on non-empty `assumptions` under [`SolverConfig::presolve`].
    pub fn solve_with_assumptions(&mut self, assumptions: &[CnfLit]) -> SolveResult {
        assert!(
            assumptions.is_empty() || !self.config.presolve,
            "a presolving solver takes no assumptions"
        );
        if self.trace.is_none() {
            return self.solve_inner(assumptions);
        }
        // Span bracketing lives in this thin wrapper so every return path
        // of the search loop closes the `sat.solve` span with its deltas.
        let stats = self.stats;
        if let Some(t) = self.trace.as_deref_mut() {
            t.solve_start(&stats, assumptions.len());
        }
        let result = self.solve_inner(assumptions);
        let stats = self.stats;
        if let Some(t) = self.trace.as_deref_mut() {
            t.solve_end(&stats, &result);
        }
        result
    }

    /// The CDCL search loop behind [`Solver::solve_with_assumptions`].
    fn solve_inner(&mut self, assumptions: &[CnfLit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        let assumed: Vec<Lit> = assumptions.iter().map(|&l| Lit::from_cnf(l)).collect();
        let max_var = assumed
            .iter()
            .map(|l| l.var() as usize + 1)
            .max()
            .unwrap_or(0);
        self.ensure_vars(max_var);
        self.seen.resize(self.num_vars(), false);
        // Poll deadline/cancellation at the first opportunity: an already
        // interrupted solve must return promptly, not after a batch.
        self.interrupt_countdown = 1;
        // Top-level propagation of any pending units.
        if self.propagate().is_some() {
            self.log_empty_clause();
            self.ok = false;
            return SolveResult::Unsat;
        }
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if let Some(t) = self.trace.as_deref_mut() {
                    t.on_conflict(&self.stats);
                }
                if self.decision_level() == 0 {
                    self.log_empty_clause();
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (learnt, bt, lbd) = if self.proof.is_some() {
                    self.analyze_hinted(confl)
                } else {
                    self.analyze::<false>(confl)
                };
                self.backtrack(bt);
                // Learnt clauses are RUP with respect to the original
                // formula plus earlier lemmas — even under assumptions,
                // which act as plain decisions; analysis resolves only
                // reason clauses. Logged post-minimization, exactly as
                // stored, for every tier including binary learnts, with
                // the variables the analysis resolved on as hints.
                if let Some(p) = self.proof.as_deref_mut() {
                    p.log_lemma(&learnt, &self.hint_vars);
                }
                match learnt.len() {
                    1 => self.unchecked_enqueue(learnt[0], Reason::Decision),
                    2 => {
                        // Two-literal learnts go straight to the binary
                        // tier: no arena record, never a reduction or GC
                        // candidate, asserted with an inline reason.
                        self.attach_binary(learnt[0], learnt[1]);
                        self.unchecked_enqueue(learnt[0], Reason::Binary(learnt[1]));
                    }
                    _ => {
                        let asserting = learnt[0];
                        let cref = self.db.add(&learnt, true, lbd);
                        self.attach(cref);
                        self.unchecked_enqueue(asserting, Reason::Clause(cref));
                    }
                }
                self.stats.learnt_clauses += 1;
                self.decay_activities();
                self.restart.on_conflict(lbd);
                if self.stats.conflicts >= self.next_reduce {
                    self.reduce_count += 1;
                    self.next_reduce = self.stats.conflicts
                        + self.config.reduce_first
                        + self.reduce_count * self.config.reduce_increment;
                    self.reduce_db();
                    if let Some(t) = self.trace.as_deref() {
                        t.on_reduce(&self.stats);
                    }
                }
                if self.budget_exhausted() || self.interrupted() {
                    self.backtrack(0);
                    return SolveResult::Unknown;
                }
            } else {
                if self.restart.should_restart() && self.decision_level() > 0 {
                    self.restart.on_restart();
                    self.stats.restarts += 1;
                    if let Some(t) = self.trace.as_deref() {
                        t.on_restart(&self.stats);
                    }
                    self.backtrack(0);
                    continue;
                }
                // Install pending assumptions as the first decisions.
                if (self.decision_level() as usize) < assumed.len() {
                    let a = assumed[self.decision_level() as usize];
                    match self.value(a) {
                        LBool::True => {
                            // Already implied: open an empty level so the
                            // level-to-assumption alignment is kept.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // Failed assumption: UNSAT under assumptions.
                            self.backtrack(0);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, Reason::Decision);
                        }
                    }
                    continue;
                }
                match self.pick_branch_lit() {
                    None => {
                        // All variables assigned: extract the model.
                        let model = self
                            .assigns
                            .iter()
                            .map(|&a| a == LBool::True)
                            .collect::<Vec<bool>>();
                        self.backtrack(0);
                        return SolveResult::Sat(match &self.presolved {
                            Some(recon) => recon.extend_model(model),
                            None => model,
                        });
                    }
                    Some(l) => {
                        if self.budget_exhausted() || self.interrupted() {
                            // The popped branch variable is still
                            // unassigned: put it back or it would leak
                            // from the order heap across budgeted calls
                            // (and could eventually fake a SAT answer
                            // with unassigned variables).
                            self.order.insert(l.var(), &self.activity);
                            self.backtrack(0);
                            return SolveResult::Unknown;
                        }
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, Reason::Decision);
                    }
                }
            }
        }
    }
}

#[inline]
fn level_abstraction(level: u32) -> u64 {
    1u64 << (level & 63)
}

/// Solves a formula with a fresh solver; convenience for pipelines.
///
/// Returns the result together with the solver statistics (whose
/// `decisions` field is the paper's branching count).
pub fn solve_cnf(formula: &Cnf, config: SolverConfig, budget: Budget) -> (SolveResult, Stats) {
    let mut s = Solver::from_cnf(formula, config);
    s.set_budget(budget);
    let r = s.solve();
    (r, *s.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Cnf;

    fn cnf_of(clauses: &[&[i32]]) -> Cnf {
        let mut f = Cnf::new();
        for c in clauses {
            f.add_clause(c.iter().map(|&x| CnfLit::from_dimacs(x)).collect());
        }
        f
    }

    fn check_sat(clauses: &[&[i32]]) -> Vec<bool> {
        let f = cnf_of(clauses);
        let (r, _) = solve_cnf(&f, SolverConfig::default(), Budget::UNLIMITED);
        match r {
            SolveResult::Sat(m) => {
                assert!(f.eval(&m), "model must satisfy the formula");
                m
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    fn check_unsat(clauses: &[&[i32]]) {
        let f = cnf_of(clauses);
        let (r, _) = solve_cnf(&f, SolverConfig::default(), Budget::UNLIMITED);
        assert_eq!(r, SolveResult::Unsat);
    }

    #[test]
    fn trivial_cases() {
        check_sat(&[&[1]]);
        check_sat(&[&[1, 2], &[-1, 2], &[1, -2]]);
        check_unsat(&[&[1], &[-1]]);
    }

    #[test]
    fn binary_tier_holds_problem_and_learnt_twos() {
        // An implication ladder is pure binary: nothing may reach the
        // arena. The unit comes last so the ladder is attached (not
        // simplified away) and the forcing runs through the binary tier.
        let f = cnf_of(&[&[-1, 2], &[-2, 3], &[-3, 4], &[1]]);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        assert_eq!(s.db.len(), 0, "binary clauses must bypass the arena");
        assert_eq!(s.num_binary, 3);
        let r = s.solve();
        assert!(r.is_sat());
        assert_eq!(r.model(), Some(&[true, true, true, true][..]));
        s.assert_integrity();
    }

    #[test]
    fn binary_implication_cycle_unsat() {
        // 1 -> 2 -> 3 -> ¬1 with 1 forced: conflict entirely inside the
        // binary tier, including analysis over inline reasons.
        check_unsat(&[&[1], &[-1, 2], &[-2, 3], &[-3, -1]]);
    }

    #[test]
    fn learnt_binaries_survive_reduction() {
        // An aggressive reduction cadence on php(6): learnt 2-clauses live
        // in the binary tier and must never be deleted or relocated.
        let mut cfg = SolverConfig::kissat_like();
        cfg.reduce_first = 30;
        cfg.reduce_increment = 15;
        let mut s = Solver::from_cnf(&workloads_php(6), cfg);
        assert!(s.solve().is_unsat());
        s.assert_integrity();
    }

    /// Local pigeonhole generator (the workloads crate sits above `sat` in
    /// the dependency DAG, so the solver tests build their own).
    fn workloads_php(holes: u32) -> Cnf {
        let pigeons = holes + 1;
        let var = |p: u32, h: u32| p * holes + h + 1;
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
    fn cloned_solvers_are_independent_and_identical() {
        // Clone a pre-loaded solver (the sharded-oracle construction
        // path): both copies must give the same answers with the same
        // statistics, and diverging one must not affect the other.
        let f = workloads_php(5);
        let base = Solver::from_cnf(&f, SolverConfig::kissat_like());
        let mut a = base.clone();
        let mut b = base.clone();
        assert!(a.solve().is_unsat());
        assert!(b.solve().is_unsat());
        assert_eq!(a.stats(), b.stats(), "identical trajectories");
        a.assert_integrity();
        b.assert_integrity();
        // Divergence: poison one clone at level 0; the other still solves.
        a.add_clause_cnf(&[CnfLit::pos(1)]);
        a.add_clause_cnf(&[CnfLit::neg(1)]);
        assert!(a.solve().is_unsat());
        let mut c = base.clone();
        assert!(c.solve().is_unsat());
    }

    #[test]
    fn reduction_reclaims_watcher_capacity() {
        // An aggressive reduction cadence on a learnt-heavy instance:
        // deletions must leave some list with 4x spare capacity at least
        // once, and the shrink must not disturb correctness.
        let mut cfg = SolverConfig::kissat_like();
        cfg.reduce_first = 25;
        cfg.reduce_increment = 10;
        let mut s = Solver::from_cnf(&workloads_php(7), cfg);
        assert!(s.solve().is_unsat());
        assert!(s.stats().deleted_clauses > 0, "reduction must have run");
        assert!(
            s.stats().watcher_shrinks > 0,
            "expected at least one watcher-list shrink under churn"
        );
        s.assert_integrity();
    }

    #[test]
    fn unit_chain() {
        // 1 -> 2 -> 3 -> ... -> 8, with 1 forced.
        check_sat(&[
            &[1],
            &[-1, 2],
            &[-2, 3],
            &[-3, 4],
            &[-4, 5],
            &[-5, 6],
            &[-6, 7],
            &[-7, 8],
        ]);
    }

    #[test]
    fn classic_unsat_php_3_2() {
        // Pigeonhole 3 pigeons, 2 holes. Var p_ij = pigeon i in hole j.
        // Vars: 1..6 (pigeon-major).
        check_unsat(&[
            &[1, 2],
            &[3, 4],
            &[5, 6],
            &[-1, -3],
            &[-1, -5],
            &[-3, -5],
            &[-2, -4],
            &[-2, -6],
            &[-4, -6],
        ]);
    }

    #[test]
    fn both_presets_agree() {
        let f = cnf_of(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 3]]);
        for cfg in [SolverConfig::kissat_like(), SolverConfig::cadical_like()] {
            let (r, _) = solve_cnf(&f, cfg, Budget::UNLIMITED);
            assert!(r.is_sat());
        }
    }

    #[test]
    fn budget_exhaustion_does_not_leak_heap_vars() {
        // Regression: hitting the budget right after popping a branch
        // variable used to drop it from the order heap while unassigned;
        // enough budgeted re-queries then produced a bogus SAT with
        // unassigned variables. Re-querying many times with a tiny budget
        // must keep returning honest answers.
        let f = workloads_php(5);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        let mut answer = SolveResult::Unknown;
        for _ in 0..50_000 {
            let limit = s.stats().conflicts + 1;
            s.set_budget(Budget::conflicts(limit));
            answer = s.solve();
            if answer != SolveResult::Unknown {
                break;
            }
        }
        assert_eq!(answer, SolveResult::Unsat, "php(5) is unsatisfiable");
    }

    #[test]
    fn expired_deadline_interrupts_and_state_survives() {
        // A pre-expired deadline must interrupt promptly (before any real
        // search), count into the stats, and leave the incremental state
        // intact: removing the deadline and re-solving must give the same
        // verdict as a fresh solver.
        let f = workloads_php(4);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        let past = Instant::now() - std::time::Duration::from_millis(10);
        s.set_budget(Budget::UNLIMITED.with_deadline(Some(past)));
        for _ in 0..3 {
            assert_eq!(s.solve(), SolveResult::Unknown);
        }
        assert!(s.stats().deadline_interrupts >= 3);
        s.set_budget(Budget::UNLIMITED);
        assert_eq!(s.solve(), SolveResult::Unsat, "php(4) is unsatisfiable");
        assert_eq!(s.stats().cancellations, 0);
    }

    #[test]
    fn raised_cancellation_interrupts_until_reset() {
        let f = workloads_php(4);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        let token = crate::Cancellation::new();
        s.set_budget(Budget::UNLIMITED.with_cancel(token.clone()));
        token.cancel();
        assert_eq!(s.solve(), SolveResult::Unknown, "raised token interrupts");
        assert_eq!(s.solve(), SolveResult::Unknown, "cancellation is sticky");
        assert!(s.stats().cancellations >= 2);
        token.reset();
        assert_eq!(s.solve(), SolveResult::Unsat, "reset token solves through");
    }

    #[test]
    fn decisions_counted() {
        let f = cnf_of(&[&[1, 2], &[3, 4]]);
        let (r, stats) = solve_cnf(&f, SolverConfig::default(), Budget::UNLIMITED);
        assert!(r.is_sat());
        assert!(stats.decisions >= 1, "free variables require branching");
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new(SolverConfig::default());
        s.add_clause_cnf(&[CnfLit::pos(1), CnfLit::pos(2)]);
        assert!(s.solve().is_sat());
        s.add_clause_cnf(&[CnfLit::neg(1)]);
        s.add_clause_cnf(&[CnfLit::neg(2)]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 is unsatisfiable.
        check_unsat(&[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1, 3], &[-1, -3]]);
    }

    #[test]
    fn assumptions_restrict_without_committing() {
        // 1 -> 2, 2 -> 3.
        let f = cnf_of(&[&[-1, 2], &[-2, 3]]);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        // Assuming 1 and ¬3 contradicts the implications.
        assert!(s
            .solve_with_assumptions(&[CnfLit::pos(1), CnfLit::neg(3)])
            .is_unsat());
        // The solver is NOT globally unsat: same query without assumptions.
        assert!(s.solve().is_sat());
        // A satisfiable assumption set yields a model honouring it.
        match s.solve_with_assumptions(&[CnfLit::pos(1)]) {
            SolveResult::Sat(m) => {
                assert!(m[0] && m[1] && m[2], "1 forces 2 and 3");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_assumption_pair_fails() {
        let f = cnf_of(&[&[1, 2]]);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        assert!(s
            .solve_with_assumptions(&[CnfLit::pos(1), CnfLit::neg(1)])
            .is_unsat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_on_fresh_variables_extend_the_solver() {
        let f = cnf_of(&[&[1]]);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        // Variable 5 is unknown to the formula; assuming it must still work.
        match s.solve_with_assumptions(&[CnfLit::neg(5)]) {
            SolveResult::Sat(m) => {
                assert!(m[0]);
                assert!(!m[4], "assumption must be honoured in the model");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn activation_literal_pattern() {
        // The classic incremental idiom: gadget clauses guarded by an
        // activation variable, enabled per query, retired with a unit.
        let f = cnf_of(&[&[1, 2]]);
        let mut s = Solver::from_cnf(&f, SolverConfig::default());
        // Gadget under activation var 10: (¬10 ∨ ¬1) ∧ (¬10 ∨ ¬2).
        s.add_clause_cnf(&[CnfLit::neg(10), CnfLit::neg(1)]);
        s.add_clause_cnf(&[CnfLit::neg(10), CnfLit::neg(2)]);
        assert!(s.solve_with_assumptions(&[CnfLit::pos(10)]).is_unsat());
        // Retire the gadget; the base formula is unaffected.
        s.add_clause_cnf(&[CnfLit::neg(10)]);
        assert!(s.solve().is_sat());
    }
}
