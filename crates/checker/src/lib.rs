//! # `checker` — an independent backward RUP/DRAT proof checker
//!
//! Verifies UNSAT certificates produced by the `sat` crate's proof logger
//! (or any DRAT producer) **without sharing a line of solver code**: this
//! crate has its own clause representation, its own two-watched-literal
//! unit propagation, and a deliberately simple backward checking loop in
//! the style of `drat-trim`. The solver is ~3k lines of carefully
//! optimised search; this checker is a few hundred lines of boring code —
//! a soundness bug would have to appear in *both*, independently, to slip
//! a bogus UNSAT verdict through.
//!
//! A proof is a sequence of clause additions and deletions over a fixed
//! original formula (DIMACS `i32` literals throughout). Checking runs
//! backward: replay the additions/deletions to the final state, verify
//! the terminal empty clause follows by unit propagation, then walk the
//! proof in reverse re-verifying — by **r**everse **u**nit **p**ropagation
//! — exactly those lemmas the refutation actually used, marking their
//! antecedents in turn. Lemmas the conflict never touched are skipped,
//! which is what makes backward checking fast; the `CheckOutcome` reports
//! both counts plus the unsatisfiable core.
//!
//! ## Hints
//!
//! An addition step may carry *hints*: the variables its producer resolved
//! on (the `sat` solver logs, per learnt clause, every variable its
//! conflict analysis and minimisation used). Re-verifying a core lemma
//! then runs in two passes:
//!
//! 1. assume the lemma's negation and propagate, enqueueing only literals
//!    on hinted variables — a clause that becomes unit on any other
//!    variable stays watched and is skipped, while conflicts are still
//!    detected in every clause;
//! 2. only if pass 1 reaches a fixpoint without a conflict, undo to the
//!    root trail and propagate everything.
//!
//! Pass 1 visits roughly the lemma's own derivation instead of everything
//! its negation implies, which is what makes hinted checking fast.
//! Hints are untrusted search advice, never part of the argument: entries
//! that are zero or above the largest variable are ignored, a hint can
//! only change *which* conflict is found, and every conflict found is a
//! real one. A lemma is accepted exactly when it is RUP, with or without
//! hints; [`CheckOutcome::hinted_adds`] counts the lemmas pass 1 settled.
//! The textual DRAT format carries no hints, so a proof read by
//! [`Proof::parse_drat`] is checked by full propagation throughout.
//!
//! The checker is *strict*: a proof must contain an explicit empty-clause
//! addition (or the formula itself must contain the empty clause). A
//! certificate for an UNSAT-under-assumptions verdict is therefore built
//! by appending each assumption as a unit clause to the formula and
//! closing the proof with an empty clause ([`Proof::close`]).
//!
//! ```
//! use checker::{check, Proof};
//!
//! // (1 ∨ 2)(¬1 ∨ 2)(1 ∨ ¬2)(¬1 ∨ ¬2) is UNSAT.
//! let formula = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
//! let mut proof = Proof::new();
//! proof.add(vec![2]); // RUP: assume ¬2, propagate to a conflict
//! proof.add(vec![]); // empty clause: units now conflict
//! let outcome = check(&formula, &proof).expect("certificate verifies");
//! assert_eq!(outcome.verified_adds, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::fmt;

/// One proof step: a clause addition, or a deletion when `delete` is set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// True for deletion steps (`d` lines in the DRAT text format).
    pub delete: bool,
    /// The clause, as DIMACS literals (no terminating zero).
    pub lits: Vec<i32>,
    /// Variables (DIMACS numbers) the producer resolved on to derive this
    /// lemma: the RUP check propagates only these before falling back to
    /// full propagation. Untrusted search advice — see the module docs.
    /// Empty for deletions and for text DRAT.
    pub hints: Vec<u32>,
}

/// A clausal proof: an ordered list of additions and deletions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Proof {
    /// The steps, in derivation order.
    pub steps: Vec<Step>,
}

impl Proof {
    /// An empty proof.
    pub fn new() -> Proof {
        Proof::default()
    }

    /// Appends a clause-addition step without hints.
    pub fn add(&mut self, lits: Vec<i32>) {
        self.add_hinted(lits, Vec::new());
    }

    /// Appends a clause-addition step with the variables its derivation
    /// resolved on.
    pub fn add_hinted(&mut self, lits: Vec<i32>, hints: Vec<u32>) {
        self.steps.push(Step {
            delete: false,
            lits,
            hints,
        });
    }

    /// Appends a clause-deletion step.
    pub fn delete(&mut self, lits: Vec<i32>) {
        self.steps.push(Step {
            delete: true,
            lits,
            hints: Vec::new(),
        });
    }

    /// Appends the terminal empty clause unless one is already present.
    ///
    /// Use when certifying an UNSAT-under-assumptions verdict: the
    /// solver's log then carries no explicit refutation, but formula +
    /// assumption units + lemmas must propagate to a conflict — which is
    /// exactly what checking the appended empty clause asserts.
    pub fn close(&mut self) {
        if !self.steps.iter().any(|s| !s.delete && s.lits.is_empty()) {
            self.add(Vec::new());
        }
    }

    /// Serializes to the textual DRAT format (one zero-terminated clause
    /// per line, deletions prefixed with `d`). Hints are not written.
    pub fn to_drat_string(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            if step.delete {
                out.push_str("d ");
            }
            for l in &step.lits {
                out.push_str(&l.to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses the textual DRAT format. Lines starting with `c` or `s`
    /// are comments; every clause must be terminated by `0`.
    pub fn parse_drat(text: &str) -> Result<Proof, ParseError> {
        let mut proof = Proof::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') || line.starts_with('s') {
                continue;
            }
            let mut tokens = line.split_ascii_whitespace().peekable();
            let delete = tokens.peek() == Some(&"d");
            if delete {
                tokens.next();
            }
            let mut lits = Vec::new();
            let mut terminated = false;
            for tok in tokens {
                if terminated {
                    return Err(ParseError {
                        line: ln + 1,
                        msg: "literals after the terminating 0".into(),
                    });
                }
                let l: i32 = tok.parse().map_err(|_| ParseError {
                    line: ln + 1,
                    msg: format!("bad literal {tok:?}"),
                })?;
                if l == 0 {
                    terminated = true;
                } else {
                    lits.push(l);
                }
            }
            if !terminated {
                return Err(ParseError {
                    line: ln + 1,
                    msg: "clause not terminated by 0".into(),
                });
            }
            proof.steps.push(Step {
                delete,
                lits,
                hints: Vec::new(),
            });
        }
        Ok(proof)
    }
}

/// A malformed DRAT text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A literal was zero (reserved as the DIMACS terminator).
    InvalidLiteral,
    /// The proof contains no empty-clause addition and the formula has no
    /// empty clause either — nothing asserts unsatisfiability.
    EmptyClauseMissing,
    /// The terminal empty clause does not follow by unit propagation from
    /// the clauses active at that point.
    EmptyClauseNotRup,
    /// A lemma the refutation depends on is not RUP at its position.
    StepNotRup {
        /// Index into [`Proof::steps`] of the offending addition.
        step: usize,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::InvalidLiteral => write!(f, "literal 0 inside a clause"),
            CheckError::EmptyClauseMissing => {
                write!(f, "proof has no empty-clause addition")
            }
            CheckError::EmptyClauseNotRup => {
                write!(f, "empty clause does not follow by unit propagation")
            }
            CheckError::StepNotRup { step } => {
                write!(f, "proof step {step} is not RUP at its position")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// A successful verification, with its audit trail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Addition steps re-verified by reverse unit propagation (the
    /// refutation's core lemmas, plus the empty clause).
    pub verified_adds: usize,
    /// Of those, the lemmas whose hints alone reached a conflict: verified
    /// without the full-propagation fallback.
    pub hinted_adds: usize,
    /// Addition steps the refutation never used (backward checking skips
    /// them — they carry no soundness weight).
    pub skipped_adds: usize,
    /// Deletion steps that matched no active clause and were ignored.
    pub ignored_deletes: usize,
    /// Steps after the first empty-clause addition, ignored.
    pub trailing_ignored: usize,
    /// Indices into [`Proof::steps`] of the core additions, ascending.
    pub core_steps: Vec<usize>,
    /// Indices into the formula of the original clauses in the core,
    /// ascending.
    pub core_formula: Vec<usize>,
}

const NO_REASON: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Clause {
    /// Literal set; for watched clauses the first two slots are the
    /// watched literals (propagation permutes, never changes the set).
    lits: Vec<i32>,
    active: bool,
    needed: bool,
    /// Contains both polarities of some variable: never falsifiable, so
    /// it is excluded from propagation entirely.
    tautology: bool,
}

/// Replayed effect of one proof step (formula clauses are not actions).
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Clause `.0` was added by proof step `.1`.
    Add(usize, usize),
    /// Clause `.0` was deleted.
    Delete(usize),
}

/// How a RUP check succeeded.
enum Rup {
    /// The hinted pass reached a conflict.
    Hinted,
    /// The full-propagation pass reached a conflict.
    Full,
}

enum Conflict {
    /// Every literal of this clause is false.
    Clause(usize),
    /// This literal was to be assumed false but is propagated true — the
    /// conflict is its reason chain.
    Lit(i32),
}

struct Checker {
    clauses: Vec<Clause>,
    n_formula: usize,
    /// Clause ids watching each literal, indexed by `lit_index`. Entries
    /// of inactive clauses are kept in place and skipped (lazy removal);
    /// an active clause has exactly two entries, on `lits[0]`/`lits[1]`.
    watches: Vec<Vec<usize>>,
    /// Ids of unit clauses, in creation order (sources of the root trail).
    units: Vec<usize>,
    /// Assignment by variable: 0 undef, 1 true, -1 false.
    assign: Vec<i8>,
    /// Reason clause id per variable, `NO_REASON` for assumptions.
    reason: Vec<usize>,
    trail: Vec<i32>,
    qhead: usize,
    /// Conflict reached by propagating the active units alone. While set,
    /// every RUP check succeeds trivially from this conflict.
    root_confl: Option<usize>,
    /// Scratch for core marking.
    seen_var: Vec<bool>,
    /// The current lemma's hint variables; while a hinted pass runs,
    /// propagation enqueues only literals on these.
    hinted: Vec<bool>,
}

fn lit_index(l: i32) -> usize {
    2 * l.unsigned_abs() as usize + usize::from(l < 0)
}

fn var_of(l: i32) -> usize {
    l.unsigned_abs() as usize
}

/// Sorted, deduplicated literal set — the canonical clause key.
fn canonical(lits: &[i32]) -> Vec<i32> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

fn is_tautology(canonical: &[i32]) -> bool {
    // Sorting puts -v immediately before v.
    canonical.windows(2).any(|w| w[0] == -w[1])
}

impl Checker {
    fn new(max_var: usize) -> Checker {
        Checker {
            clauses: Vec::new(),
            n_formula: 0,
            watches: vec![Vec::new(); 2 * (max_var + 1)],
            units: Vec::new(),
            assign: vec![0; max_var + 1],
            reason: vec![NO_REASON; max_var + 1],
            trail: Vec::new(),
            qhead: 0,
            root_confl: None,
            seen_var: vec![false; max_var + 1],
            hinted: vec![false; max_var + 1],
        }
    }

    fn value(&self, l: i32) -> i8 {
        let a = self.assign[var_of(l)];
        if l < 0 {
            -a
        } else {
            a
        }
    }

    fn enqueue(&mut self, l: i32, reason: usize) {
        debug_assert_eq!(self.value(l), 0);
        self.assign[var_of(l)] = if l < 0 { -1 } else { 1 };
        self.reason[var_of(l)] = reason;
        self.trail.push(l);
    }

    /// Creates a clause (canonical literals), wiring watches and the unit
    /// list. The caller sets activity via the forward replay.
    fn create(&mut self, can: Vec<i32>, active: bool) -> usize {
        let id = self.clauses.len();
        let tautology = is_tautology(&can);
        if !tautology && can.len() >= 2 {
            self.watches[lit_index(can[0])].push(id);
            self.watches[lit_index(can[1])].push(id);
        }
        if !tautology && can.len() == 1 {
            self.units.push(id);
        }
        self.clauses.push(Clause {
            lits: can,
            active,
            needed: false,
            tautology,
        });
        id
    }

    /// Standard two-watched-literal propagation over the active clauses,
    /// starting at the current queue head. With `hinted_only`, a clause
    /// that becomes unit on a variable outside the hint set is skipped
    /// (it stays watched); conflicts are still detected in every clause.
    fn propagate(&mut self, hinted_only: bool) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = -p;
            let wi = lit_index(false_lit);
            let mut ws = std::mem::take(&mut self.watches[wi]);
            let mut i = 0;
            let mut j = 0;
            let mut confl = None;
            'clauses: while i < ws.len() {
                let cid = ws[i];
                i += 1;
                if !self.clauses[cid].active {
                    // Lazy removal: keep the stale entry, skip the clause.
                    ws[j] = cid;
                    j += 1;
                    continue;
                }
                if self.clauses[cid].lits[0] == false_lit {
                    self.clauses[cid].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[cid].lits[1], false_lit);
                let first = self.clauses[cid].lits[0];
                if self.value(first) == 1 {
                    ws[j] = cid;
                    j += 1;
                    continue;
                }
                for k in 2..self.clauses[cid].lits.len() {
                    if self.value(self.clauses[cid].lits[k]) != -1 {
                        self.clauses[cid].lits.swap(1, k);
                        let nw = self.clauses[cid].lits[1];
                        self.watches[lit_index(nw)].push(cid);
                        continue 'clauses; // entry moved off this list
                    }
                }
                ws[j] = cid;
                j += 1;
                if self.value(first) == -1 {
                    confl = Some(cid);
                    break;
                }
                if hinted_only && !self.hinted[var_of(first)] {
                    continue;
                }
                self.enqueue(first, cid);
            }
            if confl.is_some() {
                while i < ws.len() {
                    ws[j] = ws[i];
                    j += 1;
                    i += 1;
                }
            }
            ws.truncate(j);
            self.watches[wi] = ws;
            if confl.is_some() {
                return confl;
            }
        }
        None
    }

    /// Recomputes the persistent root trail: propagate the active unit
    /// clauses to fixpoint (or to a conflict).
    fn root_rebuild(&mut self) {
        for i in 0..self.trail.len() {
            let l = self.trail[i];
            self.assign[var_of(l)] = 0;
            self.reason[var_of(l)] = NO_REASON;
        }
        self.trail.clear();
        self.qhead = 0;
        self.root_confl = None;
        for ui in 0..self.units.len() {
            let cid = self.units[ui];
            if !self.clauses[cid].active {
                continue;
            }
            let l = self.clauses[cid].lits[0];
            match self.value(l) {
                1 => {}
                0 => self.enqueue(l, cid),
                _ => {
                    // Two contradictory active units: the unit clause
                    // itself is the (all-false) conflict.
                    self.root_confl = Some(cid);
                    break;
                }
            }
        }
        if self.root_confl.is_none() {
            self.root_confl = self.propagate(false);
        }
    }

    /// Deactivates a clause (reverse of an addition). Rebuilds the root
    /// trail when the clause supported it.
    fn deactivate(&mut self, cid: usize) {
        self.clauses[cid].active = false;
        let supports_root = self.root_confl == Some(cid)
            || self.clauses[cid]
                .lits
                .iter()
                .any(|&l| self.assign[var_of(l)] != 0 && self.reason[var_of(l)] == cid);
        if supports_root {
            self.root_rebuild();
        }
    }

    /// Reactivates a clause (reverse of a deletion), repairing its watch
    /// entries for the current root assignment and extending the root
    /// trail if the clause is unit or false under it.
    fn reactivate(&mut self, cid: usize) {
        self.clauses[cid].active = true;
        if self.clauses[cid].tautology || self.clauses[cid].lits.len() < 2 {
            if self.clauses[cid].lits.len() == 1 && self.root_confl.is_none() {
                let l = self.clauses[cid].lits[0];
                match self.value(l) {
                    1 => {}
                    0 => {
                        self.enqueue(l, cid);
                        self.root_confl = self.propagate(false);
                    }
                    _ => self.root_confl = Some(cid),
                }
            }
            return;
        }
        // Drop the stale entries (placed when the clause was deleted),
        // then watch two sound slots: a true or undef literal if one
        // exists, falling back to false ones.
        for slot in 0..2 {
            let l = self.clauses[cid].lits[slot];
            self.watches[lit_index(l)].retain(|&c| c != cid);
        }
        let rank = |v: i8| match v {
            -1 => 2,
            _ => 0, // true and undef are both sound to watch
        };
        for slot in 0..2 {
            let best = (slot..self.clauses[cid].lits.len())
                .min_by_key(|&k| rank(self.value(self.clauses[cid].lits[k])))
                .expect("len >= 2");
            self.clauses[cid].lits.swap(slot, best);
        }
        for slot in 0..2 {
            let l = self.clauses[cid].lits[slot];
            self.watches[lit_index(l)].push(cid);
        }
        if self.root_confl.is_some() {
            return;
        }
        // Extend the root trail if the clause is unit/false under it.
        let first = self.clauses[cid].lits[0];
        let second = self.clauses[cid].lits[1];
        match (self.value(first), self.value(second)) {
            (-1, -1) => self.root_confl = Some(cid),
            (0, -1) => {
                self.enqueue(first, cid);
                self.root_confl = self.propagate(false);
            }
            _ => {}
        }
    }

    /// Verifies `lits` is RUP under the current root state, in up to two
    /// passes: first propagating only the hinted variables, then — only if
    /// that pass reached a fixpoint without a conflict — everything.
    /// Marks the conflict's antecedents into the core on success.
    fn rup_check(&mut self, lits: &[i32], hints: &[u32]) -> Option<Rup> {
        if !hints.is_empty() {
            let n_vars = self.hinted.len();
            let in_range = |h: &&u32| (1..n_vars).contains(&(**h as usize));
            for &h in hints.iter().filter(in_range) {
                self.hinted[h as usize] = true;
            }
            let refuted = self.refute_negation(lits, true);
            for &h in hints.iter().filter(in_range) {
                self.hinted[h as usize] = false;
            }
            if refuted {
                return Some(Rup::Hinted);
            }
        }
        self.refute_negation(lits, false).then_some(Rup::Full)
    }

    /// Assumes every literal of `lits` false, propagates (see
    /// [`Checker::propagate`] for `hinted_only`), and reports whether a
    /// conflict was reached, marking its antecedents into the core. Always
    /// restores the root trail.
    fn refute_negation(&mut self, lits: &[i32], hinted_only: bool) -> bool {
        if let Some(c) = self.root_confl {
            self.mark_conflict(Conflict::Clause(c));
            return true;
        }
        let mark = self.trail.len();
        debug_assert_eq!(self.qhead, mark);
        let mut confl = None;
        for &l in lits {
            match self.value(-l) {
                1 => {} // already assumed / implied
                0 => self.enqueue(-l, NO_REASON),
                _ => {
                    // ¬l is false: l is true under root propagation, so
                    // the clause is entailed via l's reason chain.
                    confl = Some(Conflict::Lit(l));
                    break;
                }
            }
        }
        if confl.is_none() {
            confl = self.propagate(hinted_only).map(Conflict::Clause);
        }
        let ok = confl.is_some();
        if let Some(c) = confl {
            self.mark_conflict(c);
        }
        while self.trail.len() > mark {
            let l = self.trail.pop().unwrap();
            self.assign[var_of(l)] = 0;
            self.reason[var_of(l)] = NO_REASON;
        }
        self.qhead = mark;
        ok
    }

    /// Marks the conflict clause and the transitive reason clauses of
    /// every variable it involves as needed (core membership).
    fn mark_conflict(&mut self, confl: Conflict) {
        let mut queue: Vec<usize> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let push_var = |v: usize, seen: &mut Vec<bool>, queue: &mut Vec<usize>| {
            if !seen[v] {
                seen[v] = true;
                queue.push(v);
            }
        };
        match confl {
            Conflict::Clause(cid) => {
                self.clauses[cid].needed = true;
                for i in 0..self.clauses[cid].lits.len() {
                    let v = var_of(self.clauses[cid].lits[i]);
                    push_var(v, &mut self.seen_var, &mut queue);
                }
            }
            Conflict::Lit(l) => {
                push_var(var_of(l), &mut self.seen_var, &mut queue);
            }
        }
        touched.extend_from_slice(&queue);
        while let Some(v) = queue.pop() {
            let r = self.reason[v];
            if r == NO_REASON {
                continue;
            }
            self.clauses[r].needed = true;
            for i in 0..self.clauses[r].lits.len() {
                let u = var_of(self.clauses[r].lits[i]);
                if !self.seen_var[u] {
                    self.seen_var[u] = true;
                    queue.push(u);
                    touched.push(u);
                }
            }
        }
        for v in touched {
            self.seen_var[v] = false;
        }
    }
}

/// Checks a clausal proof of unsatisfiability for `formula`.
///
/// `formula` and the proof use DIMACS literal conventions (`±var` as
/// nonzero `i32`). On success the outcome reports what was verified and
/// the unsatisfiable core; any structural or semantic defect rejects the
/// certificate with a [`CheckError`].
pub fn check(formula: &[Vec<i32>], proof: &Proof) -> Result<CheckOutcome, CheckError> {
    let mut max_var = 0usize;
    for c in formula {
        for &l in c {
            if l == 0 {
                return Err(CheckError::InvalidLiteral);
            }
            max_var = max_var.max(var_of(l));
        }
    }
    for s in &proof.steps {
        for &l in &s.lits {
            if l == 0 {
                return Err(CheckError::InvalidLiteral);
            }
            max_var = max_var.max(var_of(l));
        }
    }

    let mut ck = Checker::new(max_var);
    let mut outcome = CheckOutcome::default();

    // Forward replay: load the formula, apply every step up to the first
    // empty-clause addition, resolving deletions against the most recent
    // active clause of the same literal set.
    let mut shape: HashMap<Vec<i32>, Vec<usize>> = HashMap::new();
    for (fi, c) in formula.iter().enumerate() {
        let can = canonical(c);
        if can.is_empty() {
            // The formula contains the empty clause: trivially UNSAT.
            outcome.core_formula.push(fi);
            return Ok(outcome);
        }
        let id = ck.create(can.clone(), true);
        shape.entry(can).or_default().push(id);
    }
    ck.n_formula = ck.clauses.len();

    let mut actions: Vec<Action> = Vec::new();
    let mut empty_step: Option<usize> = None;
    for (si, step) in proof.steps.iter().enumerate() {
        let can = canonical(&step.lits);
        if step.delete {
            match shape.get_mut(&can).and_then(Vec::pop) {
                Some(id) => {
                    ck.clauses[id].active = false;
                    actions.push(Action::Delete(id));
                }
                None => outcome.ignored_deletes += 1,
            }
        } else {
            if can.is_empty() {
                empty_step = Some(si);
                outcome.trailing_ignored = proof.steps.len() - si - 1;
                break;
            }
            let id = ck.create(can.clone(), true);
            shape.entry(can).or_default().push(id);
            actions.push(Action::Add(id, si));
        }
    }
    let empty_step = empty_step.ok_or(CheckError::EmptyClauseMissing)?;

    // The terminal empty clause: the active clauses must propagate to a
    // conflict on their own.
    ck.root_rebuild();
    match ck.root_confl {
        Some(c) => ck.mark_conflict(Conflict::Clause(c)),
        None => return Err(CheckError::EmptyClauseNotRup),
    }
    outcome.verified_adds += 1;
    outcome.core_steps.push(empty_step);

    // Backward pass: undo each action; re-verify the additions the
    // refutation marked as needed, which marks their own antecedents.
    for act in actions.into_iter().rev() {
        match act {
            Action::Delete(id) => ck.reactivate(id),
            Action::Add(id, si) => {
                let needed = ck.clauses[id].needed;
                ck.deactivate(id);
                if !needed {
                    outcome.skipped_adds += 1;
                    continue;
                }
                let lits = ck.clauses[id].lits.clone();
                match ck.rup_check(&lits, &proof.steps[si].hints) {
                    None => return Err(CheckError::StepNotRup { step: si }),
                    Some(Rup::Hinted) => outcome.hinted_adds += 1,
                    Some(Rup::Full) => {}
                }
                outcome.verified_adds += 1;
                outcome.core_steps.push(si);
            }
        }
    }
    for (fi, c) in ck.clauses[..ck.n_formula].iter().enumerate() {
        if c.needed {
            outcome.core_formula.push(fi);
        }
    }
    outcome.core_steps.sort_unstable();
    Ok(outcome)
}

/// Convenience wrapper: certifies an UNSAT-under-assumptions verdict by
/// appending each assumption as a unit clause and closing the proof with
/// the terminal empty clause.
pub fn check_with_assumptions(
    formula: &[Vec<i32>],
    assumptions: &[i32],
    proof: &Proof,
) -> Result<CheckOutcome, CheckError> {
    let mut f = formula.to_vec();
    f.extend(assumptions.iter().map(|&a| vec![a]));
    let mut p = proof.clone();
    p.close();
    check(&f, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_unsat() -> Vec<Vec<i32>> {
        // (1∨2)(¬1∨2)(1∨¬2)(¬1∨¬2)
        vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]]
    }

    fn xor_proof() -> Proof {
        let mut p = Proof::new();
        p.add(vec![2]);
        p.add(vec![]);
        p
    }

    #[test]
    fn accepts_a_valid_refutation() {
        let out = check(&xor_unsat(), &xor_proof()).unwrap();
        assert_eq!(out.verified_adds, 2);
        assert_eq!(out.skipped_adds, 0);
        assert_eq!(out.core_steps, vec![0, 1]);
        assert!(!out.core_formula.is_empty());
    }

    #[test]
    fn accepts_with_deletion_steps() {
        let mut p = Proof::new();
        p.add(vec![2]);
        p.delete(vec![1, 2]);
        p.add(vec![]);
        check(&xor_unsat(), &p).unwrap();
    }

    #[test]
    fn skips_unused_lemmas() {
        let mut p = Proof::new();
        p.add(vec![2]);
        p.add(vec![2, 3]); // never used by the refutation
        p.add(vec![]);
        let out = check(&xor_unsat(), &p).unwrap();
        assert_eq!(out.skipped_adds, 1);
        assert_eq!(out.core_steps, vec![0, 2]);
    }

    #[test]
    fn rejects_without_empty_clause() {
        let mut p = Proof::new();
        p.add(vec![2]);
        assert_eq!(check(&xor_unsat(), &p), Err(CheckError::EmptyClauseMissing));
    }

    #[test]
    fn rejects_empty_clause_that_does_not_follow() {
        // Satisfiable formula: the empty clause can never be RUP.
        let formula = vec![vec![1], vec![-1, 2]];
        let mut p = Proof::new();
        p.add(vec![2]); // RUP (1 propagates 2), but the formula is SAT
        p.add(vec![]);
        assert_eq!(check(&formula, &p), Err(CheckError::EmptyClauseNotRup));
    }

    #[test]
    fn rejects_non_rup_core_lemma() {
        // (1∨2)(¬1∨2): adding ¬2 is not RUP (assuming 2 satisfies all),
        // and the empty clause needs it — with or without a hint on every
        // variable.
        let formula = vec![vec![1, 2], vec![-1, 2]];
        for hints in [vec![], vec![1, 2]] {
            let mut p = Proof::new();
            p.add_hinted(vec![-2], hints);
            p.add(vec![]);
            assert_eq!(check(&formula, &p), Err(CheckError::StepNotRup { step: 0 }));
        }
    }

    /// (¬1∨2)(¬2∨3)(¬1∨¬3)(1∨4)(1∨¬4): the lemma ¬1 follows by
    /// propagating 2 and 3, and the units ¬1, 4, ¬4 then conflict.
    fn chain_unsat() -> Vec<Vec<i32>> {
        vec![
            vec![-1, 2],
            vec![-2, 3],
            vec![-1, -3],
            vec![1, 4],
            vec![1, -4],
        ]
    }

    fn chain_proof(hints: Vec<u32>) -> Proof {
        let mut p = Proof::new();
        p.add_hinted(vec![-1], hints);
        p.add(vec![]);
        p
    }

    #[test]
    fn hints_naming_the_derivation_settle_the_lemma() {
        let out = check(&chain_unsat(), &chain_proof(vec![2, 3])).unwrap();
        assert_eq!(out.verified_adds, 2);
        assert_eq!(out.hinted_adds, 1);
        assert_eq!(out.core_steps, vec![0, 1]);
    }

    #[test]
    fn useless_hints_fall_back_to_full_propagation() {
        // Var 4 is never implied by assuming 1: the hinted pass stalls.
        let out = check(&chain_unsat(), &chain_proof(vec![4])).unwrap();
        assert_eq!(out.verified_adds, 2);
        assert_eq!(out.hinted_adds, 0);
        let unhinted = check(&chain_unsat(), &chain_proof(vec![])).unwrap();
        assert_eq!(out, unhinted);
    }

    #[test]
    fn out_of_range_and_repeated_hints_are_harmless() {
        for hints in [
            vec![0, 5, 99, u32::MAX],
            vec![0, 2, 2, 3, 3, u32::MAX],
            vec![3, 2, 1, 4, 1],
        ] {
            let out = check(&chain_unsat(), &chain_proof(hints.clone())).unwrap();
            assert_eq!(out.verified_adds, 2, "{hints:?}");
        }
        // No hint turns a non-RUP lemma into an accepted one.
        let formula = vec![vec![1, 2], vec![-1, 2]];
        let mut p = Proof::new();
        p.add_hinted(vec![-2], vec![0, 2, 2, 7, u32::MAX]);
        p.add(vec![]);
        assert_eq!(check(&formula, &p), Err(CheckError::StepNotRup { step: 0 }));
    }

    #[test]
    fn hints_on_deletion_steps_are_ignored() {
        let mut plain = Proof::new();
        plain.add(vec![2]);
        plain.delete(vec![1, 2]);
        plain.add(vec![]);
        let mut hinted = plain.clone();
        hinted.steps[1].hints = vec![0, 1, 2, 99];
        assert_eq!(
            check(&xor_unsat(), &hinted).unwrap(),
            check(&xor_unsat(), &plain).unwrap()
        );
    }

    #[test]
    fn empty_clause_in_formula_is_trivially_unsat() {
        let formula = vec![vec![1, 2], vec![]];
        let out = check(&formula, &Proof::new()).unwrap();
        assert_eq!(out.core_formula, vec![1]);
    }

    #[test]
    fn rejects_literal_zero() {
        assert_eq!(
            check(&[vec![1, 0]], &Proof::new()),
            Err(CheckError::InvalidLiteral)
        );
    }

    #[test]
    fn assumption_certificates() {
        // 1 → 2 is consistent, but assuming 1 and ¬2 is not.
        let formula = vec![vec![-1, 2]];
        let out = check_with_assumptions(&formula, &[1, -2], &Proof::new()).unwrap();
        assert_eq!(out.verified_adds, 1);
        // Without the assumptions the same certificate fails.
        assert!(check_with_assumptions(&formula, &[], &Proof::new()).is_err());
    }

    #[test]
    fn deleted_clause_is_really_gone() {
        // Deleting (¬1∨2) before the empty clause breaks the refutation
        // of (1)(¬1∨2)(¬2): units 1,¬2 alone no longer conflict.
        let formula = vec![vec![1], vec![-1, 2], vec![-2]];
        let mut ok = Proof::new();
        ok.add(vec![]);
        check(&formula, &ok).unwrap();
        let mut broken = Proof::new();
        broken.delete(vec![-1, 2]);
        broken.add(vec![]);
        assert_eq!(check(&formula, &broken), Err(CheckError::EmptyClauseNotRup));
    }

    #[test]
    fn duplicate_literals_are_canonicalized() {
        // (1 1) is the unit (1); with (¬1) the empty clause is RUP.
        let formula = vec![vec![1, 1], vec![-1]];
        let mut p = Proof::new();
        p.add(vec![]);
        check(&formula, &p).unwrap();
    }

    #[test]
    fn tautologies_are_inert() {
        let formula = vec![vec![1, -1], vec![2], vec![-2]];
        let mut p = Proof::new();
        p.add(vec![]);
        let out = check(&formula, &p).unwrap();
        assert_eq!(out.core_formula, vec![1, 2]);
    }

    #[test]
    fn drat_round_trip() {
        let mut p = Proof::new();
        p.add(vec![2, -3]);
        p.delete(vec![1, 2]);
        p.add(vec![]);
        let text = p.to_drat_string();
        assert_eq!(text, "2 -3 0\nd 1 2 0\n0\n");
        assert_eq!(Proof::parse_drat(&text).unwrap(), p);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Proof::parse_drat("1 2\n").is_err()); // no terminator
        assert!(Proof::parse_drat("1 x 0\n").is_err()); // bad token
        assert!(Proof::parse_drat("1 0 2 0\n").is_err()); // trailing lits
        let p = Proof::parse_drat("c comment\ns comment\n\nd 1 0\n").unwrap();
        assert_eq!(p.steps.len(), 1);
        assert!(p.steps[0].delete);
    }

    #[test]
    fn close_is_idempotent() {
        let mut p = Proof::new();
        p.close();
        p.close();
        assert_eq!(p.steps.len(), 1);
        assert!(p.steps[0].lits.is_empty());
    }
}
