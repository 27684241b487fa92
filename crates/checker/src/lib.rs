//! # `checker` — an independent backward RUP/DRAT proof checker
//!
//! Verifies UNSAT certificates produced by the `sat` crate's proof logger
//! (or any DRAT producer). It shares no solver code and depends on
//! nothing: this crate has its own clause representation, its own
//! two-watched-literal unit propagation, and a deliberately simple
//! backward checking loop in the style of `drat-trim`. The solver is ~3k
//! lines of carefully optimised search; this checker is a few hundred
//! lines of boring code — a soundness bug would have to appear in *both*,
//! independently, to slip a bogus UNSAT verdict through.
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
//! certificate for an UNSAT-under-assumptions verdict is therefore
//! checked against the formula plus each assumption as a unit clause,
//! with the proof closed by an empty clause ([`Proof::close`]);
//! [`check_with_assumptions`] does both without copying either.
//!
//! ## Engine
//!
//! One check builds its state once and drops it on return; no result of
//! one check reaches another.
//!
//! - **Literal arena.** Every clause's literals sit back to back in one
//!   flat `Vec<i32>`, sorted and deduplicated when the clause is created.
//!   Each clause's start, length and flag byte (active, needed,
//!   tautology) sit in parallel arrays indexed by clause id.
//! - **Blocker watches.** A watch entry names its clause and a *blocker*,
//!   another literal of that clause. While the blocker is true the clause
//!   is satisfied, and a visit skips it without reading the arena.
//! - **Literal-indexed values.** Values live at `val[2·var + sign]`, so one
//!   load gives a literal's value.
//! - **Stale watches dropped.** Deleting a clause (forward) or un-adding a
//!   lemma (backward) only clears its active flag. Propagation removes a
//!   watch entry of an inactive clause when it visits one; undoing a
//!   deletion removes whatever entries are left and watches the clause
//!   afresh.
//! - **Hashed deletions.** The forward replay sorts each step's literals
//!   into one reused buffer. A deletion finds its target, the most recent
//!   active clause with the same literal set, through a map from a 64-bit
//!   hash of the sorted literals (seeded per check) to a chain of clause
//!   ids, comparing the literals in the arena.
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

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

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

/// Reason slot of an unassigned or assumed variable.
const NO_REASON: u32 = u32::MAX;

/// Values in [`Checker::val`].
const TRUE: i8 = 1;
const FALSE: i8 = -1;
const UNDEF: i8 = 0;

/// Bits of [`Checker::flags`].
const ACTIVE: u8 = 1;
/// In the core: some verified conflict used the clause.
const NEEDED: u8 = 2;
/// Contains both polarities of some variable: never falsifiable, so it
/// is excluded from propagation entirely.
const TAUTOLOGY: u8 = 4;

/// One watch-list entry.
#[derive(Clone, Copy, Debug)]
struct Watch {
    /// The watched clause.
    cid: u32,
    /// Another literal of the clause. While it is true the clause is
    /// satisfied, and a visit reads nothing else.
    blocker: i32,
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
    /// Every clause's literals, back to back: clause `c` owns
    /// `arena[start[c]..start[c] + len[c]]`, sorted and deduplicated when
    /// created. A watched clause keeps its two watched literals in its
    /// first two slots (propagation permutes, never changes the set).
    arena: Vec<i32>,
    start: Vec<usize>,
    len: Vec<u32>,
    /// `ACTIVE`, `NEEDED` and `TAUTOLOGY` bits per clause.
    flags: Vec<u8>,
    n_formula: usize,
    /// Watch entries per literal, indexed by `lit_index`. An active
    /// clause has exactly one entry on each of its first two literals; an
    /// inactive one's entries are stale and are dropped when propagation
    /// reaches them.
    watches: Vec<Vec<Watch>>,
    /// Ids of unit clauses, in creation order (sources of the root trail).
    units: Vec<usize>,
    /// Value per literal, indexed by `lit_index`: `TRUE`, `FALSE` or
    /// `UNDEF`. A literal and its negation are set together.
    val: Vec<i8>,
    /// Reason clause id per variable, `NO_REASON` for assumptions.
    reason: Vec<u32>,
    trail: Vec<i32>,
    qhead: usize,
    /// Conflict reached by propagating the active units alone. While set,
    /// every RUP check succeeds trivially from this conflict.
    root_confl: Option<usize>,
    /// Scratch for core marking: a flag per variable, and the flagged
    /// variables in the order they were reached.
    seen_var: Vec<bool>,
    marked: Vec<usize>,
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

/// Writes the sorted, deduplicated literal set of `lits` — the canonical
/// clause — into `buf`.
fn canonical_into(lits: &[i32], buf: &mut Vec<i32>) {
    buf.clear();
    buf.extend_from_slice(lits);
    buf.sort_unstable();
    buf.dedup();
}

fn is_tautology(canonical: &[i32]) -> bool {
    // Sorting puts -v immediately before v.
    canonical.windows(2).any(|w| w[0] == -w[1])
}

/// A `Hasher` for keys that are already hashes: it passes a `u64` key
/// through unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The active clauses by literal set, for resolving deletions: each
/// clause hash leads to the newest active clause with that hash, and
/// `older[c]` to the next older one, or to [`ClauseIndex::END`].
struct ClauseIndex {
    /// Drawn per check, so that a proof cannot be crafted to make its
    /// clauses collide.
    seed: u64,
    newest: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    older: Vec<u32>,
}

impl ClauseIndex {
    /// Ends a chain.
    const END: u32 = u32::MAX;

    fn with_capacity(n: usize) -> ClauseIndex {
        ClauseIndex {
            seed: RandomState::new().build_hasher().finish(),
            newest: HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default()),
            older: Vec::with_capacity(n),
        }
    }

    /// A 64-bit hash of a canonical clause, mixed so that its low bits
    /// (the ones a hash table indexes by) depend on every literal.
    fn hash(&self, canonical: &[i32]) -> u64 {
        let mut h = self.seed ^ canonical.len() as u64;
        for &l in canonical {
            h = (h.rotate_left(5) ^ u64::from(l as u32)).wrapping_mul(0x517C_C1B7_2722_0A95);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }

    /// Indexes clause `id`, with literals `canonical`; `id` must be the
    /// next id in creation order.
    fn insert(&mut self, canonical: &[i32], id: usize) {
        debug_assert_eq!(id, self.older.len());
        let prev = self.newest.insert(self.hash(canonical), id as u32);
        self.older.push(prev.unwrap_or(Self::END));
    }

    /// Unindexes and returns the newest active clause whose literals are
    /// `canonical`, if any.
    fn remove(&mut self, canonical: &[i32], ck: &Checker) -> Option<usize> {
        let hash = self.hash(canonical);
        let mut prev = Self::END;
        let mut cur = *self.newest.get(&hash)?;
        while cur != Self::END {
            let next = self.older[cur as usize];
            if ck.lits(cur as usize) == canonical {
                if prev != Self::END {
                    self.older[prev as usize] = next;
                } else if next != Self::END {
                    self.newest.insert(hash, next);
                } else {
                    self.newest.remove(&hash);
                }
                return Some(cur as usize);
            }
            prev = cur;
            cur = next;
        }
        None
    }
}

impl Checker {
    /// An empty checker over variables `1..=max_var`, with room for
    /// `n_clauses` clauses of `n_lits` literals in all.
    fn new(max_var: usize, n_clauses: usize, n_lits: usize) -> Checker {
        Checker {
            arena: Vec::with_capacity(n_lits),
            start: Vec::with_capacity(n_clauses),
            len: Vec::with_capacity(n_clauses),
            flags: Vec::with_capacity(n_clauses),
            n_formula: 0,
            watches: vec![Vec::new(); 2 * (max_var + 1)],
            units: Vec::new(),
            val: vec![UNDEF; 2 * (max_var + 1)],
            reason: vec![NO_REASON; max_var + 1],
            trail: Vec::new(),
            qhead: 0,
            root_confl: None,
            seen_var: vec![false; max_var + 1],
            marked: Vec::new(),
            hinted: vec![false; max_var + 1],
        }
    }

    fn lits(&self, cid: usize) -> &[i32] {
        let s = self.start[cid];
        &self.arena[s..s + self.len[cid] as usize]
    }

    fn value(&self, l: i32) -> i8 {
        self.val[lit_index(l)]
    }

    fn enqueue(&mut self, l: i32, reason: u32) {
        debug_assert_eq!(self.value(l), UNDEF);
        let li = lit_index(l);
        self.val[li] = TRUE;
        self.val[li ^ 1] = FALSE;
        self.reason[var_of(l)] = reason;
        self.trail.push(l);
    }

    /// Unassigns the trail above `mark`.
    fn backtrack(&mut self, mark: usize) {
        for &l in &self.trail[mark..] {
            let li = lit_index(l);
            self.val[li] = UNDEF;
            self.val[li ^ 1] = UNDEF;
            self.reason[var_of(l)] = NO_REASON;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
    }

    /// Creates an active clause from canonical literals, wiring watches
    /// and the unit list.
    fn create(&mut self, can: &[i32]) -> usize {
        let id = self.start.len();
        let cid = u32::try_from(id).expect("fewer than 2^32 clauses");
        let len = u32::try_from(can.len()).expect("fewer than 2^32 literals per clause");
        let tautology = is_tautology(can);
        if !tautology && can.len() >= 2 {
            self.watch(cid, can[0], can[1]);
        }
        if !tautology && can.len() == 1 {
            self.units.push(id);
        }
        self.start.push(self.arena.len());
        self.len.push(len);
        self.flags.push(if tautology {
            ACTIVE | TAUTOLOGY
        } else {
            ACTIVE
        });
        self.arena.extend_from_slice(can);
        id
    }

    /// Watches clause `cid` on `a` and `b`, each the other's blocker.
    fn watch(&mut self, cid: u32, a: i32, b: i32) {
        self.watches[lit_index(a)].push(Watch { cid, blocker: b });
        self.watches[lit_index(b)].push(Watch { cid, blocker: a });
    }

    /// Two-watched-literal propagation over the active clauses, starting
    /// at the current queue head. With `hinted_only`, a clause that
    /// becomes unit on a variable outside the hint set is skipped (it
    /// stays watched); conflicts are still detected in every clause.
    fn propagate(&mut self, hinted_only: bool) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let false_lit = -self.trail[self.qhead];
            self.qhead += 1;
            let wi = lit_index(false_lit);
            let mut ws = std::mem::take(&mut self.watches[wi]);
            let mut i = 0;
            let mut j = 0;
            let mut confl = None;
            'visits: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.val[lit_index(w.blocker)] == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cid = w.cid as usize;
                if self.flags[cid] & ACTIVE == 0 {
                    continue; // stale: the entry is dropped
                }
                let s = self.start[cid];
                let c = &mut self.arena[s..s + self.len[cid] as usize];
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                debug_assert_eq!(c[1], false_lit);
                let first = c[0];
                let kept = Watch {
                    cid: w.cid,
                    blocker: first,
                };
                if first != w.blocker && self.val[lit_index(first)] == TRUE {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                for k in 2..c.len() {
                    if self.val[lit_index(c[k])] != FALSE {
                        c.swap(1, k);
                        self.watches[lit_index(c[1])].push(kept);
                        continue 'visits; // entry moved off this list
                    }
                }
                ws[j] = kept;
                j += 1;
                if self.val[lit_index(first)] == FALSE {
                    confl = Some(cid);
                    break;
                }
                if hinted_only && !self.hinted[var_of(first)] {
                    continue;
                }
                self.enqueue(first, w.cid);
            }
            if confl.is_some() {
                ws.copy_within(i.., j);
                j += ws.len() - i;
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
        self.backtrack(0);
        self.root_confl = None;
        for ui in 0..self.units.len() {
            let cid = self.units[ui];
            if self.flags[cid] & ACTIVE == 0 {
                continue;
            }
            let l = self.arena[self.start[cid]];
            match self.value(l) {
                TRUE => {}
                UNDEF => self.enqueue(l, cid as u32),
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
        self.flags[cid] &= !ACTIVE;
        let supports_root = self.root_confl == Some(cid)
            || self
                .lits(cid)
                .iter()
                .any(|&l| self.reason[var_of(l)] == cid as u32);
        if supports_root {
            self.root_rebuild();
        }
    }

    /// Reactivates a clause (reverse of a deletion), re-watching it for
    /// the current root assignment and extending the root trail if the
    /// clause is unit or false under it.
    fn reactivate(&mut self, cid: usize) {
        self.flags[cid] |= ACTIVE;
        let s = self.start[cid];
        let n = self.len[cid] as usize;
        if self.flags[cid] & TAUTOLOGY != 0 || n < 2 {
            if n == 1 && self.root_confl.is_none() {
                let l = self.arena[s];
                match self.value(l) {
                    TRUE => {}
                    UNDEF => {
                        self.enqueue(l, cid as u32);
                        self.root_confl = self.propagate(false);
                    }
                    _ => self.root_confl = Some(cid),
                }
            }
            return;
        }
        // Drop whatever stale entries propagation has not dropped yet
        // (they sit on the first two literals, which no visit permutes
        // while the clause is inactive), then watch two sound slots: a
        // true or undefined literal if one exists, else a false one.
        let id = cid as u32;
        for slot in 0..2 {
            self.watches[lit_index(self.arena[s + slot])].retain(|w| w.cid != id);
        }
        for slot in 0..2 {
            let best = (slot..n)
                .find(|&k| self.value(self.arena[s + k]) != FALSE)
                .unwrap_or(slot);
            self.arena.swap(s + slot, s + best);
        }
        let (first, second) = (self.arena[s], self.arena[s + 1]);
        self.watch(id, first, second);
        if self.root_confl.is_some() {
            return;
        }
        // Extend the root trail if the clause is unit/false under it.
        match (self.value(first), self.value(second)) {
            (FALSE, FALSE) => self.root_confl = Some(cid),
            (UNDEF, FALSE) => {
                self.enqueue(first, id);
                self.root_confl = self.propagate(false);
            }
            _ => {}
        }
    }

    /// Verifies clause `cid` is RUP under the current root state, in up
    /// to two passes: first propagating only the hinted variables, then —
    /// only if that pass reached a fixpoint without a conflict —
    /// everything. Marks the conflict's antecedents into the core on
    /// success.
    fn rup_check(&mut self, cid: usize, hints: &[u32]) -> Option<Rup> {
        if !hints.is_empty() {
            let n_vars = self.hinted.len();
            let in_range = |h: &&u32| (1..n_vars).contains(&(**h as usize));
            for &h in hints.iter().filter(in_range) {
                self.hinted[h as usize] = true;
            }
            let refuted = self.refute_negation(cid, true);
            for &h in hints.iter().filter(in_range) {
                self.hinted[h as usize] = false;
            }
            if refuted {
                return Some(Rup::Hinted);
            }
        }
        self.refute_negation(cid, false).then_some(Rup::Full)
    }

    /// Assumes every literal of clause `cid` false, propagates (see
    /// [`Checker::propagate`] for `hinted_only`), and reports whether a
    /// conflict was reached, marking its antecedents into the core. Always
    /// restores the root trail.
    fn refute_negation(&mut self, cid: usize, hinted_only: bool) -> bool {
        if let Some(c) = self.root_confl {
            self.mark_conflict(Conflict::Clause(c));
            return true;
        }
        let mark = self.trail.len();
        debug_assert_eq!(self.qhead, mark);
        let mut confl = None;
        let s = self.start[cid];
        for k in s..s + self.len[cid] as usize {
            let l = self.arena[k];
            match self.value(-l) {
                TRUE => {} // already assumed / implied
                UNDEF => self.enqueue(-l, NO_REASON),
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
        self.backtrack(mark);
        ok
    }

    /// Marks the conflict clause and the transitive reason clauses of
    /// every variable it involves as needed (core membership).
    fn mark_conflict(&mut self, confl: Conflict) {
        debug_assert!(self.marked.is_empty());
        match confl {
            Conflict::Clause(cid) => self.mark_clause(cid),
            Conflict::Lit(l) => self.mark_var(var_of(l)),
        }
        let mut next = 0;
        while next < self.marked.len() {
            let r = self.reason[self.marked[next]];
            next += 1;
            if r != NO_REASON {
                self.mark_clause(r as usize);
            }
        }
        for &v in &self.marked {
            self.seen_var[v] = false;
        }
        self.marked.clear();
    }

    fn mark_clause(&mut self, cid: usize) {
        self.flags[cid] |= NEEDED;
        let s = self.start[cid];
        for k in s..s + self.len[cid] as usize {
            self.mark_var(var_of(self.arena[k]));
        }
    }

    fn mark_var(&mut self, v: usize) {
        if !self.seen_var[v] {
            self.seen_var[v] = true;
            self.marked.push(v);
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
    replay(formula, &[], proof, false)
}

/// Certifies an UNSAT-under-assumptions verdict: checks `proof` against
/// `formula` plus one unit clause per assumption, with the terminal empty
/// clause appended unless the proof has one. The outcome is
/// [`check`]'s on that formula and that closed proof (see
/// [`Proof::close`]); neither is copied.
pub fn check_with_assumptions(
    formula: &[Vec<i32>],
    assumptions: &[i32],
    proof: &Proof,
) -> Result<CheckOutcome, CheckError> {
    replay(formula, assumptions, proof, true)
}

/// The one checking loop: `formula` followed by the `units` is the
/// formula; with `close`, a proof without an empty-clause addition is
/// checked as if one followed its last step.
fn replay(
    formula: &[Vec<i32>],
    units: &[i32],
    proof: &Proof,
    close: bool,
) -> Result<CheckOutcome, CheckError> {
    let clauses = || {
        let units = units.iter().map(std::slice::from_ref);
        formula.iter().map(Vec::as_slice).chain(units)
    };
    let mut max_var = 0usize;
    let mut n_lits = 0usize;
    for lits in clauses().chain(proof.steps.iter().map(|s| s.lits.as_slice())) {
        for &l in lits {
            if l == 0 {
                return Err(CheckError::InvalidLiteral);
            }
            max_var = max_var.max(var_of(l));
        }
        n_lits += lits.len();
    }

    let n_clauses = formula.len() + units.len() + proof.steps.len();
    let mut ck = Checker::new(max_var, n_clauses, n_lits);
    let mut index = ClauseIndex::with_capacity(n_clauses);
    let mut outcome = CheckOutcome::default();

    // Forward replay: load the formula, apply every step up to the first
    // empty-clause addition, resolving deletions against the most recent
    // active clause of the same literal set.
    let mut buf = Vec::new();
    for (fi, c) in clauses().enumerate() {
        canonical_into(c, &mut buf);
        if buf.is_empty() {
            // The formula contains the empty clause: trivially UNSAT.
            outcome.core_formula.push(fi);
            return Ok(outcome);
        }
        let id = ck.create(&buf);
        index.insert(&buf, id);
    }
    ck.n_formula = ck.start.len();

    let mut actions: Vec<Action> = Vec::with_capacity(proof.steps.len());
    let mut empty_step = None;
    for (si, step) in proof.steps.iter().enumerate() {
        canonical_into(&step.lits, &mut buf);
        if step.delete {
            match index.remove(&buf, &ck) {
                Some(id) => {
                    ck.flags[id] &= !ACTIVE;
                    actions.push(Action::Delete(id));
                }
                None => outcome.ignored_deletes += 1,
            }
        } else if buf.is_empty() {
            empty_step = Some(si);
            outcome.trailing_ignored = proof.steps.len() - si - 1;
            break;
        } else {
            let id = ck.create(&buf);
            index.insert(&buf, id);
            actions.push(Action::Add(id, si));
        }
    }
    let empty_step = match empty_step {
        Some(si) => si,
        None if close => proof.steps.len(),
        None => return Err(CheckError::EmptyClauseMissing),
    };
    drop(index);

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
    for &act in actions.iter().rev() {
        match act {
            Action::Delete(id) => ck.reactivate(id),
            Action::Add(id, si) => {
                let needed = ck.flags[id] & NEEDED != 0;
                ck.deactivate(id);
                if !needed {
                    outcome.skipped_adds += 1;
                    continue;
                }
                match ck.rup_check(id, &proof.steps[si].hints) {
                    None => return Err(CheckError::StepNotRup { step: si }),
                    Some(Rup::Hinted) => outcome.hinted_adds += 1,
                    Some(Rup::Full) => {}
                }
                outcome.verified_adds += 1;
                outcome.core_steps.push(si);
            }
        }
    }
    outcome.core_formula = (0..ck.n_formula)
        .filter(|&fi| ck.flags[fi] & NEEDED != 0)
        .collect();
    outcome.core_steps.sort_unstable();
    Ok(outcome)
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
    fn deleting_one_of_two_copies_keeps_the_other() {
        // The formula holds (1∨2) twice: one deletion leaves a copy, so
        // the lemma 2 stays RUP; a second deletion removes the last copy,
        // and a third matches nothing.
        let mut formula = xor_unsat();
        formula.push(vec![2, 1]);
        let refute_after = |deletions: usize| {
            let mut p = Proof::new();
            for _ in 0..deletions {
                p.delete(vec![1, 2]);
            }
            p.add(vec![2]);
            p.add(vec![]);
            check(&formula, &p)
        };
        let one = refute_after(1).unwrap();
        assert_eq!((one.verified_adds, one.ignored_deletes), (2, 0));
        assert_eq!(refute_after(2), Err(CheckError::StepNotRup { step: 2 }));
        assert_eq!(refute_after(3), Err(CheckError::StepNotRup { step: 3 }));
    }

    #[test]
    fn a_deletion_removes_the_newest_copy() {
        // The lemma (2∨1) duplicates formula clause 0; deleting (1∨2)
        // then removes the lemma, so the refutation uses clause 0 and the
        // lemma is never verified.
        let mut p = Proof::new();
        p.add(vec![2, 1]);
        p.delete(vec![1, 2]);
        p.add(vec![2]);
        p.add(vec![]);
        let out = check(&xor_unsat(), &p).unwrap();
        assert_eq!(out.core_steps, vec![2, 3]);
        assert_eq!(out.skipped_adds, 1);
        assert!(out.core_formula.contains(&0));
    }

    #[test]
    fn a_lemma_rechecked_after_its_antecedent_is_undeleted_finds_it_watched() {
        // (5)(6)(¬5∨¬6∨2∨3)(¬2∨3)(¬3∨4)(¬3∨¬4): the lemma 3 needs clause 2,
        // which the proof deletes right after deriving 3. Propagating the
        // final root trail (5, 6, 3) falsifies both literals clause 2 was
        // watched on while it is deleted, so both its watch entries are
        // dropped; undoing the deletion must watch it afresh, or the
        // lemma is no longer RUP.
        let formula = vec![
            vec![5],
            vec![6],
            vec![-5, -6, 2, 3],
            vec![-2, 3],
            vec![-3, 4],
            vec![-3, -4],
        ];
        let mut p = Proof::new();
        p.add(vec![3]);
        p.delete(vec![3, 2, -6, -5]);
        p.add(vec![]);
        let out = check(&formula, &p).unwrap();
        assert_eq!(out.core_steps, vec![0, 2]);
        assert_eq!(out.core_formula, vec![0, 1, 2, 3, 4, 5]);
        // Without the lemma the deletion leaves no refutation.
        let mut broken = p.clone();
        broken.steps.remove(0);
        assert_eq!(check(&formula, &broken), Err(CheckError::EmptyClauseNotRup));
    }

    #[test]
    fn assumption_checks_equal_checks_of_the_formula_with_units_and_closed_proof() {
        // (¬1∨2)(¬2∨3)(¬3∨4): refuted under 1 and ¬4, not under 1 alone.
        let formula = vec![vec![-1, 2], vec![-2, 3], vec![-3, 4]];
        let mut lemma = Proof::new();
        lemma.add_hinted(vec![-1, 3], vec![2]);
        lemma.delete(vec![-2, 3]);
        let mut refuted = lemma.clone();
        refuted.add(vec![]);
        refuted.add(vec![7]); // after the empty clause: ignored
        let mut bogus = Proof::new();
        bogus.add(vec![-1]);
        for assumptions in [vec![1, -4], vec![1], vec![-4, 1, 1], vec![]] {
            for proof in [&Proof::new(), &lemma, &refuted, &bogus] {
                let mut with_units = formula.clone();
                with_units.extend(assumptions.iter().map(|&a| vec![a]));
                let mut closed = proof.clone();
                closed.close();
                assert_eq!(
                    check_with_assumptions(&formula, &assumptions, proof),
                    check(&with_units, &closed),
                    "{assumptions:?} {proof:?}"
                );
            }
        }
        assert_eq!(
            check_with_assumptions(&formula, &[0], &lemma),
            Err(CheckError::InvalidLiteral)
        );
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
