//! CNF formula types.

use std::fmt;

/// A CNF literal in DIMACS convention: a non-zero integer whose absolute
/// value is the 1-based variable index and whose sign is the polarity.
///
/// ```
/// use cnf::CnfLit;
/// let x3 = CnfLit::pos(3);
/// assert_eq!((!x3).to_dimacs(), -3);
/// assert_eq!(x3.var(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CnfLit(i32);

impl CnfLit {
    /// Positive literal of 1-based variable `v`.
    ///
    /// # Panics
    /// Panics if `v == 0` or `v > i32::MAX as u32` (unrepresentable as a
    /// signed DIMACS integer).
    pub fn pos(v: u32) -> CnfLit {
        assert!(v != 0, "variables are 1-based");
        assert!(
            v <= i32::MAX as u32,
            "variable index overflows DIMACS range"
        );
        CnfLit(v as i32)
    }

    /// Negative literal of 1-based variable `v`.
    ///
    /// # Panics
    /// Panics if `v == 0` or `v > i32::MAX as u32` (unrepresentable as a
    /// signed DIMACS integer).
    pub fn neg(v: u32) -> CnfLit {
        assert!(v != 0, "variables are 1-based");
        assert!(
            v <= i32::MAX as u32,
            "variable index overflows DIMACS range"
        );
        CnfLit(-(v as i32))
    }

    /// Literal of variable `v` with the given polarity (`true` = positive).
    pub fn new(v: u32, positive: bool) -> CnfLit {
        if positive {
            CnfLit::pos(v)
        } else {
            CnfLit::neg(v)
        }
    }

    /// Builds a literal from a DIMACS integer.
    ///
    /// # Panics
    /// Panics if `raw == 0`, or if `raw == i32::MIN` — the one value whose
    /// negation (and hence [`Not`](std::ops::Not)) overflows `i32`.
    /// Untrusted input must be range-checked *before* this constructor;
    /// [`crate::dimacs::read_dimacs`] rejects such literals with a parse
    /// error instead.
    pub fn from_dimacs(raw: i32) -> CnfLit {
        assert!(raw != 0, "DIMACS literal cannot be zero");
        assert!(
            raw != i32::MIN,
            "DIMACS literal out of range (negation overflows)"
        );
        CnfLit(raw)
    }

    /// The DIMACS integer of this literal.
    #[inline]
    pub fn to_dimacs(self) -> i32 {
        self.0
    }

    /// The 1-based variable index.
    #[inline]
    pub fn var(self) -> u32 {
        self.0.unsigned_abs()
    }

    /// True for positive literals.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }
}

impl std::ops::Not for CnfLit {
    type Output = CnfLit;
    #[inline]
    fn not(self) -> CnfLit {
        CnfLit(-self.0)
    }
}

impl fmt::Debug for CnfLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for CnfLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A CNF formula: a conjunction of clauses over `num_vars` variables.
///
/// Clauses are plain literal vectors; no normalisation is enforced beyond
/// what [`Cnf::add_clause`] provides (it drops duplicate literals and
/// detects tautologies).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Vec<CnfLit>>,
}

impl Cnf {
    /// An empty formula over zero variables.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates one fresh variable and returns its index.
    pub fn fresh_var(&mut self) -> u32 {
        self.num_vars += 1;
        self.num_vars
    }

    /// Ensures at least `n` variables exist.
    pub fn ensure_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses.
    #[inline]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses of the formula.
    #[inline]
    pub fn clauses(&self) -> &[Vec<CnfLit>] {
        &self.clauses
    }

    /// Adds a clause; duplicate literals are removed, tautological clauses
    /// (containing `x` and `!x`) are silently dropped.
    ///
    /// Registers any variables the clause mentions.
    pub fn add_clause(&mut self, mut lits: Vec<CnfLit>) {
        lits.sort_unstable();
        lits.dedup();
        for w in lits.windows(2) {
            if w[0] == !w[1] {
                return; // tautology
            }
        }
        for l in &lits {
            self.num_vars = self.num_vars.max(l.var());
        }
        self.clauses.push(lits);
    }

    /// Adds a unit clause.
    pub fn add_unit(&mut self, lit: CnfLit) {
        self.add_clause(vec![lit]);
    }

    /// Evaluates the formula on a full assignment (`assignment[v-1]` is the
    /// value of variable `v`).
    ///
    /// # Panics
    /// Panics if the assignment is shorter than `num_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.num_vars as usize,
            "assignment too short"
        );
        self.clauses.iter().all(|c| {
            c.iter()
                .any(|l| assignment[(l.var() - 1) as usize] == l.is_positive())
        })
    }
}

impl Extend<Vec<CnfLit>> for Cnf {
    fn extend<T: IntoIterator<Item = Vec<CnfLit>>>(&mut self, iter: T) {
        for c in iter {
            self.add_clause(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_roundtrip() {
        let l = CnfLit::from_dimacs(-7);
        assert_eq!(l.var(), 7);
        assert!(!l.is_positive());
        assert_eq!(!l, CnfLit::pos(7));
    }

    #[test]
    fn tautologies_dropped() {
        let mut f = Cnf::new();
        f.add_clause(vec![CnfLit::pos(1), CnfLit::neg(1)]);
        assert_eq!(f.num_clauses(), 0);
        f.add_clause(vec![CnfLit::pos(1), CnfLit::pos(1), CnfLit::neg(2)]);
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.clauses()[0].len(), 2, "duplicates removed");
        assert_eq!(f.num_vars(), 2);
    }

    #[test]
    fn eval_simple() {
        let mut f = Cnf::new();
        f.add_clause(vec![CnfLit::pos(1), CnfLit::pos(2)]);
        f.add_unit(CnfLit::neg(1));
        assert!(f.eval(&[false, true]));
        assert!(!f.eval(&[true, true]));
        assert!(!f.eval(&[false, false]));
    }

    #[test]
    fn fresh_vars_monotone() {
        let mut f = Cnf::new();
        let a = f.fresh_var();
        let b = f.fresh_var();
        assert_eq!((a, b), (1, 2));
        f.ensure_vars(10);
        assert_eq!(f.fresh_var(), 11);
    }
}
