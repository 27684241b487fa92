//! Query types and their normalization to a canonical combinational cone.
//!
//! Every query the engine accepts — plain circuit-SAT, logic equivalence
//! checking, bounded model checking — reduces to the same decision problem:
//! *is some primary output of a combinational AIG satisfiable?* Normalization
//! performs that reduction (LEC builds the XOR-OR miter, BMC unrolls the
//! transition relation), then strips every node and PI outside the output
//! cone with [`Aig::normalized_cone`] so that queries differing only in
//! dangling logic share one cache entry, and finally keys the result with
//! [`Aig::structural_hash`].

use aig::seq::SeqAig;
use aig::Aig;
use std::fmt;

/// A decision problem submitted to the engine.
#[derive(Clone, Debug)]
pub enum Query {
    /// Is some primary output of the circuit satisfiable?
    Solve(Aig),
    /// Are the two circuits functionally equivalent?
    /// SAT means *inequivalent* (the miter has a distinguishing input).
    Lec(Aig, Aig),
    /// Can the design reach a state asserting some output within `k`
    /// transitions? SAT means a counterexample trace exists.
    Bmc(SeqAig, usize),
}

/// The flavor of a [`Query`], kept on responses for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Plain circuit satisfiability.
    Solve,
    /// Logic equivalence check.
    Lec,
    /// Bounded model check.
    Bmc,
}

impl QueryKind {
    /// Stable lowercase name used in CLI result lines.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Solve => "solve",
            QueryKind::Lec => "lec",
            QueryKind::Bmc => "bmc",
        }
    }
}

/// Reasons a query is rejected before it ever reaches the queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The instance has no primary outputs, so there is nothing to decide.
    NoOutputs,
    /// The two LEC sides disagree on PI or PO counts.
    ShapeMismatch {
        /// `(PIs, POs)` of the left circuit.
        left: (usize, usize),
        /// `(PIs, POs)` of the right circuit.
        right: (usize, usize),
    },
    /// BMC with a bound of zero frames decides nothing.
    ZeroBound,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoOutputs => write!(f, "instance has no primary outputs"),
            QueryError::ShapeMismatch { left, right } => write!(
                f,
                "LEC shape mismatch: left has {}/{} PIs/POs, right has {}/{}",
                left.0, left.1, right.0, right.1
            ),
            QueryError::ZeroBound => write!(f, "BMC bound must be at least 1"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A query reduced to its canonical cached form: the dangling-free output
/// cone, the mapping from cone PIs back to instance PIs, and the structural
/// hash used as the cache key.
#[derive(Clone, Debug)]
pub struct NormalizedQuery {
    /// What kind of query this cone came from.
    pub kind: QueryKind,
    /// The normalized (PO-cone-only) combinational instance.
    pub cone: Aig,
    /// `pi_map[i]` = instance PI index that cone PI `i` corresponds to.
    pub pi_map: Vec<usize>,
    /// PI count of the original (pre-normalization) instance.
    pub num_instance_pis: usize,
    /// `cone.structural_hash()`, the cache key.
    pub key: u64,
}

impl Query {
    /// The flavor tag of this query.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Solve(_) => QueryKind::Solve,
            Query::Lec(..) => QueryKind::Lec,
            Query::Bmc(..) => QueryKind::Bmc,
        }
    }

    /// Reduces the query to its canonical combinational cone.
    ///
    /// Shape defects (no outputs, mismatched LEC sides, zero BMC bound) are
    /// rejected here, synchronously, so the queue and the workers only ever
    /// see well-formed instances.
    pub fn normalize(&self) -> Result<NormalizedQuery, QueryError> {
        // A solve query's graph is read in place; the others build theirs.
        let built;
        let instance = match self {
            Query::Solve(a) => a,
            Query::Lec(a, b) => {
                if a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos() {
                    return Err(QueryError::ShapeMismatch {
                        left: (a.num_pis(), a.num_pos()),
                        right: (b.num_pis(), b.num_pos()),
                    });
                }
                if a.num_pos() == 0 {
                    return Err(QueryError::NoOutputs);
                }
                built = workloads::lec::miter(a, b);
                &built
            }
            Query::Bmc(m, k) => {
                if *k == 0 {
                    return Err(QueryError::ZeroBound);
                }
                built = m.bmc_instance(*k);
                &built
            }
        };
        if instance.num_pos() == 0 {
            return Err(QueryError::NoOutputs);
        }
        let (cone, pi_map) = instance.normalized_cone();
        let key = cone.structural_hash();
        Ok(NormalizedQuery {
            kind: self.kind(),
            num_instance_pis: instance.num_pis(),
            cone,
            pi_map,
            key,
        })
    }
}

impl NormalizedQuery {
    /// Expands a witness over the cone's PIs back to the instance's full PI
    /// space; PIs outside the cone do not affect the outputs and are
    /// reported as `false`.
    pub fn expand_witness(&self, cone_witness: &[bool]) -> Vec<bool> {
        debug_assert_eq!(cone_witness.len(), self.pi_map.len());
        let mut full = vec![false; self.num_instance_pis];
        for (i, &inst) in self.pi_map.iter().enumerate() {
            full[inst] = cone_witness[i];
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_input_and() -> Aig {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        g
    }

    #[test]
    fn solve_normalizes_to_cone_with_key() {
        let g = two_input_and();
        let n = Query::Solve(g.clone()).normalize().unwrap();
        assert_eq!(n.kind, QueryKind::Solve);
        assert_eq!(n.num_instance_pis, 2);
        assert_eq!(n.pi_map, vec![0, 1]);
        assert!(n.cone.same_structure(&g));
        assert_eq!(n.key, g.structural_hash());
    }

    #[test]
    fn dangling_pi_does_not_change_the_key() {
        let mut g = two_input_and();
        g.add_pi(); // dangling
        let with = Query::Solve(g).normalize().unwrap();
        let without = Query::Solve(two_input_and()).normalize().unwrap();
        assert_eq!(with.key, without.key);
        assert!(with.cone.same_structure(&without.cone));
        // ...but the witness still expands to the instance's PI count.
        assert_eq!(with.expand_witness(&[true, true]), vec![true, true, false]);
    }

    #[test]
    fn lec_shape_mismatch_rejected() {
        let mut a = Aig::new();
        let p = a.add_pi();
        a.add_po(p);
        let b = two_input_and();
        let err = Query::Lec(a, b).normalize().unwrap_err();
        assert!(matches!(err, QueryError::ShapeMismatch { .. }));
    }

    #[test]
    fn no_outputs_rejected() {
        let mut g = Aig::new();
        g.add_pi();
        assert_eq!(
            Query::Solve(g).normalize().unwrap_err(),
            QueryError::NoOutputs
        );
    }

    #[test]
    fn lec_of_equivalent_circuits_keys_identically_regardless_of_side_names() {
        let g = two_input_and();
        let n1 = Query::Lec(g.clone(), g.clone()).normalize().unwrap();
        let n2 = Query::Lec(g.clone(), g).normalize().unwrap();
        assert_eq!(n1.key, n2.key);
        assert_eq!(n1.kind, QueryKind::Lec);
    }
}
