//! Simulation-signature equivalence classes.
//!
//! Nodes whose signatures agree on every simulated pattern — directly or
//! complemented — are *candidates* for functional equivalence. Grouping is
//! done on a phase-canonical form of the signature (complemented so that
//! pattern 0 evaluates to `false`), which makes `f` and `¬f` land in the
//! same bucket.
//!
//! Signatures are read in place from the strided [`SimVectors`] matrix:
//! members are bucketed by a 64-bit hash of the canonical row and
//! confirmed by a word-for-word comparison against the class
//! representative, so classification allocates nothing per node.

use aig::hash::FastMap;
use aig::sim::SimVectors;
use aig::Var;

/// One node inside a candidate class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassMember {
    /// The node.
    pub var: Var,
    /// `true` if the node's signature was complemented to reach the
    /// class-canonical phase; two members `a`, `b` are candidates for
    /// `a ≡ b ⊕ (phase_a ^ phase_b)`.
    pub phase: bool,
}

/// Candidate equivalence classes over simulation signatures.
///
/// Only classes with at least two members are kept — singletons cannot
/// yield a merge.
#[derive(Clone, Debug, Default)]
pub struct SigClasses {
    classes: Vec<Vec<ClassMember>>,
}

impl SigClasses {
    /// The classes, each sorted by variable (topological) order.
    pub fn classes(&self) -> &[Vec<ClassMember>] {
        &self.classes
    }

    /// Number of non-singleton classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if no candidate pair exists.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Phase mask: all-ones when the row must be complemented to canonical
/// form (its pattern-0 bit is set).
#[inline]
fn canon_mask(phase: bool) -> u64 {
    if phase {
        !0
    } else {
        0
    }
}

/// FxHash-style fold of a canonical row, without materialising it.
#[inline]
fn canon_hash(row: &[u64], mask: u64) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    row.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ (w ^ mask)).wrapping_mul(SEED)
    })
}

/// True when the canonical rows of `a` and `b` are identical.
#[inline]
fn canon_rows_equal(sigs: &SimVectors, a: ClassMember, b: ClassMember) -> bool {
    let diff = canon_mask(a.phase != b.phase);
    sigs.row(a.var as usize)
        .iter()
        .zip(sigs.row(b.var as usize))
        .all(|(&wa, &wb)| wa ^ wb == diff)
}

/// Groups `members` into candidate classes by phase-canonical signature.
///
/// `sigs` must hold one row per node (`sigs.row(v)` = simulation words of
/// node `v`). Members are kept in the order given, so passing variables in
/// ascending order makes the first member of each class the topologically
/// earliest — the natural merge representative.
pub fn candidate_classes<I>(sigs: &SimVectors, members: I) -> SigClasses
where
    I: IntoIterator<Item = Var>,
{
    // hash of canonical row -> indices of classes whose representative has
    // that hash (collisions resolved by direct row comparison).
    let mut buckets: FastMap<u64, Vec<usize>> = FastMap::default();
    let mut classes: Vec<Vec<ClassMember>> = Vec::new();
    for var in members {
        let row = sigs.row(var as usize);
        let phase = row.first().is_some_and(|w| w & 1 != 0);
        let member = ClassMember { var, phase };
        let h = canon_hash(row, canon_mask(phase));
        let bucket = buckets.entry(h).or_default();
        match bucket
            .iter()
            .find(|&&ci| canon_rows_equal(sigs, classes[ci][0], member))
        {
            Some(&ci) => classes[ci].push(member),
            None => {
                bucket.push(classes.len());
                classes.push(vec![member]);
            }
        }
    }
    classes.retain(|c| c.len() >= 2);
    SigClasses { classes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a SimVectors row-per-node matrix from explicit rows.
    fn sv(rows: &[Vec<u64>]) -> SimVectors {
        let n_words = rows[0].len();
        let mut m = SimVectors::zero(rows.len(), n_words);
        for (r, row) in rows.iter().enumerate() {
            m.row_mut(r).copy_from_slice(row);
        }
        m
    }

    #[test]
    fn complemented_signatures_share_a_class() {
        // Node 1: 0b0110..., node 2: 0b1001... (complement), node 3 distinct.
        let sigs = sv(&[
            vec![0u64],        // constant node
            vec![0x6666_u64],  // f
            vec![!0x6666_u64], // ¬f
            vec![0x1234_u64],  // unrelated
        ]);
        let classes = candidate_classes(&sigs, [1, 2, 3]);
        assert_eq!(classes.len(), 1);
        let c = &classes.classes()[0];
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].var, 1);
        assert_eq!(c[1].var, 2);
        // 0x6666 has bit0 = 0 -> phase false; complement has bit0 = 1.
        assert!(!c[0].phase);
        assert!(c[1].phase);
    }

    #[test]
    fn singletons_are_dropped() {
        let sigs = sv(&[vec![0u64], vec![1u64], vec![2u64]]);
        let classes = candidate_classes(&sigs, [1, 2]);
        // 1 = 0b01 (bit0 set -> canon !1), 2 = 0b10 (canon 2): distinct.
        assert!(classes.is_empty());
    }

    #[test]
    fn constant_class_includes_all_zero_and_all_one() {
        let sigs = sv(&[
            vec![0u64, 0u64],   // constant false (node 0)
            vec![!0u64, !0u64], // always true
            vec![0u64, 0u64],   // always false
        ]);
        let classes = candidate_classes(&sigs, [0, 1, 2]);
        assert_eq!(classes.len(), 1);
        let c = &classes.classes()[0];
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].var, 0);
        assert!(
            c[1].phase,
            "all-ones node is the complement of constant false"
        );
        assert!(!c[2].phase);
    }

    #[test]
    fn multiword_classes_require_full_row_agreement() {
        // Rows agree on word 0 but differ on word 1: not candidates.
        let sigs = sv(&[
            vec![0u64, 0u64],
            vec![0xAAAA, 0x1111],
            vec![0xAAAA, 0x2222],
            vec![0xAAAA, 0x1111],
        ]);
        let classes = candidate_classes(&sigs, [1, 2, 3]);
        assert_eq!(classes.len(), 1);
        let c = &classes.classes()[0];
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].var, c[1].var), (1, 3));
    }
}
