//! Algebraic factoring of ISOP covers — the classic `refactor` generator.
//!
//! Following Brayton's decomposition/factorisation line (the paper's
//! `refactor` citation), a sum-of-products cover is turned into a factored
//! form by *literal division*: pick the most frequent literal `l`, split the
//! cover into `l · Q + R`, and recurse. The factored form is then emitted
//! as an AND/OR structure via [`StructBuilder`].
//!
//! [`best_structure`] combines this generator with the decomposition engine
//! of [`crate::dsd`] and returns the smaller result — our stand-in for the
//! pre-computed optimal structures of ABC's rewriting library.

use crate::builder::{sig_not, Sig, StructBuilder, SIG_FALSE, SIG_TRUE};
use aig::{Cube, GateList, Tt};

/// Synthesises a structure for `f` via algebraic factoring of its ISOP.
///
/// Both `f` and `!f` are factored; the smaller structure (complemented back
/// if needed) wins.
pub fn factor(f: &Tt) -> GateList {
    let mut cover = Vec::new();
    f.isop_into(false, &mut cover);
    let pos = factor_cover(f.nvars(), &cover);
    cover.clear();
    f.isop_into(true, &mut cover);
    let neg = factor_cover(f.nvars(), &cover);
    if pos.size() <= neg.size() {
        pos
    } else {
        GateList {
            root: flip_root(neg.root),
            ..neg
        }
    }
}

fn flip_root(root: Sig) -> Sig {
    sig_not(root)
}

fn factor_cover(nvars: usize, cover: &[Cube]) -> GateList {
    let mut b = StructBuilder::new(nvars);
    let root = factor_rec(cover, &mut b);
    b.finish(root)
}

fn factor_rec(cover: &[Cube], b: &mut StructBuilder) -> Sig {
    if cover.is_empty() {
        return SIG_FALSE;
    }
    if cover.iter().any(|c| c.mask == 0) {
        return SIG_TRUE; // tautology cube
    }
    if cover.len() == 1 {
        return build_cube(&cover[0], b);
    }
    // Most frequent literal over the cover.
    let (var, positive) = most_frequent_literal(cover);
    let mut quotient = Vec::new();
    let mut remainder = Vec::new();
    let bit = 1u32 << var;
    for c in cover {
        if c.mask & bit != 0 && (c.vals & bit != 0) == positive {
            let mut q = *c;
            q.mask &= !bit;
            q.vals &= !bit;
            quotient.push(q);
        } else {
            remainder.push(*c);
        }
    }
    debug_assert!(!quotient.is_empty());
    let q_sig = factor_rec(&quotient, b);
    let lit_sig = if positive {
        b.leaf(var)
    } else {
        sig_not(b.leaf(var))
    };
    let lhs = b.and(lit_sig, q_sig);
    if remainder.is_empty() {
        lhs
    } else {
        let r_sig = factor_rec(&remainder, b);
        b.or(lhs, r_sig)
    }
}

fn build_cube(c: &Cube, b: &mut StructBuilder) -> Sig {
    let mut acc = SIG_TRUE;
    for (v, pos) in c.lits() {
        let l = if pos { b.leaf(v) } else { sig_not(b.leaf(v)) };
        acc = b.and(acc, l);
    }
    acc
}

fn most_frequent_literal(cover: &[Cube]) -> (usize, bool) {
    // Literal counts in one pass over the cubes' literals.
    let (mut pos, mut neg) = ([0usize; 32], [0usize; 32]);
    for c in cover {
        let mut lits = c.mask;
        while lits != 0 {
            let v = lits.trailing_zeros() as usize;
            lits &= lits - 1;
            if c.vals >> v & 1 != 0 {
                pos[v] += 1;
            } else {
                neg[v] += 1;
            }
        }
    }
    // Ties go to the lowest variable, positive literal first.
    let mut best = (0usize, true);
    let mut best_count = 0usize;
    for v in 0..32 {
        if pos[v] > best_count {
            best_count = pos[v];
            best = (v, true);
        }
        if neg[v] > best_count {
            best_count = neg[v];
            best = (v, false);
        }
    }
    debug_assert!(best_count > 0, "cover with no literals");
    best
}

/// The best structure we can synthesise for `f`: the smaller of the
/// decomposition-based and factoring-based results.
pub fn best_structure(f: &Tt) -> GateList {
    let d = crate::dsd::decompose(f);
    let a = factor(f);
    if d.size() <= a.size() {
        d
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsd::gatelist_tt;

    #[test]
    fn all_3var_functions_roundtrip() {
        for bits in 0..256u64 {
            let f = Tt::from_u64(3, bits);
            let gl = factor(&f);
            assert_eq!(gatelist_tt(&gl), f, "bits={bits:#x}");
        }
    }

    #[test]
    fn random_roundtrip_4_to_8() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for n in 4..=8usize {
            for _ in 0..20 {
                let words = (0..(if n <= 6 { 1 } else { 1 << (n - 6) }))
                    .map(|_| rng.gen())
                    .collect();
                let f = Tt::from_words(n, words);
                let gl = factor(&f);
                assert_eq!(gatelist_tt(&gl), f, "n={n}");
            }
        }
    }

    #[test]
    fn sop_friendly_functions_factor_well() {
        // f = a·b + a·c + a·d factors as a·(b + c + d): 3 gates.
        let n = 4;
        let a = Tt::var(n, 0);
        let f = (&(&a & &Tt::var(n, 1)) | &(&a & &Tt::var(n, 2))) | (&a & &Tt::var(n, 3));
        let gl = factor(&f);
        assert_eq!(gatelist_tt(&gl), f);
        assert!(
            gl.size() <= 3,
            "kernel extraction expected, got {}",
            gl.size()
        );
    }

    #[test]
    fn best_structure_roundtrips_and_is_minimal_of_both() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        for _ in 0..50 {
            let f = Tt::from_u64(4, rng.gen::<u64>() & 0xFFFF);
            let b = best_structure(&f);
            assert_eq!(gatelist_tt(&b), f);
            assert!(b.size() <= crate::dsd::decompose(&f).size());
            assert!(b.size() <= factor(&f).size());
        }
    }

    #[test]
    fn constants_and_literals() {
        assert_eq!(factor(&Tt::zero(3)).size(), 0);
        assert_eq!(factor(&Tt::one(3)).size(), 0);
        let f = !Tt::var(3, 1);
        let gl = factor(&f);
        assert_eq!(gl.size(), 0);
        assert_eq!(gatelist_tt(&gl), f);
    }
}
