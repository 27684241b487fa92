//! Algebraic factoring of ISOP covers — the classic `refactor` generator.
//!
//! Following Brayton's decomposition/factorisation line (the paper's
//! `refactor` citation), a sum-of-products cover is turned into a factored
//! form by *literal division*: pick the most frequent literal `l`, split the
//! cover into `l · Q + R`, and recurse. The factored form is then emitted
//! as an AND/OR structure via [`StructBuilder`]. The recursion partitions
//! cubes inside one arena: each level appends its quotient and remainder,
//! each in cover order, past the end of one vector of cubes and truncates
//! them on return.
//!
//! [`best_structure`] combines this generator with the decomposition engine
//! of [`crate::dsd`] and returns the smaller result — our stand-in for the
//! pre-computed optimal structures of ABC's rewriting library. The tests
//! require both engines to return the gate lists of full-table reference
//! generators kept in the test tree (`oracle.rs`).

use crate::builder::{sig_not, Sig, StructBuilder, SIG_FALSE, SIG_TRUE};
use aig::{Cube, GateList, Tt};

/// Synthesises a structure for `f` via algebraic factoring of its ISOP.
///
/// Both `f` and `!f` are factored; the smaller structure (complemented back
/// if needed) wins.
pub fn factor(f: &Tt) -> GateList {
    let mut cubes = Vec::new();
    f.isop_into(false, &mut cubes);
    let pos = factor_cover(f.nvars(), &mut cubes);
    cubes.clear();
    f.isop_into(true, &mut cubes);
    let neg = factor_cover(f.nvars(), &mut cubes);
    if pos.size() <= neg.size() {
        pos
    } else {
        GateList {
            root: sig_not(neg.root),
            ..neg
        }
    }
}

/// Factors the cover `cubes` holds. The vector is the arena of the
/// recursion: each level appends its quotient and remainder and truncates
/// them on return.
fn factor_cover(nvars: usize, cubes: &mut Vec<Cube>) -> GateList {
    let mut b = StructBuilder::new(nvars);
    let root = factor_rec(cubes, 0, cubes.len(), &mut b);
    b.finish(root)
}

/// Factors the cover `arena[lo..hi]`.
fn factor_rec(arena: &mut Vec<Cube>, lo: usize, hi: usize, b: &mut StructBuilder) -> Sig {
    let cover = &arena[lo..hi];
    if cover.is_empty() {
        return SIG_FALSE;
    }
    if cover.iter().any(|c| c.mask == 0) {
        return SIG_TRUE; // tautology cube
    }
    if cover.len() == 1 {
        return build_cube(&cover[0], b);
    }
    // Divide by the most frequent literal: the quotient (the cubes with
    // the literal, which they drop) then the remainder, each in cover
    // order, past the end of the arena.
    let (var, positive) = most_frequent_literal(cover);
    let bit = 1u32 << var;
    let has_lit = |c: &Cube| c.mask & bit != 0 && (c.vals & bit != 0) == positive;
    let top = arena.len();
    for i in lo..hi {
        let c = arena[i];
        if has_lit(&c) {
            arena.push(Cube {
                mask: c.mask & !bit,
                vals: c.vals & !bit,
            });
        }
    }
    let mid = arena.len();
    for i in lo..hi {
        let c = arena[i];
        if !has_lit(&c) {
            arena.push(c);
        }
    }
    let end = arena.len();
    debug_assert!(mid > top);
    let q_sig = factor_rec(arena, top, mid, b);
    let lit_sig = if positive {
        b.leaf(var)
    } else {
        sig_not(b.leaf(var))
    };
    let lhs = b.and(lit_sig, q_sig);
    let s = if mid == end {
        lhs
    } else {
        let r_sig = factor_rec(arena, mid, end, b);
        b.or(lhs, r_sig)
    };
    arena.truncate(top);
    s
}

fn build_cube(c: &Cube, b: &mut StructBuilder) -> Sig {
    let mut acc = SIG_TRUE;
    let mut lits = c.mask;
    while lits != 0 {
        let v = lits.trailing_zeros() as usize;
        lits &= lits - 1;
        let l = b.leaf(v);
        acc = b.and(acc, if c.vals >> v & 1 != 0 { l } else { sig_not(l) });
    }
    acc
}

fn most_frequent_literal(cover: &[Cube]) -> (usize, bool) {
    // Literal counts in one pass over the cubes' literals.
    let (mut pos, mut neg) = ([0u32; 32], [0u32; 32]);
    let mut present = 0u32;
    for c in cover {
        present |= c.mask;
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
    let mut best_count = 0;
    while present != 0 {
        let v = present.trailing_zeros() as usize;
        present &= present - 1;
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
