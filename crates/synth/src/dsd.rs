//! Truth-table resynthesis: decomposition-based structure generation.
//!
//! Converts an arbitrary function (as a [`Tt`]) into a compact [`GateList`].
//! The recursion tries, in order: constants, single literals, top-level
//! AND/OR/XOR decompositions on each support variable, and finally a Shannon
//! expansion (MUX) on the most binate variable, memoising sub-functions so
//! shared cofactors become shared gates.
//!
//! Together with the algebraic factoring of [`crate::factor`], this is the
//! structure generator behind the NPN rewriting library and refactoring.

use crate::builder::{sig_not, Sig, StructBuilder, SIG_FALSE, SIG_TRUE};
use aig::hash::FastMap;
use aig::{GateList, Tt};

/// Synthesises a gate structure for `f` by recursive decomposition.
///
/// The structure has `f.nvars()` leaves; leaves outside the support are
/// simply unused.
pub fn decompose(f: &Tt) -> GateList {
    let mut b = StructBuilder::new(f.nvars());
    let mut memo: FastMap<Tt, Sig> = FastMap::default();
    let root = decompose_rec(f, &mut b, &mut memo);
    b.finish(root)
}

fn decompose_rec(f: &Tt, b: &mut StructBuilder, memo: &mut FastMap<Tt, Sig>) -> Sig {
    if f.is_zero() {
        return SIG_FALSE;
    }
    if f.is_one() {
        return SIG_TRUE;
    }
    if let Some(&s) = memo.get(f) {
        return s;
    }
    let nf = !f;
    if let Some(&s) = memo.get(&nf) {
        return sig_not(s);
    }

    let sup = f.support();
    debug_assert!(!sup.is_empty());
    // Single literal?
    if sup.len() == 1 {
        let v = sup[0];
        let s = if f.bit(1 << v) {
            b.leaf(v)
        } else {
            sig_not(b.leaf(v))
        };
        memo.insert(f.clone(), s);
        return s;
    }

    // Top decomposition on each support variable. The cofactors' Hamming
    // distance (the minterms where they differ) identifies an XOR here and
    // picks the Shannon variable below.
    let mut most_binate: Option<(u64, usize)> = None;
    for &v in &sup {
        let c0 = f.cofactor0(v);
        let c1 = f.cofactor1(v);
        let distance: u64 = c0
            .words()
            .iter()
            .zip(c1.words())
            .map(|(a, b)| (a ^ b).count_ones() as u64)
            .sum();
        let lv = b.leaf(v);
        let s = if c0.is_zero() {
            // f = v & c1
            let inner = decompose_rec(&c1, b, memo);
            Some(b.and(lv, inner))
        } else if c1.is_zero() {
            // f = !v & c0
            let inner = decompose_rec(&c0, b, memo);
            Some(b.and(sig_not(lv), inner))
        } else if c0.is_one() {
            // f = !v | c1
            let inner = decompose_rec(&c1, b, memo);
            Some(b.or(sig_not(lv), inner))
        } else if c1.is_one() {
            // f = v | c0
            let inner = decompose_rec(&c0, b, memo);
            Some(b.or(lv, inner))
        } else if distance == 1 << f.nvars() {
            // c0 == !c1: f = v ^ c0
            let inner = decompose_rec(&c0, b, memo);
            Some(b.xor(lv, inner))
        } else {
            None
        };
        if let Some(s) = s {
            memo.insert(f.clone(), s);
            return s;
        }
        // The last variable of largest distance wins ties.
        if most_binate.is_none_or(|(d, _)| distance >= d) {
            most_binate = Some((distance, v));
        }
    }

    // Shannon expansion on the most binate variable (largest on-set change).
    let (_, v) = most_binate.expect("non-empty support");
    let c0 = f.cofactor0(v);
    let c1 = f.cofactor1(v);
    let s0 = decompose_rec(&c0, b, memo);
    let s1 = decompose_rec(&c1, b, memo);
    let lv = b.leaf(v);
    let s = b.mux(lv, s1, s0);
    memo.insert(f.clone(), s);
    s
}

/// Evaluates a gate structure on Boolean leaf values (reference semantics,
/// shared by the test-suites of this crate).
pub fn eval_gatelist(gl: &GateList, leaves: &[bool]) -> bool {
    assert_eq!(leaves.len(), gl.n_leaves, "leaf count mismatch");
    let mut vals: Vec<bool> = leaves.to_vec();
    let dec = |vals: &[bool], s: Sig| -> bool {
        match s {
            SIG_FALSE => false,
            SIG_TRUE => true,
            _ => vals[(s >> 1) as usize] ^ (s & 1 != 0),
        }
    };
    for &(a, bb) in &gl.gates {
        let v = dec(&vals, a) & dec(&vals, bb);
        vals.push(v);
    }
    dec(&vals, gl.root)
}

/// The truth table computed by a gate structure (for verification).
pub fn gatelist_tt(gl: &GateList) -> Tt {
    let n = gl.n_leaves;
    let mut out = Tt::zero(n);
    for m in 0..(1usize << n) {
        let leaves: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
        if eval_gatelist(gl, &leaves) {
            out.set_bit(m, true);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_3var_functions_roundtrip() {
        for bits in 0..256u64 {
            let f = Tt::from_u64(3, bits);
            let gl = decompose(&f);
            assert_eq!(gatelist_tt(&gl), f, "bits={bits:#x}");
        }
    }

    #[test]
    fn random_4_to_8_var_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for n in 4..=8usize {
            for _ in 0..25 {
                let words = (0..(if n <= 6 { 1 } else { 1 << (n - 6) }))
                    .map(|_| rng.gen())
                    .collect();
                let f = Tt::from_words(n, words);
                let gl = decompose(&f);
                assert_eq!(gatelist_tt(&gl), f, "n={n}");
            }
        }
    }

    #[test]
    fn and_gate_costs_one() {
        let f = Tt::var(2, 0) & Tt::var(2, 1);
        assert_eq!(decompose(&f).size(), 1);
    }

    #[test]
    fn xor_gate_costs_three() {
        let f = Tt::var(2, 0) ^ Tt::var(2, 1);
        assert_eq!(decompose(&f).size(), 3);
    }

    #[test]
    fn constants_cost_zero() {
        assert_eq!(decompose(&Tt::zero(4)).size(), 0);
        assert_eq!(decompose(&Tt::one(4)).size(), 0);
        assert_eq!(decompose(&Tt::var(4, 2)).size(), 0);
    }

    #[test]
    fn shared_cofactors_are_shared_gates() {
        // f = (a & b) ^ c, with xor forcing Shannon/xor paths that reuse a&b.
        let ab = Tt::var(3, 0) & Tt::var(3, 1);
        let f = &ab ^ &Tt::var(3, 2);
        let gl = decompose(&f);
        // a&b, then xor with c: 1 + 3 = 4 gates max.
        assert!(gl.size() <= 4, "got {}", gl.size());
        assert_eq!(gatelist_tt(&gl), f);
    }

    #[test]
    fn majority_is_compact() {
        let (a, b, c) = (Tt::var(3, 0), Tt::var(3, 1), Tt::var(3, 2));
        let maj = (&(&a & &b) | &(&b & &c)) | (&a & &c);
        let gl = decompose(&maj);
        assert_eq!(gatelist_tt(&gl), maj);
        assert!(
            gl.size() <= 6,
            "majority should need few gates, got {}",
            gl.size()
        );
    }
}
