//! Truth-table resynthesis: decomposition-based structure generation.
//!
//! Converts an arbitrary function (as a [`Tt`]) into a compact [`GateList`].
//! The recursion tries, in order: constants, single literals, top-level
//! AND/OR/XOR decompositions on each support variable, and finally a Shannon
//! expansion (MUX) on the most binate variable, memoising sub-functions so
//! shared cofactors become shared gates.
//!
//! Every sub-function is first reduced to its exact support: a table over
//! its `k` support variables (one word up to six, the `2^k` valid bits
//! repeated across it; `2^(k-6)` words above) plus the mask of their
//! original indices. The tables of the current recursion path and the
//! cofactors being tried live in one word arena per call, and a cofactor
//! drops its variable by halving the word list (variables from 6 up) or by
//! compacting the bits of each word (variables below 6). The memo is keyed
//! by (support mask, reduced table), which determines the full table and is
//! determined by it, and the cofactor distances of one sub-function all
//! scale by the same power of two; so memo hits, the XOR test, the most
//! binate variable, and with them the builder calls and the structure, are
//! those of the recursion over full tables (kept in the test tree as the
//! oracle).
//!
//! Together with the algebraic factoring of [`crate::factor`], this is the
//! structure generator behind the NPN rewriting library and refactoring.

use crate::builder::{sig_not, Sig, StructBuilder, SIG_FALSE, SIG_TRUE};
use aig::hash::FastHasher;
use aig::{GateList, Tt};
use std::hash::Hasher;

/// Patterns of the first six variables within one word.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Synthesises a gate structure for `f` by recursive decomposition.
///
/// The structure has `f.nvars()` leaves; leaves outside the support are
/// simply unused.
pub fn decompose(f: &Tt) -> GateList {
    let n = f.nvars();
    let mut b = StructBuilder::new(n);
    let mut dsd = Dsd::default();
    if n < 6 {
        let mut w = f.words()[0];
        for k in n..6 {
            w |= w << (1 << k);
        }
        dsd.arena.push(w);
    } else {
        dsd.arena.extend_from_slice(f.words());
    }
    let root = dsd.build(((1u64 << n) - 1) as u32, 0, &mut b);
    b.finish(root)
}

/// Words of a table over `k` variables.
fn words(k: usize) -> usize {
    1 << k.saturating_sub(6)
}

/// One call's tables and memo.
#[derive(Default)]
struct Dsd {
    /// The tables of the sub-functions on the recursion path, each
    /// followed by the cofactors being tried.
    arena: Vec<u64>,
    memo: Memo,
}

impl Dsd {
    /// Builds the function whose table starts at `arena[at]`, over the
    /// variables of `mask`: local variable `i` is the `i`-th lowest one.
    /// The arena past the table is scratch.
    fn build(&mut self, mut mask: u32, at: usize, b: &mut StructBuilder) -> Sig {
        let mut k = mask.count_ones() as usize;
        self.arena.truncate(at + words(k));
        let t = &self.arena[at..];
        if t.iter().all(|&w| w == 0) {
            return SIG_FALSE;
        }
        if t.iter().all(|&w| w == u64::MAX) {
            return SIG_TRUE;
        }
        // Drop the variables the function ignores, topmost first, so the
        // local indices below stay put.
        for i in (0..k).rev() {
            if !has_var(&self.arena[at..], i) {
                cofactor(&mut self.arena, at, at, k, i, false);
                mask &= !(1 << nth_var(mask, i));
                k -= 1;
                self.arena.truncate(at + words(k));
            }
        }
        let t = &self.arena[at..];
        if let Some(s) = self.memo.get(mask, t, 0) {
            return s;
        }
        if let Some(s) = self.memo.get(mask, t, u64::MAX) {
            return sig_not(s);
        }
        if k == 1 {
            let lv = b.leaf(mask.trailing_zeros() as usize);
            let s = if t[0] & 2 != 0 { lv } else { sig_not(lv) };
            self.memo.insert(mask, t, s);
            return s;
        }

        // Top decomposition on each support variable. The cofactors'
        // Hamming distance identifies an XOR here (all bits differ) and
        // picks the Shannon variable below.
        let (top, half) = (at + words(k), words(k - 1));
        let mut most_binate: Option<(u32, usize)> = None;
        for i in 0..k {
            let v = nth_var(mask, i);
            self.arena.resize(top + 2 * half, 0);
            cofactor(&mut self.arena, at, top, k, i, false);
            cofactor(&mut self.arena, at, top + half, k, i, true);
            let (c0, c1) = self.arena[top..].split_at(half);
            let distance: u32 = c0.iter().zip(c1).map(|(a, b)| (a ^ b).count_ones()).sum();
            let zero = |c: &[u64]| c.iter().all(|&w| w == 0);
            let one = |c: &[u64]| c.iter().all(|&w| w == u64::MAX);
            let (zero0, zero1, one0, one1) = (zero(c0), zero(c1), one(c0), one(c1));
            let (sub, lv) = (mask & !(1 << v), b.leaf(v));
            let s = if zero0 {
                // f = v & c1
                let inner = self.build(sub, top + half, b);
                Some(b.and(lv, inner))
            } else if zero1 {
                // f = !v & c0
                let inner = self.build(sub, top, b);
                Some(b.and(sig_not(lv), inner))
            } else if one0 {
                // f = !v | c1
                let inner = self.build(sub, top + half, b);
                Some(b.or(sig_not(lv), inner))
            } else if one1 {
                // f = v | c0
                let inner = self.build(sub, top, b);
                Some(b.or(lv, inner))
            } else if distance == 64 * half as u32 {
                // c0 == !c1: f = v ^ c0
                let inner = self.build(sub, top, b);
                Some(b.xor(lv, inner))
            } else {
                None
            };
            if let Some(s) = s {
                self.memo.insert(mask, &self.arena[at..top], s);
                return s;
            }
            // The last variable of largest distance wins ties.
            if most_binate.is_none_or(|(d, _)| distance >= d) {
                most_binate = Some((distance, i));
            }
        }

        // Shannon expansion on the most binate variable.
        let (_, i) = most_binate.expect("non-empty support");
        let v = nth_var(mask, i);
        let sub = mask & !(1 << v);
        self.arena.resize(top + half, 0);
        cofactor(&mut self.arena, at, top, k, i, false);
        let s0 = self.build(sub, top, b);
        self.arena.resize(top + half, 0);
        cofactor(&mut self.arena, at, top, k, i, true);
        let s1 = self.build(sub, top, b);
        let lv = b.leaf(v);
        let s = b.mux(lv, s1, s0);
        self.memo.insert(mask, &self.arena[at..top], s);
        s
    }
}

/// The original index of local variable `i`: the `i`-th lowest bit of
/// `mask`.
fn nth_var(mut mask: u32, i: usize) -> usize {
    for _ in 0..i {
        mask &= mask - 1;
    }
    mask.trailing_zeros() as usize
}

/// True if the table `t` depends on its local variable `i`.
fn has_var(t: &[u64], i: usize) -> bool {
    if i < 6 {
        t.iter().any(|&w| (w ^ w >> (1 << i)) & !VAR_MASKS[i] != 0)
    } else {
        let s = 1 << (i - 6);
        t.chunks_exact(2 * s).any(|c| c[..s] != c[s..])
    }
}

/// Writes the cofactor `x_i = c` of the `k`-variable table at `t[src..]`
/// to `t[dst..]`, as a table over the other `k - 1` variables. Each word
/// is read before any word at or past it is written, so `dst` may be
/// `src`; otherwise it must lie past the source table.
fn cofactor(t: &mut [u64], src: usize, dst: usize, k: usize, i: usize, c: bool) {
    if k <= 6 {
        let w = compact(t[src], i, c);
        t[dst] = w | w << 32;
    } else if i < 6 {
        for j in 0..words(k) / 2 {
            t[dst + j] = compact(t[src + 2 * j], i, c) | compact(t[src + 2 * j + 1], i, c) << 32;
        }
    } else {
        let s = 1 << (i - 6);
        for j in 0..words(k) / 2 {
            t[dst + j] = t[src + (j / s * 2 + c as usize) * s + j % s];
        }
    }
}

/// The 32 bits of `w` where variable `i < 6` is `c`, in order, in the low
/// half: the cofactor as a table over the other five variables.
fn compact(w: u64, i: usize, c: bool) -> u64 {
    let mut x = if c {
        (w & VAR_MASKS[i]) >> (1 << i)
    } else {
        w & !VAR_MASKS[i]
    };
    for j in i..5 {
        x = (x | x >> (1 << j)) & !VAR_MASKS[j + 1];
    }
    x
}

/// The sub-functions one call has built, keyed by support mask and
/// reduced table: open addressing over entries whose tables sit in one
/// word arena.
#[derive(Default)]
struct Memo {
    /// Entry index + 1 per slot, 0 when the slot is empty; a power of two
    /// at least twice the number of entries.
    slots: Vec<u32>,
    /// Support mask, start of the table in `words`, and signal per entry.
    entries: Vec<(u32, usize, Sig)>,
    words: Vec<u64>,
}

impl Memo {
    /// The slot where the probe for table `t ^ flip` over `mask` starts.
    fn home(&self, mask: u32, t: &[u64], flip: u64) -> usize {
        let mut h = FastHasher::default();
        h.write_u32(mask);
        for &w in t {
            h.write_u64(w ^ flip);
        }
        // The multiply carries upwards: the top bits are the mixed ones.
        (h.finish() >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The signal of the function over `mask` whose table is `t ^ flip`.
    fn get(&self, mask: u32, t: &[u64], flip: u64) -> Option<Sig> {
        if self.slots.is_empty() {
            return None;
        }
        let mut slot = self.home(mask, t, flip);
        loop {
            let e = self.slots[slot].checked_sub(1)? as usize;
            let (m, start, s) = self.entries[e];
            let stored = &self.words[start..];
            if m == mask && t.iter().zip(stored).all(|(&a, &b)| a ^ flip == b) {
                return Some(s);
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }

    /// Records `s` as the signal of the function over `mask` with table
    /// `t` (which is not in the memo yet).
    fn insert(&mut self, mask: u32, t: &[u64], s: Sig) {
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            for e in 0..self.entries.len() {
                self.place(e);
            }
        }
        self.entries.push((mask, self.words.len(), s));
        self.words.extend_from_slice(t);
        self.place(self.entries.len() - 1);
    }

    /// Puts entry `e` into the first free slot of its probe sequence.
    fn place(&mut self, e: usize) {
        let (mask, start, _) = self.entries[e];
        let len = words(mask.count_ones() as usize);
        let mut slot = self.home(mask, &self.words[start..start + len], 0);
        while self.slots[slot] != 0 {
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        self.slots[slot] = e as u32 + 1;
    }
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
