//! Multi-word truth tables and irredundant sum-of-products (ISOP) covers.
//!
//! A [`Tt`] stores the complete function table of an `n`-variable Boolean
//! function as packed 64-bit words, exactly like ABC/mockturtle truth tables:
//! bit `m` of the table is the function value on minterm `m`, and variable
//! `i` of minterm `m` is bit `i` of `m`.
//!
//! The [`Tt::isop`] method computes an irredundant SOP cover with the
//! Minato–Morreale algorithm; the cube counts of `f` and `!f` together form
//! the paper's *branching complexity* metric (Fig. 3) and the clause count of
//! the ISOP-based LUT-to-CNF encoding.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Patterns of the first six elementary variables within a single word.
pub(crate) const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A complete truth table over `nvars` variables.
///
/// ```
/// use aig::Tt;
/// let a = Tt::var(3, 0);
/// let b = Tt::var(3, 1);
/// let c = Tt::var(3, 2);
/// let maj = (a.clone() & b.clone()) | (b.clone() & c.clone()) | (a & c);
/// assert_eq!(maj.count_ones(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tt {
    nvars: usize,
    words: Vec<u64>,
}

fn n_words(nvars: usize) -> usize {
    if nvars <= 6 {
        1
    } else {
        1 << (nvars - 6)
    }
}

/// Mask selecting the valid bits of the (single) word of a small table.
fn word_mask(nvars: usize) -> u64 {
    if nvars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << nvars)) - 1
    }
}

impl Tt {
    /// Maximum supported variable count (table size 2^20 bits = 128 KiB).
    pub const MAX_VARS: usize = 20;

    /// The constant-false table over `nvars` variables.
    ///
    /// # Panics
    /// Panics if `nvars > Tt::MAX_VARS`.
    pub fn zero(nvars: usize) -> Tt {
        assert!(nvars <= Self::MAX_VARS, "too many truth-table variables");
        Tt {
            nvars,
            words: vec![0; n_words(nvars)],
        }
    }

    /// The constant-true table over `nvars` variables.
    pub fn one(nvars: usize) -> Tt {
        let mut t = Tt::zero(nvars);
        for w in &mut t.words {
            *w = u64::MAX;
        }
        t.mask_excess();
        t
    }

    /// The table of elementary variable `i` over `nvars` variables.
    ///
    /// # Panics
    /// Panics if `i >= nvars`.
    pub fn var(nvars: usize, i: usize) -> Tt {
        assert!(i < nvars, "variable index out of range");
        let mut t = Tt::zero(nvars);
        if i < 6 {
            for w in &mut t.words {
                *w = VAR_MASKS[i];
            }
        } else {
            let stride = 1 << (i - 6);
            for (wi, w) in t.words.iter_mut().enumerate() {
                if wi & stride != 0 {
                    *w = u64::MAX;
                }
            }
        }
        t.mask_excess();
        t
    }

    /// Builds a table from raw words (low minterms first).
    ///
    /// # Panics
    /// Panics if `words.len()` does not match `nvars`.
    pub fn from_words(nvars: usize, words: Vec<u64>) -> Tt {
        assert_eq!(words.len(), n_words(nvars), "word count mismatch");
        let mut t = Tt { nvars, words };
        t.mask_excess();
        t
    }

    /// Builds a 4-variable table from its 16-bit encoding.
    pub fn from_u16(bits: u16) -> Tt {
        Tt {
            nvars: 4,
            words: vec![bits as u64],
        }
    }

    /// The 16-bit encoding of a 4-variable table.
    ///
    /// # Panics
    /// Panics if the table does not have exactly four variables.
    pub fn to_u16(&self) -> u16 {
        assert_eq!(self.nvars, 4, "to_u16 requires a 4-variable table");
        (self.words[0] & 0xFFFF) as u16
    }

    /// Builds a table over at most six variables from a single word.
    pub fn from_u64(nvars: usize, bits: u64) -> Tt {
        assert!(nvars <= 6, "from_u64 supports at most 6 variables");
        let mut t = Tt {
            nvars,
            words: vec![bits],
        };
        t.mask_excess();
        t
    }

    /// The single-word encoding of a table over at most six variables.
    pub fn to_u64(&self) -> u64 {
        assert!(self.nvars <= 6, "to_u64 supports at most 6 variables");
        self.words[0]
    }

    /// Number of variables.
    #[inline]
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Raw words of the table.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_excess(&mut self) {
        if self.nvars < 6 {
            self.words[0] &= word_mask(self.nvars);
        }
    }

    /// Value of the function on minterm `m`.
    #[inline]
    pub fn bit(&self, m: usize) -> bool {
        self.words[m >> 6] >> (m & 63) & 1 != 0
    }

    /// Sets the value of the function on minterm `m`.
    #[inline]
    pub fn set_bit(&mut self, m: usize, v: bool) {
        if v {
            self.words[m >> 6] |= 1u64 << (m & 63);
        } else {
            self.words[m >> 6] &= !(1u64 << (m & 63));
        }
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// True if the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if the function is constant true.
    pub fn is_one(&self) -> bool {
        let last_mask = word_mask(self.nvars);
        if self.words.len() == 1 {
            return self.words[0] == last_mask;
        }
        self.words.iter().all(|&w| w == u64::MAX)
    }

    /// Negative cofactor with respect to variable `i` (as a same-size table).
    pub fn cofactor0(&self, i: usize) -> Tt {
        assert!(i < self.nvars);
        let mut t = self.clone();
        if i < 6 {
            let shift = 1 << i;
            let mask = !VAR_MASKS[i];
            for w in &mut t.words {
                let lo = *w & mask;
                *w = lo | lo << shift;
            }
        } else {
            let stride = 1 << (i - 6);
            let n = t.words.len();
            let mut wi = 0;
            while wi < n {
                for k in 0..stride {
                    t.words[wi + stride + k] = t.words[wi + k];
                }
                wi += 2 * stride;
            }
        }
        t.mask_excess();
        t
    }

    /// Positive cofactor with respect to variable `i` (as a same-size table).
    pub fn cofactor1(&self, i: usize) -> Tt {
        assert!(i < self.nvars);
        let mut t = self.clone();
        if i < 6 {
            let shift = 1 << i;
            let mask = VAR_MASKS[i];
            for w in &mut t.words {
                let hi = *w & mask;
                *w = hi | hi >> shift;
            }
        } else {
            let stride = 1 << (i - 6);
            let n = t.words.len();
            let mut wi = 0;
            while wi < n {
                for k in 0..stride {
                    t.words[wi + k] = t.words[wi + stride + k];
                }
                wi += 2 * stride;
            }
        }
        t.mask_excess();
        t
    }

    /// True if the function depends on variable `i` (the two cofactors are
    /// compared in place).
    pub fn has_var(&self, i: usize) -> bool {
        assert!(i < self.nvars);
        words_have_var(&self.words, i)
    }

    /// The set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.nvars).filter(|&i| self.has_var(i)).collect()
    }

    /// Swaps the roles of variables `i` and `j`.
    pub fn swap_vars(&self, i: usize, j: usize) -> Tt {
        if i == j {
            return self.clone();
        }
        self.permute(&identity_swapped(self.nvars, i, j))
    }

    /// Reorders variables: new variable `perm[i]` takes the role of old
    /// variable `i` (i.e. minterm bit `i` moves to bit `perm[i]`).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..nvars`.
    pub fn permute(&self, perm: &[usize]) -> Tt {
        assert_eq!(perm.len(), self.nvars, "permutation length mismatch");
        let mut seen = vec![false; self.nvars];
        for &p in perm {
            assert!(p < self.nvars && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut out = Tt::zero(self.nvars);
        let total = 1usize << self.nvars;
        for m in 0..total {
            if self.bit(m) {
                let mut mm = 0usize;
                for (i, &p) in perm.iter().enumerate() {
                    if m >> i & 1 != 0 {
                        mm |= 1 << p;
                    }
                }
                out.set_bit(mm, true);
            }
        }
        out
    }

    /// Complements the polarity of input variable `i`.
    pub fn flip_var(&self, i: usize) -> Tt {
        assert!(i < self.nvars);
        let mut t = self.clone();
        if i < 6 {
            let shift = 1 << i;
            for w in &mut t.words {
                let hi = *w & VAR_MASKS[i];
                let lo = *w & !VAR_MASKS[i];
                *w = hi >> shift | lo << shift;
            }
        } else {
            let stride = 1 << (i - 6);
            let n = t.words.len();
            let mut wi = 0;
            while wi < n {
                for k in 0..stride {
                    t.words.swap(wi + k, wi + stride + k);
                }
                wi += 2 * stride;
            }
        }
        t
    }

    /// Re-expresses the function over a larger variable set (the new
    /// variables are don't-cares).
    ///
    /// # Panics
    /// Panics if `nvars < self.nvars()`.
    pub fn extend_to(&self, nvars: usize) -> Tt {
        assert!(nvars >= self.nvars, "cannot shrink a table with extend_to");
        if nvars == self.nvars {
            return self.clone();
        }
        let mut t = Tt::zero(nvars);
        if self.nvars <= 6 {
            t.words.fill(stretch(self.words[0], self.nvars));
        } else {
            let chunk = self.words.len();
            for (wi, out) in t.words.iter_mut().enumerate() {
                *out = self.words[wi % chunk];
            }
        }
        t.mask_excess();
        t
    }

    /// Projects the function onto the variables it actually depends on.
    ///
    /// Returns the shrunk table and the original indices of the kept
    /// variables (`kept[i]` is the old index of new variable `i`).
    pub fn shrink_to_support(&self) -> (Tt, Vec<usize>) {
        let sup = self.support();
        let mut t = Tt::zero(sup.len());
        let total = 1usize << sup.len();
        for m in 0..total {
            // Build a representative full minterm: support vars as in `m`,
            // other vars at 0.
            let mut full = 0usize;
            for (i, &v) in sup.iter().enumerate() {
                if m >> i & 1 != 0 {
                    full |= 1 << v;
                }
            }
            if self.bit(full) {
                t.set_bit(m, true);
            }
        }
        (t, sup)
    }
}

fn identity_swapped(n: usize, i: usize, j: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.swap(i, j);
    p
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Tt {
            type Output = Tt;
            fn $method(self, rhs: Tt) -> Tt { (&self).$method(&rhs) }
        }
        impl<'a> $trait<&'a Tt> for &'a Tt {
            type Output = Tt;
            fn $method(self, rhs: &'a Tt) -> Tt {
                assert_eq!(self.nvars, rhs.nvars, "truth-table arity mismatch");
                let words = self
                    .words
                    .iter()
                    .zip(&rhs.words)
                    .map(|(a, b)| a $op b)
                    .collect();
                Tt { nvars: self.nvars, words }
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

impl Not for Tt {
    type Output = Tt;
    fn not(self) -> Tt {
        !&self
    }
}

impl Not for &Tt {
    type Output = Tt;
    fn not(self) -> Tt {
        let mut t = Tt {
            nvars: self.nvars,
            words: self.words.iter().map(|w| !w).collect(),
        };
        t.mask_excess();
        t
    }
}

impl fmt::Debug for Tt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tt{}[", self.nvars)?;
        for w in self.words.iter().rev() {
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

// ---------------------------------------------------------------------------
// Cubes and ISOP
// ---------------------------------------------------------------------------

/// A product term (cube) over at most 32 variables.
///
/// Variable `i` appears in the cube iff bit `i` of `mask` is set; its
/// polarity is bit `i` of `vals` (1 = positive literal).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cube {
    /// Which variables appear in the cube.
    pub mask: u32,
    /// Polarity of each appearing variable.
    pub vals: u32,
}

impl Cube {
    /// The empty cube (constant true product).
    pub const TAUTOLOGY: Cube = Cube { mask: 0, vals: 0 };

    /// Adds literal `var` with polarity `positive` to the cube.
    pub fn with_lit(mut self, var: usize, positive: bool) -> Cube {
        self.mask |= 1 << var;
        if positive {
            self.vals |= 1 << var;
        } else {
            self.vals &= !(1 << var);
        }
        self
    }

    /// Number of literals in the cube.
    pub fn num_lits(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Iterates over `(var, positive)` pairs of the cube's literals.
    pub fn lits(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..32usize)
            .filter(|i| self.mask >> i & 1 != 0)
            .map(|i| (i, self.vals >> i & 1 != 0))
    }

    /// Evaluates the cube on a minterm.
    pub fn eval(&self, minterm: u32) -> bool {
        minterm & self.mask == self.vals & self.mask
    }

    /// The characteristic truth table of the cube over `nvars` variables.
    pub fn to_tt(&self, nvars: usize) -> Tt {
        let mut t = Tt::one(nvars);
        for (v, pos) in self.lits() {
            let tv = Tt::var(nvars, v);
            t = if pos { t & tv } else { t & !tv };
        }
        t
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mask == 0 {
            return write!(f, "1");
        }
        for (v, pos) in self.lits() {
            write!(f, "{}x{}", if pos { "" } else { "!" }, v)?;
        }
        Ok(())
    }
}

impl Tt {
    /// Irredundant sum-of-products cover via Minato–Morreale.
    ///
    /// The returned cubes satisfy `OR(cubes) == self` exactly (checked by a
    /// debug assertion); the cover is irredundant in the ISOP sense (each
    /// cube contains a minterm covered by no other cube).
    pub fn isop(&self) -> Vec<Cube> {
        let mut cover = Vec::new();
        self.isop_into(false, &mut cover);
        cover
    }

    /// Appends the ISOP cover of `self` (of `!self` when `compl` is set) to
    /// `cover`: the cubes of [`Tt::isop`], in the same order, without
    /// materialising the complement.
    pub fn isop_into(&self, compl: bool, cover: &mut Vec<Cube>) {
        let flip = if compl { u64::MAX } else { 0 };
        if self.nvars <= 6 {
            let w = stretch(self.words[0], self.nvars) ^ flip;
            let f = isop_word(w, w, 6, cover);
            debug_assert_eq!(f, w, "ISOP cover must equal the function");
            return;
        }
        let n = self.words.len();
        // One buffer: the function (complemented if asked), the covered
        // function, and the operand slices of every recursion level.
        let mut buf = vec![0u64; (2 + ISOP_OPERANDS) * n];
        let (f, rest) = buf.split_at_mut(n);
        let (out, scratch) = rest.split_at_mut(n);
        for (d, &w) in f.iter_mut().zip(&self.words) {
            *d = w ^ flip;
        }
        isop_slice(f, f, cover, out, scratch);
        debug_assert_eq!(out, &*f, "ISOP cover must equal the function");
    }

    /// `|isop(f)| + |isop(!f)|` — the paper's *branching complexity* of a
    /// cell implementing this function, and simultaneously the number of
    /// clauses the ISOP LUT-to-CNF encoding produces for it.
    ///
    /// ```
    /// use aig::Tt;
    /// // Fig. 3 of the paper: 2-input AND has C = 3, 2-input XOR has C = 4.
    /// assert_eq!(Tt::from_u64(2, 0x8).branching_complexity(), 3);
    /// assert_eq!(Tt::from_u64(2, 0x6).branching_complexity(), 4);
    /// ```
    pub fn branching_complexity(&self) -> usize {
        let mut cover = Vec::new();
        self.isop_into(false, &mut cover);
        self.isop_into(true, &mut cover);
        cover.len()
    }
}

/// Replicates the `2^nvars` valid bits of a small table across the word,
/// so that a table over fewer than six variables becomes the same function
/// over six (the extra variables are don't-cares).
fn stretch(w: u64, nvars: usize) -> u64 {
    let mut w = w & word_mask(nvars);
    let mut bits = 1usize << nvars;
    while bits < 64 {
        w |= w << bits;
        bits <<= 1;
    }
    w
}

/// True if the table in `words` depends on variable `i`: the two cofactors
/// are compared in place.
fn words_have_var(words: &[u64], i: usize) -> bool {
    if i < 6 {
        let shift = 1 << i;
        words.iter().any(|&w| (w ^ w >> shift) & !VAR_MASKS[i] != 0)
    } else {
        let stride = 1 << (i - 6);
        words
            .chunks_exact(2 * stride)
            .any(|block| block[..stride] != block[stride..])
    }
}

/// Negative cofactor of a word with respect to variable `i < 6`.
#[inline]
fn word_cofactor0(w: u64, i: usize) -> u64 {
    let lo = w & !VAR_MASKS[i];
    lo | lo << (1 << i)
}

/// Positive cofactor of a word with respect to variable `i < 6`.
#[inline]
fn word_cofactor1(w: u64, i: usize) -> u64 {
    let hi = w & VAR_MASKS[i];
    hi | hi >> (1 << i)
}

/// Adds literal `var` of the given polarity to every cube from `start` on.
fn add_literal(cover: &mut [Cube], start: usize, var: usize, positive: bool) {
    for c in &mut cover[start..] {
        *c = c.with_lit(var, positive);
    }
}

/// Minato–Morreale on one word: appends an ISOP cover of some `f` with
/// `lower <= f <= upper` to `cover` and returns `f`.
///
/// Both bounds are tables stretched to all 64 bits that depend only on
/// variables below `top <= 6`. The split variable is the topmost one either
/// bound depends on, and the cubes come out as the `!v` cubes, then the `v`
/// cubes, then the cubes without `v` — the order [`Tt::isop`] promises and
/// `lut2cnf` turns into clause order.
fn isop_word(lower: u64, upper: u64, top: usize, cover: &mut Vec<Cube>) -> u64 {
    if lower == 0 {
        return 0;
    }
    if upper == u64::MAX {
        cover.push(Cube::TAUTOLOGY);
        return u64::MAX;
    }
    let mut v = top;
    loop {
        debug_assert!(v > 0, "non-constant function must have support");
        v -= 1;
        if words_have_var(&[lower], v) || words_have_var(&[upper], v) {
            break;
        }
    }
    let (l0, l1) = (word_cofactor0(lower, v), word_cofactor1(lower, v));
    let (u0, u1) = (word_cofactor0(upper, v), word_cofactor1(upper, v));

    let start0 = cover.len();
    let f0 = isop_word(l0 & !u1, u0, v, cover);
    add_literal(cover, start0, v, false);
    let start1 = cover.len();
    let f1 = isop_word(l1 & !u0, u1, v, cover);
    add_literal(cover, start1, v, true);
    let f2 = isop_word((l0 & !f0) | (l1 & !f1), u0 & u1, v, cover);
    (f0 & !VAR_MASKS[v]) | (f1 & VAR_MASKS[v]) | f2
}

/// Operand slices one level of [`isop_slice`] keeps: the bounds of its
/// three sub-problems and their three results.
const ISOP_OPERANDS: usize = 7;

/// Minato–Morreale over a word slice: the cover of some `f` with
/// `lower <= f <= upper` is appended to `cover` and `f` written to `out`.
///
/// `lower`, `upper` and `out` all hold `2^(n-6)` words for an `n`-variable
/// table (one stretched word up to six variables, handed to
/// [`isop_word`]). The split variable and cube order are those of
/// [`isop_word`]. A cofactor on a variable `v >= 6` is a half of the slice
/// once the table is cut down to `v + 1` variables (both bounds are
/// periodic above their topmost support variable), so the sub-problems
/// recurse on half-slices; their operands live in `scratch`, which must
/// hold [`ISOP_OPERANDS`] words per word of the table.
fn isop_slice(
    lower: &[u64],
    upper: &[u64],
    cover: &mut Vec<Cube>,
    out: &mut [u64],
    scratch: &mut [u64],
) {
    if lower.len() == 1 {
        out[0] = isop_word(lower[0], upper[0], 6, cover);
        return;
    }
    if lower.iter().all(|&w| w == 0) {
        out.fill(0);
        return;
    }
    if upper.iter().all(|&w| w == u64::MAX) {
        cover.push(Cube::TAUTOLOGY);
        out.fill(u64::MAX);
        return;
    }
    let top = 6 + lower.len().trailing_zeros() as usize;
    let Some(v) = (6..top)
        .rev()
        .find(|&v| words_have_var(lower, v) || words_have_var(upper, v))
    else {
        // No support variable above the word: every word is the same.
        out.fill(isop_word(lower[0], upper[0], 6, cover));
        return;
    };
    let half = 1usize << (v - 6);
    let span = 2 * half;
    let (l0, l1) = (&lower[..half], &lower[half..span]);
    let (u0, u1) = (&upper[..half], &upper[half..span]);

    let (ops, deeper) = scratch.split_at_mut(ISOP_OPERANDS * half);
    let mut ops = ops.chunks_exact_mut(half);
    let mut next = || ops.next().expect("seven operand slices");
    let (lo, hi, f0, f1, f2) = (next(), next(), next(), next(), next());
    let (lr, ur) = (next(), next());

    let start0 = cover.len();
    for i in 0..half {
        lo[i] = l0[i] & !u1[i];
    }
    isop_slice(lo, u0, cover, f0, deeper);
    add_literal(cover, start0, v, false);

    let start1 = cover.len();
    for i in 0..half {
        hi[i] = l1[i] & !u0[i];
    }
    isop_slice(hi, u1, cover, f1, deeper);
    add_literal(cover, start1, v, true);

    for i in 0..half {
        lr[i] = (l0[i] & !f0[i]) | (l1[i] & !f1[i]);
        ur[i] = u0[i] & u1[i];
    }
    isop_slice(lr, ur, cover, f2, deeper);

    for i in 0..half {
        out[i] = f0[i] | f2[i];
        out[half + i] = f1[i] | f2[i];
    }
    // Above `v` the covered function repeats, like its bounds.
    for i in span..out.len() {
        out[i] = out[i % span];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn cover_to_tt(nvars: usize, cubes: &[Cube]) -> Tt {
        let mut acc = Tt::zero(nvars);
        for c in cubes {
            acc = acc | c.to_tt(nvars);
        }
        acc
    }

    /// The table-allocating Minato–Morreale recursion the word kernels
    /// replaced, kept as their oracle: it covers some `f` with
    /// `lower <= f <= upper`, appending cubes to `cover`, and returns `f`.
    fn isop_rec(lower: &Tt, upper: &Tt, top: usize, cover: &mut Vec<Cube>) -> Tt {
        if lower.is_zero() {
            return Tt::zero(lower.nvars());
        }
        if upper.is_one() {
            cover.push(Cube::TAUTOLOGY);
            return Tt::one(lower.nvars());
        }
        let mut v = top;
        loop {
            v -= 1;
            if lower.cofactor0(v) != lower.cofactor1(v) || upper.cofactor0(v) != upper.cofactor1(v)
            {
                break;
            }
        }
        let l0 = lower.cofactor0(v);
        let l1 = lower.cofactor1(v);
        let u0 = upper.cofactor0(v);
        let u1 = upper.cofactor1(v);
        let start0 = cover.len();
        let f0 = isop_rec(&(&l0 & &!&u1), &u0, v, cover);
        for c in &mut cover[start0..] {
            *c = c.with_lit(v, false);
        }
        let start1 = cover.len();
        let f1 = isop_rec(&(&l1 & &!&u0), &u1, v, cover);
        for c in &mut cover[start1..] {
            *c = c.with_lit(v, true);
        }
        let lnew = &(&l0 & &!&f0) | &(&l1 & &!&f1);
        let f2 = isop_rec(&lnew, &(&u0 & &u1), v, cover);
        let tv = Tt::var(lower.nvars(), v);
        (&(&f0 & &!&tv) | &(&f1 & &tv)) | f2
    }

    /// Asserts that the kernels return the oracle's cube list, order
    /// included, for `f` and for `!f`.
    fn assert_isop_matches_oracle(f: &Tt) {
        for compl in [false, true] {
            let g = if compl { !f } else { f.clone() };
            let mut want = Vec::new();
            let covered = isop_rec(&g, &g, g.nvars(), &mut want);
            assert_eq!(covered, g, "oracle cover must equal the function");
            let mut got = Vec::new();
            f.isop_into(compl, &mut got);
            assert_eq!(got, want, "{f:?} compl={compl}");
        }
    }

    fn random_tt(rng: &mut rand::rngs::StdRng, n: usize) -> Tt {
        let words = (0..n_words(n)).map(|_| rng.gen::<u64>()).collect();
        Tt::from_words(n, words)
    }

    #[test]
    fn isop_matches_oracle_on_every_function_up_to_4_vars() {
        for n in 0..=4usize {
            for bits in 0..1u64 << (1 << n) {
                assert_isop_matches_oracle(&Tt::from_u64(n, bits));
            }
        }
    }

    #[test]
    fn isop_matches_oracle_on_random_5_to_12_vars() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1509);
        for n in 5..=12usize {
            for _ in 0..12 {
                let f = random_tt(&mut rng, n);
                assert_isop_matches_oracle(&f);
                // Reduced support: cofactoring leaves the table's size but
                // drops variables, so the kernel must skip the vacant ones
                // (above and below the word boundary) exactly as the
                // oracle does.
                let mut g = f.clone();
                for _ in 0..rng.gen_range(1..n) {
                    g = g.cofactor0(rng.gen_range(0..n));
                }
                assert_isop_matches_oracle(&g);
                // Sparse and dense functions keep the recursion deep on
                // one side.
                let h = random_tt(&mut rng, n);
                assert_isop_matches_oracle(&(&f & &h));
                assert_isop_matches_oracle(&(&(&f & &h) & &random_tt(&mut rng, n)));
            }
        }
    }

    #[test]
    fn has_var_matches_cofactor_comparison() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4a5);
        for n in 1..=10usize {
            for _ in 0..10 {
                let mut f = random_tt(&mut rng, n);
                for _ in 0..rng.gen_range(0..n) {
                    f = f.cofactor1(rng.gen_range(0..n));
                }
                for i in 0..n {
                    assert_eq!(
                        f.has_var(i),
                        f.cofactor0(i) != f.cofactor1(i),
                        "n={n} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn elementary_vars() {
        for n in 1..=8 {
            for i in 0..n {
                let t = Tt::var(n, i);
                assert_eq!(t.count_ones(), 1u64 << (n - 1));
                assert!(t.has_var(i));
                for j in 0..n {
                    assert_eq!(t.has_var(j), i == j);
                }
            }
        }
    }

    #[test]
    fn cofactors() {
        let n = 7;
        let a = Tt::var(n, 2);
        let b = Tt::var(n, 6);
        let f = a.clone() & b.clone();
        assert!(f.cofactor0(6).is_zero());
        assert_eq!(f.cofactor1(6), a);
        assert!(f.cofactor0(2).is_zero());
        assert_eq!(f.cofactor1(2), b);
    }

    #[test]
    fn swap_and_flip() {
        let n = 5;
        let f = Tt::var(n, 0) & !Tt::var(n, 3);
        let g = f.swap_vars(0, 3);
        assert_eq!(g, Tt::var(n, 3) & !Tt::var(n, 0));
        let h = f.flip_var(3);
        assert_eq!(h, Tt::var(n, 0) & Tt::var(n, 3));
        assert_eq!(h.flip_var(3), f);
    }

    #[test]
    fn permute_roundtrip() {
        let n = 4;
        let f = (Tt::var(n, 0) & Tt::var(n, 1)) | (Tt::var(n, 2) ^ Tt::var(n, 3));
        let perm = [2usize, 0, 3, 1];
        let mut inv = [0usize; 4];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        assert_eq!(f.permute(&perm).permute(&inv), f);
    }

    #[test]
    fn extend_preserves_function() {
        let f = Tt::from_u64(2, 0x6); // xor
        let g = f.extend_to(8);
        assert_eq!(g.nvars(), 8);
        for m in 0..256usize {
            assert_eq!(g.bit(m), (m & 1 != 0) ^ (m >> 1 & 1 != 0), "m={m}");
        }
    }

    #[test]
    fn shrink_to_support_works() {
        let n = 6;
        let f = Tt::var(n, 1) ^ Tt::var(n, 4);
        let (s, kept) = f.shrink_to_support();
        assert_eq!(kept, vec![1, 4]);
        assert_eq!(s, Tt::from_u64(2, 0x6));
    }

    #[test]
    fn isop_covers_exactly_small() {
        // All 2- and 3-variable functions.
        for n in [2usize, 3] {
            let total = 1usize << (1 << n);
            for bits in 0..total as u64 {
                let f = Tt::from_u64(n, bits);
                let cover = f.isop();
                assert_eq!(cover_to_tt(n, &cover), f, "n={n} bits={bits:#x}");
            }
        }
    }

    #[test]
    fn isop_covers_exactly_random_4_to_9() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        for n in 4..=9usize {
            for _ in 0..40 {
                let words = (0..(if n <= 6 { 1 } else { 1 << (n - 6) }))
                    .map(|_| rng.gen::<u64>())
                    .collect();
                let f = Tt::from_words(n, words);
                let cover = f.isop();
                assert_eq!(cover_to_tt(n, &cover), f, "n={n}");
            }
        }
    }

    #[test]
    fn paper_fig3_branching_complexity() {
        // L1 = AND: off-set splits into two cubes, on-set is one cube -> 3.
        let and2 = Tt::from_u64(2, 0x8);
        assert_eq!(and2.isop().len(), 1);
        assert_eq!((!&and2).isop().len(), 2);
        assert_eq!(and2.branching_complexity(), 3);
        // L2 = XOR: two cubes each side -> 4.
        let xor2 = Tt::from_u64(2, 0x6);
        assert_eq!(xor2.isop().len(), 2);
        assert_eq!((!&xor2).isop().len(), 2);
        assert_eq!(xor2.branching_complexity(), 4);
    }

    #[test]
    fn isop_constants() {
        assert!(Tt::zero(3).isop().is_empty());
        let ones = Tt::one(3).isop();
        assert_eq!(ones.len(), 1);
        assert_eq!(ones[0], Cube::TAUTOLOGY);
    }

    #[test]
    fn cube_eval_and_tt_agree() {
        let c = Cube::TAUTOLOGY.with_lit(0, true).with_lit(2, false);
        let t = c.to_tt(3);
        for m in 0..8u32 {
            assert_eq!(c.eval(m), t.bit(m as usize), "m={m}");
        }
    }

    #[test]
    fn xor4_isop_has_eight_cubes() {
        let n = 4;
        let f = Tt::var(n, 0) ^ Tt::var(n, 1) ^ Tt::var(n, 2) ^ Tt::var(n, 3);
        assert_eq!(f.isop().len(), 8);
        assert_eq!(f.branching_complexity(), 16);
    }
}
