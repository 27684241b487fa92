//! Exact NPN canonisation of 4-variable functions, by table.
//!
//! Two functions are NPN-equivalent when one can be obtained from the other
//! by Negating inputs, Permuting inputs, and/or Negating the output. The
//! 65 536 four-variable functions fall into 222 NPN classes; DAG-aware
//! rewriting keeps one pre-computed optimal structure per class and
//! instantiates it through the recorded transform.
//!
//! A function's canon is the least member of its class, and its transform
//! is the first of the 768 transforms, in the search order
//! `(perm, flips, out)`, that takes it there: exactly what a search over
//! all 768 transforms per function returns (the tests keep that search as
//! the reference and compare all 65 536 functions). [`NpnTable::build`]
//! gets the same table by walking orbits instead. The first function not
//! yet placed is its class's least member `f0`, and the images of `f0`
//! under the 768 transforms are the class. A member `g = U·f0` is taken to
//! `f0` by the transforms `V ∘ U⁻¹` with `V·f0 = f0`, and the table keeps
//! the first of those. That is 222 × 768 transforms applied instead of
//! 65 536 × 768, a few milliseconds; [`NpnTable::get`] builds the table
//! once per process, and every lookup after that is one index.

use crate::lit::Lit;
use std::sync::OnceLock;

/// An NPN transform `T` acting on 4-variable functions.
///
/// Semantics (with `fl_i` = bit `i` of `flips`):
///
/// ```text
/// (T·F)(x0, x1, x2, x3) = out ⊕ F(x_{p[0]} ⊕ fl_0, ..., x_{p[3]} ⊕ fl_3)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// Input permutation: variable `i` of `F` reads `x_{perm[i]}`.
    pub perm: [u8; 4],
    /// Input complementations, one bit per variable of `F`.
    pub flips: u8,
    /// Output complementation.
    pub out: bool,
}

/// The 24 permutations of four elements in lexicographic order, and the
/// rank of each, indexed by its packed code `p0 << 6 | p1 << 4 | p2 << 2 | p3`.
const PERMS: ([[u8; 4]; 24], [u8; 256]) = {
    let (mut perms, mut rank) = ([[0u8; 4]; 24], [0u8; 256]);
    let (mut code, mut n) = (0usize, 0usize);
    while code < 256 {
        let p = [
            (code >> 6) as u8 & 3,
            (code >> 4) as u8 & 3,
            (code >> 2) as u8 & 3,
            code as u8 & 3,
        ];
        let distinct = p[0] != p[1]
            && p[0] != p[2]
            && p[0] != p[3]
            && p[1] != p[2]
            && p[1] != p[3]
            && p[2] != p[3];
        if distinct {
            perms[n] = p;
            rank[code] = n as u8;
            n += 1;
        }
        code += 1;
    }
    (perms, rank)
};

/// Number of NPN transforms of 4-variable functions: 24 permutations ×
/// 16 input flips × 2 output polarities.
const TRANSFORMS: usize = 768;

impl NpnTransform {
    /// The identity transform.
    pub const IDENTITY: NpnTransform = NpnTransform {
        perm: [0, 1, 2, 3],
        flips: 0,
        out: false,
    };

    /// Applies the transform to a truth table.
    pub fn apply(&self, f: u16) -> u16 {
        let g = apply_inputs(f, &self.source_minterms());
        if self.out {
            !g
        } else {
            g
        }
    }

    /// The input part of the transform as a minterm map: bit `m` of `T·F`
    /// reads `F` at minterm `y = source_minterms()[m]`, where
    /// `y_i = x_{p[i]} ⊕ fl_i` and the bits `x` come from `m`.
    fn source_minterms(&self) -> [u8; 16] {
        std::array::from_fn(|m| {
            (0..4).fold(0, |y, i| {
                let xb = m >> self.perm[i] & 1;
                y | (xb ^ (self.flips as usize >> i & 1)) << i
            }) as u8
        })
    }

    /// Given concrete leaf literals for `F`'s inputs, produces the leaf
    /// literals (and output complement) with which a structure implementing
    /// `T·F` realises `F(leaves)`:
    ///
    /// ```text
    /// F(l_0..l_3) = out ⊕ (T·F)(w_0..w_3)   with  w_j = l_{p⁻¹(j)} ⊕ fl_{p⁻¹(j)}
    /// ```
    pub fn instantiate(&self, leaves: &[Lit; 4]) -> ([Lit; 4], bool) {
        let mut pinv = [0usize; 4];
        for (i, &p) in self.perm.iter().enumerate() {
            pinv[p as usize] = i;
        }
        let mut w = [Lit::FALSE; 4];
        for (j, wj) in w.iter_mut().enumerate() {
            let i = pinv[j];
            *wj = leaves[i].xor_compl(self.flips >> i & 1 != 0);
        }
        (w, self.out)
    }

    /// The transform at position `i` of the search order: permutations in
    /// lexicographic order, then input flips, then output polarity.
    fn from_index(i: usize) -> NpnTransform {
        NpnTransform {
            perm: PERMS.0[i / 32],
            flips: (i / 2 % 16) as u8,
            out: i % 2 == 1,
        }
    }

    /// This transform's position in the search order.
    fn index(self) -> usize {
        let code = self.perm.iter().fold(0, |c, &p| c << 2 | p as usize);
        PERMS.1[code] as usize * 32 + self.flips as usize * 2 + self.out as usize
    }

    /// The transform that applies `self` first and `second` after it:
    /// `(self.then(second))·F = second·(self·F)`.
    fn then(self, second: NpnTransform) -> NpnTransform {
        let mut t = NpnTransform {
            perm: [0; 4],
            flips: self.flips,
            out: self.out ^ second.out,
        };
        for (j, &p) in self.perm.iter().enumerate() {
            t.perm[j] = second.perm[p as usize];
            t.flips ^= (second.flips >> p & 1) << j;
        }
        t
    }

    /// The transform undoing `self`: `self.then(self.inverse())` is the
    /// identity.
    fn inverse(self) -> NpnTransform {
        let mut t = NpnTransform {
            perm: [0; 4],
            flips: 0,
            out: self.out,
        };
        for (i, &p) in self.perm.iter().enumerate() {
            t.perm[p as usize] = i as u8;
            t.flips |= (self.flips >> i & 1) << p;
        }
        t
    }
}

/// `F` with its inputs moved by a minterm map (see
/// [`NpnTransform::source_minterms`]).
fn apply_inputs(f: u16, map: &[u8; 16]) -> u16 {
    map.iter()
        .enumerate()
        .fold(0, |g, (m, &y)| g | (f >> y & 1) << m)
}

/// One function's row of the [`NpnTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NpnEntry {
    /// The least member of the function's class.
    pub canon: u16,
    /// The class's index: the rank of `canon` among the 222 canons.
    pub class: u8,
    /// The first transform in search order with `transform.apply(f) == canon`.
    pub transform: NpnTransform,
}

/// Canon, class and transform of every 4-variable function, in one flat
/// table indexed by the function (see the module docs).
#[derive(Clone, Debug)]
pub struct NpnTable {
    entries: Vec<NpnEntry>,
    canons: Vec<u16>,
}

impl NpnTable {
    /// Builds the table by walking the 222 orbits.
    pub fn build() -> NpnTable {
        let transforms: Vec<NpnTransform> = (0..TRANSFORMS).map(NpnTransform::from_index).collect();
        // Transforms `2k` and `2k + 1` share their inputs, map `k`.
        let maps: Vec<[u8; 16]> = transforms
            .iter()
            .step_by(2)
            .map(NpnTransform::source_minterms)
            .collect();
        let mut entries: Vec<Option<NpnEntry>> = vec![None; 1 << 16];
        let mut canons = Vec::new();
        let mut images = [0u16; TRANSFORMS];
        let mut stabiliser = Vec::new();
        for f0 in 0..=u16::MAX {
            if entries[f0 as usize].is_some() {
                continue;
            }
            // Every smaller function is placed, so `f0` is the least member
            // of its class, which is the class's canon.
            let class = canons.len() as u8;
            canons.push(f0);
            for (pair, map) in images.chunks_exact_mut(2).zip(&maps) {
                let g = apply_inputs(f0, map);
                pair.copy_from_slice(&[g, !g]);
            }
            stabiliser.clear();
            stabiliser.extend((0..TRANSFORMS).filter(|&v| images[v] == f0));
            for (u, &g) in images.iter().enumerate() {
                let entry = &mut entries[g as usize];
                if entry.is_some() {
                    continue;
                }
                let undo = transforms[u].inverse();
                let first = stabiliser
                    .iter()
                    .map(|&v| undo.then(transforms[v]).index())
                    .min()
                    .expect("the identity fixes f0");
                *entry = Some(NpnEntry {
                    canon: f0,
                    class,
                    transform: transforms[first],
                });
            }
        }
        NpnTable {
            entries: entries
                .into_iter()
                .map(|e| e.expect("every function lies in an orbit"))
                .collect(),
            canons,
        }
    }

    /// The process-wide table, built on first use.
    pub fn get() -> &'static NpnTable {
        static TABLE: OnceLock<NpnTable> = OnceLock::new();
        TABLE.get_or_init(NpnTable::build)
    }

    /// The row of function `f`.
    #[inline]
    pub fn entry(&self, f: u16) -> NpnEntry {
        self.entries[f as usize]
    }

    /// The canon of every class, in increasing order (class `i` is
    /// `canons()[i]`).
    pub fn canons(&self) -> &[u16] {
        &self.canons
    }
}

/// Computes the NPN-canonical representative of `f` and a transform with
/// `canon == transform.apply(f)`.
///
/// The canonical form is the numerically smallest table reachable by any of
/// the 768 NPN transforms, so all members of a class share one canon.
///
/// ```
/// use aig::npn::npn_canon;
/// let (c1, _) = npn_canon(0x8888); // x0 & x1
/// let (c2, _) = npn_canon(0xEEEE); // x0 | x1  (NPN-equivalent to AND)
/// assert_eq!(c1, c2);
/// ```
pub fn npn_canon(f: u16) -> (u16, NpnTransform) {
    let e = NpnTable::get().entry(f);
    (e.canon, e.transform)
}

/// The canon of each of the 222 NPN classes of 4-variable functions, in
/// increasing order; the rewriting library builds one structure per class.
pub fn npn_class_representatives() -> Vec<u16> {
    NpnTable::get().canons().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The reference: tries all 768 transforms in search order and keeps
    /// the first that reaches the least table.
    fn brute_force_canon(f: u16) -> (u16, NpnTransform) {
        let mut best = (u16::MAX, NpnTransform::IDENTITY);
        for i in 0..TRANSFORMS {
            let t = NpnTransform::from_index(i);
            let g = t.apply(f);
            if g < best.0 {
                best = (g, t);
            }
        }
        best
    }

    #[test]
    fn identity_applies_trivially() {
        for f in [0x0000u16, 0xFFFF, 0x8888, 0x6666, 0xCAFE] {
            assert_eq!(NpnTransform::IDENTITY.apply(f), f);
        }
    }

    #[test]
    fn search_order_is_perm_then_flips_then_out() {
        assert_eq!(NpnTransform::from_index(0), NpnTransform::IDENTITY);
        assert_eq!(PERMS.0[1], [0, 1, 3, 2]);
        assert_eq!(PERMS.0[23], [3, 2, 1, 0]);
        for i in 0..TRANSFORMS {
            assert_eq!(NpnTransform::from_index(i).index(), i);
        }
    }

    #[test]
    fn composition_and_inverse_act_as_documented() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let f: u16 = rng.gen();
            let a = NpnTransform::from_index(rng.gen_range(0..TRANSFORMS));
            let b = NpnTransform::from_index(rng.gen_range(0..TRANSFORMS));
            assert_eq!(a.then(b).apply(f), b.apply(a.apply(f)));
            assert_eq!(a.then(a.inverse()), NpnTransform::IDENTITY);
        }
    }

    #[test]
    fn table_matches_brute_force_on_every_function() {
        let table = NpnTable::build();
        for f in 0..=u16::MAX {
            let e = table.entry(f);
            assert_eq!((e.canon, e.transform), brute_force_canon(f), "f={f:#06x}");
            assert_eq!(table.canons()[e.class as usize], e.canon, "f={f:#06x}");
        }
    }

    #[test]
    fn canon_is_invariant_under_transforms() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let f: u16 = rng.gen();
            let (c, _) = npn_canon(f);
            // Apply a random transform, canonise again: same canon.
            let t = NpnTransform {
                perm: *rand_perm(&mut rng),
                flips: rng.gen::<u8>() & 0xF,
                out: rng.gen(),
            };
            let g = t.apply(f);
            let (c2, _) = npn_canon(g);
            assert_eq!(c, c2, "f={f:#06x} g={g:#06x}");
        }
    }

    fn rand_perm(rng: &mut impl Rng) -> &'static [u8; 4] {
        &PERMS.0[rng.gen_range(0..24usize)]
    }

    #[test]
    fn transform_reaches_canon() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let f: u16 = rng.gen();
            let (c, t) = npn_canon(f);
            assert_eq!(t.apply(f), c);
        }
    }

    #[test]
    fn exactly_222_classes() {
        let reps = npn_class_representatives();
        assert_eq!(reps.len(), 222);
        assert!(reps.windows(2).all(|w| w[0] < w[1]), "increasing");
    }

    #[test]
    fn instantiate_consistency() {
        // Semantic check of `instantiate`: evaluate F on random leaf values
        // and check out ^ (T·F)(w) matches, where w is built per instantiate.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let f: u16 = rng.gen();
            let t = NpnTransform {
                perm: *rand_perm(&mut rng),
                flips: rng.gen::<u8>() & 0xF,
                out: rng.gen(),
            };
            let g = t.apply(f);
            // Represent leaf literals as plain booleans with optional
            // complement: leaf i has value v[i]; Lit complement = XOR.
            let vals: [bool; 4] = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            let leaves = [
                Lit::from_var(10, false),
                Lit::from_var(11, false),
                Lit::from_var(12, false),
                Lit::from_var(13, false),
            ];
            let (w, out) = t.instantiate(&leaves);
            // Evaluate F(vals).
            let mf = (0..4).fold(0u16, |acc, i| acc | (vals[i] as u16) << i);
            let lhs = f >> mf & 1 != 0;
            // Evaluate out ^ G(w-values).
            let wval = |l: Lit| -> bool {
                let base = vals[(l.var() - 10) as usize];
                base ^ l.is_compl()
            };
            let mg = (0..4).fold(0u16, |acc, j| acc | (wval(w[j]) as u16) << j);
            let rhs = out ^ (g >> mg & 1 != 0);
            assert_eq!(lhs, rhs, "f={f:#06x} t={t:?}");
        }
    }
}
