//! k-feasible cut enumeration, with each cut's function.
//!
//! A *cut* of node `n` is a set of nodes (the *leaves*) such that every path
//! from a PI to `n` passes through a leaf; it is k-feasible when it has at
//! most `k` leaves. Cuts are the unit of work for both DAG-aware rewriting
//! (k = 4) and LUT mapping (k = 2..=6): the function of `n` expressed over
//! the cut leaves is what gets replaced or mapped.
//!
//! The enumeration is the classic bottom-up merge with priority capping and
//! dominance filtering, as in ABC's cut package. Two cuts whose signatures
//! together set more than `k` bits have more than `k` distinct leaves, so
//! such a pair is rejected before its leaves are merged.
//!
//! Every kept cut carries its function as one word ([`Cut::truth`]), taken
//! from the merge as ABC's priority cuts do: a merged cut's word is the AND
//! of its parents' words, each moved onto the merged leaf set and
//! complemented with its fanin edge. Words are computed only for the cuts
//! that survive dominance filtering and the cap, so no pass evaluates a
//! cut's cone to learn its function.

use crate::aig::Aig;
use crate::lit::Var;
use crate::tt::{Tt, VAR_MASKS};
use crate::window::Window;

/// Maximum number of leaves a [`Cut`] can hold: its function fits one word.
const MAX_CUT_SIZE: usize = 6;

/// A cut: a sorted set of at most six leaf nodes, with the function of its
/// node over them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    leaves: [Var; MAX_CUT_SIZE],
    len: u8,
    /// 64-bit Bloom-style signature for fast subset and size tests.
    sig: u64,
    /// The node's function over the leaves (see [`Cut::truth`]).
    truth: u64,
}

impl Cut {
    /// The trivial cut `{node}`: its function is variable 0.
    fn trivial(node: Var) -> Cut {
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[0] = node;
        Cut {
            leaves,
            len: 1,
            sig: 1u64 << (node % 64),
            truth: VAR_MASKS[0],
        }
    }

    /// Builds a cut from a sorted, deduplicated slice of leaves, with no
    /// function.
    ///
    /// # Panics
    /// Panics if the slice is longer than [`MAX_CUT_SIZE`] or not strictly
    /// sorted.
    #[cfg(test)]
    fn from_sorted(leaves_in: &[Var]) -> Cut {
        assert!(leaves_in.len() <= MAX_CUT_SIZE, "cut too large");
        assert!(
            leaves_in.windows(2).all(|w| w[0] < w[1]),
            "leaves must be strictly sorted"
        );
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[..leaves_in.len()].copy_from_slice(leaves_in);
        let sig = leaves_in.iter().fold(0u64, |s, &l| s | 1u64 << (l % 64));
        Cut {
            leaves,
            len: leaves_in.len() as u8,
            sig,
            truth: 0,
        }
    }

    /// The leaves of the cut, sorted ascending.
    #[inline]
    pub fn leaves(&self) -> &[Var] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// The function of the cut's node over its leaves, as one word
    /// stretched across all 64 bits: leaf `i` is variable `i`, and the
    /// variables from [`Cut::size`] upwards are don't-cares. Its low `2^k`
    /// bits are the table over `k` leaves, and its low 16 bits are that
    /// table extended to four variables.
    #[inline]
    pub fn truth(&self) -> u64 {
        self.truth
    }

    /// True if `self`'s leaves are a subset of `other`'s.
    fn subset_of(&self, other: &Cut) -> bool {
        if self.len > other.len || self.sig & !other.sig != 0 {
            return false;
        }
        // Merge-style subset check on sorted arrays.
        let (a, b) = (self.leaves(), other.leaves());
        let mut j = 0;
        for &x in a {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j == b.len() || b[j] != x {
                return false;
            }
        }
        true
    }

    /// Merges two cuts' leaves, with no function; `None` if the union
    /// exceeds `k` leaves.
    fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        debug_assert!(k <= MAX_CUT_SIZE);
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = [0 as Var; MAX_CUT_SIZE];
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() || j < b.len() {
            let take_a = j == b.len() || (i < a.len() && a[i] <= b[j]);
            let v = if take_a {
                let v = a[i];
                i += 1;
                if j < b.len() && b[j] == v {
                    j += 1;
                }
                v
            } else {
                let v = b[j];
                j += 1;
                v
            };
            if n == k {
                return None;
            }
            out[n] = v;
            n += 1;
        }
        Some(Cut {
            leaves: out,
            len: n as u8,
            sig: self.sig | other.sig,
            truth: 0,
        })
    }

    /// This cut's word as a function of `to`'s leaves, a superset of its
    /// own: leaf `i` moves from variable `i` to its position in `to`,
    /// working from the top leaf down, so that every move lands on a
    /// variable the word does not depend on.
    fn truth_over(&self, to: &Cut) -> u64 {
        let to = to.leaves();
        let mut pos = [0usize; MAX_CUT_SIZE];
        let mut j = 0;
        for (i, &leaf) in self.leaves().iter().enumerate() {
            while to[j] != leaf {
                j += 1;
            }
            pos[i] = j;
        }
        let mut word = self.truth;
        for i in (0..self.size()).rev() {
            if pos[i] != i {
                word = swap_vars(word, i, pos[i]);
            }
        }
        word
    }
}

/// `word` with variables `i < j` exchanged.
#[inline]
fn swap_vars(word: u64, i: usize, j: usize) -> u64 {
    // Minterms with `i` set and `j` clear trade places with those with `i`
    // clear and `j` set, which sit `2^j - 2^i` bits higher.
    let shift = (1 << j) - (1 << i);
    let up = VAR_MASKS[i] & !VAR_MASKS[j];
    let down = !VAR_MASKS[i] & VAR_MASKS[j];
    (word & !(up | down)) | (word & up) << shift | (word & down) >> shift
}

/// Parameters for cut enumeration.
#[derive(Clone, Copy, Debug)]
pub struct CutParams {
    /// Maximum leaves per cut (`2..=6`).
    pub k: usize,
    /// Maximum cuts kept per node (the trivial cut is kept in addition).
    pub max_cuts: usize,
}

impl Default for CutParams {
    fn default() -> CutParams {
        CutParams { k: 4, max_cuts: 8 }
    }
}

/// A merged cut and the indices of its parents in its node's fanin cut
/// lists.
type Merged = (Cut, usize, usize);

/// All k-feasible cuts of every node, each with its function.
///
/// `cuts[v]` holds the priority cuts of node `v`, each list ending with the
/// trivial cut. PIs have just their trivial cut; the constant node has none
/// (structural hashing guarantees it never feeds an AND gate).
///
/// # Panics
/// Panics if `p.k` is outside `2..=6`.
pub fn enumerate_cuts(aig: &Aig, p: &CutParams) -> Vec<Vec<Cut>> {
    assert!((2..=MAX_CUT_SIZE).contains(&p.k), "cut size out of range");
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
    let mut set: Vec<Merged> = Vec::with_capacity(p.max_cuts + 1);
    for v in 1..aig.num_nodes() as Var {
        let node = aig.node(v);
        if node.is_pi() {
            cuts[v as usize].push(Cut::trivial(v));
            continue;
        }
        let (f0, f1) = (node.fanin0(), node.fanin1());
        // Split borrows: the fanin cut lists are at smaller indices.
        let (c0, c1) = (&cuts[f0.var() as usize], &cuts[f1.var() as usize]);
        set.clear();
        for (i, a) in c0.iter().enumerate() {
            for (j, b) in c1.iter().enumerate() {
                // More than k signature bits means more than k leaves.
                if (a.sig | b.sig).count_ones() as usize > p.k {
                    continue;
                }
                let Some(m) = a.merge(b, p.k) else { continue };
                insert_filtered(&mut set, (m, i, j), p.max_cuts);
            }
        }
        let mask = |compl: bool| if compl { u64::MAX } else { 0 };
        let (m0, m1) = (mask(f0.is_compl()), mask(f1.is_compl()));
        let mut kept = Vec::with_capacity(set.len() + 1);
        for &(mut cut, i, j) in &set {
            cut.truth = (c0[i].truth_over(&cut) ^ m0) & (c1[j].truth_over(&cut) ^ m1);
            kept.push(cut);
        }
        kept.push(Cut::trivial(v));
        cuts[v as usize] = kept;
    }
    cuts
}

/// Inserts `c` into `set` unless dominated; removes cuts `c` dominates;
/// keeps the set sorted by size and capped at `cap`.
fn insert_filtered(set: &mut Vec<Merged>, c: Merged, cap: usize) {
    for (existing, ..) in set.iter() {
        if existing.subset_of(&c.0) {
            return; // dominated by a smaller-or-equal cut
        }
    }
    set.retain(|(existing, ..)| !c.0.subset_of(existing));
    let pos = set.partition_point(|(e, ..)| e.size() <= c.0.size());
    set.insert(pos, c);
    if set.len() > cap {
        set.truncate(cap);
    }
}

/// Truth table of `root` expressed over the given cut leaves.
///
/// Every path from a PI to `root` must pass through a leaf (true for any
/// enumerated cut). Leaf `i` is mapped to elementary variable `i`.
///
/// This is a one-off convenience: it sets up a fresh [`Window`], whose
/// per-node index is sized to the graph. A pass that needs the function of
/// every enumerated cut reads [`Cut::truth`]; one that evaluates other
/// cuts node by node keeps one `Window` and calls
/// [`Window::cut_function`].
///
/// # Panics
/// Panics if the cone is not closed under the leaves (i.e. the leaf set is
/// not a cut of `root`) or has more than [`Tt::MAX_VARS`] leaves.
pub fn cut_function(aig: &Aig, root: Var, leaves: &[Var]) -> Tt {
    Window::new().cut_function(aig, root, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Lit;

    /// The hash-map evaluator [`Window`] replaced, kept as its oracle.
    fn cut_function_oracle(aig: &Aig, root: Var, leaves: &[Var]) -> Tt {
        let nv = leaves.len();
        let mut memo: crate::hash::FastMap<Var, Tt> = crate::hash::FastMap::default();
        for (i, &l) in leaves.iter().enumerate() {
            memo.insert(l, Tt::var(nv, i));
        }
        let mut stack = vec![(root, false)];
        while let Some((v, expanded)) = stack.pop() {
            if memo.contains_key(&v) {
                continue;
            }
            let node = aig.node(v);
            assert!(node.is_and(), "cut leaves do not cover node {v}");
            let (a, b) = (node.fanin0(), node.fanin1());
            if expanded {
                let ta = memo[&a.var()].clone();
                let tb = memo[&b.var()].clone();
                let ta = if a.is_compl() { !ta } else { ta };
                let tb = if b.is_compl() { !tb } else { tb };
                memo.insert(v, ta & tb);
            } else {
                stack.push((v, true));
                if !memo.contains_key(&a.var()) {
                    stack.push((a.var(), false));
                }
                if !memo.contains_key(&b.var()) {
                    stack.push((b.var(), false));
                }
            }
        }
        memo.remove(&root).expect("root evaluated")
    }

    fn random_aig(seed: u64, n_pis: usize, n_gates: usize) -> Aig {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut pool = g.add_pis(n_pis);
        for _ in 0..n_gates {
            let a = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
            let b = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
            let l = match rng.gen_range(0..3) {
                0 => g.and(a, b),
                1 => g.or(a, b),
                _ => g.xor(a, b),
            };
            pool.push(l);
        }
        g.add_po(pool[pool.len() - 1]);
        g
    }

    #[test]
    fn window_matches_oracle_on_enumerated_cuts() {
        // Every cut of every node at every cut size: the word the merge
        // gave the cut is the oracle's table stretched to six variables,
        // and one window reused across the cuts, as a pass would use it,
        // evaluates the same table.
        let mut w = Window::new();
        for seed in 1..=12u64 {
            let g = random_aig(seed, 10, 150);
            for k in 2..=MAX_CUT_SIZE {
                let cuts = enumerate_cuts(&g, &CutParams { k, max_cuts: 8 });
                for v in g.iter_ands() {
                    for cut in &cuts[v as usize] {
                        let want = cut_function_oracle(&g, v, cut.leaves());
                        let word = want.extend_to(6).to_u64();
                        assert_eq!(cut.truth(), word, "seed={seed} k={k} v={v}");
                        assert_eq!(w.cut_function(&g, v, cut.leaves()), want, "v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn window_matches_oracle_on_wide_cuts() {
        // Cuts of up to 12 leaves: every PI set is a cut of every node.
        let mut w = Window::new();
        for n_pis in [7usize, 9, 12] {
            let g = random_aig(n_pis as u64, n_pis, 120);
            let leaves: Vec<Var> = g.pis().to_vec();
            for v in g.iter_ands() {
                let want = cut_function_oracle(&g, v, &leaves);
                assert_eq!(w.cut_function(&g, v, &leaves), want, "v={v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cut leaves do not cover node")]
    fn cut_function_rejects_a_non_cut() {
        let (g, a, _b, c, _t, u) = sample_aig();
        let _ = cut_function(&g, u.var(), &[a.var(), c.var()]);
    }

    fn sample_aig() -> (Aig, Lit, Lit, Lit, Lit, Lit) {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let t = g.and(a, b);
        let u = g.or(t, c);
        g.add_po(u);
        (g, a, b, c, t, u)
    }

    #[test]
    fn trivial_and_merged_cuts() {
        let (g, a, b, c, t, u) = sample_aig();
        let cuts = enumerate_cuts(&g, &CutParams { k: 4, max_cuts: 8 });
        // PI cuts are trivial.
        assert_eq!(cuts[a.var() as usize], vec![Cut::trivial(a.var())]);
        // t has cut {a, b} and trivial.
        let ct = &cuts[t.var() as usize];
        assert!(ct.iter().any(|cut| cut.leaves() == [a.var(), b.var()]));
        assert!(ct.iter().any(|cut| cut.leaves() == [t.var()]));
        // u has cut {a, b, c}.
        let cu = &cuts[u.var() as usize];
        let mut want = [a.var(), b.var(), c.var()];
        want.sort_unstable();
        assert!(cu.iter().any(|cut| cut.leaves() == want));
    }

    #[test]
    fn cut_function_matches_eval() {
        let (g, a, b, c, _t, u) = sample_aig();
        let mut leaves = [a.var(), b.var(), c.var()];
        leaves.sort_unstable();
        let f = cut_function(&g, u.var(), &leaves);
        for m in 0..8usize {
            // leaf i value = bit i of m; map to PI values.
            let val = |v: Var| -> bool {
                let idx = leaves.iter().position(|&l| l == v).unwrap();
                m >> idx & 1 != 0
            };
            let ins = [val(a.var()), val(b.var()), val(c.var())];
            let po_val = g.eval(&ins)[0] ^ u.is_compl();
            // f is the function of node u.var() (regular polarity).
            assert_eq!(f.bit(m), po_val, "m={m}");
        }
    }

    #[test]
    fn dominance_filtering() {
        let mut set = Vec::new();
        let big = (Cut::from_sorted(&[1, 2, 3]), 0, 0);
        let small = (Cut::from_sorted(&[1, 2]), 1, 0);
        insert_filtered(&mut set, big, 8);
        insert_filtered(&mut set, small, 8);
        // The small cut dominates and evicts the big one.
        assert_eq!(set, vec![small]);
        // Re-inserting the dominated cut is a no-op.
        insert_filtered(&mut set, big, 8);
        assert_eq!(set, vec![small]);
    }

    #[test]
    fn merge_respects_k() {
        let a = Cut::from_sorted(&[1, 2, 3]);
        let b = Cut::from_sorted(&[4, 5]);
        assert!(a.merge(&b, 4).is_none());
        let m = a.merge(&b, 5).unwrap();
        assert_eq!(m.leaves(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_dedups_common_leaves() {
        let a = Cut::from_sorted(&[1, 2, 3]);
        let b = Cut::from_sorted(&[2, 3, 4]);
        let m = a.merge(&b, 4).unwrap();
        assert_eq!(m.leaves(), &[1, 2, 3, 4]);
    }

    #[test]
    fn subset_checks() {
        let a = Cut::from_sorted(&[1, 3]);
        let b = Cut::from_sorted(&[1, 2, 3]);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(a.subset_of(&a));
    }

    #[test]
    fn cuts_cap_respected() {
        // A chain of ANDs produces many cuts; ensure the cap holds.
        let mut g = Aig::new();
        let pis = g.add_pis(10);
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        let cuts = enumerate_cuts(&g, &CutParams { k: 4, max_cuts: 5 });
        for set in &cuts {
            assert!(set.len() <= 6, "cap plus trivial cut");
        }
    }
}
