//! k-feasible cut enumeration.
//!
//! A *cut* of node `n` is a set of nodes (the *leaves*) such that every path
//! from a PI to `n` passes through a leaf; it is k-feasible when it has at
//! most `k` leaves. Cuts are the unit of work for both DAG-aware rewriting
//! (k = 4) and LUT mapping (k = 4..6): the function of `n` expressed over
//! the cut leaves is what gets replaced or mapped.
//!
//! The enumeration is the classic bottom-up merge with priority capping and
//! dominance filtering, as in ABC's cut package.

use crate::aig::Aig;
use crate::lit::Var;
use crate::tt::Tt;
use crate::window::Window;

/// Maximum number of leaves a [`Cut`] can hold.
pub const MAX_CUT_SIZE: usize = 8;

/// A cut: a sorted set of at most [`MAX_CUT_SIZE`] leaf nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    leaves: [Var; MAX_CUT_SIZE],
    len: u8,
    /// 64-bit Bloom-style signature for fast subset tests.
    sig: u64,
}

impl Cut {
    /// The trivial cut `{node}`.
    pub fn trivial(node: Var) -> Cut {
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[0] = node;
        Cut {
            leaves,
            len: 1,
            sig: 1u64 << (node % 64),
        }
    }

    /// Builds a cut from a sorted, deduplicated slice of leaves.
    ///
    /// # Panics
    /// Panics if the slice is longer than [`MAX_CUT_SIZE`] or not strictly
    /// sorted.
    pub fn from_sorted(leaves_in: &[Var]) -> Cut {
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

    /// True if `self`'s leaves are a subset of `other`'s.
    pub fn subset_of(&self, other: &Cut) -> bool {
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

    /// Merges two cuts; `None` if the union exceeds `k` leaves.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
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
        })
    }
}

/// Parameters for cut enumeration.
#[derive(Clone, Copy, Debug)]
pub struct CutParams {
    /// Maximum leaves per cut (`2..=MAX_CUT_SIZE`).
    pub k: usize,
    /// Maximum cuts kept per node (the trivial cut is kept in addition).
    pub max_cuts: usize,
}

impl Default for CutParams {
    fn default() -> CutParams {
        CutParams { k: 4, max_cuts: 8 }
    }
}

/// All k-feasible cuts of every node.
///
/// `cuts[v]` holds the priority cuts of node `v`, each list ending with the
/// trivial cut. PIs have just their trivial cut; the constant node has none
/// (structural hashing guarantees it never feeds an AND gate).
pub fn enumerate_cuts(aig: &Aig, p: &CutParams) -> Vec<Vec<Cut>> {
    assert!((2..=MAX_CUT_SIZE).contains(&p.k), "cut size out of range");
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
    for v in 1..aig.num_nodes() as Var {
        let node = aig.node(v);
        if node.is_pi() {
            cuts[v as usize].push(Cut::trivial(v));
            continue;
        }
        let f0 = node.fanin0().var();
        let f1 = node.fanin1().var();
        let mut set: Vec<Cut> = Vec::with_capacity(p.max_cuts + 1);
        // Split borrows: the fanin cut lists are at smaller indices.
        let (c0, c1) = (&cuts[f0 as usize], &cuts[f1 as usize]);
        for a in c0 {
            for b in c1 {
                let Some(m) = a.merge(b, p.k) else { continue };
                insert_filtered(&mut set, m, p.max_cuts);
            }
        }
        set.push(Cut::trivial(v));
        cuts[v as usize] = set;
    }
    cuts
}

/// Inserts `c` into `set` unless dominated; removes cuts `c` dominates;
/// keeps the set sorted by size and capped at `cap`.
fn insert_filtered(set: &mut Vec<Cut>, c: Cut, cap: usize) {
    for existing in set.iter() {
        if existing.subset_of(&c) {
            return; // dominated by a smaller-or-equal cut
        }
    }
    set.retain(|existing| !c.subset_of(existing));
    let pos = set.partition_point(|e| e.size() <= c.size());
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
/// per-node index is sized to the graph. Passes that evaluate a cut per
/// node keep one `Window` and call [`Window::cut_function`] or
/// [`Window::cut_word`] instead.
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
        // One window reused across every cut of every node, as the passes
        // use it, at every cut size up to the maximum.
        let mut w = Window::new();
        for (seed, k) in [(1u64, 4usize), (2, 6), (3, 8)] {
            let g = random_aig(seed, 10, 150);
            let cuts = enumerate_cuts(&g, &CutParams { k, max_cuts: 8 });
            for v in g.iter_ands() {
                for cut in &cuts[v as usize] {
                    let want = cut_function_oracle(&g, v, cut.leaves());
                    assert_eq!(w.cut_function(&g, v, cut.leaves()), want, "v={v}");
                    if cut.size() <= 6 {
                        // The word is the table stretched to six variables.
                        let word = w.cut_word(&g, v, cut.leaves());
                        assert_eq!(word, want.extend_to(6).to_u64(), "v={v}");
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
        let big = Cut::from_sorted(&[1, 2, 3]);
        let small = Cut::from_sorted(&[1, 2]);
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
