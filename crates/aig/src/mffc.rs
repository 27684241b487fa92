//! Maximum fanout-free cones (MFFCs).
//!
//! The MFFC of node `n` is the set of AND nodes that are used *only* on
//! paths into `n` — exactly the logic that disappears if `n` is replaced by
//! something else. Its size is the classic "gain denominator" of DAG-aware
//! rewriting: replacing `n` by a structure of `s` fresh nodes yields
//! `|MFFC(n)| - s` saved nodes.
//!
//! Sizes are computed with the standard dereference/re-reference walk over a
//! mutable copy of the fanout counts, so repeated queries are cheap and do
//! not disturb the graph.

use crate::aig::Aig;
use crate::lit::Var;

/// Reusable MFFC computer over a fixed graph.
#[derive(Clone, Debug)]
pub struct Mffc {
    refs: Vec<u32>,
}

impl Mffc {
    /// Prepares reference counts (fanout counts, POs included) for `aig`.
    pub fn new(aig: &Aig) -> Mffc {
        Mffc {
            refs: aig.fanout_counts(),
        }
    }

    /// Current reference count of a node.
    pub fn refs(&self, v: Var) -> u32 {
        self.refs[v as usize]
    }

    /// Size of the MFFC of `v` in AND nodes (0 if `v` is a PI/constant).
    pub fn size(&mut self, aig: &Aig, v: Var) -> usize {
        if !aig.node(v).is_and() {
            return 0;
        }
        let n = self.deref(aig, v);
        let m = self.reref(aig, v);
        debug_assert_eq!(n, m, "deref/reref mismatch");
        n
    }

    /// The AND nodes in the MFFC of `v`, in reverse topological order
    /// (`v` first). Empty if `v` is not an AND node.
    pub fn collect(&mut self, aig: &Aig, v: Var) -> Vec<Var> {
        if !aig.node(v).is_and() {
            return Vec::new();
        }
        let mut nodes = Vec::new();
        self.deref_collect(aig, v, &mut Some(&mut nodes));
        self.reref(aig, v);
        nodes
    }

    /// Size of the part of `v`'s MFFC that lies strictly above the given cut
    /// `leaves` — exactly the AND nodes that disappear when `v` is
    /// re-expressed as a structure over those leaves.
    ///
    /// This is the gain numerator of DAG-aware rewriting: nodes below or at
    /// a leaf survive because the replacement still references the leaf.
    /// The walk stops at the leaves by scanning the slice, which holds a
    /// cut of at most a dozen leaves.
    pub fn cone_size(&mut self, aig: &Aig, v: Var, leaves: &[Var]) -> usize {
        self.cone_collect_impl(aig, v, leaves, &mut None)
    }

    /// The AND nodes counted by [`Mffc::cone_size`], `v` first, into
    /// `nodes` (cleared first).
    pub fn cone_collect(&mut self, aig: &Aig, v: Var, leaves: &[Var], nodes: &mut Vec<Var>) {
        nodes.clear();
        self.cone_collect_impl(aig, v, leaves, &mut Some(nodes));
    }

    fn cone_collect_impl(
        &mut self,
        aig: &Aig,
        v: Var,
        leaves: &[Var],
        out: &mut Option<&mut Vec<Var>>,
    ) -> usize {
        if !aig.node(v).is_and() || leaves.contains(&v) {
            return 0;
        }
        let n = self.deref_cone(aig, v, leaves, out);
        self.reref_cone(aig, v, leaves);
        n
    }

    fn deref_cone(
        &mut self,
        aig: &Aig,
        v: Var,
        stop: &[Var],
        out: &mut Option<&mut Vec<Var>>,
    ) -> usize {
        let mut count = 1;
        if let Some(list) = out.as_deref_mut() {
            list.push(v);
        }
        let node = *aig.node(v);
        for f in node.fanins() {
            let fv = f.var();
            debug_assert!(self.refs[fv as usize] > 0, "reference underflow");
            self.refs[fv as usize] -= 1;
            if self.refs[fv as usize] == 0 && aig.node(fv).is_and() && !stop.contains(&fv) {
                count += self.deref_cone(aig, fv, stop, out);
            }
        }
        count
    }

    fn reref_cone(&mut self, aig: &Aig, v: Var, stop: &[Var]) {
        let node = *aig.node(v);
        for f in node.fanins() {
            let fv = f.var();
            if self.refs[fv as usize] == 0 && aig.node(fv).is_and() && !stop.contains(&fv) {
                self.reref_cone(aig, fv, stop);
            }
            self.refs[fv as usize] += 1;
        }
    }

    /// Dereferences the cone of `v`: decrements fanin references transitively
    /// and returns how many AND nodes dropped to zero (the MFFC size).
    fn deref(&mut self, aig: &Aig, v: Var) -> usize {
        self.deref_collect(aig, v, &mut None)
    }

    fn deref_collect(&mut self, aig: &Aig, v: Var, out: &mut Option<&mut Vec<Var>>) -> usize {
        let mut count = 1;
        if let Some(list) = out.as_deref_mut() {
            list.push(v);
        }
        let node = *aig.node(v);
        for f in node.fanins() {
            let fv = f.var() as usize;
            debug_assert!(self.refs[fv] > 0, "reference underflow");
            self.refs[fv] -= 1;
            if self.refs[fv] == 0 && aig.node(f.var()).is_and() {
                count += self.deref_collect(aig, f.var(), out);
            }
        }
        count
    }

    /// Re-references the cone of `v`, undoing [`Mffc::deref`]. Returns the
    /// number of AND nodes whose count rose from zero.
    fn reref(&mut self, aig: &Aig, v: Var) -> usize {
        let mut count = 1;
        let node = *aig.node(v);
        for f in node.fanins() {
            let fv = f.var() as usize;
            if self.refs[fv] == 0 && aig.node(f.var()).is_and() {
                count += self.reref(aig, f.var());
            }
            self.refs[fv] += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fanout_chain_is_whole_cone() {
        let mut g = Aig::new();
        let pis = g.add_pis(4);
        let t0 = g.and(pis[0], pis[1]);
        let t1 = g.and(pis[2], pis[3]);
        let t2 = g.and(t0, t1);
        g.add_po(t2);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(&g, t2.var()), 3);
        assert_eq!(m.size(&g, t0.var()), 1);
        // Queries leave reference counts untouched.
        assert_eq!(m.refs, g.fanout_counts());
    }

    #[test]
    fn shared_node_excluded() {
        let mut g = Aig::new();
        let pis = g.add_pis(3);
        let shared = g.and(pis[0], pis[1]);
        let top = g.and(shared, pis[2]);
        let other = g.and(shared, !pis[2]);
        g.add_po(top);
        g.add_po(other);
        let mut m = Mffc::new(&g);
        // `shared` is referenced by `other`, so top's MFFC is just {top}.
        assert_eq!(m.size(&g, top.var()), 1);
        let nodes = m.collect(&g, top.var());
        assert_eq!(nodes, vec![top.var()]);
    }

    #[test]
    fn pi_has_empty_mffc() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(a);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(&g, a.var()), 0);
        assert!(m.collect(&g, a.var()).is_empty());
    }

    #[test]
    fn cone_size_stops_at_leaves() {
        // v = (a&b) & (c&d); cut leaves {a&b, c, d}: only v and (c&d) vanish.
        let mut g = Aig::new();
        let pis = g.add_pis(4);
        let t0 = g.and(pis[0], pis[1]);
        let t1 = g.and(pis[2], pis[3]);
        let v = g.and(t0, t1);
        g.add_po(v);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(&g, v.var()), 3);
        let leaves = [t0.var(), pis[2].var(), pis[3].var()];
        assert_eq!(m.cone_size(&g, v.var(), &leaves), 2);
        let mut nodes = vec![pis[0].var()];
        m.cone_collect(&g, v.var(), &leaves, &mut nodes);
        assert_eq!(nodes, vec![v.var(), t1.var()]);
        // Reference counts restored.
        assert_eq!(m.refs, g.fanout_counts());
    }

    #[test]
    fn cone_size_of_leaf_is_zero() {
        let mut g = Aig::new();
        let pis = g.add_pis(2);
        let t = g.and(pis[0], pis[1]);
        g.add_po(t);
        let mut m = Mffc::new(&g);
        assert_eq!(m.cone_size(&g, t.var(), &[t.var()]), 0);
    }

    #[test]
    fn collect_matches_size() {
        let mut g = Aig::new();
        let pis = g.add_pis(5);
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        // Add a side user of an interior node.
        let interior = g.and(pis[0], pis[1]);
        let side = g.and(interior, pis[4]);
        g.add_po(acc);
        g.add_po(side);
        let mut m = Mffc::new(&g);
        for v in g.iter_ands() {
            assert_eq!(m.collect(&g, v).len(), m.size(&g, v), "node {v}");
        }
    }
}
