//! The And-Inverter Graph container.

use crate::hash::FastMap;
use crate::lit::{Lit, Var};
use crate::node::Node;

/// An And-Inverter Graph: a DAG of two-input AND gates with complemented
/// edges, plus primary inputs and primary outputs.
///
/// Invariants maintained by construction:
///
/// * node 0 is the constant-false node;
/// * fanin node indices are strictly smaller than the gate's own index, so
///   the node array is always in topological order;
/// * AND fanins are normalised (`fanin0 <= fanin1`) and structurally hashed,
///   so no two AND nodes have the same fanin pair;
/// * trivial ANDs (`x & 0`, `x & 1`, `x & x`, `x & !x`) are folded away.
///
/// ```
/// use aig::Aig;
/// let mut g = Aig::new();
/// let a = g.add_pi();
/// let b = g.add_pi();
/// let f = g.and(a, !b);
/// g.add_po(f);
/// assert_eq!(g.num_ands(), 1);
/// assert_eq!(g.num_pis(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    pub(crate) nodes: Vec<Node>,
    pub(crate) pis: Vec<Var>,
    pub(crate) pos: Vec<Lit>,
    strash: FastMap<(u32, u32), Var>,
}

impl Aig {
    /// Creates an empty graph containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![Node::CONST],
            pis: Vec::new(),
            pos: Vec::new(),
            strash: FastMap::default(),
        }
    }

    /// Creates an empty graph with capacity for roughly `n` nodes.
    pub fn with_capacity(n: usize) -> Aig {
        let mut g = Aig::new();
        g.nodes.reserve(n);
        g
    }

    /// Appends a fresh primary input and returns its (positive) literal.
    pub fn add_pi(&mut self) -> Lit {
        let var = self.nodes.len() as Var;
        self.nodes.push(Node::PI);
        self.pis.push(var);
        Lit::from_var(var, false)
    }

    /// Appends `n` fresh primary inputs.
    pub fn add_pis(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.add_pi()).collect()
    }

    /// Registers `lit` as a primary output and returns its output index.
    ///
    /// # Panics
    /// Panics if `lit` refers to a node outside the graph.
    pub fn add_po(&mut self, lit: Lit) -> usize {
        assert!(
            (lit.var() as usize) < self.nodes.len(),
            "PO literal out of range"
        );
        self.pos.push(lit);
        self.pos.len() - 1
    }

    /// Replaces the driver of output `idx`.
    ///
    /// # Panics
    /// Panics if `idx` or the literal is out of range.
    pub fn set_po(&mut self, idx: usize, lit: Lit) {
        assert!(
            (lit.var() as usize) < self.nodes.len(),
            "PO literal out of range"
        );
        self.pos[idx] = lit;
    }

    /// The structurally-hashed AND of two literals, folding constants and
    /// trivial cases.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (f0, f1) = if a <= b { (a, b) } else { (b, a) };
        let key = (f0.raw(), f1.raw());
        if let Some(&var) = self.strash.get(&key) {
            return Lit::from_var(var, false);
        }
        let var = self.nodes.len() as Var;
        self.nodes.push(Node::and(f0, f1));
        self.strash.insert(key, var);
        Lit::from_var(var, false)
    }

    /// The OR of two literals (`!( !a & !b )`).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// The XOR of two literals, built from two ANDs.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, !b);
        let t1 = self.and(!a, b);
        self.or(t0, t1)
    }

    /// The XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// The multiplexer `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// AND over an arbitrary set of literals (balanced tree; `TRUE` if empty).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_tree(lits, Lit::TRUE, Aig::and)
    }

    /// OR over an arbitrary set of literals (balanced tree; `FALSE` if empty).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_tree(lits, Lit::FALSE, Aig::or)
    }

    /// XOR over an arbitrary set of literals (balanced tree; `FALSE` if empty).
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_tree(lits, Lit::FALSE, Aig::xor)
    }

    fn reduce_tree(&mut self, lits: &[Lit], empty: Lit, op: fn(&mut Aig, Lit, Lit) -> Lit) -> Lit {
        match lits {
            [] => empty,
            [l] => *l,
            _ => {
                let mut layer = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            op(self, pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Looks up an existing AND node without creating one.
    ///
    /// Returns `Some(lit)` if the (normalised, folded) AND of `a` and `b`
    /// already exists structurally; `None` otherwise.
    pub fn find_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Some(Lit::FALSE);
        }
        if a == Lit::TRUE {
            return Some(b);
        }
        if b == Lit::TRUE || a == b {
            return Some(a);
        }
        let (f0, f1) = if a <= b { (a, b) } else { (b, a) };
        self.strash
            .get(&(f0.raw(), f1.raw()))
            .map(|&v| Lit::from_var(v, false))
    }

    /// Total number of nodes (constant + PIs + ANDs).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_pis(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    #[inline]
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// Number of AND gates.
    #[inline]
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.pis.len()
    }

    /// The node at index `var`.
    #[inline]
    pub fn node(&self, var: Var) -> &Node {
        &self.nodes[var as usize]
    }

    /// Node indices of the primary inputs, in creation order.
    #[inline]
    pub fn pis(&self) -> &[Var] {
        &self.pis
    }

    /// Primary-output literals, in creation order.
    #[inline]
    pub fn pos(&self) -> &[Lit] {
        &self.pos
    }

    /// If `var` is a primary input, its input index.
    pub fn pi_index(&self, var: Var) -> Option<usize> {
        if self.node(var).is_pi() {
            // PIs are appended in order, so binary search works.
            self.pis.binary_search(&var).ok()
        } else {
            None
        }
    }

    /// Iterates over all node indices in topological order (constant first).
    pub fn iter_vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.nodes.len() as Var).filter(move |_| true)
    }

    /// Iterates over the indices of AND nodes in topological order.
    pub fn iter_ands(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.nodes.len() as Var).filter(move |&v| self.nodes[v as usize].is_and())
    }

    /// Logic level of every node (PIs and constant at level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.nodes.len()];
        for v in 1..self.nodes.len() {
            let n = &self.nodes[v];
            if n.is_and() {
                lv[v] = 1 + lv[n.fanin0.var() as usize].max(lv[n.fanin1.var() as usize]);
            }
        }
        lv
    }

    /// Depth of the graph: the maximum level over PO drivers (0 if no POs).
    pub fn depth(&self) -> u32 {
        let lv = self.levels();
        self.pos
            .iter()
            .map(|l| lv[l.var() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Number of fanouts of every node, counting each PO as one fanout.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut fc = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            if n.is_and() {
                fc[n.fanin0.var() as usize] += 1;
                fc[n.fanin1.var() as usize] += 1;
            }
        }
        for po in &self.pos {
            fc[po.var() as usize] += 1;
        }
        fc
    }

    /// The AND-gate consumers of every node (POs are not listed), in one
    /// arena; see [`Fanouts`].
    pub fn fanouts(&self) -> Fanouts {
        let n = self.nodes.len();
        let fanin_vars = |v: Var| {
            let node = &self.nodes[v as usize];
            (node.fanin0.var(), node.fanin1.var())
        };
        // Count into `offsets[u + 1]`, then prefix-sum.
        let mut offsets = vec![0u32; n + 1];
        for v in self.iter_ands() {
            let (a, b) = fanin_vars(v);
            offsets[a as usize + 1] += 1;
            if b != a {
                offsets[b as usize + 1] += 1;
            }
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        // Consumers are placed in ascending order of `v`, so every row
        // comes out sorted.
        let mut next = offsets[..n].to_vec();
        let mut consumers = vec![0; offsets[n] as usize];
        let mut place = |u: Var, v: Var| {
            consumers[next[u as usize] as usize] = v;
            next[u as usize] += 1;
        };
        for v in self.iter_ands() {
            let (a, b) = fanin_vars(v);
            place(a, v);
            if b != a {
                place(b, v);
            }
        }
        Fanouts { offsets, consumers }
    }

    /// Marks every node reachable from the POs (transitive fanin).
    pub fn reachable_from_pos(&self) -> Vec<bool> {
        let mut mark = vec![false; self.nodes.len()];
        mark[0] = true;
        let mut stack: Vec<Var> = self.pos.iter().map(|l| l.var()).collect();
        while let Some(v) = stack.pop() {
            if mark[v as usize] {
                continue;
            }
            mark[v as usize] = true;
            let n = &self.nodes[v as usize];
            if n.is_and() {
                stack.push(n.fanin0.var());
                stack.push(n.fanin1.var());
            }
        }
        mark
    }

    /// Rebuilds the graph keeping only nodes reachable from the POs.
    ///
    /// All PIs are kept (in order) even if dangling, so instance I/O shape is
    /// preserved. Returns the compacted graph and a map from old node index
    /// to new literal (entries for dropped nodes are `None`).
    pub fn compact(&self) -> (Aig, Vec<Option<Lit>>) {
        let mark = self.reachable_from_pos();
        let mut new = Aig::with_capacity(self.nodes.len());
        let mut map: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        map[0] = Some(Lit::FALSE);
        for &pi in &self.pis {
            map[pi as usize] = Some(new.add_pi());
        }
        for v in self.iter_ands() {
            if !mark[v as usize] {
                continue;
            }
            let n = &self.nodes[v as usize];
            let f0 = map[n.fanin0.var() as usize].expect("fanin of reachable node reachable");
            let f1 = map[n.fanin1.var() as usize].expect("fanin of reachable node reachable");
            map[v as usize] = Some(new.and(
                f0.xor_compl(n.fanin0.is_compl()),
                f1.xor_compl(n.fanin1.is_compl()),
            ));
        }
        for &po in &self.pos {
            let l = map[po.var() as usize].expect("PO driver reachable");
            new.add_po(l.xor_compl(po.is_compl()));
        }
        (new, map)
    }

    /// True if two graphs are structurally identical (same node array, PI
    /// order, and PO literals). Used by synthesis drivers to detect fixed
    /// points of deterministic passes.
    pub fn same_structure(&self, other: &Aig) -> bool {
        self.nodes == other.nodes && self.pis == other.pis && self.pos == other.pos
    }

    /// Extracts the **normalized query cone**: the PO-reachable subgraph
    /// rebuilt with dangling PIs dropped, kept PIs in their original
    /// relative order, and ANDs in the original topological order.
    ///
    /// This is the canonical form the serving layer keys its verdict cache
    /// on: two queries whose logic cones are structurally identical
    /// normalize to [`Aig::same_structure`]-equal graphs (and therefore
    /// equal [`Aig::structural_hash`] keys) even when they arrive embedded
    /// in different instances or padded with unused inputs.
    ///
    /// Returns the cone and a map from cone PI index to the original PI
    /// index, so witnesses found on the cone can be expanded back to the
    /// full input space.
    pub fn normalized_cone(&self) -> (Aig, Vec<usize>) {
        let mark = self.reachable_from_pos();
        let mut cone = Aig::with_capacity(self.nodes.len());
        let mut map: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        map[0] = Some(Lit::FALSE);
        let mut pi_map = Vec::new();
        for (i, &pi) in self.pis.iter().enumerate() {
            if mark[pi as usize] {
                map[pi as usize] = Some(cone.add_pi());
                pi_map.push(i);
            }
        }
        for v in self.iter_ands() {
            if !mark[v as usize] {
                continue;
            }
            let n = &self.nodes[v as usize];
            let f0 = map[n.fanin0.var() as usize].expect("fanin of reachable node reachable");
            let f1 = map[n.fanin1.var() as usize].expect("fanin of reachable node reachable");
            map[v as usize] = Some(cone.and(
                f0.xor_compl(n.fanin0.is_compl()),
                f1.xor_compl(n.fanin1.is_compl()),
            ));
        }
        for &po in &self.pos {
            let l = map[po.var() as usize].expect("PO driver reachable");
            cone.add_po(l.xor_compl(po.is_compl()));
        }
        (cone, pi_map)
    }

    /// Deterministic structural hash of the graph: a function of the PI
    /// count, the node array (fanin literals in index order), and the PO
    /// literals — exactly the fields [`Aig::same_structure`] compares, so
    /// structurally identical graphs always hash equal. Collisions are
    /// possible (it is a 64-bit digest); cache users must confirm a hit
    /// with `same_structure` before trusting it.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::Hasher;
        let lit_key = |l: Lit| ((l.var() as u64) << 1) | l.is_compl() as u64;
        let mut h = crate::hash::FastHasher::default();
        h.write_u64(self.pis.len() as u64);
        h.write_u64(self.nodes.len() as u64);
        for v in self.iter_vars() {
            let n = &self.nodes[v as usize];
            if n.is_and() {
                h.write_u64((lit_key(n.fanin0) << 32) | lit_key(n.fanin1));
            } else {
                // PI/constant marker: distinguishes a leaf at index v from
                // an AND whose fanin words happen to collide.
                h.write_u64(u64::MAX);
            }
        }
        for &po in &self.pos {
            h.write_u64(lit_key(po));
        }
        h.finish()
    }

    /// Evaluates the graph on one Boolean input assignment.
    ///
    /// Returns the value of every PO.
    ///
    /// # Panics
    /// Panics if `inputs.len() != self.num_pis()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_pis(), "wrong number of input values");
        let mut val = vec![false; self.nodes.len()];
        for (i, &pi) in self.pis.iter().enumerate() {
            val[pi as usize] = inputs[i];
        }
        for v in self.iter_ands() {
            let n = &self.nodes[v as usize];
            let a = val[n.fanin0.var() as usize] ^ n.fanin0.is_compl();
            let b = val[n.fanin1.var() as usize] ^ n.fanin1.is_compl();
            val[v as usize] = a & b;
        }
        self.pos
            .iter()
            .map(|l| val[l.var() as usize] ^ l.is_compl())
            .collect()
    }
}

/// The AND-gate consumers of every node of a graph, from [`Aig::fanouts`],
/// in compressed sparse rows: one offsets array and one flat consumer
/// array. A node's row lists each consumer once, in strictly ascending
/// order, so a walk that wants only consumers below some node can stop at
/// the first one that is not.
#[derive(Clone, Debug)]
pub struct Fanouts {
    /// Node `v`'s row is `consumers[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    consumers: Vec<Var>,
}

impl Fanouts {
    /// The AND gates that read node `v`, ascending.
    #[inline]
    pub fn of(&self, v: Var) -> &[Var] {
        let v = v as usize;
        &self.consumers[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// A small combinational structure expressed over abstract leaves.
///
/// `GateList` is the exchange format between resynthesis engines (rewrite,
/// refactor, resub, the NPN library) and graph reconstruction: a sequence of
/// AND gates whose operands refer either to one of `n_leaves` leaves or to an
/// earlier gate in the list, plus a root literal.
///
/// Signal encoding: signal `2*i + c` refers to leaf `i` (if `i < n_leaves`)
/// or gate `i - n_leaves`, complemented when `c = 1`. Signal `!0`/`!1`-style
/// constants use `u32::MAX - 1` (false) and `u32::MAX` (true).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateList {
    /// Number of leaf operands the structure expects.
    pub n_leaves: usize,
    /// AND gates as pairs of signal encodings.
    pub gates: Vec<(u32, u32)>,
    /// Root signal encoding.
    pub root: u32,
}

impl GateList {
    /// Signal encoding of constant false.
    pub const FALSE: u32 = u32::MAX - 1;
    /// Signal encoding of constant true.
    pub const TRUE: u32 = u32::MAX;

    /// Signal referring to leaf `i` (optionally complemented).
    pub fn leaf(i: usize, compl: bool) -> u32 {
        (i as u32) << 1 | compl as u32
    }

    /// Signal referring to gate `g` (optionally complemented); `g` counts
    /// from 0 within `gates`, after the leaves.
    pub fn gate(&self, g: usize, compl: bool) -> u32 {
        ((self.n_leaves + g) as u32) << 1 | compl as u32
    }

    /// A structure computing constant false.
    pub fn constant(value: bool) -> GateList {
        GateList {
            n_leaves: 0,
            gates: Vec::new(),
            root: if value { Self::TRUE } else { Self::FALSE },
        }
    }

    /// Number of AND gates in the structure.
    pub fn size(&self) -> usize {
        self.gates.len()
    }
}

impl Aig {
    /// Instantiates a [`GateList`] over concrete leaf literals, returning the
    /// literal of the structure's root. Structural hashing applies, so gates
    /// already present in the graph are reused for free.
    ///
    /// # Panics
    /// Panics if `leaves.len() != gl.n_leaves` or a gate refers forward.
    pub fn build_gatelist(&mut self, leaves: &[Lit], gl: &GateList) -> Lit {
        assert_eq!(leaves.len(), gl.n_leaves, "leaf count mismatch");
        let mut sigs: Vec<Lit> = Vec::with_capacity(gl.n_leaves + gl.gates.len());
        sigs.extend_from_slice(leaves);
        let decode = |sigs: &[Lit], s: u32| -> Lit {
            match s {
                GateList::FALSE => Lit::FALSE,
                GateList::TRUE => Lit::TRUE,
                _ => {
                    let idx = (s >> 1) as usize;
                    assert!(idx < sigs.len(), "gatelist refers forward");
                    sigs[idx].xor_compl(s & 1 != 0)
                }
            }
        };
        for &(a, b) in &gl.gates {
            let la = decode(&sigs, a);
            let lb = decode(&sigs, b);
            let l = self.and(la, lb);
            sigs.push(l);
        }
        decode(&sigs, gl.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strash_dedups() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn trivial_folding() {
        let mut g = Aig::new();
        let a = g.add_pi();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn eval_gates() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        let m = g.mux(a, b, !b);
        g.add_po(x);
        g.add_po(m);
        for (ia, ib) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = g.eval(&[ia, ib]);
            assert_eq!(out[0], ia ^ ib, "xor({ia},{ib})");
            assert_eq!(out[1], if ia { ib } else { !ib }, "mux({ia},{ib})");
        }
    }

    #[test]
    fn many_ops_match_folds() {
        let mut g = Aig::new();
        let ls = g.add_pis(5);
        let and = g.and_many(&ls);
        let or = g.or_many(&ls);
        let xor = g.xor_many(&ls);
        g.add_po(and);
        g.add_po(or);
        g.add_po(xor);
        for pat in 0..32u32 {
            let ins: Vec<bool> = (0..5).map(|i| pat >> i & 1 != 0).collect();
            let out = g.eval(&ins);
            assert_eq!(out[0], ins.iter().all(|&x| x));
            assert_eq!(out[1], ins.iter().any(|&x| x));
            assert_eq!(out[2], ins.iter().filter(|&&x| x).count() % 2 == 1);
        }
    }

    #[test]
    fn empty_reduce_trees() {
        let mut g = Aig::new();
        assert_eq!(g.and_many(&[]), Lit::TRUE);
        assert_eq!(g.or_many(&[]), Lit::FALSE);
        assert_eq!(g.xor_many(&[]), Lit::FALSE);
    }

    #[test]
    fn levels_and_depth() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let t = g.and(a, b);
        let u = g.and(t, c);
        g.add_po(u);
        let lv = g.levels();
        assert_eq!(lv[t.var() as usize], 1);
        assert_eq!(lv[u.var() as usize], 2);
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn compact_drops_dead_logic() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let live = g.and(a, b);
        let _dead = g.or(a, b);
        g.add_po(live);
        assert_eq!(g.num_ands(), 2);
        let (c, map) = g.compact();
        assert_eq!(c.num_ands(), 1);
        assert_eq!(c.num_pis(), 2);
        assert!(map[_dead.var() as usize].is_none());
        // Behaviour is preserved.
        for (ia, ib) in [(false, false), (true, true), (true, false)] {
            assert_eq!(g.eval(&[ia, ib]), c.eval(&[ia, ib]));
        }
    }

    #[test]
    fn fanout_counts_include_pos() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        g.add_po(x);
        let fc = g.fanout_counts();
        assert_eq!(fc[x.var() as usize], 2);
        assert_eq!(fc[a.var() as usize], 1);
    }

    /// Resubstitution's side-divisor walk stops at the first consumer that
    /// is not below its node, which is sound only if every row ascends.
    /// The reference builds each row as its own vector.
    #[test]
    fn fanout_rows_ascend_and_match_nested_lists() {
        use rand::{Rng, SeedableRng};
        for seed in 0..24 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g = Aig::new();
            let mut pool = g.add_pis(2 + seed as usize % 7);
            for _ in 0..40 + 10 * seed {
                let a = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
                let b = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
                let l = g.and(a, b);
                pool.push(l);
            }
            g.add_po(pool[pool.len() - 1]);
            let mut nested = vec![Vec::new(); g.num_nodes()];
            for v in g.iter_ands() {
                let n = g.node(v);
                nested[n.fanin0().var() as usize].push(v);
                if n.fanin1().var() != n.fanin0().var() {
                    nested[n.fanin1().var() as usize].push(v);
                }
            }
            let fanouts = g.fanouts();
            for u in 0..g.num_nodes() as Var {
                let row = fanouts.of(u);
                assert_eq!(row, nested[u as usize], "seed {seed} node {u}");
                assert!(row.windows(2).all(|w| w[0] < w[1]), "seed {seed} node {u}");
            }
        }
    }

    #[test]
    fn gatelist_builds_xor() {
        // XOR as a gatelist: g0 = a & !b, g1 = !a & b, root = !( !g0 & !g1 ).
        let gl = GateList {
            n_leaves: 2,
            gates: vec![
                (GateList::leaf(0, false), GateList::leaf(1, true)),
                (GateList::leaf(0, true), GateList::leaf(1, false)),
                (2 << 1 | 1, 3 << 1 | 1), // !g0 & !g1
            ],
            root: 4 << 1 | 1, // !(that)
        };
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.build_gatelist(&[a, b], &gl);
        let x2 = g.xor(a, b);
        assert_eq!(x, x2, "structural hashing should unify with xor()");
    }

    #[test]
    fn gatelist_constants() {
        let mut g = Aig::new();
        let t = g.build_gatelist(&[], &GateList::constant(true));
        let f = g.build_gatelist(&[], &GateList::constant(false));
        assert_eq!(t, Lit::TRUE);
        assert_eq!(f, Lit::FALSE);
    }

    #[test]
    fn find_and_matches_and() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        assert_eq!(g.find_and(a, b), None);
        let x = g.and(a, b);
        assert_eq!(g.find_and(b, a), Some(x));
        assert_eq!(g.find_and(a, Lit::TRUE), Some(a));
        assert_eq!(g.find_and(a, !a), Some(Lit::FALSE));
    }

    #[test]
    fn pi_index_lookup() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        assert_eq!(g.pi_index(a.var()), Some(0));
        assert_eq!(g.pi_index(b.var()), Some(1));
        assert_eq!(g.pi_index(x.var()), None);
    }

    #[test]
    fn normalized_cone_drops_dangling_pis_and_maps_back() {
        // g: 4 PIs, only PIs 1 and 3 feed the PO.
        let mut g = Aig::new();
        let pis = g.add_pis(4);
        let dead = g.and(pis[0], pis[2]); // unreachable from the PO
        let _ = dead;
        let f = g.and(pis[1], !pis[3]);
        g.add_po(f);
        let (cone, pi_map) = g.normalized_cone();
        assert_eq!(cone.num_pis(), 2);
        assert_eq!(pi_map, vec![1, 3]);
        assert_eq!(cone.num_ands(), 1);
        assert_eq!(cone.num_pos(), 1);
        // Same function over the kept inputs.
        for p in 0..4usize {
            let cone_ins = vec![p & 1 != 0, p & 2 != 0];
            let mut full_ins = vec![false; 4];
            full_ins[1] = cone_ins[0];
            full_ins[3] = cone_ins[1];
            assert_eq!(cone.eval(&cone_ins), g.eval(&full_ins));
        }
    }

    #[test]
    fn structural_hash_tracks_same_structure() {
        let build = |compl: bool| {
            let mut g = Aig::new();
            let a = g.add_pi();
            let b = g.add_pi();
            let f = g.and(a, b.xor_compl(compl));
            g.add_po(f);
            g
        };
        let g1 = build(false);
        let g2 = build(false);
        let g3 = build(true);
        assert!(g1.same_structure(&g2));
        assert_eq!(g1.structural_hash(), g2.structural_hash());
        assert!(!g1.same_structure(&g3));
        assert_ne!(g1.structural_hash(), g3.structural_hash());
        // Embedding the same cone among dangling PIs must not change the
        // normalized key.
        let mut padded = Aig::new();
        let _spare = padded.add_pi();
        let a = padded.add_pi();
        let b = padded.add_pi();
        let f = padded.and(a, b);
        padded.add_po(f);
        let (cone, pi_map) = padded.normalized_cone();
        assert!(cone.same_structure(&g1.normalized_cone().0));
        assert_eq!(
            cone.structural_hash(),
            g1.normalized_cone().0.structural_hash()
        );
        assert_eq!(pi_map, vec![1, 2]);
    }
}
