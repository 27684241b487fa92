//! Truth tables of a window's nodes over its cut leaves, in one word arena.
//!
//! A *window* is a set of leaves plus logic above them whose functions a
//! pass needs as truth tables over those leaves: the cone of a
//! refactoring cut ([`crate::cut::cut_function`]), the cone and its side
//! divisors for resubstitution. Enumerated cuts need no window: they carry
//! their function from the merge ([`crate::cut::Cut::truth`]). A [`Window`] keeps every table in one flat `Vec<u64>`
//! arena, `2^(k-6)` words per table over `k` leaves (one word, stretched
//! across all 64 bits, up to six leaves). A per-node slot index finds a
//! node's table and is cleared through the list of nodes that received
//! one, so a pass reuses one `Window` for every node and, once its buffers
//! have grown, evaluates windows without allocating or hashing.

use crate::aig::Aig;
use crate::lit::{Lit, Var};
use crate::tt::{Tt, VAR_MASKS};

/// Reusable evaluator of window truth tables (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Window {
    nvars: usize,
    nwords: usize,
    /// Table `i` occupies `arena[i * nwords..(i + 1) * nwords]`.
    arena: Vec<u64>,
    /// Per node: its table index plus one, or 0 for no table.
    slot: Vec<u32>,
    /// The nodes that have a table, in the order they received it.
    nodes: Vec<Var>,
    /// Post-order worklist of [`Window::eval_cone`].
    stack: Vec<(Var, bool)>,
}

impl Window {
    /// An empty evaluator; its buffers grow on first use.
    pub fn new() -> Window {
        Window::default()
    }

    /// Starts a fresh window over `leaves`, dropping the previous one: leaf
    /// `i` gets the table of elementary variable `i`.
    ///
    /// # Panics
    /// Panics if there are more than [`Tt::MAX_VARS`] leaves.
    pub fn start(&mut self, aig: &Aig, leaves: &[Var]) {
        assert!(leaves.len() <= Tt::MAX_VARS, "too many window leaves");
        for &v in &self.nodes {
            self.slot[v as usize] = 0;
        }
        self.nodes.clear();
        self.arena.clear();
        if self.slot.len() < aig.num_nodes() {
            self.slot.resize(aig.num_nodes(), 0);
        }
        self.nvars = leaves.len();
        self.nwords = if self.nvars <= 6 {
            1
        } else {
            1 << (self.nvars - 6)
        };
        for (i, &leaf) in leaves.iter().enumerate() {
            self.arena
                .extend((0..self.nwords).map(|wi| var_word(i, wi)));
            self.assign(leaf);
        }
    }

    /// Evaluates the cone of `root` down to nodes that already have a table
    /// (the leaves, at first), in post-order: a node's fanins are visited
    /// second fanin first, and each node is listed in [`Window::nodes`]
    /// once both fanins have tables.
    ///
    /// # Panics
    /// Panics if the cone reaches a PI or the constant node that is not a
    /// leaf (the leaves are not a cut of `root`).
    pub fn eval_cone(&mut self, aig: &Aig, root: Var) {
        self.stack.push((root, false));
        while let Some((v, expanded)) = self.stack.pop() {
            if self.has_table(v) {
                continue;
            }
            let n = aig.node(v);
            assert!(n.is_and(), "cut leaves do not cover node {v}");
            let (a, b) = (n.fanin0(), n.fanin1());
            if expanded {
                self.push_and(v, a, b);
            } else {
                self.stack.push((v, true));
                if !self.has_table(a.var()) {
                    self.stack.push((a.var(), false));
                }
                if !self.has_table(b.var()) {
                    self.stack.push((b.var(), false));
                }
            }
        }
    }

    /// Gives AND node `v` a table if it has none yet and both its fanins
    /// have one; returns whether it did.
    pub fn try_eval(&mut self, aig: &Aig, v: Var) -> bool {
        let n = aig.node(v);
        if self.has_table(v) || !n.is_and() {
            return false;
        }
        let (a, b) = (n.fanin0(), n.fanin1());
        if !self.has_table(a.var()) || !self.has_table(b.var()) {
            return false;
        }
        self.push_and(v, a, b);
        true
    }

    /// True if node `v` has a table in the current window.
    #[inline]
    fn has_table(&self, v: Var) -> bool {
        self.slot.get(v as usize).is_some_and(|&s| s != 0)
    }

    /// The table of node `v`, if it has one.
    #[inline]
    pub fn table(&self, v: Var) -> Option<&[u64]> {
        let s = *self.slot.get(v as usize)?;
        if s == 0 {
            return None;
        }
        let at = (s as usize - 1) * self.nwords;
        Some(&self.arena[at..at + self.nwords])
    }

    /// The nodes that have a table, in the order they received it: the
    /// leaves first, then the evaluated nodes.
    pub fn nodes(&self) -> &[Var] {
        &self.nodes
    }

    /// Truth table of `root` over `leaves` (see [`crate::cut::cut_function`]).
    pub fn cut_function(&mut self, aig: &Aig, root: Var, leaves: &[Var]) -> Tt {
        self.start(aig, leaves);
        self.eval_cone(aig, root);
        let t = self.table(root).expect("root evaluated");
        Tt::from_words(self.nvars, t.to_vec())
    }

    /// Appends the table of AND node `v` with fanins `a` and `b`.
    fn push_and(&mut self, v: Var, a: Lit, b: Lit) {
        let nw = self.nwords;
        let at_a = (self.slot[a.var() as usize] as usize - 1) * nw;
        let at_b = (self.slot[b.var() as usize] as usize - 1) * nw;
        let (ma, mb) = (mask(a.is_compl()), mask(b.is_compl()));
        let start = self.arena.len();
        self.arena.resize(start + nw, 0);
        let (done, new) = self.arena.split_at_mut(start);
        for (k, w) in new.iter_mut().enumerate() {
            *w = (done[at_a + k] ^ ma) & (done[at_b + k] ^ mb);
        }
        self.assign(v);
    }

    /// Registers the table just appended to the arena as `v`'s.
    fn assign(&mut self, v: Var) {
        self.nodes.push(v);
        self.slot[v as usize] = (self.arena.len() / self.nwords) as u32;
    }
}

/// All-ones when `compl` is set: XOR with it complements a word.
#[inline]
fn mask(compl: bool) -> u64 {
    if compl {
        u64::MAX
    } else {
        0
    }
}

/// Word `wi` of elementary variable `i`'s table.
fn var_word(i: usize, wi: usize) -> u64 {
    if i < 6 {
        VAR_MASKS[i]
    } else if wi >> (i - 6) & 1 != 0 {
        u64::MAX
    } else {
        0
    }
}
