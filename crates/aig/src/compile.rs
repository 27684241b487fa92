//! Compiled simulation: the crate's one simulation engine.
//!
//! A [`SimProgram`] lowers the graph **once** into a flat bytecode with one
//! op per node: slot `v` is node `v`, operand slots are pre-resolved row
//! indices, and fanin complements are baked into the opcode, so a run is a
//! tight, branch-light, allocation-free sweep over a contiguous op array.
//! Runs go straight into the strided [`SimVectors`] matrix
//! ([`SimProgram::run_strided`]) or into a dense slot-major buffer
//! ([`SimProgram::run_dense`]), on the caller's thread.
//!
//! Every node's row is materialised, so one program serves every consumer:
//! signature matrices, where the SAT sweeper's candidate classes and the
//! resubstitution filters read arbitrary node rows; exhaustive truth
//! tables ([`crate::sim::output_tts`]); and the sequential stepper
//! ([`crate::seq::SeqStepper`]). The last two read each output literal as
//! its node's row, complemented if the literal is.
//!
//! Ops are stably sorted by logic level. On a 20k-gate random AIG filled
//! 64 words at a time, the level-sorted order ran at 288–344 M words/s
//! against 248–305 M for plain node order (one thread of a 2-vCPU Xeon
//! guest).
// The only unsafe code in this crate lives here (the op runner's raw row
// pointers); the crate root denies it everywhere else, and every block
// carries a `// SAFETY:` comment (clippy-enforced).
#![allow(unsafe_code)]

use crate::aig::Aig;
use crate::lit::Lit;
use crate::sim::SimVectors;

/// One bytecode op. Operand fields are value-buffer *slots* (row indices);
/// fanin complements are part of the opcode, not a runtime mask load.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `dst = a & b`.
    And { dst: u32, a: u32, b: u32 },
    /// `dst = a & !b`.
    AndC { dst: u32, a: u32, b: u32 },
    /// `dst = !a & !b`.
    Nor { dst: u32, a: u32, b: u32 },
    /// `dst = word block of primary input pi`.
    Load { dst: u32, pi: u32 },
    /// `dst = 0` (the constant node).
    Zero { dst: u32 },
}

/// Geometry of one program run: destination buffer, words per row, column
/// offset, and block width.
#[derive(Clone, Copy)]
struct Frame {
    base: *mut u64,
    stride: usize,
    w0: usize,
    nb: usize,
}

/// A compiled simulation program: one op per node over a dense or strided
/// word matrix (row `v` = node `v`), with ops in level order.
///
/// ```
/// use aig::{Aig, compile::SimProgram, sim::SimVectors};
/// let mut g = Aig::new();
/// let a = g.add_pi();
/// let b = g.add_pi();
/// let x = g.xor(a, b);
/// g.add_po(x);
///
/// let prog = SimProgram::new(&g);
/// let mut sigs = SimVectors::zero(g.num_nodes(), 1);
/// prog.run_strided(&mut sigs, 0, 1, &[0b0011, 0b0101]);
/// // A node's row holds the node's own value: the PO complement is *not*
/// // folded into the matrix.
/// let raw = sigs.word(x.var() as usize, 0);
/// let xor = if x.is_compl() { !raw } else { raw };
/// assert_eq!(xor & 0b1111, 0b0011 ^ 0b0101);
/// ```
#[derive(Clone, Debug)]
pub struct SimProgram {
    ops: Vec<Op>,
    n_pis: usize,
}

impl SimProgram {
    /// Compiles `aig`: slot `v` is node `v`, and a run writes row `v` with
    /// node `v`'s value — `Zero` for the constant node, a `Load` per PI,
    /// and per gate the one two-input op its fanin complements select.
    ///
    /// # Panics
    /// Panics if a gate's fanin does not precede it in node order.
    pub fn new(aig: &Aig) -> SimProgram {
        let n = aig.num_nodes();
        // Node index -> PI index, for Load ops.
        let mut pi_of: Vec<u32> = vec![u32::MAX; n];
        for (i, &pi) in aig.pis().iter().enumerate() {
            pi_of[pi as usize] = i as u32;
        }
        let mut level: Vec<u32> = vec![0; n];
        let mut leveled: Vec<(u32, Op)> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let node = aig.node(v);
            let op = if node.is_const() {
                Op::Zero { dst: v }
            } else if node.is_pi() {
                Op::Load {
                    dst: v,
                    pi: pi_of[v as usize],
                }
            } else {
                let (a, b) = (node.fanin0(), node.fanin1());
                // The runner's bounds and no-alias argument rests on this.
                assert!(
                    a.var() < v && b.var() < v,
                    "gate {v}'s fanins {a} and {b} must precede it"
                );
                level[v as usize] = 1 + level[a.var() as usize].max(level[b.var() as usize]);
                gate_op(v, a, b)
            };
            leveled.push((level[v as usize], op));
        }
        // Stable, so node order breaks ties deterministically.
        leveled.sort_by_key(|&(lv, _)| lv);
        SimProgram {
            ops: leveled.into_iter().map(|(_, op)| op).collect(),
            n_pis: aig.num_pis(),
        }
    }

    /// Rows a run writes (the required value-buffer row count): one per
    /// node.
    pub fn n_slots(&self) -> usize {
        self.ops.len()
    }

    /// Primary inputs the program loads (`pi_block` is `n_pis * nb` words).
    pub fn n_pis(&self) -> usize {
        self.n_pis
    }

    /// Runs the program into columns `w0 .. w0 + nb` of a strided matrix
    /// (row = slot), reading `nb` words per PI from `pi_block` (PI-major:
    /// word `j` of PI `i` at `pi_block[i * nb + j]`).
    ///
    /// # Panics
    /// Panics if the matrix has the wrong row count, the column range is
    /// out of bounds, or `pi_block` has the wrong length.
    pub fn run_strided(&self, sigs: &mut SimVectors, w0: usize, nb: usize, pi_block: &[u64]) {
        assert_eq!(pi_block.len(), self.n_pis * nb, "nb words per PI required");
        assert!(w0 + nb <= sigs.n_words(), "column range out of bounds");
        assert_eq!(sigs.n_rows(), self.n_slots(), "one row per program slot");
        let frame = Frame {
            stride: sigs.n_words(),
            base: sigs.words_mut().as_mut_ptr(),
            w0,
            nb,
        };
        // SAFETY: the asserts above validated the matrix shape against
        // `n_slots`/stride, and compilation validated every op's slots;
        // see `run_ops` for the offset bound argument.
        unsafe { self.run_ops(frame, pi_block) }
    }

    /// Runs the program into a dense slot-major buffer (`nb` words per
    /// slot, word `j` of slot `s` at `vals[s * nb + j]`), resizing `vals`
    /// as needed. Exhaustive truth tables, the sequential stepper and the
    /// sweep's one-word window replay run this way.
    ///
    /// # Panics
    /// Panics if `pi_block.len() != n_pis * nb`.
    pub fn run_dense(&self, vals: &mut Vec<u64>, nb: usize, pi_block: &[u64]) {
        assert_eq!(pi_block.len(), self.n_pis * nb, "nb words per PI required");
        vals.clear();
        vals.resize(self.n_slots() * nb, 0);
        let frame = Frame {
            base: vals.as_mut_ptr(),
            stride: nb,
            w0: 0,
            nb,
        };
        // SAFETY: the buffer is exactly `n_slots * nb` words and every
        // op's slots were validated at compile time.
        unsafe { self.run_ops(frame, pi_block) }
    }

    /// Executes every op against a frame.
    ///
    /// # Safety
    /// `f.base` must point at a buffer of at least `n_slots * f.stride`
    /// words, exclusively borrowed for the call, with
    /// `f.w0 + f.nb <= f.stride`, and `pi_block` must hold `n_pis * f.nb`
    /// words. [`SimProgram::new`] emits one op per node with `dst` = its
    /// node (`< n_slots`) and asserts that every operand slot is `< dst`,
    /// so all touched offsets `slot * stride + w0 + j` (`j < nb`) are in
    /// bounds and no op's destination aliases its operands.
    unsafe fn run_ops(&self, f: Frame, pi_block: &[u64]) {
        let nb = f.nb;
        let at = |slot: u32| slot as usize * f.stride + f.w0;
        for op in &self.ops {
            match *op {
                Op::And { dst, a, b } => {
                    let d = f.base.add(at(dst));
                    let x = f.base.add(at(a)) as *const u64;
                    let y = f.base.add(at(b)) as *const u64;
                    for j in 0..nb {
                        *d.add(j) = *x.add(j) & *y.add(j);
                    }
                }
                Op::AndC { dst, a, b } => {
                    let d = f.base.add(at(dst));
                    let x = f.base.add(at(a)) as *const u64;
                    let y = f.base.add(at(b)) as *const u64;
                    for j in 0..nb {
                        *d.add(j) = *x.add(j) & !*y.add(j);
                    }
                }
                Op::Nor { dst, a, b } => {
                    let d = f.base.add(at(dst));
                    let x = f.base.add(at(a)) as *const u64;
                    let y = f.base.add(at(b)) as *const u64;
                    for j in 0..nb {
                        *d.add(j) = !(*x.add(j) | *y.add(j));
                    }
                }
                Op::Load { dst, pi } => {
                    let d = f.base.add(at(dst));
                    let src = &pi_block[pi as usize * nb..(pi as usize + 1) * nb];
                    for (j, &w) in src.iter().enumerate() {
                        *d.add(j) = w;
                    }
                }
                Op::Zero { dst } => {
                    let d = f.base.add(at(dst));
                    for j in 0..nb {
                        *d.add(j) = 0;
                    }
                }
            }
        }
    }
}

/// Word `w` of literal `lit` in a dense buffer that
/// [`SimProgram::run_dense`] wrote with `stride` words per slot: its node's
/// row, complemented if the literal is.
#[inline]
pub(crate) fn lit_word(vals: &[u64], stride: usize, lit: Lit, w: usize) -> u64 {
    vals[lit.var() as usize * stride + w] ^ u64::from(lit.is_compl()).wrapping_neg()
}

/// The op for gate `dst = a & b`, complements baked into the opcode
/// (`!a & b` normalises to `AndC` by swapping the operands).
fn gate_op(dst: u32, a: Lit, b: Lit) -> Op {
    let (x, y) = (a.var(), b.var());
    match (a.is_compl(), b.is_compl()) {
        (false, false) => Op::And { dst, a: x, b: y },
        (false, true) => Op::AndC { dst, a: x, b: y },
        (true, false) => Op::AndC { dst, a: y, b: x },
        (true, true) => Op::Nor { dst, a: x, b: y },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::sim::tests::assert_column_matches_eval;

    /// A graph exercising every two-input opcode and both output
    /// complements.
    fn mixed_graph() -> Aig {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.and(a, b); // And
        let y = g.and(a, !b); // AndC
        let z = g.and(!a, !c); // Nor
        let t = g.xor(x, z);
        let u = g.mux(y, t, !x);
        g.add_po(u);
        g.add_po(!t);
        g.add_po(a);
        g
    }

    fn run_full(g: &Aig, pi_words: &[u64]) -> SimVectors {
        let prog = SimProgram::new(g);
        let mut sv = SimVectors::zero(g.num_nodes(), 1);
        prog.run_strided(&mut sv, 0, 1, pi_words);
        sv
    }

    /// The reference is the scalar `Aig::eval` interpreter, node by node.
    #[test]
    fn full_matches_interpreter() {
        let g = mixed_graph();
        let pi_words = [0xDEAD_BEEF_0123_4567u64, 0xA5A5_5A5A_FF00_0F0F, 0x1357];
        assert_column_matches_eval(&g, &run_full(&g, &pi_words), 0);
    }

    /// A dense run read back through `lit_word`: constant POs, a
    /// complemented PI passthrough and a complemented gate, next to a gate
    /// no PO reads.
    #[test]
    fn constant_and_passthrough_outputs() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let _dead = g.or(a, b);
        let x = g.and(a, !b);
        for po in [Lit::FALSE, Lit::TRUE, !a, !x] {
            g.add_po(po);
        }
        let (aw, bw) = ([0b0101u64, 0b1100], [0b0011u64, 0b1010]);
        let mut vals = Vec::new();
        SimProgram::new(&g).run_dense(&mut vals, 2, &[aw[0], aw[1], bw[0], bw[1]]);
        for w in 0..2 {
            let expect = [0, !0, !aw[w], !(aw[w] & !bw[w])];
            for (&po, e) in g.pos().iter().zip(expect) {
                assert_eq!(lit_word(&vals, 2, po, w), e, "PO {po}, word {w}");
            }
        }
    }

    /// Injects raw nodes that `Aig::and`'s construction-time folding makes
    /// unreachable from the public API: gates with constant, duplicate,
    /// and complementary fanins must still compile to the rows the scalar
    /// `Aig::eval` interpreter computes for them. No fold pass is needed:
    /// row 0 is all zeros, so an AND with the constant row is the fold.
    #[test]
    fn degenerate_gates_match_interpreter() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let f = Lit::from_var(0, false); // const false literal
        let t = Lit::from_var(0, true); // const true literal
        let push = |g: &mut Aig, f0: Lit, f1: Lit| {
            let v = g.num_nodes() as u32;
            g.nodes.push(Node::and(f0.min(f1), f0.max(f1)));
            Lit::from_var(v, false)
        };
        let z = push(&mut g, f, a); // 0 & a  -> 0
        let o = push(&mut g, t, a); // 1 & a  -> a
        let d = push(&mut g, a, a); // a & a  -> a
        let x = push(&mut g, a, !a); // a & !a -> 0
        let chain = push(&mut g, o, !x); // o & !x -> a
        for l in [z, o, d, x, chain] {
            g.add_po(l);
        }
        let pi_words = [0xF0F0_1234_5678_9ABCu64];
        assert_column_matches_eval(&g, &run_full(&g, &pi_words), 0);
    }

    /// A gate naming a later node would make the runner read a row it has
    /// not written yet, or write over its own operand.
    #[test]
    #[should_panic(expected = "must precede it")]
    fn gate_naming_a_later_node_panics() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let later = Lit::from_var(g.num_nodes() as u32 + 1, false);
        g.nodes.push(Node::and(a, later));
        g.nodes.push(Node::and(a, !a));
        SimProgram::new(&g);
    }

    #[test]
    fn strided_runs_only_touch_their_columns() {
        let g = mixed_graph();
        let prog = SimProgram::new(&g);
        let mut sv = SimVectors::zero(g.num_nodes(), 3);
        for r in 0..g.num_nodes() {
            sv.row_mut(r).fill(0x5555_5555_5555_5555);
        }
        let pi_words = [1u64, 2, 3];
        prog.run_strided(&mut sv, 1, 1, &pi_words);
        for r in 0..g.num_nodes() {
            assert_eq!(sv.word(r, 0), 0x5555_5555_5555_5555, "row {r} col 0");
            assert_eq!(sv.word(r, 2), 0x5555_5555_5555_5555, "row {r} col 2");
        }
        let mut one = SimVectors::zero(g.num_nodes(), 1);
        prog.run_strided(&mut one, 0, 1, &pi_words);
        for r in 0..g.num_nodes() {
            assert_eq!(sv.word(r, 1), one.word(r, 0), "row {r}");
        }
    }

    #[test]
    fn levels_partition_ops() {
        // Ops run in level order: recomputing each op's level from its
        // operands gives a non-decreasing sequence, so the op list splits
        // into contiguous runs of one level each, lowest first.
        let g = mixed_graph();
        let prog = SimProgram::new(&g);
        assert_eq!(prog.n_slots(), g.num_nodes());
        let mut level = vec![0u32; prog.n_slots()];
        let mut last = 0;
        for op in &prog.ops {
            let (dst, lv) = match *op {
                Op::And { dst, a, b } | Op::AndC { dst, a, b } | Op::Nor { dst, a, b } => {
                    (dst, 1 + level[a as usize].max(level[b as usize]))
                }
                Op::Load { dst, .. } | Op::Zero { dst } => (dst, 0),
            };
            level[dst as usize] = lv;
            assert!(lv >= last, "{op:?} at level {lv} after level {last}");
            last = lv;
        }
        assert!(last >= 2, "mixed_graph spans several levels");
    }
}
