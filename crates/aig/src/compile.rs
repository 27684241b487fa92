//! Compiled simulation: the crate's one simulation engine.
//!
//! A [`SimProgram`] lowers the graph **once** into a flat bytecode of fused
//! ops whose operand slots are pre-resolved row indices and whose fanin
//! complements are baked into the opcode, so a run is a tight,
//! branch-light, allocation-free sweep over a contiguous op array. Runs go
//! straight into the strided [`SimVectors`] matrix
//! ([`SimProgram::run_strided`]) or into a dense slot-major buffer
//! ([`SimProgram::run_dense`]), on the caller's thread.
//!
//! Two lowering modes exist:
//!
//! * [`SimProgram::full`] materialises **every** node's value row — the
//!   engine behind signature matrices, where consumers (the SAT sweeper's
//!   candidate classes, resubstitution filters) read arbitrary node rows.
//! * [`SimProgram::outputs_only`] keeps only the cone of the outputs and
//!   **fuses fanout-free AND chains into multi-input ops** (`AndN`),
//!   dropping dead and folded nodes — the engine behind exhaustive truth
//!   tables ([`crate::sim::output_tts`]), the compiled sequential stepper
//!   ([`crate::seq::SeqStepper`]) and BMC trace replay, where only POs and
//!   latch next-states matter.
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

/// Maximum operand count of a fused multi-input AND.
const MAX_FUSE: usize = 8;

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
    /// `dst = AND over operand refs` (`operands[start .. start + len]`,
    /// each encoded `slot << 1 | compl`) — a fused fanout-free chain.
    AndN { dst: u32, start: u32, len: u32 },
    /// `dst = word block of primary input pi`.
    Load { dst: u32, pi: u32 },
    /// `dst = 0` or `dst = !0`.
    Const { dst: u32, ones: bool },
    /// `dst = src value` (`src = slot << 1 | compl`) — a gate folded to a
    /// passthrough whose row must still be materialised.
    Copy { dst: u32, src: u32 },
}

impl Op {
    fn dst(&self) -> u32 {
        match *self {
            Op::And { dst, .. }
            | Op::AndC { dst, .. }
            | Op::Nor { dst, .. }
            | Op::AndN { dst, .. }
            | Op::Load { dst, .. }
            | Op::Const { dst, .. }
            | Op::Copy { dst, .. } => dst,
        }
    }
}

/// Where an output's value lives after a program run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutRef {
    /// The output is a compile-time constant.
    Const(bool),
    /// The output is row `slot`, complemented if `compl`.
    Slot {
        /// Value-buffer row holding the output.
        slot: u32,
        /// Whether the stored value must be complemented.
        compl: bool,
    },
}

impl OutRef {
    /// Reads word `w` of this output from a dense value buffer with
    /// `stride` words per slot.
    #[inline]
    pub fn read(&self, vals: &[u64], stride: usize, w: usize) -> u64 {
        match *self {
            OutRef::Const(ones) => {
                if ones {
                    !0
                } else {
                    0
                }
            }
            OutRef::Slot { slot, compl } => {
                let v = vals[slot as usize * stride + w];
                if compl {
                    !v
                } else {
                    v
                }
            }
        }
    }
}

/// A node's resolved value source during compilation: constant folds and
/// passthrough chains are looked through, so consumers always reference
/// the canonical producer.
#[derive(Clone, Copy, Debug)]
enum NRef {
    Const(bool),
    Slot(u32, bool),
}

impl NRef {
    fn xor(self, compl: bool) -> NRef {
        match self {
            NRef::Const(b) => NRef::Const(b ^ compl),
            NRef::Slot(s, c) => NRef::Slot(s, c ^ compl),
        }
    }
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

/// A compiled simulation program: flat fused-op bytecode over a dense or
/// strided word matrix, with ops in level order.
///
/// ```
/// use aig::{Aig, compile::SimProgram, sim::SimVectors};
/// let mut g = Aig::new();
/// let a = g.add_pi();
/// let b = g.add_pi();
/// let x = g.xor(a, b);
/// g.add_po(x);
///
/// let prog = SimProgram::full(&g);
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
    /// Operand pool for `AndN` ops (`slot << 1 | compl` each).
    operands: Vec<u32>,
    n_slots: usize,
    n_pis: usize,
    outputs: Vec<OutRef>,
    fused: usize,
}

impl SimProgram {
    /// Compiles a program that materialises **every** node: slot `v` is
    /// node `v`, and a run writes row `v` with node `v`'s value. No chain
    /// fusion (every intermediate row is demanded); constant and
    /// passthrough folds still compile to cheap `Const`/`Copy` ops and
    /// are looked through by consumers.
    pub fn full(aig: &Aig) -> SimProgram {
        compile(aig, true)
    }

    /// Compiles a program that computes only the cone of the outputs
    /// (`aig.pos()`), with fanout-free non-complemented AND chains fused
    /// into multi-input ops and dead or folded nodes dropped. Slots are
    /// compacted; read results through [`SimProgram::output`] /
    /// [`OutRef::read`].
    pub fn outputs_only(aig: &Aig) -> SimProgram {
        compile(aig, false)
    }

    /// Rows a run writes (the required value-buffer row count).
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Primary inputs the program loads (`pi_block` is `n_pis * nb` words).
    pub fn n_pis(&self) -> usize {
        self.n_pis
    }

    /// Total op count.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Fused multi-input ops emitted ([`SimProgram::outputs_only`] only).
    pub fn fused_ops(&self) -> usize {
        self.fused
    }

    /// Output count (mirrors `aig.num_pos()`).
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Where output `o`'s value lives after a run.
    pub fn output(&self, o: usize) -> OutRef {
        self.outputs[o]
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
        assert_eq!(sigs.n_rows(), self.n_slots, "one row per program slot");
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
    /// as needed. This is the sequential stepper's per-frame kernel.
    ///
    /// # Panics
    /// Panics if `pi_block.len() != n_pis * nb`.
    pub fn run_dense(&self, vals: &mut Vec<u64>, nb: usize, pi_block: &[u64]) {
        assert_eq!(pi_block.len(), self.n_pis * nb, "nb words per PI required");
        vals.clear();
        vals.resize(self.n_slots * nb, 0);
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
    /// words. Compilation guarantees every op's `dst < n_slots` and every
    /// operand slot `< dst` (topological emission), so all touched offsets
    /// `slot * stride + w0 + j` (`j < nb`) are in bounds and no op's
    /// destination aliases its operands.
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
                Op::AndN { dst, start, len } => {
                    // Accumulate in the dst row: the first operand seeds
                    // it, the rest AND into it. The dst row is strictly
                    // above every operand row, so nothing aliases.
                    let d = f.base.add(at(dst));
                    let refs = &self.operands[start as usize..(start + len) as usize];
                    let (first, rest) = refs.split_first().expect("fused op has operands");
                    let m = ((first & 1) as u64).wrapping_neg();
                    let p = f.base.add(at(first >> 1)) as *const u64;
                    for j in 0..nb {
                        *d.add(j) = *p.add(j) ^ m;
                    }
                    for &r in rest {
                        let m = ((r & 1) as u64).wrapping_neg();
                        let p = f.base.add(at(r >> 1)) as *const u64;
                        for j in 0..nb {
                            *d.add(j) &= *p.add(j) ^ m;
                        }
                    }
                }
                Op::Load { dst, pi } => {
                    let d = f.base.add(at(dst));
                    let src = &pi_block[pi as usize * nb..(pi as usize + 1) * nb];
                    for (j, &w) in src.iter().enumerate() {
                        *d.add(j) = w;
                    }
                }
                Op::Const { dst, ones } => {
                    let d = f.base.add(at(dst));
                    let w = if ones { !0u64 } else { 0 };
                    for j in 0..nb {
                        *d.add(j) = w;
                    }
                }
                Op::Copy { dst, src } => {
                    let d = f.base.add(at(dst));
                    let m = ((src & 1) as u64).wrapping_neg();
                    let p = f.base.add(at(src >> 1)) as *const u64;
                    for j in 0..nb {
                        *d.add(j) = *p.add(j) ^ m;
                    }
                }
            }
        }
    }
}

/// Resolves a fanin literal through the per-node canonical refs.
fn resolve(refs: &[Option<NRef>], lit: Lit) -> NRef {
    refs[lit.var() as usize]
        .expect("fanin precedes its gate in topological order")
        .xor(lit.is_compl())
}

/// One AND gate's resolved shape: a constant fold, a passthrough of one
/// operand, or a real two-input AND.
enum Lowered {
    Const(bool),
    Pass(u32, bool),
    Gate((u32, bool), (u32, bool)),
}

fn lower_and(ra: NRef, rb: NRef) -> Lowered {
    match (ra, rb) {
        (NRef::Const(false), _) | (_, NRef::Const(false)) => Lowered::Const(false),
        (NRef::Const(true), NRef::Const(true)) => Lowered::Const(true),
        (NRef::Const(true), NRef::Slot(s, c)) | (NRef::Slot(s, c), NRef::Const(true)) => {
            Lowered::Pass(s, c)
        }
        (NRef::Slot(s0, c0), NRef::Slot(s1, c1)) => {
            if s0 == s1 {
                if c0 == c1 {
                    Lowered::Pass(s0, c0)
                } else {
                    Lowered::Const(false)
                }
            } else {
                Lowered::Gate((s0, c0), (s1, c1))
            }
        }
    }
}

/// Emits the two-input op for a real gate, complements baked into the
/// opcode (`!a & b` normalises to `AndC` by swapping the operands).
fn two_input_op(dst: u32, a: (u32, bool), b: (u32, bool)) -> Op {
    match (a.1, b.1) {
        (false, false) => Op::And {
            dst,
            a: a.0,
            b: b.0,
        },
        (false, true) => Op::AndC {
            dst,
            a: a.0,
            b: b.0,
        },
        (true, false) => Op::AndC {
            dst,
            a: b.0,
            b: a.0,
        },
        (true, true) => Op::Nor {
            dst,
            a: a.0,
            b: b.0,
        },
    }
}

fn compile(aig: &Aig, materialize_all: bool) -> SimProgram {
    let n = aig.num_nodes();
    // Node index -> PI index, for Load ops.
    let mut pi_of: Vec<u32> = vec![u32::MAX; n];
    for (i, &pi) in aig.pis().iter().enumerate() {
        pi_of[pi as usize] = i as u32;
    }

    // Pass 1: resolve every node to its canonical source (in node-id
    // space), folding constants and looking through passthrough gates.
    // Public-API graphs never contain foldable gates (`Aig::and` folds at
    // construction), but the lowering stays total for robustness.
    let mut refs: Vec<Option<NRef>> = vec![None; n];
    refs[0] = Some(NRef::Const(false));
    // Real (unfolded) gates keep their resolved operand pair here: each
    // operand is a (source node, complemented) edge.
    type GatePair = ((u32, bool), (u32, bool));
    let mut gate_ops: Vec<Option<GatePair>> = vec![None; n];
    for v in 1..n as u32 {
        let node = aig.node(v);
        if node.is_pi() {
            refs[v as usize] = Some(NRef::Slot(v, false));
            continue;
        }
        let ra = resolve(&refs, node.fanin0());
        let rb = resolve(&refs, node.fanin1());
        refs[v as usize] = Some(match lower_and(ra, rb) {
            Lowered::Const(b) => NRef::Const(b),
            Lowered::Pass(s, c) => NRef::Slot(s, c),
            Lowered::Gate(a, b) => {
                gate_ops[v as usize] = Some((a, b));
                NRef::Slot(v, false)
            }
        });
    }

    let mut ops: Vec<Op> = Vec::new();
    let mut op_level: Vec<u32> = Vec::new();
    let mut operands: Vec<u32> = Vec::new();
    let mut level: Vec<u32> = vec![0; n];
    let mut fused = 0usize;

    if materialize_all {
        // Slot v = node v; every node gets exactly one op.
        ops.reserve(n);
        for v in 0..n as u32 {
            let node = aig.node(v);
            let (op, lv) = if node.is_const() {
                (
                    Op::Const {
                        dst: v,
                        ones: false,
                    },
                    0,
                )
            } else if node.is_pi() {
                (
                    Op::Load {
                        dst: v,
                        pi: pi_of[v as usize],
                    },
                    0,
                )
            } else if let Some((a, b)) = gate_ops[v as usize] {
                let lv = 1 + level[a.0 as usize].max(level[b.0 as usize]);
                (two_input_op(v, a, b), lv)
            } else {
                // Folded gate: its row is still demanded (the sweeper
                // reads every row), but consumers reference the canonical
                // source directly.
                match refs[v as usize].expect("resolved above") {
                    NRef::Const(b) => (Op::Const { dst: v, ones: b }, 0),
                    NRef::Slot(s, c) => (
                        Op::Copy {
                            dst: v,
                            src: s << 1 | c as u32,
                        },
                        1 + level[s as usize],
                    ),
                }
            };
            level[v as usize] = lv;
            op_level.push(lv);
            ops.push(op);
        }
        let outputs = aig
            .pos()
            .iter()
            .map(|&po| match resolve(&refs, po) {
                NRef::Const(b) => OutRef::Const(b),
                NRef::Slot(s, c) => OutRef::Slot { slot: s, compl: c },
            })
            .collect();
        return finish(ops, op_level, operands, n, aig.num_pis(), outputs, fused);
    }

    // Live cone of the outputs over the *resolved* operand graph.
    let mut live = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mark = |s: u32, live: &mut Vec<bool>, stack: &mut Vec<u32>| {
        if !live[s as usize] {
            live[s as usize] = true;
            stack.push(s);
        }
    };
    for &po in aig.pos() {
        if let NRef::Slot(s, _) = resolve(&refs, po) {
            mark(s, &mut live, &mut stack);
        }
    }
    while let Some(v) = stack.pop() {
        if let Some((a, b)) = gate_ops[v as usize] {
            mark(a.0, &mut live, &mut stack);
            mark(b.0, &mut live, &mut stack);
        }
    }
    // Fanout counts over the live resolved graph (outputs included),
    // deciding which chains are fusable.
    let mut fan = vec![0u32; n];
    for v in 0..n {
        if live[v] {
            if let Some((a, b)) = gate_ops[v] {
                fan[a.0 as usize] += 1;
                fan[b.0 as usize] += 1;
            }
        }
    }
    for &po in aig.pos() {
        if let NRef::Slot(s, _) = resolve(&refs, po) {
            fan[s as usize] += 1;
        }
    }
    // Gather per-gate operand lists (node-id refs, `id << 1 | compl`),
    // inlining single-fanout, non-complemented fanin gates up to MAX_FUSE
    // operands. Topological order guarantees a fanin's list is final
    // before its consumer looks at it.
    let mut gathered: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut absorbed = vec![false; n];
    for v in 0..n {
        if !live[v] || gate_ops[v].is_none() {
            continue;
        }
        let (a, b) = gate_ops[v].expect("checked above");
        let mut list: Vec<u32> = Vec::with_capacity(2);
        for (s, c) in [a, b] {
            let s_us = s as usize;
            let fusable = !c
                && gate_ops[s_us].is_some()
                && fan[s_us] == 1
                && list.len() + gathered[s_us].len() < MAX_FUSE;
            if fusable {
                absorbed[s_us] = true;
                let inner = std::mem::take(&mut gathered[s_us]);
                list.extend(inner);
            } else {
                list.push(s << 1 | c as u32);
            }
        }
        gathered[v] = list;
    }
    // Slot assignment (topological, compacted) and op emission. Only PIs
    // and un-absorbed real gates survive: folded and constant nodes are
    // looked through by `resolve`, so they are never marked live.
    let mut slot_of: Vec<u32> = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        if !live[v] || absorbed[v] {
            continue;
        }
        let dst = next;
        next += 1;
        slot_of[v] = dst;
        if aig.node(v as u32).is_pi() {
            op_level.push(0);
            ops.push(Op::Load { dst, pi: pi_of[v] });
            continue;
        }
        debug_assert!(gate_ops[v].is_some(), "live non-PI node must be a gate");
        let list = &gathered[v];
        let lv = 1 + list
            .iter()
            .map(|&r| level[(r >> 1) as usize])
            .max()
            .expect("a gate has operands");
        let mapped: Vec<u32> = list
            .iter()
            .map(|&r| slot_of[(r >> 1) as usize] << 1 | (r & 1))
            .collect();
        debug_assert!(mapped.iter().all(|&r| r >> 1 < dst));
        let op = if mapped.len() == 2 {
            two_input_op(
                dst,
                (mapped[0] >> 1, mapped[0] & 1 != 0),
                (mapped[1] >> 1, mapped[1] & 1 != 0),
            )
        } else {
            fused += 1;
            let start = operands.len() as u32;
            operands.extend_from_slice(&mapped);
            Op::AndN {
                dst,
                start,
                len: mapped.len() as u32,
            }
        };
        level[v] = lv;
        op_level.push(lv);
        ops.push(op);
    }
    let outputs = aig
        .pos()
        .iter()
        .map(|&po| match resolve(&refs, po) {
            NRef::Const(b) => OutRef::Const(b),
            NRef::Slot(s, c) => OutRef::Slot {
                slot: slot_of[s as usize],
                compl: c,
            },
        })
        .collect();
    finish(
        ops,
        op_level,
        operands,
        next as usize,
        aig.num_pis(),
        outputs,
        fused,
    )
}

/// Sorts the op list by level (stable, so emission order breaks ties
/// deterministically) and assembles the program.
fn finish(
    ops: Vec<Op>,
    op_level: Vec<u32>,
    operands: Vec<u32>,
    n_slots: usize,
    n_pis: usize,
    outputs: Vec<OutRef>,
    fused: usize,
) -> SimProgram {
    let mut leveled: Vec<(u32, Op)> = op_level.into_iter().zip(ops).collect();
    leveled.sort_by_key(|&(lv, _)| lv);
    let ops: Vec<Op> = leveled.into_iter().map(|(_, op)| op).collect();
    debug_assert!(ops.iter().all(|op| (op.dst() as usize) < n_slots));
    SimProgram {
        ops,
        operands,
        n_slots,
        n_pis,
        outputs,
        fused,
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
        let prog = SimProgram::full(g);
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

    #[test]
    fn outputs_only_matches_eval() {
        let g = mixed_graph();
        let prog = SimProgram::outputs_only(&g);
        assert!(prog.n_slots() <= g.num_nodes());
        let pi_words = [0b1100_1010u64, 0b1111_0000, 0b0110_0110];
        let mut vals = Vec::new();
        prog.run_dense(&mut vals, 1, &pi_words);
        for bit in 0..8 {
            let ins: Vec<bool> = pi_words.iter().map(|w| w >> bit & 1 != 0).collect();
            let expect = g.eval(&ins);
            for (o, &e) in expect.iter().enumerate() {
                let got = prog.output(o).read(&vals, 1, 0) >> bit & 1 != 0;
                assert_eq!(got, e, "po {o} bit {bit}");
            }
        }
    }

    #[test]
    fn fusion_collapses_and_chains() {
        // and_many over 6 PIs builds a balanced, fanout-free AND tree:
        // outputs_only must fuse it into a single multi-input op.
        let mut g = Aig::new();
        let pis = g.add_pis(6);
        let all = g.and_many(&pis);
        g.add_po(all);
        let prog = SimProgram::outputs_only(&g);
        assert_eq!(prog.fused_ops(), 1, "one fused op for the whole tree");
        assert_eq!(prog.num_ops(), 6 + 1, "6 loads + 1 fused AND");
        let pi_words: Vec<u64> = (0..6).map(|i| !(1u64 << i)).collect();
        let mut vals = Vec::new();
        prog.run_dense(&mut vals, 1, &pi_words);
        // Bit j of the AND is 0 iff some PI has bit j = 0: bits 0..6 zero.
        let out = prog.output(0).read(&vals, 1, 0);
        assert_eq!(out & 0xFF, 0b1100_0000);
    }

    #[test]
    fn dead_logic_is_dropped() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let live = g.and(a, b);
        let _dead = g.or(a, b);
        g.add_po(live);
        let prog = SimProgram::outputs_only(&g);
        assert_eq!(prog.num_ops(), 3, "2 loads + 1 AND; the OR is dead");
    }

    #[test]
    fn constant_and_passthrough_outputs() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(Lit::FALSE);
        g.add_po(Lit::TRUE);
        g.add_po(!a);
        let prog = SimProgram::outputs_only(&g);
        assert_eq!(prog.output(0), OutRef::Const(false));
        assert_eq!(prog.output(1), OutRef::Const(true));
        let mut vals = Vec::new();
        prog.run_dense(&mut vals, 1, &[0b01]);
        assert_eq!(prog.output(2).read(&vals, 1, 0), !0b01);
    }

    /// Injects raw nodes to exercise the defensive fold paths that
    /// `Aig::and`'s construction-time folding makes unreachable from the
    /// public API: gates with constant, duplicate, and complementary
    /// fanins must still compile to the rows the scalar `Aig::eval`
    /// interpreter computes for them.
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
        let z = push(&mut g, f, a); // 0 & a  -> const 0
        let o = push(&mut g, t, a); // 1 & a  -> copy a
        let d = push(&mut g, a, a); // a & a  -> copy a
        let x = push(&mut g, a, !a); // a & !a -> const 0
        let chain = push(&mut g, o, !x); // copy(a) & !const0 -> copy a
        for l in [z, o, d, x, chain] {
            g.add_po(l);
        }
        let pi_words = [0xF0F0_1234_5678_9ABCu64];
        assert_column_matches_eval(&g, &run_full(&g, &pi_words), 0);
        // outputs_only folds them away entirely: only the PI load remains,
        // and the fold-through outputs resolve to the PI's slot.
        let prog = SimProgram::outputs_only(&g);
        assert_eq!(prog.num_ops(), 1);
        assert_eq!(prog.output(0), OutRef::Const(false));
        assert_eq!(
            prog.output(1),
            OutRef::Slot {
                slot: 0,
                compl: false
            }
        );
    }

    #[test]
    fn strided_runs_only_touch_their_columns() {
        let g = mixed_graph();
        let prog = SimProgram::full(&g);
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
        for prog in [SimProgram::full(&g), SimProgram::outputs_only(&g)] {
            let mut level = vec![0u32; prog.n_slots()];
            let mut last = 0;
            for op in &prog.ops {
                let operands: Vec<u32> = match *op {
                    Op::And { a, b, .. } | Op::AndC { a, b, .. } | Op::Nor { a, b, .. } => {
                        vec![a, b]
                    }
                    Op::AndN { start, len, .. } => prog.operands
                        [start as usize..(start + len) as usize]
                        .iter()
                        .map(|r| r >> 1)
                        .collect(),
                    Op::Copy { src, .. } => vec![src >> 1],
                    Op::Load { .. } | Op::Const { .. } => Vec::new(),
                };
                let lv = operands.iter().map(|&s| level[s as usize] + 1).max();
                let lv = lv.unwrap_or(0);
                level[op.dst() as usize] = lv;
                assert!(lv >= last, "{op:?} at level {lv} after level {last}");
                last = lv;
            }
            assert!(last >= 2, "mixed_graph spans several levels");
        }
    }
}
