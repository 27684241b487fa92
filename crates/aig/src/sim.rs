//! Bit-parallel simulation.
//!
//! Each `u64` word carries 64 independent input patterns, so one sweep over
//! the node array evaluates the circuit on 64 assignments at once. Random
//! simulation underpins probabilistic equivalence checking, resubstitution
//! filtering, and the structural embedding's functional signatures.
//!
//! Signatures live in a [`SimVectors`] matrix: one flat `Vec<u64>` holding
//! `n_words` words per row (row-major, stride `n_words`), one row per AIG
//! node. Every producer here runs one compiled [`SimProgram`], which writes
//! straight into the matrix's columns, so neither the producer nor any
//! consumer allocates per-node rows.

use crate::aig::Aig;
use crate::compile::{lit_word, SimProgram};
use crate::tt::Tt;
use rand::{Rng, SeedableRng};

/// A flat, strided matrix of simulation words: `n_rows` rows of `n_words`
/// `u64` words each, in one contiguous buffer.
///
/// Row `r` occupies `words[r * n_words .. (r + 1) * n_words]`. For
/// node-signature matrices the row index is the node id; for PO-signature
/// matrices it is the output index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimVectors {
    words: Vec<u64>,
    n_words: usize,
}

impl SimVectors {
    /// An empty matrix; shape it with [`SimVectors::reshape`].
    pub fn new() -> SimVectors {
        SimVectors::default()
    }

    /// An all-zero matrix of `n_rows * n_words` words.
    pub fn zero(n_rows: usize, n_words: usize) -> SimVectors {
        SimVectors {
            words: vec![0u64; n_rows * n_words],
            n_words,
        }
    }

    /// Reshapes to `n_rows * n_words`, reusing the existing buffer —
    /// repeated simulations (e.g. one per sweep round) pay the matrix
    /// allocation once instead of remapping megabytes per call.
    ///
    /// Retained cells are *not* cleared: contents are unspecified until
    /// written. Every producer here overwrites whole columns (each program
    /// run writes every row), so no memset is needed between reuses.
    pub fn reshape(&mut self, n_rows: usize, n_words: usize) {
        self.n_words = n_words;
        self.words.resize(n_rows * n_words, 0);
    }

    /// Words per row (the stride).
    #[inline]
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.words.len().checked_div(self.n_words).unwrap_or(0)
    }

    /// Row `r` as a word slice (borrow, no copy).
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.n_words..(r + 1) * self.n_words]
    }

    /// Mutable access to row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.n_words..(r + 1) * self.n_words]
    }

    /// Word `w` of row `r`.
    #[inline]
    pub fn word(&self, r: usize, w: usize) -> u64 {
        self.words[r * self.n_words + w]
    }

    /// The whole word buffer, for the compiled program's strided runner.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Order-sensitive checksum of the whole matrix.
    ///
    /// Every word of every row contributes, with a per-word and per-row
    /// rotation so that moving a word between columns or rows changes the
    /// result — unlike a plain XOR fold, where symmetric contents (or a
    /// row XORing to zero) make disagreement invisible. Used by the bench
    /// harness and CI to pin simulation output across changes.
    pub fn checksum(&self) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (self.words.len() as u64);
        if self.n_words == 0 {
            return h;
        }
        for row in self.words.chunks_exact(self.n_words) {
            let mut x = 0u64;
            for (j, &w) in row.iter().enumerate() {
                x ^= w.rotate_left((j & 63) as u32);
            }
            h = h.rotate_left(7) ^ x;
        }
        h
    }
}

/// Per-node signatures over `n_words * 64` uniformly random patterns.
///
/// `row(v)[w]` is simulation word `w` of node `v`. Deterministic for a
/// fixed seed.
pub fn random_signatures(aig: &Aig, n_words: usize, seed: u64) -> SimVectors {
    let mut sigs = SimVectors::new();
    random_signatures_into(aig, n_words, seed, &mut sigs);
    sigs
}

/// Columns per blocked simulation pass: one 64-byte cache line of words.
const SIM_BLOCK: usize = 8;

/// [`random_signatures`] into a caller-owned matrix, reusing its buffer:
/// one [`SimProgram::new`] compilation, then [`random_columns`].
pub fn random_signatures_into(aig: &Aig, n_words: usize, seed: u64, sigs: &mut SimVectors) {
    sigs.reshape(aig.num_nodes(), n_words);
    random_columns(&SimProgram::new(aig), sigs, 0, n_words, seed);
}

/// Decorrelates a per-block random stream from the base seed (splitmix64
/// finalizer). Block `b`'s words depend only on `(seed, b)`, never on the
/// blocks before it, so a fill at a column offset draws the same patterns
/// as one at column 0.
#[inline]
fn block_seed(seed: u64, block: u64) -> u64 {
    let mut z = seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills one random block's PI words from its private stream.
fn fill_pi_block(pi_block: &mut [u64], seed: u64, block: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(block_seed(seed, block));
    for p in pi_block.iter_mut() {
        *p = rng.gen();
    }
}

/// Fills columns `w0 .. w0 + n_cols` of an already-shaped matrix with
/// uniformly random patterns through a compiled program, in blocked
/// passes of `SIM_BLOCK` (8) columns. Deterministic for a fixed seed; shared
/// by the signature producers and the sweep engine's per-round
/// resimulation.
///
/// Block `b` (columns `w0 + 8b ..`) draws its PI words PI-major from a
/// private RNG stream keyed by `(seed, b)`. Row `v` of the matrix is
/// node `v`.
///
/// # Panics
/// Panics if the matrix shape does not match the program
/// (`n_rows == prog.n_slots()`) or the column range is out of bounds.
pub fn random_columns(
    prog: &SimProgram,
    sigs: &mut SimVectors,
    w0: usize,
    n_cols: usize,
    seed: u64,
) {
    let n_pis = prog.n_pis();
    let mut pi_block = vec![0u64; n_pis * SIM_BLOCK];
    for (b, w) in (w0..w0 + n_cols).step_by(SIM_BLOCK).enumerate() {
        let nb = SIM_BLOCK.min(w0 + n_cols - w);
        let block = &mut pi_block[..n_pis * nb];
        fill_pi_block(block, seed, b as u64);
        prog.run_strided(sigs, w, nb, block);
    }
}

/// Replays `(column, PI words)` jobs through a compiled program: each job
/// writes one column from one word per PI. The sweep engine replays its
/// counterexample chunks this way.
///
/// # Panics
/// Panics if the matrix shape does not match the program, a column is out
/// of range, or a job does not hold one word per PI.
pub fn simulate_columns(prog: &SimProgram, sigs: &mut SimVectors, jobs: &[(usize, &[u64])]) {
    for &(w, pi_words) in jobs {
        prog.run_strided(sigs, w, 1, pi_words);
    }
}

/// PO signatures over `n_words * 64` random patterns (complement applied).
///
/// Row `o` is the signature of output `o`. The node matrix is simulated
/// once; each output row is then produced by one flat copy that borrows
/// the source row in place and folds in the complement — no per-PO row
/// allocations.
pub fn po_signatures(aig: &Aig, n_words: usize, seed: u64) -> SimVectors {
    let sigs = random_signatures(aig, n_words, seed);
    let mut out = SimVectors::zero(aig.num_pos(), n_words);
    for (o, po) in aig.pos().iter().enumerate() {
        let src = sigs.row(po.var() as usize);
        for (d, &s) in out.row_mut(o).iter_mut().zip(src) {
            *d = if po.is_compl() { !s } else { s };
        }
    }
    out
}

/// Complete truth tables of every PO over the PIs (exhaustive simulation).
///
/// # Panics
/// Panics if the graph has more than [`Tt::MAX_VARS`] primary inputs.
pub fn output_tts(aig: &Aig) -> Vec<Tt> {
    let n = aig.num_pis();
    assert!(n <= Tt::MAX_VARS, "too many PIs for exhaustive simulation");
    let n_words = if n <= 6 { 1 } else { 1 << (n - 6) };
    // Only the outputs are read, so the program's value buffer holds one
    // block of at most 8 words per node: memory stays
    // O(num_nodes + num_pos * n_words) even at 20 PIs, where a full
    // node-by-word matrix would be gigabytes.
    let prog = SimProgram::new(aig);
    let mut po_words = vec![vec![0u64; n_words]; aig.num_pos()];
    let mut pi_block = Vec::with_capacity(n * SIM_BLOCK);
    let mut vals = Vec::new();
    for w0 in (0..n_words).step_by(SIM_BLOCK) {
        let nb = SIM_BLOCK.min(n_words - w0);
        // Word w of PI i's elementary truth table, PI-major.
        pi_block.clear();
        for i in 0..n {
            pi_block.extend((w0..w0 + nb).map(|w| {
                if i < 6 {
                    crate::tt::VAR_MASKS[i]
                } else if w >> (i - 6) & 1 != 0 {
                    u64::MAX
                } else {
                    0
                }
            }));
        }
        prog.run_dense(&mut vals, nb, &pi_block);
        for (row, &po) in po_words.iter_mut().zip(aig.pos()) {
            for j in 0..nb {
                row[w0 + j] = lit_word(&vals, nb, po, j);
            }
        }
    }
    po_words
        .into_iter()
        .map(|words| Tt::from_words(n, words))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Lit;

    /// Scalar reference: asserts that column `w` of a node matrix
    /// holds, in each of its 64 bit lanes, the value [`Aig::eval`] gives
    /// every node under the PI bits that column's PI rows hold.
    pub(crate) fn assert_column_matches_eval(g: &Aig, sigs: &SimVectors, w: usize) {
        // `eval` reports POs only: probe a copy with every node as a PO.
        let mut probe = g.clone();
        for v in 0..g.num_nodes() {
            probe.add_po(Lit::from_var(v as u32, false));
        }
        for bit in 0..64 {
            let ins: Vec<bool> = g
                .pis()
                .iter()
                .map(|&pi| sigs.word(pi as usize, w) >> bit & 1 != 0)
                .collect();
            let nodes = &probe.eval(&ins)[g.num_pos()..];
            for (v, &e) in nodes.iter().enumerate() {
                assert_eq!(
                    sigs.word(v, w) >> bit & 1 != 0,
                    e,
                    "node {v}, column {w}, bit {bit}"
                );
            }
        }
    }

    #[test]
    fn words_match_scalar_eval() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor(a, b);
        let y = g.mux(c, x, a);
        g.add_po(y);
        let pi_words = [0b1010u64, 0b1100, 0b1111_0000];
        let mut sv = SimVectors::zero(g.num_nodes(), 1);
        simulate_columns(&SimProgram::new(&g), &mut sv, &[(0, &pi_words)]);
        for bit in 0..8 {
            let ins: Vec<bool> = pi_words.iter().map(|w| w >> bit & 1 != 0).collect();
            let expect = g.eval(&ins)[0];
            let got = sv.word(y.var() as usize, 0) >> bit & 1 != 0;
            assert_eq!(got ^ y.is_compl(), expect, "bit={bit}");
        }
    }

    #[test]
    fn output_tts_match_eval() {
        let mut g = Aig::new();
        // 10 PIs: 16 words, so two blocks and the one-word boundary.
        let pis = g.add_pis(10);
        let x = g.xor_many(&pis);
        let y = g.and_many(&pis[..3]);
        let z = g.or(pis[7], !pis[9]);
        g.add_po(x);
        g.add_po(!y);
        g.add_po(z);
        g.add_po(Lit::TRUE);
        let tts = output_tts(&g);
        for m in 0..1024usize {
            let ins: Vec<bool> = (0..10).map(|i| m >> i & 1 != 0).collect();
            for (o, e) in g.eval(&ins).into_iter().enumerate() {
                assert_eq!(tts[o].bit(m), e, "po{o} m={m}");
            }
        }
    }

    #[test]
    fn signatures_deterministic() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        let s1 = random_signatures(&g, 4, 42);
        let s2 = random_signatures(&g, 4, 42);
        assert_eq!(s1, s2);
        let s3 = random_signatures(&g, 4, 43);
        assert_ne!(s1, s3);
    }

    #[test]
    fn po_signature_applies_complement() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(a);
        g.add_po(!a);
        let sigs = po_signatures(&g, 2, 1);
        assert_eq!(sigs.word(0, 0), !sigs.word(1, 0));
    }

    #[test]
    fn matrix_shape_and_rows() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        let sigs = random_signatures(&g, 3, 7);
        assert_eq!(sigs.n_words(), 3);
        assert_eq!(sigs.n_rows(), g.num_nodes());
        // Row of the AND node = AND of its (non-complemented) fanin rows.
        let (ra, rb): (Vec<u64>, Vec<u64>) = (
            sigs.row(a.var() as usize).to_vec(),
            sigs.row(b.var() as usize).to_vec(),
        );
        let rx = sigs.row(x.var() as usize);
        for w in 0..3 {
            assert_eq!(rx[w], ra[w] & rb[w]);
        }
        // Constant node's row is all-zero.
        assert!(sigs.row(0).iter().all(|&w| w == 0));
    }

    #[test]
    fn columns_are_independent() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.or(a, b);
        g.add_po(x);
        let mut sv = SimVectors::zero(g.num_nodes(), 2);
        let prog = SimProgram::new(&g);
        simulate_columns(&prog, &mut sv, &[(0, &[0b01, 0b10])]);
        simulate_columns(&prog, &mut sv, &[(1, &[0b11, 0b00])]);
        // Complement of the OR literal folds back to the node row's value.
        let or_word = |w: usize| {
            let raw = sv.word(x.var() as usize, w);
            (if x.is_compl() { !raw } else { raw }) & 0b11
        };
        // Column 0: or(01,10) = 11; column 1: or(11,00) = 11.
        assert_eq!(or_word(0), 0b11);
        assert_eq!(or_word(1), 0b11);
        assert_eq!(sv.word(a.var() as usize, 1), 0b11);
        assert_eq!(sv.word(b.var() as usize, 1), 0);
    }

    /// A miter-ish graph big enough for several simulation blocks.
    fn wide_graph() -> Aig {
        let mut g = Aig::new();
        let pis = g.add_pis(12);
        let mut layer: Vec<Lit> = pis.clone();
        for r in 0..6 {
            layer = layer
                .windows(2)
                .map(|w| {
                    if r % 2 == 0 {
                        g.and(w[0], !w[1])
                    } else {
                        g.xor(w[0], w[1])
                    }
                })
                .collect();
        }
        for &l in &layer {
            g.add_po(l);
        }
        g
    }

    #[test]
    fn compiled_random_columns_match_interpreter() {
        // 27 columns = 4 blocks (8+8+8+3), every one checked against the
        // scalar `Aig::eval` interpreter.
        let g = wide_graph();
        let prog = SimProgram::new(&g);
        let mut sigs = SimVectors::zero(g.num_nodes(), 27);
        random_columns(&prog, &mut sigs, 0, 27, 0xFEED);
        for w in 0..27 {
            assert_column_matches_eval(&g, &sigs, w);
        }
        // Offsets keep per-block streams: filling [3, 3+24) uses the same
        // block indices 0.. as filling from 0, applied at shifted columns.
        let mut off = SimVectors::zero(g.num_nodes(), 27);
        random_columns(&prog, &mut off, 3, 24, 0xFEED);
        for v in 0..g.num_nodes() {
            assert_eq!(off.row(v)[3..27], sigs.row(v)[..24], "node {v}");
        }
    }

    #[test]
    fn compiled_replay_columns_match_interpreter() {
        let g = wide_graph();
        let prog = SimProgram::new(&g);
        let chunks: Vec<Vec<u64>> = (0..5)
            .map(|k| (0..g.num_pis() as u64).map(|i| i * 0xABCD + k).collect())
            .collect();
        let jobs: Vec<(usize, &[u64])> = chunks
            .iter()
            .enumerate()
            .map(|(k, c)| (k, c.as_slice()))
            .collect();
        let mut sigs = SimVectors::zero(g.num_nodes(), 5);
        simulate_columns(&prog, &mut sigs, &jobs);
        for (w, chunk) in chunks.iter().enumerate() {
            for (i, &pi) in g.pis().iter().enumerate() {
                assert_eq!(sigs.word(pi as usize, w), chunk[i], "PI {i} column {w}");
            }
            assert_column_matches_eval(&g, &sigs, w);
        }
    }

    #[test]
    fn signatures_into_routes_through_compiled_engine() {
        // Every width, the narrow ones included, fills through the one
        // compiled engine, and a reused buffer gives a fresh fill's
        // matrix. The checksums are pinned, so any drift in the block
        // streams or the kernel shows here.
        let g = wide_graph();
        let mut reused = SimVectors::new();
        for (n_words, pinned) in [
            (1, 5_253_813_566_758_094_934u64),
            (3, 2_830_376_377_928_955_538),
            (8, 13_027_641_589_044_619_634),
            (27, 14_404_082_160_706_388_801),
        ] {
            random_signatures_into(&g, n_words, 0xFEED, &mut reused);
            assert_eq!(reused, random_signatures(&g, n_words, 0xFEED));
            assert_eq!(reused.checksum(), pinned, "n_words={n_words}");
        }
    }

    #[test]
    fn checksum_is_not_vacuous() {
        let g = wide_graph();
        let a = random_signatures(&g, 4, 1);
        let b = random_signatures(&g, 4, 2);
        assert_ne!(a.checksum(), b.checksum(), "different contents differ");
        // Swapping two rows changes the checksum (order sensitivity) —
        // the old fold-one-row scheme XORed symmetric contents to zero.
        let mut swapped = a.clone();
        let (r0, r1): (Vec<u64>, Vec<u64>) = (a.row(1).to_vec(), a.row(2).to_vec());
        swapped.row_mut(1).copy_from_slice(&r1);
        swapped.row_mut(2).copy_from_slice(&r0);
        assert_ne!(a.checksum(), swapped.checksum(), "row order matters");
        // And a matrix XOR-symmetric per row still yields nonzero.
        let mut sym = SimVectors::zero(2, 2);
        sym.row_mut(0).copy_from_slice(&[0xFF, 0xFF]);
        assert_ne!(sym.checksum(), SimVectors::zero(2, 2).checksum());
    }
}
