//! Sequential circuits via time-frame expansion — the paper's stated
//! future work ("extending this approach to sequential circuits").
//!
//! A [`SeqAig`] is a combinational core plus a latch boundary, using the
//! AIGER convention: the core's primary-input list is
//! `[real PIs..., latch outputs...]` and its primary-output list is
//! `[real POs..., latch next-state inputs...]`. Latches initialise to 0.
//!
//! [`SeqAig::unroll`] performs bounded time-frame expansion, turning a
//! k-step property check into a *combinational* CSAT instance that flows
//! through the preprocessing framework unchanged — exactly how bounded
//! model checking feeds sequential problems to a combinational engine.

use crate::aig::Aig;
use crate::compile::{lit_word, SimProgram};
use crate::lit::Lit;

/// A sequential AIG: combinational core + latch boundary.
#[derive(Clone, Debug)]
pub struct SeqAig {
    comb: Aig,
    num_pis: usize,
    num_latches: usize,
}

impl SeqAig {
    /// Wraps a combinational core.
    ///
    /// The core must have `num_pis + num_latches` primary inputs (real
    /// inputs first, then latch outputs) and at least `num_latches`
    /// primary outputs (real outputs first, then latch next-state
    /// functions last).
    ///
    /// # Panics
    /// Panics if the core's I/O shape does not match.
    pub fn new(comb: Aig, num_pis: usize, num_latches: usize) -> SeqAig {
        assert_eq!(
            comb.num_pis(),
            num_pis + num_latches,
            "core PIs must be real PIs then latch outputs"
        );
        assert!(
            comb.num_pos() >= num_latches,
            "core POs must end with {num_latches} latch next-state functions"
        );
        SeqAig {
            comb,
            num_pis,
            num_latches,
        }
    }

    /// The combinational core.
    pub fn comb(&self) -> &Aig {
        &self.comb
    }

    /// Real primary inputs per frame.
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Latch count.
    pub fn num_latches(&self) -> usize {
        self.num_latches
    }

    /// Real primary outputs per frame.
    pub fn num_pos(&self) -> usize {
        self.comb.num_pos() - self.num_latches
    }

    /// Simulates the machine from the all-zero initial state, one input
    /// vector per step; returns the real-output vector of each step.
    ///
    /// Thin wrapper over [`SeqAig::simulate_words`]: each step runs one
    /// compiled program pass in bit 0 of the simulation words, instead of
    /// the old per-frame `Vec<bool>` clone/extend/eval storm.
    ///
    /// # Panics
    /// Panics if any input vector has the wrong width.
    pub fn simulate(&self, inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let word_ins: Vec<Vec<u64>> = inputs
            .iter()
            .map(|ins| {
                assert_eq!(ins.len(), self.num_pis, "one value per real PI required");
                ins.iter().map(|&b| b as u64).collect()
            })
            .collect();
        self.simulate_words(&word_ins)
            .into_iter()
            .map(|ws| ws.into_iter().map(|w| w & 1 != 0).collect())
            .collect()
    }

    /// Word-level simulation from the all-zero initial state: each input
    /// word carries 64 independent traces in parallel (bit `i` of every
    /// word belongs to trace `i`), one vector of `num_pis` words per
    /// step. Returns the real-output words of each step.
    ///
    /// Built on the compiled stepper ([`SeqAig::stepper`]): the core is
    /// compiled once and the whole run is allocation-light — one program
    /// pass per frame over word-packed latch state.
    ///
    /// # Panics
    /// Panics if any input vector has the wrong width.
    pub fn simulate_words(&self, inputs: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let mut stepper = self.stepper();
        inputs
            .iter()
            .map(|ins| stepper.step_words(ins).to_vec())
            .collect()
    }

    /// Compiles the core into a reusable sequential stepper.
    pub fn stepper(&self) -> SeqStepper {
        SeqStepper::new(self)
    }

    /// Time-frame expansion over `k` frames.
    ///
    /// The result is a combinational AIG with `k * num_pis` primary inputs
    /// (frame-major) and `k * num_pos` primary outputs (frame-major);
    /// frame 0 sees the all-zero initial state, frame `t+1` sees frame
    /// `t`'s next-state functions.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn unroll(&self, k: usize) -> Aig {
        assert!(k > 0, "need at least one frame");
        let mut out = Aig::with_capacity(k * self.comb.num_nodes());
        // Frame-major real PIs.
        let frame_pis: Vec<Vec<Lit>> = (0..k).map(|_| out.add_pis(self.num_pis)).collect();
        let mut state: Vec<Lit> = vec![Lit::FALSE; self.num_latches];
        let mut outputs = Vec::with_capacity(k * self.num_pos());
        for pis in frame_pis.iter() {
            let mut map: Vec<Lit> = vec![Lit::FALSE; self.comb.num_nodes()];
            for (i, &pi_var) in self.comb.pis().iter().enumerate() {
                map[pi_var as usize] = if i < self.num_pis {
                    pis[i]
                } else {
                    state[i - self.num_pis]
                };
            }
            for v in self.comb.iter_ands() {
                let n = self.comb.node(v);
                let a = map[n.fanin0().var() as usize].xor_compl(n.fanin0().is_compl());
                let b = map[n.fanin1().var() as usize].xor_compl(n.fanin1().is_compl());
                map[v as usize] = out.and(a, b);
            }
            let resolve = |map: &[Lit], l: Lit| map[l.var() as usize].xor_compl(l.is_compl());
            for po in &self.comb.pos()[..self.num_pos()] {
                outputs.push(resolve(&map, *po));
            }
            state = self.comb.pos()[self.num_pos()..]
                .iter()
                .map(|&po| resolve(&map, po))
                .collect();
        }
        for o in outputs {
            out.add_po(o);
        }
        out
    }

    /// Bounded-model-checking instance: one PO that fires iff *any* real
    /// PO of *any* of the `k` frames fires — a single-output combinational
    /// CSAT miter ready for the preprocessing framework.
    ///
    /// # Panics
    /// Panics if `k == 0` or the machine has no real POs.
    pub fn bmc_instance(&self, k: usize) -> Aig {
        assert!(
            self.num_pos() > 0,
            "property check needs at least one real PO"
        );
        let mut unrolled = self.unroll(k);
        let pos: Vec<Lit> = unrolled.pos().to_vec();
        let any = unrolled.or_many(&pos);
        // Rebuild with a single PO in one pass over the unrolled graph.
        let mut single = Aig::with_capacity(unrolled.num_nodes());
        let mut map: Vec<Lit> = vec![Lit::FALSE; unrolled.num_nodes()];
        for &pi in unrolled.pis() {
            map[pi as usize] = single.add_pi();
        }
        for v in unrolled.iter_ands() {
            let n = unrolled.node(v);
            let a = map[n.fanin0().var() as usize].xor_compl(n.fanin0().is_compl());
            let b = map[n.fanin1().var() as usize].xor_compl(n.fanin1().is_compl());
            map[v as usize] = single.and(a, b);
        }
        single.add_po(map[any.var() as usize].xor_compl(any.is_compl()));
        single.compact().0
    }
}

/// A compiled sequential stepper: the machine's core lowered once into a
/// [`SimProgram`], with latch state kept as packed words — bit `i` of
/// every state word belongs to simulation trace `i`, so one
/// [`SeqStepper::step_words`] call advances 64 traces at once. Each step
/// runs the program over one word per node and reads every real output and
/// latch next-state literal from its node's word.
///
/// Used for BMC counterexample replay (one trace in bit 0) and by
/// [`SeqAig::simulate_words`]; the interpreter path
/// ([`crate::aig::Aig::eval`] per frame) survives as a differential
/// oracle in the test suites.
#[derive(Clone, Debug)]
pub struct SeqStepper {
    prog: SimProgram,
    /// The core's POs: real outputs, then latch next-state functions.
    pos: Vec<Lit>,
    num_pis: usize,
    num_pos: usize,
    /// One word per latch: the current state of 64 parallel traces.
    state: Vec<u64>,
    /// Scratch: `[PI words..., latch state words...]` fed to the program.
    full_pi: Vec<u64>,
    /// Scratch: program value buffer, reused across frames.
    vals: Vec<u64>,
    /// Real-output words of the last step.
    out: Vec<u64>,
}

impl SeqStepper {
    /// Compiles `m`'s core and initialises the all-zero state.
    pub fn new(m: &SeqAig) -> SeqStepper {
        SeqStepper {
            prog: SimProgram::new(m.comb()),
            pos: m.comb().pos().to_vec(),
            num_pis: m.num_pis(),
            num_pos: m.num_pos(),
            state: vec![0; m.num_latches()],
            full_pi: vec![0; m.comb().num_pis()],
            vals: Vec::new(),
            out: vec![0; m.num_pos()],
        }
    }

    /// Resets every trace to the all-zero initial state.
    pub fn reset(&mut self) {
        self.state.fill(0);
    }

    /// Current latch state, one word per latch (trace `i` in bit `i`).
    pub fn state(&self) -> &[u64] {
        &self.state
    }

    /// Advances all 64 traces by one step: runs the compiled core on
    /// `pi_words` (one word per real PI) plus the current latch state,
    /// latches the next state, and returns the real-output words.
    ///
    /// # Panics
    /// Panics if `pi_words.len()` is not the machine's real PI count.
    pub fn step_words(&mut self, pi_words: &[u64]) -> &[u64] {
        assert_eq!(pi_words.len(), self.num_pis, "one word per real PI");
        self.full_pi[..self.num_pis].copy_from_slice(pi_words);
        self.full_pi[self.num_pis..].copy_from_slice(&self.state);
        self.prog.run_dense(&mut self.vals, 1, &self.full_pi);
        let (outs, nexts) = self.pos.split_at(self.num_pos);
        for (w, &po) in self.out.iter_mut().zip(outs) {
            *w = lit_word(&self.vals, 1, po, 0);
        }
        for (s, &next) in self.state.iter_mut().zip(nexts) {
            *s = lit_word(&self.vals, 1, next, 0);
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// n-bit binary counter with an enable input; real PO fires at the
    /// all-ones state.
    fn counter(n: usize) -> SeqAig {
        let mut g = Aig::new();
        let en = g.add_pi();
        let state: Vec<Lit> = (0..n).map(|_| g.add_pi()).collect();
        // next = state + en (ripple increment).
        let mut carry = en;
        let mut next = Vec::with_capacity(n);
        for &s in &state {
            next.push(g.xor(s, carry));
            carry = g.and(s, carry);
        }
        let all_ones = g.and_many(&state);
        g.add_po(all_ones); // real PO: saturation detector
        for nx in next {
            g.add_po(nx); // latch next-state functions
        }
        SeqAig::new(g, 1, n)
    }

    #[test]
    fn simulate_counts() {
        let m = counter(3);
        let steps: Vec<Vec<bool>> = (0..9).map(|_| vec![true]).collect();
        let outs = m.simulate(&steps);
        // All-ones (7) is visible at step 7 (state before the 8th tick).
        let fired: Vec<usize> = outs
            .iter()
            .enumerate()
            .filter(|(_, o)| o[0])
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fired, vec![7], "3-bit counter saturates after 7 increments");
    }

    #[test]
    fn unroll_matches_sequential_simulation() {
        let m = counter(3);
        let k = 10;
        let unrolled = m.unroll(k);
        assert_eq!(unrolled.num_pis(), k * m.num_pis());
        assert_eq!(unrolled.num_pos(), k * m.num_pos());
        // Drive the same stimulus through both.
        for pattern in 0..32u32 {
            let stimulus: Vec<Vec<bool>> =
                (0..k).map(|t| vec![pattern >> (t % 5) & 1 != 0]).collect();
            let seq_out = m.simulate(&stimulus);
            let flat: Vec<bool> = stimulus.iter().flatten().copied().collect();
            let comb_out = unrolled.eval(&flat);
            let expect: Vec<bool> = seq_out.iter().flatten().copied().collect();
            assert_eq!(comb_out, expect, "pattern {pattern:#b}");
        }
    }

    #[test]
    fn bmc_instance_is_single_po_and_fires_correctly() {
        let m = counter(2);
        // 2-bit counter saturates at step 3: BMC at k=3 must be UNSAT-ish
        // (cannot fire), k=4 must have a witness.
        let short = m.bmc_instance(3);
        assert_eq!(short.num_pos(), 1);
        let n = short.num_pis();
        let fired = (0..1u32 << n).any(|p| {
            let ins: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            short.eval(&ins)[0]
        });
        assert!(!fired, "saturation cannot be reached in 3 steps");

        let long = m.bmc_instance(4);
        let n = long.num_pis();
        let fired = (0..1u32 << n).any(|p| {
            let ins: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
            long.eval(&ins)[0]
        });
        assert!(fired, "4 enables reach the all-ones state");
    }

    #[test]
    fn simulate_words_lanes_match_unrolled_eval() {
        // 8 parallel traces in bits 0..8 of the words, checked lane by
        // lane against the independent unroll()+eval reference (not the
        // bool wrapper, which is itself built on simulate_words).
        let m = counter(3);
        let k = 6;
        let unrolled = m.unroll(k);
        // Trace `i` enables on steps where (i + t) % 3 != 0.
        let stimulus: Vec<Vec<u64>> = (0..k)
            .map(|t| {
                let mut w = 0u64;
                for i in 0..8u64 {
                    if !(i + t as u64).is_multiple_of(3) {
                        w |= 1 << i;
                    }
                }
                vec![w]
            })
            .collect();
        let outs = m.simulate_words(&stimulus);
        assert_eq!(outs.len(), k);
        for lane in 0..8 {
            let flat: Vec<bool> = stimulus.iter().map(|ws| ws[0] >> lane & 1 != 0).collect();
            let expect = unrolled.eval(&flat);
            for t in 0..k {
                assert_eq!(
                    outs[t][0] >> lane & 1 != 0,
                    expect[t],
                    "lane {lane} step {t}"
                );
            }
        }
    }

    #[test]
    fn stepper_reset_and_state() {
        let m = counter(2);
        let mut st = m.stepper();
        assert_eq!(st.state(), &[0, 0]);
        // Three enabled ticks reach state 3 (all ones) in trace 0.
        for _ in 0..3 {
            st.step_words(&[1]);
        }
        assert_eq!(st.state()[0] & 1, 1);
        assert_eq!(st.state()[1] & 1, 1);
        // Saturation PO fires on the step *observing* the all-ones state.
        let out = st.step_words(&[1]).to_vec();
        assert_eq!(out[0] & 1, 1);
        st.reset();
        assert_eq!(st.state(), &[0, 0]);
        let out = st.step_words(&[0]).to_vec();
        assert_eq!(out[0] & 1, 0);
    }

    #[test]
    fn zero_latch_machine_is_purely_combinational() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        g.add_po(x);
        let m = SeqAig::new(g.clone(), 2, 0);
        let u = m.unroll(3);
        assert_eq!(u.num_pis(), 6);
        assert_eq!(u.num_pos(), 3);
        // Each frame computes an independent XOR.
        let out = u.eval(&[true, false, true, true, false, false]);
        assert_eq!(out, vec![true, false, false]);
    }

    #[test]
    #[should_panic(expected = "core PIs")]
    fn shape_mismatch_panics() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(a);
        let _ = SeqAig::new(g, 2, 1);
    }
}
