//! A miniature strashed AND-graph builder producing [`GateList`]s.
//!
//! Resynthesis engines (NPN library, refactoring, DSD) synthesise candidate
//! implementations *before* touching the real graph. [`StructBuilder`]
//! accumulates such a candidate as a [`GateList`]: AND gates over abstract
//! leaves with constant folding and local structural hashing, mirroring the
//! semantics of [`aig::Aig::and`] exactly so that gate counts predicted here
//! match gates created at instantiation time.

use aig::hash::FastMap;
use aig::GateList;

/// Signal within a structure under construction (same encoding as
/// [`GateList`]: `2*node + compl`, constants via sentinels).
pub type Sig = u32;

/// Constant-false signal.
pub const SIG_FALSE: Sig = GateList::FALSE;
/// Constant-true signal.
pub const SIG_TRUE: Sig = GateList::TRUE;

/// Complements a signal (constants included).
#[inline]
pub fn sig_not(s: Sig) -> Sig {
    match s {
        SIG_FALSE => SIG_TRUE,
        SIG_TRUE => SIG_FALSE,
        _ => s ^ 1,
    }
}

/// Builder for small AND structures over `n_leaves` abstract leaves.
#[derive(Clone, Debug)]
pub struct StructBuilder {
    n_leaves: usize,
    gates: Vec<(Sig, Sig)>,
    strash: FastMap<(Sig, Sig), Sig>,
}

impl StructBuilder {
    /// A builder over `n_leaves` leaves.
    pub fn new(n_leaves: usize) -> StructBuilder {
        StructBuilder {
            n_leaves,
            gates: Vec::new(),
            strash: FastMap::default(),
        }
    }

    /// Signal of leaf `i`.
    ///
    /// # Panics
    /// Panics if `i >= n_leaves`.
    pub fn leaf(&self, i: usize) -> Sig {
        assert!(i < self.n_leaves, "leaf index out of range");
        GateList::leaf(i, false)
    }

    /// Number of AND gates so far.
    pub fn size(&self) -> usize {
        self.gates.len()
    }

    /// The AND of two signals, with the same folding rules as the real AIG.
    pub fn and(&mut self, a: Sig, b: Sig) -> Sig {
        if a == SIG_FALSE || b == SIG_FALSE || a == sig_not(b) {
            return SIG_FALSE;
        }
        if a == SIG_TRUE {
            return b;
        }
        if b == SIG_TRUE || a == b {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&s) = self.strash.get(&key) {
            return s;
        }
        let idx = self.n_leaves + self.gates.len();
        self.gates.push(key);
        let s = (idx as u32) << 1;
        self.strash.insert(key, s);
        s
    }

    /// The OR of two signals.
    pub fn or(&mut self, a: Sig, b: Sig) -> Sig {
        sig_not(self.and(sig_not(a), sig_not(b)))
    }

    /// The XOR of two signals (two ANDs plus an OR).
    pub fn xor(&mut self, a: Sig, b: Sig) -> Sig {
        let t0 = self.and(a, sig_not(b));
        let t1 = self.and(sig_not(a), b);
        self.or(t0, t1)
    }

    /// The multiplexer `sel ? t : e`.
    pub fn mux(&mut self, sel: Sig, t: Sig, e: Sig) -> Sig {
        if t == e {
            return t;
        }
        if t == sig_not(e) {
            return self.xor(sel, e);
        }
        let a = self.and(sel, t);
        let b = self.and(sig_not(sel), e);
        self.or(a, b)
    }

    /// Finalises the structure with `root` as its output.
    pub fn finish(self, root: Sig) -> GateList {
        GateList {
            n_leaves: self.n_leaves,
            gates: self.gates,
            root,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsd::eval_gatelist;
    use aig::Aig;

    #[test]
    fn folding_matches_aig() {
        let mut b = StructBuilder::new(2);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        assert_eq!(b.and(l0, SIG_FALSE), SIG_FALSE);
        assert_eq!(b.and(l0, SIG_TRUE), l0);
        assert_eq!(b.and(l0, l0), l0);
        assert_eq!(b.and(l0, sig_not(l0)), SIG_FALSE);
        let x = b.and(l0, l1);
        let y = b.and(l1, l0);
        assert_eq!(x, y);
        assert_eq!(b.size(), 1);
    }

    #[test]
    fn xor_structure_evaluates() {
        let mut b = StructBuilder::new(2);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let x = b.xor(l0, l1);
        let gl = b.finish(x);
        assert_eq!(gl.size(), 3);
        for (a, bb) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(eval_gatelist(&gl, &[a, bb]), a ^ bb);
        }
    }

    #[test]
    fn instantiation_matches_eval() {
        let mut b = StructBuilder::new(3);
        let l0 = b.leaf(0);
        let l1 = b.leaf(1);
        let l2 = b.leaf(2);
        let m = b.mux(l0, l1, l2);
        let gl = b.finish(sig_not(m));
        let mut g = Aig::new();
        let pis = g.add_pis(3);
        let out = g.build_gatelist(&pis, &gl);
        g.add_po(out);
        for p in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(g.eval(&ins)[0], eval_gatelist(&gl, &ins), "p={p}");
        }
    }

    #[test]
    fn mux_special_cases() {
        let mut b = StructBuilder::new(2);
        let s = b.leaf(0);
        let t = b.leaf(1);
        assert_eq!(b.mux(s, t, t), t);
        let x = b.mux(s, sig_not(t), t);
        let gl_size = b.size();
        assert!(gl_size <= 3, "t != e complement becomes xor");
        // Check semantics.
        let gl = b.finish(x);
        for (sv, tv) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(eval_gatelist(&gl, &[sv, tv]), sv ^ tv);
        }
    }
}
