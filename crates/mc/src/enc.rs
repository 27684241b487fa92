//! Incremental Tseitin encoding of time frames into a live solver.
//!
//! Both engines share one primitive: encode the machine's combinational
//! core once per time frame *directly into a persistent [`Solver`]*, with
//! constant folding over the stitched state values, so frame 0's all-zero
//! initial state (and anything it implies) never reaches the CNF at all.

use aig::seq::SeqAig;
use aig::Lit;
use cnf::CnfLit;
use sat::{Solver, SolverConfig};

/// Value of an AIG node inside the live solver: folded to a constant or
/// carried by a CNF literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Val {
    /// Constant-folded node.
    Const(bool),
    /// Node carried by a solver literal.
    Lit(CnfLit),
}

impl Val {
    /// Complements the value when `c` is true.
    pub(crate) fn xor_compl(self, c: bool) -> Val {
        if !c {
            return self;
        }
        match self {
            Val::Const(b) => Val::Const(!b),
            Val::Lit(l) => Val::Lit(!l),
        }
    }
}

/// A persistent solver plus its fresh-variable high-water mark.
#[derive(Debug)]
pub(crate) struct Enc {
    pub(crate) solver: Solver,
    next_var: u32,
}

/// Re-checks an assumption-UNSAT answer of `solver` against the
/// independent backward RUP checker: the solver's cumulative DRAT log,
/// closed under the assumption units, must refute the original clause
/// set. Used by the engines' certified mode (the solver must have been
/// built with proof logging on).
///
/// # Panics
/// Panics if the certificate is rejected — a certified engine never
/// reports an unverified UNSAT verdict.
pub(crate) fn certify_unsat(solver: &Solver, assumptions: &[CnfLit]) {
    let log = solver
        .proof()
        .expect("certified mode constructs solvers with proof logging on");
    let formula = log.originals().to_vec();
    let assumed: Vec<i32> = assumptions.iter().map(|&l| l.to_dimacs()).collect();
    let proof = checker::Proof::from_steps(log.steps().iter().map(|s| (s.delete, s.lits.clone())));
    if let Err(e) = checker::check_with_assumptions(&formula, &assumed, &proof) {
        panic!("model-checking UNSAT verdict failed certification: {e}");
    }
}

impl Enc {
    /// An empty encoding on a solver with the default preset; `proof`
    /// turns on the DRAT log that certified mode checks.
    pub(crate) fn new(proof: bool) -> Enc {
        Enc {
            solver: Solver::new(SolverConfig {
                proof,
                ..SolverConfig::default()
            }),
            next_var: 0,
        }
    }

    /// Allocates a fresh solver variable.
    pub(crate) fn fresh(&mut self) -> u32 {
        self.next_var += 1;
        self.next_var
    }

    /// Allocates a fresh positive literal.
    pub(crate) fn fresh_lit(&mut self) -> CnfLit {
        CnfLit::pos(self.fresh())
    }

    /// AND of two values with constant folding; allocates a gate variable
    /// (three clauses) only when both sides stay symbolic.
    pub(crate) fn and_val(&mut self, a: Val, b: Val) -> Val {
        match (a, b) {
            (Val::Const(false), _) | (_, Val::Const(false)) => Val::Const(false),
            (Val::Const(true), x) | (x, Val::Const(true)) => x,
            (Val::Lit(p), Val::Lit(q)) => {
                if p == q {
                    return Val::Lit(p);
                }
                if p == !q {
                    return Val::Const(false);
                }
                let y = self.fresh_lit();
                self.solver.add_clause_cnf(&[!y, p]);
                self.solver.add_clause_cnf(&[!y, q]);
                self.solver.add_clause_cnf(&[y, !p, !q]);
                Val::Lit(y)
            }
        }
    }

    /// OR of two values (De Morgan over [`Enc::and_val`]).
    pub(crate) fn or_val(&mut self, a: Val, b: Val) -> Val {
        self.and_val(a.xor_compl(true), b.xor_compl(true))
            .xor_compl(true)
    }

    /// Fresh literal `d` with `d -> (p XOR q)`.
    ///
    /// One-sided on purpose: the caller only ever asserts `d` positively
    /// (inside state-distinctness clauses), so the reverse implication
    /// would be dead weight.
    pub(crate) fn implies_xor(&mut self, p: CnfLit, q: CnfLit) -> CnfLit {
        let d = self.fresh_lit();
        self.solver.add_clause_cnf(&[!d, p, q]);
        self.solver.add_clause_cnf(&[!d, !p, !q]);
        d
    }

    /// Encodes one time frame of `seq` into the live solver.
    ///
    /// `ins` supplies a value per core PI (real frame inputs first, then
    /// the incoming state); `reach` is the core's PO-reachability mask.
    /// Returns the real-PO values and the outgoing state values.
    pub(crate) fn encode_frame(
        &mut self,
        seq: &SeqAig,
        reach: &[bool],
        ins: &[Val],
    ) -> (Vec<Val>, Vec<Val>) {
        let comb = seq.comb();
        debug_assert_eq!(ins.len(), comb.num_pis());
        let mut map: Vec<Val> = vec![Val::Const(false); comb.num_nodes()];
        for (i, &pi) in comb.pis().iter().enumerate() {
            map[pi as usize] = ins[i];
        }
        for v in comb.iter_ands() {
            if !reach[v as usize] {
                continue;
            }
            let n = comb.node(v);
            let a = resolve(&map, n.fanin0());
            let b = resolve(&map, n.fanin1());
            map[v as usize] = self.and_val(a, b);
        }
        let pos = comb.pos()[..seq.num_pos()]
            .iter()
            .map(|&po| resolve(&map, po))
            .collect();
        let next = comb.pos()[seq.num_pos()..]
            .iter()
            .map(|&po| resolve(&map, po))
            .collect();
        (pos, next)
    }

    /// Folds the real-PO values of a frame into one *bad* value (their OR).
    pub(crate) fn bad_of(&mut self, pos: Vec<Val>) -> Val {
        let mut bad = Val::Const(false);
        for p in pos {
            bad = self.or_val(bad, p);
        }
        bad
    }
}

fn resolve(map: &[Val], l: Lit) -> Val {
    map[l.var() as usize].xor_compl(l.is_compl())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_val_folds_constants() {
        let mut e = Enc::new(false);
        let p = Val::Lit(e.fresh_lit());
        assert_eq!(e.and_val(Val::Const(false), p), Val::Const(false));
        assert_eq!(e.and_val(Val::Const(true), p), p);
        assert_eq!(e.and_val(p, p), p);
        assert_eq!(e.and_val(p, p.xor_compl(true)), Val::Const(false));
        // No gate variable was allocated by any of the folds.
        assert_eq!(e.fresh(), 2);
    }

    #[test]
    fn or_val_de_morgan() {
        let mut e = Enc::new(false);
        let p = Val::Lit(e.fresh_lit());
        assert_eq!(e.or_val(Val::Const(true), p), Val::Const(true));
        assert_eq!(e.or_val(Val::Const(false), p), p);
    }
}
