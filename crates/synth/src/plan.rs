//! Replacement plans and the graph-rebuild engine.
//!
//! Every resynthesis pass in this crate (rewrite, refactor, resub) works in
//! two phases: first it analyses the *old* graph and records, per node, a
//! [`Choice`] — keep the node as-is, or realise it as a small structure over
//! other (strictly earlier) nodes. Then [`rebuild`] reconstructs a fresh,
//! structurally hashed graph *on demand from the POs*: nodes nobody asks for
//! (the MFFCs of replaced nodes, and any dead logic) are simply never built.
//!
//! Demanding only earlier nodes makes the dependency relation acyclic, so
//! the rebuild is a straightforward worklist evaluation.
//!
//! Rewriting and refactoring price a candidate structure with one shared,
//! budgeted dry run (`DryRun`): it counts the gates the structure would
//! add and gives up as soon as the count exceeds what the candidate may
//! cost and still be chosen, so hopeless candidates stop early.

use aig::{Aig, GateList, Lit, Var};

/// Per-node reconstruction choice.
#[derive(Clone, Debug)]
pub enum Choice {
    /// Rebuild the node from its original fanins.
    Copy,
    /// Realise the node's function as `gl` instantiated over `leaves`
    /// (literals of the *old* graph, each with node index strictly below
    /// the owning node).
    Structure {
        /// Old-graph leaf literals of the structure.
        leaves: Vec<Lit>,
        /// The replacement structure.
        gl: GateList,
    },
}

/// Rebuilds `aig` according to `choices` (one entry per node; PIs and the
/// constant node must be [`Choice::Copy`]).
///
/// All PIs are preserved in order. Returns the new graph.
///
/// # Panics
/// Panics if a structure's leaves do not all have node index strictly below
/// the owning node, or if `choices.len() != aig.num_nodes()`.
pub fn rebuild(aig: &Aig, choices: &[Choice]) -> Aig {
    assert_eq!(
        choices.len(),
        aig.num_nodes(),
        "one choice per node required"
    );
    let mut new = Aig::with_capacity(aig.num_nodes());
    let mut map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    map[0] = Some(Lit::FALSE);
    for &pi in aig.pis() {
        map[pi as usize] = Some(new.add_pi());
    }

    let mut stack: Vec<Var> = Vec::new();
    let mut deps: Vec<Var> = Vec::new();
    for &po in aig.pos() {
        resolve(
            aig,
            choices,
            &mut new,
            &mut map,
            &mut stack,
            &mut deps,
            po.var(),
        );
    }
    for &po in aig.pos() {
        let l = map[po.var() as usize].expect("PO resolved");
        new.add_po(l.xor_compl(po.is_compl()));
    }
    new
}

#[allow(clippy::too_many_arguments)]
fn resolve(
    aig: &Aig,
    choices: &[Choice],
    new: &mut Aig,
    map: &mut [Option<Lit>],
    stack: &mut Vec<Var>,
    deps: &mut Vec<Var>,
    root: Var,
) {
    if map[root as usize].is_some() {
        return;
    }
    stack.push(root);
    while let Some(&v) = stack.last() {
        if map[v as usize].is_some() {
            stack.pop();
            continue;
        }
        debug_assert!(aig.node(v).is_and(), "PIs/const are pre-mapped");
        deps.clear();
        match &choices[v as usize] {
            Choice::Copy => {
                let n = aig.node(v);
                deps.push(n.fanin0().var());
                deps.push(n.fanin1().var());
            }
            Choice::Structure { leaves, .. } => deps.extend(leaves.iter().map(|l| l.var())),
        }
        let mut pending = false;
        for &d in deps.iter() {
            assert!(d < v, "plan leaves must precede the node (no cycles)");
            if map[d as usize].is_none() {
                stack.push(d);
                pending = true;
            }
        }
        if pending {
            continue;
        }
        // All dependencies available: build.
        let lit = match &choices[v as usize] {
            Choice::Copy => {
                let n = aig.node(v);
                let f0 = mapped(map, n.fanin0());
                let f1 = mapped(map, n.fanin1());
                new.and(f0, f1)
            }
            Choice::Structure { leaves, gl } => {
                let ls: Vec<Lit> = leaves.iter().map(|&l| mapped(map, l)).collect();
                new.build_gatelist(&ls, gl)
            }
        };
        map[v as usize] = Some(lit);
        stack.pop();
    }
}

#[inline]
fn mapped(map: &[Option<Lit>], old: Lit) -> Lit {
    map[old.var() as usize]
        .expect("dependency resolved")
        .xor_compl(old.is_compl())
}

/// The dry run behind the gain of rewriting and refactoring: it counts the
/// *new* AND gates that instantiating a structure over old-graph leaves
/// would create, crediting structure gates that already exist in the graph
/// outside `cone`, the part of the MFFC being replaced (collected with
/// [`aig::mffc::Mffc::cone_collect`]).
///
/// One `DryRun` serves a whole pass: cone membership is an epoch-stamped
/// mark per node, and the signal buffer is reused across calls.
#[derive(Debug)]
pub(crate) struct DryRun {
    /// Node `v` is in the current cone when `mark[v] == epoch`.
    mark: Vec<u32>,
    epoch: u32,
    /// Per structure signal: a known old-graph literal, or `None` for a
    /// new gate.
    sigs: Vec<Option<Lit>>,
}

impl DryRun {
    /// A dry run for the passes over `aig`.
    pub(crate) fn new(aig: &Aig) -> DryRun {
        DryRun {
            mark: vec![0; aig.num_nodes()],
            epoch: 0,
            sigs: Vec::new(),
        }
    }

    /// The number of new gates `gl` over `leaves` needs, or `None` as soon
    /// as it needs more than `budget`.
    pub(crate) fn cost(
        &mut self,
        aig: &Aig,
        leaves: &[Lit],
        gl: &GateList,
        cone: &[Var],
        budget: usize,
    ) -> Option<usize> {
        self.epoch += 1;
        for &c in cone {
            self.mark[c as usize] = self.epoch;
        }
        self.sigs.clear();
        self.sigs.extend(leaves.iter().map(|&l| Some(l)));
        let decode = |sigs: &[Option<Lit>], s: u32| -> Option<Lit> {
            match s {
                GateList::FALSE => Some(Lit::FALSE),
                GateList::TRUE => Some(Lit::TRUE),
                _ => sigs[(s >> 1) as usize].map(|l| l.xor_compl(s & 1 != 0)),
            }
        };
        let mut cost = 0usize;
        for &(a, b) in &gl.gates {
            let out = match (decode(&self.sigs, a), decode(&self.sigs, b)) {
                (Some(x), Some(y)) => match aig.find_and(x, y) {
                    // Folded to a constant, or an existing gate that survives.
                    Some(l) if l.is_const() || self.mark[l.var() as usize] != self.epoch => Some(l),
                    _ => None,
                },
                _ => None,
            };
            if out.is_none() {
                cost += 1;
                if cost > budget {
                    return None;
                }
            }
            self.sigs.push(out);
        }
        Some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::check::exhaustive_equiv;

    fn all_copy(aig: &Aig) -> Vec<Choice> {
        vec![Choice::Copy; aig.num_nodes()]
    }

    #[test]
    fn copy_plan_preserves_function_and_drops_dead() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let live = g.xor(a, b);
        let _dead = g.and(a, b); // xor shares this? xor builds !a&b etc; add distinct dead node
        let _dead2 = g.or(a, !b);
        g.add_po(live);
        let h = rebuild(&g, &all_copy(&g));
        assert!(exhaustive_equiv(&g, &h));
        assert!(h.num_ands() <= g.num_ands());
    }

    #[test]
    fn structure_replacement_applies() {
        // Replace x = a&b by the (equivalent) structure !(!a | !b).
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let y = g.or(x, a);
        g.add_po(y);
        let mut choices = all_copy(&g);
        // Structure: one AND of leaves (a, b); root = that gate.
        let gl = GateList {
            n_leaves: 2,
            gates: vec![(0, 2)],
            root: 2 << 1,
        };
        choices[x.var() as usize] = Choice::Structure {
            leaves: vec![a, b],
            gl,
        };
        let h = rebuild(&g, &choices);
        assert!(exhaustive_equiv(&g, &h));
    }

    #[test]
    fn zero_gate_structure_forwards_literal() {
        // Replace a node by a plain (complemented) literal of another node,
        // as 0-resubstitution does.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let t = g.and(a, b);
        let dup = g.and(!a, !b); // t2 = !a & !b ; note !(t2) == a | b
        let out = g.and(!t, !dup); // out = !t & (a|b) = exactly-one(a,b) = a^b
        g.add_po(out);
        // Pretend resub discovered out == a ^ b and forwards `dup` as !(a|b)
        // rebuilt from scratch: replace `out` with or-structure over [t, dup].
        // out = !t & !dup  -> structure gate (leaf0 compl, leaf1 compl).
        let gl = GateList {
            n_leaves: 2,
            gates: vec![(1, 3)],
            root: 2 << 1,
        };
        let mut choices = all_copy(&g);
        choices[out.var() as usize] = Choice::Structure {
            leaves: vec![t, dup],
            gl,
        };
        let h = rebuild(&g, &choices);
        assert!(exhaustive_equiv(&g, &h));

        // A genuinely zero-gate forward: replace `dup` by constant-free
        // literal of `t`'s complement is wrong functionally; instead forward
        // `out` directly to itself through a 1-leaf identity structure.
        let ident = GateList {
            n_leaves: 1,
            gates: vec![],
            root: 0,
        };
        let mut choices = all_copy(&g);
        choices[out.var() as usize] = Choice::Structure {
            leaves: vec![out.regular()],
            gl: ident,
        };
        // Self-reference is illegal (leaf index not below node) — expect panic.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rebuild(&g, &choices)));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "precede the node")]
    fn forward_reference_panics() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let y = g.or(x, a);
        g.add_po(x);
        g.add_po(y);
        let mut choices = all_copy(&g);
        // Illegal: x tries to reference the later node y.
        let gl = GateList {
            n_leaves: 1,
            gates: vec![],
            root: 0,
        };
        choices[x.var() as usize] = Choice::Structure {
            leaves: vec![y],
            gl,
        };
        let _ = rebuild(&g, &choices);
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let mut acc = g.and(a, b);
        for i in 0..50_000 {
            acc = if i % 2 == 0 {
                g.or(acc, a)
            } else {
                g.and(acc, b)
            };
        }
        g.add_po(acc);
        let h = rebuild(&g, &all_copy(&g));
        assert_eq!(h.num_pos(), 1);
    }
}
