//! Reconvergence-driven cuts, shared by [`crate::refactor()`] and
//! [`crate::resub()`].
//!
//! A cut grows from `{root}` by repeatedly expanding the leaf whose fanins
//! add the fewest new leaves, so cuts prefer reconvergent logic (the
//! reconvergence-driven cuts of ABC's `refactor` and `resub`). A pass
//! grows one cut per node with one [`ReconvCut`]: leaf membership is an
//! epoch mark per node, so a test is one load, and the buffers are reused
//! for the whole pass.

use aig::{Aig, Var};

/// Grows reconvergence-driven cuts over one graph, reusing its buffers.
#[derive(Debug)]
pub(crate) struct ReconvCut {
    leaves: Vec<Var>,
    /// `mark[v] == epoch` while `v` is a leaf of the cut being grown.
    mark: Vec<u32>,
    /// One per cut; a pass grows at most one cut per node, so it never wraps.
    epoch: u32,
}

impl ReconvCut {
    /// A builder for cuts of `aig`'s nodes.
    pub(crate) fn new(aig: &Aig) -> ReconvCut {
        ReconvCut {
            leaves: Vec::new(),
            mark: vec![0; aig.num_nodes()],
            epoch: 0,
        }
    }

    /// The cut of `root` with at most `max_leaves` leaves, ascending.
    ///
    /// Each step expands, among the leaves whose expansion the bound
    /// allows, the first in the current leaf order that adds the fewest
    /// new leaves: it is swap-removed and its fanins that are not yet
    /// leaves are appended. Growth stops when no leaf can be expanded or
    /// the bound is reached.
    pub(crate) fn cut(&mut self, aig: &Aig, root: Var, max_leaves: usize) -> &[Var] {
        self.epoch += 1;
        let epoch = self.epoch;
        let (leaves, mark) = (&mut self.leaves, &mut self.mark);
        leaves.clear();
        leaves.push(root);
        mark[root as usize] = epoch;
        loop {
            let mut best: Option<(i32, usize)> = None; // (cost, index in leaves)
            for (i, &l) in leaves.iter().enumerate() {
                let n = aig.node(l);
                if !n.is_and() {
                    continue;
                }
                let (f0, f1) = (n.fanin0().var(), n.fanin1().var());
                let new0 = mark[f0 as usize] != epoch;
                let new1 = mark[f1 as usize] != epoch && f1 != f0;
                let cost = new0 as i32 + new1 as i32 - 1;
                if leaves.len() as i32 + cost > max_leaves as i32 {
                    continue;
                }
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, i));
                    if cost == -1 {
                        break; // no later leaf can cost less
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let n = *aig.node(leaves[i]);
            mark[leaves[i] as usize] = 0;
            leaves.swap_remove(i);
            for f in n.fanins() {
                if mark[f.var() as usize] != epoch {
                    mark[f.var() as usize] = epoch;
                    leaves.push(f.var());
                }
            }
            if leaves.len() >= max_leaves {
                break;
            }
        }
        leaves.sort_unstable();
        leaves
    }
}
