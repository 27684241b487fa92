//! Resubstitution as it was before its engine read window tables only,
//! kept as the oracle of [`crate::resub()`] and of the shared cut builder.
//!
//! Global random signatures filter every divisor test before the window
//! table confirms it, fanouts are nested vectors, the side-divisor walk
//! skips consumers at or above the node without stopping, cuts test leaf
//! membership by scanning the leaf list, and every node allocates its cut,
//! divisor and frontier vectors. The tests assert that `resub` returns the
//! same graph, node for node, and that the builder returns the same cuts.

use super::{assert_same_graph, datapath_miters, random_aig, recipe_graphs};
use crate::plan::{rebuild, Choice};
use crate::reconv::ReconvCut;
use crate::resub::{and2_gl, identity_gl, MAX_DIVISORS, MAX_LEAVES, POLARITIES};
use aig::mffc::Mffc;
use aig::sim::random_signatures;
use aig::{Aig, GateList, Lit, Var, Window};

/// Resubstitutes nodes from existing logic, returning an equivalent graph.
fn resub(aig: &Aig) -> Aig {
    let mut mffc = Mffc::new(aig);
    let fanout = aig.fanout_counts();
    let fanout_lists = fanout_lists(aig);
    let mut choices: Vec<Choice> = vec![Choice::Copy; aig.num_nodes()];
    // Four words of global random signatures, computed once into one
    // strided matrix. Window-TT equality implies global-function equality,
    // so a signature mismatch soundly rejects a candidate before any
    // truth-table work.
    let sigs = random_signatures(aig, 4, 0x5e5b_51f7);
    let mask = |c: bool| if c { !0u64 } else { 0 };
    let mut window = Window::new();
    let mut covers: Vec<u8> = Vec::new();
    let mut cone: Vec<Var> = Vec::new();
    // Cone membership: node `d` is in the current node's cone when
    // `cone_epoch[d] == epoch`; each node takes a fresh epoch.
    let mut cone_epoch: Vec<u32> = vec![0; aig.num_nodes()];
    let mut epoch = 0u32;

    for v in aig.iter_ands() {
        if fanout[v as usize] == 0 {
            continue;
        }
        let leaves = reconvergence_cut(aig, v, MAX_LEAVES);
        if leaves.len() < 2 {
            continue;
        }
        mffc.cone_collect(aig, v, &leaves, &mut cone);
        if cone.is_empty() {
            continue;
        }
        epoch += 1;
        for &c in &cone {
            cone_epoch[c as usize] = epoch;
        }
        let in_cone = |d: Var| cone_epoch[d as usize] == epoch;

        // Window truth tables: evaluate the whole cone between leaves and v,
        // keeping every intermediate node as a divisor candidate.
        window.start(aig, &leaves);
        window.eval_cone(aig, v);

        // Divisors: the cut leaves themselves, plus window nodes that
        // survive the replacement (not in the disappearing cone), strictly
        // below v...
        let mut divisors: Vec<Var> = window
            .nodes()
            .iter()
            .copied()
            .filter(|&d| d != v && d < v && !in_cone(d))
            .collect();
        // ...plus *side* divisors: logic outside the cone whose support lies
        // within the cut, grown by walking fanouts of known-table nodes.
        let mut frontier: Vec<Var> = divisors.clone();
        frontier.extend_from_slice(&leaves);
        let mut qi = 0;
        while qi < frontier.len() && divisors.len() < MAX_DIVISORS {
            let d = frontier[qi];
            qi += 1;
            for &c in &fanout_lists[d as usize] {
                if c >= v || in_cone(c) || !window.try_eval(aig, c) {
                    continue;
                }
                divisors.push(c);
                frontier.push(c);
            }
        }
        divisors.truncate(MAX_DIVISORS);

        // Divisor tests compare the window tables word by word.
        let table = |d: Var| window.table(d).expect("window node has a table");
        let ft = table(v);

        // 0-resub. The signature filter rejects non-candidates with a few
        // word compares; the window truth table confirms survivors.
        let rv = sigs.row(v as usize);
        let mut chosen: Option<(Vec<Lit>, GateList)> = None;
        for &d in &divisors {
            let rd = sigs.row(d as usize);
            let direct = rd.iter().zip(rv).all(|(&x, &y)| x == y);
            let compl = !direct && rd.iter().zip(rv).all(|(&x, &y)| x == !y);
            if !direct && !compl {
                continue;
            }
            let td = table(d);
            if td == ft {
                chosen = Some((vec![Lit::from_var(d, false)], identity_gl(false)));
                break;
            }
            if td.iter().zip(ft).all(|(&x, &y)| x == !y) {
                chosen = Some((vec![Lit::from_var(d, false)], identity_gl(true)));
                break;
            }
        }

        // 1-resub: only profitable when at least two nodes disappear.
        if chosen.is_none() && cone.len() >= 2 {
            // Bit `2 * co + c` of `covers[i]` says divisor `i` complemented
            // by `c` contains the target complemented by `co`, on the
            // signatures.
            covers.clear();
            covers.extend(divisors.iter().map(|&d| {
                let rd = sigs.row(d as usize);
                (0..4).fold(0u8, |bits, k| {
                    let (mc, mo) = (mask(k & 1 != 0), mask(k & 2 != 0));
                    let contains = rd.iter().zip(rv).all(|(&x, &y)| (y ^ mo) & !(x ^ mc) == 0);
                    bits | (contains as u8) << k
                })
            }));
            'outer: for i in 0..divisors.len() {
                if covers[i] == 0 {
                    continue;
                }
                for j in (i + 1)..divisors.len() {
                    let (da, db) = (divisors[i], divisors[j]);
                    let (ra, rb) = (sigs.row(da as usize), sigs.row(db as usize));
                    for (ca, cb, co) in POLARITIES {
                        let k = 2 * co as usize;
                        if covers[i] >> (k + ca as usize) & covers[j] >> (k + cb as usize) & 1 == 0
                        {
                            continue;
                        }
                        // The candidate's global signature must reproduce
                        // the target's before any window table is compared.
                        let (ma, mb, mo) = (mask(ca), mask(cb), mask(co));
                        let sig_ok = ra
                            .iter()
                            .zip(rb)
                            .zip(rv)
                            .all(|((&wa, &wb), &wv)| ((wa ^ ma) & (wb ^ mb)) ^ mo == wv);
                        if !sig_ok {
                            continue;
                        }
                        let hit = table(da)
                            .iter()
                            .zip(table(db))
                            .zip(ft)
                            .all(|((&wa, &wb), &wf)| ((wa ^ ma) & (wb ^ mb)) ^ mo == wf);
                        if hit {
                            chosen = Some((
                                vec![Lit::from_var(da, ca), Lit::from_var(db, cb)],
                                and2_gl(co),
                            ));
                            break 'outer;
                        }
                    }
                }
            }
        }

        if let Some((leaves, gl)) = chosen {
            choices[v as usize] = Choice::Structure { leaves, gl };
        }
    }

    rebuild(aig, &choices)
}

/// Explicit fanout lists (AND-gate consumers only, no POs).
fn fanout_lists(aig: &Aig) -> Vec<Vec<Var>> {
    let mut out = vec![Vec::new(); aig.num_nodes()];
    for v in aig.iter_ands() {
        let n = aig.node(v);
        out[n.fanin0().var() as usize].push(v);
        if n.fanin1().var() != n.fanin0().var() {
            out[n.fanin1().var() as usize].push(v);
        }
    }
    out
}

/// Grows a reconvergence-driven cut of `root` with at most `max_leaves`
/// leaves: starting from `{root}`, repeatedly expands the leaf whose fanins
/// add the fewest new leaves (preferring reconvergent expansions).
fn reconvergence_cut(aig: &Aig, root: Var, max_leaves: usize) -> Vec<Var> {
    let mut leaves: Vec<Var> = vec![root];
    loop {
        let mut best: Option<(i32, usize)> = None; // (cost, index in leaves)
        for (i, &l) in leaves.iter().enumerate() {
            let n = aig.node(l);
            if !n.is_and() {
                continue;
            }
            let f0 = n.fanin0().var();
            let f1 = n.fanin1().var();
            let cost =
                (!leaves.contains(&f0)) as i32 + (!leaves.contains(&f1) && f1 != f0) as i32 - 1;
            if leaves.len() as i32 + cost > max_leaves as i32 {
                continue;
            }
            if best.is_none() || cost < best.expect("some").0 {
                best = Some((cost, i));
            }
        }
        let Some((_, i)) = best else { break };
        let n = *aig.node(leaves[i]);
        leaves.swap_remove(i);
        for f in n.fanins() {
            if !leaves.contains(&f.var()) {
                leaves.push(f.var());
            }
        }
        if leaves.len() >= max_leaves {
            break;
        }
    }
    leaves.sort_unstable();
    leaves.dedup();
    leaves
}

mod tests {
    use super::*;

    #[test]
    fn resub_matches_oracle_on_random_graphs() {
        for (n_pis, n_gates) in [(6, 50), (8, 100), (20, 300)] {
            for seed in 0..24 {
                let g = random_aig(seed, n_pis, n_gates);
                let what = format!("{n_pis}/{n_gates} seed {seed}");
                assert_same_graph(&crate::resub(&g), &resub(&g), &what);
            }
        }
    }

    #[test]
    fn resub_matches_oracle_on_datapath_miters() {
        for (what, g) in datapath_miters() {
            let once = crate::resub(&g);
            assert_same_graph(&once, &resub(&g), &what);
            assert_same_graph(
                &crate::resub(&once),
                &resub(&once),
                &format!("{what}, twice"),
            );
        }
    }

    #[test]
    fn resub_matches_oracle_on_every_recipe_graph() {
        for (what, g) in recipe_graphs() {
            assert_same_graph(&crate::resub(&g), &resub(&g), &what);
        }
    }

    #[test]
    fn cut_builder_matches_oracle_on_every_and_node() {
        let mut graphs: Vec<(String, Aig)> = (0..8)
            .map(|seed| (format!("random seed {seed}"), random_aig(seed, 8, 100)))
            .collect();
        graphs.extend(datapath_miters());
        graphs.extend(recipe_graphs());
        for (what, g) in &graphs {
            let mut cuts = ReconvCut::new(g);
            for max_leaves in [8, 10] {
                for v in g.iter_ands() {
                    let want = reconvergence_cut(g, v, max_leaves);
                    assert_eq!(cuts.cut(g, v, max_leaves), want, "{what}: node {v}");
                }
            }
        }
    }
}
