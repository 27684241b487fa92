//! Window-based Boolean resubstitution (`resub`).
//!
//! For each node, a window is built from a reconvergence-driven cut; the
//! truth tables of every window node over the cut leaves are computed into
//! one reused word arena ([`aig::Window`]), and the engine looks for
//! *divisors* — existing nodes (outside the logic that would disappear)
//! whose functions re-express the target:
//!
//! * **0-resub**: the target equals a divisor (possibly complemented) — the
//!   node is forwarded for free;
//! * **1-resub**: the target is the AND/OR of two divisors in some polarity
//!   — one fresh gate replaces the whole cone.
//!
//! This follows the permissible-function resubstitution lineage the paper
//! cites (Sato et al.) in its windowed, truth-table-driven ABC form.

use crate::plan::{rebuild, Choice};
use crate::refactor::reconvergence_cut;
use aig::mffc::Mffc;
use aig::sim::random_signatures;
use aig::{Aig, GateList, Lit, Var, Window};

/// Words of global random simulation behind the divisor filter.
const SIG_WORDS: usize = 4;
/// Seed of the filter signatures (fixed: resub stays deterministic).
const SIG_SEED: u64 = 0x5e5b_51f7;

/// Maximum leaves of the window cut (hard cap 12).
const MAX_LEAVES: usize = 8;
/// Maximum divisors examined per node.
const MAX_DIVISORS: usize = 64;

/// Resubstitutes nodes from existing logic, returning an equivalent graph.
pub fn resub(aig: &Aig) -> Aig {
    let mut mffc = Mffc::new(aig);
    let fanout = aig.fanout_counts();
    let fanout_lists = aig.fanout_lists();
    let mut choices: Vec<Choice> = vec![Choice::Copy; aig.num_nodes()];
    // Global random signatures, computed once into one strided matrix.
    // Window-TT equality implies global-function equality, so a signature
    // mismatch soundly rejects a candidate before any truth-table work.
    let sigs = random_signatures(aig, SIG_WORDS, SIG_SEED);
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
        debug_assert!(
            leaves.iter().all(|l| divisors.contains(l)),
            "leaves are divisors"
        );
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
            // An AND reproduces the target's signature only if each input,
            // in its polarity, contains it: bit `2 * co + c` of `covers[i]`
            // says divisor `i` complemented by `c` contains the target
            // complemented by `co`. Polarities failing this skip the
            // signature filter; the pairs tried, and their order, stay.
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
                        // Word-parallel signature filter: the candidate's
                        // global signature must reproduce the target's
                        // before any window table is compared.
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

/// All input/output polarity combinations for 1-resub. `(ca, cb, co)` tries
/// `co ^ ((a ^ ca) & (b ^ cb))`, covering AND and OR in every polarity.
const POLARITIES: [(bool, bool, bool); 8] = [
    (false, false, false),
    (true, false, false),
    (false, true, false),
    (true, true, false),
    (false, false, true),
    (true, false, true),
    (false, true, true),
    (true, true, true),
];

fn identity_gl(compl: bool) -> GateList {
    GateList {
        n_leaves: 1,
        gates: vec![],
        root: GateList::leaf(0, compl),
    }
}

fn and2_gl(out_compl: bool) -> GateList {
    // Complement is folded into the leaf literals by the caller, so the gate
    // is a plain AND of leaf 0 and leaf 1.
    GateList {
        n_leaves: 2,
        gates: vec![(GateList::leaf(0, false), GateList::leaf(1, false))],
        root: 2 << 1 | out_compl as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::check::{exhaustive_equiv, sim_equiv};

    fn random_aig(seed: u64, n_pis: usize, n_gates: usize) -> Aig {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let pis = g.add_pis(n_pis);
        let mut pool: Vec<Lit> = pis;
        for _ in 0..n_gates {
            let a = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
            let b = pool[rng.gen_range(0..pool.len())].xor_compl(rng.gen());
            let l = match rng.gen_range(0..4) {
                0 | 1 => g.and(a, b),
                2 => g.or(a, b),
                _ => g.xor(a, b),
            };
            pool.push(l);
        }
        let n = pool.len();
        g.add_po(pool[n - 1]);
        g.add_po(pool[n / 2]);
        g
    }

    #[test]
    fn preserves_function_small() {
        for seed in 0..8 {
            let g = random_aig(seed, 6, 50);
            let h = resub(&g);
            assert!(exhaustive_equiv(&g, &h), "seed {seed}");
        }
    }

    #[test]
    fn preserves_function_larger() {
        for seed in 60..63 {
            let g = random_aig(seed, 20, 300);
            let h = resub(&g);
            assert!(sim_equiv(&g, &h, 8, seed), "seed {seed}");
        }
    }

    #[test]
    fn finds_zero_resub() {
        // Two structurally different but equivalent cones; resub should
        // forward one to the other.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        // xor built twice with different structure.
        let x1 = g.xor(a, b);
        let o = g.or(a, b);
        let na = g.and(a, b);
        let x2 = g.and(o, !na); // same function as x1
        let u1 = g.and(x1, c);
        let u2 = g.and(x2, !c);
        g.add_po(u1);
        g.add_po(u2);
        let before = g.num_ands();
        let h = resub(&g);
        assert!(exhaustive_equiv(&g, &h));
        assert!(h.num_ands() < before, "{} !< {}", h.num_ands(), before);
    }

    #[test]
    fn does_not_grow() {
        for seed in 10..16 {
            let g = random_aig(seed, 8, 100);
            let h = resub(&g);
            assert!(h.num_ands() <= g.num_ands(), "seed {seed}");
        }
    }
}
