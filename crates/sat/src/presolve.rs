//! CNF preprocessing: unit propagation, subsumption, self-subsuming
//! resolution, and bounded variable elimination (SatELite-style).
//!
//! The paper's evaluation "keeps the default CNF-based preprocessing" of
//! Kissat/CaDiCaL; this module provides the same class of simplification
//! for our solver, as a pure CNF-to-CNF transformation with model
//! reconstruction. It is exposed separately from the CDCL core so
//! pipelines (and benches) can toggle it explicitly.

use crate::config::{Budget, SolverConfig};
use crate::solver::{solve_cnf, SolveResult};
use crate::stats::Stats;
use cnf::{Cnf, CnfLit};
use std::collections::HashMap;

/// Skip elimination of variables occurring more often than this.
const MAX_OCCURRENCES: usize = 20;
/// Do not create resolvents longer than this.
const MAX_RESOLVENT_LEN: usize = 12;
/// Sweep the formula at most this many times.
const MAX_ROUNDS: usize = 4;

/// Reverses variable elimination on models of the simplified formula.
#[derive(Clone, Debug, Default)]
pub struct Reconstructor {
    /// `(var, clauses)` in elimination order; each clause is in DIMACS ints.
    eliminated: Vec<(u32, Vec<Vec<i32>>)>,
    num_vars: usize,
    /// Values forced at preprocessing time (units), 1-based var -> value.
    forced: Vec<(u32, bool)>,
}

impl Reconstructor {
    /// Extends a model of the simplified formula to the original variables.
    ///
    /// `model[v-1]` is the value of variable `v`; missing variables get a
    /// default before reconstruction.
    pub fn extend_model(&self, mut model: Vec<bool>) -> Vec<bool> {
        model.resize(self.num_vars, false);
        for &(v, val) in &self.forced {
            model[(v - 1) as usize] = val;
        }
        for (v, clauses) in self.eliminated.iter().rev() {
            let vi = (*v - 1) as usize;
            // Default false; flip if some clause is otherwise unsatisfied.
            model[vi] = false;
            for c in clauses {
                let sat = c.iter().any(|&l| {
                    let idx = (l.unsigned_abs() - 1) as usize;
                    model[idx] == (l > 0)
                });
                if !sat {
                    // The clause must contain v positively (it was removed
                    // because it mentioned v); satisfy it through v.
                    debug_assert!(c.contains(&(*v as i32)));
                    model[vi] = true;
                }
            }
        }
        model
    }
}

/// Outcome of preprocessing.
#[derive(Clone, Debug)]
pub enum Presolved {
    /// The formula is unsatisfiable.
    Unsat,
    /// Every clause was satisfied/eliminated; a full model can be built
    /// with the reconstructor from any assignment.
    Sat(Reconstructor),
    /// A simplified, equisatisfiable formula plus model reconstruction.
    Simplified(Cnf, Reconstructor),
}

/// Simplifies a formula. Equisatisfiable by construction; models of the
/// output extend to models of the input via the [`Reconstructor`].
pub fn presolve(formula: &Cnf) -> Presolved {
    let num_vars = formula.num_vars() as usize;
    // Clause store in DIMACS ints; None = deleted.
    let mut clauses: Vec<Option<Vec<i32>>> = formula
        .clauses()
        .iter()
        .map(|c| Some(c.iter().map(|l| l.to_dimacs()).collect()))
        .collect();
    let mut recon = Reconstructor {
        num_vars,
        ..Reconstructor::default()
    };
    // assignment: 0 unknown, 1 true, -1 false.
    let mut assign = vec![0i8; num_vars + 1];

    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        if !propagate_units(&mut clauses, &mut assign, &mut recon) {
            return Presolved::Unsat;
        }
        changed |= subsumption_pass(&mut clauses);
        match eliminate_variables(&mut clauses, &assign, &mut recon) {
            None => return Presolved::Unsat,
            Some(c) => changed |= c,
        }
        if !changed {
            break;
        }
    }
    if !propagate_units(&mut clauses, &mut assign, &mut recon) {
        return Presolved::Unsat;
    }

    let live: Vec<&Vec<i32>> = clauses.iter().flatten().collect();
    if live.is_empty() {
        return Presolved::Sat(recon);
    }
    let mut out = Cnf::new();
    out.ensure_vars(formula.num_vars());
    for c in live {
        out.add_clause(c.iter().map(|&l| CnfLit::from_dimacs(l)).collect());
    }
    Presolved::Simplified(out, recon)
}

/// Propagates unit clauses destructively; false on conflict.
fn propagate_units(
    clauses: &mut [Option<Vec<i32>>],
    assign: &mut [i8],
    recon: &mut Reconstructor,
) -> bool {
    loop {
        let mut found_unit: Option<i32> = None;
        for c in clauses.iter_mut() {
            let Some(lits) = c else { continue };
            let mut satisfied = false;
            lits.retain(|&l| {
                let v = assign[l.unsigned_abs() as usize];
                if v == 0 {
                    return true;
                }
                if (v == 1) == (l > 0) {
                    satisfied = true;
                }
                false
            });
            if satisfied {
                *c = None;
                continue;
            }
            match lits.len() {
                0 => return false, // conflict
                1 => {
                    found_unit = Some(lits[0]);
                    *c = None;
                }
                _ => {}
            }
            if found_unit.is_some() {
                break;
            }
        }
        match found_unit {
            None => return true,
            Some(l) => {
                let v = l.unsigned_abs();
                let val = l > 0;
                match assign[v as usize] {
                    0 => {
                        assign[v as usize] = if val { 1 } else { -1 };
                        recon.forced.push((v, val));
                    }
                    a if (a == 1) == val => {}
                    _ => return false,
                }
            }
        }
    }
}

/// Removes subsumed clauses and applies self-subsuming resolution.
///
/// Candidate pairs are found through occurrence lists (SatELite-style):
/// any clause subsumed by `ci` must contain `ci`'s least-occurring
/// variable, so only that variable's occurrence list is scanned — near
/// linear on circuit CNFs instead of quadratic over all clause pairs.
fn subsumption_pass(clauses: &mut [Option<Vec<i32>>]) -> bool {
    let mut changed = false;
    for c in clauses.iter_mut().flatten() {
        c.sort_unstable();
        c.dedup();
    }
    let sig = |c: &[i32]| -> u64 {
        c.iter()
            .fold(0u64, |s, &l| s | 1 << (l.unsigned_abs() % 64))
    };
    // Occurrence lists by variable (not literal: self-subsumption needs
    // clauses containing either polarity).
    let mut occ: HashMap<u32, Vec<usize>> = HashMap::new();
    for (idx, c) in clauses.iter().enumerate() {
        let Some(lits) = c else { continue };
        for &l in lits {
            occ.entry(l.unsigned_abs()).or_default().push(idx);
        }
    }
    let n = clauses.len();
    for i in 0..n {
        let Some(ci) = clauses[i].clone() else {
            continue;
        };
        let si = sig(&ci);
        // Scan only the occurrence list of ci's rarest variable: every
        // clause ci (self-)subsumes mentions each of ci's variables.
        let pivot = ci
            .iter()
            .map(|l| l.unsigned_abs())
            .min_by_key(|v| occ.get(v).map_or(0, Vec::len));
        let Some(pivot) = pivot else { continue };
        let Some(candidates) = occ.get(&pivot) else {
            continue;
        };
        for &j in candidates {
            if i == j {
                continue;
            }
            let Some(cj) = clauses[j].as_ref() else {
                continue;
            };
            if cj.len() < ci.len() || si & !sig(cj) != 0 {
                continue;
            }
            if is_subset(&ci, cj) {
                clauses[j] = None;
                changed = true;
                continue;
            }
            // Self-subsuming resolution: ci \ {l} ⊆ cj and ¬l ∈ cj
            // strengthens cj by removing ¬l.
            if let Some(neg) = self_subsumes(&ci, cj) {
                let cj = clauses[j].as_mut().expect("checked");
                cj.retain(|&l| l != neg);
                changed = true;
            }
        }
    }
    changed
}

fn is_subset(small: &[i32], big: &[i32]) -> bool {
    // Both sorted.
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j == big.len() || big[j] != x {
            return false;
        }
    }
    true
}

/// If `small` self-subsumes `big` on exactly one flipped literal, returns
/// the literal of `big` to delete.
fn self_subsumes(small: &[i32], big: &[i32]) -> Option<i32> {
    let mut flipped: Option<i32> = None;
    for &x in small {
        if big.binary_search(&x).is_ok() {
            continue;
        }
        if big.binary_search(&-x).is_ok() {
            if flipped.is_some() {
                return None; // more than one flip: plain resolution, skip
            }
            flipped = Some(-x);
        } else {
            return None;
        }
    }
    flipped
}

/// Bounded variable elimination; `None` signals UNSAT (empty resolvent).
fn eliminate_variables(
    clauses: &mut Vec<Option<Vec<i32>>>,
    assign: &[i8],
    recon: &mut Reconstructor,
) -> Option<bool> {
    let num_vars = assign.len() - 1;
    let mut changed = false;
    // Occurrence lists once per sweep; entries may go stale as clauses are
    // eliminated, so they are re-validated below.
    let mut occ_map: HashMap<u32, (Vec<usize>, Vec<usize>)> = HashMap::new();
    for (idx, c) in clauses.iter().enumerate() {
        let Some(lits) = c else { continue };
        for &l in lits {
            let entry = occ_map.entry(l.unsigned_abs()).or_default();
            if l > 0 {
                entry.0.push(idx);
            } else {
                entry.1.push(idx);
            }
        }
    }
    for v in 1..=num_vars as u32 {
        if assign[v as usize] != 0 {
            continue;
        }
        let Some((pos_raw, neg_raw)) = occ_map.get(&v) else {
            continue;
        };
        // Re-validate: entries go stale when clauses are deleted or
        // strengthened. The lists stay *complete* because resolvents are
        // registered as they are created and clauses never gain literals.
        let pos: Vec<usize> = pos_raw
            .iter()
            .filter(|&&idx| {
                clauses[idx]
                    .as_ref()
                    .is_some_and(|c| c.contains(&(v as i32)))
            })
            .copied()
            .collect();
        let neg: Vec<usize> = neg_raw
            .iter()
            .filter(|&&idx| {
                clauses[idx]
                    .as_ref()
                    .is_some_and(|c| c.contains(&-(v as i32)))
            })
            .copied()
            .collect();
        let occ = pos.len() + neg.len();
        if occ == 0 || occ > MAX_OCCURRENCES {
            continue;
        }
        // Build all non-tautological resolvents.
        let mut resolvents: Vec<Vec<i32>> = Vec::new();
        let mut too_big = false;
        'outer: for &pi in &pos {
            for &ni in &neg {
                let a = clauses[pi].as_ref().expect("live");
                let b = clauses[ni].as_ref().expect("live");
                if let Some(r) = resolve(a, b, v as i32) {
                    if r.is_empty() {
                        return None; // empty resolvent: UNSAT
                    }
                    if r.len() > MAX_RESOLVENT_LEN {
                        too_big = true;
                        break 'outer;
                    }
                    resolvents.push(r);
                }
            }
        }
        if too_big || resolvents.len() > occ {
            continue; // elimination would grow the formula
        }
        // Commit: record originals for reconstruction, swap in resolvents.
        let mut originals = Vec::with_capacity(occ);
        for &idx in pos.iter().chain(&neg) {
            originals.push(clauses[idx].take().expect("live"));
        }
        recon.eliminated.push((v, originals));
        for r in resolvents {
            // Register the resolvent in the occurrence lists so later
            // pivots still see every clause that mentions them.
            let idx = clauses.len();
            for &l in &r {
                let entry = occ_map.entry(l.unsigned_abs()).or_default();
                if l > 0 {
                    entry.0.push(idx);
                } else {
                    entry.1.push(idx);
                }
            }
            clauses.push(Some(r));
        }
        changed = true;
    }
    Some(changed)
}

/// Resolvent of `a` and `b` on pivot `v` (`v ∈ a`, `-v ∈ b`); `None` if
/// tautological.
fn resolve(a: &[i32], b: &[i32], v: i32) -> Option<Vec<i32>> {
    let mut r: Vec<i32> = Vec::with_capacity(a.len() + b.len() - 2);
    r.extend(a.iter().copied().filter(|&l| l != v));
    for &l in b.iter().filter(|&&l| l != -v) {
        if r.contains(&-l) {
            return None;
        }
        if !r.contains(&l) {
            r.push(l);
        }
    }
    r.sort_unstable();
    Some(r)
}

/// Preprocess-then-solve convenience; model reconstruction applied.
pub fn solve_cnf_presolved(
    formula: &Cnf,
    cfg: SolverConfig,
    budget: Budget,
) -> (SolveResult, Stats) {
    match presolve(formula) {
        Presolved::Sat(recon) => {
            let model = recon.extend_model(vec![false; formula.num_vars() as usize]);
            debug_assert!(
                formula.eval(&model),
                "reconstruction must satisfy the input"
            );
            (SolveResult::Sat(model), Stats::default())
        }
        Presolved::Unsat => (SolveResult::Unsat, Stats::default()),
        Presolved::Simplified(simplified, recon) => {
            let (res, stats) = solve_cnf(&simplified, cfg, budget);
            match res {
                SolveResult::Sat(model) => {
                    let full = recon.extend_model(model);
                    debug_assert!(formula.eval(&full), "reconstruction must satisfy the input");
                    (SolveResult::Sat(full), stats)
                }
                other => (other, stats),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eliminates_pure_and_low_occurrence_vars() {
        // (1 | 2) & (-2 | 3) & (1 | 3): variable 2 resolves away.
        let mut f = Cnf::new();
        f.add_clause(vec![CnfLit::pos(1), CnfLit::pos(2)]);
        f.add_clause(vec![CnfLit::neg(2), CnfLit::pos(3)]);
        f.add_clause(vec![CnfLit::pos(1), CnfLit::pos(3)]);
        match presolve(&f) {
            Presolved::Unsat => panic!("satisfiable formula reported UNSAT"),
            Presolved::Sat(_) => {}
            Presolved::Simplified(out, _) => {
                assert!(out.num_clauses() <= f.num_clauses());
            }
        }
    }

    #[test]
    fn detects_trivial_unsat() {
        let mut f = Cnf::new();
        f.add_unit(CnfLit::pos(1));
        f.add_unit(CnfLit::neg(1));
        assert!(matches!(presolve(&f), Presolved::Unsat));
    }

    #[test]
    fn subsumption_removes_weaker_clauses() {
        let mut f = Cnf::new();
        f.add_clause(vec![CnfLit::pos(1), CnfLit::pos(2)]);
        f.add_clause(vec![CnfLit::pos(1), CnfLit::pos(2), CnfLit::pos(3)]);
        // Force var 3 to stay (occurrence in another clause pair).
        f.add_clause(vec![CnfLit::neg(3), CnfLit::pos(4), CnfLit::neg(1)]);
        f.add_clause(vec![CnfLit::pos(3), CnfLit::neg(4), CnfLit::pos(2)]);
        if let Presolved::Simplified(out, _) = presolve(&f) {
            assert!(out.num_clauses() < f.num_clauses());
        }
    }

    #[test]
    fn tseitin_formulas_shrink() {
        // BVE on a Tseitin encoding removes most gate variables.
        let mut g = aig::Aig::new();
        let pis = g.add_pis(8);
        let x = g.xor_many(&pis);
        g.add_po(x);
        let (f, _) = cnf::tseitin_sat_instance(&g);
        match presolve(&f) {
            Presolved::Simplified(out, _) => {
                assert!(
                    out.num_clauses() <= f.num_clauses() * 2,
                    "bounded growth: {} -> {}",
                    f.num_clauses(),
                    out.num_clauses()
                );
            }
            Presolved::Sat(_) => {}
            Presolved::Unsat => panic!("xor instance is satisfiable"),
        }
        // And solving with presolve gives a valid witness.
        let (res, _) = solve_cnf_presolved(&f, SolverConfig::default(), Budget::UNLIMITED);
        let model = res.model().expect("xor is satisfiable").to_vec();
        assert!(f.eval(&model));
    }

    /// A fixed formula whose presolve output moves with each limit: a
    /// maximum of 21 occurrences, a resolvent length of 11 or 13, or 3 or
    /// 5 rounds each change it. Three hot variables take a quarter of all
    /// literals; clauses hold 2 to 7 literals.
    fn pinned_formula() -> Cnf {
        let mut x = 0xbe1e_08c4_7287_358fu64;
        let mut next = |k: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % k
        };
        let mut f = Cnf::new();
        f.ensure_vars(30);
        for _ in 0..100 {
            let len = 2 + next(6) as usize;
            let mut c: Vec<CnfLit> = Vec::new();
            while c.len() < len {
                let v = if next(4) == 0 {
                    1 + next(3)
                } else {
                    1 + next(30)
                } as u32;
                if c.iter().all(|l| l.var() != v) {
                    c.push(CnfLit::new(v, next(2) == 1));
                }
            }
            f.add_clause(c);
        }
        f
    }

    /// Order-sensitive FNV-1a digest of a clause list.
    fn clause_digest(f: &Cnf) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for c in f.clauses() {
            for l in c.iter().map(|l| l.to_dimacs()).chain([0]) {
                for b in l.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Pins presolve's output on [`pinned_formula`]: its variables, its
    /// clauses and their order.
    #[test]
    fn presolve_output_is_pinned() {
        let Presolved::Simplified(out, _) = presolve(&pinned_formula()) else {
            panic!("the pinned formula simplifies");
        };
        assert_eq!(
            (out.num_vars(), out.num_clauses(), clause_digest(&out)),
            (30, 46, 1_983_196_256_322_611_517)
        );
    }
}
