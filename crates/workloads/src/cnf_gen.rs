//! Direct CNF workload generators (no circuit intermediary): canonical
//! solver stressors shared by the perf harness and the differential test
//! suites — one definition, one encoding.

use aig::{Aig, Lit};
use cnf::{Cnf, CnfLit};
use rand::{Rng, SeedableRng};

/// Pigeonhole principle PHP(n+1, n): `holes + 1` pigeons into `holes`
/// holes — the canonical propagation-heavy UNSAT family. Variable
/// `p * holes + h + 1` means "pigeon `p` sits in hole `h`".
pub fn pigeonhole(holes: u32) -> Cnf {
    let pigeons = holes + 1;
    let var = |p: u32, h: u32| p * holes + h + 1;
    let mut f = Cnf::new();
    for p in 0..pigeons {
        f.add_clause((0..holes).map(|h| CnfLit::pos(var(p, h))).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                f.add_clause(vec![CnfLit::neg(var(p1, h)), CnfLit::neg(var(p2, h))]);
            }
        }
    }
    f
}

/// The same pigeonhole family as [`pigeonhole`], but as a combinational
/// circuit: PI `p * holes + h` means "pigeon `p` sits in hole `h`", and
/// the single PO is the conjunction of every placement constraint — each
/// of the `holes + 1` pigeons in some hole, no hole holding two pigeons.
/// The PO is satisfiable iff a valid injection exists, i.e. never: the
/// instance is UNSAT, turning a CNF-only stressor into a front-door
/// workload for the full AIG → CNF pipeline (and the CLI's timeout path).
pub fn pigeonhole_aig(holes: u32) -> Aig {
    let pigeons = holes + 1;
    let mut g = Aig::new();
    let pis: Vec<Lit> = (0..pigeons * holes).map(|_| g.add_pi()).collect();
    let var = |p: u32, h: u32| pis[(p * holes + h) as usize];
    let mut constraints = Lit::TRUE;
    for p in 0..pigeons {
        let mut somewhere = Lit::FALSE;
        for h in 0..holes {
            somewhere = g.or(somewhere, var(p, h));
        }
        constraints = g.and(constraints, somewhere);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                let clash = g.and(var(p1, h), var(p2, h));
                constraints = g.and(constraints, !clash);
            }
        }
    }
    g.add_po(constraints);
    g
}

/// Uniform random 3-SAT over `n` variables at the given clause/variable
/// ratio (4.26 is the classic phase-transition point). Deterministic for
/// a fixed seed; clauses hold three distinct variables.
pub fn random_3sat(n: u32, ratio: f64, seed: u64) -> Cnf {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut f = Cnf::new();
    f.ensure_vars(n);
    for _ in 0..(n as f64 * ratio) as usize {
        let mut clause = Vec::new();
        while clause.len() < 3 {
            let v = rng.gen_range(1..=n);
            if clause.iter().all(|l: &CnfLit| l.var() != v) {
                clause.push(CnfLit::new(v, rng.gen()));
            }
        }
        f.add_clause(clause);
    }
    f
}

/// Uniform random 2-SAT over `n` variables at the given clause/variable
/// ratio (the SAT/UNSAT threshold sits at 1.0). Deterministic for a fixed
/// seed. Every clause is binary, so the whole instance lives in the
/// solver's inline binary tier — the canonical stressor for the
/// binary-watcher propagation path.
///
/// # Panics
/// Panics if `n < 2` (a binary clause needs two distinct variables).
pub fn random_2sat(n: u32, ratio: f64, seed: u64) -> Cnf {
    assert!(n >= 2, "binary clauses need two distinct variables");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut f = Cnf::new();
    f.ensure_vars(n);
    for _ in 0..(n as f64 * ratio) as usize {
        let a = rng.gen_range(1..=n);
        let mut b = rng.gen_range(1..=n);
        while b == a {
            b = rng.gen_range(1..=n);
        }
        f.add_clause(vec![CnfLit::new(a, rng.gen()), CnfLit::new(b, rng.gen())]);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_2sat_deterministic_and_all_binary() {
        let a = random_2sat(50, 1.5, 11);
        let b = random_2sat(50, 1.5, 11);
        assert_eq!(a, b);
        assert_eq!(a.num_clauses(), 75);
        for c in a.clauses() {
            assert_eq!(c.len(), 2);
            assert_ne!(c[0].var(), c[1].var());
        }
    }

    #[test]
    fn pigeonhole_shape() {
        let holes = 4u32;
        let f = pigeonhole(holes);
        let pigeons = holes + 1;
        let pair_clauses = holes * pigeons * (pigeons - 1) / 2;
        assert_eq!(f.num_vars(), pigeons * holes);
        assert_eq!(f.num_clauses() as u32, pigeons + pair_clauses);
    }

    #[test]
    fn pigeonhole_aig_is_exhaustively_unsat() {
        // holes+1 pigeons never fit: the PO must be false for every input
        // assignment (checked exhaustively at small sizes).
        for holes in [1u32, 2] {
            let g = pigeonhole_aig(holes);
            let n = ((holes + 1) * holes) as usize;
            assert_eq!(g.num_pis(), n);
            assert_eq!(g.num_pos(), 1);
            for bits in 0..(1u32 << n) {
                let ins: Vec<bool> = (0..n).map(|i| bits >> i & 1 != 0).collect();
                assert!(!g.eval(&ins)[0], "holes={holes} bits={bits:b}");
            }
        }
    }

    #[test]
    fn random_3sat_deterministic_and_well_formed() {
        let a = random_3sat(30, 4.26, 7);
        let b = random_3sat(30, 4.26, 7);
        assert_eq!(a.num_clauses(), b.num_clauses());
        assert_eq!(a.num_clauses(), (30.0 * 4.26) as usize);
        for c in a.clauses() {
            assert_eq!(c.len(), 3);
            let mut vars: Vec<u32> = c.iter().map(|l| l.var()).collect();
            vars.sort_unstable();
            vars.dedup();
            assert_eq!(vars.len(), 3, "distinct variables per clause");
        }
    }
}
