//! Presolve at circuit scale: the occurrence-list implementation must
//! handle multi-thousand-clause Tseitin CNFs in well under a second and
//! meaningfully shrink them (gate variables resolve away).

use sat::presolve::{presolve, Presolved};
use std::time::Instant;

/// A wide adder-architecture miter's Tseitin encoding (~10k clauses).
fn big_tseitin() -> cnf::Cnf {
    let mut g = aig::Aig::new();
    let n = 64;
    let a = g.add_pis(n);
    let b = g.add_pis(n);
    // Ripple vs majority-carry ripple, XOR-mitred.
    let mut c1 = aig::Lit::FALSE;
    let mut c2 = aig::Lit::FALSE;
    let mut diffs = Vec::new();
    for i in 0..n {
        let t = g.xor(a[i], b[i]);
        let s1 = g.xor(t, c1);
        let g1 = g.and(a[i], b[i]);
        let g2 = g.and(t, c1);
        c1 = g.or(g1, g2);

        let s2x = g.xor(a[i], b[i]);
        let s2 = g.xor(s2x, c2);
        let ab = g.and(a[i], b[i]);
        let ac = g.and(a[i], c2);
        let bc = g.and(b[i], c2);
        let or1 = g.or(ab, ac);
        c2 = g.or(or1, bc);

        diffs.push(g.xor(s1, s2));
    }
    diffs.push(g.xor(c1, c2));
    let any = g.or_many(&diffs);
    g.add_po(any);
    let (f, _) = cnf::tseitin_sat_instance(&g);
    f
}

#[test]
fn presolve_handles_circuit_scale_quickly() {
    let f = big_tseitin();
    assert!(
        f.num_clauses() > 2_000,
        "want a non-trivial CNF, got {}",
        f.num_clauses()
    );
    let t0 = Instant::now();
    let out = presolve(&f, None);
    let dt = t0.elapsed();
    assert!(
        dt.as_secs_f64() < 5.0,
        "presolve took {dt:?} on {} clauses — occurrence lists regressed",
        f.num_clauses()
    );
    match out {
        Presolved::Simplified(simplified, _) => {
            assert!(
                simplified.num_clauses() < f.num_clauses(),
                "expected shrinkage: {} -> {}",
                f.num_clauses(),
                simplified.num_clauses()
            );
        }
        Presolved::Unsat => panic!("equivalence miter reported UNSAT by presolve alone is fine in principle, but BVE at default limits cannot prove it"),
        Presolved::Sat(_) => panic!("miter of inequivalent-free adders cannot be trivially SAT"),
    }
}
