//! Property-based tests (proptest) over the core data structures and the
//! cross-crate invariants the pipeline relies on.

use aig::npn::npn_canon;
use aig::{Aig, Cube, Lit, Tt};
use cnf::{Cnf, CnfLit};
use csat_tests::reference::dpll_sat;
use proptest::prelude::*;
use sat::{solve_cnf, Budget, SolverConfig};

proptest! {
    /// ISOP covers compute exactly the function they cover, from constants
    /// up to the 12-variable tables of refactoring's widest allowed cuts
    /// (its default is 10 leaves).
    #[test]
    fn isop_cover_equals_function(nvars in 0usize..=12, words in proptest::collection::vec(any::<u64>(), 64)) {
        let n_words = if nvars <= 6 { 1 } else { 1 << (nvars - 6) };
        let f = Tt::from_words(nvars, words[..n_words].to_vec());
        let cover = f.isop();
        let mut acc = Tt::zero(nvars);
        for c in &cover {
            acc = acc | c.to_tt(nvars);
        }
        prop_assert_eq!(acc, f);
    }

    /// Branching complexity is bounded by the minterm counts of both sides
    /// (each ISOP cube covers at least one minterm exclusively) and is at
    /// least 2 for any non-constant function (one cube per side).
    ///
    /// Note: exact *permutation* invariance does NOT hold — ISOP covers are
    /// irredundant, not minimum, so the cube count can vary slightly with
    /// variable order; the LUT mapper prices the concrete cut function it
    /// will encode, which is exactly what `lut2cnf` emits.
    #[test]
    fn branching_complexity_bounds(bits in any::<u16>()) {
        let f = Tt::from_u16(bits);
        let c = f.branching_complexity();
        let onset = f.count_ones() as usize;
        let offset = 16 - onset;
        prop_assert!(c <= onset + offset.max(1) + 1);
        if bits != 0 && bits != u16::MAX {
            prop_assert!(c >= 2, "non-constant needs a cube on each side");
        } else {
            prop_assert_eq!(c, 1, "constants have one tautology cube on one side");
        }
    }

    /// Output complementation swaps the two ISOP sides but keeps the total.
    #[test]
    fn branching_complexity_output_symmetric(bits in any::<u16>()) {
        let f = Tt::from_u16(bits);
        prop_assert_eq!(f.branching_complexity(), (!&f).branching_complexity());
    }

    /// NPN canonisation: the canon is reachable and class-invariant.
    #[test]
    fn npn_canon_sound(bits in any::<u16>()) {
        let (canon, t) = npn_canon(bits);
        prop_assert_eq!(t.apply(bits), canon);
        let (canon2, _) = npn_canon(canon);
        prop_assert_eq!(canon, canon2);
    }

    /// Lit encoding roundtrips.
    #[test]
    fn lit_roundtrip(var in 0u32..1_000_000, compl in any::<bool>()) {
        let l = Lit::from_var(var, compl);
        prop_assert_eq!(l.var(), var);
        prop_assert_eq!(l.is_compl(), compl);
        prop_assert_eq!(!!l, l);
    }

    /// Cube evaluation matches its truth-table expansion.
    #[test]
    fn cube_tt_agree(mask in 0u32..256, vals in 0u32..256, m in 0u32..256) {
        let c = Cube { mask, vals };
        let t = c.to_tt(8);
        prop_assert_eq!(c.eval(m), t.bit(m as usize));
    }

    /// AIGER text roundtrip preserves the function of random graphs.
    #[test]
    fn aiger_roundtrip(seed in any::<u64>()) {
        let g = arbitrary_aig(seed, 5, 25);
        let text = aig::aiger::to_aag_string(&g);
        let h = aig::aiger::from_aag_str(&text).unwrap();
        prop_assert!(aig::check::exhaustive_equiv(&g, &h));
    }

    /// The CDCL solver agrees with the DPLL oracle on arbitrary small CNFs.
    #[test]
    fn solver_matches_oracle(clauses in proptest::collection::vec(
        proptest::collection::vec((1u32..=8, any::<bool>()), 1..4), 1..30)) {
        let mut f = Cnf::new();
        f.ensure_vars(8);
        for c in &clauses {
            let mut lits: Vec<CnfLit> = Vec::new();
            for &(v, pos) in c {
                if lits.iter().all(|l| l.var() != v) {
                    lits.push(CnfLit::new(v, pos));
                }
            }
            f.add_clause(lits);
        }
        let expected = dpll_sat(&f);
        let (res, _) = solve_cnf(&f, SolverConfig::kissat_like(), Budget::UNLIMITED);
        prop_assert_eq!(res.is_sat(), expected);
        if let sat::SolveResult::Sat(model) = res {
            prop_assert!(f.eval(&model));
        }
    }

    /// Synthesis operations preserve function on arbitrary graphs
    /// (simulation check; SAT-proved in `synth_equivalence.rs`).
    #[test]
    fn synth_ops_preserve_function(seed in any::<u64>(), op_idx in 0usize..5) {
        let g = arbitrary_aig(seed, 6, 40);
        let op = synth::SynthOp::ALL[op_idx];
        let h = synth::apply_op(&g, op);
        prop_assert!(aig::check::exhaustive_equiv(&g, &h));
    }

    /// SAT sweeping preserves function on arbitrary graphs and never
    /// grows them.
    #[test]
    fn fraig_preserves_function_and_never_grows(seed in any::<u64>()) {
        let g = arbitrary_aig(seed, 6, 35);
        let out = sweep::fraig(&g, &sweep::FraigParams::default());
        prop_assert!(aig::check::exhaustive_equiv(&g, &out.aig));
        prop_assert!(out.aig.num_ands() <= g.num_ands());
        prop_assert_eq!(
            out.stats.proved + out.stats.disproved + out.stats.unknown,
            out.stats.sat_calls as usize
        );
    }

    /// CNF presolve is equisatisfiable and its model reconstruction is
    /// sound on arbitrary small formulas.
    #[test]
    fn presolve_equisatisfiable(clauses in proptest::collection::vec(
        proptest::collection::vec((1u32..=9, any::<bool>()), 1..5), 1..35)) {
        let mut f = Cnf::new();
        f.ensure_vars(9);
        for c in &clauses {
            let mut lits: Vec<CnfLit> = Vec::new();
            for &(v, pos) in c {
                if lits.iter().all(|l| l.var() != v) {
                    lits.push(CnfLit::new(v, pos));
                }
            }
            f.add_clause(lits);
        }
        let expected = dpll_sat(&f);
        let (res, _) =
            sat::presolve::solve_cnf_presolved(&f, SolverConfig::cadical_like(), Budget::UNLIMITED);
        prop_assert_eq!(res.is_sat(), expected);
        if let sat::SolveResult::Sat(model) = res {
            prop_assert!(f.eval(&model), "reconstructed model must satisfy the input");
        }
    }

    /// Mapping preserves function on arbitrary graphs for both costs.
    #[test]
    fn mapping_preserves_function(seed in any::<u64>(), k in 3usize..=6) {
        let g = arbitrary_aig(seed, 6, 30);
        let params = mapper::MapParams { k, depth_slack: Some(0) };
        for cost in [true, false] {
            let net = if cost {
                mapper::map_luts(&g, &params, &mapper::BranchingCost::new())
            } else {
                mapper::map_luts(&g, &params, &mapper::AreaCost)
            };
            for m in 0..64usize {
                let ins: Vec<bool> = (0..6).map(|i| m >> i & 1 != 0).collect();
                prop_assert_eq!(g.eval(&ins), net.eval(&ins));
            }
        }
    }
}

/// Deterministic "arbitrary" AIG from a seed (proptest shrinks the seed).
fn arbitrary_aig(seed: u64, n_pis: usize, n_gates: usize) -> Aig {
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
    g
}
