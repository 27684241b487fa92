//! Pins the CDCL search trajectory bit for bit.
//!
//! Each case runs under both presets, once with proof logging off and
//! once with it on, and must reproduce its recorded verdicts, every
//! counter of [`sat::Stats::counters`] that the pin names, and a digest of
//! the proof log's steps (every lemma and deletion with its literals in
//! stored order and its hint list). Logging must not move the search, so
//! both runs share one row of counters. A solver change that only makes
//! the same search cheaper leaves this file passing unchanged.

use aig::Aig;
use cnf::{Cnf, CnfLit};
use mapper::{map_luts, BranchingCost, MapParams};
use sat::{Budget, SolveResult, Solver, SolverConfig};
use std::hash::Hasher;
use workloads::cnf_gen::{pigeonhole, random_3sat};
use workloads::datapath::{carry_lookahead_adder, ripple_carry_adder};
use workloads::lec::{copy_into, miter};

/// The pinned counters, by their [`sat::Stats::counters`] names.
const COUNTERS: [&str; 11] = [
    "decisions",
    "conflicts",
    "propagations",
    "restarts",
    "learnt_clauses",
    "deleted_clauses",
    "minimized_literals",
    "gcs",
    "watcher_shrinks",
    "deadline_interrupts",
    "cancellations",
];

/// What one run leaves behind: a verdict letter per solve (`S`, `U` or
/// `?` for unknown), the pinned counters and the proof digest (0 with
/// logging off).
type Run = (String, [u64; 11], u64);

/// One pinned row: case, preset, verdicts, counters, proof digest.
type Pin = (&'static str, &'static str, &'static str, [u64; 11], u64);

fn verdict(r: &SolveResult) -> char {
    match r {
        SolveResult::Sat(_) => 'S',
        SolveResult::Unsat => 'U',
        SolveResult::Unknown => '?',
    }
}

/// Order-sensitive digest of every proof step: kind, literals, hints.
fn proof_digest(solver: &Solver) -> u64 {
    let Some(log) = solver.proof() else {
        return 0;
    };
    let mut h = aig::hash::FastHasher::default();
    for step in &log.proof().steps {
        h.write_u64(step.delete as u64);
        h.write_u64(step.lits.len() as u64);
        for &l in &step.lits {
            h.write_u64(l as i64 as u64);
        }
        h.write_u64(step.hints.len() as u64);
        for &v in &step.hints {
            h.write_u64(v as u64);
        }
    }
    h.finish()
}

fn finish(solver: &Solver, verdicts: String) -> Run {
    let all = solver.stats().counters();
    let counters = COUNTERS.map(|name| {
        all.iter()
            .find(|&&(n, _)| n == name)
            .unwrap_or_else(|| panic!("Stats::counters names {name}"))
            .1
    });
    (verdicts, counters, proof_digest(solver))
}

/// One plain solve of `f`.
fn solve_once(f: &Cnf, cfg: SolverConfig) -> Run {
    let mut solver = Solver::from_cnf(f, cfg);
    let r = solver.solve();
    finish(&solver, verdict(&r).to_string())
}

/// The two preset constructors, by name.
fn presets() -> [(&'static str, SolverConfig); 2] {
    [
        ("kissat", SolverConfig::kissat_like()),
        ("cadical", SolverConfig::cadical_like()),
    ]
}

/// Runs `run` under each preset with logging off and on, checks that
/// logging leaves the search alone, and compares each logged run with its
/// pinned row.
fn check(cases: &[(&str, &dyn Fn(SolverConfig) -> Run)], want: &[Pin]) {
    let mut got = Vec::new();
    for &(case, run) in cases {
        for (preset, cfg) in presets() {
            let off = run(cfg.clone());
            let on = run(SolverConfig { proof: true, ..cfg });
            assert_eq!(
                (&off.0, off.1),
                (&on.0, on.1),
                "{case}/{preset}: proof logging moved the search"
            );
            got.push((case, preset, on));
        }
    }
    assert_eq!(got.len(), want.len(), "one pinned row per case and preset");
    for ((case, preset, run), &(wc, wp, wv, wcounters, wdigest)) in got.iter().zip(want) {
        assert_eq!((*case, *preset), (wc, wp), "row order");
        assert_eq!(
            (run.0.as_str(), run.1, run.2),
            (wv, wcounters, wdigest),
            "{case}/{preset}: verdicts, counters {COUNTERS:?}, proof digest"
        );
    }
}

#[test]
fn pigeonhole_trajectories_are_pinned() {
    let php = |holes: u32| move |cfg: SolverConfig| solve_once(&pigeonhole(holes), cfg);
    let (php6, php7, php8) = (php(6), php(7), php(8));
    check(
        &[("php6", &php6), ("php7", &php7), ("php8", &php8)],
        &[
            (
                "php6",
                "kissat",
                "U",
                [970, 800, 10466, 2, 799, 0, 1779, 0, 0, 0, 0],
                1927247599554729744,
            ),
            (
                "php6",
                "cadical",
                "U",
                [594, 514, 5805, 1, 513, 0, 897, 0, 0, 0, 0],
                7862421446046264363,
            ),
            (
                "php7",
                "kissat",
                "U",
                [4127, 3521, 47973, 8, 3520, 995, 11924, 1, 60, 0, 0],
                10922964649548980074,
            ),
            (
                "php7",
                "cadical",
                "U",
                [2731, 2382, 28197, 4, 2381, 0, 5930, 0, 0, 0, 0],
                7080077748481411794,
            ),
            (
                "php8",
                "kissat",
                "U",
                [20705, 17705, 220506, 30, 17704, 9993, 75161, 4, 280, 0, 0],
                13809295913822784811,
            ),
            (
                "php8",
                "cadical",
                "U",
                [16760, 14493, 174912, 26, 14492, 8970, 53007, 3, 242, 0, 0],
                12719710078691143710,
            ),
        ],
    );
}

#[test]
fn random_3sat_trajectories_are_pinned() {
    let r3 =
        |n: u32, seed: u64| move |cfg: SolverConfig| solve_once(&random_3sat(n, 4.26, seed), cfg);
    let (a, b, c) = (r3(120, 1), r3(150, 3), r3(175, 5));
    check(
        &[("r3sat120", &a), ("r3sat150", &b), ("r3sat175", &c)],
        &[
            (
                "r3sat120",
                "kissat",
                "S",
                [391, 300, 8228, 1, 300, 0, 553, 0, 0, 0, 0],
                4475104473898858187,
            ),
            (
                "r3sat120",
                "cadical",
                "S",
                [177, 114, 3238, 0, 114, 0, 156, 0, 0, 0, 0],
                7701471381009641835,
            ),
            (
                "r3sat150",
                "kissat",
                "S",
                [1534, 1269, 40357, 3, 1269, 0, 2893, 0, 0, 0, 0],
                8987165656242435813,
            ),
            (
                "r3sat150",
                "cadical",
                "S",
                [1623, 1325, 42483, 3, 1325, 0, 3924, 0, 0, 0, 0],
                13952452912839102365,
            ),
            (
                "r3sat175",
                "kissat",
                "U",
                [7492, 6349, 217332, 14, 6348, 2967, 19143, 2, 221, 0, 0],
                13839692741770037252,
            ),
            (
                "r3sat175",
                "cadical",
                "U",
                [9046, 7860, 264904, 0, 7859, 4159, 23400, 2, 246, 0, 0],
                15896759523851547102,
            ),
        ],
    );
}

/// The Tseitin CNF of `miter(rca(bits), cla(bits))`, output asserted.
fn tseitin_miter(bits: usize) -> Cnf {
    let g = miter(
        &ripple_carry_adder(bits).aig,
        &carry_lookahead_adder(bits).aig,
    );
    cnf::tseitin_sat_instance(&g).0
}

/// The LUT CNF of the same miter, mapped under the branching cost.
fn lut_miter(bits: usize) -> Cnf {
    let g = miter(
        &ripple_carry_adder(bits).aig,
        &carry_lookahead_adder(bits).aig,
    );
    let net = map_luts(&g, &MapParams::default(), &BranchingCost::new());
    cnf::lut_to_cnf_sat_instance(&net).0
}

#[test]
fn adder_miter_trajectories_are_pinned() {
    let tseitin = |bits: usize| move |cfg: SolverConfig| solve_once(&tseitin_miter(bits), cfg);
    let lut = |bits: usize| move |cfg: SolverConfig| solve_once(&lut_miter(bits), cfg);
    let (t8, t16, t24) = (tseitin(8), tseitin(16), tseitin(24));
    let (l8, l16, l24) = (lut(8), lut(16), lut(24));
    check(
        &[
            ("tseitin8", &t8),
            ("tseitin16", &t16),
            ("tseitin24", &t24),
            ("lut8", &l8),
            ("lut16", &l16),
            ("lut24", &l24),
        ],
        &[
            (
                "tseitin8",
                "kissat",
                "U",
                [261, 177, 8282, 0, 176, 0, 432, 0, 0, 0, 0],
                203747687011819727,
            ),
            (
                "tseitin8",
                "cadical",
                "U",
                [191, 108, 5024, 0, 107, 0, 184, 0, 0, 0, 0],
                9091992545403011046,
            ),
            (
                "tseitin16",
                "kissat",
                "U",
                [1006, 588, 53302, 2, 587, 0, 3162, 0, 0, 0, 0],
                6923028406517476262,
            ),
            (
                "tseitin16",
                "cadical",
                "U",
                [1422, 777, 68454, 4, 776, 0, 2730, 0, 0, 0, 0],
                5268077383073631022,
            ),
            (
                "tseitin24",
                "kissat",
                "U",
                [3787, 2130, 262000, 6, 2129, 886, 14236, 1, 192, 0, 0],
                17637821278169835125,
            ),
            (
                "tseitin24",
                "cadical",
                "U",
                [2505, 1265, 171200, 6, 1264, 0, 5538, 0, 0, 0, 0],
                2183988441880740737,
            ),
            (
                "lut8",
                "kissat",
                "U",
                [387, 244, 4214, 0, 243, 0, 242, 0, 0, 0, 0],
                17278817133480134358,
            ),
            (
                "lut8",
                "cadical",
                "U",
                [242, 142, 1993, 0, 141, 0, 139, 0, 0, 0, 0],
                4147872275474558653,
            ),
            (
                "lut16",
                "kissat",
                "U",
                [1260, 627, 22739, 2, 626, 0, 1271, 0, 0, 0, 0],
                16376343331646867341,
            ),
            (
                "lut16",
                "cadical",
                "U",
                [1105, 588, 18486, 2, 587, 0, 902, 0, 0, 0, 0],
                11074828899853487565,
            ),
            (
                "lut24",
                "kissat",
                "U",
                [3873, 1768, 94368, 5, 1767, 0, 7981, 0, 0, 0, 0],
                1810857310880231956,
            ),
            (
                "lut24",
                "cadical",
                "U",
                [3564, 1710, 90078, 7, 1709, 0, 5748, 0, 0, 0, 0],
                4937479948548650684,
            ),
        ],
    );
}

/// A sweep-style incremental sequence on one solver: the Tseitin CNF of
/// both adders over shared inputs, no output asserted, then per output
/// bit a budgeted query of the two adders' bits under a miter gadget with
/// an activation literal, an equivalence merge after each refutation, a
/// query of mismatched bits, and a plain assumption, with the gadget
/// retired by a unit after its query.
fn sweep_sequence(bits: usize, cfg: SolverConfig) -> Run {
    let (rca, cla) = (
        ripple_carry_adder(bits).aig,
        carry_lookahead_adder(bits).aig,
    );
    let mut g = Aig::new();
    let pis = g.add_pis(rca.num_pis());
    let outs_a = copy_into(&rca, &mut g, &pis);
    let outs_b = copy_into(&cla, &mut g, &pis);
    for &o in outs_a.iter().chain(&outs_b) {
        g.add_po(o);
    }
    let (base, vmap) = cnf::tseitin(&g);
    let lit = |l: aig::Lit| vmap.lit(l).expect("outputs are encoded");
    let mut solver = Solver::from_cnf(&base, cfg);
    let mut next_var = base.num_vars() + 1;
    let mut verdicts = String::new();
    let mut query = |solver: &mut Solver, a: CnfLit, b: CnfLit| {
        let s = CnfLit::pos(next_var);
        next_var += 1;
        solver.add_clause_cnf(&[!s, a, b]);
        solver.add_clause_cnf(&[!s, !a, !b]);
        let limit = solver.stats().conflicts + 25;
        solver.set_budget(Budget::conflicts(limit));
        let r = solver.solve_with_assumptions(&[s]);
        solver.add_clause_cnf(&[!s]);
        r
    };
    for i in 0..outs_a.len() {
        let (a, b) = (lit(outs_a[i]), lit(outs_b[i]));
        let r = query(&mut solver, a, b);
        if r.is_unsat() {
            solver.add_clause_cnf(&[!a, b]);
            solver.add_clause_cnf(&[a, !b]);
        }
        verdicts.push(verdict(&r));
        let other = lit(outs_b[(i + 1) % outs_b.len()]);
        verdicts.push(verdict(&query(&mut solver, a, other)));
        solver.set_budget(Budget::UNLIMITED);
        let assume = if i % 2 == 0 { a } else { !a };
        verdicts.push(verdict(&solver.solve_with_assumptions(&[assume])));
    }
    finish(&solver, verdicts)
}

#[test]
fn incremental_sweep_trajectories_are_pinned() {
    let seq = |bits: usize| move |cfg: SolverConfig| sweep_sequence(bits, cfg);
    let (s12, s24) = (seq(12), seq(24));
    check(
        &[("sweep12", &s12), ("sweep24", &s24)],
        &[
            (
                "sweep12",
                "kissat",
                "USSUSSUSSUSSUSSUSSUSSUSSUSSUSS?SSUSSUSS",
                [1256, 195, 22048, 0, 195, 0, 82, 0, 0, 0, 0],
                4442454053711211795,
            ),
            (
                "sweep12",
                "cadical",
                "USSUSSUSSUSSUSSUSSUSSUSS?SSUSSUSS?SS?SS",
                [1278, 207, 22836, 0, 207, 0, 142, 0, 0, 0, 0],
                14294827880409130696,
            ),
            (
                "sweep24",
                "kissat",
                "USSUSSUSSUSSUSS?SSUSSUSSUSSUSS?SSUSS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS",
                [4360, 551, 161666, 2, 551, 0, 449, 0, 0, 0, 0],
                5778976055195030751,
            ),
            (
                "sweep24",
                "cadical",
                "U?SUSSUSSUSSUSSUSSUSSUSS?SS?SSUSS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS?SS",
                [4474, 586, 157682, 1, 586, 0, 298, 0, 0, 0, 0],
                54519326319829335,
            ),
        ],
    );
}
