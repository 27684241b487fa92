//! Seeded inputs of the workloads.
//!
//! A workload is a fixed layout of cells, one case per cell and operand
//! width: a problem family of the paper's LEC/ATPG mix, built from the
//! `workloads` generators the way `workloads::dataset::generate` builds
//! it. The layout fixes which families and widths a run solves, and so
//! most of its work, for every seed; the seed picks what varies inside a
//! cell: bug sites, fault sites and restructurings. (With families and
//! widths drawn by the seed too, the draw decided most of an arm's time:
//! totals of different seeds spread by 20-35% of their median.)
//!
//! The arms run every case once per pass; the service answers a stream in
//! which every case appears `repeats` times in a seeded shuffle. Cases are
//! distinct by the service's cache key, so the first query of a case
//! misses and a later one hits unless it is picked while the first is
//! still solving.

use aig::Aig;
use serve::Query;
use std::collections::HashSet;
use workloads::atpg::{random_fault_miter, random_testable_fault};
use workloads::datapath::{
    alu, array_multiplier, carry_lookahead_adder, carry_select_adder, comparator_eq, comparator_lt,
    mux_tree, parity, ripple_carry_adder, Block,
};
use workloads::lec::{inject_bug, miter, restructure};

/// The workloads the benchmark names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 44-bit adder-architecture and ALU LEC miters plus ATPG miters: the
    /// solver does nearly all of the baseline's work.
    LecWide,
    /// The paper's training profile (4–12-bit miters): preprocessing does
    /// most of the work, and the service meets many cold queries.
    SmallMix,
}

impl Kind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 2] = [Kind::LecWide, Kind::SmallMix];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LecWide => "lec-wide",
            Kind::SmallMix => "small-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The workload's layout. `tiny` is the layout the benchmark's own
    /// tests use: few, narrow cases.
    pub fn layout(self, tiny: bool) -> Layout {
        match (self, tiny) {
            (Kind::LecWide, false) => Layout {
                widths: &[44],
                cells: LEC_WIDE,
                repeats: 92,
            },
            (Kind::SmallMix, false) => Layout {
                widths: &[4, 5, 6, 7, 8, 9, 10, 11, 12],
                cells: SMALL_MIX,
                repeats: 5,
            },
            (Kind::LecWide, true) => Layout {
                widths: &[12],
                cells: &LEC_WIDE[..4],
                repeats: 3,
            },
            (Kind::SmallMix, true) => Layout {
                widths: &[4],
                cells: SMALL_MIX,
                repeats: 2,
            },
        }
    }
}

/// Which cases a workload holds: every cell at every width.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Operand widths.
    pub widths: &'static [usize],
    /// Problem families, one case each per width.
    pub cells: &'static [Cell],
    /// Times each case appears in the service stream.
    pub repeats: usize,
}

/// Two implementations of one function, as `workloads::dataset` pairs
/// them: three adder architectures against each other, and five blocks
/// against a seeded restructuring of themselves.
#[derive(Clone, Copy, Debug)]
pub enum Pair {
    RcaCla,
    RcaCsel,
    ClaCsel,
    Alu,
    Eq,
    Lt,
    Mux,
    Parity,
}

/// A block whose stuck-at faults make ATPG miters.
#[derive(Clone, Copy, Debug)]
pub enum Base {
    Rca,
    Cla,
    Alu,
    Lt,
    Mul,
}

/// One problem family of a layout.
#[derive(Clone, Copy, Debug)]
pub enum Cell {
    /// Equivalence miter of a pair (UNSAT).
    Equiv(Pair),
    /// Miter of a pair whose second half carries an injected bug that
    /// random simulation observes (SAT).
    Bug(Pair),
    /// ATPG miter of a stuck-at fault that random simulation observes
    /// (SAT).
    Fault(Base),
    /// ATPG miter of an unfiltered stuck-at fault, which may be untestable
    /// (unlabelled).
    AnyFault(Base),
}

/// `lec-wide`: equivalent and bug-injected adder-architecture and ALU
/// pairs, and testable stuck-at faults. The tiny layout takes the first
/// few, so the cheap ones come first. (Stuck-at faults in carry-lookahead
/// adders and multipliers are left out: the sweep's cost on them swings
/// tenfold or more with the fault site, which made `ours_fraig.total_s`
/// depend on the seed.)
const LEC_WIDE: &[Cell] = &[
    Cell::Fault(Base::Lt),
    Cell::Bug(Pair::Alu),
    Cell::Equiv(Pair::RcaCsel),
    Cell::Bug(Pair::RcaCla),
    Cell::Fault(Base::Alu),
    Cell::Fault(Base::Rca),
    Cell::Equiv(Pair::Alu),
    Cell::Bug(Pair::ClaCsel),
    Cell::Bug(Pair::RcaCsel),
    Cell::Equiv(Pair::RcaCla),
    Cell::Equiv(Pair::ClaCsel),
];

/// `small-mix`: every pair of the training profile, equivalent and
/// bug-injected, and stuck-at faults of every block, at the paper's 2:1
/// LEC:ATPG ratio.
const SMALL_MIX: &[Cell] = &[
    Cell::Equiv(Pair::RcaCla),
    Cell::Equiv(Pair::RcaCsel),
    Cell::Equiv(Pair::ClaCsel),
    Cell::Equiv(Pair::Alu),
    Cell::Equiv(Pair::Eq),
    Cell::Equiv(Pair::Lt),
    Cell::Equiv(Pair::Mux),
    Cell::Equiv(Pair::Parity),
    Cell::Bug(Pair::RcaCla),
    Cell::Bug(Pair::RcaCsel),
    Cell::Bug(Pair::ClaCsel),
    Cell::Bug(Pair::Alu),
    Cell::Bug(Pair::Eq),
    Cell::Bug(Pair::Lt),
    Cell::Bug(Pair::Mux),
    Cell::Bug(Pair::Parity),
    Cell::Fault(Base::Rca),
    Cell::Fault(Base::Cla),
    Cell::Fault(Base::Alu),
    Cell::Fault(Base::Lt),
    Cell::Fault(Base::Mul),
    Cell::AnyFault(Base::Rca),
    Cell::AnyFault(Base::Alu),
    Cell::AnyFault(Base::Lt),
];

/// One distinct case.
#[derive(Clone, Debug)]
pub struct Case {
    /// Descriptive name: layout position, family, width and, for faults,
    /// the fault.
    pub name: String,
    /// The single-output miter the arms solve.
    pub aig: Aig,
    /// The query the service is asked about this case.
    pub query: Query,
    /// The service's cache key of the query.
    pub key: u64,
    /// Satisfiability known by construction, if any.
    pub expected: Option<bool>,
}

/// The generated inputs of one run.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Distinct cases, in layout order.
    pub cases: Vec<Case>,
    /// Service stream: indices into `cases`, shuffled.
    pub stream: Vec<usize>,
}

/// SplitMix64: the benchmark's seed mixer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the workload's inputs from `seed`.
pub fn build(layout: Layout, seed: u64) -> Workload {
    let mut cases: Vec<Case> = Vec::new();
    let mut seen = HashSet::new();
    for &bits in layout.widths {
        for &cell in layout.cells {
            let at = cases.len();
            // Another seed when the generator finds no observable bug or
            // fault, or the case repeats an earlier one.
            let case = (0..64u64)
                .filter_map(|attempt| {
                    let s = mix(seed ^ mix((at as u64) << 8 | attempt));
                    build_case(at, cell, bits, s)
                })
                .find(|c| seen.insert(c.key))
                .unwrap_or_else(|| panic!("no distinct case for {cell:?} at {bits} bits"));
            cases.push(case);
        }
    }
    let mut stream: Vec<usize> = (0..cases.len())
        .flat_map(|i| std::iter::repeat_n(i, layout.repeats))
        .collect();
    // Fisher-Yates shuffle driven by a SplitMix64 stream.
    let mut state = seed ^ 0x5EED_57AE;
    for i in (1..stream.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let j = (mix(state) % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    Workload { cases, stream }
}

/// The blocks of a pair at `bits` bits, as `workloads::dataset` builds
/// them; `seed` picks the restructuring.
fn pair(p: Pair, bits: usize, seed: u64) -> (Block, Block) {
    let restructured = |base: Block| {
        let re = Block {
            aig: restructure(&base.aig, seed),
            name: format!("{}r", base.name),
        };
        (base, re)
    };
    match p {
        Pair::RcaCla => (ripple_carry_adder(bits), carry_lookahead_adder(bits)),
        Pair::RcaCsel => (
            ripple_carry_adder(bits),
            carry_select_adder(bits, 2 + bits / 6),
        ),
        Pair::ClaCsel => (carry_lookahead_adder(bits), carry_select_adder(bits, 2)),
        Pair::Alu => restructured(alu(bits.min(16))),
        Pair::Eq => restructured(comparator_eq(bits)),
        Pair::Lt => restructured(comparator_lt(bits)),
        Pair::Mux => restructured(mux_tree(3 + bits % 3)),
        Pair::Parity => restructured(parity(bits + 4)),
    }
}

/// A fault base at `bits` bits, as `workloads::dataset` builds it.
fn base(b: Base, bits: usize) -> Block {
    match b {
        Base::Rca => ripple_carry_adder(bits),
        Base::Cla => carry_lookahead_adder(bits),
        Base::Alu => alu(bits.min(16)),
        Base::Lt => comparator_lt(bits),
        Base::Mul => array_multiplier((bits / 3).clamp(3, 6)),
    }
}

/// Case number `at` of a layout: `cell` at `bits` bits, with the sites
/// `seed` picks. `None` when no observable bug or fault was found.
fn build_case(at: usize, cell: Cell, bits: usize, seed: u64) -> Option<Case> {
    let (name, aig, expected) = match cell {
        Cell::Equiv(p) => {
            let (a, b) = pair(p, bits, seed);
            let name = format!("lec_{}_vs_{}", a.name, b.name);
            (name, miter(&a.aig, &b.aig), Some(false))
        }
        Cell::Bug(p) => {
            let (a, b) = pair(p, bits, seed);
            let buggy = inject_bug(&b.aig, mix(seed), 64)?;
            let name = format!("lec_{}_vs_{}_bug", a.name, b.name);
            (name, miter(&a.aig, &buggy), Some(true))
        }
        Cell::Fault(b) => {
            let block = base(b, bits);
            let (f, m) = random_testable_fault(&block.aig, seed, 64)?;
            let name = format!("atpg_{}_sa{}_{}", block.name, u8::from(f.value), f.node);
            (name, m, Some(true))
        }
        Cell::AnyFault(b) => {
            let block = base(b, bits);
            let (f, m) = random_fault_miter(&block.aig, seed);
            let name = format!("atpg_{}_sa{}_{}_u", block.name, u8::from(f.value), f.node);
            (name, m, None)
        }
    };
    let query = Query::Solve(aig.clone());
    Some(Case {
        name: format!("{at:03}_{name}"),
        key: key(&query),
        aig,
        query,
        expected,
    })
}

/// The service's cache key of a query.
fn key(q: &Query) -> u64 {
    q.normalize()
        .expect("generated queries are well formed")
        .key
}
