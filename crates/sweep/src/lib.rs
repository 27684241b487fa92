//! # `sweep` — SAT sweeping (fraig) over And-Inverter Graphs
//!
//! Functional reduction in the style of ABC's `fraig`/`&fraig`: bit-parallel
//! random simulation partitions nodes into *candidate equivalence classes*
//! (nodes whose signatures match up to complementation), and a budgeted SAT
//! miter check either proves a candidate pair equivalent — in which case the
//! later node is merged into the earlier one — or yields a counterexample
//! input pattern that refines the simulation and splits the class.
//!
//! SAT sweeping is the strongest size-oriented AIG simplification ABC
//! applies before its own CNF generation, and the natural "future work"
//! extension of the paper's synthesis action set: unlike `rewrite`/`resub`,
//! it removes *functionally* redundant logic that no local window can see
//! (e.g. the two halves of an equivalence miter). The workspace exposes it
//! as an optional preprocessing stage ahead of the cost-customised LUT
//! mapping.
//!
//! The engine is multi-threaded: SAT queries run on sharded incremental
//! oracles, with a determinism contract — for a given
//! [`FraigParams::shards`] (by default [`DEFAULT_SHARDS`]) the outcome is
//! bit-identical for any thread count (see [`pool`] for the scaffolding
//! and the README's "Concurrency model" section for the design).
//!
//! ```
//! use aig::Aig;
//! use sweep::{fraig, FraigParams};
//!
//! // XOR built twice from the same inputs: fraig collapses the copies.
//! let mut g = Aig::new();
//! let a = g.add_pi();
//! let b = g.add_pi();
//! let x1 = g.xor(a, b);
//! // A structurally different XOR: (a | b) & !(a & b).
//! let o = g.or(a, b);
//! let n = g.and(a, b);
//! let x2 = g.and(o, !n);
//! let miter = g.xor(x1, x2);
//! g.add_po(miter);
//!
//! let outcome = fraig(&g, &FraigParams::default());
//! assert!(outcome.aig.num_ands() < g.num_ands());
//! assert_eq!(outcome.aig.pos()[0], aig::Lit::FALSE); // proved constant
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod classes;
mod engine;
pub mod pool;

pub use classes::{candidate_classes, ClassMember, SigClasses};
pub use engine::{fraig, FraigOutcome, FraigParams, FraigStats, DEFAULT_SHARDS};
pub use pool::{ChaosPlan, Fault};
