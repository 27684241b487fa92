//! # `workloads` — synthetic CSAT benchmark generation
//!
//! Stand-in for the paper's industrial LEC/ATPG benchmark suite (see the
//! README's "Substitutions" section for the argument). Construction
//! follows the paper's own recipe: datapath circuits are paired (different
//! architectures, or bug-injected copies) and their outputs XOR-connected
//! into single-output miters; stuck-at faults produce ATPG miters.
//!
//! * [`datapath`] — adders (3 architectures), multipliers (2), comparators,
//!   ALUs, MUX trees, parity trees,
//! * [`prefix_adders`] — Kogge–Stone, Brent–Kung, Sklansky parallel-prefix
//!   adders (three more adder architectures for LEC pairing),
//! * [`wallace`] — Wallace-tree and Dadda multipliers,
//! * [`shifters`] — logarithmic/decoded barrel shifters and rotators,
//! * [`encoders`] — priority encoders, popcount trees, Gray-code
//!   converters,
//! * [`lec`] — miter construction, bug injection, structural perturbation,
//! * [`atpg`] — stuck-at-fault injection and testability filtering,
//! * [`seq`] — sequential machines (counters, FSMs, retimed-adder product
//!   machines) with safety properties for the `mc` subsystem,
//! * [`random_aig`] — layered random graphs,
//! * [`dataset`] — seed-deterministic train/test splits with Table-I-style
//!   statistics.
//!
//! ```
//! use workloads::dataset::{generate, DatasetParams};
//! let set = generate(&DatasetParams::training(3), 42);
//! assert_eq!(set.len(), 3);
//! assert!(set.iter().all(|i| i.aig.num_pos() == 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atpg;
pub mod cnf_gen;
pub mod datapath;
pub mod dataset;
pub mod encoders;
pub mod lec;
pub mod prefix_adders;
pub mod random_aig;
pub mod seq;
pub mod shifters;
pub mod wallace;

pub use dataset::{generate, DatasetParams, Instance, InstanceKind};
