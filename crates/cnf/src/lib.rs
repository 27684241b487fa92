//! # `cnf` — CNF infrastructure for Circuit-SAT preprocessing
//!
//! Everything between circuits and solvers:
//!
//! * [`Cnf`]/[`CnfLit`] formula types and DIMACS I/O ([`dimacs`]),
//! * [`tseitin`](mod@tseitin) — direct AIG-to-CNF encoding (the paper's *Baseline*),
//! * [`lutnet::LutNetlist`] — the mapped-netlist exchange type,
//! * [`lut2cnf`] — the ISOP-based LUT-to-CNF encoding that hides internal
//!   logic and whose clause count *is* the paper's branching complexity.
//!
//! ```
//! use aig::Aig;
//! use cnf::tseitin::tseitin_sat_instance;
//!
//! let mut g = Aig::new();
//! let a = g.add_pi();
//! let b = g.add_pi();
//! let x = g.xor(a, b);
//! g.add_po(x);
//! let (formula, _map) = tseitin_sat_instance(&g);
//! assert!(formula.num_clauses() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dimacs;
pub mod lut2cnf;
pub mod lutnet;
pub mod tseitin;
mod types;

pub use lut2cnf::{lut_to_cnf, lut_to_cnf_sat_instance, LutVarMap};
pub use lutnet::{Lut, LutNetlist, LutSignal};
pub use tseitin::{tseitin, tseitin_sat_instance, VarMap};
pub use types::{Cnf, CnfLit};
