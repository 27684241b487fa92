//! # `sat` — a CDCL solver with branching statistics
//!
//! This crate stands in for Kissat 4.0 and CaDiCaL 2.0 in the paper's
//! evaluation: a conflict-driven clause-learning solver with
//!
//! * two-watched-literal propagation with blocker literals,
//! * EVSIDS variable activities and phase saving,
//! * first-UIP learning with recursive clause minimisation,
//! * LBD-aware clause-database reduction and garbage collection,
//! * Luby and Glucose-EMA restart policies,
//! * optional SatELite-style CNF presolve as the load step
//!   ([`SolverConfig::presolve`]), inside the solver's observer and proof
//!   log,
//! * per-run [`Stats`] whose `decisions` counter is the paper's
//!   "variable branching times" metric, and a [`Budget`] (conflicts,
//!   deadline, cancellation) for bounded runs.
//!
//! Two presets mirror the evaluation's solver pair:
//! [`SolverConfig::kissat_like`] and [`SolverConfig::cadical_like`].
//!
//! ```
//! use cnf::{Cnf, CnfLit};
//! use sat::{solve_cnf, Budget, SolverConfig};
//!
//! let mut f = Cnf::new();
//! f.add_clause(vec![CnfLit::pos(1), CnfLit::neg(2)]);
//! f.add_clause(vec![CnfLit::pos(2)]);
//! let (result, stats) = solve_cnf(&f, SolverConfig::kissat_like(), Budget::UNLIMITED);
//! assert!(result.is_sat());
//! assert!(stats.decisions <= 2);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clause;
mod config;
mod heap;
pub mod presolve;
pub mod proof;
pub mod restart;
mod solver;
mod stats;
mod trace;
mod types;

pub use config::{Budget, Cancellation, RestartStrategy, SolverConfig};
pub use proof::ProofLog;
pub use solver::{solve_cnf, SolveResult, Solver};
pub use stats::Stats;
