//! # `aig` — And-Inverter Graphs for Circuit-SAT preprocessing
//!
//! This crate is the structural substrate of the `circuit-sat-preproc`
//! workspace (a reproduction of *"Logic Optimization Meets SAT"*, DAC 2025):
//! a compact AIG package in the spirit of ABC's, providing
//!
//! * the [`Aig`] container with structural hashing and constant folding,
//! * [`Lit`]/[`Var`] literal types in the AIGER encoding,
//! * AIGER ASCII/binary I/O ([`aiger`]),
//! * bit-parallel simulation ([`sim`]), compiled levelized simulation
//!   programs ([`compile`]), and equivalence checks ([`check`]),
//! * multi-word truth tables with ISOP covers ([`Tt`], [`tt::Cube`]) — the
//!   source of the paper's *branching complexity* metric,
//! * k-feasible cut enumeration, each cut with its function ([`cut`]), and
//!   window truth tables over a cut ([`Window`]),
//! * exact NPN canonisation of 4-variable functions ([`npn`]),
//! * MFFC computation for rewriting gain ([`mffc`]) and every node's AND
//!   consumers in one arena ([`Fanouts`]).
//!
//! ## Quick example
//!
//! ```
//! use aig::{Aig, cut::{enumerate_cuts, CutParams}};
//!
//! let mut g = Aig::new();
//! let a = g.add_pi();
//! let b = g.add_pi();
//! let x = g.xor(a, b);
//! g.add_po(x);
//!
//! let cuts = enumerate_cuts(&g, &CutParams::default());
//! assert!(!cuts[x.var() as usize].is_empty());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aig;
pub mod aiger;
pub mod check;
pub mod compile;
pub mod cut;
pub mod hash;
mod lit;
pub mod mffc;
mod node;
pub mod npn;
pub mod seq;
pub mod sim;
pub mod tt;
pub mod window;

pub use crate::aig::{Aig, Fanouts, GateList};
pub use crate::compile::SimProgram;
pub use crate::lit::{Lit, Var};
pub use crate::node::Node;
pub use crate::tt::{Cube, Tt};
pub use crate::window::Window;
