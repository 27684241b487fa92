//! # `synth` — logic synthesis over AIGs
//!
//! Ports of the four synthesis operations the paper's RL agent chooses from
//! (Sec. III-B3), plus the machinery they share:
//!
//! * [`balance`] — delay-minimal AND-tree re-balancing,
//! * [`rewrite`] — DAG-aware 4-cut NPN rewriting,
//! * [`refactor`] — MFFC re-factoring through ISOP/algebraic factoring,
//! * [`resub`] — window-based resubstitution,
//! * [`recipe`] — the action enum and sequence runner ("synthesis recipes"),
//! * [`plan`] — the replacement-plan rebuild engine all passes share,
//! * [`dsd`]/[`factor`] — truth-table-to-structure generators,
//! * [`rewrite_lib`] — the NPN-class structure library, built once per process.
//!
//! Every pass returns a new, structurally hashed, functionally equivalent
//! graph; equivalence is enforced by construction and double-checked in the
//! test-suites by exhaustive/random simulation and (in the integration
//! suite) SAT miters.
//!
//! ```
//! use aig::Aig;
//! use synth::{balance, rewrite};
//!
//! let mut g = Aig::new();
//! let pis = g.add_pis(8);
//! let all = g.and_many(&pis);
//! g.add_po(all);
//! let g = balance(&g);
//! let g = rewrite(&g, false);
//! assert_eq!(g.num_pos(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod balance;
pub mod builder;
pub mod dsd;
pub mod factor;
#[cfg(test)]
mod oracle;
pub mod plan;
pub mod recipe;
mod reconv;
mod refactor;
mod resub;
mod rewrite;
pub mod rewrite_lib;

pub use balance::balance;
pub use recipe::{apply_op, apply_recipe, Recipe, SynthOp};
pub use refactor::refactor;
pub use resub::resub;
pub use rewrite::rewrite;
