//! # `mc` — model checking over [`aig::seq::SeqAig`]
//!
//! A sequential-verification subsystem on top of the workspace's CDCL
//! solver and preprocessing framework:
//!
//! * [`bmc`] — incremental bounded model checking: ONE persistent solver
//!   across the whole depth sweep, frames Tseitin-encoded into it live,
//!   per-frame activation literals, learnt clauses carried bound to bound,
//!   SAT models decoded into replayable input traces;
//! * [`kind`] — k-induction (base case delegated to the BMC engine, step
//!   case with simple-path / state-uniqueness constraints), able to
//!   *prove* safety properties BMC can only fail to falsify;
//! * [`Preprocess`] — the paper's synthesis/sweeping framework as a
//!   front end, run once on the transition relation before unrolling.
//!
//! ```
//! use mc::{prove, BmcEngine, BmcOptions, BmcResult};
//! use workloads::seq::{counter, mod_counter};
//!
//! // Falsification: a 3-bit counter saturates at depth 7.
//! let mut engine = BmcEngine::new(&counter(3), BmcOptions::default());
//! assert!(matches!(
//!     engine.check_frames(10),
//!     BmcResult::Cex { depth: 7, .. }
//! ));
//!
//! // Proof: the all-ones state of a modulo-6 counter is unreachable.
//! assert!(prove(&mod_counter(3, 6), 8, &BmcOptions::default()).is_proved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bmc;
mod enc;
pub mod kind;

pub use bmc::{BmcEngine, BmcOptions, BmcResult, Preprocess};
pub use kind::{prove, KindResult};
