//! # `rl` — the Deep-Q reinforcement-learning stack
//!
//! Everything the paper's Sec. III-B needs, built from scratch:
//!
//! * [`matrix`]/[`mlp`]/[`adam`] — a small dense-NN library with manual
//!   backprop (gradient-checked) and Adam,
//! * [`replay`] — uniform experience replay,
//! * [`features`] — the six circuit features of Eq. (1)/(2),
//! * [`embedding`] — the DeepGate2-substitute instance embedding (see the
//!   README's "Substitutions" section for the argument),
//! * [`env`](mod@env) — the synthesis MDP: actions `{balance, rewrite, refactor,
//!   resub, end}`, terminal reward `-Δ#Branching` (Eq. 3) measured through
//!   cost-customised LUT mapping + `lut2cnf` + a budgeted CDCL run,
//! * [`dqn`] — the Q-network with target network and ε-greedy exploration,
//! * [`train`] — the episode loop and the deployable [`RecipePolicy`]
//!   (trained / random / fixed — the arms of the paper's Fig. 5 ablation).
//!
//! ```no_run
//! use rl::env::EnvConfig;
//! use rl::train::{train_agent, TrainConfig};
//! use workloads::dataset::{generate, DatasetParams};
//!
//! let set = generate(&DatasetParams::training(8), 1);
//! let instances: Vec<aig::Aig> = set.into_iter().map(|i| i.aig).collect();
//! let (agent, stats) = train_agent(&instances, &TrainConfig::default());
//! println!("mean reward {}", stats.recent_mean_reward(50));
//! # let _ = agent;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adam;
pub mod dqn;
pub mod embedding;
pub mod env;
pub mod features;
pub mod matrix;
pub mod mlp;
pub mod replay;
pub mod train;

pub use dqn::{DqnAgent, DqnConfig};
pub use env::{EnvConfig, SynthEnv, NUM_ACTIONS, STATE_DIM};
pub use train::{train_agent, RecipePolicy, TrainConfig, TrainStats};
