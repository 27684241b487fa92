//! # `bench` — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! | Paper artefact | Binary | Criterion bench |
//! |----------------|--------|-----------------|
//! | Table I (training-set statistics) | `run_table1` | `table1` |
//! | Fig. 4(a) runtime comparison, Kissat | `run_fig4 --solver kissat` | `fig4` (group `fig4_kissat`) |
//! | Fig. 4(c) runtime comparison, CaDiCaL | `run_fig4 --solver cadical` | `fig4` (group `fig4_cadical`) |
//! | Fig. 5 ablations (w/o RL, C. Mapper) | `run_fig5` | `fig5_ablation` |
//! | extra ablations (cost model, k, encoding) | — | `mapper_cost`, `solver` |
//!
//! Scale is controlled by the `CSAT_SCALE` environment variable
//! (`quick` | `standard` | `full`; any other value panics); binaries
//! default to `standard`, criterion benches to `quick`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
