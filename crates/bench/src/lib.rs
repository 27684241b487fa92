//! # `bench` — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! One binary, `run_all`, prints each artefact as a section and exits
//! non-zero on any wrong verdict; `--csv PATH` writes every record.
//!
//! | Artefact | `experiments` function |
//! |----------|------------------------|
//! | Table I (training-set statistics) | `table1` |
//! | Fig. 4(a) runtime comparison, Kissat | `fig4(.., "kissat", ..)` |
//! | Fig. 4(c) runtime comparison, CaDiCaL | `fig4(.., "cadical", ..)` |
//! | Fig. 5 ablations (w/o RL, C. Mapper) | `fig5` |
//! | extensions beyond the paper (fraig, presolve) | `ext` |
//!
//! Scale is controlled by the `CSAT_SCALE` environment variable
//! (`quick` | `standard` | `full`; any other value panics); `run_all`
//! defaults to `standard`. The `bench_hotpath` binary times the hot
//! kernels and writes `BENCH_hotpath.json`; `bench_validate` checks a
//! fresh file against the committed one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
