//! T-Daub: Time series Data Allocation Using Upper Bounds (§4.2,
//! Algorithm 1).
//!
//! T-Daub ranks a pool of forecasting pipelines without training every one
//! of them on the full dataset. It allocates growing slices of the training
//! data — **in reverse, most recent data first** (Figure 3) — scores each
//! pipeline on a held-out test split, projects every pipeline's learning
//! curve to the full data length with a linear regression on its partial
//! scores, and then lets only the projected-best pipelines acquire more data
//! through geometrically accelerated allocations. Finally the top
//! `run_to_completion` pipelines are trained on all the data and ranked by
//! their true holdout score.
//!
//! The implementation keeps two ablation switches used by the paper-design
//! benches: `reverse_allocation` (vs. the original DAUB's oldest-first
//! allocation) and `use_projection` (learning-curve projection vs. ranking
//! by the last observed score).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ensemble;
pub mod executor;
pub mod runner;

pub use ensemble::{greedy_select, EnsembleMember, EnsembleSelection};
pub use executor::{CacheStats, ExecutionReport, FailureKind, PipelineExecution};
pub use runner::{run_tdaub, PipelineReport, TDaubConfig, TDaubResult};
