//! Data transformations for AutoAI-TS pipelines.
//!
//! §3 of the paper: "input time series data is first transformed using
//! stateless transformer (transformers that do not remember the state of the
//! operation) such as log, fisher, box_cox, etc. Then, stateful
//! transformations are optionally performed, stateful transformations retain
//! the knowledge of the sequence of operation that are performed such as
//! Difference, Flatten, Localized Flatten and Normalized Flatten. … inverse
//! transformations are applied in the reverse order of application, i.e.,
//! the stateful inverse transformation followed by stateless inverse
//! transformation."
//!
//! This crate implements exactly that taxonomy plus the §4 architecture
//! extras: interpolators, up/down resampling for irregular data, and
//! *Detectors* that "capture various characteristics of data such as
//! presence of negative or missing values, irregularly spaced data".

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod conformal;
pub mod detect;
pub mod resample;
pub mod stateful;
pub mod stateless;
pub mod traits;
pub mod window;

pub use conformal::ConformalScores;
pub use detect::{detect_all, Detection, Detector};
pub use resample::{downsample, resample_to_regular, upsample_linear};
pub use stateful::DifferenceTransform;
pub use stateless::{
    BoxCoxTransform, FisherTransform, LogTransform, MinMaxScaler, SqrtTransform, StandardScaler,
};
pub use traits::{Transform, TransformChain};
pub use window::{
    flatten_windows, latest_window, localized_flatten_windows, n_windows,
    normalized_flatten_windows, WindowDataset,
};
