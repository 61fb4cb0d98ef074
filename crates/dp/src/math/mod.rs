//! Numerical building blocks.
//!
//! DProvDB's algorithms only need a handful of special functions (the error
//! function and the standard-normal CDF / quantile) and monotone 1-D root
//! bracketing (the analytic-Gaussian calibration and Definition 9; Eq. (3)
//! has a closed form, checked against a test-only golden-section search).
//! They are implemented here so the workspace has no dependency on a
//! statistics crate.

pub mod erf;
pub mod normal;
pub mod optimize;

pub use erf::{erf, erfc};
pub use normal::{normal_cdf, normal_pdf, normal_quantile};
pub use optimize::{bisect_decreasing, monotone_binary_search};
