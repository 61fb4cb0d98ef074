//! Numerical building blocks.
//!
//! DProvDB's algorithms only need a handful of special functions (the error
//! function and the standard-normal CDF / quantile) and monotone 1-D root
//! bracketing (the analytic-Gaussian calibration and Definition 9; Eq. (3)
//! has a closed form, checked against a test-only golden-section search).
//! They are implemented here so the workspace has no dependency on a
//! statistics crate.

pub(crate) mod erf;
pub(crate) mod normal;
pub(crate) mod optimize;
