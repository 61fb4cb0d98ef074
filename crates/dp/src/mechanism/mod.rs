//! Differentially private noise mechanisms.
//!
//! * [`analytic_gaussian`] — the analytic Gaussian mechanism of Balle & Wang
//!   (ICML 2018), Definition 3 in the paper; this is the mechanism DProvDB
//!   actually uses for calibration.
//! * [`additive_gaussian`] — the additive Gaussian noise calibration of
//!   Algorithm 3, the primitive behind DProvDB's local-synopsis releases.
//!
//! The classic Gaussian mechanism (Dwork & Roth) and the Laplace mechanism
//! are test-only reference points: the paper's mechanisms are Gaussian-only
//! and always use the analytic calibration.

pub mod additive_gaussian;
pub mod analytic_gaussian;
#[cfg(test)]
mod gaussian;
#[cfg(test)]
mod laplace;

pub use additive_gaussian::{additive_gaussian_release, AdditiveRelease};
pub use analytic_gaussian::{analytic_gaussian_delta, analytic_gaussian_sigma, AnalyticGaussian};
