//! # `dprov-dp` — differential-privacy primitives for DProvDB
//!
//! This crate is the DP substrate of the DProvDB reproduction. It contains
//! everything that is independent of relational data:
//!
//! * numeric building blocks ([`math`]): `erf`, the normal CDF and its
//!   inverse, bisection and bounded 1-D minimisation;
//! * noise sampling ([`rng`]): a seedable RNG with Gaussian and Laplace
//!   samplers implemented from uniform draws;
//! * budget bookkeeping ([`budget`]): `Epsilon`, `Delta` and `Budget`
//!   newtypes with checked arithmetic;
//! * the DP mechanisms used by the paper ([`mechanism`]): the classic and
//!   *analytic* Gaussian mechanisms (Balle & Wang 2018), the Laplace
//!   mechanism, and the *additive* Gaussian mechanism of Algorithm 3;
//! * privacy accountants ([`accountant`]): basic sequential composition,
//!   advanced composition, Rényi-DP and zCDP;
//! * the accuracy→privacy translation module ([`translation`]) implementing
//!   Definition 9 and the friction-aware translation of Eq. (3).
//!
//! All floating-point heavy code is deterministic given a seed, which the
//! experiment harness relies on for reproducibility.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod accountant;
pub mod budget;
pub mod math;
pub mod mechanism;
pub mod rng;
pub mod sensitivity;
pub mod translation;

/// Errors produced by the DP primitives.
///
/// Marked `#[non_exhaustive]`: new mechanisms and accountants bring new
/// failure modes; downstream matches must carry a wildcard arm so
/// additions are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// An epsilon value was not strictly positive and finite.
    InvalidEpsilon(f64),
    /// A delta value was outside `(0, 1)`.
    InvalidDelta(f64),
    /// A sensitivity value was not strictly positive and finite.
    InvalidSensitivity(f64),
    /// A variance / accuracy bound was not strictly positive and finite.
    InvalidVariance(f64),
    /// A translation search precision was not strictly positive and finite.
    InvalidPrecision(f64),
    /// The requested accuracy cannot be met within the allowed budget range.
    TranslationOutOfRange {
        /// The accuracy (expected squared error) that was requested.
        requested_variance: f64,
        /// The maximum epsilon the search was allowed to consider.
        max_epsilon: f64,
    },
    /// A numerical routine failed to converge.
    NoConvergence(&'static str),
    /// An empty budget set was handed to the additive Gaussian mechanism.
    EmptyBudgetSet,
    /// An exported accountant state does not fit the accountant importing
    /// it (wrong number of sums, or a sum no release could produce).
    InvalidAccountantState(String),
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::InvalidEpsilon(v) => write!(f, "invalid epsilon: {v}"),
            DpError::InvalidDelta(v) => write!(f, "invalid delta: {v}"),
            DpError::InvalidSensitivity(v) => write!(f, "invalid sensitivity: {v}"),
            DpError::InvalidVariance(v) => write!(f, "invalid variance: {v}"),
            DpError::InvalidPrecision(v) => write!(f, "invalid search precision: {v}"),
            DpError::TranslationOutOfRange {
                requested_variance,
                max_epsilon,
            } => write!(
                f,
                "accuracy requirement (variance {requested_variance}) cannot be met with epsilon <= {max_epsilon}"
            ),
            DpError::NoConvergence(what) => write!(f, "numerical routine did not converge: {what}"),
            DpError::EmptyBudgetSet => write!(f, "additive Gaussian mechanism requires at least one budget"),
            DpError::InvalidAccountantState(reason) => write!(f, "invalid accountant state: {reason}"),
        }
    }
}

impl std::error::Error for DpError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DpError>;

/// Seeded cases per differential battery (translation, calibration):
/// `DPROV_TRANSLATION_CASES` when set (the nightly job raises it),
/// otherwise 100 000 for an optimised build and a debug-affordable 3 000
/// under plain `cargo test`.
#[cfg(test)]
pub(crate) fn battery_cases() -> usize {
    std::env::var("DPROV_TRANSLATION_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) {
            3_000
        } else {
            100_000
        })
}
