//! The analytic Gaussian mechanism (Balle & Wang, ICML 2018).
//!
//! Definition 3 of the paper: adding `N(0, sigma^2)` noise to a query with
//! ℓ2 sensitivity Δ is `(epsilon, delta)`-DP **iff**
//!
//! ```text
//! Phi(Δ/(2σ) − εσ/Δ) − e^ε · Phi(−Δ/(2σ) − εσ/Δ) ≤ δ
//! ```
//!
//! The left-hand side (the *privacy profile*) is monotone decreasing in σ,
//! so the tightest calibration is the smallest σ for which the profile drops
//! below δ — found here by expanding an upper bracket and bisecting. This is
//! exactly the calibration the original DProvDB re-implemented in Scala.

use crate::budget::Budget;
use crate::math::normal::normal_cdf;
use crate::math::optimize::bisect_decreasing;
use crate::rng::DpRng;
use crate::sensitivity::Sensitivity;
use crate::{DpError, Result};

/// The two terms of the privacy profile, `Phi(a − b)` and
/// `e^ε · Phi(−a − b)`. The profile is their difference; the first term
/// also bounds the rounding error of that difference, which is what the
/// translation's guard band scales with.
pub(crate) fn profile_terms(sigma: f64, sensitivity: f64, epsilon: f64) -> (f64, f64) {
    debug_assert!(sigma > 0.0 && sensitivity > 0.0 && epsilon >= 0.0);
    let a = sensitivity / (2.0 * sigma);
    let b = epsilon * sigma / sensitivity;
    (normal_cdf(a - b), epsilon.exp() * normal_cdf(-a - b))
}

/// Evaluates the privacy profile: the smallest `delta` for which noise scale
/// `sigma` on sensitivity `delta_q` is `(epsilon, delta)`-DP.
#[must_use]
pub fn analytic_gaussian_delta(sigma: f64, sensitivity: f64, epsilon: f64) -> f64 {
    let (head, tail) = profile_terms(sigma, sensitivity, epsilon);
    (head - tail).max(0.0)
}

/// Computes the minimal noise scale `sigma` such that the Gaussian mechanism
/// with sensitivity `sensitivity` satisfies `(epsilon, delta)`-DP, to within
/// a relative tolerance of about 1e-12.
pub fn analytic_gaussian_sigma(epsilon: f64, delta: f64, sensitivity: f64) -> Result<f64> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(DpError::InvalidEpsilon(epsilon));
    }
    if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
        return Err(DpError::InvalidDelta(delta));
    }
    if !(sensitivity.is_finite() && sensitivity > 0.0) {
        return Err(DpError::InvalidSensitivity(sensitivity));
    }

    // The classic calibration is a valid upper bound for epsilon <= 1; for
    // larger epsilon we start from it anyway and expand until the profile is
    // satisfied.
    let mut hi = sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
    if !hi.is_finite() || hi <= 0.0 {
        hi = sensitivity;
    }
    let mut expansions = 0;
    while analytic_gaussian_delta(hi, sensitivity, epsilon) > delta {
        hi *= 2.0;
        expansions += 1;
        if expansions > 200 {
            return Err(DpError::NoConvergence("analytic_gaussian_sigma bracket"));
        }
    }
    // Shrink the lower bracket: sigma -> 0 gives profile -> 1 > delta, so a
    // tiny positive lower bound is safe.
    let lo = (hi * 1e-12).max(1e-300);
    let tol = hi * 1e-12;
    let sigma = bisect_decreasing(
        |s| analytic_gaussian_delta(s, sensitivity, epsilon) - delta,
        lo,
        hi,
        tol,
    )?;
    Ok(sigma)
}

/// A calibrated analytic Gaussian mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticGaussian {
    sigma: f64,
    sensitivity: f64,
    budget: Budget,
}

impl AnalyticGaussian {
    /// Calibrates the mechanism for a budget and sensitivity.
    pub fn calibrate(budget: Budget, sensitivity: Sensitivity) -> Result<Self> {
        let sigma = analytic_gaussian_sigma(
            budget.epsilon.value(),
            budget.delta.value(),
            sensitivity.value(),
        )?;
        Ok(AnalyticGaussian {
            sigma,
            sensitivity: sensitivity.value(),
            budget,
        })
    }

    /// The calibrated noise scale.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The per-coordinate noise variance (the expected squared error per
    /// histogram bin, Definition 4).
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    /// The budget this mechanism was calibrated for.
    #[must_use]
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The sensitivity this mechanism was calibrated for.
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// Releases a noisy scalar.
    pub fn release_scalar(&self, true_value: f64, rng: &mut DpRng) -> f64 {
        true_value + rng.gaussian(self.sigma)
    }

    /// Releases a noisy vector (i.i.d. noise per coordinate).
    pub fn release_vector(&self, true_values: &[f64], rng: &mut DpRng) -> Vec<f64> {
        true_values
            .iter()
            .map(|&v| v + rng.gaussian(self.sigma))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::gaussian::ClassicGaussian;

    #[test]
    fn profile_is_monotone_decreasing_in_sigma() {
        let mut prev = f64::INFINITY;
        for i in 1..200 {
            let sigma = i as f64 * 0.1;
            let d = analytic_gaussian_delta(sigma, 1.0, 0.5);
            assert!(d <= prev + 1e-15, "profile not monotone at sigma={sigma}");
            prev = d;
        }
    }

    #[test]
    fn calibrated_sigma_sits_exactly_on_the_profile() {
        for &(eps, delta) in &[
            (0.1, 1e-9),
            (0.5, 1e-9),
            (1.0, 1e-6),
            (3.2, 1e-9),
            (6.4, 1e-12),
        ] {
            let sigma = analytic_gaussian_sigma(eps, delta, 1.0).unwrap();
            let d = analytic_gaussian_delta(sigma, 1.0, eps);
            assert!(d <= delta * (1.0 + 1e-6), "eps={eps}: delta {d} > {delta}");
            // Slightly smaller sigma must violate the profile (tightness).
            let d_tight = analytic_gaussian_delta(sigma * 0.999, 1.0, eps);
            assert!(d_tight > delta, "calibration not tight at eps={eps}");
        }
    }

    #[test]
    fn analytic_is_never_looser_than_classic_for_small_epsilon() {
        for &eps in &[0.1, 0.3, 0.5, 0.8, 1.0] {
            let b = Budget::new(eps, 1e-9).unwrap();
            let analytic = AnalyticGaussian::calibrate(b, Sensitivity::COUNT).unwrap();
            let classic = ClassicGaussian::calibrate(b, Sensitivity::COUNT).unwrap();
            assert!(
                analytic.sigma() <= classic.sigma() * (1.0 + 1e-9),
                "analytic sigma {} > classic {} at eps {eps}",
                analytic.sigma(),
                classic.sigma()
            );
        }
    }

    #[test]
    fn reference_value_balle_wang() {
        // Published reference point: eps=1, delta=1e-5, Delta=1 gives
        // sigma ~ 3.73 with the analytic calibration (vs ~4.84 classic).
        let sigma = analytic_gaussian_sigma(1.0, 1e-5, 1.0).unwrap();
        assert!(
            (3.5..4.0).contains(&sigma),
            "unexpected analytic sigma {sigma}"
        );
        let classic = (2.0 * (1.25f64 / 1e-5).ln()).sqrt();
        assert!(sigma < classic);
    }

    #[test]
    fn sigma_scales_linearly_with_sensitivity() {
        let s1 = analytic_gaussian_sigma(0.7, 1e-9, 1.0).unwrap();
        let s2 = analytic_gaussian_sigma(0.7, 1e-9, 2.0).unwrap();
        assert!((s2 / s1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sigma_decreases_with_epsilon_and_delta() {
        let base = analytic_gaussian_sigma(0.5, 1e-9, 1.0).unwrap();
        assert!(analytic_gaussian_sigma(1.0, 1e-9, 1.0).unwrap() < base);
        assert!(analytic_gaussian_sigma(0.5, 1e-6, 1.0).unwrap() < base);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(analytic_gaussian_sigma(0.0, 1e-9, 1.0).is_err());
        assert!(analytic_gaussian_sigma(1.0, 0.0, 1.0).is_err());
        assert!(analytic_gaussian_sigma(1.0, 1.5, 1.0).is_err());
        assert!(analytic_gaussian_sigma(1.0, 1e-9, 0.0).is_err());
    }

    #[test]
    fn large_epsilon_regime_is_supported() {
        // The classic mechanism is invalid for eps > 1; the analytic one is
        // not. Check that calibration still works and keeps shrinking.
        let s1 = analytic_gaussian_sigma(2.0, 1e-9, 1.0).unwrap();
        let s2 = analytic_gaussian_sigma(6.4, 1e-9, 1.0).unwrap();
        let s3 = analytic_gaussian_sigma(20.0, 1e-9, 1.0).unwrap();
        assert!(s1 > s2 && s2 > s3);
        assert!(s3 > 0.0);
    }

    #[test]
    fn release_is_deterministic_under_seed() {
        let b = Budget::new(1.0, 1e-9).unwrap();
        let m = AnalyticGaussian::calibrate(b, Sensitivity::COUNT).unwrap();
        let mut r1 = DpRng::seed_from_u64(99);
        let mut r2 = DpRng::seed_from_u64(99);
        assert_eq!(
            m.release_scalar(10.0, &mut r1),
            m.release_scalar(10.0, &mut r2)
        );
    }
}
