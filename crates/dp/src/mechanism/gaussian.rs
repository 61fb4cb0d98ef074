//! The classic Gaussian mechanism.
//!
//! For `epsilon < 1`, adding `N(0, sigma^2)` noise with
//! `sigma = Delta * sqrt(2 ln(1.25 / delta)) / epsilon` satisfies
//! `(epsilon, delta)`-DP (Dwork & Roth, Theorem A.1). DProvDB's vanilla
//! baseline could run on either this or the analytic calibration; the
//! analytic one is strictly tighter and is the one every mechanism in this
//! workspace uses. The classic mechanism is a test-only reference point that
//! the analytic calibration is checked against.

use crate::budget::Budget;
use crate::rng::DpRng;
use crate::sensitivity::Sensitivity;
use crate::{DpError, Result};

/// The classic Gaussian mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ClassicGaussian {
    sigma: f64,
}

impl ClassicGaussian {
    /// Calibrates the classic Gaussian noise scale for a budget and
    /// sensitivity.
    ///
    /// Requires `0 < epsilon` and `0 < delta < 1`. The classic bound is only
    /// a valid DP guarantee for `epsilon <= 1`; for larger epsilon the scale
    /// is still computed (it is what the original Chorus implementation
    /// does) but callers that need tightness should use
    /// [`super::analytic_gaussian::AnalyticGaussian`].
    pub(crate) fn calibrate(budget: Budget, sensitivity: Sensitivity) -> Result<Self> {
        let eps = budget.epsilon.value();
        let delta = budget.delta.value();
        if eps <= 0.0 {
            return Err(DpError::InvalidEpsilon(eps));
        }
        if delta <= 0.0 {
            return Err(DpError::InvalidDelta(delta));
        }
        let sigma = sensitivity.value() * (2.0 * (1.25 / delta).ln()).sqrt() / eps;
        Ok(ClassicGaussian { sigma })
    }

    /// The calibrated noise scale.
    #[must_use]
    pub(crate) fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Releases a noisy vector (i.i.d. noise per coordinate).
    pub(crate) fn release_vector(&self, true_values: &[f64], rng: &mut DpRng) -> Vec<f64> {
        true_values
            .iter()
            .map(|&v| v + rng.gaussian(self.sigma))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    #[test]
    fn calibration_matches_closed_form() {
        let b = Budget::new(0.5, 1e-9).unwrap();
        let m = ClassicGaussian::calibrate(b, Sensitivity::COUNT).unwrap();
        let expected = (2.0 * (1.25f64 / 1e-9).ln()).sqrt() / 0.5;
        assert!((m.sigma() - expected).abs() < 1e-12);
    }

    #[test]
    fn sigma_scales_with_sensitivity_and_inverse_epsilon() {
        let b1 = Budget::new(0.5, 1e-9).unwrap();
        let b2 = Budget::new(1.0, 1e-9).unwrap();
        let s1 = ClassicGaussian::calibrate(b1, Sensitivity::new(1.0).unwrap()).unwrap();
        let s2 = ClassicGaussian::calibrate(b2, Sensitivity::new(1.0).unwrap()).unwrap();
        let s3 = ClassicGaussian::calibrate(b1, Sensitivity::new(2.0).unwrap()).unwrap();
        assert!((s1.sigma() / s2.sigma() - 2.0).abs() < 1e-12);
        assert!((s3.sigma() / s1.sigma() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_epsilon_or_delta() {
        assert!(
            ClassicGaussian::calibrate(Budget::new(0.0, 1e-9).unwrap(), Sensitivity::COUNT)
                .is_err()
        );
        assert!(
            ClassicGaussian::calibrate(Budget::new(1.0, 0.0).unwrap(), Sensitivity::COUNT).is_err()
        );
    }

    #[test]
    fn vector_release_preserves_length_and_is_unbiased() {
        let b = Budget::new(2.0, 1e-9).unwrap();
        let m = ClassicGaussian::calibrate(b, Sensitivity::COUNT).unwrap();
        let mut rng = DpRng::seed_from_u64(1);
        let truth = vec![100.0; 2000];
        let noisy = m.release_vector(&truth, &mut rng);
        assert_eq!(noisy.len(), truth.len());
        let mean = noisy.iter().sum::<f64>() / noisy.len() as f64;
        assert!((mean - 100.0).abs() < m.sigma() * 0.1);
    }
}
