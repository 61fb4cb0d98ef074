//! The Laplace mechanism.
//!
//! Kept as a reference ε-DP mechanism. DProvDB itself is Gaussian-based
//! (the additive construction relies on the stability of Gaussians under
//! addition), but the Laplace mechanism is useful for sanity checks and for
//! the unit tests that contrast pure and approximate DP calibrations.

use crate::budget::Epsilon;
use crate::rng::DpRng;
use crate::sensitivity::Sensitivity;
use crate::{DpError, Result};

/// The Laplace mechanism with scale `b = Δ1 / ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaplaceMechanism {
    scale: f64,
}

impl LaplaceMechanism {
    /// Calibrates the Laplace scale for an epsilon and an ℓ1 sensitivity.
    pub(crate) fn calibrate(epsilon: Epsilon, l1_sensitivity: Sensitivity) -> Result<Self> {
        let eps = epsilon.value();
        if eps <= 0.0 {
            return Err(DpError::InvalidEpsilon(eps));
        }
        Ok(LaplaceMechanism {
            scale: l1_sensitivity.value() / eps,
        })
    }

    /// The calibrated scale parameter.
    #[must_use]
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }

    /// The per-coordinate noise variance (`2 b^2`).
    #[must_use]
    pub(crate) fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Releases a noisy vector.
    pub(crate) fn release_vector(&self, true_values: &[f64], rng: &mut DpRng) -> Vec<f64> {
        true_values
            .iter()
            .map(|&v| v + rng.laplace(self.scale))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_sensitivity_over_epsilon() {
        let m =
            LaplaceMechanism::calibrate(Epsilon::new(0.5).unwrap(), Sensitivity::new(2.0).unwrap())
                .unwrap();
        assert!((m.scale() - 4.0).abs() < 1e-12);
        assert!((m.variance() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_zero_epsilon() {
        assert!(LaplaceMechanism::calibrate(Epsilon::ZERO, Sensitivity::COUNT).is_err());
    }

    #[test]
    fn empirical_variance_matches() {
        let m =
            LaplaceMechanism::calibrate(Epsilon::new(1.0).unwrap(), Sensitivity::COUNT).unwrap();
        let mut rng = DpRng::seed_from_u64(17);
        let n = 100_000;
        let noisy = m.release_vector(&vec![0.0; n], &mut rng);
        let var = noisy.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((var - m.variance()).abs() / m.variance() < 0.06);
    }
}
