//! zero-Concentrated DP accounting (Bun & Steinke 2016).
//!
//! A Gaussian mechanism with noise scale σ and sensitivity Δ satisfies
//! `ρ = Δ²/(2σ²)`-zCDP; ρ composes additively, and
//! `ρ`-zCDP implies `(ρ + 2 √(ρ ln(1/δ)), δ)`-DP for every δ.

use crate::accountant::{Accountant, AccountantState};
use crate::budget::Budget;
use crate::Result;

/// A zCDP accountant for Gaussian releases.
#[derive(Debug, Clone)]
pub struct ZcdpAccountant {
    target_delta: f64,
    rho: f64,
    sum_delta_extra: f64,
    releases: usize,
}

impl ZcdpAccountant {
    /// Creates an accountant converting to `(epsilon, target_delta)`-DP.
    #[must_use]
    pub fn new(target_delta: f64) -> Self {
        ZcdpAccountant {
            target_delta: target_delta.clamp(1e-300, 1.0 - f64::EPSILON),
            rho: 0.0,
            sum_delta_extra: 0.0,
            releases: 0,
        }
    }

    /// The accumulated zCDP parameter ρ.
    #[must_use]
    pub fn rho(&self) -> f64 {
        self.rho
    }
}

impl Accountant for ZcdpAccountant {
    fn record(&mut self, budget: Budget, sigma: f64, sensitivity: f64) {
        if sigma > 0.0 && sensitivity > 0.0 {
            self.rho += (sensitivity * sensitivity) / (2.0 * sigma * sigma);
        } else {
            // Conservative fallback: (eps, 0)-DP implies (eps^2/2)-zCDP.
            let eps = budget.epsilon.value();
            self.rho += eps * eps / 2.0;
            self.sum_delta_extra += budget.delta.value();
        }
        self.releases += 1;
    }

    fn total(&self) -> Budget {
        if self.releases == 0 {
            return Budget::ZERO;
        }
        let eps = self.rho + 2.0 * (self.rho * (1.0 / self.target_delta).ln()).sqrt();
        let delta = (self.target_delta + self.sum_delta_extra).min(1.0 - f64::EPSILON);
        Budget::new(eps, delta).expect("valid composed budget")
    }

    fn releases(&self) -> usize {
        self.releases
    }

    /// Sums: `[ρ, Σδ]` (Σδ of the fallback releases).
    fn export_state(&self) -> AccountantState {
        AccountantState {
            releases: self.releases as u64,
            sums: vec![self.rho, self.sum_delta_extra],
        }
    }

    fn import_state(&mut self, state: &AccountantState) -> Result<()> {
        let sums = state.sums(2)?;
        self.rho = sums[0];
        self.sum_delta_extra = sums[1];
        self.releases = state.releases as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::analytic_gaussian_sigma;

    #[test]
    fn rho_adds_across_releases() {
        let mut acc = ZcdpAccountant::new(1e-9);
        acc.record(Budget::new(1.0, 1e-9).unwrap(), 2.0, 1.0);
        acc.record(Budget::new(1.0, 1e-9).unwrap(), 2.0, 1.0);
        assert!((acc.rho() - 2.0 * (1.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn sublinear_composition() {
        let sigma = analytic_gaussian_sigma(0.1, 1e-10, 1.0).unwrap();
        let mut acc = ZcdpAccountant::new(1e-9);
        for _ in 0..100 {
            acc.record(Budget::new(0.1, 1e-10).unwrap(), sigma, 1.0);
        }
        assert!(acc.total().epsilon.value() < 10.0);
        assert!(acc.total().epsilon.value() > 0.5);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(ZcdpAccountant::new(1e-9).total(), Budget::ZERO);
    }
}
