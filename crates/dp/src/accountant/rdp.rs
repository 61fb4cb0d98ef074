//! Rényi-DP accounting (Mironov 2017).
//!
//! A Gaussian mechanism with noise scale σ and sensitivity Δ satisfies
//! `(α, α Δ² / (2σ²))`-RDP for every α > 1. RDP composes additively per
//! order (Theorem A.2) and converts back to `(ε, δ)`-DP via
//! `ε = ε_RDP(α) + ln(1/δ)/(α − 1)` (Theorem A.3), minimised over a grid of
//! orders.

use crate::accountant::{Accountant, AccountantState};
use crate::budget::Budget;
use crate::Result;

/// The grid of Rényi orders used for the conversion.
fn order_grid() -> Vec<f64> {
    let mut orders: Vec<f64> = (2..=64).map(|a| a as f64).collect();
    orders.extend([1.25, 1.5, 1.75, 96.0, 128.0, 256.0, 512.0]);
    orders
}

/// An RDP accountant for Gaussian releases.
#[derive(Debug, Clone)]
pub(crate) struct RdpAccountant {
    target_delta: f64,
    /// Accumulated RDP epsilon per order (same indexing as `orders`).
    rdp_eps: Vec<f64>,
    orders: Vec<f64>,
    sum_delta_extra: f64,
    releases: usize,
}

impl RdpAccountant {
    /// Creates an accountant converting to `(epsilon, target_delta)`-DP.
    #[must_use]
    pub(crate) fn new(target_delta: f64) -> Self {
        let orders = order_grid();
        RdpAccountant {
            target_delta: target_delta.clamp(1e-300, 1.0 - f64::EPSILON),
            rdp_eps: vec![0.0; orders.len()],
            orders,
            sum_delta_extra: 0.0,
            releases: 0,
        }
    }
}

impl Accountant for RdpAccountant {
    fn record(&mut self, budget: Budget, sigma: f64, sensitivity: f64) {
        if sigma > 0.0 && sensitivity > 0.0 {
            let rho_like = (sensitivity * sensitivity) / (2.0 * sigma * sigma);
            for (eps, &alpha) in self.rdp_eps.iter_mut().zip(&self.orders) {
                *eps += alpha * rho_like;
            }
        } else {
            // Fall back to treating the release as an (eps, delta) RDP bound
            // at every order (conservative).
            for eps in &mut self.rdp_eps {
                *eps += budget.epsilon.value();
            }
            self.sum_delta_extra += budget.delta.value();
        }
        self.releases += 1;
    }

    fn total(&self) -> Budget {
        if self.releases == 0 {
            return Budget::ZERO;
        }
        let mut best = f64::INFINITY;
        for (eps, &alpha) in self.rdp_eps.iter().zip(&self.orders) {
            let converted = eps + (1.0 / self.target_delta).ln() / (alpha - 1.0);
            if converted < best {
                best = converted;
            }
        }
        let delta = (self.target_delta + self.sum_delta_extra).min(1.0 - f64::EPSILON);
        Budget::new(best.max(0.0), delta).expect("valid composed budget")
    }

    fn releases(&self) -> usize {
        self.releases
    }

    /// Sums: the RDP epsilon of every order, in grid order, then the
    /// fallback releases' Σδ.
    fn export_state(&self) -> AccountantState {
        let mut sums = self.rdp_eps.clone();
        sums.push(self.sum_delta_extra);
        AccountantState {
            releases: self.releases as u64,
            sums,
        }
    }

    fn import_state(&mut self, state: &AccountantState) -> Result<()> {
        let mut sums = state.sums(self.orders.len() + 1)?;
        self.sum_delta_extra = sums.pop().expect("one sum per order plus Σδ");
        self.rdp_eps = sums;
        self.releases = state.releases as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::analytic_gaussian_sigma;

    #[test]
    fn single_gaussian_release_roughly_recovers_its_budget() {
        // A single release calibrated at (1.0, 1e-9): RDP conversion should
        // give an epsilon of the same order (RDP is lossy for a single
        // release but must not be wildly off).
        let sigma = analytic_gaussian_sigma(1.0, 1e-9, 1.0).unwrap();
        let mut acc = RdpAccountant::new(1e-9);
        acc.record(Budget::new(1.0, 1e-9).unwrap(), sigma, 1.0);
        let eps = acc.total().epsilon.value();
        assert!(eps > 0.3 && eps < 3.0, "unexpected converted epsilon {eps}");
    }

    #[test]
    fn composition_grows_sublinearly() {
        let sigma = analytic_gaussian_sigma(0.1, 1e-10, 1.0).unwrap();
        let mut acc = RdpAccountant::new(1e-9);
        let k = 100;
        for _ in 0..k {
            acc.record(Budget::new(0.1, 1e-10).unwrap(), sigma, 1.0);
        }
        let eps = acc.total().epsilon.value();
        assert!(eps < 0.1 * k as f64, "rdp ({eps}) should beat sequential");
        // and it must still be a meaningful positive loss
        assert!(eps > 0.5);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(RdpAccountant::new(1e-9).total(), Budget::ZERO);
    }
}
