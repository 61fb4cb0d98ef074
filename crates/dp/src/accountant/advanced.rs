//! Advanced composition (Dwork–Rothblum–Vadhan form).
//!
//! For `k` mechanisms each `(ε, δ)`-DP, the composition is
//! `(ε', kδ + δ')`-DP with
//! `ε' = ε √(2k ln(1/δ')) + k ε (e^ε − 1)`.
//!
//! The accountant keeps the individual releases (they may have different
//! epsilons) and applies the heterogeneous generalisation
//! `ε' = √(2 ln(1/δ') Σ ε_i²) + Σ ε_i (e^{ε_i} − 1)`.

use crate::accountant::{Accountant, AccountantState};
use crate::budget::Budget;
use crate::Result;

/// An accountant applying advanced composition at a fixed slack `δ'`.
#[derive(Debug, Clone)]
pub struct AdvancedAccountant {
    /// The slack delta' used by the composition bound.
    slack_delta: f64,
    sum_eps_sq: f64,
    sum_eps_linear: f64,
    sum_delta: f64,
    sum_eps_plain: f64,
    releases: usize,
}

impl AdvancedAccountant {
    /// Creates an accountant with the given slack `δ'`.
    #[must_use]
    pub fn new(slack_delta: f64) -> Self {
        AdvancedAccountant {
            slack_delta: slack_delta.max(1e-300),
            sum_eps_sq: 0.0,
            sum_eps_linear: 0.0,
            sum_delta: 0.0,
            sum_eps_plain: 0.0,
            releases: 0,
        }
    }
}

impl Accountant for AdvancedAccountant {
    fn record(&mut self, budget: Budget, _sigma: f64, _sensitivity: f64) {
        let eps = budget.epsilon.value();
        self.sum_eps_sq += eps * eps;
        self.sum_eps_linear += eps * (eps.exp() - 1.0);
        self.sum_eps_plain += eps;
        self.sum_delta += budget.delta.value();
        self.releases += 1;
    }

    fn total(&self) -> Budget {
        if self.releases == 0 {
            return Budget::ZERO;
        }
        let advanced =
            (2.0 * (1.0 / self.slack_delta).ln() * self.sum_eps_sq).sqrt() + self.sum_eps_linear;
        // Advanced composition is only an improvement for many small
        // epsilons; report the tighter of the two valid bounds.
        let eps = advanced.min(self.sum_eps_plain);
        let delta = (self.sum_delta + self.slack_delta).min(1.0 - f64::EPSILON);
        Budget::new(eps, delta).expect("composed budget is valid")
    }

    fn releases(&self) -> usize {
        self.releases
    }

    /// Sums: `[Σε², Σε(e^ε − 1), Σδ, Σε]`.
    fn export_state(&self) -> AccountantState {
        AccountantState {
            releases: self.releases as u64,
            sums: vec![
                self.sum_eps_sq,
                self.sum_eps_linear,
                self.sum_delta,
                self.sum_eps_plain,
            ],
        }
    }

    fn import_state(&mut self, state: &AccountantState) -> Result<()> {
        let sums = state.sums(4)?;
        self.sum_eps_sq = sums[0];
        self.sum_eps_linear = sums[1];
        self.sum_delta = sums[2];
        self.sum_eps_plain = sums[3];
        self.releases = state.releases as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beats_sequential_for_many_small_epsilons() {
        let mut acc = AdvancedAccountant::new(1e-6);
        let k = 400;
        for _ in 0..k {
            acc.record(Budget::new(0.01, 1e-10).unwrap(), 1.0, 1.0);
        }
        let total = acc.total();
        let sequential = 0.01 * k as f64;
        assert!(total.epsilon.value() < sequential);
        assert!(total.delta.value() >= k as f64 * 1e-10);
    }

    #[test]
    fn never_exceeds_sequential() {
        let mut acc = AdvancedAccountant::new(1e-6);
        for _ in 0..3 {
            acc.record(Budget::new(1.0, 1e-9).unwrap(), 1.0, 1.0);
        }
        assert!(acc.total().epsilon.value() <= 3.0 + 1e-12);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(AdvancedAccountant::new(1e-9).total(), Budget::ZERO);
    }
}
