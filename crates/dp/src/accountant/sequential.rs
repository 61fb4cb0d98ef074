//! Basic sequential composition (Theorem 2.1): epsilons and deltas add.

use crate::accountant::{Accountant, AccountantState};
use crate::budget::Budget;
use crate::Result;

/// An accountant applying basic sequential composition.
#[derive(Debug, Clone)]
pub struct SequentialAccountant {
    total: Budget,
    releases: usize,
}

impl Default for SequentialAccountant {
    fn default() -> Self {
        SequentialAccountant::new()
    }
}

impl SequentialAccountant {
    /// Creates an empty accountant.
    #[must_use]
    pub fn new() -> Self {
        SequentialAccountant {
            total: Budget::ZERO,
            releases: 0,
        }
    }
}

impl Accountant for SequentialAccountant {
    fn record(&mut self, budget: Budget, _sigma: f64, _sensitivity: f64) {
        self.total = self.total.compose(budget);
        self.releases += 1;
    }

    fn total(&self) -> Budget {
        self.total
    }

    fn releases(&self) -> usize {
        self.releases
    }

    /// Sums: `[ε, δ]`.
    fn export_state(&self) -> AccountantState {
        AccountantState {
            releases: self.releases as u64,
            sums: vec![self.total.epsilon.value(), self.total.delta.value()],
        }
    }

    fn import_state(&mut self, state: &AccountantState) -> Result<()> {
        let sums = state.sums(2)?;
        self.total = Budget::new(sums[0], sums[1])?;
        self.releases = state.releases as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilons_and_deltas_add() {
        let mut acc = SequentialAccountant::new();
        acc.record(Budget::new(0.5, 1e-9).unwrap(), 1.0, 1.0);
        acc.record(Budget::new(0.7, 2e-9).unwrap(), 1.0, 1.0);
        let t = acc.total();
        assert!((t.epsilon.value() - 1.2).abs() < 1e-12);
        assert!((t.delta.value() - 3e-9).abs() < 1e-18);
        assert_eq!(acc.releases(), 2);
    }

    #[test]
    fn empty_accountant_is_zero() {
        let acc = SequentialAccountant::new();
        assert_eq!(acc.total(), Budget::ZERO);
        assert_eq!(acc.releases(), 0);
    }
}
