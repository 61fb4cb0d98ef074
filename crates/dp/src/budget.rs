//! Privacy-budget newtypes.
//!
//! The paper tracks privacy loss as `(epsilon, delta)` pairs throughout: in
//! the provenance matrix entries, the row/column/table constraints and the
//! per-query translated budgets. Wrapping the raw `f64`s in newtypes keeps
//! unit confusion (variance vs epsilon vs delta) out of the higher layers.

use crate::{DpError, Result};

/// A privacy-loss parameter `epsilon > 0`.
///
/// `Epsilon::ZERO` is allowed as the additive identity (an analyst that has
/// not consumed anything yet); every *spent* epsilon must be strictly
/// positive.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// The additive identity (no privacy loss).
    pub(crate) const ZERO: Epsilon = Epsilon(0.0);

    /// Creates an epsilon, rejecting non-finite or negative values.
    pub fn new(value: f64) -> Result<Self> {
        if !value.is_finite() || value < 0.0 {
            return Err(DpError::InvalidEpsilon(value));
        }
        Ok(Epsilon(value))
    }

    /// Creates an epsilon without validation. Only for constants known to be
    /// valid at compile time (e.g. experiment sweeps).
    #[must_use]
    pub fn unchecked(value: f64) -> Self {
        debug_assert!(value.is_finite() && value >= 0.0, "invalid epsilon {value}");
        Epsilon(value)
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Saturating subtraction: `self - other`, floored at zero.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn saturating_sub(self, other: Epsilon) -> Epsilon {
        Epsilon((self.0 - other.0).max(0.0))
    }

    /// Returns the larger of two epsilons.
    #[must_use]
    pub(crate) fn max(self, other: Epsilon) -> Epsilon {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two epsilons.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn min(self, other: Epsilon) -> Epsilon {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl std::ops::Add for Epsilon {
    type Output = Epsilon;
    fn add(self, rhs: Epsilon) -> Epsilon {
        Epsilon(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Epsilon {
    fn add_assign(&mut self, rhs: Epsilon) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<f64> for Epsilon {
    type Output = Epsilon;
    fn mul(self, rhs: f64) -> Epsilon {
        Epsilon(self.0 * rhs)
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ε={:.6}", self.0)
    }
}

/// A failure-probability parameter `delta` in `[0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Delta(f64);

impl Delta {
    /// Zero failure probability (pure DP).
    pub const ZERO: Delta = Delta(0.0);

    /// Creates a delta, rejecting values outside `[0, 1)`.
    pub fn new(value: f64) -> Result<Self> {
        if !value.is_finite() || !(0.0..1.0).contains(&value) {
            return Err(DpError::InvalidDelta(value));
        }
        Ok(Delta(value))
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the larger of two deltas.
    #[must_use]
    pub(crate) fn max(self, other: Delta) -> Delta {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl std::ops::Add for Delta {
    type Output = Delta;
    fn add(self, rhs: Delta) -> Delta {
        Delta((self.0 + rhs.0).min(1.0))
    }
}

impl std::ops::AddAssign for Delta {
    fn add_assign(&mut self, rhs: Delta) {
        self.0 = (self.0 + rhs.0).min(1.0);
    }
}

impl std::fmt::Display for Delta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "δ={:.3e}", self.0)
    }
}

/// An `(epsilon, delta)` privacy budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// The epsilon component.
    pub epsilon: Epsilon,
    /// The delta component.
    pub delta: Delta,
}

impl Budget {
    /// The zero budget.
    pub const ZERO: Budget = Budget {
        epsilon: Epsilon::ZERO,
        delta: Delta::ZERO,
    };

    /// Creates a budget from raw values, validating both components.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self> {
        Ok(Budget {
            epsilon: Epsilon::new(epsilon)?,
            delta: Delta::new(delta)?,
        })
    }

    /// Creates a budget from already-validated components.
    #[must_use]
    pub fn from_parts(epsilon: Epsilon, delta: Delta) -> Self {
        Budget { epsilon, delta }
    }

    /// Sequentially composes two budgets (Theorem 2.1): epsilons and deltas
    /// add.
    #[must_use]
    pub fn compose(self, other: Budget) -> Budget {
        Budget {
            epsilon: self.epsilon + other.epsilon,
            delta: self.delta + other.delta,
        }
    }

    /// The pointwise maximum of two budgets (the collusion *lower bound* of
    /// Theorem 3.2).
    #[must_use]
    pub fn pointwise_max(self, other: Budget) -> Budget {
        Budget {
            epsilon: self.epsilon.max(other.epsilon),
            delta: self.delta.max(other.delta),
        }
    }

    /// True if `self` dominates `other` in both components (i.e. spending
    /// `other` fits inside `self`).
    #[must_use]
    pub fn covers(self, other: Budget) -> bool {
        self.epsilon.value() >= other.epsilon.value() && self.delta.value() >= other.delta.value()
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.epsilon, self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_rejects_negative_and_nan() {
        assert!(Epsilon::new(-0.1).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(0.0).is_ok());
        assert!(Epsilon::new(3.2).is_ok());
    }

    #[test]
    fn delta_rejects_out_of_range() {
        assert!(Delta::new(-1e-9).is_err());
        assert!(Delta::new(1.0).is_err());
        assert!(Delta::new(1.5).is_err());
        assert!(Delta::new(0.0).is_ok());
        assert!(Delta::new(1e-9).is_ok());
    }

    #[test]
    fn epsilon_arithmetic() {
        let a = Epsilon::new(0.5).unwrap();
        let b = Epsilon::new(0.3).unwrap();
        assert!(((a + b).value() - 0.8).abs() < 1e-12);
        assert!((a.saturating_sub(b).value() - 0.2).abs() < 1e-12);
        assert_eq!(b.saturating_sub(a), Epsilon::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn budget_composition_adds_components() {
        let a = Budget::new(0.5, 1e-9).unwrap();
        let b = Budget::new(0.7, 2e-9).unwrap();
        let c = a.compose(b);
        assert!((c.epsilon.value() - 1.2).abs() < 1e-12);
        assert!((c.delta.value() - 3e-9).abs() < 1e-18);
    }

    #[test]
    fn budget_pointwise_max_is_componentwise() {
        let a = Budget::new(0.5, 2e-9).unwrap();
        let b = Budget::new(0.7, 1e-9).unwrap();
        let m = a.pointwise_max(b);
        assert!((m.epsilon.value() - 0.7).abs() < 1e-12);
        assert!((m.delta.value() - 2e-9).abs() < 1e-18);
    }

    #[test]
    fn budget_covers_requires_both_components() {
        let big = Budget::new(1.0, 1e-6).unwrap();
        let small = Budget::new(0.5, 1e-9).unwrap();
        assert!(big.covers(small));
        assert!(!small.covers(big));
        assert!(big.covers(big));
    }

    #[test]
    fn delta_addition_saturates_at_one() {
        let a = Delta::new(0.9).unwrap();
        let b = Delta::new(0.6).unwrap();
        assert!(((a + b).value() - 1.0).abs() < 1e-12);
    }
}
