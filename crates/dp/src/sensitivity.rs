//! Query sensitivity descriptors.
//!
//! DProvDB answers queries over *histogram views*. Under bounded DP
//! (neighbouring databases differ in the value of one tuple) a full-domain
//! counting histogram has ℓ2 sensitivity √2 (one bin decreases by one,
//! another increases by one); a clipped-sum view over domain `[lb, ub]` has
//! sensitivity `(ub - lb)` (optionally divided by the bin width when the
//! domain is discretised, see Appendix D).

use crate::{DpError, Result};

/// The ℓ2 global sensitivity of a query or view (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Sensitivity(f64);

impl Sensitivity {
    /// Sensitivity of a single counting query under bounded DP.
    pub const COUNT: Sensitivity = Sensitivity(1.0);

    /// Creates a sensitivity, rejecting non-positive or non-finite values.
    pub fn new(value: f64) -> Result<Self> {
        if !value.is_finite() || value <= 0.0 {
            return Err(DpError::InvalidSensitivity(value));
        }
        Ok(Sensitivity(value))
    }

    /// Creates a sensitivity without validation (compile-time constants).
    #[must_use]
    pub fn unchecked(value: f64) -> Self {
        debug_assert!(value.is_finite() && value > 0.0);
        Sensitivity(value)
    }

    /// ℓ2 sensitivity of a full-domain counting histogram under bounded DP:
    /// changing one tuple's value moves one unit out of a bin and into
    /// another, so the ℓ2 change is √2.
    #[must_use]
    pub fn histogram_bounded() -> Self {
        Sensitivity(std::f64::consts::SQRT_2)
    }

    /// ℓ2 sensitivity of a full-domain counting histogram under unbounded DP
    /// (add/remove one tuple): exactly one bin changes by one.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn histogram_unbounded() -> Self {
        Sensitivity(1.0)
    }

    /// Sensitivity of a clipped sum over `[lb, ub]`, optionally discretised
    /// into bins of width `bin_width` (Appendix D, footnote 3).
    #[cfg(test)]
    pub(crate) fn clipped_sum(lb: f64, ub: f64, bin_width: Option<f64>) -> Result<Self> {
        if !(lb.is_finite() && ub.is_finite()) || ub <= lb {
            return Err(DpError::InvalidSensitivity(ub - lb));
        }
        let raw = ub - lb;
        let value = match bin_width {
            Some(w) if w > 0.0 => raw / w,
            _ => raw,
        };
        Sensitivity::new(value)
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Scales the sensitivity by a positive factor (e.g. a workload weight).
    #[cfg(test)]
    pub(crate) fn scale(self, factor: f64) -> Result<Self> {
        Sensitivity::new(self.0 * factor)
    }
}

impl std::fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Δ={:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_positive() {
        assert!(Sensitivity::new(0.0).is_err());
        assert!(Sensitivity::new(-1.0).is_err());
        assert!(Sensitivity::new(f64::NAN).is_err());
        assert!(Sensitivity::new(1.0).is_ok());
    }

    #[test]
    fn histogram_sensitivities() {
        assert!(
            (Sensitivity::histogram_bounded().value() - std::f64::consts::SQRT_2).abs() < 1e-15
        );
        assert_eq!(Sensitivity::histogram_unbounded().value(), 1.0);
    }

    #[test]
    fn clipped_sum_sensitivity() {
        let s = Sensitivity::clipped_sum(0.0, 100.0, None).unwrap();
        assert_eq!(s.value(), 100.0);
        let s = Sensitivity::clipped_sum(0.0, 100.0, Some(10.0)).unwrap();
        assert_eq!(s.value(), 10.0);
        assert!(Sensitivity::clipped_sum(5.0, 5.0, None).is_err());
        assert!(Sensitivity::clipped_sum(10.0, 5.0, None).is_err());
    }

    #[test]
    fn scaling() {
        let s = Sensitivity::new(2.0).unwrap();
        assert_eq!(s.scale(3.0).unwrap().value(), 6.0);
        assert!(s.scale(0.0).is_err());
    }
}
