//! 1-D numerical search routines.
//!
//! The calibration problems in the paper are all one-dimensional:
//!
//! * the analytic-Gaussian calibration searches for the smallest noise scale
//!   σ whose privacy profile is below δ (the profile is monotone decreasing
//!   in σ). It runs a safeguarded Newton iteration of its own and finishes
//!   with [`bisect_decreasing`] only where rounding makes the computed
//!   profile too noisy for Newton to close its bracket;
//! * the accuracy→privacy translation of Definition 9 searches for the
//!   smallest ε whose calibrated variance is below the accuracy target (the
//!   variance is monotone decreasing in ε). A safeguarded Newton iteration
//!   on the privacy profile brackets the root first; then
//!   [`monotone_binary_search`] runs unchanged, over a predicate that the
//!   bracket answers outside it, so it returns the bisection's grid point
//!   after a handful of evaluations;
//! * the friction-aware translation of Eq. (3) maximises a smooth unimodal
//!   function of the combination weight `w ∈ [0, 1)` — in closed form; the
//!   golden-section search here is only its test oracle.

use crate::{DpError, Result};

/// Finds the smallest `x` in `[lo, hi]` such that `f(x) <= 0`, assuming `f`
/// is monotone *decreasing*. Returns an error if `f(hi) > 0` (no solution in
/// range). The result is within `tol` of the true threshold.
pub fn bisect_decreasing<F>(mut f: F, lo: f64, hi: f64, tol: f64) -> Result<f64>
where
    F: FnMut(f64) -> f64,
{
    assert!(lo < hi, "bisect_decreasing requires lo < hi");
    assert!(tol > 0.0, "bisect_decreasing requires tol > 0");
    if f(hi) > 0.0 {
        return Err(DpError::NoConvergence("bisect_decreasing: f(hi) > 0"));
    }
    if f(lo) <= 0.0 {
        return Ok(lo);
    }
    let mut lo = lo;
    let mut hi = hi;
    // 200 iterations halve the interval far below f64 resolution for any
    // realistic range; the tolerance check normally exits much earlier.
    for _ in 0..200 {
        if hi - lo <= tol {
            return Ok(hi);
        }
        let mid = 0.5 * (lo + hi);
        if f(mid) <= 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// Monotone binary search used by the translation module (Algorithm 2,
/// line 10): finds the smallest `x` in `[lo, hi]` for which `pred(x)` is
/// true, assuming `pred` is monotone (false … false true … true). Returns
/// `None` when `pred(hi)` is false.
pub fn monotone_binary_search<P>(mut pred: P, lo: f64, hi: f64, tol: f64) -> Option<f64>
where
    P: FnMut(f64) -> bool,
{
    assert!(lo <= hi && tol > 0.0);
    if !pred(hi) {
        return None;
    }
    if pred(lo) {
        return Some(lo);
    }
    let mut lo = lo;
    let mut hi = hi;
    for _ in 0..200 {
        if hi - lo <= tol {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Golden-section minimisation of a unimodal function on `[lo, hi]`.
///
/// Returns `(x_min, f(x_min))`. Accuracy is `tol` on the argument.
#[cfg(test)]
pub(crate) fn golden_section_minimize<F>(mut f: F, lo: f64, hi: f64, tol: f64) -> (f64, f64)
where
    F: FnMut(f64) -> f64,
{
    assert!(lo <= hi, "golden_section_minimize requires lo <= hi");
    const INV_PHI: f64 = 0.618_033_988_749_894_9; // (sqrt(5) - 1) / 2
    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..300 {
        if (b - a).abs() <= tol {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    (x, f(x))
}

/// Maximises a unimodal function on `[lo, hi]` (wrapper around
/// [`golden_section_minimize`] on the negated function).
#[cfg(test)]
pub(crate) fn golden_section_maximize<F>(mut f: F, lo: f64, hi: f64, tol: f64) -> (f64, f64)
where
    F: FnMut(f64) -> f64,
{
    let (x, neg) = golden_section_minimize(|x| -f(x), lo, hi, tol);
    (x, -neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_threshold_of_linear_function() {
        // f(x) = 3 - x, threshold at x = 3.
        let root = bisect_decreasing(|x| 3.0 - x, 0.0, 10.0, 1e-9).unwrap();
        assert!((root - 3.0).abs() < 1e-6);
    }

    #[test]
    fn bisect_errors_when_no_solution() {
        let err = bisect_decreasing(|x| 100.0 - x, 0.0, 10.0, 1e-9);
        assert!(err.is_err());
    }

    #[test]
    fn bisect_returns_lo_when_already_satisfied() {
        let root = bisect_decreasing(|x| -1.0 - x, 2.0, 10.0, 1e-9).unwrap();
        assert_eq!(root, 2.0);
    }

    #[test]
    fn monotone_search_finds_smallest_true() {
        let x = monotone_binary_search(|x| x * x >= 2.0, 0.0, 10.0, 1e-9).unwrap();
        assert!((x - std::f64::consts::SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn monotone_search_none_when_never_true() {
        assert!(monotone_binary_search(|x| x > 100.0, 0.0, 10.0, 1e-9).is_none());
    }

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let (x, fx) = golden_section_minimize(|x| (x - 2.5) * (x - 2.5) + 1.0, -10.0, 10.0, 1e-10);
        assert!((x - 2.5).abs() < 1e-6);
        assert!((fx - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_maximize_finds_peak() {
        let (x, fx) = golden_section_maximize(|x| -(x - 0.3) * (x - 0.3), 0.0, 1.0, 1e-10);
        assert!((x - 0.3).abs() < 1e-6);
        assert!(fx.abs() < 1e-10);
    }

    #[test]
    fn golden_section_handles_boundary_minimum() {
        // Monotone increasing: minimum at the left boundary.
        let (x, _) = golden_section_minimize(|x| x, 0.0, 1.0, 1e-10);
        assert!(x < 1e-6);
    }
}
