//! The error function `erf` and its complement `erfc`.
//!
//! Two classical expansions are combined:
//!
//! * for `|x| <= 2.5` the Maclaurin series
//!   `erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))`,
//!   which converges to machine precision in well under 60 terms on that
//!   range;
//! * for `x > 2.5` the Legendre continued fraction (Abramowitz & Stegun
//!   7.1.14)
//!   `sqrt(pi) e^{x^2} erfc(x) = 1/(x + 1/(2x + 2/(x + 3/(2x + ...))))`,
//!   evaluated by backward recurrence.
//!
//! The combination gives ~1e-13 relative accuracy everywhere the DP
//! calibration evaluates it, including the far tail needed for
//! `delta = 1e-13`.

const SQRT_PI: f64 = 1.772_453_850_905_516; // sqrt(pi)
const TWO_OVER_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI; // 2 / sqrt(pi)
const SERIES_CUTOFF: f64 = 2.5;
const CF_DEPTH: usize = 160;

/// Maclaurin series for erf on `|x| <= SERIES_CUTOFF`.
fn erf_series(x: f64) -> f64 {
    // term_n = (-1)^n x^(2n+1) / (n! (2n+1)); computed incrementally via
    // ratio term_{n}/term_{n-1} = -x^2 * (2n-1) / (n (2n+1)).
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    for n in 1..200 {
        let nf = n as f64;
        term *= -x2 * (2.0 * nf - 1.0) / (nf * (2.0 * nf + 1.0));
        sum += term;
        if term.abs() < 1e-18 * sum.abs().max(1e-300) {
            break;
        }
    }
    TWO_OVER_SQRT_PI * sum
}

/// The reciprocal of the scaled complement, `1 / (e^{x^2} erfc(x))`, on
/// `x > 0`: `sqrt(pi)` times the continued fraction, evaluated bottom-up
/// with a fixed depth. Accurate for `x > SERIES_CUTOFF`, and finite where
/// `e^{-x^2}` underflows.
pub(crate) fn erfcx_reciprocal(x: f64) -> f64 {
    debug_assert!(x > 0.0);
    // Level-k denominator: x for even k, 2x for odd k; numerator at level k
    // is k. Start from the deepest level and fold upwards.
    let denom = |k: usize| if k.is_multiple_of(2) { x } else { 2.0 * x };
    let mut acc = denom(CF_DEPTH);
    for k in (1..=CF_DEPTH).rev() {
        acc = denom(k - 1) + k as f64 / acc;
    }
    SQRT_PI * acc
}

/// `erfc(x)` on `x > SERIES_CUTOFF` through the continued fraction.
fn erfc_cf(x: f64) -> f64 {
    (-x * x).exp() / erfcx_reciprocal(x)
}

/// The error function `erf(x) = 2/sqrt(pi) * Int_0^x e^{-t^2} dt`.
#[must_use]
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax <= SERIES_CUTOFF {
        erf_series(x)
    } else {
        let tail = erfc_cf(ax);
        let val = 1.0 - tail;
        if x < 0.0 {
            -val
        } else {
            val
        }
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Unlike computing `1.0 - erf(x)` directly, this keeps full *relative*
/// precision in the upper tail (`x` large), which the analytic-Gaussian
/// privacy profile relies on when `delta` is as small as `1e-13`.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > SERIES_CUTOFF {
        if x > 27.0 {
            // exp(-729) underflows to 0 anyway.
            return 0.0;
        }
        return erfc_cf(x);
    }
    if x < -SERIES_CUTOFF {
        return 2.0 - erfc(-x);
    }
    1.0 - erf_series(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    #[allow(clippy::excessive_precision)]
    const ERF_REFERENCE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112462916018284892),
        (0.25, 0.276326390168236932),
        (0.5, 0.520499877813046538),
        (1.0, 0.842700792949714869),
        (1.5, 0.966105146475310727),
        (2.0, 0.995322265018952734),
        (3.0, 0.999977909503001415),
        (4.0, 0.999999984582742100),
        (-1.0, -0.842700792949714869),
        (-2.5, -0.999593047982555041),
    ];

    /// Tail values of erfc where relative precision matters.
    #[allow(clippy::excessive_precision)]
    const ERFC_REFERENCE: &[(f64, f64)] = &[
        (3.0, 2.20904969985854414e-5),
        (4.0, 1.54172579002800189e-8),
        (5.0, 1.53745979442803485e-12),
        (6.0, 2.15197367124989132e-17),
        (8.0, 1.12242971729829270e-29),
    ];

    #[test]
    fn erf_matches_reference_values() {
        for &(x, want) in ERF_REFERENCE {
            let got = erf(x);
            assert!(
                (got - want).abs() < 1e-12,
                "erf({x}) = {got}, expected {want}"
            );
        }
    }

    #[test]
    fn erfc_tail_relative_accuracy() {
        for &(x, want) in ERFC_REFERENCE {
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-10, "erfc({x}) = {got}, expected {want}, rel {rel}");
        }
    }

    #[test]
    fn erfc_is_complement_of_erf() {
        for i in -60..=60 {
            let x = i as f64 * 0.1;
            let sum = erf(x) + erfc(x);
            assert!((sum - 1.0).abs() < 1e-12, "erf+erfc at {x} = {sum}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for i in 1..=50 {
            let x = i as f64 * 0.13;
            assert!((erf(x) + erf(-x)).abs() < 1e-13);
        }
    }

    #[test]
    fn erf_is_monotone_increasing() {
        let mut prev = erf(-8.0);
        for i in -79..=80 {
            let x = i as f64 * 0.1;
            let v = erf(x);
            assert!(v >= prev, "erf not monotone at {x}");
            prev = v;
        }
    }

    #[test]
    fn erf_continuous_at_series_cf_boundary() {
        let below = erf(SERIES_CUTOFF - 1e-9);
        let above = erf(SERIES_CUTOFF + 1e-9);
        assert!((below - above).abs() < 1e-9);
    }

    #[test]
    fn erfc_tails() {
        assert!(erfc(30.0) >= 0.0);
        assert!(erfc(30.0) < 1e-300);
        assert!((erfc(-30.0) - 2.0).abs() < 1e-12);
        assert!((erfc(0.0) - 1.0).abs() < 1e-14);
    }
}
