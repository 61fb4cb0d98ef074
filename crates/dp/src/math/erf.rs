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
//!
//! The continued fraction is a serial chain of 160 dependent divisions, so
//! one evaluation runs at the divider's latency, not its throughput. The
//! privacy profile needs two complements at once; `erfc_pair` runs their
//! two chains in one loop, each with the same operations in the same order
//! as a lone call, so the pair has the same bits as two calls.

const SQRT_PI: f64 = 1.772_453_850_905_516; // sqrt(pi)
const TWO_OVER_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI; // 2 / sqrt(pi)
/// Where the Maclaurin series hands over to the continued fraction.
pub(crate) const SERIES_CUTOFF: f64 = 2.5;
/// Beyond this `erfc` is 0: `exp(-729)` underflows anyway.
const CF_MAX: f64 = 27.0;
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
    let [reciprocal] = erfcx_reciprocals([x]);
    reciprocal
}

/// [`erfcx_reciprocal`] of every lane. The lanes' recurrences run
/// interleaved in one loop, so their dependent divisions overlap; each
/// lane performs exactly the operations of a lone evaluation, in the same
/// order, so it has the same bits.
fn erfcx_reciprocals<const N: usize>(xs: [f64; N]) -> [f64; N] {
    debug_assert!(xs.iter().all(|&x| x > 0.0));
    // Level-k denominator: x for even k, 2x for odd k; numerator at level k
    // is k. Start from the deepest level and fold upwards.
    let denom = |x: f64, k: usize| if k.is_multiple_of(2) { x } else { 2.0 * x };
    let mut acc = xs.map(|x| denom(x, CF_DEPTH));
    for k in (1..=CF_DEPTH).rev() {
        for (acc, &x) in acc.iter_mut().zip(&xs) {
            *acc = denom(x, k - 1) + k as f64 / *acc;
        }
    }
    acc.map(|acc| SQRT_PI * acc)
}

/// `erfc(x)` on `x > SERIES_CUTOFF` through the continued fraction.
fn erfc_cf(x: f64) -> f64 {
    (-x * x).exp() / erfcx_reciprocal(x)
}

/// `(erfc(x), erfc(y))`, with the same bits as two calls of [`erfc`]. When
/// both arguments are on the continued fraction's branch
/// (`SERIES_CUTOFF < v <= 27`), the two recurrences share one loop, which
/// takes about half the time of running them one after the other.
pub(crate) fn erfc_pair(x: f64, y: f64) -> (f64, f64) {
    let on_fraction = |v: f64| v > SERIES_CUTOFF && v <= CF_MAX;
    if !(on_fraction(x) && on_fraction(y)) {
        return (erfc(x), erfc(y));
    }
    let [reciprocal_x, reciprocal_y] = erfcx_reciprocals([x, y]);
    ((-x * x).exp() / reciprocal_x, (-y * y).exp() / reciprocal_y)
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
        if x > CF_MAX {
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
    fn erfc_pair_has_the_bits_of_two_calls() {
        // Every pair of branches of erfc: NaN, below −SERIES_CUTOFF (via
        // 2 − erfc(−x)), the series, the continued fraction and beyond it.
        let edges = [
            SERIES_CUTOFF,
            SERIES_CUTOFF.next_up(),
            CF_MAX,
            CF_MAX.next_up(),
            -SERIES_CUTOFF,
            (-SERIES_CUTOFF).next_down(),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let draw = |rng: &mut crate::rng::DpRng, branch: usize| match branch {
            0 => f64::NAN,
            1 => rng.uniform_range(-60.0, -SERIES_CUTOFF),
            2 => rng.uniform_range(-SERIES_CUTOFF, SERIES_CUTOFF),
            3 => rng.uniform_range(SERIES_CUTOFF, CF_MAX),
            4 => rng.uniform_range(CF_MAX, 60.0),
            _ => edges[rng.uniform_usize(0, edges.len())],
        };
        let mut rng = crate::rng::DpRng::seed_from_u64(0x5eed_0004);
        for x_branch in 0..6 {
            for y_branch in 0..6 {
                for _ in 0..400 {
                    let (x, y) = (draw(&mut rng, x_branch), draw(&mut rng, y_branch));
                    let (got_x, got_y) = erfc_pair(x, y);
                    assert_eq!(got_x.to_bits(), erfc(x).to_bits(), "erfc({x}) beside {y}");
                    assert_eq!(got_y.to_bits(), erfc(y).to_bits(), "erfc({y}) beside {x}");
                }
            }
        }
    }

    #[test]
    fn erfc_tails() {
        assert!(erfc(30.0) >= 0.0);
        assert!(erfc(30.0) < 1e-300);
        assert!((erfc(-30.0) - 2.0).abs() < 1e-12);
        assert!((erfc(0.0) - 1.0).abs() < 1e-14);
    }
}
