//! Standard-normal density, CDF and quantile function.

#[cfg(test)]
use super::erf::erfc;

#[cfg(test)]
const SQRT_2: f64 = std::f64::consts::SQRT_2;
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// The standard normal probability density function φ(x).
#[must_use]
pub(crate) fn normal_pdf(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// The standard normal cumulative distribution function Φ(x).
///
/// Computed through `erfc` for numerical stability in the lower tail:
/// Φ(x) = erfc(-x / √2) / 2.
#[cfg(test)]
#[must_use]
pub(crate) fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// The standard normal quantile function Φ⁻¹(p), `p ∈ (0, 1)`.
///
/// Peter Acklam's rational approximation refined with one Halley step,
/// giving full double precision over the whole open interval.
#[cfg(test)]
#[must_use]
pub(crate) fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0,1), got {p}"
    );

    #[allow(clippy::excessive_precision)]
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reference_values() {
        // mpmath reference values.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841344746068543),
            (-1.0, 0.158655253931457),
            (1.959963984540054, 0.975),
            (2.575829303548901, 0.995),
            (-3.0, 0.001349898031630095),
            (5.0, 0.9999997133484281),
        ];
        for (x, want) in cases {
            let got = normal_cdf(x);
            assert!((got - want).abs() < 1e-12, "Phi({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-10, "round trip at p={p}");
        }
    }

    #[test]
    fn quantile_tail_accuracy() {
        let x = normal_quantile(1e-9);
        assert!((normal_cdf(x) - 1e-9).abs() < 1e-13);
        let x = normal_quantile(1.0 - 1e-9);
        assert!((normal_cdf(x) - (1.0 - 1e-9)).abs() < 1e-12);
    }

    #[test]
    fn pdf_integrates_to_cdf_difference() {
        // Simple trapezoid check that pdf is consistent with cdf.
        let (a, b) = (-1.0_f64, 1.5_f64);
        let n = 20_000;
        let h = (b - a) / n as f64;
        let mut acc = 0.5 * (normal_pdf(a) + normal_pdf(b));
        for i in 1..n {
            acc += normal_pdf(a + i as f64 * h);
        }
        acc *= h;
        assert!((acc - (normal_cdf(b) - normal_cdf(a))).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "normal_quantile requires p in (0,1)")]
    fn quantile_rejects_zero() {
        let _ = normal_quantile(0.0);
    }
}
