//! The analytic Gaussian mechanism (Balle & Wang, ICML 2018).
//!
//! Definition 3 of the paper: adding `N(0, sigma^2)` noise to a query with
//! ℓ2 sensitivity Δ is `(epsilon, delta)`-DP **iff**
//!
//! ```text
//! Phi(Δ/(2σ) − εσ/Δ) − e^ε · Phi(−Δ/(2σ) − εσ/Δ) ≤ δ
//! ```
//!
//! The left-hand side (the *privacy profile* `P(σ)`, with `a = Δ/(2σ)` and
//! `b = εσ/Δ`) is monotone decreasing in σ, so the tightest calibration is
//! the smallest σ for which the profile drops below δ. This is exactly the
//! calibration the original DProvDB re-implemented in Scala.
//!
//! # Finding σ
//!
//! The search runs Newton's method on `ln P(σ) = ln δ` over `ln σ`, from an
//! upper bound: the classic calibration for ε ≤ 1, and above that the σ at
//! which the profile's first term alone reaches δ. The slope is closed
//! form: `e^ε·φ(−a−b) = φ(a−b)`, so `d ln P / d ln σ = −2a·φ(a−b)/P`.
//!
//! * Every evaluation tightens a bracket `[lo, hi]` with `P(lo) > δ ≥ P(hi)`;
//!   a step that is not finite or leaves the bracket bisects it instead.
//! * Each step is pushed a quarter of the tolerance further, across the
//!   root from the side it starts on, so that once Newton has converged the
//!   next point lands just across the root.
//! * The search stops on a certificate: the returned σ has `P(σ) ≤ δ`, and
//!   an evaluated `σ_lo ≥ σ·(1 − 1e-12)` has `P(σ_lo) > δ`. A
//!   well-conditioned calibration takes 5–7 profile evaluations.
//! * Where rounding makes the computed profile too noisy at that scale for
//!   Newton to close the certificate (tiny ε, where the profile's two terms
//!   cancel), [`bisect_decreasing`] finishes inside the bracket found so far.

use crate::budget::Budget;
use crate::math::erf::{erfc_pair, erfcx_reciprocal, SERIES_CUTOFF};
use crate::math::normal::normal_pdf;
use crate::math::optimize::bisect_decreasing;
use crate::rng::DpRng;
use crate::sensitivity::Sensitivity;
use crate::{DpError, Result};

const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Relative width of the certified bracket `[σ_lo, σ]`.
const TOLERANCE: f64 = 1e-12;

/// How far, in `ln σ`, each Newton step is pushed across the root: a
/// quarter of the tolerance, so a converged point on one side and the next
/// one on the other side close the certificate.
const CROSSING: f64 = 0.25 * TOLERANCE;

/// Profile evaluations Newton may spend before the bracket is bisected.
const NEWTON_EVALUATIONS: usize = 16;

/// Evaluations after which a search that has not bracketed the root gives
/// up.
const MAX_EVALUATIONS: usize = 200;

/// The two terms of the privacy profile, `Phi(a − b)` and
/// `e^ε · Phi(−a − b)`. The profile is their difference; the first term
/// also bounds the rounding error of that difference, which is what the
/// translation's guard band scales with.
///
/// Both `Phi` values are `0.5 · erfc(−x/√2)`, exactly as
/// [`normal_cdf`](crate::math::normal_cdf) computes them, but the two
/// complements come from one [`erfc_pair`]: where the profile is near any
/// δ the calibration uses, both arguments are on the continued fraction's
/// branch, and the pair runs the two recurrences interleaved, in about half
/// the time, with the same bits.
///
/// The tail is taken in log space (see [`log_space_tail`]) where `e^ε`
/// overflows (ε ≥ 709.79), and also where `Phi(−a − b)` is subnormal or 0
/// while `e^ε > 1`: there the product would scale a value that has lost
/// its precision (or all of it) by up to `e^709`, and the computed profile
/// would cross δ twice.
pub(crate) fn profile_terms(sigma: f64, sensitivity: f64, epsilon: f64) -> (f64, f64) {
    debug_assert!(sigma > 0.0 && sensitivity > 0.0 && epsilon >= 0.0);
    let a = sensitivity / (2.0 * sigma);
    let b = epsilon * sigma / sensitivity;
    let scale = epsilon.exp();
    // `normal_cdf(x)` is `0.5 · erfc(−x/√2)`; `b − a` and `a + b` are
    // `−(a − b)` and `−(−a − b)` exactly, since negation is exact and
    // rounding is symmetric about 0.
    let tail_argument = (a + b) / SQRT_2;
    let (head, tail) = erfc_pair((b - a) / SQRT_2, tail_argument);
    let (head, tail) = (0.5 * head, 0.5 * tail);
    let lost = tail < f64::MIN_POSITIVE && scale > 1.0 && tail_argument > SERIES_CUTOFF;
    let tail = if scale.is_finite() && !lost {
        scale * tail
    } else {
        log_space_tail(a, b)
    };
    (head, tail)
}

/// `e^ε · Phi(−a − b)` without forming `e^ε` or `Phi(−a − b)`: for
/// `x = (a + b)/√2` on the continued fraction's branch,
/// `Phi(−a − b) = erfc(x)/2 = e^{−x²} / (2·erfcx_reciprocal(x))`, and
/// `ε − x² = −(a − b)²/2` because `ε = 2ab`. Finite and accurate both where
/// `e^ε` overflows and where `e^{−x²}` is subnormal.
fn log_space_tail(a: f64, b: f64) -> f64 {
    (-0.5 * (a - b) * (a - b)).exp() / (2.0 * erfcx_reciprocal((a + b) / SQRT_2))
}

/// Evaluates the privacy profile: the smallest `delta` for which noise scale
/// `sigma` on sensitivity `delta_q` is `(epsilon, delta)`-DP.
#[must_use]
pub fn analytic_gaussian_delta(sigma: f64, sensitivity: f64, epsilon: f64) -> f64 {
    let (head, tail) = profile_terms(sigma, sensitivity, epsilon);
    (head - tail).max(0.0)
}

/// Computes the minimal noise scale `sigma` such that the Gaussian mechanism
/// with sensitivity `sensitivity` satisfies `(epsilon, delta)`-DP, to within
/// a relative tolerance of 1e-12 (see the module docs).
pub fn analytic_gaussian_sigma(epsilon: f64, delta: f64, sensitivity: f64) -> Result<f64> {
    calibrate(epsilon, delta, sensitivity).map(|search| search.hi)
}

/// One calibration search: the bracket every profile evaluation tightens,
/// and the evaluations spent.
struct Search {
    epsilon: f64,
    delta: f64,
    ln_delta: f64,
    sensitivity: f64,
    /// The largest evaluated σ with `P(σ) > δ`; `0` before there is one.
    lo: f64,
    /// The smallest evaluated σ with `P(σ) ≤ δ`; `∞` before there is one.
    hi: f64,
    evaluations: usize,
}

impl Search {
    /// Evaluates the profile at `sigma` and tightens the bracket. A profile
    /// that is not a number counts as above δ, the side that adds noise.
    fn profile(&mut self, sigma: f64) -> f64 {
        let (head, tail) = profile_terms(sigma, self.sensitivity, self.epsilon);
        let profile = head - tail;
        self.evaluations += 1;
        if profile <= self.delta {
            self.hi = self.hi.min(sigma);
        } else {
            self.lo = self.lo.max(sigma);
        }
        profile
    }

    /// Evaluates the profile at `sigma` and returns Newton's next point,
    /// pushed [`CROSSING`] across the root. It is not finite where the
    /// profile is not positive or its slope underflows.
    fn newton(&mut self, sigma: f64) -> f64 {
        let profile = self.profile(sigma);
        let a = self.sensitivity / (2.0 * sigma);
        let b = self.epsilon * sigma / self.sensitivity;
        // ln P − ln δ over the slope d ln P / d ln σ = −2a·φ(a−b)/P.
        let step = (profile.ln() - self.ln_delta) * profile / (2.0 * a * normal_pdf(a - b));
        let push = if profile <= self.delta {
            -CROSSING
        } else {
            CROSSING
        };
        sigma * (step + push).exp()
    }

    fn is_certified(&self) -> bool {
        self.lo >= self.hi * (1.0 - TOLERANCE)
    }

    /// A bisection step on `ln σ`: the bracket's geometric midpoint, or a
    /// factor of two beyond its one known end.
    fn split(&self) -> f64 {
        if self.hi.is_infinite() {
            2.0 * self.lo
        } else if self.lo == 0.0 {
            0.5 * self.hi
        } else {
            self.lo.sqrt() * self.hi.sqrt()
        }
    }
}

/// The search behind [`analytic_gaussian_sigma`]; the finished search
/// returns σ as `hi` and its certificate as `lo`.
fn calibrate(epsilon: f64, delta: f64, sensitivity: f64) -> Result<Search> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(DpError::InvalidEpsilon(epsilon));
    }
    if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
        return Err(DpError::InvalidDelta(delta));
    }
    if !(sensitivity.is_finite() && sensitivity > 0.0) {
        return Err(DpError::InvalidSensitivity(sensitivity));
    }

    let mut search = Search {
        epsilon,
        delta,
        ln_delta: delta.ln(),
        sensitivity,
        lo: 0.0,
        hi: f64::INFINITY,
        evaluations: 0,
    };
    // Start from an upper bound: the classic calibration for epsilon <= 1.
    // Above that the classic σ falls below the root, far below it for large
    // epsilon; start instead where the profile's first term alone reaches
    // δ (`b − a = z`, with the classic `z = √(2 ln(1.25/δ))`, which is at
    // least the normal quantile `Phi⁻¹(1 − δ)`).
    let z = (2.0 * (1.25 / delta).ln()).sqrt();
    let mut sigma = if epsilon <= 1.0 {
        sensitivity * z / epsilon
    } else {
        sensitivity * (z + (z * z + 2.0 * epsilon).sqrt()) / (2.0 * epsilon)
    };
    if !sigma.is_finite() || sigma <= 0.0 {
        sigma = sensitivity;
    }
    loop {
        let next = search.newton(sigma);
        if search.is_certified() {
            return Ok(search);
        }
        let bracketed = search.lo > 0.0 && search.hi.is_finite();
        if bracketed && search.evaluations >= NEWTON_EVALUATIONS {
            break;
        }
        if search.evaluations == MAX_EVALUATIONS {
            return Err(DpError::NoConvergence("analytic_gaussian_sigma bracket"));
        }
        // Past the Newton budget only bisection steps are taken: they find
        // the bracket's missing end.
        let in_budget = search.evaluations < NEWTON_EVALUATIONS;
        sigma = if in_budget && search.lo < next && next < search.hi {
            next
        } else {
            search.split()
        };
    }
    // Newton did not close the certificate: the computed profile is too
    // noisy at this scale. Bisect the bracket it found.
    let (lo, hi) = (search.lo, search.hi);
    bisect_decreasing(|s| search.profile(s) - delta, lo, hi, lo * TOLERANCE)?;
    Ok(search)
}

/// A calibrated analytic Gaussian mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticGaussian {
    sigma: f64,
    sensitivity: f64,
    budget: Budget,
}

impl AnalyticGaussian {
    /// Calibrates the mechanism for a budget and sensitivity.
    pub fn calibrate(budget: Budget, sensitivity: Sensitivity) -> Result<Self> {
        let sigma = analytic_gaussian_sigma(
            budget.epsilon.value(),
            budget.delta.value(),
            sensitivity.value(),
        )?;
        Ok(AnalyticGaussian {
            sigma,
            sensitivity: sensitivity.value(),
            budget,
        })
    }

    /// The calibrated noise scale.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The per-coordinate noise variance (the expected squared error per
    /// histogram bin, Definition 4).
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    /// The budget this mechanism was calibrated for.
    #[must_use]
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The sensitivity this mechanism was calibrated for.
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// Releases a noisy scalar.
    pub fn release_scalar(&self, true_value: f64, rng: &mut DpRng) -> f64 {
        true_value + rng.gaussian(self.sigma)
    }

    /// Releases a noisy vector (i.i.d. noise per coordinate).
    pub fn release_vector(&self, true_values: &[f64], rng: &mut DpRng) -> Vec<f64> {
        true_values
            .iter()
            .map(|&v| v + rng.gaussian(self.sigma))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::normal::normal_cdf;
    use crate::mechanism::gaussian::ClassicGaussian;

    #[test]
    fn profile_is_monotone_decreasing_in_sigma() {
        let mut prev = f64::INFINITY;
        for i in 1..200 {
            let sigma = i as f64 * 0.1;
            let d = analytic_gaussian_delta(sigma, 1.0, 0.5);
            assert!(d <= prev + 1e-15, "profile not monotone at sigma={sigma}");
            prev = d;
        }
    }

    #[test]
    fn calibrated_sigma_sits_exactly_on_the_profile() {
        for &(eps, delta) in &[
            (0.1, 1e-9),
            (0.5, 1e-9),
            (1.0, 1e-6),
            (3.2, 1e-9),
            (6.4, 1e-12),
        ] {
            let sigma = analytic_gaussian_sigma(eps, delta, 1.0).unwrap();
            let d = analytic_gaussian_delta(sigma, 1.0, eps);
            assert!(d <= delta * (1.0 + 1e-6), "eps={eps}: delta {d} > {delta}");
            // Slightly smaller sigma must violate the profile (tightness).
            let d_tight = analytic_gaussian_delta(sigma * 0.999, 1.0, eps);
            assert!(d_tight > delta, "calibration not tight at eps={eps}");
        }
    }

    #[test]
    fn analytic_is_never_looser_than_classic_for_small_epsilon() {
        for &eps in &[0.1, 0.3, 0.5, 0.8, 1.0] {
            let b = Budget::new(eps, 1e-9).unwrap();
            let analytic = AnalyticGaussian::calibrate(b, Sensitivity::COUNT).unwrap();
            let classic = ClassicGaussian::calibrate(b, Sensitivity::COUNT).unwrap();
            assert!(
                analytic.sigma() <= classic.sigma() * (1.0 + 1e-9),
                "analytic sigma {} > classic {} at eps {eps}",
                analytic.sigma(),
                classic.sigma()
            );
        }
    }

    #[test]
    fn reference_value_balle_wang() {
        // Published reference point: eps=1, delta=1e-5, Delta=1 gives
        // sigma ~ 3.73 with the analytic calibration (vs ~4.84 classic).
        let sigma = analytic_gaussian_sigma(1.0, 1e-5, 1.0).unwrap();
        assert!(
            (3.5..4.0).contains(&sigma),
            "unexpected analytic sigma {sigma}"
        );
        let classic = (2.0 * (1.25f64 / 1e-5).ln()).sqrt();
        assert!(sigma < classic);
    }

    #[test]
    fn sigma_scales_linearly_with_sensitivity() {
        let s1 = analytic_gaussian_sigma(0.7, 1e-9, 1.0).unwrap();
        let s2 = analytic_gaussian_sigma(0.7, 1e-9, 2.0).unwrap();
        assert!((s2 / s1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sigma_decreases_with_epsilon_and_delta() {
        let base = analytic_gaussian_sigma(0.5, 1e-9, 1.0).unwrap();
        assert!(analytic_gaussian_sigma(1.0, 1e-9, 1.0).unwrap() < base);
        assert!(analytic_gaussian_sigma(0.5, 1e-6, 1.0).unwrap() < base);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(analytic_gaussian_sigma(0.0, 1e-9, 1.0).is_err());
        assert!(analytic_gaussian_sigma(1.0, 0.0, 1.0).is_err());
        assert!(analytic_gaussian_sigma(1.0, 1.5, 1.0).is_err());
        assert!(analytic_gaussian_sigma(1.0, 1e-9, 0.0).is_err());
    }

    #[test]
    fn large_epsilon_regime_is_supported() {
        // The classic mechanism is invalid for eps > 1; the analytic one is
        // not. Check that calibration still works and keeps shrinking.
        let s1 = analytic_gaussian_sigma(2.0, 1e-9, 1.0).unwrap();
        let s2 = analytic_gaussian_sigma(6.4, 1e-9, 1.0).unwrap();
        let s3 = analytic_gaussian_sigma(20.0, 1e-9, 1.0).unwrap();
        assert!(s1 > s2 && s2 > s3);
        assert!(s3 > 0.0);
    }

    #[test]
    fn overflowing_e_to_the_epsilon_still_calibrates_tightly() {
        // e^ε overflows from ε ≈ 709.78 on. σ keeps shrinking smoothly there
        // (about like ε^(-1/2), never faster than ε^(-1)) and stays tight,
        // instead of collapsing to almost no noise.
        let delta = 1e-9;
        let mut previous: Option<(f64, f64)> = None;
        for epsilon in [700.0, 709.0, 709.78, 710.0, 800.0, 5000.0] {
            let sigma = analytic_gaussian_sigma(epsilon, delta, 1.0).unwrap();
            assert!(sigma > 0.0, "eps={epsilon}");
            assert!(analytic_gaussian_delta(sigma, 1.0, epsilon) <= delta);
            assert!(
                analytic_gaussian_delta(sigma * (1.0 - 1e-9), 1.0, epsilon) > delta,
                "not tight at eps={epsilon}: sigma {sigma}"
            );
            if let Some((previous_epsilon, previous_sigma)) = previous {
                assert!(
                    sigma <= previous_sigma && sigma >= previous_sigma * previous_epsilon / epsilon,
                    "sigma {previous_sigma} at eps={previous_epsilon}, {sigma} at eps={epsilon}"
                );
            }
            previous = Some((epsilon, sigma));
        }
    }

    #[test]
    fn the_overflow_tail_agrees_with_the_direct_one() {
        // Below the overflow both forms of e^ε·Phi(−a−b) are computable.
        for epsilon in [10.0, 100.0, 500.0, 700.0] {
            let sigma = analytic_gaussian_sigma(epsilon, 1e-9, 1.0).unwrap();
            let (a, b) = (1.0 / (2.0 * sigma), epsilon * sigma);
            let direct = epsilon.exp() * normal_cdf(-a - b);
            let overflowed = log_space_tail(a, b);
            assert!(
                ((overflowed - direct) / direct).abs() < 1e-10,
                "eps={epsilon}: {overflowed} vs {direct}"
            );
        }
    }

    // ----- differential battery: Newton search vs the bisection it replaced -----

    /// The calibration as it was before the Newton search: expand an upper
    /// bracket from the classic bound, then bisect `[hi·1e-12, hi]` down to
    /// `hi·1e-12`. The battery's oracle.
    fn bisection_sigma(epsilon: f64, delta: f64, sensitivity: f64) -> f64 {
        let mut hi = sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        if !hi.is_finite() || hi <= 0.0 {
            hi = sensitivity;
        }
        while analytic_gaussian_delta(hi, sensitivity, epsilon) > delta {
            hi *= 2.0;
        }
        let lo = (hi * 1e-12).max(1e-300);
        bisect_decreasing(
            |s| analytic_gaussian_delta(s, sensitivity, epsilon) - delta,
            lo,
            hi,
            hi * 1e-12,
        )
        .unwrap()
    }

    /// Margin, relative to `Phi(a − b)`, by which the oracle's profile must
    /// clear δ on each side of `old·(1 ± 4e-12)` for a crossing to count as
    /// well conditioned. It sits below the rounding the translation's guard
    /// band allows (`1e-9·Phi(a − b)`), so the agreement it gates is
    /// measured, not proven: it holds in every seeded case.
    const ROUNDING_ALLOWANCE: f64 = 2e-11;

    #[test]
    fn differential_newton_is_certified_and_agrees_with_the_bisection_oracle() {
        const SENSITIVITIES: [f64; 3] = [1.0, std::f64::consts::SQRT_2, 10.0];
        let mut rng = DpRng::seed_from_u64(0x5eed_0003);
        let mut well_conditioned = Vec::new();
        for _ in 0..crate::battery_cases() {
            let epsilon = 10f64.powf(rng.uniform_range(-6.0, 6.0));
            let delta = 10f64.powf(rng.uniform_range(-13.0, -5.0));
            let sensitivity = SENSITIVITIES[rng.uniform_usize(0, 3)];
            let context = format!("eps={epsilon:e} delta={delta:e} sens={sensitivity}");
            let profile = |sigma| {
                let (head, tail) = profile_terms(sigma, sensitivity, epsilon);
                head - tail
            };

            // The certificate, as the search returned it.
            let search = calibrate(epsilon, delta, sensitivity).unwrap();
            let sigma = search.hi;
            assert!(profile(sigma) <= delta, "P(sigma) > delta: {context}");
            assert!(
                profile(search.lo) > delta,
                "P(sigma_lo) <= delta: {context}"
            );
            assert!(
                search.lo < sigma && search.lo >= sigma * (1.0 - TOLERANCE),
                "bracket [{}, {sigma}] too wide: {context}",
                search.lo
            );

            let old = bisection_sigma(epsilon, delta, sensitivity);
            let (old_head, _) = profile_terms(old, sensitivity, epsilon);
            let allowance = ROUNDING_ALLOWANCE * old_head;
            if profile(old * (1.0 - 4e-12)) > delta + allowance
                && profile(old * (1.0 + 4e-12)) < delta - allowance
            {
                // The oracle's profile crosses delta decisively inside
                // old·(1 ± 4e-12): both searches must find that crossing.
                assert!(
                    (sigma / old - 1.0).abs() <= 4e-12,
                    "sigma {sigma} vs oracle {old}: {context}"
                );
                well_conditioned.push(search.evaluations);
            } else {
                // Rounding blurs the crossing: sigma may sit anywhere the
                // translation's guard band already covers.
                let (head, _) = profile_terms(sigma, sensitivity, epsilon);
                assert!(
                    delta - profile(sigma) <= 1e-6 * delta + 1e-9 * head,
                    "sigma {sigma} looser than the guard band (oracle {old}): {context}"
                );
            }
        }

        // The evaluation budget where the profile is well conditioned.
        well_conditioned.sort_unstable();
        let median = well_conditioned[well_conditioned.len() / 2];
        let max = *well_conditioned.last().unwrap();
        assert!(
            median <= 7 && max <= 60,
            "evaluations over {} well-conditioned cases: median {median}, max {max}",
            well_conditioned.len()
        );
    }

    #[test]
    fn profile_terms_have_the_bits_of_two_normal_cdf_calls() {
        // Wherever the tail is not taken in log space, both terms are the
        // `normal_cdf` values the profile was defined with, bit for bit:
        // near the calibrated σ (both arguments on the continued fraction)
        // and over a broad range (every branch of erfc).
        let mut rng = DpRng::seed_from_u64(0x5eed_0005);
        for case in 0..4_000 {
            let epsilon = 10f64.powf(rng.uniform_range(-6.0, 2.7));
            let delta = 10f64.powf(rng.uniform_range(-13.0, -5.0));
            let sensitivity = [1.0, std::f64::consts::SQRT_2, 10.0][rng.uniform_usize(0, 3)];
            let sigma = if case % 2 == 0 {
                analytic_gaussian_sigma(epsilon, delta, sensitivity).unwrap()
                    * rng.uniform_range(0.5, 2.0)
            } else {
                10f64.powf(rng.uniform_range(-3.0, 6.0))
            };
            let (a, b) = (sensitivity / (2.0 * sigma), epsilon * sigma / sensitivity);
            let lower = normal_cdf(-a - b);
            if lower < f64::MIN_POSITIVE {
                continue;
            }
            let (head, tail) = profile_terms(sigma, sensitivity, epsilon);
            let context = format!("sigma={sigma:e} sens={sensitivity} eps={epsilon:e}");
            assert_eq!(head.to_bits(), normal_cdf(a - b).to_bits(), "{context}");
            assert_eq!(
                tail.to_bits(),
                (epsilon.exp() * lower).to_bits(),
                "{context}"
            );
        }
    }

    #[test]
    fn a_subnormal_tail_keeps_the_profile_crossing_delta_once() {
        // e^ε is still finite here, but Phi(−a − b) is subnormal near the
        // root. Scaling it by e^ε made the computed profile cross δ twice,
        // and Newton and the bisection oracle found different crossings
        // (σ 0.31983975424913214 against 0.3198397542434266).
        let (epsilon, delta, sensitivity) = (6.996650895641129e2, 6.255418021043496e-12, 10.0);
        let sigma = analytic_gaussian_sigma(epsilon, delta, sensitivity).unwrap();
        let old = bisection_sigma(epsilon, delta, sensitivity);
        assert!(
            (sigma / old - 1.0).abs() <= 4e-12,
            "sigma {sigma} vs oracle {old}"
        );
        let crossings = (0..=2000)
            .map(|i| {
                let s = sigma * (0.999 + 1e-6 * f64::from(i));
                analytic_gaussian_delta(s, sensitivity, epsilon) <= delta
            })
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|pair| pair[0] != pair[1])
            .count();
        assert_eq!(crossings, 1, "the profile crosses delta {crossings} times");
    }

    #[test]
    fn release_is_deterministic_under_seed() {
        let b = Budget::new(1.0, 1e-9).unwrap();
        let m = AnalyticGaussian::calibrate(b, Sensitivity::COUNT).unwrap();
        let mut r1 = DpRng::seed_from_u64(99);
        let mut r2 = DpRng::seed_from_u64(99);
        assert_eq!(
            m.release_scalar(10.0, &mut r1),
            m.release_scalar(10.0, &mut r2)
        );
    }
}
