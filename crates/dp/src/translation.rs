//! Accuracy→privacy translation (Definition 9, Eq. (3)).
//!
//! DProvDB's accuracy-oriented submission mode lets analysts attach an
//! expected-squared-error bound to a query instead of a budget. The
//! translation module turns that bound into the *minimum* epsilon that
//! achieves it under the analytic Gaussian mechanism:
//!
//! * [`translate_variance_to_epsilon`] — the vanilla translation
//!   (Definition 9): binary-search the smallest ε whose calibrated variance
//!   is below the target.
//! * [`FrictionAwareTranslation`] — the additive-Gaussian translation
//!   (Algorithm 4, lines 12–16): when a global synopsis with error `v'`
//!   already exists and the analyst asks for error `v_i < v'`, a fresh delta
//!   synopsis will be *combined* with the old one (Eq. (2)); the translation
//!   takes the fresh synopsis's largest allowed variance
//!   `v_t(w) = (v_i − w²·v′) / (1 − w)²` over the combination weight
//!   `w ∈ [0, 1)` — in closed form, `v_t = v_i·v′ / (v′ − v_i)` at
//!   `w* = v_i / v′` — before translating `v_t` into an epsilon, so the
//!   least possible additional budget is spent.
//!
//! # Probing the profile instead of a calibration
//!
//! Definition 9 asks, at each probed ε, whether the calibrated noise scale
//! `σ*(ε)` — the smallest σ whose privacy profile `P(σ; ε)` is at most δ —
//! satisfies `σ*(ε)² ≤ v`. Computing `σ*(ε)` is itself a Newton search of
//! 5–7 profile evaluations when the profile is well conditioned, and up to
//! a few dozen where rounding blurs it. The profile is strictly decreasing
//! in σ, so
//!
//! ```text
//! σ*(ε) ≤ √v   ⇔   P(√v; ε) ≤ δ
//! ```
//!
//! and the search decides each probe from the right-hand side: one profile
//! evaluation, the same ε grid, and one full calibration at the end for the
//! ε it returns. It is the one search in production, for scalar requests
//! and GROUP BY cells alike.
//!
//! **Guard band.** The two sides are equivalent for the exact profile; the
//! calibration and the probe see a *computed* profile, and can disagree
//! only where `√v` falls inside the calibration's certified bracket
//! `[σ_lo, σ*]`: `P(σ*) ≤ δ < P(σ_lo)` with `σ_lo ≥ σ*·(1 − 1e-12)`,
//! whether Newton or its bisection fallback closed it. The profile's
//! log-derivative `|∂ln P/∂ln σ| = (Δ/σ)·φ(a−b)/P` stays below a few
//! thousand over the probed range, so inside it `P(√v; ε)` is within about
//! `1e-8·δ` of δ. Rounding adds up to a few `1e-11` of the leading term
//! `Phi(a − b)` (the Maclaurin branch of `erfc` near its cutoff is the
//! worst case) — many times δ itself when ε is tiny and the two terms
//! cancel to one part in `b²/ε`. A probe with
//! `|P − δ| ≤ 1e-6·δ + 1e-9·Phi(a − b)` is therefore decided by the full
//! calibration, exactly as the nested search decides it; outside the band
//! both predicates are on the same side, so the returned ε has the same
//! bits. Over 146 000 probes crafted to disagree, the widest gap used
//! 2.8 % of the band.
//!
//! # A Newton bracket, then the bisection replayed
//!
//! `monotone_binary_search` would spend about 20 probes walking its
//! midpoints down to the precision `p`. The search finds the root ε* of
//! `P(√v; ε) = δ` first, by a safeguarded Newton iteration on
//! `ln P(√v; ε) = ln δ`. The slope is closed form, `∂P/∂ε = −e^ε·Phi(−a−b)`
//! (the `φ` terms cancel because `e^ε·φ(−a−b) = φ(a−b)`), which is minus
//! the tail term the probe computes anyway.
//!
//! * Newton starts where the profile's first term alone reaches δ, an
//!   upper bound on ε*, and stays inside `[lo, ψ]`.
//! * Every Newton point is decided by the **real** predicate (the probe,
//!   its guard band, the calibration fallback). The decisions keep a
//!   bracket: the largest ε decided false and the smallest decided true.
//! * A step that is not finite or does not land strictly inside the
//!   bracket is the bracket's midpoint instead. That covers every probe
//!   above `PROFILE_PROBE_MAX_EPSILON`, which has no profile to step from
//!   and keeps its full calibration.
//! * Each step is pushed across the root by `p/16`, or further when that
//!   would land in the guard band. Once Newton has converged, the next
//!   point lands just across the root and closes the bracket to a few
//!   pushes.
//!
//! Then the *unchanged* `monotone_binary_search` runs over `[lo, ψ]`, with
//! a predicate that answers false at or below the bracket's false end,
//! true at or above its true end, and evaluates (and tightens the bracket)
//! only strictly inside it. It never decides from an interpolated `P`, only
//! from evaluated outcomes. So, for a monotone predicate (the assumption
//! the bisection itself makes), every answer is the one the bisection would
//! have computed, and the midpoint sequence, the 200-step cap and the
//! returned grid point are the bisection's. The differential battery checks
//! the bits against the bisection (`translate_variance_to_epsilon_bisection`)
//! and against the nested search (`translate_variance_to_epsilon_nested`),
//! both `#[cfg(test)]` oracles.
//!
//! Over the battery's random answered cases, the search takes a median of
//! 5 predicate evaluations where the bisection takes about 20. Those above
//! `PROFILE_PROBE_MAX_EPSILON` take 25–42, about as many full calibrations
//! as the bisection. The guard band is hit about as often as before (1 820
//! times in 50 000 random cases, against the bisection's 1 668).

use crate::budget::{Budget, Delta, Epsilon};
use crate::math::optimize::monotone_binary_search;
use crate::mechanism::analytic_gaussian::{
    analytic_gaussian_sigma, profile_terms, AnalyticGaussian,
};
use crate::sensitivity::Sensitivity;
use crate::{DpError, Result};

/// Default search precision `p` on epsilon (Proposition 5.1 guarantees the
/// returned epsilon is within `p` of the true minimum).
pub const DEFAULT_EPSILON_PRECISION: f64 = 1e-4;

/// Half-width of the guard band around δ, relative to δ. Covers the inner
/// calibration's own tolerance with two orders of magnitude to spare.
const GUARD_RELATIVE: f64 = 1e-6;

/// Half-width of the guard band relative to the profile's leading term
/// `Phi(a − b)`: the rounding error of the difference of the two terms.
const GUARD_ROUNDING: f64 = 1e-9;

/// Largest ε probed through the profile. Up to here `e^ε` times the
/// smallest subnormal is below 1e-100, so an underflowing tail term cannot
/// move the profile; beyond it (`e^ε` overflows at ε ≈ 709.8) every probe
/// is calibrated in full.
const PROFILE_PROBE_MAX_EPSILON: f64 = 500.0;

/// Predicate evaluations Newton may spend on the bracket before the replay
/// takes over.
const NEWTON_EVALUATIONS: usize = 8;

/// How far each Newton step is pushed across the root, relative to the
/// search precision: once Newton has converged, the next point lands just
/// across the root and closes the bracket.
const NEWTON_CROSSING: f64 = 1.0 / 16.0;

/// The least push, in guard-band half-widths of the profile: a point
/// pushed less far may land in the band and cost a full calibration.
const GUARD_CLEARANCE: f64 = 2.0;

/// Bracket width, in pushes, at which Newton hands over to the replay:
/// with the default push it is half the precision, and the bisection's
/// last midpoints are at least that far apart.
const BRACKET_PUSHES: f64 = 8.0;

/// The outcome of an accuracy→privacy translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Translation {
    /// The translated minimal epsilon.
    pub epsilon: Epsilon,
    /// The delta the translation was performed at.
    pub(crate) delta: Delta,
    /// The per-bin noise variance the calibrated mechanism will actually
    /// achieve (always `<=` the requested bound).
    pub achieved_variance: f64,
    /// The per-bin variance bound the search used (after friction
    /// adjustment, if any).
    pub(crate) target_variance: f64,
    /// The combination weight chosen by the friction-aware translation
    /// (`0.0` for the vanilla translation).
    pub combination_weight: f64,
    /// The mechanism calibrated at `(epsilon, delta)` — the search's one
    /// full calibration. A release at the translated epsilon uses it as is
    /// instead of calibrating the same epsilon again.
    pub mechanism: AnalyticGaussian,
}

/// Definition 9: the minimal epsilon (up to precision `precision`) such that
/// the analytic Gaussian mechanism at `(epsilon, delta)` with the given
/// sensitivity has per-coordinate variance at most `target_variance`.
///
/// `max_epsilon` bounds the search (the paper uses the table constraint
/// `psi_P`); if even `max_epsilon` cannot reach the accuracy target — or it
/// lies below the search floor `min(precision / 100, 1e-6)` — the
/// translation fails with [`DpError::TranslationOutOfRange`].
pub fn translate_variance_to_epsilon(
    target_variance: f64,
    delta: Delta,
    sensitivity: Sensitivity,
    max_epsilon: Epsilon,
    precision: f64,
) -> Result<Translation> {
    let mut probes = EpsilonSearch::new(target_variance, delta.value(), sensitivity.value());
    search(
        target_variance,
        delta,
        sensitivity,
        max_epsilon,
        precision,
        |lo, hi| probes.find(lo, hi, precision),
    )
}

/// One probe of the profile at noise scale `root = √v`.
struct Probe {
    /// `Some(P(√v; ε) ≤ δ)` when the profile is decisive, `None` inside
    /// the guard band (see the module docs) or above
    /// [`PROFILE_PROBE_MAX_EPSILON`], where the full calibration decides.
    reaches: Option<bool>,
    /// `P(√v; ε)`; NaN above [`PROFILE_PROBE_MAX_EPSILON`], as are the
    /// other two.
    profile: f64,
    /// `−∂P/∂ε = e^ε·Phi(−a − b)`, the profile's tail term.
    slope: f64,
    /// The guard band's half-width around δ.
    band: f64,
}

fn profile_probe(root: f64, delta: f64, sensitivity: f64, epsilon: f64) -> Probe {
    if epsilon > PROFILE_PROBE_MAX_EPSILON {
        return Probe {
            reaches: None,
            profile: f64::NAN,
            slope: f64::NAN,
            band: f64::NAN,
        };
    }
    let (head, tail) = profile_terms(root, sensitivity, epsilon);
    let profile = (head - tail).max(0.0);
    let band = GUARD_RELATIVE * delta + GUARD_ROUNDING * head;
    Probe {
        reaches: ((profile - delta).abs() > band).then_some(profile <= delta),
        profile,
        slope: tail,
        band,
    }
}

/// The nested search's predicate: calibrate `σ*(ε)` in full and compare
/// variances. The profile search only runs it for a probe inside the guard
/// band.
fn calibration_reaches(target_variance: f64, delta: f64, sensitivity: f64, epsilon: f64) -> bool {
    analytic_gaussian_sigma(epsilon, delta, sensitivity)
        .is_ok_and(|sigma| sigma * sigma <= target_variance)
}

/// The outer search over ε: the predicate `σ*(ε)² ≤ v`, decided by
/// [`profile_probe`] and, inside its guard band, by
/// [`calibration_reaches`]; and the bracket every evaluated decision
/// tightens.
struct EpsilonSearch {
    target_variance: f64,
    root: f64,
    delta: f64,
    ln_delta: f64,
    sensitivity: f64,
    /// The largest evaluated ε decided false; −∞ before there is one.
    false_at: f64,
    /// The smallest evaluated ε decided true; ∞ before there is one.
    true_at: f64,
    /// Predicate evaluations spent.
    evaluations: usize,
}

impl EpsilonSearch {
    fn new(target_variance: f64, delta: f64, sensitivity: f64) -> Self {
        EpsilonSearch {
            target_variance,
            root: target_variance.sqrt(),
            delta,
            ln_delta: delta.ln(),
            sensitivity,
            false_at: f64::NEG_INFINITY,
            true_at: f64::INFINITY,
            evaluations: 0,
        }
    }

    /// Evaluates the predicate at `epsilon` and tightens the bracket.
    fn evaluate(&mut self, epsilon: f64) -> (bool, Probe) {
        self.evaluations += 1;
        let probe = profile_probe(self.root, self.delta, self.sensitivity, epsilon);
        let reaches = probe.reaches.unwrap_or_else(|| {
            calibration_reaches(self.target_variance, self.delta, self.sensitivity, epsilon)
        });
        if reaches {
            self.true_at = self.true_at.min(epsilon);
        } else {
            self.false_at = self.false_at.max(epsilon);
        }
        (reaches, probe)
    }

    /// The bisection's predicate during the replay: answered from the
    /// bracket outside it, evaluated only strictly inside it.
    fn reaches(&mut self, epsilon: f64) -> bool {
        if epsilon <= self.false_at {
            false
        } else if epsilon >= self.true_at {
            true
        } else {
            self.evaluate(epsilon).0
        }
    }

    /// The smallest ε on `monotone_binary_search`'s grid over `[lo, hi]`
    /// with the predicate true, or `None` when it is false at `hi`: a
    /// Newton bracket around the root, then the unchanged bisection,
    /// replayed through [`EpsilonSearch::reaches`].
    fn find(&mut self, lo: f64, hi: f64, precision: f64) -> Option<f64> {
        self.bracket(lo, hi, precision);
        monotone_binary_search(|epsilon| self.reaches(epsilon), lo, hi, precision)
    }

    /// Newton's iteration on `ln P(√v; ε) = ln δ` inside `[lo, hi]`,
    /// safeguarded by the bracket: a step that is not finite or does not
    /// land strictly inside the bracket is the bracket's midpoint instead. Each step is
    /// pushed across the root, so that once Newton has converged the next
    /// point closes the bracket. Stops once the bracket is at most
    /// [`BRACKET_PUSHES`] pushes wide, once `hi` is decided false or `lo`
    /// true, or after [`NEWTON_EVALUATIONS`].
    fn bracket(&mut self, lo: f64, hi: f64, precision: f64) {
        // Start where the profile's first term alone reaches δ (the
        // calibration's upper bound, read for ε): `b − a = z` with the
        // classic `z = √(2 ln(1.25/δ))`, at or above `Phi⁻¹(1 − δ)`.
        let a = self.sensitivity / (2.0 * self.root);
        let z = (2.0 * (1.25 / self.delta).ln()).sqrt();
        let mut epsilon = ((z + a) * self.sensitivity / self.root).clamp(lo, hi);
        for _ in 0..NEWTON_EVALUATIONS {
            if !(self.false_at < epsilon && epsilon < self.true_at) {
                epsilon = 0.5 * (self.false_at.max(lo) + self.true_at.min(hi));
            }
            let (reaches, probe) = self.evaluate(epsilon);
            // The push also clears the guard band, where a probe costs a
            // full calibration: the profile moves by `slope · push`.
            let push =
                (NEWTON_CROSSING * precision).max(GUARD_CLEARANCE * probe.band / probe.slope);
            let decided = self.false_at >= hi || self.true_at <= lo;
            if decided || self.true_at - self.false_at <= BRACKET_PUSHES * push {
                return;
            }
            // ln P − ln δ over the slope ∂ln P/∂ε = −(e^ε·Phi(−a − b))/P.
            let step = (probe.profile.ln() - self.ln_delta) * probe.profile / probe.slope;
            let push = if reaches { -push } else { push };
            epsilon = (epsilon + step + push).clamp(lo, hi);
        }
    }
}

/// Validation, the outer ε search `find(lo, hi)` and the final
/// calibration — everything the production search and its test oracles
/// share; they differ in `find` alone.
fn search(
    target_variance: f64,
    delta: Delta,
    sensitivity: Sensitivity,
    max_epsilon: Epsilon,
    precision: f64,
    find: impl FnOnce(f64, f64) -> Option<f64>,
) -> Result<Translation> {
    if !(target_variance.is_finite() && target_variance > 0.0) {
        return Err(DpError::InvalidVariance(target_variance));
    }
    if !(precision.is_finite() && precision > 0.0) {
        return Err(DpError::InvalidPrecision(precision));
    }
    let max_eps = max_epsilon.value();
    let out_of_range = DpError::TranslationOutOfRange {
        requested_variance: target_variance,
        max_epsilon: max_eps,
    };
    // A ceiling below the search floor leaves no ε to probe, and δ = 0
    // (pure DP) has no Gaussian calibration at any ε.
    let lo = (precision / 100.0).min(1e-6);
    if max_eps < lo || delta.value() <= 0.0 {
        return Err(out_of_range);
    }
    let eps = find(lo, max_eps).ok_or(out_of_range)?;
    let mechanism =
        AnalyticGaussian::calibrate(Budget::from_parts(Epsilon::new(eps)?, delta), sensitivity)?;
    Ok(Translation {
        epsilon: mechanism.budget().epsilon,
        delta,
        achieved_variance: mechanism.variance(),
        target_variance,
        combination_weight: 0.0,
        mechanism,
    })
}

/// Translates a query-level accuracy bound into a per-bin bound.
///
/// A linear query that sums `bins_touched` histogram bins with unit
/// coefficients has error variance `bins_touched * v_bin`, so the per-bin
/// bound is the query bound divided by the number of touched bins
/// (Algorithm 2, line 9 — `calculateVariance`).
#[cfg(test)]
#[must_use]
pub(crate) fn per_bin_variance(query_variance_bound: f64, bins_touched: usize) -> f64 {
    debug_assert!(query_variance_bound > 0.0);
    query_variance_bound / bins_touched.max(1) as f64
}

/// The friction-aware translation used by the additive Gaussian approach.
#[derive(Debug, Clone, Copy)]
pub struct FrictionAwareTranslation {
    /// Delta used for every calibration in the system.
    pub(crate) delta: Delta,
    /// Sensitivity of the view being updated.
    pub(crate) sensitivity: Sensitivity,
    /// Search precision on epsilon.
    pub(crate) precision: f64,
}

impl FrictionAwareTranslation {
    /// Creates a translator searching epsilon to `precision`.
    #[must_use]
    pub fn new(delta: Delta, sensitivity: Sensitivity, precision: f64) -> Self {
        FrictionAwareTranslation {
            delta,
            sensitivity,
            precision,
        }
    }

    /// Algorithm 4, `privacyTranslate`: given the current global synopsis
    /// per-bin variance `current_variance` (`None` when no synopsis exists
    /// yet) and the requested per-bin variance `target_variance`, returns
    /// the minimal epsilon for the *fresh* synopsis.
    pub fn translate(
        &self,
        target_variance: f64,
        current_variance: Option<f64>,
        max_epsilon: Epsilon,
    ) -> Result<Translation> {
        if !(target_variance.is_finite() && target_variance > 0.0) {
            return Err(DpError::InvalidVariance(target_variance));
        }

        // No synopsis yet, or one already accurate enough (the system
        // answers from it without translating): no friction, w = 0 — the
        // optimisation's solution when v_i ≥ v' per the paper.
        let (fresh_variance, weight) = match current_variance.filter(|&v| v > target_variance) {
            None => (target_variance, 0.0),
            Some(v_prime) => {
                // v_t(w) = (v_i − w² v′) / (1 − w)² on w ∈ [0, 1) has
                // v_t′(w) ∝ v_i − w v′: its maximum is at w* = v_i / v′
                // (< 1 since v_i < v′), where v_t = v_i v′ / (v′ − v_i).
                let v_t = target_variance * v_prime / (v_prime - target_variance);
                if !v_t.is_finite() || v_t <= 0.0 {
                    (target_variance, 0.0)
                } else {
                    (v_t, target_variance / v_prime)
                }
            }
        };

        let mut t = translate_variance_to_epsilon(
            fresh_variance,
            self.delta,
            self.sensitivity,
            max_epsilon,
            self.precision,
        )?;
        t.combination_weight = weight;
        t.target_variance = fresh_variance;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta() -> Delta {
        Delta::new(1e-9).unwrap()
    }

    #[test]
    fn translated_epsilon_meets_the_accuracy_requirement() {
        for &target in &[1.0, 10.0, 100.0, 10_000.0] {
            let t = translate_variance_to_epsilon(
                target,
                delta(),
                Sensitivity::COUNT,
                Epsilon::new(50.0).unwrap(),
                1e-5,
            )
            .unwrap();
            assert!(
                t.achieved_variance <= target * (1.0 + 1e-9),
                "target {target}: achieved {}",
                t.achieved_variance
            );
        }
    }

    #[test]
    fn translated_epsilon_is_nearly_minimal() {
        let target = 50.0;
        let precision = 1e-5;
        let t = translate_variance_to_epsilon(
            target,
            delta(),
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
            precision,
        )
        .unwrap();
        // An epsilon smaller by more than the precision must violate the
        // accuracy requirement (Proposition 5.1 ii).
        let smaller = t.epsilon.value() - 2.0 * precision;
        let sigma = analytic_gaussian_sigma(smaller, 1e-9, 1.0).unwrap();
        assert!(sigma * sigma > target);
    }

    #[test]
    fn tighter_accuracy_needs_more_budget() {
        let loose = translate_variance_to_epsilon(
            1000.0,
            delta(),
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
            1e-5,
        )
        .unwrap();
        let tight = translate_variance_to_epsilon(
            1.0,
            delta(),
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
            1e-5,
        )
        .unwrap();
        assert!(tight.epsilon.value() > loose.epsilon.value());
    }

    #[test]
    fn out_of_range_accuracy_is_rejected() {
        // Essentially noiseless answers cannot be bought with eps <= 0.01.
        let err = translate_variance_to_epsilon(
            1e-6,
            delta(),
            Sensitivity::COUNT,
            Epsilon::new(0.01).unwrap(),
            1e-5,
        );
        assert!(matches!(err, Err(DpError::TranslationOutOfRange { .. })));
    }

    #[test]
    fn per_bin_variance_divides_by_touched_bins() {
        assert_eq!(per_bin_variance(100.0, 4), 25.0);
        assert_eq!(per_bin_variance(100.0, 0), 100.0);
    }

    #[test]
    fn bigger_delta_translates_to_smaller_epsilon() {
        // Fig. 8's explanation: for the same accuracy a larger delta needs
        // a smaller epsilon.
        let small_delta = translate_variance_to_epsilon(
            10.0,
            Delta::new(1e-13).unwrap(),
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
            1e-6,
        )
        .unwrap();
        let big_delta = translate_variance_to_epsilon(
            10.0,
            Delta::new(1e-9).unwrap(),
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
            1e-6,
        )
        .unwrap();
        assert!(big_delta.epsilon.value() < small_delta.epsilon.value());
    }

    #[test]
    fn friction_aware_degrades_to_vanilla_without_existing_synopsis() {
        let tr =
            FrictionAwareTranslation::new(delta(), Sensitivity::COUNT, DEFAULT_EPSILON_PRECISION);
        let with_none = tr
            .translate(10.0, None, Epsilon::new(50.0).unwrap())
            .unwrap();
        let vanilla = translate_variance_to_epsilon(
            10.0,
            delta(),
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
            DEFAULT_EPSILON_PRECISION,
        )
        .unwrap();
        assert!((with_none.epsilon.value() - vanilla.epsilon.value()).abs() < 1e-9);
        assert_eq!(with_none.combination_weight, 0.0);
    }

    #[test]
    fn friction_aware_spends_less_than_vanilla_when_a_synopsis_exists() {
        // Existing synopsis with per-bin variance 20, request 10: combining
        // lets the fresh synopsis be noisier than 10, hence cheaper than the
        // vanilla translation for 10.
        let tr =
            FrictionAwareTranslation::new(delta(), Sensitivity::COUNT, DEFAULT_EPSILON_PRECISION);
        let friction = tr
            .translate(10.0, Some(20.0), Epsilon::new(50.0).unwrap())
            .unwrap();
        let vanilla = tr
            .translate(10.0, None, Epsilon::new(50.0).unwrap())
            .unwrap();
        assert!(
            friction.epsilon.value() < vanilla.epsilon.value(),
            "friction-aware {} should be below vanilla {}",
            friction.epsilon.value(),
            vanilla.epsilon.value()
        );
        assert!(friction.combination_weight > 0.0);
        assert!(friction.target_variance > 10.0);
    }

    #[test]
    fn friction_aware_combined_variance_meets_requirement() {
        // Check Eq. (3): combining the old synopsis (v') and the fresh one
        // (v_t) with weight w yields variance w^2 v' + (1-w)^2 v_t <= v_i.
        let tr =
            FrictionAwareTranslation::new(delta(), Sensitivity::COUNT, DEFAULT_EPSILON_PRECISION);
        let v_prime = 40.0;
        let v_i = 15.0;
        let t = tr
            .translate(v_i, Some(v_prime), Epsilon::new(50.0).unwrap())
            .unwrap();
        let w = t.combination_weight;
        let combined = w * w * v_prime + (1.0 - w) * (1.0 - w) * t.achieved_variance;
        assert!(
            combined <= v_i * (1.0 + 1e-6),
            "combined variance {combined} exceeds requirement {v_i}"
        );
    }

    #[test]
    fn friction_aware_with_existing_better_synopsis_degrades_gracefully() {
        let tr =
            FrictionAwareTranslation::new(delta(), Sensitivity::COUNT, DEFAULT_EPSILON_PRECISION);
        // Existing synopsis better (5.0) than the request (10.0): w = 0 path.
        let t = tr
            .translate(10.0, Some(5.0), Epsilon::new(50.0).unwrap())
            .unwrap();
        assert_eq!(t.combination_weight, 0.0);
    }

    #[test]
    fn translated_mechanism_is_the_calibration_at_the_translated_epsilon() {
        let t = translate_variance_to_epsilon(
            25.0,
            delta(),
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
            DEFAULT_EPSILON_PRECISION,
        )
        .unwrap();
        let budget = Budget::from_parts(t.epsilon, delta());
        assert_eq!(
            t.mechanism,
            AnalyticGaussian::calibrate(budget, Sensitivity::COUNT).unwrap()
        );
        assert_eq!(t.achieved_variance, t.mechanism.variance());
        assert!(t.achieved_variance <= 25.0 * (1.0 + 1e-9));
    }

    #[test]
    fn a_ceiling_below_the_search_floor_is_out_of_range_not_a_panic() {
        // Floor = min(precision / 100, 1e-6); 5e-7 lies below it.
        let err = translate_variance_to_epsilon(
            100.0,
            delta(),
            Sensitivity::COUNT,
            Epsilon::new(5e-7).unwrap(),
            DEFAULT_EPSILON_PRECISION,
        );
        assert_eq!(
            err,
            Err(DpError::TranslationOutOfRange {
                requested_variance: 100.0,
                max_epsilon: 5e-7,
            })
        );
    }

    #[test]
    fn a_non_positive_or_nan_precision_is_an_error_not_a_panic() {
        for precision in [0.0, -1e-4, f64::NAN, f64::INFINITY] {
            let err = translate_variance_to_epsilon(
                100.0,
                delta(),
                Sensitivity::COUNT,
                Epsilon::new(50.0).unwrap(),
                precision,
            );
            assert!(
                matches!(err, Err(DpError::InvalidPrecision(_))),
                "precision {precision}: {err:?}"
            );
        }
    }

    #[test]
    fn pure_dp_has_no_gaussian_translation() {
        let err = translate_variance_to_epsilon(
            100.0,
            Delta::ZERO,
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
            DEFAULT_EPSILON_PRECISION,
        );
        assert!(matches!(err, Err(DpError::TranslationOutOfRange { .. })));
    }

    #[test]
    fn friction_aware_search_honours_its_precision() {
        // A coarse and a fine search over the same inputs stop at different
        // grid points, each within its own precision of the fine answer.
        let max = Epsilon::new(50.0).unwrap();
        let at = |precision: f64| {
            FrictionAwareTranslation::new(delta(), Sensitivity::COUNT, precision)
                .translate(10.0, Some(20.0), max)
                .unwrap()
                .epsilon
                .value()
        };
        let (coarse, fine) = (at(1e-2), at(1e-6));
        assert_ne!(coarse, fine);
        assert!(coarse >= fine && coarse - fine <= 1e-2);
    }

    // ----- differential battery: Newton-seeded replay vs two oracles -----

    /// Definition 9 read literally — every probe calibrates `σ*(ε)` in full
    /// (5–7 profile evaluations when well conditioned) and compares variances:
    /// the translation as it was before the search probed the profile, and
    /// equal to production bit for bit, value or error. One of the
    /// differential battery's two oracles and nothing else.
    fn translate_variance_to_epsilon_nested(
        target_variance: f64,
        delta: Delta,
        sensitivity: Sensitivity,
        max_epsilon: Epsilon,
        precision: f64,
    ) -> Result<Translation> {
        let reaches =
            |eps| calibration_reaches(target_variance, delta.value(), sensitivity.value(), eps);
        search(
            target_variance,
            delta,
            sensitivity,
            max_epsilon,
            precision,
            |lo, hi| monotone_binary_search(reaches, lo, hi, precision),
        )
    }

    /// The profile search as it was before the Newton bracket: the same
    /// predicate, evaluated at every midpoint the bisection visits (about
    /// 20 evaluations). The battery's second oracle: production replays
    /// exactly this bisection, so it must return the same bits.
    fn translate_variance_to_epsilon_bisection(
        target_variance: f64,
        delta: Delta,
        sensitivity: Sensitivity,
        max_epsilon: Epsilon,
        precision: f64,
    ) -> Result<Translation> {
        let (d, sens, root) = (delta.value(), sensitivity.value(), target_variance.sqrt());
        let reaches = |eps| {
            profile_probe(root, d, sens, eps)
                .reaches
                .unwrap_or_else(|| calibration_reaches(target_variance, d, sens, eps))
        };
        search(
            target_variance,
            delta,
            sensitivity,
            max_epsilon,
            precision,
            |lo, hi| monotone_binary_search(reaches, lo, hi, precision),
        )
    }

    /// Seeded cases per arm of the profile-search battery: its two arms
    /// share [`crate::battery_cases`]. The friction arm runs all of them.
    fn cases_per_arm() -> usize {
        crate::battery_cases() / 2
    }

    const SENSITIVITIES: [f64; 3] = [1.0, std::f64::consts::SQRT_2, 10.0];
    const CEILINGS: [f64; 4] = [0.5, 3.2, 25.6, 1e6];
    const PRECISIONS: [f64; 3] = [1e-4, 1e-5, 1e-6];

    #[derive(Clone, Copy)]
    struct Case {
        delta: Delta,
        sensitivity: Sensitivity,
        max_epsilon: Epsilon,
        precision: f64,
    }

    fn draw_case(rng: &mut crate::rng::DpRng) -> Case {
        Case {
            delta: Delta::new(10f64.powf(rng.uniform_range(-13.0, -5.0))).unwrap(),
            sensitivity: Sensitivity::new(SENSITIVITIES[rng.uniform_usize(0, 3)]).unwrap(),
            max_epsilon: Epsilon::new(CEILINGS[rng.uniform_usize(0, 4)]).unwrap(),
            precision: PRECISIONS[rng.uniform_usize(0, 3)],
        }
    }

    /// [`translate_variance_to_epsilon`] with the predicate evaluations
    /// its search spent.
    fn translate_counted(case: &Case, target: f64) -> (Result<Translation>, usize) {
        let (delta, sensitivity) = (case.delta, case.sensitivity);
        let mut probes = EpsilonSearch::new(target, delta.value(), sensitivity.value());
        let got = search(
            target,
            delta,
            sensitivity,
            case.max_epsilon,
            case.precision,
            |lo, hi| probes.find(lo, hi, case.precision),
        );
        (got, probes.evaluations)
    }

    /// Asserts that `got`, production's translation of `target` under
    /// `case`, equals both oracles' to the bit, value or error.
    fn assert_matches_the_oracles(case: &Case, target: f64, got: &Result<Translation>) {
        let Case {
            delta,
            sensitivity,
            max_epsilon,
            precision,
        } = *case;
        let context = format!(
            "v={target:e} delta={:e} sens={} max={} p={precision:e}",
            delta.value(),
            sensitivity.value(),
            max_epsilon.value()
        );
        type Oracle = fn(f64, Delta, Sensitivity, Epsilon, f64) -> Result<Translation>;
        let oracles: [(&str, Oracle); 2] = [
            ("nested", translate_variance_to_epsilon_nested),
            ("bisection", translate_variance_to_epsilon_bisection),
        ];
        for (oracle, translate) in oracles {
            let want = translate(target, delta, sensitivity, max_epsilon, precision);
            match (got, &want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(
                        got.epsilon.value().to_bits(),
                        want.epsilon.value().to_bits(),
                        "epsilon against the {oracle} oracle: {context}"
                    );
                    assert_eq!(
                        got.achieved_variance.to_bits(),
                        want.achieved_variance.to_bits(),
                        "variance against the {oracle} oracle: {context}"
                    );
                    assert_eq!(got, want, "{oracle} oracle: {context}");
                }
                (got, want) => assert_eq!(got, want, "{oracle} oracle: {context}"),
            }
        }
    }

    /// Asserts production and both oracles agree to the bit, value or
    /// error. Returns the predicate evaluations production spent when it
    /// answered.
    fn assert_same_translation(case: &Case, target: f64) -> Option<usize> {
        let (got, evaluations) = translate_counted(case, target);
        assert_matches_the_oracles(case, target, &got);
        got.is_ok().then_some(evaluations)
    }

    #[test]
    fn differential_random_targets_match_the_nested_oracle() {
        // Targets spread log-uniformly from far below the tightest
        // reachable variance (out of range) to far above the loosest (the
        // search bottoms out at its floor).
        let mut rng = crate::rng::DpRng::seed_from_u64(0x5eed_0001);
        let mut answered = Vec::new();
        for _ in 0..cases_per_arm() {
            let case = draw_case(&mut rng);
            let target = 10f64.powf(rng.uniform_range(-6.0, 18.0));
            answered.extend(assert_same_translation(&case, target));
        }
        // The evaluation budget: the replay must not quietly fall back to
        // the full bisection (about 20 evaluations).
        answered.sort_unstable();
        let median = answered[answered.len() / 2];
        assert!(
            median <= 8,
            "predicate evaluations over {} answered cases: median {median}, max {}",
            answered.len(),
            answered.last().unwrap()
        );
    }

    #[test]
    fn differential_guard_band_targets_match_the_nested_oracle() {
        // Walk the search grid to one of its probes, calibrate there, and
        // put sqrt(target) inside or next to the calibration's final
        // bracket: the probe where the profile is closest to delta.
        const OFFSETS: [f64; 9] = [
            0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-11, -1e-11, 1e-8, -1e-8,
        ];
        let mut rng = crate::rng::DpRng::seed_from_u64(0x5eed_0002);
        let (mut decided_by_calibration, mut total) = (0usize, 0usize);
        for _ in 0..cases_per_arm() {
            let case = draw_case(&mut rng);
            let (mut lo, mut hi) = ((case.precision / 100.0).min(1e-6), case.max_epsilon.value());
            let mut probe = hi;
            for _ in 0..rng.uniform_usize(0, 24) {
                probe = 0.5 * (lo + hi);
                if rng.uniform() < 0.5 {
                    hi = probe;
                } else {
                    lo = probe;
                }
            }
            let (d, sens) = (case.delta.value(), case.sensitivity.value());
            let sigma = analytic_gaussian_sigma(probe, d, sens).unwrap();
            let root = sigma * (1.0 + OFFSETS[rng.uniform_usize(0, OFFSETS.len())]);
            let target = root * root;
            total += 1;
            if profile_probe(target.sqrt(), d, sens, probe)
                .reaches
                .is_none()
            {
                decided_by_calibration += 1;
            }
            assert_same_translation(&case, target);
        }
        // The arm is only worth its name if most of it lands in the band.
        assert!(
            decided_by_calibration * 2 > total,
            "{decided_by_calibration} of {total} crafted targets fell inside the guard band"
        );
    }

    // ----- friction arm: closed-form weight vs golden-section search -----

    /// [`FrictionAwareTranslation::translate`] as it was before the fresh
    /// variance took its closed form: a golden-section search for the
    /// maximum of `v_t(w)` over the feasible weights, then the same
    /// translation. The friction arm's oracle and nothing else.
    fn friction_translate_golden_section(
        translator: &FrictionAwareTranslation,
        target_variance: f64,
        v_prime: f64,
        max_epsilon: Epsilon,
    ) -> Result<Translation> {
        use crate::math::optimize::golden_section_maximize;
        let w_max = (target_variance / v_prime).sqrt().min(1.0 - 1e-9);
        let objective = |w: f64| {
            let numer = target_variance - w * w * v_prime;
            let denom = (1.0 - w) * (1.0 - w);
            if numer <= 0.0 || denom <= 0.0 {
                f64::NEG_INFINITY
            } else {
                numer / denom
            }
        };
        let (_, v_t) = golden_section_maximize(objective, 0.0, w_max, 1e-10);
        let fresh_variance = if !v_t.is_finite() || v_t <= 0.0 {
            target_variance
        } else {
            v_t
        };
        translate_variance_to_epsilon(
            fresh_variance,
            translator.delta,
            translator.sensitivity,
            max_epsilon,
            translator.precision,
        )
    }

    #[test]
    fn differential_friction_closed_form_matches_the_golden_section_oracle() {
        // v′ log-uniform over 0.1…1e6, v_i / v′ uniform over 0.01…0.999.
        const FRICTION_CEILINGS: [f64; 3] = [3.2, 25.6, 1e3];
        let mut rng = crate::rng::DpRng::seed_from_u64(0x5eed_0003);
        let (mut answered, cases) = (0usize, crate::battery_cases());
        for _ in 0..cases {
            let case = draw_case(&mut rng);
            let max_epsilon = Epsilon::new(FRICTION_CEILINGS[rng.uniform_usize(0, 3)]).unwrap();
            let v_prime = 10f64.powf(rng.uniform_range(-1.0, 6.0));
            let target = v_prime * rng.uniform_range(0.01, 0.999);
            let translator =
                FrictionAwareTranslation::new(case.delta, case.sensitivity, case.precision);
            let got = translator.translate(target, Some(v_prime), max_epsilon);
            // The fresh synopsis's search, against both oracles at the
            // fresh variance it searched.
            let fresh = match &got {
                Ok(t) => t.target_variance,
                Err(DpError::TranslationOutOfRange {
                    requested_variance, ..
                }) => *requested_variance,
                Err(err) => panic!("friction translation failed: {err:?}"),
            };
            let vanilla = got.clone().map(|t| Translation {
                combination_weight: 0.0,
                ..t
            });
            assert_matches_the_oracles(
                &Case {
                    max_epsilon,
                    ..case
                },
                fresh,
                &vanilla,
            );
            let want = friction_translate_golden_section(&translator, target, v_prime, max_epsilon);
            let context = format!(
                "v_i={target:e} v'={v_prime:e} delta={:e} sens={} max={} p={:e}",
                case.delta.value(),
                case.sensitivity.value(),
                max_epsilon.value(),
                case.precision
            );
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    answered += 1;
                    assert_eq!(
                        got.epsilon.value().to_bits(),
                        want.epsilon.value().to_bits(),
                        "epsilon: {context}"
                    );
                }
                (Err(got), Err(want)) => assert_eq!(
                    std::mem::discriminant(&got),
                    std::mem::discriminant(&want),
                    "{context}"
                ),
                (got, want) => panic!("{context}: {got:?} vs {want:?}"),
            }
        }
        // Both outcomes must be well represented.
        assert!(
            answered * 4 > cases && answered < cases,
            "{answered} of {cases} friction cases answered"
        );
    }
}
