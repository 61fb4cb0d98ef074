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
//!   maximises the fresh synopsis's allowed variance
//!   `v_t(w) = (v_i − w²·v′) / (1 − w)²` over the combination weight
//!   `w ∈ [0, 1)` before translating `v_t` into an epsilon, so the least
//!   possible additional budget is spent.

use crate::budget::{Budget, Delta, Epsilon};
use crate::math::optimize::{golden_section_maximize, monotone_binary_search};
use crate::mechanism::analytic_gaussian::analytic_gaussian_sigma;
use crate::sensitivity::Sensitivity;
use crate::{DpError, Result};

/// Default search precision `p` on epsilon (Proposition 5.1 guarantees the
/// returned epsilon is within `p` of the true minimum).
pub const DEFAULT_EPSILON_PRECISION: f64 = 1e-4;

/// The outcome of an accuracy→privacy translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Translation {
    /// The translated minimal epsilon.
    pub epsilon: Epsilon,
    /// The delta the translation was performed at.
    pub delta: Delta,
    /// The per-bin noise variance the calibrated mechanism will actually
    /// achieve (always `<=` the requested bound).
    pub achieved_variance: f64,
    /// The per-bin variance bound the search used (after friction
    /// adjustment, if any).
    pub target_variance: f64,
    /// The combination weight chosen by the friction-aware translation
    /// (`0.0` for the vanilla translation).
    pub combination_weight: f64,
}

/// Definition 9: the minimal epsilon (up to precision `precision`) such that
/// the analytic Gaussian mechanism at `(epsilon, delta)` with the given
/// sensitivity has per-coordinate variance at most `target_variance`.
///
/// `max_epsilon` bounds the search (the paper uses the table constraint
/// `psi_P`); if even `max_epsilon` cannot reach the accuracy target the
/// translation fails with [`DpError::TranslationOutOfRange`].
pub fn translate_variance_to_epsilon(
    target_variance: f64,
    delta: Delta,
    sensitivity: Sensitivity,
    max_epsilon: Epsilon,
    precision: f64,
) -> Result<Translation> {
    if !(target_variance.is_finite() && target_variance > 0.0) {
        return Err(DpError::InvalidVariance(target_variance));
    }
    let max_eps = max_epsilon.value();
    if max_eps <= 0.0 {
        return Err(DpError::TranslationOutOfRange {
            requested_variance: target_variance,
            max_epsilon: max_eps,
        });
    }
    let d = delta.value();
    let sens = sensitivity.value();

    let variance_at = |eps: f64| -> f64 {
        match analytic_gaussian_sigma(eps, d, sens) {
            Ok(sigma) => sigma * sigma,
            Err(_) => f64::INFINITY,
        }
    };

    // The variance is monotone decreasing in epsilon, so "variance <= target"
    // is a monotone predicate.
    let lo = (precision / 100.0).min(1e-6);
    let eps = monotone_binary_search(
        |eps| variance_at(eps) <= target_variance,
        lo,
        max_eps,
        precision,
    )
    .ok_or(DpError::TranslationOutOfRange {
        requested_variance: target_variance,
        max_epsilon: max_eps,
    })?;

    let achieved = variance_at(eps);
    Ok(Translation {
        epsilon: Epsilon::new(eps)?,
        delta,
        achieved_variance: achieved,
        target_variance,
        combination_weight: 0.0,
    })
}

/// Translates a query-level accuracy bound into a per-bin bound.
///
/// A linear query that sums `bins_touched` histogram bins with unit
/// coefficients has error variance `bins_touched * v_bin`, so the per-bin
/// bound is the query bound divided by the number of touched bins
/// (Algorithm 2, line 9 — `calculateVariance`).
#[must_use]
pub fn per_bin_variance(query_variance_bound: f64, bins_touched: usize) -> f64 {
    debug_assert!(query_variance_bound > 0.0);
    query_variance_bound / bins_touched.max(1) as f64
}

/// The friction-aware translation used by the additive Gaussian approach.
#[derive(Debug, Clone, Copy)]
pub struct FrictionAwareTranslation {
    /// Delta used for every calibration in the system.
    pub delta: Delta,
    /// Sensitivity of the view being updated.
    pub sensitivity: Sensitivity,
    /// Search precision on epsilon.
    pub precision: f64,
}

impl FrictionAwareTranslation {
    /// Creates a translator with the default precision.
    #[must_use]
    pub fn new(delta: Delta, sensitivity: Sensitivity) -> Self {
        FrictionAwareTranslation {
            delta,
            sensitivity,
            precision: DEFAULT_EPSILON_PRECISION,
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

        let (fresh_variance, weight) = match current_variance {
            // First release for the view: no friction, vanilla translation.
            None => (target_variance, 0.0),
            Some(v_prime) if v_prime <= target_variance => {
                // The existing synopsis is already accurate enough; the
                // caller should answer from it (signalled by weight = 1 and
                // an infinite fresh variance is meaningless, so we keep the
                // vanilla path but the system layer short-circuits before
                // calling translate in that case). Degrade to vanilla:
                // w = 0, as the optimisation's solution is w = 0 when
                // v_i > v' per the paper.
                (target_variance, 0.0)
            }
            Some(v_prime) => {
                // Maximise v_t(w) = (v_i − w² v′) / (1 − w)² over w ∈ [0, 1).
                // The feasible region requires v_i − w² v′ > 0, i.e.
                // w < sqrt(v_i / v′) (< 1 since v_i < v′).
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
                let (w, v_t) = golden_section_maximize(objective, 0.0, w_max, 1e-10);
                if !v_t.is_finite() || v_t <= 0.0 {
                    (target_variance, 0.0)
                } else {
                    (v_t, w)
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

/// Convenience: translate a target variance straight into a [`Budget`].
pub fn translate_to_budget(
    target_variance: f64,
    delta: Delta,
    sensitivity: Sensitivity,
    max_epsilon: Epsilon,
) -> Result<Budget> {
    let t = translate_variance_to_epsilon(
        target_variance,
        delta,
        sensitivity,
        max_epsilon,
        DEFAULT_EPSILON_PRECISION,
    )?;
    Ok(Budget::from_parts(t.epsilon, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::analytic_gaussian_sigma;

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
        let tr = FrictionAwareTranslation::new(delta(), Sensitivity::COUNT);
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
        let tr = FrictionAwareTranslation::new(delta(), Sensitivity::COUNT);
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
        let tr = FrictionAwareTranslation::new(delta(), Sensitivity::COUNT);
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
        let tr = FrictionAwareTranslation::new(delta(), Sensitivity::COUNT);
        // Existing synopsis better (5.0) than the request (10.0): w = 0 path.
        let t = tr
            .translate(10.0, Some(5.0), Epsilon::new(50.0).unwrap())
            .unwrap();
        assert_eq!(t.combination_weight, 0.0);
    }

    #[test]
    fn budget_helper_round_trips() {
        let b = translate_to_budget(
            25.0,
            delta(),
            Sensitivity::COUNT,
            Epsilon::new(50.0).unwrap(),
        )
        .unwrap();
        let sigma = analytic_gaussian_sigma(b.epsilon.value(), 1e-9, 1.0).unwrap();
        assert!(sigma * sigma <= 25.0 * (1.0 + 1e-9));
    }
}
