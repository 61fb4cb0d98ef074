//! The additive Gaussian noise calibration (Algorithm 3).
//!
//! Given one query, one database access, and a set of per-analyst budgets
//! `{(ε_1, δ), …, (ε_n, δ)}`, the additive Gaussian mechanism:
//!
//! 1. executes the query once to obtain the true answer;
//! 2. sorts the budgets by descending ε (equivalently ascending calibrated
//!    σ, see the discussion on δ in §5.2.1);
//! 3. releases to the largest-budget analyst the answer plus `N(0, σ_1²)`;
//! 4. to every subsequent analyst it adds *additional* independent noise
//!    `N(0, σ_j² − σ_i²)` on top of the previous noisy answer, exploiting
//!    the closure of Gaussians under addition.
//!
//! The result (Theorem 5.2) is `[(A_i, ε_i, δ)]`-multi-analyst-DP and, since
//! the data is touched only once, `(max_i ε_i, δ)`-DP overall even if every
//! analyst colludes.

use crate::budget::Budget;
use crate::mechanism::analytic_gaussian::analytic_gaussian_sigma;
use crate::rng::DpRng;
use crate::sensitivity::Sensitivity;
use crate::{DpError, Result};

/// The per-analyst output of one additive-Gaussian release.
#[derive(Debug, Clone, PartialEq)]
pub struct AdditiveRelease {
    /// Index of the recipient in the caller's budget list.
    pub recipient: usize,
    /// The budget charged to that recipient.
    pub(crate) budget: Budget,
    /// The calibrated total noise scale experienced by that recipient.
    pub sigma: f64,
    /// The noisy answer vector released to that recipient.
    pub answer: Vec<f64>,
}

/// Runs Algorithm 3: releases one noisy copy of `true_answer` per requested
/// budget, reusing noise so the worst-case collusion cost is `max ε`.
///
/// `budgets[i]` is the budget requested for recipient `i`; the output is in
/// the *same order* as the input (the internal descending-σ ordering is an
/// implementation detail).
pub fn additive_gaussian_release(
    true_answer: &[f64],
    sensitivity: Sensitivity,
    budgets: &[Budget],
    rng: &mut DpRng,
) -> Result<Vec<AdditiveRelease>> {
    if budgets.is_empty() {
        return Err(DpError::EmptyBudgetSet);
    }

    // Calibrate a sigma per budget; sorting by ascending sigma handles the
    // "epsilon max but delta min" corner case discussed in §5.2.1.
    let mut calibrated: Vec<(usize, Budget, f64)> = Vec::with_capacity(budgets.len());
    for (i, &b) in budgets.iter().enumerate() {
        let sigma =
            analytic_gaussian_sigma(b.epsilon.value(), b.delta.value(), sensitivity.value())?;
        calibrated.push((i, b, sigma));
    }
    calibrated.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("sigma is finite"));

    let mut releases: Vec<Option<AdditiveRelease>> = vec![None; budgets.len()];

    // The most-trusted recipient (smallest sigma) gets fresh noise on the
    // true answer; everyone else gets extra noise on top of the previous
    // noisy answer.
    let (first_idx, first_budget, first_sigma) = calibrated[0];
    let mut current: Vec<f64> = true_answer
        .iter()
        .map(|&v| v + rng.gaussian(first_sigma))
        .collect();
    releases[first_idx] = Some(AdditiveRelease {
        recipient: first_idx,
        budget: first_budget,
        sigma: first_sigma,
        answer: current.clone(),
    });

    let mut prev_sigma = first_sigma;
    for &(idx, budget, sigma) in calibrated.iter().skip(1) {
        // sigma >= prev_sigma by the sort; the incremental variance is the
        // difference of variances.
        let extra_var = (sigma * sigma - prev_sigma * prev_sigma).max(0.0);
        let extra_sigma = extra_var.sqrt();
        current = current
            .iter()
            .map(|&v| v + rng.gaussian(extra_sigma))
            .collect();
        releases[idx] = Some(AdditiveRelease {
            recipient: idx,
            budget,
            sigma,
            answer: current.clone(),
        });
        prev_sigma = sigma;
    }

    Ok(releases
        .into_iter()
        .map(|r| r.expect("every recipient receives a release"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(eps: f64) -> Budget {
        Budget::new(eps, 1e-9).unwrap()
    }

    #[test]
    fn rejects_empty_budget_set() {
        let mut rng = DpRng::seed_from_u64(1);
        let err = additive_gaussian_release(&[1.0], Sensitivity::COUNT, &[], &mut rng);
        assert_eq!(err.unwrap_err(), DpError::EmptyBudgetSet);
    }

    #[test]
    fn releases_are_returned_in_input_order() {
        let mut rng = DpRng::seed_from_u64(2);
        let budgets = vec![budget(0.3), budget(0.9), budget(0.5)];
        let out = additive_gaussian_release(&[100.0, 50.0], Sensitivity::COUNT, &budgets, &mut rng)
            .unwrap();
        assert_eq!(out.len(), 3);
        for (i, rel) in out.iter().enumerate() {
            assert_eq!(rel.recipient, i);
            assert_eq!(rel.budget, budgets[i]);
            assert_eq!(rel.answer.len(), 2);
        }
    }

    #[test]
    fn sigma_is_decreasing_in_epsilon() {
        let mut rng = DpRng::seed_from_u64(3);
        let budgets = vec![budget(0.3), budget(0.9), budget(0.5)];
        let out =
            additive_gaussian_release(&[0.0], Sensitivity::COUNT, &budgets, &mut rng).unwrap();
        assert!(out[1].sigma < out[2].sigma);
        assert!(out[2].sigma < out[0].sigma);
    }

    #[test]
    fn lower_budget_answers_add_noise_to_higher_budget_answers() {
        // The release for a smaller epsilon must equal the release for the
        // larger epsilon plus independent noise — their difference must be
        // consistent with the incremental variance, and crucially the
        // smaller-epsilon answer must not be closer to the truth on average.
        let mut rng = DpRng::seed_from_u64(4);
        let truth = vec![1000.0; 512];
        let budgets = vec![budget(2.0), budget(0.2)];
        let out =
            additive_gaussian_release(&truth, Sensitivity::COUNT, &budgets, &mut rng).unwrap();
        let high = &out[0]; // eps = 2.0, less noise
        let low = &out[1]; // eps = 0.2, more noise

        let mse_high: f64 = high
            .answer
            .iter()
            .zip(&truth)
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f64>()
            / truth.len() as f64;
        let mse_low: f64 = low
            .answer
            .iter()
            .zip(&truth)
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f64>()
            / truth.len() as f64;
        assert!(mse_low > mse_high, "mse_low={mse_low} mse_high={mse_high}");

        // The difference between the two answers is the extra injected
        // noise; its empirical variance should be near sigma_low^2 - sigma_high^2.
        let diffs: Vec<f64> = low
            .answer
            .iter()
            .zip(&high.answer)
            .map(|(l, h)| l - h)
            .collect();
        let var = diffs.iter().map(|d| d * d).sum::<f64>() / diffs.len() as f64;
        let expected = low.sigma * low.sigma - high.sigma * high.sigma;
        assert!(
            (var - expected).abs() / expected < 0.25,
            "extra-noise variance {var}, expected {expected}"
        );
    }

    #[test]
    fn equal_budgets_get_identical_noise_scale() {
        let mut rng = DpRng::seed_from_u64(5);
        let budgets = vec![budget(1.0), budget(1.0)];
        let out =
            additive_gaussian_release(&[0.0], Sensitivity::COUNT, &budgets, &mut rng).unwrap();
        assert!((out[0].sigma - out[1].sigma).abs() < 1e-12);
        // With identical sigmas, the incremental noise is zero: the answers
        // coincide (no extra information released to either analyst).
        assert_eq!(out[0].answer, out[1].answer);
    }

    #[test]
    fn single_budget_matches_plain_analytic_gaussian_scale() {
        let mut rng = DpRng::seed_from_u64(6);
        let out = additive_gaussian_release(&[0.0], Sensitivity::COUNT, &[budget(0.7)], &mut rng)
            .unwrap();
        let expect = analytic_gaussian_sigma(0.7, 1e-9, 1.0).unwrap();
        assert!((out[0].sigma - expect).abs() < 1e-9);
    }
}
