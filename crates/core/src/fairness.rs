//! Fairness metrics.
//!
//! * [`dcfg`] / [`ndcfg`] — the (normalised) discounted cumulative fairness
//!   gain of Definitions 17–18 / §6.1.3: answered query counts discounted by
//!   `log2(1/l_i + 1)` so that answering the *higher*-privilege analysts'
//!   queries earns more credit.
//! * [`ProportionalFairnessAudit`] — checks the proportional-fairness
//!   condition of Definition 7 on observed per-analyst budget consumption.

use crate::analyst::Privilege;

/// Per-analyst outcome used by the fairness metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalystOutcome {
    /// The analyst's privilege level.
    pub privilege: u8,
    /// Number of queries answered to this analyst.
    pub answered: usize,
    /// Privacy budget (epsilon) consumed on behalf of this analyst.
    pub consumed_epsilon: f64,
}

/// The discount applied to one analyst's answered-query count:
/// `log2(1 / l_i + 1)`.
#[must_use]
pub fn dcfg_discount(privilege: u8) -> f64 {
    (1.0 / f64::from(privilege) + 1.0).log2()
}

/// Discounted cumulative fairness gain (Definition 17).
#[must_use]
pub fn dcfg(outcomes: &[AnalystOutcome]) -> f64 {
    outcomes
        .iter()
        .map(|o| o.answered as f64 / dcfg_discount(o.privilege))
        .sum()
}

/// Normalised DCFG (Definition 18): DCFG divided by the total number of
/// answered queries. Zero when nothing was answered.
#[must_use]
pub fn ndcfg(outcomes: &[AnalystOutcome]) -> f64 {
    let total: usize = outcomes.iter().map(|o| o.answered).sum();
    if total == 0 {
        return 0.0;
    }
    dcfg(outcomes) / total as f64
}

/// The result of auditing proportional fairness (Definition 7) with the
/// identity function as μ: for every pair with `l_i <= l_j` we require
/// `consumed_i / l_i <= consumed_j / l_j` (up to `tolerance`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProportionalFairnessAudit {
    /// Whether every pair satisfied the condition.
    pub is_fair: bool,
    /// The worst observed violation `consumed_i/l_i − consumed_j/l_j` over
    /// pairs with `l_i <= l_j` (non-positive when fair).
    pub worst_violation: f64,
}

/// Audits proportional fairness over observed per-analyst consumption.
#[must_use]
pub fn audit_proportional_fairness(
    outcomes: &[AnalystOutcome],
    tolerance: f64,
) -> ProportionalFairnessAudit {
    let mut worst: f64 = f64::NEG_INFINITY;
    let mut any_pair = false;
    for i in outcomes {
        for j in outcomes {
            if i.privilege <= j.privilege && !std::ptr::eq(i, j) {
                any_pair = true;
                let lhs = i.consumed_epsilon / f64::from(i.privilege);
                let rhs = j.consumed_epsilon / f64::from(j.privilege);
                worst = worst.max(lhs - rhs);
            }
        }
    }
    if !any_pair {
        return ProportionalFairnessAudit {
            is_fair: true,
            worst_violation: 0.0,
        };
    }
    ProportionalFairnessAudit {
        is_fair: worst <= tolerance,
        worst_violation: worst,
    }
}

/// Helper kept for call sites that have `Privilege` values.
#[must_use]
pub fn dcfg_discount_for(privilege: Privilege) -> f64 {
    dcfg_discount(privilege.level())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(privilege: u8, answered: usize, consumed: f64) -> AnalystOutcome {
        AnalystOutcome {
            privilege,
            answered,
            consumed_epsilon: consumed,
        }
    }

    #[test]
    fn discounts_match_example_7() {
        assert!((dcfg_discount(1) - 1.0).abs() < 1e-9);
        assert!((dcfg_discount(2) - 0.584_962_5).abs() < 1e-6);
        assert!((dcfg_discount(4) - 0.321_928_1).abs() < 1e-6);
    }

    #[test]
    fn dcfg_and_ndcfg_match_example_7() {
        // Example 7: privileges 1, 2, 4.
        let m1 = [outcome(1, 10, 0.0), outcome(2, 3, 0.0), outcome(4, 0, 0.0)];
        let m2 = [outcome(1, 2, 0.0), outcome(2, 4, 0.0), outcome(4, 7, 0.0)];
        assert!((dcfg(&m1) - 15.13).abs() < 0.01);
        assert!((dcfg(&m2) - 30.58).abs() < 0.01);
        assert!((ndcfg(&m1) - 1.16).abs() < 0.01);
        assert!((ndcfg(&m2) - 2.35).abs() < 0.01);
    }

    #[test]
    fn answering_high_privilege_scores_higher() {
        let favour_low = [outcome(1, 10, 0.0), outcome(4, 0, 0.0)];
        let favour_high = [outcome(1, 0, 0.0), outcome(4, 10, 0.0)];
        assert!(ndcfg(&favour_high) > ndcfg(&favour_low));
    }

    #[test]
    fn empty_and_zero_answer_cases() {
        assert_eq!(ndcfg(&[]), 0.0);
        assert_eq!(ndcfg(&[outcome(3, 0, 0.0)]), 0.0);
        assert_eq!(dcfg(&[]), 0.0);
    }

    #[test]
    fn proportional_fairness_audit_detects_violations() {
        // Fair: consumption proportional to privilege.
        let fair = [outcome(1, 0, 0.4), outcome(4, 0, 1.6)];
        let audit = audit_proportional_fairness(&fair, 1e-9);
        assert!(audit.is_fair);
        assert!(audit.worst_violation <= 1e-9);

        // Unfair: the low-privilege analyst consumed more per privilege
        // unit than the high-privilege one.
        let unfair = [outcome(1, 0, 1.0), outcome(4, 0, 1.6)];
        let audit = audit_proportional_fairness(&unfair, 1e-9);
        assert!(!audit.is_fair);
        assert!(audit.worst_violation > 0.5);
    }

    #[test]
    fn single_analyst_is_trivially_fair() {
        let audit = audit_proportional_fairness(&[outcome(5, 3, 2.0)], 1e-9);
        assert!(audit.is_fair);
    }
}
