//! Multi-analyst DP accounting (Section 3, Theorem 3.1 / 3.2).
//!
//! Reports the per-analyst privacy loss of a running system and the
//! collusion bounds: the trivial upper bound (sum over analysts, sequential
//! composition) and the lower bound (the maximum over analysts — the least
//! information that must have been released). DProvDB's additive Gaussian
//! mechanism achieves the lower bound per view (Theorem 5.2); the ledger
//! lets callers and tests verify that claim.
//!
//! The ledger is not a second spend record: it is *derived* from the one
//! record, the [`ProvenanceTable`] (Alg. 1). An analyst's ε is the row sum
//! `Σ_V P[A, V]` of Theorem 3.1; their δ composes the system's δ once per
//! admission committed to them (the table counts those in the same critical
//! section as the charge). Every release went through the system's one
//! mechanism, which the durable store's fingerprint pins.

use std::collections::BTreeMap;

use dprov_dp::budget::{Budget, Delta, Epsilon};

use crate::analyst::AnalystId;
use crate::error::{CoreError, Result, StorageError};
use crate::provenance::ProvenanceTable;
use crate::recorder::ProvenanceEntryState;

/// The per-analyst privacy-loss ledger, as derived from a provenance table.
#[derive(Debug, Clone)]
pub struct MultiAnalystLedger {
    /// Loss and release count of every analyst with at least one release.
    per_analyst: BTreeMap<AnalystId, (Budget, u64)>,
}

impl MultiAnalystLedger {
    /// Derives the ledger from `provenance` (multi-analyst sequential
    /// composition, Theorem 3.1): each analyst's ε is their row total,
    /// their δ is `delta` composed over their release count.
    #[must_use]
    pub fn derive(provenance: &ProvenanceTable, delta: Delta) -> Self {
        let per_analyst = (0..provenance.num_analysts())
            .map(AnalystId)
            .filter(|&a| provenance.releases(a) > 0)
            .map(|a| {
                let releases = provenance.releases(a);
                let delta = (0..releases).fold(Delta::ZERO, |acc, _| acc + delta);
                let epsilon = Epsilon::unchecked(provenance.row_total(a));
                (a, (Budget::from_parts(epsilon, delta), releases))
            })
            .collect();
        MultiAnalystLedger { per_analyst }
    }

    /// The cumulative loss to one analyst.
    #[must_use]
    pub fn loss_to(&self, analyst: AnalystId) -> Budget {
        self.per_analyst
            .get(&analyst)
            .map_or(Budget::ZERO, |(budget, _)| *budget)
    }

    /// The number of releases charged to one analyst.
    #[must_use]
    pub fn releases_to(&self, analyst: AnalystId) -> u64 {
        self.per_analyst.get(&analyst).map_or(0, |(_, n)| *n)
    }

    /// The collusion *lower bound* of Theorem 3.2: the pointwise maximum of
    /// the per-analyst losses.
    #[must_use]
    pub fn collusion_lower_bound(&self) -> Budget {
        self.per_analyst
            .values()
            .fold(Budget::ZERO, |acc, (b, _)| acc.pointwise_max(*b))
    }

    /// The trivial collusion *upper bound* of Theorem 3.2: sequential
    /// composition across analysts.
    #[must_use]
    pub fn collusion_upper_bound(&self) -> Budget {
        self.per_analyst
            .values()
            .fold(Budget::ZERO, |acc, (b, _)| acc.compose(*b))
    }

    /// The (t, n)-compromised upper bound of Section 7.1: the sum of the `t`
    /// largest per-analyst epsilons (and deltas).
    #[must_use]
    pub fn compromised_upper_bound(&self, t: usize) -> Budget {
        let budgets = || self.per_analyst.values().map(|(b, _)| b);
        let mut epsilons: Vec<f64> = budgets().map(|b| b.epsilon.value()).collect();
        let mut deltas: Vec<f64> = budgets().map(|b| b.delta.value()).collect();
        epsilons.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        deltas.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let eps: f64 = epsilons.iter().take(t).sum();
        let delta: f64 = deltas.iter().take(t).sum();
        Budget::new(eps, delta.min(1.0 - f64::EPSILON)).expect("valid budget")
    }

    /// Per-analyst losses, sorted by analyst id.
    #[must_use]
    pub fn all(&self) -> Vec<(AnalystId, Budget)> {
        self.per_analyst
            .iter()
            .map(|(a, (budget, _))| (*a, *budget))
            .collect()
    }

    /// Number of releases, across analysts.
    #[must_use]
    pub fn releases(&self) -> usize {
        self.per_analyst.values().map(|(_, n)| *n as usize).sum()
    }
}

/// Recovers each analyst's release count from the ledger section of a
/// version-1 to -3 snapshot holding `provenance`: `δ_A ÷ delta`, rounded,
/// the counts summing to the section's `releases`. A bucket ε further than
/// 1e-9 relative from its analyst's provenance row total is refused, naming
/// the analyst: the derived ledger would report a spend the old one did
/// not.
pub(crate) fn legacy_release_counts(
    buckets: &[(AnalystId, f64, f64)],
    releases: u64,
    provenance: &[ProvenanceEntryState],
    delta: Delta,
) -> Result<Vec<(AnalystId, u64)>> {
    let refuse = |what: String| {
        Err(CoreError::Storage(StorageError::IncompatibleState(
            format!("legacy ledger section: {what}"),
        )))
    };
    // Per analyst: (provenance row total, bucket ε, bucket δ).
    let mut spend: BTreeMap<AnalystId, (f64, f64, f64)> = BTreeMap::new();
    for entry in provenance {
        spend.entry(entry.analyst).or_default().0 += entry.epsilon;
    }
    for &(analyst, epsilon, delta) in buckets {
        let entry = spend.entry(analyst).or_default();
        entry.1 += epsilon;
        entry.2 += delta;
    }
    let mut counts = Vec::new();
    for (analyst, (row, epsilon, bucket_delta)) in spend {
        // A NaN on either side is never within the tolerance.
        let within = (epsilon - row).abs() <= 1e-9 * epsilon.abs().max(row.abs());
        let count = (bucket_delta / delta.value()).round();
        let fits = within && count.is_finite() && count >= 0.0;
        if !fits {
            return refuse(format!(
                "analyst {} bucket (ε {epsilon}, δ {bucket_delta}) against provenance row \
                 total {row} and δ {}",
                analyst.0,
                delta.value()
            ));
        }
        if count > 0.0 {
            counts.push((analyst, count as u64));
        }
    }
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    if total != releases {
        return refuse(format!(
            "bucket counts sum to {total} releases, the section records {releases}"
        ));
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta() -> Delta {
        Delta::new(1e-9).unwrap()
    }

    /// A three-analyst, two-view table; `commits` are `(analyst, view,
    /// new entry)`.
    fn table(commits: &[(usize, &str, f64)]) -> ProvenanceTable {
        let mut p = ProvenanceTable::new(10.0);
        for a in 0..3 {
            p.add_analyst(AnalystId(a), 10.0);
        }
        p.add_view("v1", 10.0);
        p.add_view("v2", 10.0);
        for &(a, view, entry) in commits {
            p.commit(AnalystId(a), view, entry);
        }
        p
    }

    fn ledger(commits: &[(usize, &str, f64)]) -> MultiAnalystLedger {
        MultiAnalystLedger::derive(&table(commits), delta())
    }

    #[test]
    fn per_analyst_losses_compose_sequentially() {
        let ledger = ledger(&[(0, "v1", 0.3), (0, "v2", 0.2), (1, "v1", 0.7)]);
        assert!((ledger.loss_to(AnalystId(0)).epsilon.value() - 0.5).abs() < 1e-12);
        assert!((ledger.loss_to(AnalystId(1)).epsilon.value() - 0.7).abs() < 1e-12);
        assert_eq!(ledger.loss_to(AnalystId(2)), Budget::ZERO);
        assert_eq!(ledger.loss_to(AnalystId(9)), Budget::ZERO);
        assert_eq!(ledger.loss_to(AnalystId(0)).delta.value(), 1e-9 + 1e-9);
        assert_eq!(ledger.releases_to(AnalystId(0)), 2);
        assert_eq!(ledger.releases(), 3);
    }

    #[test]
    fn collusion_bounds_bracket_the_truth() {
        let ledger = ledger(&[(0, "v1", 0.5), (1, "v1", 0.7), (2, "v2", 0.2)]);
        let lower = ledger.collusion_lower_bound();
        let upper = ledger.collusion_upper_bound();
        assert!((lower.epsilon.value() - 0.7).abs() < 1e-12);
        assert!((upper.epsilon.value() - 1.4).abs() < 1e-12);
        assert!(upper.epsilon.value() >= lower.epsilon.value());
    }

    #[test]
    fn compromised_bound_interpolates_between_max_and_sum() {
        let ledger = ledger(&[(0, "v1", 0.5), (1, "v1", 0.7), (2, "v2", 0.2)]);
        assert!((ledger.compromised_upper_bound(1).epsilon.value() - 0.7).abs() < 1e-12);
        assert!((ledger.compromised_upper_bound(2).epsilon.value() - 1.2).abs() < 1e-12);
        assert!((ledger.compromised_upper_bound(3).epsilon.value() - 1.4).abs() < 1e-12);
        // t larger than n saturates at the full sum.
        assert!((ledger.compromised_upper_bound(10).epsilon.value() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_bounds_are_zero() {
        let ledger = ledger(&[]);
        assert_eq!(ledger.collusion_lower_bound(), Budget::ZERO);
        assert_eq!(ledger.collusion_upper_bound(), Budget::ZERO);
        assert!(ledger.all().is_empty());
    }

    /// A snapshot's provenance entries: analyst 0 holds 0.3 + 0.2 over two
    /// views, analyst 1 holds 0.25.
    fn rows() -> Vec<ProvenanceEntryState> {
        [(0, "v1", 0.3), (0, "v2", 0.2), (1, "v1", 0.25)]
            .map(|(a, view, epsilon)| ProvenanceEntryState {
                analyst: AnalystId(a),
                view: view.to_owned(),
                epsilon,
            })
            .to_vec()
    }

    /// A legacy bucket: `(analyst, ε, δ)` after `releases` releases.
    fn bucket(analyst: usize, epsilon: f64, releases: u32) -> (AnalystId, f64, f64) {
        let delta = (0..releases).fold(0.0, |acc, _| acc + 1e-9);
        (AnalystId(analyst), epsilon, delta)
    }

    #[test]
    fn a_legacy_section_yields_each_analysts_release_count() {
        let buckets = [bucket(0, 0.3 + 0.2, 7), bucket(1, 0.25, 3)];
        let counts = legacy_release_counts(&buckets, 10, &rows(), delta()).unwrap();
        assert_eq!(counts, vec![(AnalystId(0), 7), (AnalystId(1), 3)]);
    }

    #[test]
    fn import_refuses_a_bucket_that_would_under_report() {
        let refused = |buckets: &[(AnalystId, f64, f64)], releases: u64| match legacy_release_counts(
            buckets,
            releases,
            &rows(),
            delta(),
        ) {
            Err(CoreError::Storage(StorageError::IncompatibleState(msg))) => msg,
            other => panic!("{buckets:?} imported: {other:?}"),
        };
        // A bucket ε off its row total by more than 1e-9 relative, either
        // way, or not a number: the refusal names the analyst.
        for epsilon in [0.25 * (1.0 + 2e-9), 0.25 * (1.0 - 2e-9), 0.0, f64::NAN] {
            let msg = refused(&[bucket(0, 0.5, 7), bucket(1, epsilon, 3)], 10);
            assert!(msg.contains("analyst 1"), "{msg}");
        }
        // An analyst with provenance spend but no bucket.
        assert!(refused(&[bucket(0, 0.5, 7)], 7).contains("analyst 1"));
        // A δ that is no count of the system's δ.
        for delta in [f64::NAN, f64::INFINITY, -1e-6] {
            let bad = (AnalystId(1), 0.25, delta);
            assert!(refused(&[bucket(0, 0.5, 7), bad], 10).contains("analyst 1"));
        }
        // Counts that miss the section's release total.
        refused(&[bucket(0, 0.5, 7), bucket(1, 0.25, 3)], 11);
        // Within the tolerance, the section imports.
        let close = [bucket(0, 0.5, 7), bucket(1, 0.25 * (1.0 + 5e-10), 3)];
        assert!(legacy_release_counts(&close, 10, &rows(), delta()).is_ok());
    }
}
