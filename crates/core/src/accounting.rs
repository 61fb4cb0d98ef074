//! Multi-analyst DP accounting (Section 3, Theorem 3.1 / 3.2).
//!
//! Tracks the per-analyst privacy loss of a running system and reports the
//! collusion bounds: the trivial upper bound (sum over analysts, sequential
//! composition) and the lower bound (the maximum over analysts — the least
//! information that must have been released). DProvDB's additive Gaussian
//! mechanism achieves the lower bound per view (Theorem 5.2); the ledger
//! lets callers and tests verify that claim.
//!
//! Every ledger entry carries the [`MechanismKind`] that performed the
//! charge, so the spend can be audited *per mechanism* — both live and from
//! a replayed write-ahead log (`dprov-storage` persists the mechanism byte
//! on every commit record). The per-analyst totals are derived by composing
//! an analyst's per-mechanism buckets in a fixed (BTreeMap) order, which
//! makes the derivation reproducible under recovery replay.

use std::collections::BTreeMap;

use dprov_dp::budget::{Budget, Delta, Epsilon};

use crate::analyst::AnalystId;
use crate::error::{CoreError, Result, StorageError};
use crate::mechanism::MechanismKind;
use crate::recorder::LedgerEntryState;

/// The per-analyst privacy-loss ledger with per-mechanism attribution.
#[derive(Debug, Clone, Default)]
pub struct MultiAnalystLedger {
    /// One budget bucket per `(analyst, mechanism)` pair.
    per_entry: BTreeMap<(AnalystId, MechanismKind), Budget>,
    releases: usize,
}

impl MultiAnalystLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        MultiAnalystLedger {
            per_entry: BTreeMap::new(),
            releases: 0,
        }
    }

    /// Records a release of `budget` to `analyst` through `mechanism`
    /// (multi-analyst sequential composition, Theorem 3.1: per-coordinate
    /// addition).
    pub fn record(&mut self, analyst: AnalystId, budget: Budget, mechanism: MechanismKind) {
        let entry = self
            .per_entry
            .entry((analyst, mechanism))
            .or_insert(Budget::ZERO);
        *entry = entry.compose(budget);
        self.releases += 1;
    }

    /// The cumulative loss to one analyst across every mechanism.
    #[must_use]
    pub fn loss_to(&self, analyst: AnalystId) -> Budget {
        self.per_entry
            .iter()
            .filter(|((a, _), _)| *a == analyst)
            .fold(Budget::ZERO, |acc, (_, b)| acc.compose(*b))
    }

    /// The cumulative loss to one analyst through one mechanism.
    #[must_use]
    pub fn loss_to_via(&self, analyst: AnalystId, mechanism: MechanismKind) -> Budget {
        self.per_entry
            .get(&(analyst, mechanism))
            .copied()
            .unwrap_or(Budget::ZERO)
    }

    /// The cumulative loss through one mechanism, composed across analysts.
    #[must_use]
    pub fn loss_via(&self, mechanism: MechanismKind) -> Budget {
        self.per_entry
            .iter()
            .filter(|((_, m), _)| *m == mechanism)
            .fold(Budget::ZERO, |acc, (_, b)| acc.compose(*b))
    }

    /// Per-mechanism totals (composed across analysts), sorted by
    /// mechanism.
    #[must_use]
    pub fn by_mechanism(&self) -> Vec<(MechanismKind, Budget)> {
        let mut totals: BTreeMap<MechanismKind, Budget> = BTreeMap::new();
        for ((_, mech), budget) in &self.per_entry {
            let entry = totals.entry(*mech).or_insert(Budget::ZERO);
            *entry = entry.compose(*budget);
        }
        totals.into_iter().collect()
    }

    /// Per-analyst totals, composed across mechanisms.
    fn per_analyst(&self) -> BTreeMap<AnalystId, Budget> {
        let mut totals: BTreeMap<AnalystId, Budget> = BTreeMap::new();
        for ((analyst, _), budget) in &self.per_entry {
            let entry = totals.entry(*analyst).or_insert(Budget::ZERO);
            *entry = entry.compose(*budget);
        }
        totals
    }

    /// The collusion *lower bound* of Theorem 3.2: the pointwise maximum of
    /// the per-analyst losses.
    #[must_use]
    pub fn collusion_lower_bound(&self) -> Budget {
        self.per_analyst()
            .values()
            .fold(Budget::ZERO, |acc, b| acc.pointwise_max(*b))
    }

    /// The trivial collusion *upper bound* of Theorem 3.2: sequential
    /// composition across analysts.
    #[must_use]
    pub fn collusion_upper_bound(&self) -> Budget {
        self.per_analyst()
            .values()
            .fold(Budget::ZERO, |acc, b| acc.compose(*b))
    }

    /// The (t, n)-compromised upper bound of Section 7.1: the sum of the `t`
    /// largest per-analyst epsilons (and deltas).
    #[must_use]
    pub fn compromised_upper_bound(&self, t: usize) -> Budget {
        let per_analyst = self.per_analyst();
        let mut epsilons: Vec<f64> = per_analyst.values().map(|b| b.epsilon.value()).collect();
        let mut deltas: Vec<f64> = per_analyst.values().map(|b| b.delta.value()).collect();
        epsilons.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        deltas.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let eps: f64 = epsilons.iter().take(t).sum();
        let delta: f64 = deltas.iter().take(t).sum();
        Budget::new(eps, delta.min(1.0 - f64::EPSILON)).expect("valid budget")
    }

    /// Per-analyst losses, sorted by analyst id.
    #[must_use]
    pub fn all(&self) -> Vec<(AnalystId, Budget)> {
        self.per_analyst().into_iter().collect()
    }

    /// Number of recorded releases.
    #[must_use]
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// Exports every `(analyst, mechanism)` bucket for durable snapshots,
    /// in key order.
    #[must_use]
    pub fn export_entries(&self) -> Vec<LedgerEntryState> {
        self.per_entry
            .iter()
            .map(|((analyst, mechanism), budget)| LedgerEntryState {
                analyst: *analyst,
                mechanism: *mechanism,
                epsilon: budget.epsilon.value(),
                delta: budget.delta.value(),
            })
            .collect()
    }

    /// Rebuilds a ledger from exported buckets (snapshot recovery). The
    /// inverse of [`Self::export_entries`]. A bucket whose ε is not a
    /// finite non-negative number, or whose δ lies outside `[0, 1]`, is
    /// refused: it could only under-report the spend.
    pub fn from_entries(entries: &[LedgerEntryState], releases: usize) -> Result<Self> {
        let bucket = |e: &LedgerEntryState| {
            // Composition saturates δ at 1, which `Delta::new` refuses.
            let delta = match e.delta {
                1.0 => Delta::ONE,
                d => Delta::new(d).ok()?,
            };
            Some(Budget::from_parts(Epsilon::new(e.epsilon).ok()?, delta))
        };
        let per_entry = entries
            .iter()
            .map(|e| match bucket(e) {
                Some(budget) => Ok(((e.analyst, e.mechanism), budget)),
                None => Err(CoreError::Storage(StorageError::IncompatibleState(
                    format!(
                        "ledger bucket of analyst {} holds ({}, {})",
                        e.analyst.0, e.epsilon, e.delta
                    ),
                ))),
            })
            .collect::<Result<_>>()?;
        Ok(MultiAnalystLedger {
            per_entry,
            releases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: MechanismKind = MechanismKind::AdditiveGaussian;

    fn b(eps: f64) -> Budget {
        Budget::new(eps, 1e-9).unwrap()
    }

    #[test]
    fn per_analyst_losses_compose_sequentially() {
        let mut ledger = MultiAnalystLedger::new();
        ledger.record(AnalystId(0), b(0.3), M);
        ledger.record(AnalystId(0), b(0.2), M);
        ledger.record(AnalystId(1), b(0.7), M);
        assert!((ledger.loss_to(AnalystId(0)).epsilon.value() - 0.5).abs() < 1e-12);
        assert!((ledger.loss_to(AnalystId(1)).epsilon.value() - 0.7).abs() < 1e-12);
        assert_eq!(ledger.loss_to(AnalystId(9)), Budget::ZERO);
        assert_eq!(ledger.releases(), 3);
    }

    #[test]
    fn collusion_bounds_bracket_the_truth() {
        let mut ledger = MultiAnalystLedger::new();
        ledger.record(AnalystId(0), b(0.5), M);
        ledger.record(AnalystId(1), b(0.7), M);
        ledger.record(AnalystId(2), b(0.2), M);
        let lower = ledger.collusion_lower_bound();
        let upper = ledger.collusion_upper_bound();
        assert!((lower.epsilon.value() - 0.7).abs() < 1e-12);
        assert!((upper.epsilon.value() - 1.4).abs() < 1e-12);
        assert!(upper.epsilon.value() >= lower.epsilon.value());
    }

    #[test]
    fn compromised_bound_interpolates_between_max_and_sum() {
        let mut ledger = MultiAnalystLedger::new();
        ledger.record(AnalystId(0), b(0.5), M);
        ledger.record(AnalystId(1), b(0.7), M);
        ledger.record(AnalystId(2), b(0.2), M);
        assert!((ledger.compromised_upper_bound(1).epsilon.value() - 0.7).abs() < 1e-12);
        assert!((ledger.compromised_upper_bound(2).epsilon.value() - 1.2).abs() < 1e-12);
        assert!((ledger.compromised_upper_bound(3).epsilon.value() - 1.4).abs() < 1e-12);
        // t larger than n saturates at the full sum.
        assert!((ledger.compromised_upper_bound(10).epsilon.value() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_bounds_are_zero() {
        let ledger = MultiAnalystLedger::new();
        assert_eq!(ledger.collusion_lower_bound(), Budget::ZERO);
        assert_eq!(ledger.collusion_upper_bound(), Budget::ZERO);
        assert!(ledger.all().is_empty());
    }

    #[test]
    fn mechanism_attribution_is_tracked_per_bucket() {
        let mut ledger = MultiAnalystLedger::new();
        ledger.record(AnalystId(0), b(0.3), MechanismKind::Vanilla);
        ledger.record(AnalystId(0), b(0.2), MechanismKind::AdditiveGaussian);
        ledger.record(AnalystId(1), b(0.4), MechanismKind::AdditiveGaussian);
        let via_v = ledger.loss_to_via(AnalystId(0), MechanismKind::Vanilla);
        let via_a = ledger.loss_to_via(AnalystId(0), MechanismKind::AdditiveGaussian);
        assert!((via_v.epsilon.value() - 0.3).abs() < 1e-12);
        assert!((via_a.epsilon.value() - 0.2).abs() < 1e-12);
        // The cross-mechanism total for analyst 0 composes both buckets.
        assert!((ledger.loss_to(AnalystId(0)).epsilon.value() - 0.5).abs() < 1e-12);
        // Per-mechanism totals compose across analysts.
        assert!(
            (ledger
                .loss_via(MechanismKind::AdditiveGaussian)
                .epsilon
                .value()
                - 0.6)
                .abs()
                < 1e-12
        );
        let by_mech = ledger.by_mechanism();
        assert_eq!(by_mech.len(), 2);
        assert_eq!(by_mech[0].0, MechanismKind::Vanilla);
    }

    #[test]
    fn export_import_round_trips_exactly() {
        let mut ledger = MultiAnalystLedger::new();
        ledger.record(AnalystId(0), b(0.31), MechanismKind::Vanilla);
        ledger.record(AnalystId(1), b(0.17), MechanismKind::AdditiveGaussian);
        ledger.record(AnalystId(1), b(0.05), MechanismKind::AdditiveGaussian);
        let entries = ledger.export_entries();
        let restored = MultiAnalystLedger::from_entries(&entries, ledger.releases()).unwrap();
        assert_eq!(restored.releases(), 3);
        for a in [AnalystId(0), AnalystId(1)] {
            // Bit-exact restoration: the budgets are stored as raw f64s.
            assert_eq!(
                restored.loss_to(a).epsilon.value(),
                ledger.loss_to(a).epsilon.value()
            );
        }
        assert_eq!(restored.export_entries(), entries);
    }

    #[test]
    fn import_refuses_a_bucket_that_would_under_report() {
        let mut ledger = MultiAnalystLedger::new();
        ledger.record(AnalystId(0), b(0.31), MechanismKind::Vanilla);
        let entries = ledger.export_entries();
        for delta in [f64::NAN, f64::INFINITY, -1e-9, 1.5] {
            let mut bad = entries.clone();
            bad[0].delta = delta;
            assert!(
                matches!(
                    MultiAnalystLedger::from_entries(&bad, 1),
                    Err(CoreError::Storage(StorageError::IncompatibleState(_)))
                ),
                "delta {delta} imported"
            );
        }
        for epsilon in [f64::NAN, -0.5] {
            let mut bad = entries.clone();
            bad[0].epsilon = epsilon;
            assert!(MultiAnalystLedger::from_entries(&bad, 1).is_err());
        }
        // A δ saturated by composition is a state the ledger itself
        // exports, so it imports.
        let mut saturated = entries;
        saturated[0].delta = 1.0;
        let restored = MultiAnalystLedger::from_entries(&saturated, 1).unwrap();
        assert_eq!(restored.loss_to(AnalystId(0)).delta.value(), 1.0);
    }
}
