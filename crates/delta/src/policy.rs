//! Per-epoch budget policy for noisy synopses.
//!
//! Sealing an epoch changes the data under every view over an updated
//! table. The noisy synopses released against the old data are now
//! answering stale questions; the policy decides what happens to them:
//!
//! * [`EpochPolicy::ReNoise`] — every synopsis of a changed view is
//!   invalidated at the seal. The next query that needs it re-buys a
//!   release **through the normal admission path** (translate → check →
//!   charge → release), so every re-release is charged to the analyst's
//!   provenance row exactly like a first release and the multi-analyst
//!   row/column/table constraints keep holding across epochs. The seal
//!   itself draws no noise and spends no budget — which is what makes
//!   sealing deterministic and replayable.
//! * [`EpochPolicy::CarryForward`] — synopses of changed views keep
//!   serving answers for up to `max_staleness` epochs after the release's
//!   epoch (bounded staleness: answers may reflect data up to that many
//!   seals old, but never spend budget they did not pay). Once the bound
//!   is exceeded the synopsis is invalidated like under `ReNoise`.

/// What happens to noisy synopses of a view whose data changed at an
/// epoch seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EpochPolicy {
    /// Invalidate at the seal; the next query re-buys the release under
    /// the normal admission charging. Freshest answers, highest budget
    /// drain under churn.
    #[default]
    ReNoise,
    /// Keep serving stale synopses for up to `max_staleness` epochs past
    /// the release's epoch, then invalidate. `max_staleness = 0` behaves
    /// like [`EpochPolicy::ReNoise`].
    CarryForward {
        /// How many epochs a stale synopsis may keep serving.
        max_staleness: u64,
    },
}

impl EpochPolicy {
    /// Whether a synopsis released at `entry_epoch` over a view whose data
    /// last changed at `view_data_epoch` may still serve answers at
    /// `current_epoch`.
    ///
    /// A synopsis released at or after the view's last data change is
    /// always fresh (the data it answers is current). A stale one is
    /// retained only within the carry-forward bound.
    #[must_use]
    pub fn retains(&self, entry_epoch: u64, view_data_epoch: u64, current_epoch: u64) -> bool {
        if entry_epoch >= view_data_epoch {
            return true;
        }
        match self {
            EpochPolicy::ReNoise => false,
            EpochPolicy::CarryForward { max_staleness } => {
                current_epoch.saturating_sub(entry_epoch) <= *max_staleness
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renoise_drops_stale_synopses_immediately() {
        let p = EpochPolicy::ReNoise;
        // Fresh: released at the view's current data epoch.
        assert!(p.retains(3, 3, 3));
        assert!(p.retains(3, 2, 3));
        // Stale: data changed after the release.
        assert!(!p.retains(2, 3, 3));
        assert!(!p.retains(0, 1, 5));
    }

    #[test]
    fn carry_forward_bounds_staleness_in_epochs() {
        let p = EpochPolicy::CarryForward { max_staleness: 2 };
        // Stale but within bound: released at 3, now 5 (staleness 2).
        assert!(p.retains(3, 4, 5));
        // Out of bound: released at 3, now 6.
        assert!(!p.retains(3, 4, 6));
        // Fresh synopses never expire, however old.
        assert!(p.retains(1, 1, 9));
        // Zero bound behaves like ReNoise once data changes.
        let zero = EpochPolicy::CarryForward { max_staleness: 0 };
        assert!(!zero.retains(2, 3, 3));
        assert!(zero.retains(3, 3, 3));
    }
}
