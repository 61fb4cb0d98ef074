//! The durable-commit hook on the admission path.
//!
//! DProvDB's central guarantee — provenance-tracked budget constraints are
//! never exceeded — is only as strong as the place the spent budget lives.
//! This module defines the [`Recorder`] trait through which
//! [`crate::system::DProvDb`] externalises every budget commit to a durable
//! write-ahead ledger *before* the in-memory charge becomes visible, plus
//! the plain-data record and state types the storage crate serialises.
//!
//! # Write-ahead protocol
//!
//! A submission that passes the constraint check produces one
//! [`CommitRecord`] carrying everything recovery needs to replay the commit
//! exactly: the provenance entry transition (`prev_entry → new_entry`), the
//! epsilon charged to the analyst, and the mechanism that charged it —
//! the system's one mechanism, so replay refuses any other. When the
//! admission touches the protected data — a vanilla release,
//! or an additive admission that grows the hidden global synopsis — the
//! commit carries that [`DataAccess`] too, so one admission is one record.
//! The system calls [`Recorder::record_admission`] *inside* the provenance
//! critical section, before applying the charge and before the tight
//! accountant counts the access, so
//!
//! * the ledger's record order equals the commit order and the tight
//!   accountant's composition order, and
//! * a record that fails to persist aborts the submission with
//!   [`crate::error::CoreError::Storage`] — the in-memory state is never
//!   ahead of the durable state.
//!
//! A release that fails *after* its reserve (noise generation error)
//! restores the journalled `prev_entry` and the analyst's release count, and
//! appends a tombstone via
//! [`Recorder::record_rollback`]. Tombstone appends are best-effort: losing
//! one makes recovery **over**-count the spend, which is the safe direction
//! for a privacy accountant (recovered spend ≥ acknowledged spend, never
//! less). A tombstone voids the charge only: the access stays counted on
//! both sides, because the live accountant counted it at commit time.
//!
//! Recovery drives the inverse path: [`crate::system::DProvDb`] exposes
//! [`crate::system::DProvDb::import_durable_state`] for the snapshot and
//! [`crate::system::DProvDb::replay_admission`] for each admission of the
//! ledger suffix; both mutate memory *without* echoing back into the
//! recorder.

use dprov_delta::{EncodedBatch, UpdateLog};
use dprov_dp::accountant::AccountantState;

use crate::analyst::AnalystId;
use crate::error::StorageError;
use crate::mechanism::MechanismKind;

/// One durably-committed admission charge: the full provenance-entry
/// transition of a single accepted submission.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Monotone commit sequence number, assigned inside the provenance
    /// critical section (so sequence order is commit order).
    pub seq: u64,
    /// The charged analyst.
    pub analyst: AnalystId,
    /// The charged view (provenance column).
    pub view: String,
    /// The mechanism that performed the charge: always the system's own,
    /// which replay checks.
    pub mechanism: MechanismKind,
    /// Provenance entry `P[A_i, V_j]` before the commit.
    pub prev_entry: f64,
    /// Provenance entry `P[A_i, V_j]` after the commit.
    pub new_entry: f64,
    /// Epsilon charged to the analyst (equals `new_entry - prev_entry` up
    /// to float rounding). Replay sets the entry to `new_entry`, bit for
    /// bit.
    pub charged: f64,
}

/// One data access — a release that touched the protected database —
/// as the tight accountant composes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataAccess {
    /// The epsilon of the release.
    pub epsilon: f64,
    /// The calibrated noise scale of the release.
    pub sigma: f64,
    /// The sensitivity of the released view.
    pub sensitivity: f64,
}

/// One journalled admission as recovery reads it back (see
/// [`crate::system::DProvDb::replay_admission`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The committed charge.
    pub commit: CommitRecord,
    /// The data access the admission made, if it made one.
    pub access: Option<DataAccess>,
    /// A rollback tombstone voided the charge. The access still counts.
    pub voided: bool,
}

/// The durable-commit hook. Implementations must be durable when
/// [`Recorder::record_admission`] returns `Ok` (fsync'd or equivalently
/// persisted) — the system applies the in-memory charge immediately after.
pub trait Recorder: Send + Sync {
    /// Persists one admission: its charge and, when it touched the data,
    /// its access — as one record. Called inside the provenance critical
    /// section, before the charge is applied in memory and before the
    /// tight accountant counts the access. An `Err` aborts the submission
    /// (no in-memory state changes).
    fn record_admission(
        &self,
        commit: &CommitRecord,
        access: Option<&DataAccess>,
    ) -> Result<(), StorageError>;

    /// Persists a charge that made no data access.
    fn record_commit(&self, commit: &CommitRecord) -> Result<(), StorageError> {
        self.record_admission(commit, None)
    }

    /// Appends a tombstone voiding the commit with sequence `seq` after its
    /// release failed and the in-memory charge was rolled back. Best-effort:
    /// a lost tombstone makes recovery over-count spend (safe direction).
    fn record_rollback(&self, seq: u64) -> Result<(), StorageError>;

    /// Persists one validated update batch. Called under the update-log
    /// lock, before the batch becomes pending in memory — an `Err` refuses
    /// the update. The default implementation accepts silently, which is
    /// correct only for volatile recorders (in-memory test doubles);
    /// durable recorders must override it.
    fn record_update(&self, batch: &EncodedBatch) -> Result<(), StorageError> {
        let _ = batch;
        Ok(())
    }

    /// Persists an epoch seal covering every update batch with
    /// `seq < through_seq` not sealed earlier. Called under the epoch
    /// freeze, before the seal is applied in memory — an `Err` aborts the
    /// seal with nothing applied. Default: accept silently (volatile
    /// recorders only).
    fn record_epoch_seal(&self, epoch: u64, through_seq: u64) -> Result<(), StorageError> {
        let _ = (epoch, through_seq);
        Ok(())
    }
}

/// Serialisable state of one provenance-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceEntryState {
    /// The analyst row.
    pub analyst: AnalystId,
    /// The view column.
    pub view: String,
    /// The cumulative epsilon `P[A_i, V_j]`.
    pub epsilon: f64,
}

/// How many admissions were committed to each analyst: with the provenance
/// entries, everything the derived multi-analyst ledger needs.
#[derive(Debug, Clone, PartialEq)]
pub enum ReleaseState {
    /// `(analyst, release count)` for every analyst with a release, sorted
    /// by analyst. Export writes this form.
    Counts(Vec<(AnalystId, u64)>),
    /// The ledger section of a version-1 to -3 snapshot, decoded only:
    /// import checks its buckets against the provenance rows, recovers the
    /// counts from their δ and drops it.
    LegacyLedger {
        /// The section's per-(analyst, mechanism) buckets, as `(analyst,
        /// ε, δ)`.
        buckets: Vec<(AnalystId, f64, f64)>,
        /// The section's release total.
        releases: u64,
    },
}

impl Default for ReleaseState {
    fn default() -> Self {
        ReleaseState::Counts(Vec::new())
    }
}

/// Serialisable state of the hidden global synopsis of one view.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalSynopsisState {
    /// Nominal epsilon of the synopsis.
    pub epsilon: f64,
    /// Actual per-bin variance.
    pub variance: f64,
    /// The update epoch the synopsis was released against.
    pub epoch: u64,
    /// The noisy counts.
    pub counts: Vec<f64>,
}

/// Serialisable state of one analyst's local (or vanilla-cached) synopsis.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSynopsisState {
    /// The owning analyst's index.
    pub analyst: usize,
    /// Nominal epsilon of the synopsis.
    pub epsilon: f64,
    /// Actual per-bin variance.
    pub variance: f64,
    /// The update epoch the synopsis was released against.
    pub epoch: u64,
    /// The noisy counts.
    pub counts: Vec<f64>,
}

/// Serialisable cache state of one view: the hidden global synopsis plus
/// every analyst's local synopsis.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewCacheState {
    /// The view name.
    pub view: String,
    /// The hidden global synopsis, if released yet.
    pub global: Option<GlobalSynopsisState>,
    /// Per-analyst local synopses, sorted by analyst index.
    pub locals: Vec<LocalSynopsisState>,
}

/// The tight accountant's durable state.
#[derive(Debug, Clone, PartialEq)]
pub enum TightState {
    /// The accountant's fixed-size state: its release count and additive
    /// sums, whatever the number of accesses it composed. Export writes
    /// this form.
    Accountant(AccountantState),
    /// The access list of a version-1 or -2 snapshot, decoded only:
    /// import folds it through the configured accountant.
    LegacyAccesses(Vec<DataAccess>),
}

impl Default for TightState {
    fn default() -> Self {
        TightState::Accountant(AccountantState::default())
    }
}

/// A consistent, serialisable snapshot of every durably-relevant piece of
/// [`crate::system::DProvDb`] state: the provenance matrix with each
/// analyst's release count (the multi-analyst ledger is derived from the
/// two), the tight accountant's state, and the synopsis cache. Produced by
/// [`crate::system::DProvDb::export_durable_state`]
/// under the commit freeze, consumed by
/// [`crate::system::DProvDb::import_durable_state`] at recovery.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoreState {
    /// The next commit sequence number (all seqs below are reflected here).
    pub next_seq: u64,
    /// Non-zero provenance entries.
    pub provenance: Vec<ProvenanceEntryState>,
    /// Each analyst's release count.
    pub releases: ReleaseState,
    /// The tight accountant's state.
    pub tight: TightState,
    /// The synopsis cache, one entry per view with any cached state.
    pub synopses: Vec<ViewCacheState>,
    /// The dynamic-data state: pending update batches plus the sealed
    /// epoch history (recovery re-applies the seals deterministically to
    /// rebuild segments and patched histograms). Grows with total
    /// updates — summarising it is a known follow-up.
    pub deltas: UpdateLog,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The trait is object-safe and usable through `Arc<dyn Recorder>`.
    #[test]
    fn recorder_is_object_safe() {
        #[derive(Default)]
        struct Counting {
            commits: AtomicUsize,
        }
        impl Recorder for Counting {
            fn record_admission(
                &self,
                _: &CommitRecord,
                _: Option<&DataAccess>,
            ) -> Result<(), StorageError> {
                self.commits.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            fn record_rollback(&self, _: u64) -> Result<(), StorageError> {
                Ok(())
            }
        }
        let rec: std::sync::Arc<dyn Recorder> = std::sync::Arc::new(Counting::default());
        rec.record_commit(&CommitRecord {
            seq: 0,
            analyst: AnalystId(0),
            view: "v".to_owned(),
            mechanism: MechanismKind::Vanilla,
            prev_entry: 0.0,
            new_entry: 0.1,
            charged: 0.1,
        })
        .unwrap();
        rec.record_rollback(0).unwrap();
    }

    #[test]
    fn mechanism_codes_round_trip() {
        for mech in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            assert_eq!(MechanismKind::from_code(mech.code()), Some(mech));
        }
        assert_eq!(MechanismKind::from_code(0), None);
        assert_eq!(MechanismKind::from_code(99), None);
    }
}
