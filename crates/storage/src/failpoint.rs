//! Crash-injection harness: a [`Recorder`] wrapper that kills the durable
//! pipeline after the Nth append.
//!
//! The crash-safety property the storage layer must uphold is *prefix
//! durability*: whatever the moment of death, recovery rebuilds a state
//! that (a) is a prefix of the committed history and (b) never undercounts
//! spend the process acknowledged to an analyst. [`FailpointRecorder`]
//! makes that property testable by deterministically dying at every
//! possible append — either cleanly (the frame never reaches the file, as
//! when the process dies before `write`) or torn (a partial frame reaches
//! the file, as when the kernel cuts a `write` short on power loss).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dprov_core::recorder::{CommitRecord, DataAccess, Recorder};
use dprov_core::StorageError;

use crate::store::ProvenanceStore;
use crate::wal::WalRecord;

/// How the injected crash manifests on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The dying append writes nothing (death before `write`).
    Clean,
    /// The dying append leaves a torn frame prefix (death mid-`write`);
    /// recovery must detect and discard it via the checksum.
    Torn,
}

/// A [`Recorder`] that forwards to a [`ProvenanceStore`] until the Nth
/// append, then "dies": the Nth append (0-indexed) fails — cleanly or
/// tearing the ledger tail — and every later append fails too, exactly
/// like a process that lost its disk.
#[derive(Debug)]
pub struct FailpointRecorder {
    store: Arc<ProvenanceStore>,
    /// Appends attempted so far.
    attempts: AtomicU64,
    /// The 0-indexed append at which to die; `u64::MAX` = never.
    kill_at: u64,
    mode: CrashMode,
    dead: AtomicBool,
}

impl FailpointRecorder {
    /// Wraps `store`, dying at the `kill_at`-th append (0-indexed) in the
    /// given mode.
    #[must_use]
    pub fn new(store: Arc<ProvenanceStore>, kill_at: u64, mode: CrashMode) -> Self {
        FailpointRecorder {
            store,
            attempts: AtomicU64::new(0),
            kill_at,
            mode,
            dead: AtomicBool::new(false),
        }
    }

    /// True once the failpoint has fired.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Appends attempted so far (including failed ones).
    #[must_use]
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::SeqCst)
    }

    /// The wrapped store.
    #[must_use]
    pub fn store(&self) -> &Arc<ProvenanceStore> {
        &self.store
    }

    fn gate(&self, record: &WalRecord) -> Result<(), StorageError> {
        let attempt = self.attempts.fetch_add(1, Ordering::SeqCst);
        if self.dead.load(Ordering::SeqCst) {
            return Err(StorageError::Unavailable(
                "failpoint: recorder already dead".to_owned(),
            ));
        }
        if attempt == self.kill_at {
            self.dead.store(true, Ordering::SeqCst);
            if self.mode == CrashMode::Torn {
                // Tear the frame roughly in half — enough bytes for the
                // scanner to see a frame header with a bad body.
                let frame_len = record.encode_frame().map_or(0, |f| f.len());
                let _ = self.store.append_torn(record, frame_len / 2);
            }
            return Err(StorageError::Unavailable(format!(
                "failpoint: killed at append {attempt}"
            )));
        }
        self.store.append(record)
    }
}

impl Recorder for FailpointRecorder {
    fn record_admission(
        &self,
        commit: &CommitRecord,
        access: Option<&DataAccess>,
    ) -> Result<(), StorageError> {
        self.gate(&WalRecord::Commit(commit.clone(), access.copied()))
    }

    fn record_rollback(&self, seq: u64) -> Result<(), StorageError> {
        self.gate(&WalRecord::Rollback { seq })
    }

    fn record_update(&self, batch: &dprov_delta::EncodedBatch) -> Result<(), StorageError> {
        self.gate(&WalRecord::Update(batch.clone()))
    }

    fn record_epoch_seal(&self, epoch: u64, through_seq: u64) -> Result<(), StorageError> {
        self.gate(&WalRecord::EpochSeal { epoch, through_seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;
    use crate::store::StoreOptions;
    use dprov_core::analyst::AnalystId;
    use dprov_core::mechanism::MechanismKind;

    fn commit(seq: u64) -> CommitRecord {
        CommitRecord {
            seq,
            analyst: AnalystId(0),
            view: "v".to_owned(),
            mechanism: MechanismKind::Vanilla,
            prev_entry: 0.0,
            new_entry: 0.1,
            charged: 0.1,
        }
    }

    #[test]
    fn clean_kill_stops_all_later_appends() {
        let dir = scratch_dir("failpoint-clean");
        let (store, _) = ProvenanceStore::open_with(&dir, StoreOptions { fsync: false }).unwrap();
        let recorder = FailpointRecorder::new(Arc::new(store), 2, CrashMode::Clean);
        assert!(recorder.record_commit(&commit(0)).is_ok());
        assert!(recorder.record_commit(&commit(1)).is_ok());
        assert!(matches!(
            recorder.record_commit(&commit(2)),
            Err(StorageError::Unavailable(_))
        ));
        assert!(recorder.is_dead());
        assert!(recorder.record_commit(&commit(3)).is_err());
        drop(recorder);
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(recovered.admissions.len(), 2);
        assert!(recovered.wal_corruption.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_kill_leaves_a_detectable_discardable_tail() {
        let dir = scratch_dir("failpoint-torn");
        let (store, _) = ProvenanceStore::open_with(&dir, StoreOptions { fsync: false }).unwrap();
        let recorder = FailpointRecorder::new(Arc::new(store), 1, CrashMode::Torn);
        assert!(recorder.record_commit(&commit(0)).is_ok());
        assert!(recorder.record_commit(&commit(1)).is_err());
        drop(recorder);
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(recovered.admissions.len(), 1);
        assert!(
            matches!(recovered.wal_corruption, Some(StorageError::Corrupt { .. })),
            "torn tail must be surfaced as a typed corruption"
        );
        // The reopened store truncated the tear: appends work again.
        let (store, _) = ProvenanceStore::open(&dir).unwrap();
        store.record_commit(&commit(1)).unwrap();
        drop(store); // release the directory lock before reopening
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(recovered.admissions.len(), 2);
        assert!(recovered.wal_corruption.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
