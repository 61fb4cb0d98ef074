//! The provenance store: one directory holding a write-ahead ledger plus
//! the latest snapshot, with open/recover/compact lifecycle.
//!
//! ```text
//! <dir>/wal.log       append-only ledger (crate::wal)
//! <dir>/snapshot.dps  latest durable snapshot (crate::snapshot)
//! ```
//!
//! [`ProvenanceStore::open`] performs recovery: read the snapshot (typed
//! error on damage — a snapshot cannot be partially trusted), scan the
//! ledger (torn tails are discarded and surfaced), mark tombstoned
//! admissions, merge session checkpoints and hand back a [`RecoveredState`]
//! the caller replays into a freshly built system. The store then serves
//! as the live [`Recorder`] for that system, writing one frame per
//! admission.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dprov_core::recorder::{Admission, CommitRecord, DataAccess, Recorder};
use dprov_core::StorageError;
use dprov_delta::EncodedBatch;

use crate::snapshot::{read_snapshot, write_snapshot, SnapshotState};
use crate::wal::{scan, SessionCheckpoint, WalRecord, WalWriter};

/// Tuning for a store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// `sync_data` after every ledger append (durable commits). Turning
    /// this off trades crash durability for throughput (`dprovbench`'s
    /// `commit-wal` workload runs with it off).
    pub fsync: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { fsync: true }
    }
}

/// One dynamic-data replay step, in write-ahead order. Updates and seals
/// must be re-applied in exactly this order: a crash between update
/// frames and their seal recovers the updates as *pending*, at the last
/// sealed epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaReplay {
    /// Re-enqueue one validated update batch as pending.
    Update(EncodedBatch),
    /// Re-apply one epoch seal over the pending batches below the
    /// watermark.
    Seal {
        /// The sealed epoch's number.
        epoch: u64,
        /// The batch-sequence watermark the seal covers.
        through_seq: u64,
    },
}

/// Everything recovery reconstructed from disk.
#[derive(Debug)]
pub struct RecoveredState {
    /// The configuration fingerprint the store is bound to — from the
    /// snapshot, or from the ledger's fingerprint frame when no snapshot
    /// exists yet. `None` only for a brand-new (or empty) store; callers
    /// must then bind their fingerprint via
    /// [`ProvenanceStore::bind_fingerprint`].
    pub fingerprint: Option<u64>,
    /// The snapshot, if one existed.
    pub snapshot: Option<SnapshotState>,
    /// Ledger admissions after the snapshot, in commit order, each with
    /// the data access it carried and whether a tombstone voided it.
    pub admissions: Vec<Admission>,
    /// Dynamic-data replay steps after the snapshot (update batches and
    /// epoch seals, in write-ahead order, reconciled against the
    /// snapshot's batch-sequence and epoch watermarks).
    pub deltas: Vec<DeltaReplay>,
    /// Live session checkpoints: snapshot sessions overlaid with the
    /// ledger's newer checkpoints, closed sessions removed; sorted by id.
    pub sessions: Vec<SessionCheckpoint>,
    /// The next session id.
    pub next_session_id: u64,
    /// Damage found at the ledger tail, already discarded from the file —
    /// surfaced so operators can log how much history a crash tore off.
    pub wal_corruption: Option<StorageError>,
}

fn mix(mut acc: u64, word: u64) -> u64 {
    acc ^= word;
    acc = acc.wrapping_add(0x9E37_79B9_7F4A_7C15);
    acc = (acc ^ (acc >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    acc = (acc ^ (acc >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    acc ^ (acc >> 31)
}

/// A stable digest of the analyst roster *in registration order* — name
/// bytes and privilege level per analyst. Registration order matters:
/// `AnalystId`s in the durable records are positional, so swapping two
/// registrations re-attributes every recorded charge and must change the
/// fingerprint.
#[must_use]
pub fn analysts_digest<'a>(analysts: impl IntoIterator<Item = (&'a str, u8)>) -> u64 {
    let mut acc = 0x452A_F10D_0E44_ED13u64;
    for (index, (name, privilege)) in analysts.into_iter().enumerate() {
        acc = mix(acc, index as u64);
        acc = mix(acc, name.len() as u64);
        for chunk in name.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = mix(acc, u64::from_le_bytes(word));
        }
        acc = mix(acc, u64::from(privilege));
    }
    acc
}

/// A stable fingerprint of the system configuration owning a store, mixed
/// via SplitMix64. Recovery refuses snapshots whose fingerprint differs —
/// replaying budgets into a system with a different seed, budget,
/// mechanism or analyst roster would corrupt the privacy accounting
/// silently (the positional `AnalystId`s in the records would resolve to
/// the wrong people). `roster_digest` comes from [`analysts_digest`].
#[must_use]
pub fn config_fingerprint(
    seed: u64,
    total_epsilon: f64,
    delta: f64,
    mechanism_code: u8,
    composition_code: u8,
    roster_digest: u64,
) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3u64; // pi digits, arbitrary non-zero
    for word in [
        seed,
        total_epsilon.to_bits(),
        delta.to_bits(),
        u64::from(mechanism_code),
        u64::from(composition_code),
        roster_digest,
    ] {
        acc = mix(acc, word);
    }
    acc
}

/// State guarded together with the ledger writer: the live view of every
/// session's latest checkpoint. Kept under the *same* lock as the writer
/// so compaction's snapshot is atomic with the ledger truncation — a
/// session append lands either before the truncation (and in the
/// snapshot's map) or after it (and in the fresh ledger), never in a gap.
#[derive(Debug)]
struct StoreInner {
    writer: WalWriter,
    sessions: std::collections::BTreeMap<u64, SessionCheckpoint>,
    next_session_id: u64,
}

/// The durable provenance store; also the live [`Recorder`].
#[derive(Debug)]
pub struct ProvenanceStore {
    dir: PathBuf,
    inner: Mutex<StoreInner>,
    fsync: bool,
    /// OS advisory lock on `<dir>/LOCK`, held for the store's lifetime so
    /// two processes can never append to one ledger concurrently.
    _dir_lock: std::fs::File,
    /// Ledger appends since the last snapshot (compaction trigger).
    appends_since_snapshot: AtomicU64,
    /// Total ledger appends over this handle's lifetime (failpoint
    /// enumeration support).
    total_appends: AtomicU64,
}

impl ProvenanceStore {
    /// Ledger file path under `dir`.
    #[must_use]
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Snapshot file path under `dir`.
    #[must_use]
    pub fn snapshot_path(dir: &Path) -> PathBuf {
        dir.join("snapshot.dps")
    }

    /// Opens (creating if needed) the store in `dir` with default options
    /// and performs recovery.
    pub fn open(dir: &Path) -> Result<(Self, RecoveredState), StorageError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens the store with explicit options and performs recovery.
    pub fn open_with(
        dir: &Path,
        options: StoreOptions,
    ) -> Result<(Self, RecoveredState), StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::Io(e.to_string()))?;
        // Exclusive advisory lock: a second opener (a concurrent process,
        // or a restart racing a hung predecessor) would interleave frames
        // at independent offsets and silently corrupt the history.
        let dir_lock = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(dir.join("LOCK"))
            .map_err(|e| StorageError::Io(e.to_string()))?;
        if let Err(e) = dir_lock.try_lock() {
            return Err(StorageError::Unavailable(format!(
                "store directory {} is locked by another process: {e}",
                dir.display()
            )));
        }
        // A damaged snapshot is a hard, typed error: unlike a torn ledger
        // tail there is no safe prefix to fall back to.
        let snapshot = read_snapshot(&Self::snapshot_path(dir))?;
        let scanned = scan(&Self::wal_path(dir))?;
        let writer = WalWriter::open(&Self::wal_path(dir), options.fsync, scanned.valid_len)?;

        // Tombstones void their commit's charge (not its access).
        let mut voided: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for record in &scanned.records {
            if let WalRecord::Rollback { seq } = record {
                voided.insert(*seq);
            }
        }
        let mut admissions = Vec::new();
        let mut sessions: std::collections::BTreeMap<u64, SessionCheckpoint> = snapshot
            .iter()
            .flat_map(|s| s.sessions.iter().copied())
            .map(|s| (s.session, s))
            .collect();
        // Everything with seq below the snapshot's watermark is already
        // folded into the snapshot (it was exported under the commit
        // freeze). A crash between compact()'s snapshot rename and its
        // ledger truncation leaves both on disk; replaying the overlap
        // would double-count every pre-snapshot charge, so filter by seq.
        let snapshot_seq = snapshot.as_ref().map_or(0, |s| s.core.next_seq);
        // The dynamic-data watermarks: everything below them is already
        // folded into the snapshot's update log (same crash-overlap
        // reasoning as `snapshot_seq` for commits).
        let snapshot_batch_seq = snapshot.as_ref().map_or(0, |s| s.core.deltas.next_seq);
        let snapshot_epoch = snapshot.as_ref().map_or(0, |s| s.core.deltas.current_epoch);
        let mut next_session_id = snapshot.as_ref().map_or(0, |s| s.next_session_id);
        let mut wal_fingerprint: Option<u64> = None;
        let mut deltas = Vec::new();
        for record in scanned.records {
            match record {
                WalRecord::Commit(commit, access) => {
                    if commit.seq >= snapshot_seq {
                        admissions.push(Admission {
                            voided: voided.contains(&commit.seq),
                            commit,
                            access,
                        });
                    }
                }
                // Tombstones were gathered into `voided` above.
                WalRecord::Rollback { .. } => {}
                WalRecord::Session(s) => {
                    next_session_id = next_session_id.max(s.session + 1);
                    sessions.insert(s.session, s);
                }
                WalRecord::SessionClosed { session } => {
                    next_session_id = next_session_id.max(session + 1);
                    sessions.remove(&session);
                }
                WalRecord::Fingerprint { fingerprint } => {
                    wal_fingerprint.get_or_insert(fingerprint);
                }
                WalRecord::Update(batch) => {
                    if batch.seq >= snapshot_batch_seq {
                        deltas.push(DeltaReplay::Update(batch));
                    }
                }
                WalRecord::EpochSeal { epoch, through_seq } => {
                    if epoch > snapshot_epoch {
                        deltas.push(DeltaReplay::Seal { epoch, through_seq });
                    }
                }
            }
        }

        // The binding fingerprint: snapshot and ledger must agree when
        // both carry one (they can only diverge through tampering or a
        // mixed-up directory — refuse rather than guess).
        let fingerprint = match (snapshot.as_ref().map(|s| s.fingerprint), wal_fingerprint) {
            (Some(a), Some(b)) if a != b => {
                return Err(StorageError::IncompatibleState(format!(
                    "snapshot fingerprint {a:#x} disagrees with ledger fingerprint {b:#x}"
                )))
            }
            (snap, wal) => snap.or(wal),
        };

        let recovered = RecoveredState {
            fingerprint,
            snapshot,
            admissions,
            deltas,
            sessions: sessions.values().copied().collect(),
            next_session_id,
            wal_corruption: scanned.corruption,
        };
        Ok((
            ProvenanceStore {
                dir: dir.to_owned(),
                inner: Mutex::new(StoreInner {
                    writer,
                    sessions,
                    next_session_id,
                }),
                fsync: options.fsync,
                _dir_lock: dir_lock,
                appends_since_snapshot: AtomicU64::new(0),
                total_appends: AtomicU64::new(0),
            },
            recovered,
        ))
    }

    /// Binds a fresh (never-bound) store to a configuration fingerprint by
    /// writing the ledger's fingerprint frame. Callers do this once, when
    /// [`RecoveredState::fingerprint`] came back `None`.
    pub fn bind_fingerprint(&self, fingerprint: u64) -> Result<(), StorageError> {
        self.append(&WalRecord::Fingerprint { fingerprint })
    }

    /// Attaches an observability registry: subsequent ledger appends
    /// record their write and fsync latency (`wal.append_ns` /
    /// `wal.fsync_ns`) and bump the append/fsync counters. Attach before
    /// sharing the store; recording never changes what is written.
    pub fn set_metrics(&self, metrics: dprov_obs::MetricsRegistry) {
        self.inner
            .lock()
            .expect("store poisoned")
            .writer
            .set_metrics(metrics);
    }

    /// Ledger appends since the last compaction.
    #[must_use]
    pub fn appends_since_snapshot(&self) -> u64 {
        self.appends_since_snapshot.load(Ordering::SeqCst)
    }

    /// Total ledger appends through this handle.
    #[must_use]
    pub fn total_appends(&self) -> u64 {
        self.total_appends.load(Ordering::SeqCst)
    }

    fn append_locked(
        &self,
        inner: &mut StoreInner,
        record: &WalRecord,
    ) -> Result<(), StorageError> {
        inner.writer.append(record)?;
        match record {
            WalRecord::Session(s) => {
                inner.next_session_id = inner.next_session_id.max(s.session + 1);
                inner.sessions.insert(s.session, *s);
            }
            WalRecord::SessionClosed { session } => {
                inner.next_session_id = inner.next_session_id.max(session + 1);
                inner.sessions.remove(session);
            }
            _ => {}
        }
        self.total_appends.fetch_add(1, Ordering::SeqCst);
        self.appends_since_snapshot.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Appends one ledger record (durable on return in fsync mode),
    /// keeping the live session map in step with the ledger content.
    pub(crate) fn append(&self, record: &WalRecord) -> Result<(), StorageError> {
        let mut inner = self.inner.lock().expect("store poisoned");
        self.append_locked(&mut inner, record)
    }

    /// Persists a session noise-stream checkpoint. A checkpoint identical
    /// to the session's last persisted one (e.g. after a rejection or a
    /// cache hit, where no noise was drawn) is skipped — the recovered
    /// state would be the same, so the frame (and its fsync) buys nothing.
    pub fn record_session(&self, checkpoint: &SessionCheckpoint) -> Result<(), StorageError> {
        let mut inner = self.inner.lock().expect("store poisoned");
        if inner.sessions.get(&checkpoint.session) == Some(checkpoint) {
            return Ok(());
        }
        self.append_locked(&mut inner, &WalRecord::Session(*checkpoint))
    }

    /// Records that a session closed or expired.
    pub fn record_session_closed(&self, session: u64) -> Result<(), StorageError> {
        self.append(&WalRecord::SessionClosed { session })
    }

    /// Writes a new snapshot from `core` (captured by the caller under the
    /// system's commit freeze, which must still be held) plus the store's
    /// own live session map, then truncates the ledger: the
    /// log-plus-snapshot compaction step. The store lock is held across
    /// snapshot + truncate so no append can land between the snapshot
    /// capturing the world and the ledger being cleared.
    pub fn compact(
        &self,
        fingerprint: u64,
        core: &dprov_core::recorder::CoreState,
    ) -> Result<(), StorageError> {
        let mut inner = self.inner.lock().expect("store poisoned");
        let state = SnapshotState {
            fingerprint,
            core: core.clone(),
            sessions: inner.sessions.values().copied().collect(),
            next_session_id: inner.next_session_id,
        };
        write_snapshot(&Self::snapshot_path(&self.dir), &state, self.fsync)?;
        inner.writer.truncate_to_header()?;
        self.appends_since_snapshot.store(0, Ordering::SeqCst);
        // Re-stamp the fresh ledger with the binding fingerprint so the
        // ledger alone still identifies its configuration.
        inner
            .writer
            .append(&WalRecord::Fingerprint { fingerprint })?;
        Ok(())
    }

    /// Writes only a prefix of a record's frame without sync, simulating a
    /// crash mid-append. Crash-testing support for the failpoint harness.
    pub(crate) fn append_torn(&self, record: &WalRecord, keep: usize) -> Result<(), StorageError> {
        self.inner
            .lock()
            .expect("store poisoned")
            .writer
            .append_torn(record, keep)
    }

    /// Bytes currently in the ledger file.
    #[must_use]
    pub fn wal_len(&self) -> u64 {
        self.inner.lock().expect("store poisoned").writer.len()
    }
}

impl Recorder for ProvenanceStore {
    fn record_admission(
        &self,
        commit: &CommitRecord,
        access: Option<&DataAccess>,
    ) -> Result<(), StorageError> {
        self.append(&WalRecord::Commit(commit.clone(), access.copied()))
    }

    fn record_rollback(&self, seq: u64) -> Result<(), StorageError> {
        self.append(&WalRecord::Rollback { seq })
    }

    fn record_update(&self, batch: &EncodedBatch) -> Result<(), StorageError> {
        self.append(&WalRecord::Update(batch.clone()))
    }

    fn record_epoch_seal(&self, epoch: u64, through_seq: u64) -> Result<(), StorageError> {
        self.append(&WalRecord::EpochSeal { epoch, through_seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;
    use dprov_core::analyst::AnalystId;
    use dprov_core::mechanism::MechanismKind;
    use dprov_dp::rng::RngCheckpoint;

    fn commit(seq: u64, charged: f64) -> CommitRecord {
        CommitRecord {
            seq,
            analyst: AnalystId((seq % 2) as usize),
            view: "adult.age".to_owned(),
            mechanism: MechanismKind::AdditiveGaussian,
            prev_entry: 0.0,
            new_entry: charged,
            charged,
        }
    }

    fn access(epsilon: f64) -> DataAccess {
        DataAccess {
            epsilon,
            sigma: 9.0,
            sensitivity: 1.0,
        }
    }

    fn session(id: u64, draws: u64) -> SessionCheckpoint {
        SessionCheckpoint {
            session: id,
            analyst: AnalystId(0),
            rng: RngCheckpoint {
                draws,
                spare_normal: None,
            },
        }
    }

    #[test]
    fn open_append_reopen_recovers_everything() {
        let dir = scratch_dir("store-roundtrip");
        {
            let (store, recovered) = ProvenanceStore::open(&dir).unwrap();
            assert!(recovered.snapshot.is_none());
            assert!(recovered.admissions.is_empty());
            store.record_commit(&commit(0, 0.25)).unwrap();
            store
                .record_admission(&commit(1, 0.5), Some(&access(0.5)))
                .unwrap();
            store.record_session(&session(0, 77)).unwrap();
            assert_eq!(store.total_appends(), 3, "one frame per admission");
        }
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        let accesses: Vec<_> = recovered.admissions.iter().map(|a| a.access).collect();
        assert_eq!(accesses, vec![None, Some(access(0.5))]);
        assert_eq!(recovered.sessions, vec![session(0, 77)]);
        assert_eq!(recovered.next_session_id, 1);
        assert!(recovered.wal_corruption.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tombstones_void_their_commit() {
        let dir = scratch_dir("store-tombstone");
        {
            let (store, _) = ProvenanceStore::open(&dir).unwrap();
            store.record_commit(&commit(0, 0.25)).unwrap();
            store
                .record_admission(&commit(1, 0.5), Some(&access(0.5)))
                .unwrap();
            store.record_rollback(1).unwrap();
            store.record_commit(&commit(2, 0.125)).unwrap();
        }
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        let seqs: Vec<(u64, bool)> = recovered
            .admissions
            .iter()
            .map(|a| (a.commit.seq, a.voided))
            .collect();
        assert_eq!(seqs, vec![(0, false), (1, true), (2, false)]);
        // The voided admission keeps its access: it was counted live.
        assert_eq!(recovered.admissions[1].access, Some(access(0.5)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unchanged_session_checkpoints_are_not_re_appended() {
        let dir = scratch_dir("store-session-dedupe");
        let (store, _) = ProvenanceStore::open(&dir).unwrap();
        store.record_session(&session(0, 10)).unwrap();
        let appends = store.total_appends();
        // Same position again (rejection / cache hit): no new frame.
        store.record_session(&session(0, 10)).unwrap();
        assert_eq!(store.total_appends(), appends);
        // The stream advanced: a frame is written.
        store.record_session(&session(0, 11)).unwrap();
        assert_eq!(store.total_appends(), appends + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_lifecycle_merges_latest_and_drops_closed() {
        let dir = scratch_dir("store-sessions");
        {
            let (store, _) = ProvenanceStore::open(&dir).unwrap();
            store.record_session(&session(0, 10)).unwrap();
            store.record_session(&session(1, 5)).unwrap();
            store.record_session(&session(0, 99)).unwrap();
            store.record_session_closed(1).unwrap();
        }
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(recovered.sessions, vec![session(0, 99)]);
        assert_eq!(recovered.next_session_id, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_truncates_the_ledger_and_survives_reopen() {
        let dir = scratch_dir("store-compact");
        {
            let (store, _) = ProvenanceStore::open(&dir).unwrap();
            store.record_commit(&commit(0, 0.25)).unwrap();
            store.record_session(&session(3, 42)).unwrap();
            assert_eq!(store.appends_since_snapshot(), 2);
            let core = dprov_core::recorder::CoreState {
                next_seq: 1,
                ..Default::default()
            };
            store.compact(7, &core).unwrap();
            assert_eq!(store.appends_since_snapshot(), 0);
            // Post-compaction commits land in the fresh ledger.
            store.record_commit(&commit(1, 0.5)).unwrap();
        }
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        let snapshot = recovered.snapshot.expect("snapshot must exist");
        assert_eq!(snapshot.fingerprint, 7);
        assert_eq!(snapshot.core.next_seq, 1);
        // The snapshot carried the store's live session map forward.
        assert_eq!(snapshot.sessions, vec![session(3, 42)]);
        assert_eq!(snapshot.next_session_id, 4);
        assert_eq!(recovered.admissions.len(), 1);
        assert_eq!(recovered.admissions[0].commit.seq, 1);
        assert_eq!(recovered.sessions, vec![session(3, 42)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_lock_excludes_concurrent_openers() {
        let dir = scratch_dir("store-lock");
        let (store, _) = ProvenanceStore::open(&dir).unwrap();
        assert!(
            matches!(
                ProvenanceStore::open(&dir),
                Err(StorageError::Unavailable(_))
            ),
            "a second opener must be refused while the store lives"
        );
        drop(store);
        assert!(ProvenanceStore::open(&dir).is_ok(), "lock released on drop");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_binding_survives_wal_only_and_compaction() {
        let dir = scratch_dir("store-bind");
        {
            let (store, recovered) = ProvenanceStore::open(&dir).unwrap();
            assert_eq!(recovered.fingerprint, None, "fresh store is unbound");
            store.bind_fingerprint(0xABCD).unwrap();
            store.record_commit(&commit(0, 0.1)).unwrap();
        }
        {
            // WAL-only recovery (no snapshot yet) still sees the binding.
            let (store, recovered) = ProvenanceStore::open(&dir).unwrap();
            assert_eq!(recovered.fingerprint, Some(0xABCD));
            store
                .compact(0xABCD, &dprov_core::recorder::CoreState::default())
                .unwrap();
        }
        // Post-compaction: carried by the snapshot AND re-stamped into the
        // truncated ledger.
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(recovered.fingerprint, Some(0xABCD));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let roster = analysts_digest([("external", 2), ("internal", 4)]);
        let a = config_fingerprint(7, 2.0, 1e-9, 1, 0, roster);
        assert_eq!(a, config_fingerprint(7, 2.0, 1e-9, 1, 0, roster));
        assert_ne!(a, config_fingerprint(8, 2.0, 1e-9, 1, 0, roster));
        assert_ne!(a, config_fingerprint(7, 2.1, 1e-9, 1, 0, roster));
        assert_ne!(a, config_fingerprint(7, 2.0, 1e-8, 1, 0, roster));
        assert_ne!(a, config_fingerprint(7, 2.0, 1e-9, 2, 0, roster));
        assert_ne!(a, config_fingerprint(7, 2.0, 1e-9, 1, 1, roster));
        assert_ne!(a, config_fingerprint(7, 2.0, 1e-9, 1, 0, roster ^ 1));
    }

    #[test]
    fn analysts_digest_is_order_name_and_privilege_sensitive() {
        let base = analysts_digest([("external", 2), ("internal", 4)]);
        // Swapping the registration order re-attributes positional ids.
        assert_ne!(base, analysts_digest([("internal", 4), ("external", 2)]));
        // A privilege change alters every derived constraint.
        assert_ne!(base, analysts_digest([("external", 2), ("internal", 6)]));
        // A renamed analyst is a different person.
        assert_ne!(base, analysts_digest([("external", 2), ("internal2", 4)]));
        // Adding an analyst changes the roster.
        assert_ne!(
            base,
            analysts_digest([("external", 2), ("internal", 4), ("third", 1)])
        );
        assert_eq!(base, analysts_digest([("external", 2), ("internal", 4)]));
    }

    fn update(seq: u64) -> EncodedBatch {
        EncodedBatch {
            seq,
            table: "adult".to_owned(),
            inserts: vec![vec![seq as u32, 1]],
            deletes: Vec::new(),
        }
    }

    #[test]
    fn delta_records_recover_in_wal_order_and_respect_snapshot_watermarks() {
        let dir = scratch_dir("store-delta");
        {
            let (store, _) = ProvenanceStore::open(&dir).unwrap();
            store.record_update(&update(0)).unwrap();
            store.record_update(&update(1)).unwrap();
            store.record_epoch_seal(1, 2).unwrap();
            store.record_update(&update(2)).unwrap();
            // Crash before the second seal: batch 2 must recover pending.
        }
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(
            recovered.deltas,
            vec![
                DeltaReplay::Update(update(0)),
                DeltaReplay::Update(update(1)),
                DeltaReplay::Seal {
                    epoch: 1,
                    through_seq: 2
                },
                DeltaReplay::Update(update(2)),
            ]
        );

        // A snapshot covering batch seqs < 2 and epoch 1 filters the
        // already-folded prefix (the compact-crash overlap window).
        let state = crate::snapshot::SnapshotState {
            fingerprint: 1,
            core: dprov_core::recorder::CoreState {
                deltas: dprov_delta::UpdateLog {
                    next_seq: 2,
                    current_epoch: 1,
                    pending: Vec::new(),
                    sealed: Vec::new(),
                },
                ..Default::default()
            },
            sessions: Vec::new(),
            next_session_id: 0,
        };
        crate::snapshot::write_snapshot(&ProvenanceStore::snapshot_path(&dir), &state, false)
            .unwrap();
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(recovered.deltas, vec![DeltaReplay::Update(update(2))]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_skips_wal_records_already_folded_into_the_snapshot() {
        // Simulates a crash between compact()'s snapshot rename and its
        // ledger truncation: the snapshot covers seqs 0..3 AND the full
        // ledger is still on disk. Replaying the overlap would
        // double-count, so recovery must hand back only seqs >= 3.
        let dir = scratch_dir("store-overlap");
        {
            let (store, _) = ProvenanceStore::open(&dir).unwrap();
            for seq in 0..5 {
                store
                    .record_admission(&commit(seq, 0.1 * (seq + 1) as f64), Some(&access(0.1)))
                    .unwrap();
            }
        }
        // Write the snapshot directly (as compact() would, just before the
        // truncation it never got to perform).
        let state = crate::snapshot::SnapshotState {
            fingerprint: 1,
            core: dprov_core::recorder::CoreState {
                next_seq: 3,
                ..Default::default()
            },
            sessions: Vec::new(),
            next_session_id: 0,
        };
        crate::snapshot::write_snapshot(&ProvenanceStore::snapshot_path(&dir), &state, false)
            .unwrap();

        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        let commit_seqs: Vec<u64> = recovered.admissions.iter().map(|a| a.commit.seq).collect();
        assert_eq!(
            commit_seqs,
            vec![3, 4],
            "pre-snapshot admissions must be skipped"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One CRC-valid commit frame at `seq = u64::MAX` used to overflow
    /// `seq + 1` while recovering (a panic in debug builds, a `next_seq`
    /// wrapped to 0 in release); a snapshot whose counters sit at
    /// `u64::MAX` likewise. Both are refused with a typed error, the files
    /// untouched.
    #[test]
    fn a_sequence_number_at_u64_max_is_refused_not_wrapped() {
        let dir = scratch_dir("store-seq-overflow");
        let wal = ProvenanceStore::wal_path(&dir);
        let mut bytes = crate::wal::WAL_MAGIC.to_vec();
        bytes.extend(
            WalRecord::Commit(commit(u64::MAX, 0.1), None)
                .encode_frame()
                .unwrap(),
        );
        std::fs::write(&wal, &bytes).unwrap();
        assert!(matches!(
            ProvenanceStore::open(&dir),
            Err(StorageError::Corrupt { ref file, ref reason, .. })
                if file == "wal" && reason.contains("u64::MAX")
        ));
        assert_eq!(
            std::fs::read(&wal).unwrap(),
            bytes,
            "the ledger is untouched"
        );
        std::fs::remove_file(&wal).unwrap();

        let snapshot = |next_seq, batch_seq| crate::snapshot::SnapshotState {
            core: dprov_core::recorder::CoreState {
                next_seq,
                deltas: dprov_delta::UpdateLog {
                    next_seq: batch_seq,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        for state in [snapshot(u64::MAX, 0), snapshot(0, u64::MAX)] {
            crate::snapshot::write_snapshot(&ProvenanceStore::snapshot_path(&dir), &state, false)
                .unwrap();
            assert!(matches!(
                ProvenanceStore::open(&dir),
                Err(StorageError::Corrupt { ref file, ref reason, .. })
                    if file == "snapshot" && reason.contains("u64::MAX")
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
