//! Torn-write and bit-flip corruption suite: damage the write-ahead
//! ledger (its tail, its middle, its magic) and the snapshot header/body,
//! and verify recovery detects it via checksum, discards exactly a torn
//! suffix, refuses mid-file damage without touching the file, and surfaces
//! a typed [`StorageError`] — never a panic, never silent acceptance or
//! silent loss of damaged accounting.

use std::sync::Arc;

use dprov_core::analyst::{AnalystId, AnalystRegistry};
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::QueryRequest;
use dprov_core::recorder::Recorder;
use dprov_core::system::DProvDb;
use dprov_core::StorageError;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
use dprov_storage::{config_fingerprint, scratch_dir, ProvenanceStore, StoreOptions};

fn build_system(seed: u64) -> DProvDb {
    let db = adult_database(300, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("external", 2).unwrap();
    registry.register("internal", 4).unwrap();
    let config = SystemConfig::new(50.0).unwrap().with_seed(seed);
    DProvDb::new(
        db,
        catalog,
        registry,
        config,
        MechanismKind::AdditiveGaussian,
    )
    .unwrap()
}

/// Runs a short durable workload in `dir`, returning the number of commits
/// it persisted.
fn populate(dir: &std::path::Path, queries: usize) -> usize {
    let (store, _) = ProvenanceStore::open_with(dir, StoreOptions { fsync: false }).unwrap();
    let store = Arc::new(store);
    let mut system = build_system(7);
    system.set_recorder(Arc::clone(&store) as Arc<dyn Recorder>);
    for i in 0..queries {
        let epsilon = 0.1 * (i + 1) as f64;
        let request =
            QueryRequest::with_privacy(Query::range_count("adult", "age", 20, 60), epsilon);
        system
            .submit(AnalystId(i % 2), &request)
            .unwrap()
            .answered()
            .expect("workload query must be answered");
    }
    queries
}

#[test]
fn truncated_wal_tail_recovers_the_intact_prefix() {
    let dir = scratch_dir("corrupt-wal-truncate");
    populate(&dir, 6);
    let wal = ProvenanceStore::wal_path(&dir);
    let full = std::fs::read(&wal).unwrap();
    let (_, intact) = ProvenanceStore::open(&dir).unwrap();
    let full_admissions = intact.admissions.len();
    drop(intact);

    // Chop mid-way into the final frame.
    std::fs::write(&wal, &full[..full.len() - 9]).unwrap();
    let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
    assert!(
        matches!(recovered.wal_corruption, Some(StorageError::Corrupt { ref file, .. }) if file == "wal"),
        "truncation must surface a typed corruption, got {:?}",
        recovered.wal_corruption
    );
    // Exactly the torn admission (one frame: its commit and its access)
    // is gone.
    assert_eq!(recovered.admissions.len(), full_admissions - 1);
    // Whatever survived is a contiguous prefix and replays cleanly.
    for (i, a) in recovered.admissions.iter().enumerate() {
        assert_eq!(a.commit.seq, i as u64);
    }
    let fresh = build_system(7);
    for a in &recovered.admissions {
        fresh.replay_admission(a).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_wal_tail_is_detected_and_discarded() {
    let dir = scratch_dir("corrupt-wal-bitflip");
    populate(&dir, 6);
    let wal = ProvenanceStore::wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    // Flip one bit deep inside the last frame's payload.
    let idx = bytes.len() - 5;
    bytes[idx] ^= 0x10;
    std::fs::write(&wal, &bytes).unwrap();

    let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
    assert!(
        matches!(recovered.wal_corruption, Some(StorageError::Corrupt { ref reason, .. }) if reason.contains("checksum")),
        "bit flip must fail the frame checksum, got {:?}",
        recovered.wal_corruption
    );
    for (i, a) in recovered.admissions.iter().enumerate() {
        assert_eq!(a.commit.seq, i as u64, "survivors form a contiguous prefix");
    }
    // The reopened store truncated the damage: appends land cleanly again.
    let (store, recovered) = ProvenanceStore::open(&dir).unwrap();
    assert!(
        recovered.wal_corruption.is_none(),
        "damage already truncated"
    );
    store.record_session_closed(0).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_wal_damage_refuses_to_open_and_leaves_the_ledger_untouched() {
    let dir = scratch_dir("corrupt-wal-mid");
    let queries = populate(&dir, 6);
    let wal = ProvenanceStore::wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    // One bit in the first frame's payload (magic 8 + header 8 + 1): the
    // frame fails its checksum with more frames after it, so this is no
    // torn tail, and discarding from here would drop acknowledged charges.
    let at = 8 + 8 + 1;
    bytes[at] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();
    let err = ProvenanceStore::open(&dir)
        .map(|(_, recovered)| recovered.admissions.len())
        .expect_err("mid-ledger damage must refuse to open");
    match err {
        StorageError::Corrupt {
            file,
            offset,
            reason,
        } => {
            assert_eq!((file.as_str(), offset), ("wal", 8));
            assert!(reason.contains("checksum"), "{reason}");
        }
        other => panic!("expected ledger corruption, got {other:?}"),
    }
    assert_eq!(std::fs::read(&wal).unwrap(), bytes, "ledger left as it was");
    // Undo the flip: every charge is still there.
    bytes[at] ^= 0x01;
    std::fs::write(&wal, &bytes).unwrap();
    let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
    assert_eq!(recovered.admissions.len(), queries);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_wal_magic_is_a_hard_typed_error() {
    let dir = scratch_dir("corrupt-wal-magic");
    populate(&dir, 3);
    let wal = ProvenanceStore::wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[2] ^= 0x80;
    std::fs::write(&wal, &bytes).unwrap();
    assert!(matches!(
        ProvenanceStore::open(&dir),
        Err(StorageError::Corrupt { offset: 0, .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Compacts the populated store so a snapshot exists, then damages it.
fn populate_with_snapshot(dir: &std::path::Path) {
    let (store, _) = ProvenanceStore::open_with(dir, StoreOptions { fsync: false }).unwrap();
    let store = Arc::new(store);
    let mut system = build_system(7);
    system.set_recorder(Arc::clone(&store) as Arc<dyn Recorder>);
    for i in 0..4 {
        let request = QueryRequest::with_privacy(
            Query::range_count("adult", "age", 25, 55),
            0.2 * (i + 1) as f64,
        );
        system.submit(AnalystId(i % 2), &request).unwrap();
    }
    let fingerprint = config_fingerprint(
        7,
        50.0,
        1e-9,
        MechanismKind::AdditiveGaussian.code(),
        0,
        dprov_storage::analysts_digest([("external", 2), ("internal", 4)]),
    );
    store
        .compact(fingerprint, &system.export_durable_state())
        .unwrap();
}

#[test]
fn snapshot_header_corruption_is_a_typed_error_not_a_panic() {
    let dir = scratch_dir("corrupt-snap-header");
    populate_with_snapshot(&dir);
    let snap = ProvenanceStore::snapshot_path(&dir);
    let pristine = std::fs::read(&snap).unwrap();

    // Magic damage.
    let mut bytes = pristine.clone();
    bytes[4] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(matches!(
        ProvenanceStore::open(&dir),
        Err(StorageError::Corrupt { ref file, offset: 0, .. }) if file == "snapshot"
    ));

    // Version from the future.
    let mut bytes = pristine.clone();
    bytes[8] = 0x7F;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(matches!(
        ProvenanceStore::open(&dir),
        Err(StorageError::UnsupportedVersion { found: 0x7F, .. })
    ));

    // Declared body length lies about the file size.
    let mut bytes = pristine.clone();
    bytes[13] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    assert!(matches!(
        ProvenanceStore::open(&dir),
        Err(StorageError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_body_bit_flip_fails_the_checksum() {
    let dir = scratch_dir("corrupt-snap-body");
    populate_with_snapshot(&dir);
    let snap = ProvenanceStore::snapshot_path(&dir);
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = 20 + (bytes.len() - 24) / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&snap, &bytes).unwrap();
    match ProvenanceStore::open(&dir) {
        Err(StorageError::Corrupt { file, reason, .. }) => {
            assert_eq!(file, "snapshot");
            assert!(reason.contains("checksum"), "unexpected reason: {reason}");
        }
        other => panic!("expected snapshot corruption, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn intact_snapshot_plus_wal_suffix_round_trips_budget_state() {
    // The happy path the corruption cases guard: snapshot + later commits
    // recover into the exact live budget state.
    let dir = scratch_dir("corrupt-happy");
    let (store, _) = ProvenanceStore::open_with(&dir, StoreOptions { fsync: false }).unwrap();
    let store = Arc::new(store);
    let mut system = build_system(7);
    system.set_recorder(Arc::clone(&store) as Arc<dyn Recorder>);
    let request = |e: f64| {
        QueryRequest::with_privacy(Query::range_count("adult", "hours_per_week", 10, 60), e)
    };
    system.submit(AnalystId(0), &request(0.2)).unwrap();
    system.submit(AnalystId(1), &request(0.4)).unwrap();
    store.compact(99, &system.export_durable_state()).unwrap();
    // Two more commits after the snapshot.
    system.submit(AnalystId(0), &request(0.6)).unwrap();
    system.submit(AnalystId(1), &request(0.8)).unwrap();
    let live_provenance = system.provenance();
    let live_tight = system.tight_accounting();
    drop(system);
    drop(store);

    let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
    assert_eq!(recovered.snapshot.as_ref().unwrap().fingerprint, 99);
    assert_eq!(
        recovered.admissions.len(),
        2,
        "only the post-snapshot suffix"
    );
    let fresh = build_system(7);
    fresh
        .import_durable_state(&recovered.snapshot.unwrap().core)
        .unwrap();
    for a in &recovered.admissions {
        fresh.replay_admission(a).unwrap();
    }
    for analyst in [AnalystId(0), AnalystId(1)] {
        assert_eq!(
            fresh.provenance().row_total(analyst),
            live_provenance.row_total(analyst),
            "recovered budget state must be bit-exact"
        );
    }
    assert_eq!(fresh.tight_accounting(), live_tight);
    std::fs::remove_dir_all(&dir).ok();
}
