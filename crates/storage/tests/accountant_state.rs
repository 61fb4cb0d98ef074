//! The tight accountant's durable state: one ledger frame per admission,
//! a snapshot whose size does not grow with the number of data accesses,
//! bit-exact recovery under every composition method, and stores written
//! in a previous format (a standalone frame per access, a version-2
//! snapshot listing every access and carrying a ledger section) still
//! opening with the same accounting.
//!
//! `fixtures/legacy-{vanilla,additive}` were written by the previous
//! format's code running [`legacy_workload`] on [`legacy_system`], with a
//! compaction before request 6 — so each holds a version-2 snapshot and a
//! ledger suffix of commit frames each followed by its access frame.

use std::path::Path;
use std::sync::Arc;

use dprov_core::analyst::{AnalystId, AnalystRegistry};
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::QueryRequest;
use dprov_core::recorder::{CoreState, Recorder, ReleaseState, TightState};
use dprov_core::system::DProvDb;
use dprov_dp::accountant::CompositionMethod;
use dprov_dp::budget::Budget;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
use dprov_storage::codec::{crc32, Encoder};
use dprov_storage::snapshot::read_snapshot;
use dprov_storage::{scratch_dir, ProvenanceStore, RecoveredState, StoreOptions};

const METHODS: [CompositionMethod; 4] = [
    CompositionMethod::Sequential,
    CompositionMethod::Advanced,
    CompositionMethod::Rdp,
    CompositionMethod::Zcdp,
];
const MECHANISMS: [MechanismKind; 2] = [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian];

fn system(mechanism: MechanismKind, method: CompositionMethod, total_epsilon: f64) -> DProvDb {
    let db = adult_database(300, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("external", 2).unwrap();
    registry.register("internal", 4).unwrap();
    let config = SystemConfig::new(total_epsilon)
        .unwrap()
        .with_seed(7)
        .with_composition(method);
    DProvDb::new(db, catalog, registry, config, mechanism).unwrap()
}

fn legacy_system(mechanism: MechanismKind) -> DProvDb {
    system(mechanism, CompositionMethod::Rdp, 50.0)
}

/// Privacy-mode requests on one view with a growing epsilon, and
/// accuracy-mode requests on another with a tightening variance: every
/// request is a fresh release.
fn legacy_workload() -> Vec<(AnalystId, QueryRequest)> {
    (0..12)
        .map(|i| {
            let request = if i % 3 == 2 {
                QueryRequest::with_accuracy(
                    Query::range_count("adult", "hours_per_week", 20, 40 + i as i64),
                    400.0 - 20.0 * i as f64,
                )
            } else {
                QueryRequest::with_privacy(
                    Query::range_count("adult", "age", 20, 40),
                    0.1 * (i + 1) as f64,
                )
            };
            (AnalystId(i % 2), request)
        })
        .collect()
}

fn bits(budget: Budget) -> (u64, u64) {
    (
        budget.epsilon.value().to_bits(),
        budget.delta.value().to_bits(),
    )
}

/// Replays a recovered store into `fresh`: the snapshot, then every
/// admission of the ledger suffix.
fn replay(fresh: &DProvDb, recovered: &RecoveredState) {
    if let Some(snapshot) = &recovered.snapshot {
        fresh.import_durable_state(&snapshot.core).unwrap();
    }
    for admission in &recovered.admissions {
        fresh.replay_admission(admission).unwrap();
    }
}

/// The budget state a recovery must reproduce: provenance entries, each
/// analyst's release count, and the tight accounting, floats as bits.
fn accounting(system: &DProvDb) -> (CoreState, (u64, u64)) {
    let state = system.export_durable_state();
    let core = CoreState {
        next_seq: state.next_seq,
        provenance: state.provenance,
        releases: state.releases,
        ..CoreState::default()
    };
    (core, bits(system.tight_accounting()))
}

/// Runs the workload on a durable system in `dir`, compacting before
/// request `compact_before` (`legacy_workload().len()` compacts at the
/// end), and returns the live accounting.
fn durable_run(
    dir: &Path,
    mechanism: MechanismKind,
    method: CompositionMethod,
    compact_before: Option<usize>,
) -> (CoreState, (u64, u64)) {
    let (store, _) = ProvenanceStore::open_with(dir, StoreOptions { fsync: false }).unwrap();
    let store = Arc::new(store);
    let mut live = system(mechanism, method, 50.0);
    live.set_recorder(Arc::clone(&store) as Arc<dyn Recorder>);
    let workload = legacy_workload();
    for (i, (analyst, request)) in workload.iter().enumerate() {
        if compact_before == Some(i) {
            store.compact(1, &live.export_durable_state()).unwrap();
        }
        assert!(live.submit(*analyst, request).unwrap().is_answered());
    }
    if compact_before == Some(workload.len()) {
        store.compact(1, &live.export_durable_state()).unwrap();
    }
    let appends = store.total_appends();
    let admissions = workload.len() as u64;
    assert_eq!(appends, admissions, "{mechanism}: one frame per admission");
    accounting(&live)
}

#[test]
fn every_composition_method_recovers_bit_exactly_through_the_store() {
    let requests = legacy_workload().len();
    for mechanism in MECHANISMS {
        for method in METHODS {
            for (label, compact_before) in [
                ("ledger only", None),
                ("snapshot only", Some(requests)),
                ("snapshot + ledger suffix", Some(requests / 2)),
            ] {
                let dir = scratch_dir("accountant-recovery");
                let live = durable_run(&dir, mechanism, method, compact_before);
                let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
                assert_eq!(recovered.snapshot.is_some(), compact_before.is_some());
                let fresh = system(mechanism, method, 50.0);
                replay(&fresh, &recovered);
                assert_eq!(accounting(&fresh), live, "{mechanism}/{method:?}: {label}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// The snapshot's byte size after 10 and after 1 000 fresh releases on the
/// same (analyst, view) cells is the same: the tight accountant's state is
/// a fixed number of sums, not a list of accesses.
#[test]
fn snapshot_size_is_flat_in_the_number_of_accesses() {
    for mechanism in MECHANISMS {
        let dir = scratch_dir("accountant-flat");
        let (store, _) = ProvenanceStore::open_with(&dir, StoreOptions { fsync: false }).unwrap();
        let store = Arc::new(store);
        let mut live = system(mechanism, CompositionMethod::Rdp, 400.0);
        live.set_recorder(Arc::clone(&store) as Arc<dyn Recorder>);
        let mut sizes = Vec::new();
        for i in 0..1_000 {
            // A growing epsilon makes every request a fresh release.
            let epsilon = 0.01 + 1e-5 * i as f64;
            let request =
                QueryRequest::with_privacy(Query::range_count("adult", "age", 20, 40), epsilon);
            let answer = live.submit(AnalystId(1), &request).unwrap();
            assert!(!answer.answered().unwrap().from_cache);
            if i + 1 == 10 || i + 1 == 1_000 {
                store.compact(1, &live.export_durable_state()).unwrap();
                let snapshot = ProvenanceStore::snapshot_path(&dir);
                sizes.push(std::fs::metadata(snapshot).unwrap().len());
            }
        }
        let state = live.export_durable_state();
        match state.tight {
            TightState::Accountant(tight) => assert_eq!(tight.releases, 1_000),
            TightState::LegacyAccesses(_) => panic!("export writes the accountant state"),
        }
        assert_eq!(
            sizes[0], sizes[1],
            "{mechanism}: snapshot grew with accesses"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A store written in a previous format opens with the provenance, release
/// counts (recovered from the ledger section's δ) and tight accounting of
/// a live run of the same workload, bit for bit — so the new composition
/// order has the previous one's bits — and keeps doing so once compacted
/// into the current format.
#[test]
fn a_store_in_the_previous_format_opens_with_the_same_accounting() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (name, mechanism) in [
        ("legacy-vanilla", MechanismKind::Vanilla),
        ("legacy-additive", MechanismKind::AdditiveGaussian),
    ] {
        let live = legacy_system(mechanism);
        for (analyst, request) in legacy_workload() {
            assert!(live.submit_shared(analyst, &request).unwrap().is_answered());
        }
        let want = accounting(&live);

        let dir = scratch_dir("accountant-legacy");
        for file in ["wal.log", "snapshot.dps"] {
            std::fs::copy(fixtures.join(name).join(file), dir.join(file)).unwrap();
        }
        let (store, recovered) = ProvenanceStore::open(&dir).unwrap();
        let snapshot = recovered.snapshot.as_ref().unwrap();
        assert!(matches!(snapshot.core.tight, TightState::LegacyAccesses(_)));
        assert!(matches!(
            snapshot.core.releases,
            ReleaseState::LegacyLedger { .. }
        ));
        assert_eq!(recovered.admissions.len(), 6, "{name}: the ledger suffix");
        assert!(
            recovered.admissions.iter().all(|a| a.access.is_some()),
            "{name}: every access frame attached to its commit"
        );
        let fresh = legacy_system(mechanism);
        replay(&fresh, &recovered);
        assert_eq!(accounting(&fresh), want, "{name}");
        assert_eq!(fresh.ledger().all(), live.ledger().all(), "{name}");

        // Compacted, the store holds the current format and recovers the
        // same accounting.
        store
            .compact(
                recovered.fingerprint.unwrap(),
                &fresh.export_durable_state(),
            )
            .unwrap();
        drop(store);
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        let core = &recovered.snapshot.as_ref().unwrap().core;
        assert!(matches!(core.tight, TightState::Accountant(_)));
        assert!(matches!(core.releases, ReleaseState::Counts(_)));
        let upgraded = legacy_system(mechanism);
        replay(&upgraded, &recovered);
        assert_eq!(accounting(&upgraded), want, "{name}: after compaction");
        assert_eq!(upgraded.ledger().all(), live.ledger().all(), "{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Rewrites a current-format snapshot file as the version-3 encoding of
/// the same state: the release counts give way to the ledger section the
/// previous format derived from the same spend, one bucket per analyst.
fn as_version_3(bytes: &[u8], state: &CoreState, system: &DProvDb) -> Vec<u8> {
    let body = &bytes[20..bytes.len() - 4];
    // The body up to the release counts: fingerprint, next seq, provenance.
    let mut head = Encoder::new();
    head.put_u64(0);
    head.put_u64(0);
    head.put_u32(state.provenance.len() as u32);
    for entry in &state.provenance {
        head.put_u64(0);
        head.put_str(&entry.view);
        head.put_f64(0.0);
    }
    let head = head.into_bytes().len();
    let ReleaseState::Counts(counts) = &state.releases else {
        panic!("export writes release counts");
    };
    let tail = head + 4 + 16 * counts.len();

    let ledger = system.ledger();
    let mut section = Encoder::new();
    section.put_u32(ledger.all().len() as u32);
    for (analyst, budget) in ledger.all() {
        section.put_u64(analyst.0 as u64);
        section.put_u8(system.mechanism().code());
        section.put_f64(budget.epsilon.value());
        section.put_f64(budget.delta.value());
    }
    section.put_u64(ledger.releases() as u64);

    let mut v3_body = body[..head].to_vec();
    v3_body.extend(section.into_bytes());
    v3_body.extend(&body[tail..]);
    let mut v3 = bytes[..8].to_vec();
    v3.extend(3u32.to_le_bytes());
    v3.extend((v3_body.len() as u64).to_le_bytes());
    v3.extend(&v3_body);
    v3.extend(crc32(&v3_body).to_le_bytes());
    v3
}

/// The version-4 snapshot of a state is no larger than its version-3
/// encoding, and that encoding still opens: its ledger section is checked
/// against the provenance rows and yields the same release counts.
#[test]
fn a_v4_snapshot_is_no_larger_than_the_v3_encoding_of_the_same_state() {
    for mechanism in MECHANISMS {
        let live = legacy_system(mechanism);
        for (analyst, request) in legacy_workload() {
            assert!(live.submit_shared(analyst, &request).unwrap().is_answered());
        }
        let state = live.export_durable_state();
        let dir = scratch_dir("accountant-v3-size");
        let (store, _) = ProvenanceStore::open_with(&dir, StoreOptions { fsync: false }).unwrap();
        store.compact(1, &state).unwrap();
        let path = ProvenanceStore::snapshot_path(&dir);
        let v4 = std::fs::read(&path).unwrap();
        let v3 = as_version_3(&v4, &state, &live);
        assert!(
            v4.len() <= v3.len(),
            "{mechanism}: v4 snapshot {} bytes, v3 {}",
            v4.len(),
            v3.len()
        );

        std::fs::write(&path, &v3).unwrap();
        let decoded = read_snapshot(&path).unwrap().unwrap();
        let ReleaseState::LegacyLedger { buckets, releases } = &decoded.core.releases else {
            panic!("{mechanism}: a version-3 snapshot carries a ledger section");
        };
        assert_eq!(buckets.len(), 2);
        assert_eq!(*releases, legacy_workload().len() as u64);
        let fresh = legacy_system(mechanism);
        fresh.import_durable_state(&decoded.core).unwrap();
        assert_eq!(accounting(&fresh), accounting(&live), "{mechanism}");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
