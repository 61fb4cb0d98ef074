//! The tight accountant's durable state: one ledger frame per admission,
//! a snapshot whose size does not grow with the number of data accesses,
//! bit-exact recovery under every composition method, and stores written
//! in the previous format (a standalone frame per access, a version-2
//! snapshot listing every access) still opening with the same accounting.
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
use dprov_core::recorder::{CoreState, Recorder, TightState};
use dprov_core::system::DProvDb;
use dprov_dp::accountant::CompositionMethod;
use dprov_dp::budget::Budget;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
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

/// The budget state a recovery must reproduce: provenance entries, ledger
/// buckets and release count, and the tight accounting, floats as bits.
fn accounting(system: &DProvDb) -> (CoreState, (u64, u64)) {
    let state = system.export_durable_state();
    let core = CoreState {
        next_seq: state.next_seq,
        provenance: state.provenance,
        ledger: state.ledger,
        ledger_releases: state.ledger_releases,
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

/// A store written in the previous format opens with the provenance,
/// ledger and tight accounting of a live run of the same workload, bit for
/// bit — so the new composition order has the previous one's bits — and
/// keeps doing so once compacted into the current format.
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
        assert_eq!(recovered.admissions.len(), 6, "{name}: the ledger suffix");
        assert!(
            recovered.admissions.iter().all(|a| a.access.is_some()),
            "{name}: every access frame attached to its commit"
        );
        let fresh = legacy_system(mechanism);
        replay(&fresh, &recovered);
        assert_eq!(accounting(&fresh), want, "{name}");

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
        assert!(matches!(
            recovered.snapshot.as_ref().unwrap().core.tight,
            TightState::Accountant(_)
        ));
        let upgraded = legacy_system(mechanism);
        replay(&upgraded, &recovered);
        assert_eq!(accounting(&upgraded), want, "{name}: after compaction");
        std::fs::remove_dir_all(&dir).ok();
    }
}
