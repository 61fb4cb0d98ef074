//! End-to-end epoch equivalence (the dynamic-data acceptance suite): a
//! workload of interleaved update batches, epoch seals and multi-analyst
//! queries must produce **bit-identical** answers, noise streams and
//! budget charges whether or not the service crashes and recovers
//! mid-workload — including a crash landing *between* update WAL frames
//! and their epoch seal, which must recover to the exact pre-crash sealed
//! state with the unsealed updates pending. (Incremental patching ==
//! full rebuild is pinned one layer down: `dprov-delta`'s `incremental`
//! proptests and `dprov-core`'s per-seal histogram check.)

use std::collections::HashSet;
use std::path::Path;

use dprov_core::analyst::{AnalystId, AnalystRegistry};
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::recorder::ReleaseState;
use dprov_core::system::DProvDb;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
use dprov_server::{DurabilityConfig, QueryService, ServiceConfig, SessionId};
use dprov_storage::snapshot::read_snapshot;
use dprov_storage::wal::scan;
use dprov_storage::{ProvenanceStore, WalRecord};
use dprov_workloads::skew::{generate_stream, StreamEvent, StreamingConfig};

const SEED: u64 = 33;
const ANALYSTS: usize = 2;

fn build_system(mechanism: MechanismKind) -> DProvDb {
    let db = adult_database(600, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("external", 2).unwrap();
    registry.register("internal", 4).unwrap();
    let config = SystemConfig::new(10.0).unwrap().with_seed(SEED);
    DProvDb::new(db, catalog, registry, config, mechanism).unwrap()
}

fn service_config() -> ServiceConfig {
    // One worker: the two-session workload is then fully deterministic.
    ServiceConfig::builder()
        .workers(1)
        .updaters(&["loader"])
        .build()
        .unwrap()
}

fn durability(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig::builder(dir)
        .fsync(false)
        .snapshot_every(0)
        .build()
        .unwrap()
}

fn stream() -> Vec<StreamEvent> {
    let db = adult_database(600, 1);
    let mut config = StreamingConfig::update_heavy("adult", ANALYSTS, 14).with_seed(SEED);
    config.base.accuracy_range = (2_000.0, 20_000.0);
    generate_stream(&db, &config).unwrap()
}

/// Everything the acceptance criterion compares, bit-for-bit.
#[derive(Debug, PartialEq)]
struct RunTrace {
    /// `(answered, value bits, epsilon bits, epoch)` per query, in order.
    answers: Vec<(bool, u64, u64, u64)>,
    /// `(epoch, rows, views_patched, invalidated)` per seal, in order.
    seals: Vec<(u64, usize, usize, usize)>,
    ledger: Vec<(AnalystId, u64)>,
    /// Each analyst's release count in the derived ledger.
    releases: Vec<u64>,
    tight_epsilon: u64,
    row_totals: Vec<u64>,
    final_epoch: u64,
    /// Exact audit answers over the final state.
    audits: Vec<u64>,
}

struct Driver<'a> {
    service: &'a QueryService,
    sessions: Vec<SessionId>,
}

impl Driver<'_> {
    fn run(
        &self,
        events: &[StreamEvent],
        answers: &mut Vec<(bool, u64, u64, u64)>,
        seals: &mut Vec<(u64, usize, usize, usize)>,
    ) {
        for event in events {
            match event {
                StreamEvent::Query { analyst, request } => {
                    let outcome = self
                        .service
                        .submit_wait(self.sessions[*analyst], request.clone())
                        .expect("submission must not hard-fail");
                    answers.push(match outcome.answered() {
                        Some(a) => (
                            true,
                            a.value.to_bits(),
                            a.epsilon_charged.to_bits(),
                            a.epoch,
                        ),
                        None => (false, 0, 0, 0),
                    });
                }
                StreamEvent::Update(batch) => {
                    self.service.apply_update(batch).expect("valid batch");
                }
                StreamEvent::Seal => {
                    let report = self.service.seal_epoch().expect("seal");
                    seals.push((
                        report.epoch,
                        report.rows,
                        report.views_patched.len(),
                        report.synopses_invalidated,
                    ));
                }
            }
        }
    }
}

/// Each analyst's release count in the ledger derived from `system`.
fn release_counts(system: &DProvDb) -> Vec<u64> {
    let ledger = system.ledger();
    (0..ANALYSTS)
        .map(|a| ledger.releases_to(AnalystId(a)))
        .collect()
}

/// Each analyst's releases as the store in `dir` holds them: the
/// snapshot's counts plus the non-voided admissions the WAL adds past the
/// snapshot. Reads the files without opening the store, so a running
/// service may still hold it.
fn durable_release_counts(dir: &Path) -> Vec<u64> {
    let mut counts = vec![0; ANALYSTS];
    let snapshot = read_snapshot(&ProvenanceStore::snapshot_path(dir)).unwrap();
    let folded = snapshot.as_ref().map_or(0, |s| s.core.next_seq);
    if let Some(snapshot) = snapshot {
        let ReleaseState::Counts(releases) = snapshot.core.releases else {
            panic!("the service writes release counts");
        };
        for (analyst, n) in releases {
            counts[analyst.0] += n;
        }
    }
    let records = scan(&ProvenanceStore::wal_path(dir)).unwrap().records;
    let voided: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Rollback { seq } => Some(*seq),
            _ => None,
        })
        .collect();
    for record in &records {
        if let WalRecord::Commit(commit, _) = record {
            if commit.seq >= folded && !voided.contains(&commit.seq) {
                counts[commit.analyst.0] += 1;
            }
        }
    }
    counts
}

fn trace_of(
    service: &QueryService,
    answers: Vec<(bool, u64, u64, u64)>,
    seals: Vec<(u64, usize, usize, usize)>,
) -> RunTrace {
    let system = service.system();
    let audits: Vec<u64> = [
        Query::count("adult"),
        Query::range_count("adult", "age", 25, 45),
        Query::sum("adult", "hours_per_week"),
    ]
    .iter()
    .map(|q| system.true_answer(q).unwrap().to_bits())
    .collect();
    RunTrace {
        answers,
        seals,
        ledger: system
            .ledger()
            .all()
            .into_iter()
            .map(|(a, b)| (a, b.epsilon.value().to_bits()))
            .collect(),
        releases: release_counts(system),
        tight_epsilon: system.tight_accounting().epsilon.value().to_bits(),
        row_totals: (0..ANALYSTS)
            .map(|a| system.provenance().row_total(AnalystId(a)).to_bits())
            .collect(),
        final_epoch: system.current_epoch(),
        audits,
    }
}

fn open_sessions(service: &QueryService) -> Vec<SessionId> {
    (0..ANALYSTS)
        .map(|a| service.open_session(AnalystId(a)).unwrap())
        .collect()
}

/// One uninterrupted volatile run.
fn uninterrupted(mechanism: MechanismKind) -> RunTrace {
    let events = stream();
    let service = QueryService::start(
        std::sync::Arc::new(build_system(mechanism)),
        service_config(),
    );
    let driver = Driver {
        service: &service,
        sessions: open_sessions(&service),
    };
    let (mut answers, mut seals) = (Vec::new(), Vec::new());
    driver.run(&events, &mut answers, &mut seals);
    trace_of(&service, answers, seals)
}

/// The same workload with a hard drop + recovery at `crash_at` events.
fn interrupted(mechanism: MechanismKind, crash_at: usize) -> RunTrace {
    let events = stream();
    let dir = dprov_storage::scratch_dir(&format!("epoch-eq-{mechanism}-{crash_at}"));
    let (mut answers, mut seals, sessions) = {
        let (service, _) = QueryService::start_durable(
            build_system(mechanism),
            service_config(),
            durability(&dir),
        )
        .unwrap();
        let driver = Driver {
            service: &service,
            sessions: open_sessions(&service),
        };
        let (mut answers, mut seals) = (Vec::new(), Vec::new());
        driver.run(&events[..crash_at], &mut answers, &mut seals);
        assert_eq!(
            release_counts(service.system()),
            durable_release_counts(&dir),
            "{mechanism}: release counts before the crash"
        );
        // Checkpoint so the synopsis cache (and with it bit-exact noise
        // *continuation*) survives — same contract as recovery_equivalence.
        service.checkpoint().unwrap();
        let sessions = driver.sessions;
        (answers, seals, sessions)
        // Dropped WITHOUT shutdown: the crash.
    };
    let trace = {
        let (service, report) = QueryService::start_durable(
            build_system(mechanism),
            service_config(),
            durability(&dir),
        )
        .unwrap();
        assert!(report.snapshot_restored);
        let driver = Driver {
            service: &service,
            sessions,
        };
        driver.run(&events[crash_at..], &mut answers, &mut seals);
        trace_of(&service, answers, seals)
    };
    // The uninterrupted run's counts equal these through the trace.
    assert_eq!(
        trace.releases,
        durable_release_counts(&dir),
        "{mechanism}: release counts at the end of the run"
    );
    std::fs::remove_dir_all(&dir).ok();
    trace
}

/// The index of an event boundary that lands *between* an update and its
/// seal — the crash window the WAL contract is about.
fn crash_between_update_and_seal(events: &[StreamEvent]) -> usize {
    for i in 1..events.len() {
        if matches!(events[i - 1], StreamEvent::Update(_)) && matches!(events[i], StreamEvent::Seal)
        {
            return i;
        }
    }
    panic!("stream contains no update-then-seal boundary");
}

fn run_matrix(mechanism: MechanismKind) {
    let events = stream();
    assert!(
        events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Seal))
            .count()
            >= 2,
        "the stream must seal several epochs"
    );

    let reference = uninterrupted(mechanism);
    assert!(reference.final_epoch >= 2);
    assert!(reference.answers.iter().any(|a| a.0), "answers expected");

    // A mid-workload crash + recovery is invisible, including when the
    // crash lands between update frames and their seal.
    let crashed = interrupted(mechanism, events.len() / 2);
    assert_eq!(
        reference, crashed,
        "{mechanism}: a mid-workload restart must be invisible"
    );
    let window = crash_between_update_and_seal(&events);
    let crashed_in_window = interrupted(mechanism, window);
    assert_eq!(
        reference, crashed_in_window,
        "{mechanism}: a crash between update WAL frames and the epoch seal must recover \
         to the exact pre-crash sealed state and continue bit-identically"
    );
}

#[test]
fn epoch_equivalence_matrix_additive() {
    run_matrix(MechanismKind::AdditiveGaussian);
}

#[test]
fn epoch_equivalence_matrix_vanilla() {
    run_matrix(MechanismKind::Vanilla);
}
