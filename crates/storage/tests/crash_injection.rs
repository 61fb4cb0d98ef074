//! Crash-injection property suite: for **every** possible crash point of a
//! 64-charge workload — clean and torn — recovery must rebuild a state
//! that is a prefix of the committed history, never undercounts the spend
//! the process acknowledged nor the tight accounting it held at the
//! moment of death, and still satisfies every provenance constraint.
//!
//! Run with `cargo test -p dprov-storage -- --test-threads=1`; the
//! scheduled CI job sets `DPROV_CRASH_INJECTION_CASES=<n>` to sweep `n`
//! extra workload seeds on top of the default.

use std::sync::Arc;

use dprov_core::analyst::{AnalystId, AnalystRegistry};
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{QueryOutcome, QueryRequest};
use dprov_core::recorder::Admission;
use dprov_core::system::DProvDb;
use dprov_core::CoreError;
use dprov_dp::budget::Budget;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
use dprov_storage::{scratch_dir, CrashMode, FailpointRecorder, ProvenanceStore, StoreOptions};

const ANALYSTS: usize = 2;
const CHARGES: usize = 64;

fn build_system(mechanism: MechanismKind, seed: u64) -> DProvDb {
    let db = adult_database(300, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("external", 2).unwrap();
    registry.register("internal", 4).unwrap();
    // Generous table budget so all 64 charges are admitted; delta must stay
    // below 1/rows.
    let config = SystemConfig::new(400.0).unwrap().with_seed(seed);
    DProvDb::new(db, catalog, registry, config, mechanism).unwrap()
}

/// 64 privacy-oriented requests that each force a fresh charge: per
/// (analyst, view) the requested epsilon strictly increases, so neither
/// the per-analyst cache nor the additive mechanism's `min(ε_global,
/// P + ε_i)` update can absorb a request for free, under either mechanism.
fn workload() -> Vec<(AnalystId, QueryRequest)> {
    let views: [(&str, i64, i64); 2] = [("age", 20, 60), ("hours_per_week", 10, 70)];
    (0..CHARGES)
        .map(|i| {
            let analyst = AnalystId(i % ANALYSTS);
            let (attr, lo, hi) = views[(i / ANALYSTS) % views.len()];
            // Occurrence counter of this (analyst, view) pair, 0..16.
            let occurrence = (i / (ANALYSTS * views.len())) as f64;
            let epsilon = 0.05 * (occurrence + 1.0) + 0.001 * (i % ANALYSTS) as f64;
            (
                analyst,
                QueryRequest::with_privacy(Query::range_count("adult", attr, lo, hi), epsilon),
            )
        })
        .collect()
}

struct RunOutcome {
    /// Spend acknowledged to each analyst (sum of `epsilon_charged` over
    /// outcomes the submitter actually saw succeed).
    acked: Vec<f64>,
    /// Total ledger appends attempted by the workload.
    appends: u64,
    /// The live tight accounting at the end of the run (the moment of
    /// death when the failpoint fired).
    tight: Budget,
    /// The live ledger's release count of each analyst.
    releases: Vec<u64>,
}

/// Each analyst's release count in the ledger derived from `system`.
fn release_counts(system: &DProvDb) -> Vec<u64> {
    let ledger = system.ledger();
    (0..ANALYSTS)
        .map(|a| ledger.releases_to(AnalystId(a)))
        .collect()
}

/// Each analyst's non-voided admissions in a recovered write-ahead ledger.
fn wal_release_counts(admissions: &[Admission]) -> Vec<u64> {
    let mut counts = vec![0; ANALYSTS];
    for admission in admissions.iter().filter(|a| !a.voided) {
        counts[admission.commit.analyst.0] += 1;
    }
    counts
}

/// Runs the workload against a system wired to `recorder`; submissions
/// that die on the storage layer are tolerated (the process would log and
/// carry on — or crash — either way nothing further is acknowledged).
fn run_workload(system: &mut DProvDb, recorder: &FailpointRecorder) -> RunOutcome {
    let mut acked = vec![0.0; ANALYSTS];
    for (analyst, request) in workload() {
        match system.submit(analyst, &request) {
            Ok(QueryOutcome::Answered(a)) => acked[analyst.0] += a.epsilon_charged,
            Ok(QueryOutcome::Rejected { .. }) => {}
            Err(CoreError::Storage(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    RunOutcome {
        acked,
        appends: recorder.attempts(),
        tight: system.tight_accounting(),
        releases: release_counts(system),
    }
}

/// Recovers the store in `dir` into a fresh system and checks the three
/// crash-safety properties against the acknowledged spend.
fn assert_recovery_invariants(
    dir: &std::path::Path,
    mechanism: MechanismKind,
    seed: u64,
    live: &RunOutcome,
    label: &str,
) {
    let acked = &live.acked;
    let (_, recovered) = ProvenanceStore::open(dir).unwrap_or_else(|e| {
        panic!("{label}: recovery must not fail, got {e}");
    });
    assert!(recovered.snapshot.is_none(), "{label}: no compaction ran");

    // Property 1: the recovered history is a contiguous prefix of the
    // committed history (commit seqs 0..K without gaps).
    for (i, admission) in recovered.admissions.iter().enumerate() {
        assert_eq!(
            admission.commit.seq, i as u64,
            "{label}: recovered commits are not a contiguous prefix"
        );
    }

    let fresh = build_system(mechanism, seed);
    for admission in &recovered.admissions {
        fresh.replay_admission(admission).unwrap();
    }
    // The derived release counts: recovered, exactly the WAL's non-voided
    // admissions; live, never more (a tombstone the dead writer lost
    // leaves its admission counted on disk only).
    let wal = wal_release_counts(&recovered.admissions);
    assert_eq!(
        release_counts(&fresh),
        wal,
        "{label}: recovered release counts"
    );
    for (a, (live, wal)) in live.releases.iter().zip(&wal).enumerate() {
        assert!(
            live <= wal,
            "{label}: analyst {a} live release count {live} above the WAL's {wal}"
        );
    }

    // Property 2: recovered spend never undercounts acknowledged spend.
    let provenance = fresh.provenance();
    let ledger = fresh.ledger();
    for analyst in (0..ANALYSTS).map(AnalystId) {
        assert!(
            provenance.row_total(analyst) >= acked[analyst.0] - 1e-9,
            "{label}: analyst {analyst:?} recovered row total {} undercounts acknowledged {}",
            provenance.row_total(analyst),
            acked[analyst.0]
        );
        assert!(
            ledger.loss_to(analyst).epsilon.value() >= acked[analyst.0] - 1e-9,
            "{label}: analyst {analyst:?} recovered ledger undercounts acknowledged spend"
        );
    }
    // ... nor the tight accounting the process held when it died: every
    // access it counted rode in a commit that reached the ledger.
    assert!(
        fresh.tight_accounting().epsilon.value() >= live.tight.epsilon.value(),
        "{label}: recovered tight accounting {:?} undercounts the live {:?}",
        fresh.tight_accounting(),
        live.tight
    );

    // Property 3: every provenance constraint still holds post-recovery.
    for analyst in (0..ANALYSTS).map(AnalystId) {
        assert!(
            provenance.row_total(analyst) <= provenance.row_constraint(analyst) + 1e-6,
            "{label}: row constraint exceeded after recovery"
        );
    }
    for view in provenance.view_names() {
        let column = match mechanism {
            MechanismKind::Vanilla => provenance.column_sum(view),
            MechanismKind::AdditiveGaussian => provenance.column_max(view),
        };
        assert!(
            column <= provenance.col_constraint(view) + 1e-6,
            "{label}: column constraint exceeded after recovery"
        );
    }
    let total = match mechanism {
        MechanismKind::Vanilla => provenance.total_sum(),
        MechanismKind::AdditiveGaussian => provenance.total_of_column_maxes(),
    };
    assert!(
        total <= provenance.table_constraint() + 1e-6,
        "{label}: table constraint exceeded after recovery"
    );
}

/// Sweeps every crash point of the workload under one mechanism and seed.
fn sweep(mechanism: MechanismKind, seed: u64) {
    // Baseline run (no failpoint) to learn the total append count and
    // sanity-check the workload really produces 64 charges.
    let total_appends = {
        let dir = scratch_dir("crash-baseline");
        let (store, _) = ProvenanceStore::open_with(&dir, StoreOptions { fsync: false }).unwrap();
        let store = Arc::new(store);
        let recorder = Arc::new(FailpointRecorder::new(
            Arc::clone(&store),
            u64::MAX,
            CrashMode::Clean,
        ));
        let mut system = build_system(mechanism, seed);
        system.set_recorder(Arc::clone(&recorder) as Arc<dyn dprov_core::recorder::Recorder>);
        let outcome = run_workload(&mut system, &recorder);
        // Release every handle on the store (and its directory lock)
        // before recovery reopens it.
        drop(system);
        drop(recorder);
        drop(store);
        let (_, recovered) = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(
            recovered.admissions.len(),
            CHARGES,
            "workload must produce exactly {CHARGES} charges, got {}",
            recovered.admissions.len()
        );
        assert_eq!(
            outcome.releases,
            wal_release_counts(&recovered.admissions),
            "live release counts"
        );
        std::fs::remove_dir_all(&dir).ok();
        outcome.appends
    };

    for kill_at in 0..total_appends {
        // Alternate clean and torn deaths across the sweep so both file
        // shapes are exercised at every depth over the two mechanisms.
        let mode = if kill_at % 2 == 0 {
            CrashMode::Clean
        } else {
            CrashMode::Torn
        };
        let dir = scratch_dir("crash-sweep");
        let (store, _) = ProvenanceStore::open_with(&dir, StoreOptions { fsync: false }).unwrap();
        let recorder = Arc::new(FailpointRecorder::new(Arc::new(store), kill_at, mode));
        let mut system = build_system(mechanism, seed);
        system.set_recorder(Arc::clone(&recorder) as Arc<dyn dprov_core::recorder::Recorder>);
        let outcome = run_workload(&mut system, &recorder);
        assert!(recorder.is_dead(), "failpoint {kill_at} never fired");
        drop(system);
        drop(recorder);

        assert_recovery_invariants(
            &dir,
            mechanism,
            seed,
            &outcome,
            &format!("{mechanism}/seed={seed}/kill_at={kill_at}/{mode:?}"),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn extra_cases() -> u64 {
    std::env::var("DPROV_CRASH_INJECTION_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn every_crash_point_recovers_safely_additive() {
    sweep(MechanismKind::AdditiveGaussian, 13);
    for case in 0..extra_cases() {
        sweep(MechanismKind::AdditiveGaussian, 1_000 + case);
    }
}

#[test]
fn every_crash_point_recovers_safely_vanilla() {
    sweep(MechanismKind::Vanilla, 13);
    for case in 0..extra_cases() {
        sweep(MechanismKind::Vanilla, 2_000 + case);
    }
}
