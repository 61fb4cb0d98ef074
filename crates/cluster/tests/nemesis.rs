//! Jepsen-style fault harness for the replicated budget ledger.
//!
//! Every test drives a real analyst workload through a `DProvDb` whose
//! provenance critical section is gated by a
//! [`dprov_cluster::ReplicatedRecorder`] over a deterministic
//! [`dprov_cluster::SimCluster`], while a seeded nemesis schedule
//! injects crashes, partitions and message loss. After every schedule
//! the harness asserts the three distributed-correctness properties:
//!
//! 1. **Recovered spend covers acknowledged spend** — replaying the
//!    committed replicated log of a surviving majority into a fresh
//!    system, through the single-node recovery path
//!    (`DProvDb::replay_admission`), reproduces every acknowledged
//!    provenance entry bit-identically, and a tight accounting that
//!    covers the live one (bit-identical when no ack was refused);
//! 2. **Per-analyst constraints hold** — row, column and table
//!    constraints are never overspent, faults or not;
//! 3. **Answers are bit-identical to a fault-free oracle** — a refused
//!    quorum ack aborts the submission with no memory mutation, so a
//!    healed retry (with the session RNG restored) reproduces exactly
//!    what a run without faults produces.
//!
//! Every system the harness checks — live and recovered — also keeps its
//! two spend records in step: the per-analyst privacy-loss ledger equals
//! the provenance row total.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use dprov_cluster::{Gateway, NodeId, ReplicatedRecorder, SimCluster};
use dprov_core::analyst::{AnalystId, AnalystRegistry};
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{QueryOutcome, QueryRequest};
use dprov_core::recorder::Admission;
use dprov_core::system::DProvDb;
use dprov_dp::rng::DpRng;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::query::Query;
use dprov_storage::wal::WalRecord;

const ANALYSTS: usize = 3;
const ROUNDS: usize = 8;
const REPLICAS: u64 = 3;
const PUMP: usize = 400;

fn build_system(seed: u64) -> DProvDb {
    let db = adult_database(800, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), (i + 1) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(50.0).unwrap().with_seed(seed);
    DProvDb::new(db, catalog, registry, config, MechanismKind::Vanilla).unwrap()
}

/// Disjoint views per analyst (the documented determinism envelope). The
/// variance bound *tightens* every round so each submission must refresh
/// its view synopsis and charge — a loosening bound would be answered
/// from the cache after round 0, bypassing the replication gate.
fn request(analyst: usize, round: usize) -> QueryRequest {
    let i = round as i64;
    let query = match analyst % 3 {
        0 => Query::range_count("adult", "age", 20 + i, 45 + i),
        1 => Query::range_count("adult", "hours_per_week", 10 + i, 35 + i),
        _ => Query::range_count("adult", "education_num", 1 + (i % 8), 8 + (i % 8)),
    };
    QueryRequest::with_accuracy(query, 1500.0 - 150.0 * round as f64)
}

/// Everything an analyst observes about one answer, floats as raw bits.
type Observed = (u64, Option<String>, u64, u64, bool, u64);

fn observe(outcome: QueryOutcome) -> Observed {
    match outcome {
        QueryOutcome::Answered(a) => (
            a.value.to_bits(),
            a.view,
            a.epsilon_charged.to_bits(),
            a.noise_variance.to_bits(),
            a.from_cache,
            a.epoch,
        ),
        QueryOutcome::Rejected { reason } => panic!("unexpected rejection: {reason}"),
    }
}

fn fresh_rngs(seed: u64) -> Vec<DpRng> {
    (0..ANALYSTS)
        .map(|a| DpRng::for_stream(seed, a as u64))
        .collect()
}

/// The fault-free reference: same system, same submission order, same
/// per-analyst RNG streams, no recorder.
fn oracle_run(seed: u64) -> (Vec<Vec<Observed>>, DProvDb) {
    let system = build_system(seed);
    let mut rngs = fresh_rngs(seed);
    let mut outcomes = vec![Vec::new(); ANALYSTS];
    for round in 0..ROUNDS {
        for a in 0..ANALYSTS {
            let outcome = system
                .submit_with_rng(AnalystId(a), &request(a, round), &mut rngs[a])
                .unwrap();
            outcomes[a].push(observe(outcome));
        }
    }
    (outcomes, system)
}

/// One nemesis action applied before a given round.
enum Nemesis {
    CrashLeader,
    RestartAll,
    IsolateLeader,
    Heal,
    DropOneIn(u64),
    DelayOneIn(u64),
}

fn apply(sim: &mut SimCluster, event: &Nemesis) {
    match event {
        Nemesis::CrashLeader => {
            if let Some(l) = sim.leader() {
                sim.crash(l);
            }
        }
        Nemesis::RestartAll => {
            for n in 0..sim.len() as u64 {
                sim.restart(n);
            }
        }
        Nemesis::IsolateLeader => {
            if let Some(l) = sim.leader() {
                sim.isolate(&[l]);
            }
        }
        Nemesis::Heal => {
            sim.heal();
            sim.set_drop_one_in(0);
            sim.set_delay_one_in(0);
        }
        Nemesis::DropOneIn(k) => sim.set_drop_one_in(*k),
        Nemesis::DelayOneIn(k) => sim.set_delay_one_in(*k),
    }
}

/// Submits with the clone-and-restore retry discipline: a refused ack
/// restores the RNG, heals the cluster, and tries again — so every
/// acknowledged answer matches the oracle bit-for-bit.
fn submit_acked(
    system: &DProvDb,
    cluster: &Arc<Mutex<SimCluster>>,
    analyst: usize,
    round: usize,
    rng: &mut DpRng,
    refused: &mut usize,
) -> Observed {
    let req = request(analyst, round);
    for _attempt in 0..4 {
        let backup = rng.clone();
        match system.submit_with_rng(AnalystId(analyst), &req, rng) {
            Ok(outcome) => return observe(outcome),
            Err(_) => {
                *rng = backup;
                *refused += 1;
                let mut sim = cluster.lock().unwrap();
                sim.heal();
                sim.set_drop_one_in(0);
                sim.set_delay_one_in(0);
                for n in 0..sim.len() as u64 {
                    sim.restart(n);
                }
                for _ in 0..60 {
                    sim.step();
                }
            }
        }
    }
    panic!("submission never acknowledged even after healing the cluster");
}

/// Runs a schedule, asserts answers + constraints, and returns the
/// faulted system plus cluster and the refused-ack count.
fn run_schedule(
    seed: u64,
    schedule: BTreeMap<usize, Vec<Nemesis>>,
) -> (DProvDb, Arc<Mutex<SimCluster>>, usize) {
    let (oracle, _) = oracle_run(seed);
    let mut system = build_system(seed);
    let cluster = Arc::new(Mutex::new(SimCluster::new(REPLICAS, seed)));
    let recorder = ReplicatedRecorder::new(Arc::clone(&cluster)).with_pump_rounds(PUMP);
    system.set_recorder(Arc::new(recorder));
    let mut rngs = fresh_rngs(seed);
    let mut refused = 0usize;
    let mut outcomes = vec![Vec::new(); ANALYSTS];
    for round in 0..ROUNDS {
        if let Some(events) = schedule.get(&round) {
            let mut sim = cluster.lock().unwrap();
            for event in events {
                apply(&mut sim, event);
            }
        }
        for a in 0..ANALYSTS {
            let observed = submit_acked(&system, &cluster, a, round, &mut rngs[a], &mut refused);
            outcomes[a].push(observed);
        }
    }
    assert_eq!(
        outcomes, oracle,
        "acknowledged answers diverged from the fault-free oracle"
    );
    assert_constraints(&system);
    (system, cluster, refused)
}

/// Each analyst's release count in the ledger derived from `system`.
fn release_counts(system: &DProvDb) -> Vec<u64> {
    let ledger = system.ledger();
    (0..ANALYSTS)
        .map(|a| ledger.releases_to(AnalystId(a)))
        .collect()
}

/// Each analyst's non-voided admissions in one node's committed log.
fn log_release_counts(sim: &SimCluster, node: NodeId) -> Vec<u64> {
    let records = sim.committed_records(node);
    let voided: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Rollback { seq } => Some(*seq),
            _ => None,
        })
        .collect();
    let mut counts = vec![0; ANALYSTS];
    for record in &records {
        if let WalRecord::Commit(commit, _) = record {
            if !voided.contains(&commit.seq) {
                counts[commit.analyst.0] += 1;
            }
        }
    }
    counts
}

fn assert_constraints(system: &DProvDb) {
    let provenance = system.provenance();
    for a in 0..ANALYSTS {
        let analyst = AnalystId(a);
        assert!(
            provenance.row_total(analyst) <= provenance.row_constraint(analyst) + 1e-6,
            "analyst {a} row constraint overspent"
        );
    }
    for view in provenance.view_names() {
        assert!(
            provenance.column_sum(view) <= provenance.col_constraint(view) + 1e-6,
            "column constraint overspent on {view}"
        );
    }
}

/// Recovers a fresh system from the committed replicated log of one live
/// node, through the single-node replay path: every admission goes
/// through `DProvDb::replay_admission`, marked voided when a rollback
/// tombstone names it, as `ProvenanceStore::open` feeds them.
fn recover_from(sim: &SimCluster, node: NodeId, seed: u64) -> DProvDb {
    let records = sim.committed_records(node);
    let voided: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Rollback { seq } => Some(*seq),
            _ => None,
        })
        .collect();
    let recovered = build_system(seed);
    for record in records {
        if let WalRecord::Commit(commit, access) = record {
            let voided = voided.contains(&commit.seq);
            recovered
                .replay_admission(&Admission {
                    commit,
                    access,
                    voided,
                })
                .unwrap();
        }
    }
    recovered
}

/// Asserts that recovery from a surviving majority reproduces every
/// acknowledged provenance entry bit-identically and covers the live
/// tight accounting, and returns the recovered system. Each admission's
/// access rides in its commit's quorum round, so with no refused ack the
/// recovered accountant is the live one bit for bit; a refused ack whose
/// entry was replicated all the same adds its access on recovery only —
/// the over-counting direction, like its charge.
fn assert_recovery(
    system: &DProvDb,
    cluster: &Arc<Mutex<SimCluster>>,
    seed: u64,
    refused: usize,
) -> DProvDb {
    let mut sim = cluster.lock().unwrap();
    // Recovery scenario: total restart, then only a majority comes back.
    for n in 0..sim.len() as u64 {
        sim.crash(n);
    }
    sim.heal();
    sim.restart(0);
    sim.restart(1);
    for _ in 0..200 {
        sim.step();
        if sim.leader().is_some() {
            break;
        }
    }
    let leader = sim.leader().expect("a majority must elect a leader");
    // Let the commit index catch up on the survivors.
    for _ in 0..30 {
        sim.step();
    }
    let recovered = recover_from(&sim, leader, seed);
    // The derived release counts: recovered, exactly the log's non-voided
    // admissions; live, the same unless a refused ack was replicated all
    // the same, which only the log counts.
    let (logged, live) = (log_release_counts(&sim, leader), release_counts(system));
    assert_eq!(
        release_counts(&recovered),
        logged,
        "recovered release counts"
    );
    if refused == 0 {
        assert_eq!(live, logged, "live release counts");
    }
    for (a, (live, logged)) in live.iter().zip(&logged).enumerate() {
        assert!(
            live <= logged,
            "analyst {a}: live release count {live} above the log's {logged}"
        );
    }
    let (live, replayed) = (system.provenance(), recovered.provenance());
    assert!(
        replayed.total_sum() > 0.0,
        "the workload must have replicated commits"
    );
    for a in 0..ANALYSTS {
        for view in live.view_names() {
            let acknowledged = live.entry(AnalystId(a), view);
            let got = replayed.entry(AnalystId(a), view);
            assert_eq!(
                got.to_bits(),
                acknowledged.to_bits(),
                "recovered entry for analyst {a} view {view} ({got}) is not \
                 bit-identical to the acknowledged state ({acknowledged})"
            );
        }
    }
    let (live, got) = (system.tight_accounting(), recovered.tight_accounting());
    assert!(
        live.epsilon.value() > 0.0,
        "the workload must access the data"
    );
    if refused == 0 {
        assert_eq!(got, live, "recovered tight accounting is not the live one");
    } else {
        assert!(
            got.epsilon.value() >= live.epsilon.value(),
            "recovered tight accounting {got:?} undercounts the live {live:?}"
        );
    }
    recovered
}

#[test]
fn fault_free_cluster_matches_the_oracle_and_recovers() {
    let (system, cluster, refused) = run_schedule(11, BTreeMap::new());
    assert_eq!(refused, 0, "no faults, no refusals");
    assert_recovery(&system, &cluster, 11, refused);
}

/// An additive admission is one replicated log entry and one quorum
/// round: the global growth it releases rides in its commit, and an
/// admission the global already covers carries no access.
#[test]
fn one_log_entry_per_additive_admission() {
    let db = adult_database(800, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("external", 2).unwrap();
    registry.register("internal", 4).unwrap();
    let config = SystemConfig::new(50.0).unwrap().with_seed(3);
    let mut system = DProvDb::new(
        db,
        catalog,
        registry,
        config,
        MechanismKind::AdditiveGaussian,
    )
    .unwrap();
    let cluster = Arc::new(Mutex::new(SimCluster::new(REPLICAS, 3)));
    system.set_recorder(Arc::new(ReplicatedRecorder::new(Arc::clone(&cluster))));
    let age =
        |epsilon| QueryRequest::with_privacy(Query::range_count("adult", "age", 20, 45), epsilon);
    let committed = || {
        let sim = cluster.lock().unwrap();
        // No leader is elected before the first proposal.
        sim.leader()
            .map(|leader| sim.committed_records(leader))
            .unwrap_or_default()
    };
    // Creates the global, grows it, then is covered by it.
    for (analyst, epsilon, grows) in [(0, 0.5, true), (1, 0.8, true), (0, 0.7, false)] {
        let before = committed().len();
        let outcome = system.submit(AnalystId(analyst), &age(epsilon)).unwrap();
        assert!(outcome.is_answered());
        let records = committed();
        assert_eq!(records.len(), before + 1, "one entry per admission");
        match &records[before] {
            WalRecord::Commit(_, access) => assert_eq!(access.is_some(), grows),
            other => panic!("expected a commit, got {other:?}"),
        }
    }
}

#[test]
fn leader_crashes_mid_stream_are_transparent() {
    let schedule = BTreeMap::from([
        (2, vec![Nemesis::CrashLeader]),
        (4, vec![Nemesis::RestartAll]),
        (5, vec![Nemesis::CrashLeader]),
        (7, vec![Nemesis::RestartAll]),
    ]);
    let (system, cluster, refused) = run_schedule(13, schedule);
    assert_recovery(&system, &cluster, 13, refused);
}

#[test]
fn minority_partition_refuses_acks_then_heals() {
    let schedule = BTreeMap::from([(3, vec![Nemesis::IsolateLeader]), (6, vec![Nemesis::Heal])]);
    let (system, cluster, refused) = run_schedule(17, schedule);
    assert!(
        refused > 0,
        "isolating the leader must refuse at least one ack"
    );
    assert_recovery(&system, &cluster, 17, refused);
}

#[test]
fn message_loss_and_reordering_change_no_answer() {
    let schedule = BTreeMap::from([
        (1, vec![Nemesis::DropOneIn(7), Nemesis::DelayOneIn(5)]),
        (6, vec![Nemesis::Heal]),
    ]);
    let (system, cluster, refused) = run_schedule(19, schedule);
    assert_recovery(&system, &cluster, 19, refused);
}

#[test]
fn combined_crash_and_partition_schedule_holds_every_property() {
    let schedule = BTreeMap::from([
        (1, vec![Nemesis::DropOneIn(9)]),
        (2, vec![Nemesis::CrashLeader]),
        (3, vec![Nemesis::RestartAll, Nemesis::IsolateLeader]),
        (5, vec![Nemesis::Heal, Nemesis::CrashLeader]),
        (6, vec![Nemesis::RestartAll]),
    ]);
    let (system, cluster, refused) = run_schedule(23, schedule);
    assert_recovery(&system, &cluster, 23, refused);
}

/// The serving wiring: `Gateway::new` + `attach` installs the replication
/// gate, and the ledger leader crashes mid-run. The surviving majority
/// keeps acknowledging, every answer matches the fault-free oracle bit for
/// bit, each admission is one committed log entry, and recovery from the
/// replicated log reproduces the acknowledged state.
#[test]
fn gateway_attach_survives_a_leader_crash_mid_run() {
    const SEED: u64 = 31;
    const CRASH_AT: usize = 4;
    let (oracle, _) = oracle_run(SEED);
    let mut system = build_system(SEED);
    let gateway = Gateway::new(REPLICAS, SEED, system.metrics().clone());
    gateway.attach(&mut system);
    let cluster = gateway.cluster();

    let mut rngs = fresh_rngs(SEED);
    let mut refused = 0usize;
    let mut outcomes = vec![Vec::new(); ANALYSTS];
    for round in 0..ROUNDS {
        if round == CRASH_AT {
            apply(&mut cluster.lock().unwrap(), &Nemesis::CrashLeader);
        }
        for a in 0..ANALYSTS {
            let observed = submit_acked(&system, &cluster, a, round, &mut rngs[a], &mut refused);
            outcomes[a].push(observed);
        }
    }
    assert_eq!(
        outcomes, oracle,
        "acknowledged answers diverged from the fault-free oracle"
    );
    assert_eq!(refused, 0, "a surviving majority acknowledges every charge");
    assert_constraints(&system);
    let records = {
        let sim = cluster.lock().unwrap();
        let leader = sim.leader().expect("the surviving majority re-elected");
        sim.committed_records(leader)
    };
    // Every submission tightens its bound, so each one is an admission.
    assert_eq!(
        records.len(),
        ANALYSTS * ROUNDS,
        "one log entry per admission"
    );
    assert!(records.iter().all(|r| matches!(r, WalRecord::Commit(..))));
    assert_recovery(&system, &cluster, SEED, refused);
}

#[test]
fn nemesis_schedules_are_reproducible() {
    let run = |seed| {
        let schedule = BTreeMap::from([
            (2, vec![Nemesis::CrashLeader]),
            (4, vec![Nemesis::RestartAll]),
        ]);
        let (system, _, refused) = run_schedule(seed, schedule);
        let provenance = system.provenance();
        let spend: Vec<u64> = (0..ANALYSTS)
            .map(|a| provenance.row_total(AnalystId(a)).to_bits())
            .collect();
        (spend, refused)
    };
    assert_eq!(run(29), run(29), "same seed + schedule, same run");
}
