//! Replicated-ledger walk-through: a gateway fronting a three-replica
//! budget ledger in one process — then the ledger leader is killed
//! mid-stream and nothing an analyst can observe changes.
//!
//! The demo wires the `dprov-cluster` pieces around an ordinary `DProvDb`:
//!
//! 1. a **gateway** attaching a 3-replica replicated budget ledger: every
//!    admission charge needs a majority ack before the answer is
//!    released;
//! 2. a **leader crash** halfway through the workload: the surviving
//!    majority elects a new leader inside the very next proposal's pump
//!    loop, charges keep replicating, and every answer (noise bits
//!    included) still matches a fault-free single-node oracle run.
//!
//! The point to watch: the crash is *loud* in the cluster metrics (a
//! second leader election) and *silent* in the analyst-visible trace —
//! the headline property is that replication changes durability, never
//! answers or budgets.
//!
//! ```text
//! cargo run --release --example cluster_demo
//! ```

use dprovdb::cluster::Gateway;
use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{QueryOutcome, QueryRequest};
use dprovdb::core::system::DProvDb;
use dprovdb::dp::rng::DpRng;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::query::Query;
use dprovdb::obs::MetricsRegistry;

const SEED: u64 = 42;
const ANALYSTS: usize = 2;
const ROUNDS: usize = 8;
const CRASH_AT: usize = 4;

fn build_system(seed: u64) -> DProvDb {
    let db = adult_database(5_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("external", 2).unwrap();
    registry.register("internal", 4).unwrap();
    let config = SystemConfig::new(50.0).unwrap().with_seed(seed);
    DProvDb::new(db, catalog, registry, config, MechanismKind::Vanilla).unwrap()
}

/// Disjoint per-analyst views with a variance bound that *tightens* every
/// round, so each submission misses the synopsis cache and must push a
/// fresh charge through the replication gate.
fn request(analyst: usize, round: usize) -> QueryRequest {
    let i = round as i64;
    let query = match analyst {
        0 => Query::range_count("adult", "age", 20 + i, 45 + i),
        _ => Query::range_count("adult", "hours_per_week", 10 + i, 35 + i),
    };
    QueryRequest::with_accuracy(query, 1_500.0 - 150.0 * round as f64)
}

/// What an analyst observes about one answer, floats as raw bits so the
/// comparison with the oracle is exact.
fn observe(outcome: QueryOutcome) -> (u64, u64) {
    match outcome {
        QueryOutcome::Answered(a) => (a.value.to_bits(), a.epsilon_charged.to_bits()),
        QueryOutcome::Rejected { reason } => panic!("unexpected rejection: {reason}"),
    }
}

fn fresh_rngs() -> Vec<DpRng> {
    (0..ANALYSTS)
        .map(|a| DpRng::for_stream(SEED, a as u64))
        .collect()
}

fn main() {
    // ---- fault-free oracle: plain single-node run, no cluster at all ----
    let oracle_system = build_system(SEED);
    let mut rngs = fresh_rngs();
    let mut oracle = Vec::new();
    for round in 0..ROUNDS {
        for (a, rng) in rngs.iter_mut().enumerate() {
            let outcome = oracle_system
                .submit_with_rng(AnalystId(a), &request(a, round), rng)
                .unwrap();
            oracle.push(observe(outcome));
        }
    }

    // ---- the replicated deployment ----
    let metrics = MetricsRegistry::new();
    let gateway = Gateway::new(3, SEED, metrics.clone());
    let mut system = build_system(SEED);
    gateway.attach(&mut system);
    let cluster = gateway.cluster();
    println!(
        "gateway up: 3 budget-ledger replicas (leader {:?})",
        cluster.lock().unwrap().leader()
    );

    let mut rngs = fresh_rngs();
    let mut observed = Vec::new();
    let mut crashed_leader = None;
    for round in 0..ROUNDS {
        if round == CRASH_AT {
            let mut sim = cluster.lock().unwrap();
            let leader = sim.leader().expect("a leader exists mid-run");
            sim.crash(leader);
            crashed_leader = Some(leader);
            println!("!! round {round}: ledger leader {leader} crashed (majority survives)");
        }
        for (a, rng) in rngs.iter_mut().enumerate() {
            let outcome = system
                .submit_with_rng(AnalystId(a), &request(a, round), rng)
                .unwrap();
            observed.push(observe(outcome));
        }
    }

    // ---- the headline checks ----
    assert_eq!(
        observed, oracle,
        "every answer and charge must be bit-identical to the fault-free oracle"
    );
    println!(
        "\n{} answers across the leader crash, all bit-identical to the oracle",
        observed.len()
    );

    let provenance = system.provenance();
    for a in 0..ANALYSTS {
        println!(
            "  analyst {a}: spent ε = {:.4} of ψ = {:.4} (same as single-node)",
            provenance.row_total(AnalystId(a)),
            provenance.row_constraint(AnalystId(a))
        );
    }

    let crashed = crashed_leader.expect("the schedule crashes one leader");
    let new_leader = cluster
        .lock()
        .unwrap()
        .leader()
        .expect("the surviving majority re-elected");
    assert_ne!(
        new_leader, crashed,
        "the crash must have forced a failover to a surviving replica"
    );
    let snap = metrics.snapshot();
    let acks = snap
        .histogram("cluster.quorum_ack_ns")
        .map_or(0, |h| h.count);
    println!(
        "  cluster: leadership failed over {crashed} -> {new_leader} — the crash is \
         visible here, not in the answers — with {acks} quorum-acknowledged replications"
    );

    println!("\nDone: a ledger-leader crash is invisible to every analyst.");
}
