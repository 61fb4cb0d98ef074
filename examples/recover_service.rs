//! Durable restart walk-through: crash a serving process, recover, keep
//! answering — with the privacy accounting intact to the bit.
//!
//! The example runs the same multi-analyst service twice over one durable
//! store directory:
//!
//! 1. **First life** — open a durable service, answer a batch of queries
//!    (every budget commit is write-ahead logged before it becomes
//!    visible), write one snapshot mid-way, then *drop the service without
//!    a clean shutdown* — the moral equivalent of `kill -9`.
//! 2. **Second life** — start again from the same directory. Recovery
//!    replays snapshot + ledger, restores both analyst sessions with their
//!    deterministic noise streams fast-forwarded, and the service keeps
//!    answering on the *same* session ids as if nothing happened.
//!
//! Watch the printed per-analyst budgets: the second life starts exactly
//! where the first one died — a restart never resets spent budget to zero,
//! which is the whole point of the durable provenance ledger. The example
//! asserts it: both analysts' row totals and the tight accounting after
//! recovery are the pre-crash values bit for bit.
//!
//! ```text
//! cargo run --release --example recover_service
//! ```

use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::QueryRequest;
use dprovdb::core::system::DProvDb;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::query::Query;
use dprovdb::server::{DurabilityConfig, QueryService, ServiceConfig, SessionId};

fn build_system() -> DProvDb {
    let db = adult_database(5_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("external", 2).unwrap();
    registry.register("internal", 6).unwrap();
    let config = SystemConfig::new(8.0).unwrap().with_seed(42);
    DProvDb::new(
        db,
        catalog,
        registry,
        config,
        MechanismKind::AdditiveGaussian,
    )
    .unwrap()
}

fn print_budgets(service: &QueryService, when: &str) {
    let provenance = service.system().provenance();
    println!("  budgets {when}:");
    for a in 0..2 {
        let analyst = AnalystId(a);
        println!(
            "    analyst {a}: spent ε = {:.4} of ψ = {:.4}",
            provenance.row_total(analyst),
            provenance.row_constraint(analyst)
        );
    }
}

/// Both analysts' row totals and the tight accounting, as raw bits.
fn accounting(service: &QueryService) -> (Vec<u64>, [u64; 2]) {
    let system = service.system();
    let provenance = system.provenance();
    let rows = (0..2)
        .map(|a| provenance.row_total(AnalystId(a)).to_bits())
        .collect();
    let tight = system.tight_accounting();
    let tight = [
        tight.epsilon.value().to_bits(),
        tight.delta.value().to_bits(),
    ];
    (rows, tight)
}

fn ask(service: &QueryService, session: SessionId, lo: i64, hi: i64, variance: f64) {
    let request = QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), variance);
    match service.submit_wait(session, request) {
        Ok(outcome) => match outcome.answered() {
            Some(a) => println!(
                "    [{session}] count(age in {lo}..={hi}) ≈ {:.1}  (ε += {:.4})",
                a.value, a.epsilon_charged
            ),
            None => println!("    [{session}] rejected: {outcome:?}"),
        },
        Err(e) => println!("    [{session}] failed: {e}"),
    }
}

fn main() {
    let dir = dprovdb::storage::scratch_dir("recover-example");
    let durability = DurabilityConfig::builder(dir.clone())
        .fsync(true)
        .snapshot_every(0) // explicit checkpointing below
        .build()
        .unwrap();

    println!("== first life (durable store at {}) ==", dir.display());
    let (sessions, before_crash) = {
        let (service, report) = QueryService::start_durable(
            build_system(),
            ServiceConfig::builder().workers(2).build().unwrap(),
            durability.clone(),
        )
        .expect("fresh store opens cleanly");
        assert_eq!(report.replayed_commits, 0);
        let s0 = service.open_session(AnalystId(0)).unwrap();
        let s1 = service.open_session(AnalystId(1)).unwrap();
        for i in 0..4 {
            ask(&service, s1, 25 + i, 55, 900.0 - 100.0 * i as f64);
            ask(&service, s0, 30 + i, 50, 2_500.0);
        }
        print_budgets(&service, "before the crash");
        // Fold the ledger into a snapshot once, then keep serving.
        service.checkpoint().unwrap();
        ask(&service, s1, 20, 60, 450.0);
        let before_crash = accounting(&service);
        println!("  ... power cord yanked (service dropped, no shutdown) ...");
        ((s0, s1), before_crash)
        // The QueryService (and the whole DProvDb) drop here. Only the
        // store directory survives — exactly a crashed process.
    };

    println!("\n== second life (recovering from the same directory) ==");
    let (service, report) = QueryService::start_durable(
        build_system(),
        ServiceConfig::builder().workers(2).build().unwrap(),
        durability,
    )
    .expect("recovery must succeed");
    println!(
        "  recovered: snapshot={} replayed_commits={} sessions={}{}",
        report.snapshot_restored,
        report.replayed_commits,
        report.restored_sessions,
        report
            .wal_corruption
            .as_ref()
            .map(|e| format!(" torn_tail_discarded=({e})"))
            .unwrap_or_default()
    );
    print_budgets(&service, "after recovery (identical to pre-crash)");
    assert_eq!(
        accounting(&service),
        before_crash,
        "recovery must restore the row totals and the tight accounting bit for bit"
    );
    println!(
        "  tight accounting: ε = {:.4} (bit-identical to pre-crash)",
        service.system().tight_accounting().epsilon.value()
    );

    // The restored sessions answer again under their original ids, their
    // noise streams continuing where the first life stopped.
    let (s0, s1) = sessions;
    ask(&service, s1, 22, 58, 400.0);
    ask(&service, s0, 35, 45, 2_000.0);
    print_budgets(&service, "after post-recovery queries");

    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    println!("\nDone: a restart is invisible to the privacy accounting.");
}
