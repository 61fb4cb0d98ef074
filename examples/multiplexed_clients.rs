//! Connection multiplexing walk-through: many analyst sessions on **one**
//! TCP socket, served by the event-loop frontend.
//!
//! Three acts:
//!
//! 1. **One socket, two sessions** — a single `MuxConnection` carries two
//!    independent `DProvClient` sessions (alice and bob) as numbered
//!    channels. Each session has its own registration, budget and noise
//!    stream; the frames interleave on the shared socket.
//! 2. **Interleaved traffic** — both analysts query disjoint views over
//!    their channels; answers route back to the channel that asked.
//! 3. **Reconnect and per-session resume** — the shared socket is dropped
//!    with both sessions still open, a *new* shared socket is dialled, and
//!    each session is re-attached individually with `resume()`. Budgets
//!    carry over and the per-session noise streams continue where they
//!    left off.
//!
//! ```text
//! cargo run --release --example multiplexed_clients
//! ```

use std::sync::Arc;

use dprovdb::api::{DProvClient, MuxConnection};
use dprovdb::core::analyst::AnalystRegistry;
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{QueryOutcome, QueryRequest};
use dprovdb::core::system::DProvDb;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::query::Query;
use dprovdb::net::listen;
use dprovdb::server::{QueryService, ServiceConfig};

fn build_service() -> Arc<QueryService> {
    let db = adult_database(2_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("alice", 2).unwrap();
    registry.register("bob", 4).unwrap();
    let config = SystemConfig::new(20.0).unwrap().with_seed(41);
    let system = Arc::new(
        DProvDb::new(
            db,
            catalog,
            registry,
            config,
            MechanismKind::AdditiveGaussian,
        )
        .unwrap(),
    );
    Arc::new(QueryService::start(
        system,
        ServiceConfig::builder().workers(2).build().unwrap(),
    ))
}

fn age_query(lo: i64, hi: i64) -> QueryRequest {
    QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), 400.0)
}

fn hours_query(lo: i64, hi: i64) -> QueryRequest {
    QueryRequest::with_accuracy(Query::range_count("adult", "hours_per_week", lo, hi), 500.0)
}

fn show(tag: &str, outcome: &QueryOutcome) {
    match outcome {
        QueryOutcome::Answered(a) => println!(
            "  {tag}: value={:10.3}  eps={:.4}  view={:?}",
            a.value, a.epsilon_charged, a.view
        ),
        QueryOutcome::Rejected { reason } => println!("  {tag}: rejected {reason:?}"),
    }
}

fn main() {
    let service = build_service();
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    println!(
        "event-loop frontend on {addr} ({} loop threads)\n",
        listener.loop_threads()
    );

    // Act 1: one shared socket, two independent sessions on mux channels.
    let mux = MuxConnection::connect_tcp(addr, "shared-socket").unwrap();
    let mut alice = DProvClient::connect(mux.channel(1).unwrap(), "alice-ch").unwrap();
    let mut bob = DProvClient::connect(mux.channel(2).unwrap(), "bob-ch").unwrap();
    let a = alice.register("alice").unwrap();
    let b = bob.register("bob").unwrap();
    println!(
        "one socket, two sessions: alice={} bob={}",
        a.session, b.session
    );

    // Act 2: interleaved traffic over the shared socket.
    for i in 0..3 {
        show(
            &format!("alice q{i}"),
            &alice.query(&age_query(25, 45 + i)).unwrap(),
        );
        show(
            &format!("bob   q{i}"),
            &bob.query(&hours_query(15 + i, 55)).unwrap(),
        );
    }

    // Act 3: drop the shared socket with both sessions still open…
    drop(alice);
    drop(bob);
    drop(mux);
    println!("\nshared socket dropped (both sessions still live server-side)");

    // …dial a fresh one and resume each session on its own channel.
    let mux = MuxConnection::connect_tcp(addr, "shared-socket-2").unwrap();
    let mut alice = DProvClient::connect(mux.channel(1).unwrap(), "alice-ch2").unwrap();
    let mut bob = DProvClient::connect(mux.channel(2).unwrap(), "bob-ch2").unwrap();
    let ra = alice.resume("alice", a.session).unwrap();
    let rb = bob.resume("bob", b.session).unwrap();
    assert!(ra.resumed && rb.resumed);
    println!(
        "resumed on a new socket: alice={} bob={}\n",
        ra.session, rb.session
    );

    for i in 0..2 {
        show(
            &format!("alice r{i}"),
            &alice.query(&age_query(25, 48 + i)).unwrap(),
        );
        show(
            &format!("bob   r{i}"),
            &bob.query(&hours_query(18 + i, 55)).unwrap(),
        );
    }

    let ba = alice.budget().unwrap();
    let bb = bob.budget().unwrap();
    println!(
        "\nbudgets carried across the reconnect:\n  alice: consumed={:.4} remaining={:.4} answered={}\n  \
         bob:   consumed={:.4} remaining={:.4} answered={}",
        ba.budget_consumed, ba.budget_remaining, ba.answered,
        bb.budget_consumed, bb.budget_remaining, bb.answered,
    );

    alice.close().unwrap();
    bob.close().unwrap();
    listener.shutdown();
}
