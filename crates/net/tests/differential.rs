//! Differential oracle: the event-loop frontend over real TCP sockets vs.
//! the in-process `Frontend::connect` transport.
//!
//! Each test runs the *same* deterministic workload (same system seed, same
//! session registration order, same per-session submission order) through
//! both transports and asserts the analyst-visible transcripts — answers,
//! noise values, epsilon charges, budget reports — are **bit-identical**.
//! Float fields are compared through their IEEE bit patterns
//! (`f64::to_bits`), so "identical" means identical, not "close".

use std::path::Path;
use std::sync::Arc;

use dprov_api::{Connection, DProvClient, MuxConnection, RequestId};
use dprov_core::analyst::AnalystRegistry;
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{GroupedOutcome, GroupedRequest, QueryOutcome, QueryRequest};
use dprov_core::system::DProvDb;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::group::GroupByQuery;
use dprov_engine::query::Query;
use dprov_net::listen;
use dprov_server::{DurabilityConfig, Frontend, QueryService, ServiceConfig};

/// Opens one more connection to the service under test.
type Dial<'a> = &'a dyn Fn() -> Connection;

fn service(queue_capacity: usize) -> Arc<QueryService> {
    Arc::new(QueryService::start(
        Arc::new(system()),
        config(queue_capacity),
    ))
}

/// A durable service over a fresh store in `dir`.
fn durable_service(dir: &Path) -> Arc<QueryService> {
    let durability = DurabilityConfig::builder(dir).fsync(false).build().unwrap();
    let (service, _) = QueryService::start_durable(system(), config(256), durability).unwrap();
    Arc::new(service)
}

fn system() -> DProvDb {
    let db = adult_database(600, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let mut registry = AnalystRegistry::new();
    registry.register("alice", 2).unwrap();
    registry.register("bob", 4).unwrap();
    registry.register("carol", 3).unwrap();
    registry.register("dave", 1).unwrap();
    let config = SystemConfig::new(8.0).unwrap().with_seed(17);
    DProvDb::new(
        db,
        catalog,
        registry,
        config,
        MechanismKind::AdditiveGaussian,
    )
    .unwrap()
}

fn config(queue_capacity: usize) -> ServiceConfig {
    ServiceConfig::builder()
        .workers(2)
        .queue_capacity(queue_capacity)
        .build()
        .unwrap()
}

fn age_query(lo: i64, hi: i64, variance: f64) -> QueryRequest {
    QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), variance)
}

fn hours_query(lo: i64, hi: i64, variance: f64) -> QueryRequest {
    QueryRequest::with_accuracy(
        Query::range_count("adult", "hours_per_week", lo, hi),
        variance,
    )
}

fn count_by(attribute: &str, variance: f64) -> GroupedRequest {
    GroupedRequest::with_accuracy(GroupByQuery::count("adult", &[attribute]), variance)
}

/// Renders an outcome with float fields as exact bit patterns.
fn render(tag: &str, outcome: &QueryOutcome) -> String {
    match outcome {
        QueryOutcome::Answered(a) => format!(
            "{tag}: answered value={:016x} eps={:016x} var={:016x} cache={} epoch={} view={:?}",
            a.value.to_bits(),
            a.epsilon_charged.to_bits(),
            a.noise_variance.to_bits(),
            a.from_cache,
            a.epoch,
            a.view,
        ),
        QueryOutcome::Rejected { reason } => format!("{tag}: rejected {reason:?}"),
    }
}

/// Renders every cell of a grouped outcome through [`render`].
fn render_grouped(tag: &str, grouped: &GroupedOutcome) -> Vec<String> {
    grouped
        .keys
        .iter()
        .zip(&grouped.outcomes)
        .map(|(key, outcome)| render(&format!("{tag} {key:?}"), outcome))
        .collect()
}

fn render_budget(tag: &str, client: &mut DProvClient) -> String {
    let b = client.budget().unwrap();
    format!(
        "{tag}: session={} analyst={} priv={} constraint={:016x} consumed={:016x} \
         remaining={:016x} submitted={} answered={}",
        b.session,
        b.analyst,
        b.privilege,
        b.budget_constraint.to_bits(),
        b.budget_consumed.to_bits(),
        b.budget_remaining.to_bits(),
        b.submitted,
        b.answered,
    )
}

/// Each analyst's scalar attribute (with the low end of its burst range)
/// and grouping attribute. Every view belongs to one analyst only, so
/// additive synopses never grow in cross-session arrival order.
const ANALYSTS: [(&str, &str, i64, &str); 4] = [
    ("alice", "age", 20, "sex"),
    ("bob", "hours_per_week", 20, "race"),
    ("carol", "education_num", 5, "income"),
    ("dave", "capital_loss", 0, "relationship"),
];

/// Loose enough that the extra views the grouped and burst traffic touch
/// leave the table constraint uncontended (accept-vs-reject decisions near
/// exhaustion depend on cross-session arrival order).
const LOOSE_VARIANCE: f64 = 40_000.0;

/// Analysts on separate connections, scalar and GROUP BY traffic
/// interleaved on each session — synchronous first, then pipelined from
/// every connection at once — closed out with budget reports.
fn plain_workload(dial: Dial) -> Vec<String> {
    let mut log = Vec::new();
    let mut clients: Vec<DProvClient> = ANALYSTS
        .iter()
        .map(|(name, ..)| {
            let mut client = DProvClient::connect(dial(), &format!("{name}-conn")).unwrap();
            let info = client.register(name).unwrap();
            log.push(format!(
                "{name}: session={} resumed={}",
                info.session, info.resumed
            ));
            client
        })
        .collect();

    let [alice, bob, ..] = &mut clients[..] else {
        unreachable!("four analysts connected");
    };
    for i in 0..5 {
        let out = alice
            .query(&age_query(20 + i, 60, 400.0 + i as f64))
            .unwrap();
        log.push(render(&format!("alice q{i}"), &out));
        let out = alice
            .group_by(&count_by("sex", LOOSE_VARIANCE - i as f64))
            .unwrap();
        log.extend(render_grouped(&format!("alice g{i}"), &out));
        let out = bob
            .query(&hours_query(10, 40 + i, 500.0 + i as f64))
            .unwrap();
        log.push(render(&format!("bob q{i}"), &out));
    }

    // Two pipelined bursts on every connection at once, alternating scalar
    // and grouped frames on each session — the first burst opens with a
    // grouped frame, the second with a scalar one. There are more active
    // sessions than workers plus queue slots, so with a one-slot queue
    // some session's head job finds the queue full in each burst.
    for burst in 0..2 {
        let mut tickets: Vec<Vec<(bool, RequestId)>> = vec![Vec::new(); clients.len()];
        for i in 0..4 {
            let step = 4 * burst + i;
            for (c, client) in clients.iter_mut().enumerate() {
                let (_, scalar, lo, grouping) = ANALYSTS[c];
                let grouped = (burst + i) % 2 == 0;
                let id = if grouped {
                    let variance = LOOSE_VARIANCE - 10.0 - step as f64;
                    client.submit_group_by(&count_by(grouping, variance))
                } else {
                    let query = Query::range_count("adult", scalar, lo, lo + 1 + step);
                    client.submit(&QueryRequest::with_accuracy(query, LOOSE_VARIANCE))
                };
                tickets[c].push((grouped, id.unwrap()));
            }
        }
        for (c, client) in clients.iter_mut().enumerate() {
            let name = ANALYSTS[c].0;
            for (i, &(grouped, id)) in tickets[c].iter().enumerate() {
                let tag = format!("{name} burst{burst}.{i}");
                if grouped {
                    log.extend(render_grouped(&tag, &client.poll_grouped(id).unwrap()));
                } else {
                    log.push(render(&tag, &client.poll(id).unwrap()));
                }
            }
        }
    }

    for (c, client) in clients.iter_mut().enumerate() {
        log.push(render_budget(&format!("{} budget", ANALYSTS[c].0), client));
    }
    for client in clients {
        client.close().unwrap();
    }
    log
}

/// The workload's transcript through the event loop over loopback TCP.
fn event_loop_transcript(queue_capacity: usize, workload: fn(Dial) -> Vec<String>) -> Vec<String> {
    event_loop_run(&service(queue_capacity), workload)
}

fn event_loop_run(service: &Arc<QueryService>, workload: fn(Dial) -> Vec<String>) -> Vec<String> {
    let listener = listen(service, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr();
    let log = workload(&|| Connection::connect_tcp(addr).unwrap());
    assert!(
        listener.take_fatal_error().is_none(),
        "no fatal listener error during the workload"
    );
    listener.shutdown();
    log
}

/// The reference transcript: the same workload on a fresh service through
/// the in-process transport (no socket, no event loop).
fn in_process_transcript(queue_capacity: usize, workload: fn(Dial) -> Vec<String>) -> Vec<String> {
    in_process_run(&service(queue_capacity), workload)
}

fn in_process_run(service: &Arc<QueryService>, workload: fn(Dial) -> Vec<String>) -> Vec<String> {
    let frontend = Frontend::new(service);
    workload(&|| frontend.connect())
}

#[test]
fn event_loop_matches_the_in_process_transcript() {
    let reference = in_process_transcript(256, plain_workload);
    assert!(!reference.is_empty());
    assert_eq!(
        event_loop_transcript(256, plain_workload),
        reference,
        "event-loop and in-process transcripts diverged"
    );
}

/// The same differential check with a tiny submission queue: the
/// event-loop arm is forced through its park/retry backpressure path and
/// the in-process arm through its blocking push, and the analyst-visible
/// results still match bit for bit.
#[test]
fn backpressure_path_is_result_transparent() {
    assert_eq!(
        event_loop_transcript(1, plain_workload),
        in_process_transcript(1, plain_workload),
        "queue-full handling changed analyst-visible results"
    );
}

/// One shared connection carrying two independent sessions over mux
/// channels, then a reconnect onto a *new* shared connection with a
/// per-session `resume()` — the satellite-2 client pattern — checked differentially.
fn mux_workload(dial: Dial) -> Vec<String> {
    let mut log = Vec::new();
    let mux = MuxConnection::establish(dial(), "shared-conn").unwrap();
    let mut alice = DProvClient::connect(mux.channel(1).unwrap(), "alice-ch").unwrap();
    let mut bob = DProvClient::connect(mux.channel(2).unwrap(), "bob-ch").unwrap();
    let a = alice.register("alice").unwrap();
    let b = bob.register("bob").unwrap();
    log.push(format!("sessions: alice={} bob={}", a.session, b.session));

    for i in 0..3 {
        let out = alice.query(&age_query(30, 50 + i, 450.0)).unwrap();
        log.push(render(&format!("alice q{i}"), &out));
        let out = bob.query(&hours_query(20 + i, 60, 550.0)).unwrap();
        log.push(render(&format!("bob q{i}"), &out));
    }

    // Drop the whole shared connection with both sessions still open.
    drop(alice);
    drop(bob);
    drop(mux);

    // Reconnect: one new connection, both sessions resumed on fresh channels.
    let mux = MuxConnection::establish(dial(), "shared-conn-2").unwrap();
    let mut alice = DProvClient::connect(mux.channel(7).unwrap(), "alice-ch2").unwrap();
    let mut bob = DProvClient::connect(mux.channel(9).unwrap(), "bob-ch2").unwrap();
    let ra = alice.resume("alice", a.session).unwrap();
    let rb = bob.resume("bob", b.session).unwrap();
    assert!(ra.resumed && rb.resumed, "both sessions resumed");
    log.push(format!("resumed: alice={} bob={}", ra.session, rb.session));

    // Noise streams continue where they left off, on both transports.
    for i in 0..3 {
        let out = alice.query(&age_query(30, 53 + i, 450.0)).unwrap();
        log.push(render(&format!("alice r{i}"), &out));
        let out = bob.query(&hours_query(23 + i, 60, 550.0)).unwrap();
        log.push(render(&format!("bob r{i}"), &out));
    }

    log.push(render_budget("alice budget", &mut alice));
    log.push(render_budget("bob budget", &mut bob));
    alice.close().unwrap();
    bob.close().unwrap();
    log
}

#[test]
fn multiplexed_sessions_with_resume_are_bit_identical() {
    let reference = in_process_transcript(256, mux_workload);
    assert!(!reference.is_empty());
    assert_eq!(
        event_loop_transcript(256, mux_workload),
        reference,
        "multiplexed transcripts diverged between transports"
    );
}

/// Repeating the event-loop run twice yields the same transcript — the
/// loop/worker scheduling does not leak into analyst-visible results.
#[test]
fn event_loop_runs_are_reproducible() {
    let first = event_loop_transcript(256, plain_workload);
    let second = event_loop_transcript(256, plain_workload);
    assert_eq!(first, second);
}

/// One session around the event loop's inline path. The synchronous
/// requests find the session and the worker pool idle and are answered on
/// the loop thread: cache hits, misses that commit, a refusal and
/// privacy-mode commits. A hit pipelined behind a miss on its own
/// (analyst, view), or behind a GROUP BY, finds the session's lane busy
/// and queues, so it comes back after that work and from the synopsis the
/// miss released.
fn inline_workload(dial: Dial) -> Vec<String> {
    let mut log = Vec::new();
    let mut alice = DProvClient::connect(dial(), "alice-conn").unwrap();
    alice.register("alice").unwrap();
    let hit = age_query(30, 50, 450.0);
    for i in 0..5 {
        log.push(render(&format!("sync {i}"), &alice.query(&hit).unwrap()));
    }
    let hours =
        QueryRequest::with_privacy(Query::range_count("adult", "hours_per_week", 20, 40), 0.2);
    for (tag, request) in [
        ("sync miss", age_query(30, 50, 350.0)),
        ("sync refusal", age_query(30, 50, 1e-9)),
        ("sync privacy commit", hours.clone()),
        ("sync privacy repeat", hours),
        ("sync miss on hours", hours_query(20, 40, 600.0)),
    ] {
        let outcome = alice.query(&request).unwrap();
        log.push(render(tag, &outcome));
    }

    // The GROUP BY ahead keeps the lane busy while the next two frames
    // arrive, so a hit that skipped the lane would overtake the miss.
    let ahead = alice
        .submit_group_by(&count_by("relationship", LOOSE_VARIANCE))
        .unwrap();
    let miss = alice.submit(&age_query(30, 50, 300.0)).unwrap();
    let behind_miss = alice.submit(&hit).unwrap();
    log.extend(render_grouped("ahead", &alice.poll_grouped(ahead).unwrap()));
    log.push(render("pipelined miss", &alice.poll(miss).unwrap()));
    log.push(render("hit behind it", &alice.poll(behind_miss).unwrap()));

    let grouped = alice
        .submit_group_by(&count_by("sex", LOOSE_VARIANCE))
        .unwrap();
    let behind_grouped = alice.submit(&hit).unwrap();
    log.extend(render_grouped(
        "grouped",
        &alice.poll_grouped(grouped).unwrap(),
    ));
    log.push(render(
        "hit behind it",
        &alice.poll(behind_grouped).unwrap(),
    ));

    let privacy = QueryRequest::with_privacy(Query::range_count("adult", "age", 30, 50), 0.05);
    log.push(render("privacy", &alice.query(&privacy).unwrap()));
    for i in 0..3 {
        log.push(render(
            &format!("sync again {i}"),
            &alice.query(&hit).unwrap(),
        ));
    }
    log.push(render_budget("alice budget", &mut alice));
    alice.close().unwrap();
    log
}

/// The inline path is result-transparent: the event-loop arm answers
/// every synchronous request on its loop thread — hits, misses, a refusal
/// and privacy-mode commits — the in-process arm none, and the transcripts
/// match bit for bit — on a volatile service and on a durable one, where
/// both arms also append the same number of ledger records.
#[test]
fn inline_cache_hits_match_the_queued_transcript() {
    for durable in [false, true] {
        let mut arms = Vec::new();
        for event_loop in [true, false] {
            let dir = std::env::temp_dir().join(format!(
                "dprov-net-inline-{}-{durable}-{event_loop}",
                std::process::id()
            ));
            let service = if durable {
                durable_service(&dir)
            } else {
                service(256)
            };
            let log = if event_loop {
                event_loop_run(&service, inline_workload)
            } else {
                in_process_run(&service, inline_workload)
            };
            let inline = service
                .metrics()
                .snapshot()
                .counter("frontend.inline_answers")
                .unwrap();
            let appends = service.store().map(|store| store.total_appends());
            drop(service);
            std::fs::remove_dir_all(&dir).ok();
            arms.push((log, inline, appends));
        }
        let (event_loop, in_process) = (&arms[0], &arms[1]);
        assert_eq!(
            event_loop.0, in_process.0,
            "durable={durable}: transcripts diverged"
        );
        // The 14 synchronous requests always find the pool idle; a
        // pipelined one goes inline too when the work ahead of it finished
        // before the loop read its frame.
        assert!(
            event_loop.1 >= 14,
            "durable={durable}: every synchronous request is answered inline"
        );
        assert_eq!(in_process.1, 0, "the in-process frontend always queues");
        assert_eq!(
            event_loop.2, in_process.2,
            "durable={durable}: ledger appends differ"
        );
        assert_eq!(event_loop.2.is_some(), durable);
    }
}
