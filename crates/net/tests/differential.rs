//! Differential oracle: the event-loop frontend over real TCP sockets vs.
//! the service's queued in-process path.
//!
//! Each test runs the *same* per-session scripts (same system seed, same
//! session registration order, same per-session submission order) twice:
//! over loopback TCP through the event loop, which answers scalar
//! requests inline while it can, and on a fresh service through
//! `QueryService::submit` + `Pending::wait`, which never answers inline.
//! It asserts the analyst-visible transcripts — answers, noise values,
//! epsilon charges, budget reports (read from `session_info` on the
//! queued arm) — are **bit-identical**. Float fields are compared through
//! their IEEE bit patterns (`f64::to_bits`), so "identical" means
//! identical, not "close". Every analyst owns its views, so the
//! transcripts do not depend on how the two arms order work across
//! sessions (the same argument as `tests/batch_equivalence.rs`).

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use dprov_api::protocol::BudgetReport;
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
use dprov_server::{
    DurabilityConfig, Pending, QueryService, Reply, ServiceConfig, SessionId, Work,
};

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

fn render_budget(tag: &str, b: &BudgetReport) -> String {
    format!(
        "{tag}: session={} analyst={} priv={} constraint={:016x} consumed={:016x} \
         remaining={:016x} submitted={} answered={} rejected={}",
        b.session,
        b.analyst,
        b.privilege,
        b.budget_constraint.to_bits(),
        b.budget_consumed.to_bits(),
        b.budget_remaining.to_bits(),
        b.submitted,
        b.answered,
        b.rejected,
    )
}

/// One analyst session as a workload script drives it, on either arm.
trait Analyst {
    fn session(&self) -> u64;
    /// Submits without waiting for the outcome.
    fn submit(&mut self, work: Work);
    /// The reply to the oldest submission not yet collected.
    fn next_reply(&mut self) -> Reply;
    fn budget(&mut self) -> BudgetReport;
    fn close(self: Box<Self>);

    fn query(&mut self, request: &QueryRequest) -> QueryOutcome {
        self.submit(Work::Scalar(request.clone()));
        self.next_reply().into_scalar().expect("a scalar reply")
    }

    fn group_by(&mut self, request: &GroupedRequest) -> GroupedOutcome {
        self.submit(Work::Grouped(request.clone()));
        self.next_reply().into_grouped().expect("a grouped reply")
    }
}

/// A session behind a protocol client over loopback TCP.
struct WireAnalyst {
    client: DProvClient,
    /// The shared connection the client's channel rides on, if any; it
    /// closes when its last session is dropped.
    _mux: Option<Arc<MuxConnection>>,
    pending: VecDeque<(bool, RequestId)>,
}

impl Analyst for WireAnalyst {
    fn session(&self) -> u64 {
        self.client.session().expect("a registered session").session
    }

    fn submit(&mut self, work: Work) {
        let (grouped, id) = match &work {
            Work::Scalar(request) => (false, self.client.submit(request)),
            Work::Grouped(request) => (true, self.client.submit_group_by(request)),
        };
        self.pending.push_back((grouped, id.unwrap()));
    }

    fn next_reply(&mut self) -> Reply {
        let (grouped, id) = self.pending.pop_front().expect("a submission to collect");
        if grouped {
            Reply::Grouped(self.client.poll_grouped(id).unwrap())
        } else {
            Reply::Scalar(self.client.poll(id).unwrap())
        }
    }

    fn budget(&mut self) -> BudgetReport {
        self.client.budget().unwrap()
    }

    fn close(self: Box<Self>) {
        self.client.close().unwrap();
    }
}

/// A session driven through `QueryService::submit` + `Pending::wait`.
struct QueuedAnalyst {
    service: Arc<QueryService>,
    session: SessionId,
    pending: VecDeque<Pending>,
}

impl Analyst for QueuedAnalyst {
    fn session(&self) -> u64 {
        self.session.0
    }

    fn submit(&mut self, work: Work) {
        let pending = self.service.submit(self.session, work, None).unwrap();
        self.pending.push_back(pending);
    }

    fn next_reply(&mut self) -> Reply {
        let pending = self.pending.pop_front().expect("a submission to collect");
        pending.wait().unwrap()
    }

    fn budget(&mut self) -> BudgetReport {
        let info = self.service.session_info(self.session).unwrap();
        BudgetReport {
            session: info.id.0,
            analyst: info.analyst.0 as u64,
            privilege: info.privilege,
            budget_constraint: info.budget_constraint,
            budget_consumed: info.budget_consumed,
            budget_remaining: info.budget_remaining,
            submitted: info.submitted as u64,
            answered: info.answered as u64,
            rejected: info.rejected as u64,
        }
    }

    fn close(self: Box<Self>) {
        self.service.close_session(self.session).unwrap();
    }
}

/// Where a workload's sessions live.
enum Arm {
    /// The event loop serving this address over loopback TCP.
    Wire(SocketAddr),
    /// The queued in-process path of this service.
    Queued(Arc<QueryService>),
}

impl Arm {
    /// Registers a session per name, in order: each over its own
    /// connection, or with `shared` as channels of one mux connection.
    fn register(&self, names: &[&str], shared: bool) -> Vec<Box<dyn Analyst>> {
        self.attach(names.iter().map(|&name| (name, None)), shared)
    }

    /// Re-attaches each `(name, session)`, on fresh connections.
    fn resume(&self, sessions: &[(&str, u64)], shared: bool) -> Vec<Box<dyn Analyst>> {
        self.attach(sessions.iter().map(|&(name, id)| (name, Some(id))), shared)
    }

    fn attach<'n>(
        &self,
        sessions: impl Iterator<Item = (&'n str, Option<u64>)>,
        shared: bool,
    ) -> Vec<Box<dyn Analyst>> {
        match self {
            Arm::Wire(addr) => {
                let mux = shared.then(|| {
                    let conn = Connection::connect_tcp(addr).unwrap();
                    Arc::new(MuxConnection::establish(conn, "shared-conn").unwrap())
                });
                sessions
                    .enumerate()
                    .map(|(i, (name, resume))| {
                        let conn = match &mux {
                            Some(mux) => mux.channel(1 + i as u64).unwrap(),
                            None => Connection::connect_tcp(addr).unwrap(),
                        };
                        let mut client =
                            DProvClient::connect(conn, &format!("{name}-conn")).unwrap();
                        let descriptor = match resume {
                            None => client.register(name).unwrap(),
                            Some(id) => client.resume(name, id).unwrap(),
                        };
                        assert_eq!(descriptor.resumed, resume.is_some(), "{name}");
                        Box::new(WireAnalyst {
                            client,
                            _mux: mux.clone(),
                            pending: VecDeque::new(),
                        }) as Box<dyn Analyst>
                    })
                    .collect()
            }
            Arm::Queued(service) => sessions
                .map(|(name, resume)| {
                    let analyst = service
                        .system()
                        .registry()
                        .find_by_name(name)
                        .expect("a rostered analyst")
                        .id;
                    let session = match resume {
                        None => service.open_session(analyst).unwrap(),
                        Some(id) => {
                            service.resume_session(SessionId(id), analyst).unwrap();
                            SessionId(id)
                        }
                    };
                    Box::new(QueuedAnalyst {
                        service: Arc::clone(service),
                        session,
                        pending: VecDeque::new(),
                    }) as Box<dyn Analyst>
                })
                .collect(),
        }
    }
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
/// every session at once — closed out with budget reports.
fn plain_workload(arm: &Arm) -> Vec<String> {
    let names: Vec<&str> = ANALYSTS.iter().map(|(name, ..)| *name).collect();
    let mut analysts = arm.register(&names, false);
    let mut log: Vec<String> = names
        .iter()
        .zip(&analysts)
        .map(|(name, analyst)| format!("{name}: session={}", analyst.session()))
        .collect();

    let [alice, bob, ..] = &mut analysts[..] else {
        unreachable!("four analysts registered");
    };
    for i in 0..5 {
        let out = alice.query(&age_query(20 + i, 60, 400.0 + i as f64));
        log.push(render(&format!("alice q{i}"), &out));
        let out = alice.group_by(&count_by("sex", LOOSE_VARIANCE - i as f64));
        log.extend(render_grouped(&format!("alice g{i}"), &out));
        let out = bob.query(&hours_query(10, 40 + i, 500.0 + i as f64));
        log.push(render(&format!("bob q{i}"), &out));
    }

    // Two pipelined bursts on every session at once, alternating scalar
    // and grouped work on each — the first burst opens with a grouped
    // request, the second with a scalar one. There are more active
    // sessions than workers plus queue slots, so with a one-slot queue
    // some session's head job finds the queue full in each burst.
    for burst in 0..2 {
        for i in 0..4 {
            let step = 4 * burst + i;
            for (c, analyst) in analysts.iter_mut().enumerate() {
                let (_, scalar, lo, grouping) = ANALYSTS[c];
                analyst.submit(if (burst + i) % 2 == 0 {
                    Work::Grouped(count_by(grouping, LOOSE_VARIANCE - 10.0 - step as f64))
                } else {
                    let query = Query::range_count("adult", scalar, lo, lo + 1 + step);
                    Work::Scalar(QueryRequest::with_accuracy(query, LOOSE_VARIANCE))
                });
            }
        }
        for (c, analyst) in analysts.iter_mut().enumerate() {
            for i in 0..4 {
                let tag = format!("{} burst{burst}.{i}", ANALYSTS[c].0);
                match analyst.next_reply() {
                    Reply::Scalar(outcome) => log.push(render(&tag, &outcome)),
                    Reply::Grouped(outcome) => log.extend(render_grouped(&tag, &outcome)),
                }
            }
        }
    }

    for (c, analyst) in analysts.iter_mut().enumerate() {
        log.push(render_budget(
            &format!("{} budget", ANALYSTS[c].0),
            &analyst.budget(),
        ));
    }
    for analyst in analysts {
        analyst.close();
    }
    log
}

/// The workload's transcript through the event loop over loopback TCP.
fn event_loop_transcript(queue_capacity: usize, workload: fn(&Arm) -> Vec<String>) -> Vec<String> {
    event_loop_run(&service(queue_capacity), workload)
}

fn event_loop_run(service: &Arc<QueryService>, workload: fn(&Arm) -> Vec<String>) -> Vec<String> {
    let listener = listen(service, "127.0.0.1:0").unwrap();
    let log = workload(&Arm::Wire(listener.local_addr()));
    assert!(
        listener.take_fatal_error().is_none(),
        "no fatal listener error during the workload"
    );
    listener.shutdown();
    log
}

/// The reference transcript: the same workload on a fresh service through
/// `QueryService::submit` (no socket, no event loop, no inline answer).
fn queued_transcript(queue_capacity: usize, workload: fn(&Arm) -> Vec<String>) -> Vec<String> {
    queued_run(&service(queue_capacity), workload)
}

fn queued_run(service: &Arc<QueryService>, workload: fn(&Arm) -> Vec<String>) -> Vec<String> {
    workload(&Arm::Queued(Arc::clone(service)))
}

#[test]
fn event_loop_matches_the_in_process_transcript() {
    let reference = queued_transcript(256, plain_workload);
    assert!(!reference.is_empty());
    assert_eq!(
        event_loop_transcript(256, plain_workload),
        reference,
        "event-loop and queued transcripts diverged"
    );
}

/// The same differential check with a tiny submission queue: the
/// event-loop arm is forced through its park/retry backpressure path and
/// the queued arm through its blocking push, and the analyst-visible
/// results still match bit for bit.
#[test]
fn backpressure_path_is_result_transparent() {
    assert_eq!(
        event_loop_transcript(1, plain_workload),
        queued_transcript(1, plain_workload),
        "queue-full handling changed analyst-visible results"
    );
}

/// Two independent sessions — on the wire, channels of one shared mux
/// connection — then, with both still open, a reconnect onto a *new*
/// shared connection with a per-session `resume()`, checked
/// differentially.
fn mux_workload(arm: &Arm) -> Vec<String> {
    let mut log = Vec::new();
    let names = ["alice", "bob"];
    let mut analysts = arm.register(&names, true);
    let (a, b) = (analysts[0].session(), analysts[1].session());
    log.push(format!("sessions: alice={a} bob={b}"));

    for i in 0..3 {
        let [alice, bob] = &mut analysts[..] else {
            unreachable!("two analysts registered");
        };
        let out = alice.query(&age_query(30, 50 + i, 450.0));
        log.push(render(&format!("alice q{i}"), &out));
        let out = bob.query(&hours_query(20 + i, 60, 550.0));
        log.push(render(&format!("bob q{i}"), &out));
    }

    // Drop the whole shared connection with both sessions still open,
    // then resume both on fresh channels of one new connection.
    drop(analysts);
    let mut analysts = arm.resume(&[("alice", a), ("bob", b)], true);
    log.push(format!(
        "resumed: alice={} bob={}",
        analysts[0].session(),
        analysts[1].session()
    ));

    // Noise streams continue where they left off, on both arms.
    let [alice, bob] = &mut analysts[..] else {
        unreachable!("two analysts resumed");
    };
    for i in 0..3 {
        let out = alice.query(&age_query(30, 53 + i, 450.0));
        log.push(render(&format!("alice r{i}"), &out));
        let out = bob.query(&hours_query(23 + i, 60, 550.0));
        log.push(render(&format!("bob r{i}"), &out));
    }

    log.push(render_budget("alice budget", &alice.budget()));
    log.push(render_budget("bob budget", &bob.budget()));
    for analyst in analysts {
        analyst.close();
    }
    log
}

#[test]
fn multiplexed_sessions_with_resume_are_bit_identical() {
    let reference = queued_transcript(256, mux_workload);
    assert!(!reference.is_empty());
    assert_eq!(
        event_loop_transcript(256, mux_workload),
        reference,
        "multiplexed transcripts diverged from the queued oracle"
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
fn inline_workload(arm: &Arm) -> Vec<String> {
    let mut log = Vec::new();
    let mut analysts = arm.register(&["alice"], false);
    let alice = &mut analysts[0];
    let hit = age_query(30, 50, 450.0);
    for i in 0..5 {
        log.push(render(&format!("sync {i}"), &alice.query(&hit)));
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
        log.push(render(tag, &alice.query(&request)));
    }

    // The GROUP BY ahead keeps the lane busy while the next two requests
    // arrive, so a hit that skipped the lane would overtake the miss.
    alice.submit(Work::Grouped(count_by("relationship", LOOSE_VARIANCE)));
    alice.submit(Work::Scalar(age_query(30, 50, 300.0)));
    alice.submit(Work::Scalar(hit.clone()));
    let ahead = alice.next_reply().into_grouped().unwrap();
    log.extend(render_grouped("ahead", &ahead));
    let miss = alice.next_reply().into_scalar().unwrap();
    log.push(render("pipelined miss", &miss));
    let behind_miss = alice.next_reply().into_scalar().unwrap();
    log.push(render("hit behind it", &behind_miss));

    alice.submit(Work::Grouped(count_by("sex", LOOSE_VARIANCE)));
    alice.submit(Work::Scalar(hit.clone()));
    let grouped = alice.next_reply().into_grouped().unwrap();
    log.extend(render_grouped("grouped", &grouped));
    let behind_grouped = alice.next_reply().into_scalar().unwrap();
    log.push(render("hit behind it", &behind_grouped));

    let privacy = QueryRequest::with_privacy(Query::range_count("adult", "age", 30, 50), 0.05);
    log.push(render("privacy", &alice.query(&privacy)));
    for i in 0..3 {
        log.push(render(&format!("sync again {i}"), &alice.query(&hit)));
    }
    log.push(render_budget("alice budget", &alice.budget()));
    for analyst in analysts {
        analyst.close();
    }
    log
}

/// The inline path is result-transparent: the event-loop arm answers
/// every synchronous request on its loop thread — hits, misses, a refusal
/// and privacy-mode commits — the queued arm none, and the transcripts
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
                queued_run(&service, inline_workload)
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
        let (event_loop, queued) = (&arms[0], &arms[1]);
        assert_eq!(
            event_loop.0, queued.0,
            "durable={durable}: transcripts diverged"
        );
        // The 14 synchronous requests always find the pool idle; a
        // pipelined one goes inline too when the work ahead of it finished
        // before the loop read its frame.
        assert!(
            event_loop.1 >= 14,
            "durable={durable}: every synchronous request is answered inline"
        );
        assert_eq!(queued.1, 0, "QueryService::submit always queues");
        assert_eq!(
            event_loop.2, queued.2,
            "durable={durable}: ledger appends differ"
        );
        assert_eq!(event_loop.2.is_some(), durable);
    }
}
