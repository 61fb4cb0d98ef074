//! The benchmark's whole contact surface with the program under test.
//!
//! This is the only file that names `dprov_*` items. Everything else in
//! the benchmark works with the wrappers defined here, so an API-changing
//! refactor has exactly one file to port (and the README lists the
//! signatures this file leans on). Nothing from `dprov_bench` is used: the
//! measuring code lives in this package so files outside it cannot change
//! what is measured.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dprov_api::frame::{frame, read_frame};
use dprov_api::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use dprov_api::{DProvClient, MuxConnection, RequestId};
use dprov_cluster::{Gateway, ReplicatedRecorder, SimCluster};
use dprov_core::analyst::{AnalystId, AnalystRegistry};
use dprov_core::config::{AnalystConstraintSpec, SystemConfig};
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{
    GroupedOutcome, GroupedRequest, QueryOutcome, QueryRequest, SubmissionMode,
};
use dprov_core::recorder::{CommitRecord, Recorder};
use dprov_core::system::DProvDb;
use dprov_delta::UpdateBatch;
use dprov_dp::mechanism::analytic_gaussian::analytic_gaussian_sigma;
use dprov_dp::rng::DpRng;
use dprov_dp::translation::translate_variance_to_epsilon;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::database::Database;
use dprov_engine::datagen::adult::{adult_database, ADULT_TABLE};
use dprov_engine::expr::Predicate;
use dprov_engine::query::Query;
use dprov_engine::schema::AttributeType;
use dprov_engine::view::ViewDef;
use dprov_net::ServiceListener;
use dprov_server::{DurabilityConfig, FrontendMode, QueryService, ServiceConfig};
use dprov_storage::{ProvenanceStore, StoreOptions};
use dprov_workloads::skew::{self, SkewConfig, StreamEvent, StreamingConfig};
use dprov_workloads::star::{self, GroupedConfig, SALES_WIDE_TABLE};

/// Analysts in every workload; analyst `i` has privilege `i + 1`.
pub const ANALYSTS: usize = 8;
/// Worker threads of the service under test.
const WORKERS: usize = 2;
const UPDATER: &str = "updater";
const CLIENT_NAME: &str = "dprovbench";
const REPLICAS: u64 = 3;
/// Fixed seed of the in-process replica group (no injected delay or loss).
const CLUSTER_SEED: u64 = 7;

/// One benchmark operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Scalar(QueryRequest),
    Grouped(GroupedRequest),
    Update(UpdateBatch),
    Seal,
}

/// What the service answered to one [`Op`].
pub enum Reply {
    Scalar(QueryOutcome),
    Grouped(GroupedOutcome),
    /// An update batch or an epoch seal was acknowledged.
    Ack,
}

/// Outcome class of one operation, as the analyst sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Answered from a cached synopsis, no budget spent.
    Hit,
    /// Answered by a fresh release that charged budget.
    Miss,
    /// An update batch or an epoch seal was acknowledged.
    Ack,
    /// A typed budget/accuracy refusal.
    Refused,
    /// Anything else: transport, protocol or internal error.
    Failed,
}

impl Reply {
    pub fn class(&self) -> Class {
        match self {
            Reply::Scalar(outcome) => scalar_class(outcome),
            Reply::Grouped(grouped) => {
                // One grouped op = many cells. It is refused only when
                // every cell is; a hit only when every cell is a hit.
                let all = |class| grouped.outcomes.iter().all(|o| scalar_class(o) == class);
                if all(Class::Refused) {
                    Class::Refused
                } else if all(Class::Hit) {
                    Class::Hit
                } else {
                    Class::Miss
                }
            }
            Reply::Ack => Class::Ack,
        }
    }

    /// Bits of the epsilon this operation charged (summed over cells).
    pub fn epsilon_bits(&self) -> u64 {
        let charged = |o: &QueryOutcome| o.answered().map_or(0.0, |a| a.epsilon_charged);
        match self {
            Reply::Scalar(outcome) => charged(outcome).to_bits(),
            Reply::Grouped(grouped) => grouped.outcomes.iter().map(charged).sum::<f64>().to_bits(),
            Reply::Ack => 0,
        }
    }

    /// Cells that were not answered from the cache: each pays for its own
    /// translation inside the core.
    pub fn uncached_cells(&self) -> usize {
        match self {
            Reply::Scalar(outcome) => usize::from(scalar_class(outcome) != Class::Hit),
            Reply::Grouped(grouped) => grouped
                .outcomes
                .iter()
                .filter(|o| scalar_class(o) != Class::Hit)
                .count(),
            Reply::Ack => 0,
        }
    }

    /// Cells this operation carried (1 for a scalar query).
    pub fn cells(&self) -> usize {
        match self {
            Reply::Grouped(grouped) => grouped.outcomes.len(),
            _ => 1,
        }
    }
}

fn scalar_class(outcome: &QueryOutcome) -> Class {
    match outcome {
        QueryOutcome::Answered(a) if a.from_cache => Class::Hit,
        QueryOutcome::Answered(_) => Class::Miss,
        QueryOutcome::Rejected { .. } => Class::Refused,
    }
}

// ----- data and generators -------------------------------------------------

/// The database a workload runs on, generated once per process.
pub struct Dataset {
    db: Database,
    table: &'static str,
}

pub fn adult_dataset(rows: usize) -> Dataset {
    Dataset {
        db: adult_database(rows, 1),
        table: ADULT_TABLE,
    }
}

pub fn star_dataset(fact_rows: usize) -> Dataset {
    Dataset {
        db: star::folded_star_database(fact_rows, 1),
        table: SALES_WIDE_TABLE,
    }
}

impl Dataset {
    /// False for a range predicate whose bounds fall inside a bin of a
    /// binned integer attribute.
    fn bin_aligned(&self, query: &Query) -> bool {
        let Predicate::Range {
            attribute,
            low,
            high,
        } = &query.predicate
        else {
            return true;
        };
        let Ok(table) = self.db.table(self.table) else {
            return false;
        };
        table
            .schema()
            .attributes()
            .iter()
            .find(|a| a.name == *attribute)
            .is_some_and(|a| match a.attr_type {
                AttributeType::Integer {
                    min,
                    max,
                    bin_width,
                } => {
                    let w = bin_width.max(1);
                    (low - min).rem_euclid(w) == 0
                        && (*high >= max || (high + 1 - min).rem_euclid(w) == 0)
                }
                _ => false,
            })
    }

    /// `(name, min, max)` of every integer attribute, in schema order.
    fn integer_attributes(&self) -> Vec<(String, i64, i64)> {
        let table = self.db.table(self.table).expect("dataset table exists");
        table
            .schema()
            .attributes()
            .iter()
            .filter_map(|a| match a.attr_type {
                AttributeType::Integer { min, max, .. } if max > min => {
                    Some((a.name.clone(), min, max))
                }
                _ => None,
            })
            .collect()
    }
}

fn scalar_ops(per_analyst: Vec<Vec<QueryRequest>>) -> Vec<Vec<Op>> {
    per_analyst
        .into_iter()
        .map(|batch| batch.into_iter().map(Op::Scalar).collect())
        .collect()
}

/// `explore` / `cache-hit`: Zipf(s=1) range counts in accuracy mode,
/// variance ~U(`variance.0`, `variance.1`), one list per analyst.
pub fn explore_ops(
    data: &Dataset,
    seed: u64,
    per_analyst: usize,
    variance: (f64, f64),
) -> Vec<Vec<Op>> {
    let mut config = SkewConfig::new(data.table, ANALYSTS, per_analyst, 1.0).with_seed(seed);
    config.accuracy_range = variance;
    scalar_ops(
        skew::generate(&data.db, &config)
            .expect("skew generation over the adult table")
            .per_analyst,
    )
}

/// `cache-hit` warm-up: per analyst, one full-domain range count per
/// integer attribute at `variance`. A full-domain query touches every
/// bin, so its per-bin target is the tightest any later range query at
/// `variance` or looser can ask for.
pub fn warm_ops(data: &Dataset, variance: f64) -> Vec<Vec<Op>> {
    let batch: Vec<Op> = data
        .integer_attributes()
        .iter()
        .map(|(attr, min, max)| {
            Op::Scalar(QueryRequest::with_accuracy(
                Query::range_count(data.table, attr, *min, *max),
                variance,
            ))
        })
        .collect();
    vec![batch; ANALYSTS]
}

/// `commit-*`: privacy mode with strictly growing epsilon per
/// (analyst, view), so every operation misses the cache and commits a
/// charge. The seed moves only the range bounds.
pub fn commit_ops(data: &Dataset, seed: u64, per_analyst: usize) -> Vec<Vec<Op>> {
    let attrs = data.integer_attributes();
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..ANALYSTS)
        .map(|analyst| {
            (0..per_analyst)
                .map(|i| {
                    let (attr, min, max) = &attrs[i % attrs.len()];
                    let occurrence = (i / attrs.len()) as f64;
                    let epsilon = 0.01 * (occurrence + 1.0) + 1e-4 * analyst as f64;
                    let span = (max - min + 1) as u64;
                    let a = min + (next() % span) as i64;
                    let b = min + (next() % span) as i64;
                    Op::Scalar(QueryRequest::with_privacy(
                        Query::range_count(data.table, attr, a.min(b), a.max(b)),
                        epsilon,
                    ))
                })
                .collect()
        })
        .collect()
}

/// `epoch-stream`: the update-heavy streaming preset, in arrival order.
/// `Some(analyst)` marks a query, `None` an updater operation.
pub fn stream_ops(data: &Dataset, seed: u64, per_analyst: usize) -> Vec<(Option<usize>, Op)> {
    let config = StreamingConfig::update_heavy(data.table, ANALYSTS, per_analyst).with_seed(seed);
    skew::generate_stream(&data.db, &config)
        .expect("stream generation over the adult table")
        .into_iter()
        .map(|event| match event {
            StreamEvent::Query { analyst, request } => (Some(analyst), Op::Scalar(request)),
            StreamEvent::Update(batch) => (None, Op::Update(batch)),
            StreamEvent::Seal => (None, Op::Seal),
        })
        .collect()
}

/// `grouped`: the grouped-heavy preset over the folded star.
pub fn grouped_ops(data: &Dataset, seed: u64, per_analyst: usize) -> Vec<Vec<Op>> {
    let config = GroupedConfig::grouped_heavy(data.table, ANALYSTS, per_analyst).with_seed(seed);
    star::generate_grouped(&data.db, &config)
        .expect("grouped generation over the folded star")
        .per_analyst
        .into_iter()
        .map(|batch| batch.into_iter().map(Op::Grouped).collect())
        .collect()
}

/// The attribute sets the grouped generator can ask for that no
/// one-attribute view covers; the `grouped` catalog adds a view for each.
/// Derived from a fixed-seed sample, so it does not depend on `--seed`.
pub fn grouped_views(data: &Dataset) -> Vec<Vec<String>> {
    let mut sets: Vec<Vec<String>> = Vec::new();
    for op in grouped_ops(data, 0, 200).into_iter().flatten() {
        if let Op::Grouped(request) = op {
            let attrs = request.query.referenced_attributes();
            if attrs.len() > 1 && !sets.contains(&attrs) {
                sets.push(attrs);
            }
        }
    }
    sets.sort();
    sets
}

/// A query no view can answer: it crosses the wire, the queue and a
/// worker like any other, and the core refuses it at once. Its round trip
/// therefore measures the server's dispatch path with no core work.
pub fn probe_op(data: &Dataset) -> Op {
    Op::Scalar(QueryRequest::with_accuracy(
        Query::range_count(data.table, "no_such_attribute", 0, 1),
        1_000.0,
    ))
}

// ----- the system under test -----------------------------------------------

/// Where admitted charges are recorded before the analyst sees an answer.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Ledger {
    /// Durable write-ahead ledger, fsync off, auto-compaction every
    /// `snapshot_every` appends.
    Wal { snapshot_every: u64 },
    /// The 3-replica in-process quorum gate, no local store.
    Quorum,
}

/// Everything that distinguishes one workload's system from another's.
#[derive(Clone)]
pub struct SystemSpec {
    /// The table constraint ψ_P.
    pub psi: f64,
    pub ledger: Ledger,
    /// Multi-attribute views added to the one-per-attribute catalog.
    pub extra_views: Vec<Vec<String>>,
}

fn catalog(data: &Dataset, spec: &SystemSpec) -> ViewCatalog {
    let mut catalog =
        ViewCatalog::one_per_attribute(&data.db, data.table).expect("one view per attribute");
    for attrs in &spec.extra_views {
        catalog.add_view(ViewDef::histogram(&attrs.join("+"), data.table, attrs));
    }
    catalog
}

fn system_config(spec: &SystemSpec) -> SystemConfig {
    SystemConfig::new(spec.psi)
        .expect("psi is a valid epsilon")
        .with_seed(5)
        .with_analyst_constraints(AnalystConstraintSpec::ProportionalSum)
}

/// Ingests the data, materialises the catalog and initialises provenance.
fn build_system(data: &Dataset, spec: &SystemSpec) -> DProvDb {
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), (i + 1) as u8)
            .expect("privilege in range");
    }
    DProvDb::new(
        data.db.clone(),
        catalog(data, spec),
        registry,
        system_config(spec),
        MechanismKind::AdditiveGaussian,
    )
    .expect("system builds")
}

fn service_config() -> ServiceConfig {
    ServiceConfig::builder()
        .workers(WORKERS)
        .updaters(&[UPDATER])
        .frontend_mode(FrontendMode::EventLoop)
        .build()
        .expect("valid service config")
}

fn durability(dir: &Path, snapshot_every: u64) -> DurabilityConfig {
    DurabilityConfig::builder(dir)
        .fsync(false)
        .snapshot_every(snapshot_every)
        .build()
        .expect("valid durability config")
}

fn start_service(data: &Dataset, spec: &SystemSpec, dir: &Path) -> Result<QueryService, String> {
    let mut system = build_system(data, spec);
    match spec.ledger {
        Ledger::Wal { snapshot_every } => {
            QueryService::start_durable(system, service_config(), durability(dir, snapshot_every))
                .map(|(service, _)| service)
                .map_err(|e| format!("start_durable: {e:?}"))
        }
        Ledger::Quorum => {
            Gateway::new(REPLICAS, CLUSTER_SEED, system.metrics().clone()).attach(&mut system);
            Ok(QueryService::start(Arc::new(system), service_config()))
        }
    }
}

/// The real stack, in-process: service + event-loop TCP listener.
pub struct Stack {
    service: Arc<QueryService>,
    listener: Option<ServiceListener>,
    /// Wall time of `DProvDb::new` (ingest + view materialisation).
    pub materialise_ms: f64,
}

impl Stack {
    pub fn start(data: &Dataset, spec: &SystemSpec, dir: &Path) -> Result<Stack, String> {
        let service = Arc::new(start_service(data, spec, dir)?);
        let materialise_ms = service.system().stats().setup_time.as_secs_f64() * 1e3;
        let listener =
            dprov_net::listen(&service, "127.0.0.1:0").map_err(|e| format!("listen: {e}"))?;
        Ok(Stack {
            service,
            listener: Some(listener),
            materialise_ms,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.listener
            .as_ref()
            .expect("listener runs until shutdown")
            .local_addr()
    }

    /// Row, column and table constraints on the live provenance matrix
    /// (additive-Gaussian composition: column max, sum of column maxes).
    pub fn constraint_violations(&self) -> Vec<String> {
        const TOL: f64 = 1e-9;
        let p = self.service.system().provenance();
        let mut violations = Vec::new();
        for a in 0..ANALYSTS {
            let (total, limit) = (p.row_total(AnalystId(a)), p.row_constraint(AnalystId(a)));
            if total > limit + TOL {
                violations.push(format!("row {a}: {total} > {limit}"));
            }
        }
        for view in p.view_names() {
            let (max, limit) = (p.column_max(view), p.col_constraint(view));
            if max > limit + TOL {
                violations.push(format!("column {view}: {max} > {limit}"));
            }
        }
        if p.total_of_column_maxes() > p.table_constraint() + TOL {
            violations.push(format!(
                "table: {} > {}",
                p.total_of_column_maxes(),
                p.table_constraint()
            ));
        }
        violations
    }

    /// The provenance matrix, row-major, as bits.
    pub fn provenance_bits(&self) -> Vec<u64> {
        provenance_bits(self.service.system())
    }

    /// Ledger appends so far (durable only).
    pub fn wal_appends(&self) -> Option<u64> {
        self.service.store().map(|store| store.total_appends())
    }

    /// Snapshot + ledger truncation; returns its wall time.
    pub fn checkpoint_ms(&self) -> Option<f64> {
        self.service.store()?;
        let start = Instant::now();
        self.service.checkpoint().ok()?;
        Some(start.elapsed().as_secs_f64() * 1e3)
    }

    /// Checks every answered value against the exact answer: it must lie
    /// within 8 standard deviations of the stated noise. Skipped: answers
    /// released against an older epoch than the current one, and range
    /// queries that cut through a histogram bin (a view answers those at
    /// bin granularity, so the exact scan is not what was noised).
    pub fn audit(&self, data: &Dataset, items: &[(&Op, &Reply)]) -> Audit {
        let system = self.service.system();
        let epoch = system.current_epoch();
        let mut audit = Audit::default();
        let check = |audit: &mut Audit, outcome: &QueryOutcome, truth: f64| {
            if let Some(a) = outcome.answered().filter(|a| a.epoch == epoch) {
                audit.checked += 1;
                if (a.value - truth).abs() > 8.0 * a.noise_variance.sqrt() + 1e-9 {
                    audit.violations += 1;
                }
            }
        };
        let start = Instant::now();
        let scalars: Vec<(&QueryRequest, &QueryOutcome)> = items
            .iter()
            .filter_map(|item| match item {
                (Op::Scalar(request), Reply::Scalar(outcome))
                    if outcome.is_answered() && data.bin_aligned(&request.query) =>
                {
                    Some((request, outcome))
                }
                _ => None,
            })
            .collect();
        let queries: Vec<Query> = scalars.iter().map(|(r, _)| r.query.clone()).collect();
        match system.true_answers(&queries) {
            Ok(truths) => {
                for ((_, outcome), truth) in scalars.iter().zip(truths) {
                    check(&mut audit, outcome, truth);
                }
            }
            Err(_) => audit.violations += queries.len(),
        }
        audit.scalar_queries = queries.len();
        audit.scan_ns = start.elapsed().as_nanos() as u64;
        for item in items {
            if let (Op::Grouped(request), Reply::Grouped(grouped)) = item {
                match system.true_group_by(&request.query) {
                    Ok(truths) => {
                        for (outcome, truth) in grouped.outcomes.iter().zip(truths) {
                            check(&mut audit, outcome, truth);
                        }
                    }
                    Err(_) => audit.violations += 1,
                }
            }
        }
        audit
    }

    /// Stops the listener and the worker pool and closes the store.
    pub fn shutdown(mut self) {
        if let Some(listener) = self.listener.take() {
            listener.shutdown();
        }
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

#[derive(Default)]
pub struct Audit {
    pub checked: usize,
    pub violations: usize,
    pub scalar_queries: usize,
    /// Wall time of the one batched exact scan over `scalar_queries`.
    pub scan_ns: u64,
}

impl Audit {
    pub fn absorb(&mut self, other: Audit) {
        self.checked += other.checked;
        self.violations += other.violations;
        self.scalar_queries += other.scalar_queries;
        self.scan_ns += other.scan_ns;
    }
}

fn provenance_bits(system: &DProvDb) -> Vec<u64> {
    let p = system.provenance();
    let mut bits = Vec::new();
    for a in 0..ANALYSTS {
        for view in p.view_names() {
            bits.push(p.entry(AnalystId(a), view).to_bits());
        }
    }
    bits
}

/// Reopens a durable store into a fresh system, as a restart would, and
/// returns the recovered provenance matrix.
pub fn recovered_provenance_bits(
    data: &Dataset,
    spec: &SystemSpec,
    dir: &Path,
) -> Result<Vec<u64>, String> {
    let service = start_service(data, spec, dir)?;
    let bits = provenance_bits(service.system());
    service.shutdown();
    Ok(bits)
}

// ----- clients ---------------------------------------------------------------

/// One protocol session (an analyst's, or the updater's) on a shared socket.
pub struct Lane {
    client: DProvClient,
}

/// A request sent on a [`Lane`] whose reply has not been collected.
pub enum Pending {
    Scalar(RequestId),
    Grouped(RequestId),
    /// Updates and seals have no pipelined form; they complete in `send`.
    Done,
}

impl Lane {
    pub fn send(&mut self, op: &Op) -> Result<Pending, String> {
        let sent = match op {
            Op::Scalar(request) => self.client.submit(request).map(Pending::Scalar),
            Op::Grouped(request) => self.client.submit_group_by(request).map(Pending::Grouped),
            Op::Update(batch) => self.client.apply_update(batch).map(|_| Pending::Done),
            Op::Seal => self.client.seal_epoch().map(|_| Pending::Done),
        };
        sent.map_err(|e| format!("{e:?}"))
    }

    pub fn wait(&mut self, pending: Pending) -> Result<Reply, String> {
        let reply = match pending {
            Pending::Scalar(id) => self.client.poll(id).map(Reply::Scalar),
            Pending::Grouped(id) => self.client.poll_grouped(id).map(Reply::Grouped),
            Pending::Done => Ok(Reply::Ack),
        };
        reply.map_err(|e| format!("{e:?}"))
    }

    pub fn heartbeat(&mut self) -> Result<(), String> {
        self.client.heartbeat().map_err(|e| format!("{e:?}"))
    }

    /// Read-only server counters fetched over the wire.
    pub fn server_counters(&mut self) -> Result<ServerCounters, String> {
        let snapshot = self.client.metrics().map_err(|e| format!("{e:?}"))?;
        let hist = |name: &str| snapshot.histogram(name).unwrap_or_default();
        let (scalar, grouped) = (hist("query.execute_ns"), hist("group.execute_ns"));
        Ok(ServerCounters {
            execute_us: (scalar.sum + grouped.sum) as f64 / 1e3,
            queue_wait_p50_us: hist("queue.wait_ns").p50 as f64 / 1e3,
            batch_size_mean: hist("batch.size").mean(),
            ready_events_per_wake: hist("net.ready_events_per_wake").mean(),
        })
    }
}

#[derive(Default, Clone, Copy)]
pub struct ServerCounters {
    /// Time the core spent executing submissions so far (scalar +
    /// grouped), from the server's own exact sums.
    pub execute_us: f64,
    pub queue_wait_p50_us: f64,
    pub batch_size_mean: f64,
    pub ready_events_per_wake: f64,
}

/// Opens one TCP socket and, multiplexed over it, one registered session
/// per listed analyst plus (optionally) the updater's.
pub fn connect(
    addr: SocketAddr,
    analysts: &[usize],
    updater: bool,
) -> Result<(Vec<Lane>, Option<Lane>), String> {
    let mux = MuxConnection::connect_tcp(addr, CLIENT_NAME).map_err(|e| format!("{e:?}"))?;
    let open = || -> Result<DProvClient, String> {
        let (_, channel) = mux.open_channel().map_err(|e| format!("{e:?}"))?;
        DProvClient::connect(channel, CLIENT_NAME).map_err(|e| format!("{e:?}"))
    };
    let mut lanes = Vec::with_capacity(analysts.len());
    for analyst in analysts {
        let mut client = open()?;
        client
            .register(&format!("analyst-{analyst}"))
            .map_err(|e| format!("{e:?}"))?;
        lanes.push(Lane { client });
    }
    let updater = if updater {
        let mut client = open()?;
        client
            .register_updater(UPDATER)
            .map_err(|e| format!("{e:?}"))?;
        Some(Lane { client })
    } else {
        None
    };
    Ok((lanes, updater))
}

// ----- layer probes (traced run) --------------------------------------------

/// The same system as [`Stack`] builds, without service or listener, for
/// the in-process replay: `DProvDb::submit_shared` and friends.
pub struct Replay {
    system: DProvDb,
}

impl Replay {
    pub fn new(data: &Dataset, spec: &SystemSpec, dir: &Path) -> Result<Replay, String> {
        let mut system = build_system(data, spec);
        match spec.ledger {
            Ledger::Wal { .. } => {
                let store = open_store(dir)?;
                store.set_metrics(system.metrics().clone());
                system.set_recorder(Arc::new(store));
            }
            Ledger::Quorum => {
                Gateway::new(REPLICAS, CLUSTER_SEED, system.metrics().clone()).attach(&mut system);
            }
        }
        Ok(Replay { system })
    }

    pub fn submit(&self, analyst: usize, op: &Op) -> Result<Reply, String> {
        let analyst = AnalystId(analyst);
        let reply = match op {
            Op::Scalar(request) => self
                .system
                .submit_shared(analyst, request)
                .map(Reply::Scalar),
            Op::Grouped(request) => self
                .system
                .answer_group_by(analyst, request)
                .map(Reply::Grouped),
            Op::Update(batch) => self.system.apply_update(batch).map(|_| Reply::Ack),
            Op::Seal => self.system.seal_epoch().map(|_| Reply::Ack),
        };
        reply.map_err(|e| format!("{e:?}"))
    }
}

fn open_store(dir: &Path) -> Result<ProvenanceStore, String> {
    ProvenanceStore::open_with(dir, StoreOptions { fsync: false })
        .map(|(store, _)| store)
        .map_err(|e| format!("open store: {e:?}"))
}

/// What the resolve step derives from one request: the inputs the
/// translation and the release are then replayed on.
pub struct Resolved {
    /// Per-bin variance target (accuracy mode only).
    per_bin_target: Option<f64>,
    sensitivity: dprov_dp::sensitivity::Sensitivity,
    /// Bins of the selected view: the size of one release.
    view_bins: usize,
    view: String,
}

/// Standalone calls into single layers, on one operation's own inputs.
pub struct Layers<'a> {
    data: &'a Dataset,
    catalog: ViewCatalog,
    config: SystemConfig,
    rng: DpRng,
    store: Option<ProvenanceStore>,
    gate: Option<ReplicatedRecorder>,
    next_seq: u64,
}

impl<'a> Layers<'a> {
    /// `dir` receives a scratch ledger when the workload's ledger is a WAL.
    pub fn new(data: &'a Dataset, spec: &SystemSpec, dir: &Path) -> Result<Layers<'a>, String> {
        let (store, gate) = match spec.ledger {
            Ledger::Wal { .. } => (Some(open_store(dir)?), None),
            Ledger::Quorum => {
                let cluster = Arc::new(Mutex::new(SimCluster::new(REPLICAS, CLUSTER_SEED)));
                (None, Some(ReplicatedRecorder::new(cluster)))
            }
        };
        Ok(Layers {
            data,
            catalog: catalog(data, spec),
            config: system_config(spec),
            rng: DpRng::seed_from_u64(11),
            store,
            gate,
            next_seq: 0,
        })
    }

    /// `dprov-engine`: view selection and the query's variance coefficient.
    pub fn resolve(&self, op: &Op) -> Option<Resolved> {
        let (query, mode) = match op {
            Op::Scalar(request) => (request.query.clone(), request.mode),
            // A grouped query resolves its view once; its first cell
            // stands in for the per-cell variance coefficient.
            Op::Grouped(request) => {
                let schema = self.data.db.table(self.data.table).ok()?.schema().clone();
                let first = request
                    .query
                    .scalar_queries(&schema)
                    .ok()?
                    .into_iter()
                    .next()?;
                (first, request.mode)
            }
            Op::Update(_) | Op::Seal => return None,
        };
        let (view, linear) = self.catalog.select_view(&query, &self.data.db).ok()?;
        let coeff_sq = linear.answer_variance(1.0);
        let per_bin_target = match mode {
            SubmissionMode::Accuracy { variance } if coeff_sq > 0.0 => Some(variance / coeff_sq),
            _ => None,
        };
        Some(Resolved {
            per_bin_target,
            sensitivity: view.sensitivity(),
            view_bins: view
                .domain_size(self.data.db.table(&view.table).ok()?.schema())
                .ok()?,
            view: view.name,
        })
    }

    /// `dprov-dp`: the accuracy→epsilon translation. False when the
    /// request carries its own epsilon (nothing to translate).
    pub fn translate(&self, resolved: &Resolved) -> bool {
        let Some(target) = resolved.per_bin_target else {
            return false;
        };
        let translated = translate_variance_to_epsilon(
            target,
            self.config.delta,
            resolved.sensitivity,
            self.config.total_epsilon,
            self.config.translation_precision,
        );
        std::hint::black_box(translated.map(|t| t.epsilon.value()).ok());
        true
    }

    /// `dprov-dp`: one noise-scale calibration at the charged epsilon
    /// (a fresh release calibrates the global and the local synopsis).
    pub fn calibrate(&self, resolved: &Resolved, epsilon_bits: u64) -> bool {
        let epsilon = f64::from_bits(epsilon_bits);
        if epsilon <= 0.0 {
            return false;
        }
        std::hint::black_box(
            analytic_gaussian_sigma(
                epsilon,
                self.config.delta.value(),
                resolved.sensitivity.value(),
            )
            .ok(),
        );
        true
    }

    /// `dprov-dp`: one view-sized Gaussian noise vector.
    pub fn release(&mut self, resolved: &Resolved) {
        std::hint::black_box(self.rng.gaussian_vector(1.0, resolved.view_bins));
    }

    /// `dprov-storage` / `dprov-cluster`: records one commit shaped like
    /// this operation's through the workload's kind of ledger.
    pub fn record_commit(&mut self, analyst: usize, resolved: &Resolved, epsilon_bits: u64) {
        let charged = f64::from_bits(epsilon_bits);
        let record = CommitRecord {
            seq: self.next_seq,
            analyst: AnalystId(analyst),
            view: resolved.view.clone(),
            mechanism: MechanismKind::AdditiveGaussian,
            prev_entry: 0.0,
            new_entry: charged,
            charged,
        };
        self.next_seq += 1;
        let result = match (&self.store, &self.gate) {
            (Some(store), _) => store.record_commit(&record),
            (None, Some(gate)) => gate.record_commit(&record),
            (None, None) => Ok(()),
        };
        result.expect("scratch ledger accepts a commit");
    }

    /// Bytes the scratch ledger grew by per recorded commit.
    pub fn bytes_per_commit(&self) -> f64 {
        match &self.store {
            Some(store) if self.next_seq > 0 => store.wal_len() as f64 / self.next_seq as f64,
            _ => 0.0,
        }
    }

    pub fn is_quorum(&self) -> bool {
        self.gate.is_some()
    }
}

/// `dprov-api`: encodes, frames, unframes and decodes this operation's
/// own request and reply. Returns the bytes that crossed the wire.
pub fn codec_round_trip(op: &Op, reply: &Reply) -> usize {
    let request = match op {
        Op::Scalar(r) => Request::SubmitQuery(r.clone()),
        Op::Grouped(r) => Request::GroupByQuery(r.clone()),
        Op::Update(b) => Request::ApplyUpdate(b.clone()),
        Op::Seal => Request::SealEpoch,
    };
    let response = match reply {
        Reply::Scalar(o) => Response::QueryAnswer(o.clone()),
        Reply::Grouped(g) => Response::GroupedAnswer(g.clone()),
        Reply::Ack => Response::HeartbeatAck,
    };
    let up = frame(&encode_request(1, &request));
    let payload = read_frame(&mut up.as_slice())
        .expect("own frame reads back")
        .expect("frame is complete");
    std::hint::black_box(decode_request(&payload).expect("own request decodes"));
    let down = frame(&encode_response(1, &response));
    let payload = read_frame(&mut down.as_slice())
        .expect("own frame reads back")
        .expect("frame is complete");
    std::hint::black_box(decode_response(&payload).expect("own response decodes"));
    up.len() + down.len()
}
