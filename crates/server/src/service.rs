//! The concurrent query service: worker pool, job routing and responses.
//!
//! [`QueryService`] fronts a shared, thread-safe
//! [`DProvDb`] with:
//!
//! * a bounded MPMC job queue (`crate::queue::BoundedQueue`) providing
//!   backpressure between submitters and the worker pool;
//! * `N` worker threads, each pulling jobs and executing them through
//!   [`DProvDb::submit_with_rng`] (or, for a GROUP BY,
//!   [`DProvDb::answer_group_by_with_rng`]) with the owning session's
//!   private noise stream — budget safety is enforced by the core's
//!   admission control, so workers need no coordination beyond the
//!   session lanes;
//! * per-session FIFO execution via **session lanes**: at most one job per
//!   session is ever in the runnable queue; further submissions wait in
//!   the session's pending lane and the finishing worker chains straight
//!   into them. Workers therefore never park waiting for another job's
//!   turn (no head-of-line blocking), a session occupies at most one
//!   worker, and each session's noise stream is independent of the worker
//!   count (see the [`crate`] docs for the exact determinism guarantee);
//! * one job shape and one way in per calling style: a [`Work`] item is
//!   answered with a [`Reply`] through the job's [`Completion`];
//!   [`QueryService::try_submit`] never blocks (the event-loop frontend's
//!   path) and [`QueryService::submit`] returns a [`Pending`] handle
//!   (same-process embedders);
//! * a shortcut past the queue for scalar requests:
//!   [`QueryService::try_answer_inline`] admits a scalar request on an
//!   idle session on the caller's thread while the worker pool is idle,
//!   answers only a provable cache hit while it is busy, never waits for
//!   another request's whole work, and refuses everything else back to
//!   [`QueryService::try_submit`]. The event-loop frontend tries it first;
//!   [`QueryService::submit`] never takes it, so a same-process embedder
//!   runs every request through the queue;
//! * one session reaper thread, started with the pool: every half
//!   session TTL it removes expired sessions from the registry, so no
//!   session outlives its TTL by more than `ttl / 2` whether the service
//!   is driven over the wire or only through [`QueryService::submit`].
//!   It stops with the queue, on [`QueryService::shutdown`] or drop.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dprov_core::processor::{
    GroupedOutcome, GroupedRequest, QueryOutcome, QueryRequest, SubmissionMode,
};
use dprov_core::recorder::Recorder;
use dprov_core::system::{DProvDb, SystemStats};
use dprov_core::{CoreError, StorageError};
use dprov_dp::accountant::CompositionMethod;
use dprov_dp::rng::{DpRng, RngCheckpoint};
use dprov_obs::{CounterId, GaugeId, HistId, HistogramSnapshot, MetricsRegistry, Stage};
use dprov_storage::{
    analysts_digest, config_fingerprint, ProvenanceStore, SessionCheckpoint, StoreOptions,
};

use crate::queue::{BoundedQueue, SpaceListener, TryPushError};
use crate::session::{Session, SessionError, SessionId, SessionInfo, SessionRegistry};

/// The most jobs a worker drains from the queue into one micro-batch.
/// Realised batches rarely reach it; the fair-share cap usually binds
/// first in a multi-worker pool.
const MAX_BATCH: usize = 8;

/// Tuning knobs for the service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker threads executing queries.
    pub(crate) workers: usize,
    /// Capacity of the submission queue (backpressure threshold).
    pub(crate) queue_capacity: usize,
    /// How long a session may go without a heartbeat or submission before
    /// it is considered expired. The service's reaper removes an expired
    /// session within another `session_ttl / 2`.
    pub(crate) session_ttl: Duration,
    /// Names authorised to act as data **updaters** (submit update
    /// batches and seal epochs) — trusted configuration, like the analyst
    /// roster. Empty (the default) refuses every updater registration.
    pub(crate) updaters: Vec<String>,
}

// `dprovbench/src/surface.rs` calls
// `.frontend_mode(FrontendMode::EventLoop)` and may not be edited outside
// a `benchmark` PR, so this one-variant enum and the builder method that
// ignores it stay until that call is dropped (see ROADMAP 2(b)). Nothing
// in the workspace reads either.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendMode {
    EventLoop,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            session_ttl: Duration::from_secs(60),
            updaters: Vec::new(),
        }
    }
}

impl ServiceConfig {
    /// A validating builder over the default configuration. Invalid knob
    /// combinations (`workers == 0`, `queue_capacity == 0`, a zero
    /// `session_ttl`) are rejected at
    /// [`ServiceConfigBuilder::build`] time instead of being silently
    /// clamped at service start.
    #[must_use]
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }
}

/// Validating builder for [`ServiceConfig`] (see
/// [`ServiceConfig::builder`]).
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Sets the number of worker threads (must be non-zero).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the submission-queue capacity (must be non-zero).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the session time-to-live (must be non-zero).
    #[must_use]
    pub fn session_ttl(mut self, ttl: Duration) -> Self {
        self.config.session_ttl = ttl;
        self
    }

    /// Sets the updater roster (names authorised to submit updates and
    /// seal epochs).
    #[must_use]
    pub fn updaters<S: AsRef<str>>(mut self, names: &[S]) -> Self {
        self.config.updaters = names.iter().map(|s| s.as_ref().to_owned()).collect();
        self
    }

    // Stores nothing: see the note on [`FrontendMode`].
    #[doc(hidden)]
    #[must_use]
    pub fn frontend_mode(self, _mode: FrontendMode) -> Self {
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ServiceConfig, ServerError> {
        if self.config.workers == 0 {
            return Err(ServerError::InvalidConfig(
                "workers must be non-zero (a pool with no workers never answers)".to_owned(),
            ));
        }
        if self.config.queue_capacity == 0 {
            return Err(ServerError::InvalidConfig(
                "queue_capacity must be non-zero (a zero-capacity queue deadlocks every submit)"
                    .to_owned(),
            ));
        }
        if self.config.session_ttl.is_zero() {
            return Err(ServerError::InvalidConfig(
                "session_ttl must be non-zero (sessions would expire before their first query)"
                    .to_owned(),
            ));
        }
        Ok(self.config)
    }
}

/// Errors surfaced by the service layer (the DP semantics themselves are
/// reported inside [`QueryOutcome`], not here).
///
/// Marked `#[non_exhaustive]`: the service grows capabilities (and with
/// them failure modes) over time; downstream matches must carry a
/// wildcard arm. The stable analyst-facing form is `dprov_api::ApiError`,
/// which this enum maps into via `From`.
#[non_exhaustive]
#[derive(Debug)]
pub enum ServerError {
    /// The session was unknown or expired.
    Session(SessionError),
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The core system returned a hard error (unknown analyst, engine
    /// failure).
    Core(CoreError),
    /// The durable store failed (write-ahead append, recovery or
    /// compaction). When a *submission* carries this, its answer was
    /// withheld: the noise it drew was never observed, so recovery cannot
    /// leak it.
    Storage(StorageError),
    /// A configuration builder rejected an invalid knob combination.
    InvalidConfig(String),
    /// A session-resume attempt named a session owned by another analyst.
    SessionOwnership {
        /// The session that was claimed.
        session: SessionId,
        /// The analyst that (wrongly) claimed it.
        claimant: dprov_core::analyst::AnalystId,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Session(e) => write!(f, "session error: {e}"),
            ServerError::ShuttingDown => write!(f, "service is shutting down"),
            ServerError::Core(e) => write!(f, "core error: {e}"),
            ServerError::Storage(e) => write!(f, "storage error: {e}"),
            ServerError::InvalidConfig(msg) => write!(f, "invalid service configuration: {msg}"),
            ServerError::SessionOwnership { session, claimant } => {
                write!(f, "session {session} does not belong to analyst {claimant}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<SessionError> for ServerError {
    fn from(e: SessionError) -> Self {
        ServerError::Session(e)
    }
}

impl From<StorageError> for ServerError {
    fn from(e: StorageError) -> Self {
        ServerError::Storage(e)
    }
}

/// One unit of work for the pool. Scalar and grouped submissions share the
/// queue, the session lanes and the micro-batches; only the core call that
/// executes them differs.
#[derive(Debug)]
pub enum Work {
    /// One scalar query.
    Scalar(QueryRequest),
    /// One GROUP BY query: the per-group pipeline applied to each cell of
    /// one view's histogram, executed as a single job.
    Grouped(GroupedRequest),
}

/// What a finished [`Work`] item produced, variant for variant.
#[derive(Debug)]
pub enum Reply {
    /// The outcome of [`Work::Scalar`].
    Scalar(QueryOutcome),
    /// The outcome of [`Work::Grouped`]: one [`QueryOutcome`] per group
    /// cell in canonical group-enumeration order.
    Grouped(GroupedOutcome),
}

impl Reply {
    /// Whether the submission counts as answered in the session tallies.
    /// A grouped submission counts once: answered iff every cell released
    /// (a partial rejection reads as rejected — the analyst did not get
    /// the histogram they asked for).
    fn is_answered(&self) -> bool {
        match self {
            Reply::Scalar(outcome) => outcome.is_answered(),
            Reply::Grouped(grouped) => grouped.outcomes.iter().all(QueryOutcome::is_answered),
        }
    }

    /// The scalar outcome, if this is the reply to [`Work::Scalar`].
    #[must_use]
    pub fn into_scalar(self) -> Option<QueryOutcome> {
        match self {
            Reply::Scalar(outcome) => Some(outcome),
            Reply::Grouped(_) => None,
        }
    }

    /// The grouped outcome, if this is the reply to [`Work::Grouped`].
    #[must_use]
    pub fn into_grouped(self) -> Option<GroupedOutcome> {
        match self {
            Reply::Grouped(outcome) => Some(outcome),
            Reply::Scalar(_) => None,
        }
    }
}

/// The completion handler of one submission, invoked exactly once with its
/// response. Runs on the worker thread that executed the job, so it must
/// be quick and non-blocking — the event-loop frontend uses it to hand the
/// encoded reply back to the owning loop thread, and
/// [`QueryService::submit`] uses one that sends on a channel.
pub type Completion = Box<dyn FnOnce(Result<Reply, ServerError>) + Send>;

/// Why [`QueryService::try_submit`] could not accept a submission.
pub enum TrySubmitError {
    /// The runnable queue is full. The work and its completion are handed
    /// back intact so the caller can park them and retry once a
    /// queue-space listener fires — this is the backpressure signal the
    /// event-loop frontend turns into "stop reading this connection".
    Full {
        /// The submitted work, returned unexecuted.
        work: Work,
        /// The completion handler, never invoked.
        on_done: Completion,
    },
    /// The submission was rejected outright (unknown/expired session or a
    /// shutting-down service). The completion is dropped without running;
    /// the caller reports the error itself.
    Rejected(ServerError),
}

impl std::fmt::Debug for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full { work, .. } => f
                .debug_struct("Full")
                .field("work", work)
                .finish_non_exhaustive(),
            TrySubmitError::Rejected(e) => f.debug_tuple("Rejected").field(e).finish(),
        }
    }
}

/// Durability settings for [`QueryService::start_durable`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the write-ahead ledger and snapshots.
    pub(crate) dir: PathBuf,
    /// `fsync` every ledger append (true for real deployments; tests and
    /// benches may trade durability for speed).
    pub(crate) fsync: bool,
    /// Auto-compact (snapshot + ledger truncation) once this many ledger
    /// appends have accumulated since the last snapshot; `0` disables
    /// auto-compaction (use [`QueryService::checkpoint`] manually).
    pub(crate) snapshot_every: u64,
    /// Sealed-epoch retention for snapshots: keep only the most recent
    /// `delta_retention` epochs individually and merge everything older
    /// into one baseline epoch before each snapshot (`0`, the default,
    /// keeps the full history). Replaying the merged baseline is
    /// bit-identical to replaying the epochs it replaced, so recovered
    /// answers and budgets are unaffected — only snapshot size is.
    pub(crate) delta_retention: u64,
}

impl DurabilityConfig {
    /// Durability in `dir` with fsync on and compaction every 4096
    /// appends.
    #[must_use]
    pub(crate) fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: true,
            snapshot_every: 4096,
            delta_retention: 0,
        }
    }

    /// A validating builder rooted at `dir` (same pattern as
    /// [`ServiceConfig::builder`]): an empty directory path is rejected at
    /// build time.
    #[must_use]
    pub fn builder(dir: impl Into<PathBuf>) -> DurabilityConfigBuilder {
        DurabilityConfigBuilder {
            config: DurabilityConfig::new(dir),
        }
    }
}

/// Validating builder for [`DurabilityConfig`] (see
/// [`DurabilityConfig::builder`]).
#[derive(Debug, Clone)]
pub struct DurabilityConfigBuilder {
    config: DurabilityConfig,
}

impl DurabilityConfigBuilder {
    /// Whether every ledger append is fsync'd (defaults to `true`).
    #[must_use]
    pub fn fsync(mut self, fsync: bool) -> Self {
        self.config.fsync = fsync;
        self
    }

    /// Auto-compaction threshold in ledger appends; `0` disables
    /// auto-compaction (defaults to 4096).
    #[must_use]
    pub fn snapshot_every(mut self, appends: u64) -> Self {
        self.config.snapshot_every = appends;
        self
    }

    /// Sealed-epoch retention applied before each snapshot; `0` (the
    /// default) keeps the full epoch history.
    #[must_use]
    pub fn delta_retention(mut self, epochs: u64) -> Self {
        self.config.delta_retention = epochs;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<DurabilityConfig, ServerError> {
        if self.config.dir.as_os_str().is_empty() {
            return Err(ServerError::InvalidConfig(
                "durability dir must be a non-empty path".to_owned(),
            ));
        }
        Ok(self.config)
    }
}

/// What recovery found on startup (see [`QueryService::start_durable`]).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot was restored.
    pub snapshot_restored: bool,
    /// Write-ahead admissions (commits, each with the data access it
    /// made, if any) replayed on top of the snapshot.
    pub replayed_commits: usize,
    /// Sessions restored with their noise streams fast-forwarded.
    pub restored_sessions: usize,
    /// Update batches replayed (those after the last seal land pending).
    pub(crate) replayed_updates: usize,
    /// Epoch seals re-applied (segments + histogram patches, bit-exact).
    pub(crate) replayed_epochs: usize,
    /// Damage found (and discarded) at the ledger tail, if any.
    pub wal_corruption: Option<StorageError>,
}

/// Shared durable context: the store plus the compaction policy.
struct DurableCtx {
    store: Arc<ProvenanceStore>,
    fingerprint: u64,
    snapshot_every: u64,
    /// Sealed-epoch retention applied before each snapshot (`0` keeps the
    /// full history).
    delta_retention: u64,
    /// `appends_since_snapshot` watermark at which the next automatic
    /// compaction fires. Raised past the threshold after a *failed*
    /// attempt so a persistently failing disk does not re-freeze the
    /// commit pipeline on every completed job.
    next_compaction_at: std::sync::atomic::AtomicU64,
    /// The most recent compaction failure, kept until a compaction
    /// succeeds — operators poll this instead of losing the error.
    last_compaction_error: Mutex<Option<StorageError>>,
    /// Failpoint: session checkpoints fail while set.
    #[cfg(test)]
    fail_session_checkpoints: std::sync::atomic::AtomicBool,
}

impl DurableCtx {
    /// True once the ledger has grown past the compaction watermark.
    fn compaction_due(&self) -> bool {
        self.snapshot_every > 0
            && self.store.appends_since_snapshot() >= self.next_compaction_at.load(Ordering::SeqCst)
    }

    /// Runs one compaction, maintaining the backoff watermark and the
    /// surfaced error state.
    fn try_compact(&self, system: &DProvDb) -> Result<(), StorageError> {
        if self.delta_retention > 0 {
            system.compact_delta_history(self.delta_retention);
        }
        let result = QueryService::compact_into(system, &self.store, self.fingerprint);
        let step = self.snapshot_every.max(1);
        match &result {
            Ok(()) => {
                // appends_since_snapshot was reset to 0 by the compaction.
                self.next_compaction_at.store(step, Ordering::SeqCst);
                *self.last_compaction_error.lock().expect("ctx poisoned") = None;
            }
            Err(e) => {
                self.next_compaction_at
                    .store(self.store.appends_since_snapshot() + step, Ordering::SeqCst);
                *self.last_compaction_error.lock().expect("ctx poisoned") = Some(e.clone());
            }
        }
        result
    }
}

/// Stable wire code for the composition method, used only inside the
/// configuration fingerprint.
fn composition_code(method: CompositionMethod) -> u8 {
    match method {
        CompositionMethod::Sequential => 0,
        CompositionMethod::Advanced => 1,
        CompositionMethod::Rdp => 2,
        CompositionMethod::Zcdp => 3,
    }
}

/// The configuration fingerprint binding a store directory to one system
/// configuration — including the analyst roster (names, privileges,
/// registration order), since the `AnalystId`s inside durable records are
/// positional and re-attributing them would silently mis-account.
fn system_fingerprint(system: &DProvDb) -> u64 {
    let roster = analysts_digest(
        system
            .registry()
            .analysts()
            .iter()
            .map(|a| (a.name.as_str(), a.privilege.level())),
    );
    config_fingerprint(
        system.config().seed,
        system.config().total_epsilon.value(),
        system.config().delta.value(),
        system.mechanism().code(),
        composition_code(system.config().composition),
        roster,
    )
}

/// One queued submission.
struct Job {
    session: Arc<Session>,
    work: Work,
    on_done: Completion,
    /// Request id keying this job's trace-journal events (the protocol's
    /// pipelining id when the job came through a frontend, a
    /// service-assigned sequence number for in-process submissions).
    trace_id: u64,
    /// When the job entered the queue (or a session lane); `None` with a
    /// disabled registry so the hot path never pays a clock read.
    enqueued_at: Option<Instant>,
}

/// Per-session dispatch state: `busy` is true iff exactly one of the
/// session's jobs is runnable (queued or executing); everything else waits
/// in `pending`, drained in FIFO order by the worker finishing the current
/// job.
#[derive(Default)]
struct SessionLane {
    busy: bool,
    pending: VecDeque<Job>,
}

type LaneMap = Mutex<HashMap<u64, SessionLane>>;

/// Aggregate service counters (point-in-time snapshot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Submissions accepted since startup: queued, waiting in a session
    /// lane or answered inline.
    pub submitted: usize,
    /// Submissions fully executed (answered or rejected).
    pub completed: usize,
    /// Micro-batches drained by the workers (the registry's
    /// `batch.executed`). Jobs answered inline
    /// ([`QueryService::try_answer_inline`]) count in `completed` but in
    /// no batch; the realised batch size is `batch_sizes`.
    pub batches: usize,
    /// Update epochs sealed through this service.
    pub(crate) epochs_sealed: usize,
    /// Jobs currently waiting in the queue.
    pub(crate) queued: usize,
    /// Live sessions.
    pub(crate) sessions: usize,
    /// Deepest the submission queue has ever been (the registry's
    /// `queue.depth_hwm`; a monotone high-watermark, exact: producers
    /// observe the depth under the queue lock).
    pub queue_depth_hwm: usize,
    /// Distribution of realised micro-batch sizes (jobs per drained
    /// batch; the registry's `batch.size`), as a log-bucketed percentile
    /// summary.
    pub(crate) batch_sizes: HistogramSnapshot,
    /// The underlying system's runtime statistics.
    pub system: SystemStats,
}

/// The concurrent multi-analyst query service.
pub struct QueryService {
    system: Arc<DProvDb>,
    sessions: Arc<SessionRegistry>,
    queue: Arc<BoundedQueue<Job>>,
    lanes: Arc<LaneMap>,
    workers: Vec<JoinHandle<()>>,
    submitted: Arc<AtomicUsize>,
    completed: Arc<AtomicUsize>,
    durable: Option<Arc<DurableCtx>>,
    /// Names authorised as data updaters (from [`ServiceConfig`]).
    updaters: Vec<String>,
    /// Epoch barrier: each worker holds the read side across one whole
    /// micro-batch; [`QueryService::seal_epoch`] takes the write side, so
    /// a seal quiesces at micro-batch boundaries and no batch's answers
    /// straddle two epochs.
    epoch_barrier: Arc<std::sync::RwLock<()>>,
    /// Epochs sealed through this service.
    epochs_sealed: Arc<AtomicUsize>,
    /// The system's metrics handle, cloned at start so the service and
    /// its workers record into the same registry.
    metrics: MetricsRegistry,
    /// Trace-id sequence for in-process submissions (protocol submissions
    /// carry their own pipelining id).
    trace_seq: AtomicU64,
    /// The configured session TTL, exposed so the event-loop frontend can
    /// derive its idle-connection reaping horizon from the same knob.
    session_ttl: Duration,
    /// The session reaper; `None` once stopped.
    reaper: Option<Reaper>,
}

/// The service-owned session reaper: one thread that wakes every half
/// session TTL and removes expired sessions, so no session outlives its
/// TTL by more than `ttl / 2` whichever API drives the service.
struct Reaper {
    /// Set, then the thread unparked, to stop it.
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Reaper {
    fn spawn(
        sessions: Arc<SessionRegistry>,
        durable: Option<Arc<DurableCtx>>,
        ttl: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        // A sub-millisecond TTL would make the wait a spin.
        let period = (ttl / 2).max(Duration::from_millis(1));
        // A spurious early wake-up only reaps early.
        let thread = std::thread::Builder::new()
            .name("dprov-session-reaper".to_owned())
            .spawn(move || loop {
                std::thread::park_timeout(period);
                if stopped.load(Ordering::Acquire) {
                    return;
                }
                reap_sessions(&sessions, durable.as_deref());
            })
            .expect("failed to spawn session reaper thread");
        Reaper { stop, thread }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        let _ = self.thread.join();
    }
}

/// Removes expired sessions from the registry. In durable mode the
/// closures are journalled best-effort: a lost close record only makes
/// recovery restore a dead session, never lose budget state.
fn reap_sessions(sessions: &SessionRegistry, durable: Option<&DurableCtx>) -> Vec<SessionId> {
    let expired = sessions.expire_stale();
    if let Some(ctx) = durable {
        for id in &expired {
            let _ = ctx.store.record_session_closed(id.0);
        }
    }
    expired
}

impl QueryService {
    /// Starts the worker pool over a shared system, volatile (no durable
    /// store). The session registry derives its noise streams from the
    /// system's configured seed, so a fixed (config, registration order,
    /// per-session submission order) triple reproduces identical answers
    /// for any worker count — under the vanilla mechanism with an
    /// uncontended budget, and under the additive mechanism whenever
    /// sessions additionally work disjoint views (see the crate docs for
    /// the exact caveats).
    #[must_use]
    pub fn start(system: Arc<DProvDb>, config: ServiceConfig) -> Self {
        let sessions = Arc::new(SessionRegistry::new(
            system.config().seed,
            config.session_ttl,
        ));
        Self::start_inner(system, sessions, config, None)
    }

    /// Opens (or recovers) the durable store in `durability.dir`, replays
    /// the snapshot plus the write-ahead suffix into `system`, restores
    /// every session's deterministic noise stream, attaches the store as
    /// the system's commit recorder and starts the worker pool.
    ///
    /// The store directory is bound to the system configuration by a
    /// fingerprint (seed, budget, delta, mechanism, composition, analyst
    /// count); recovery refuses a mismatched directory rather than
    /// silently replaying budgets into the wrong accounting.
    pub fn start_durable(
        mut system: DProvDb,
        config: ServiceConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), ServerError> {
        let fingerprint = system_fingerprint(&system);
        let (store, recovered) = ProvenanceStore::open_with(
            &durability.dir,
            StoreOptions {
                fsync: durability.fsync,
            },
        )?;

        let mut report = RecoveryReport {
            wal_corruption: recovered.wal_corruption,
            ..RecoveryReport::default()
        };
        // Validate the binding fingerprint whether it came from the
        // snapshot or from the ledger's fingerprint frame — WAL-only
        // recovery (crash before the first compaction) must refuse a
        // mismatched roster/configuration just as firmly.
        match recovered.fingerprint {
            Some(bound) if bound != fingerprint => {
                return Err(ServerError::Storage(StorageError::IncompatibleState(
                    format!(
                        "store fingerprint {bound:#x} does not match system fingerprint \
                         {fingerprint:#x}"
                    ),
                )));
            }
            Some(_) => {}
            // A fresh store: bind it to this configuration now.
            None => store.bind_fingerprint(fingerprint)?,
        }
        if let Some(snapshot) = &recovered.snapshot {
            system
                .import_durable_state(&snapshot.core)
                .map_err(ServerError::Core)?;
            report.snapshot_restored = true;
        }
        // Dynamic-data replay before budget commits: epoch seals rebuild
        // segments and patched histograms deterministically; updates after
        // the last seal land back in the pending log (the crash-mid-epoch
        // contract: recovered state = last sealed epoch + pending batches).
        for step in &recovered.deltas {
            match step {
                dprov_storage::DeltaReplay::Update(batch) => {
                    system
                        .replay_update(batch.clone())
                        .map_err(ServerError::Core)?;
                    report.replayed_updates += 1;
                }
                dprov_storage::DeltaReplay::Seal { epoch, through_seq } => {
                    system
                        .replay_epoch_seal(*epoch, *through_seq)
                        .map_err(ServerError::Core)?;
                    report.replayed_epochs += 1;
                }
            }
        }
        for admission in &recovered.admissions {
            system
                .replay_admission(admission)
                .map_err(ServerError::Core)?;
        }
        report.replayed_commits = recovered.admissions.len();

        let store = Arc::new(store);
        // The ledger records WAL append/fsync latency into the same
        // registry as everything else, and recovery's replay counts land
        // as counters so a dashboard can tell a cold start from a replay.
        store.set_metrics(system.metrics().clone());
        system.metrics().add(
            CounterId::RecoveredCommits,
            recovered.admissions.len() as u64,
        );
        system.metrics().add(
            CounterId::RecoveredSessions,
            recovered.sessions.len() as u64,
        );
        system.set_recorder(Arc::clone(&store) as Arc<dyn Recorder>);

        let sessions = Arc::new(SessionRegistry::new(
            system.config().seed,
            config.session_ttl,
        ));
        for session in &recovered.sessions {
            sessions.restore(SessionId(session.session), session.analyst, session.rng);
        }
        sessions.reserve_ids(recovered.next_session_id);
        report.restored_sessions = recovered.sessions.len();

        let durable = Arc::new(DurableCtx {
            store,
            fingerprint,
            snapshot_every: durability.snapshot_every,
            delta_retention: durability.delta_retention,
            next_compaction_at: std::sync::atomic::AtomicU64::new(durability.snapshot_every.max(1)),
            last_compaction_error: Mutex::new(None),
            #[cfg(test)]
            fail_session_checkpoints: std::sync::atomic::AtomicBool::new(false),
        });
        let service = Self::start_inner(Arc::new(system), sessions, config, Some(durable));
        Ok((service, report))
    }

    fn start_inner(
        system: Arc<DProvDb>,
        sessions: Arc<SessionRegistry>,
        config: ServiceConfig,
        durable: Option<Arc<DurableCtx>>,
    ) -> Self {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let lanes: Arc<LaneMap> = Arc::new(Mutex::new(HashMap::new()));
        let submitted = Arc::new(AtomicUsize::new(0));
        let completed = Arc::new(AtomicUsize::new(0));
        let epoch_barrier = Arc::new(std::sync::RwLock::new(()));
        let metrics = system.metrics().clone();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let system = Arc::clone(&system);
                let queue = Arc::clone(&queue);
                let lanes = Arc::clone(&lanes);
                let completed = Arc::clone(&completed);
                let durable = durable.clone();
                let epoch_barrier = Arc::clone(&epoch_barrier);
                let metrics = metrics.clone();
                let pool_size = config.workers.max(1);
                std::thread::Builder::new()
                    .name(format!("dprov-worker-{i}"))
                    .spawn(move || {
                        Self::worker_loop(
                            &system,
                            &queue,
                            &lanes,
                            &completed,
                            durable.as_deref(),
                            &epoch_barrier,
                            pool_size,
                            i as u64,
                            &metrics,
                        );
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        // Spawned after the workers and stopped after them: in the other
        // order the `grouped` benchmark workload ran 6-14 % fewer queries
        // per second on a 2-thread host (the cause is not isolated).
        let reaper = Reaper::spawn(Arc::clone(&sessions), durable.clone(), config.session_ttl);
        QueryService {
            system,
            sessions,
            queue,
            lanes,
            workers,
            submitted,
            completed,
            durable,
            updaters: config.updaters.clone(),
            epoch_barrier,
            epochs_sealed: Arc::new(AtomicUsize::new(0)),
            metrics,
            trace_seq: AtomicU64::new(1),
            session_ttl: config.session_ttl,
            reaper: Some(reaper),
        }
    }

    /// Snapshot + ledger truncation, holding the commit freeze across the
    /// truncation so no commit can land in the gap and be dropped.
    fn compact_into(
        system: &DProvDb,
        store: &ProvenanceStore,
        fingerprint: u64,
    ) -> Result<(), StorageError> {
        let freeze = system.freeze_commits();
        let core = system.export_durable_state_frozen(&freeze);
        store.compact(fingerprint, &core)
    }

    /// Durable mode: persists the session's noise-stream position BEFORE
    /// an answer is acknowledged. An acknowledged answer therefore implies
    /// its draws are checkpointed — a recovered session can never
    /// re-release randomness an analyst has observed. If the append fails
    /// the answer is withheld (the noise was never observed, so rewinding
    /// is safe).
    fn checkpoint_session(
        durable: Option<&DurableCtx>,
        session: &Session,
        rng: RngCheckpoint,
    ) -> Result<(), ServerError> {
        durable.map_or(Ok(()), |ctx| {
            #[cfg(test)]
            if ctx.fail_session_checkpoints.load(Ordering::SeqCst) {
                return Err(ServerError::Storage(StorageError::Unavailable(
                    "session checkpoint failpoint".to_owned(),
                )));
            }
            ctx.store
                .record_session(&SessionCheckpoint {
                    session: session.id().0,
                    analyst: session.analyst(),
                    rng,
                })
                .map_err(ServerError::Storage)
        })
    }

    /// Runs one unit of work on its session's noise stream and settles it,
    /// for a worker and for [`Self::try_answer_inline`] alike: the
    /// `Execute` trace stage (keyed by `trace`, the trace id and lane),
    /// the completion count, the durable session checkpoint and the
    /// session's outcome counters. `None` — only from an inline `run`
    /// that gave up having drawn nothing — settles nothing.
    ///
    /// The session is checkpointed when the work drew noise, or when an
    /// earlier checkpoint failed: an acknowledged answer's draws are
    /// durable, and a hit or a refusal that drew nothing has nothing new
    /// to persist. A failed job still checkpoints the noise it drew: a
    /// grouped job can fail at cell k after cells < k released into the
    /// synopsis cache, and recovering the stream at its old position would
    /// re-release that randomness. The outcome is mirrored on the session,
    /// whose idle lane then tells [`Self::try_answer_inline`] whether
    /// every draw is durable.
    fn run_and_checkpoint(
        durable: Option<&DurableCtx>,
        completed: &AtomicUsize,
        metrics: &MetricsRegistry,
        session: &Session,
        mut rng: MutexGuard<'_, DpRng>,
        trace: (u64, u64),
        run: impl FnOnce(&mut DpRng) -> Option<Result<Reply, CoreError>>,
    ) -> Option<Result<Reply, ServerError>> {
        let exec_start = metrics.start();
        let before = rng.checkpoint();
        let result = run(&mut rng)?;
        let position = rng.checkpoint();
        drop(rng);
        if let Some(t0) = exec_start {
            // The Execute latency histogram is recorded inside the core (it
            // also covers cache hits served without a service); here only
            // the trace stage is added.
            metrics.trace(trace.0, Stage::Execute, trace.1, t0, t0.elapsed());
        }
        completed.fetch_add(1, Ordering::Relaxed);
        let checkpointed = if position != before || !session.draws_durable() {
            let checkpointed = Self::checkpoint_session(durable, session, position);
            session.set_draws_durable(checkpointed.is_ok());
            checkpointed
        } else {
            Ok(())
        };
        Some(match (result, checkpointed) {
            (Ok(reply), Ok(())) => {
                session.record_outcome(reply.is_answered());
                Ok(reply)
            }
            (Ok(_), Err(e)) => Err(e),
            (Err(e), _) => Err(ServerError::Core(e)),
        })
    }

    /// Executes one job end to end (submit → durable session checkpoint →
    /// lane → respond → compaction check) and returns the session's next
    /// pending job, chained from its lane without a round-trip through the
    /// global queue.
    fn execute_job(
        system: &DProvDb,
        lanes: &LaneMap,
        completed: &AtomicUsize,
        durable: Option<&DurableCtx>,
        worker: u64,
        metrics: &MetricsRegistry,
        job: Job,
    ) -> Option<Job> {
        let Job {
            session,
            work,
            on_done,
            trace_id,
            enqueued_at,
        } = job;
        // Executing a query also counts as session activity.
        session.heartbeat();
        if let (Some(now), Some(enqueued_at)) = (metrics.start(), enqueued_at) {
            // Queue wait covers time in the global queue *and* in a
            // session lane — submission to execution start either way.
            let waited = now.saturating_duration_since(enqueued_at);
            metrics.observe_duration(HistId::QueueWait, waited);
            metrics.trace(trace_id, Stage::QueueWait, worker, enqueued_at, waited);
        }
        // A grouped job draws its per-cell noise from the same session
        // stream the scalar path uses, under the same lock — cell order is
        // the core's canonical group enumeration, so answers stay
        // deterministic.
        let rng = session.rng.lock().expect("session rng poisoned");
        let analyst = session.analyst();
        let reply = Self::run_and_checkpoint(
            durable,
            completed,
            metrics,
            &session,
            rng,
            (trace_id, worker),
            |rng| {
                Some(match &work {
                    Work::Scalar(request) => system
                        .submit_with_rng(analyst, request, rng)
                        .map(Reply::Scalar),
                    Work::Grouped(request) => system
                        .answer_group_by_with_rng(analyst, request, rng)
                        .map(Reply::Grouped),
                })
            },
        )
        .expect("a queued job always runs");

        // Chain or retire the lane before replying, so a client that sends
        // its next request on receipt finds the session idle and can be
        // answered inline. Execution order is unchanged: the session's next
        // job runs only after this one.
        let next = {
            let mut lanes = lanes.lock().expect("lane map poisoned");
            let lane = lanes
                .get_mut(&session.id().0)
                .expect("executing session has a lane");
            let next = lane.pending.pop_front();
            if next.is_none() {
                // Idle lanes are removed outright — `submit` recreates
                // them on demand — so lanes never outlive their work (no
                // leak when sessions expire mid-flight).
                lanes.remove(&session.id().0);
            }
            next
        };
        on_done(reply);

        // Periodic compaction: fold the ledger into a snapshot once
        // it has grown past the watermark (raised after failures so
        // a broken disk does not stall every job; the error stays
        // queryable via `last_compaction_error`). Only a worker
        // compacts: a request that finds a compaction due queues.
        if let Some(ctx) = durable {
            if ctx.compaction_due() {
                let _ = ctx.try_compact(system);
            }
        }
        next
    }

    #[allow(clippy::too_many_arguments)]
    fn worker_loop(
        system: &DProvDb,
        queue: &BoundedQueue<Job>,
        lanes: &LaneMap,
        completed: &AtomicUsize,
        durable: Option<&DurableCtx>,
        epoch_barrier: &std::sync::RwLock<()>,
        pool_size: usize,
        worker: u64,
        metrics: &MetricsRegistry,
    ) {
        // Jobs chained from session lanes after the previous round; they
        // bypass the global queue, so chains keep draining even after the
        // queue is closed (accepted work always completes).
        let mut carry: Vec<Job> = Vec::new();
        loop {
            // Assemble the next micro-batch: chained work first, topped up
            // from the queue with whatever is already there. Only an idle
            // worker blocks — carried jobs are never delayed — and the
            // fair-share cap (`pool_size` consumers) keeps one worker from
            // draining a burst its siblings could run in parallel.
            let mut jobs = std::mem::take(&mut carry);
            if jobs.is_empty() {
                jobs = queue.pop_batch(MAX_BATCH, pool_size);
                if jobs.is_empty() {
                    return; // closed and drained
                }
            } else if jobs.len() < MAX_BATCH {
                jobs.extend(queue.try_pop_batch(MAX_BATCH - jobs.len(), pool_size));
            }
            metrics.observe(HistId::BatchSize, jobs.len() as u64);
            metrics.incr(CounterId::BatchesExecuted);

            // The batch runs in queue order. Session lanes admit at most
            // one job per session into any batch, so per-session FIFO (and
            // with it every session's noise-stream order) holds. The epoch
            // barrier is held across the whole micro-batch: a seal
            // quiesces at batch boundaries, so one batch's answers never
            // straddle two epochs.
            let _epoch = epoch_barrier.read().expect("epoch barrier poisoned");
            for job in jobs {
                if let Some(next) =
                    Self::execute_job(system, lanes, completed, durable, worker, metrics, job)
                {
                    carry.push(next);
                }
            }
        }
    }

    /// Opens a session for a registered analyst. In durable mode the
    /// session's existence (and fresh noise-stream position) is persisted
    /// before the id is returned, so its stream id can never be reissued
    /// to another analyst after a crash.
    pub fn open_session(&self, analyst: dprov_core::analyst::AnalystId) -> QuerySessionResult {
        self.system
            .registry()
            .get(analyst)
            .map_err(ServerError::Core)?;
        let id = self.sessions.register(analyst);
        if let Some(ctx) = &self.durable {
            let checkpoint = SessionCheckpoint {
                session: id.0,
                analyst,
                rng: dprov_dp::rng::RngCheckpoint {
                    draws: 0,
                    spare_normal: None,
                },
            };
            if let Err(e) = ctx.store.record_session(&checkpoint) {
                self.sessions.remove(id);
                return Err(ServerError::Storage(e));
            }
        }
        Ok(id)
    }

    /// Refreshes a session's heartbeat.
    pub(crate) fn heartbeat(&self, id: SessionId) -> Result<(), ServerError> {
        self.sessions.heartbeat(id).map_err(ServerError::from)
    }

    /// Re-attaches `analyst` to an existing live session (the protocol's
    /// reconnect path): verifies the session exists, has not expired and
    /// belongs to that analyst, then refreshes its heartbeat. The
    /// session's budget state and deterministic noise stream continue
    /// where they left off.
    pub fn resume_session(
        &self,
        id: SessionId,
        analyst: dprov_core::analyst::AnalystId,
    ) -> Result<(), ServerError> {
        let session = self.sessions.get(id)?;
        if session.analyst() != analyst {
            return Err(ServerError::SessionOwnership {
                session: id,
                claimant: analyst,
            });
        }
        session.heartbeat();
        Ok(())
    }

    /// Closes one session explicitly (the protocol's `CloseSession`). In
    /// durable mode the closure is journalled best-effort, like expiry. A
    /// session with queries still in flight finishes them — the lane
    /// drains regardless — but accepts no new submissions.
    pub fn close_session(&self, id: SessionId) -> Result<(), ServerError> {
        self.sessions.get(id)?;
        self.sessions.remove(id);
        if let Some(ctx) = &self.durable {
            let _ = ctx.store.record_session_closed(id.0);
        }
        Ok(())
    }

    /// Reaps expired sessions now, returning their ids — what the
    /// service's reaper thread runs every half session TTL. (Dispatch
    /// lanes need no sweep: a lane is removed by the worker that drains
    /// it — or by a failed submit — the moment it goes idle.) In durable
    /// mode the closures are journalled best-effort: a lost close record
    /// only makes recovery restore a dead session, never lose budget
    /// state.
    #[cfg(test)]
    pub(crate) fn expire_stale_sessions(&self) -> Vec<SessionId> {
        reap_sessions(&self.sessions, self.durable.as_deref())
    }

    /// Compacts the durable store now: snapshots the full system state and
    /// truncates the write-ahead ledger. Errors on a volatile service.
    pub fn checkpoint(&self) -> Result<(), ServerError> {
        let ctx = self.durable.as_ref().ok_or_else(|| {
            ServerError::Storage(StorageError::Unavailable(
                "service was started without a durable store".to_owned(),
            ))
        })?;
        ctx.try_compact(&self.system).map_err(ServerError::Storage)
    }

    /// The most recent automatic-compaction failure, if the last attempt
    /// failed (cleared once a compaction succeeds). `None` also on a
    /// volatile service.
    #[must_use]
    pub fn last_compaction_error(&self) -> Option<StorageError> {
        self.durable.as_ref().and_then(|ctx| {
            ctx.last_compaction_error
                .lock()
                .expect("ctx poisoned")
                .clone()
        })
    }

    /// The durable store, when the service was started with one.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<ProvenanceStore>> {
        self.durable.as_ref().map(|ctx| &ctx.store)
    }

    /// The analyst-facing view of a session: privilege, budget constraint,
    /// consumption and remaining room, plus per-session counters.
    /// The budget figures come from one provenance lock (no table clone),
    /// so a call waits behind an admission's in-flight journal append.
    pub fn session_info(&self, id: SessionId) -> Result<SessionInfo, ServerError> {
        let session = self.sessions.get(id)?;
        let analyst = session.analyst();
        let privilege = self
            .system
            .registry()
            .get(analyst)
            .map_err(ServerError::Core)?
            .privilege
            .level();
        let (constraint, consumed) = self.system.row_budget(analyst);
        Ok(SessionInfo {
            id,
            analyst,
            privilege,
            budget_constraint: constraint,
            budget_consumed: consumed,
            budget_remaining: (constraint - consumed).max(0.0),
            submitted: session.submitted(),
            answered: session.answered(),
            rejected: session.rejected(),
        })
    }

    /// Submits one unit of work on a session and returns a handle that
    /// resolves once a worker has executed it — the blocking family's one
    /// entry point, and the path that never answers inline. A single
    /// embedder thread can queue many submissions
    /// back-to-back and resolve them later with [`Pending::wait`], which
    /// is what lets the workers' micro-batches fill up when the service is
    /// driven in-process. Blocks only if the runnable queue is full
    /// (backpressure; the queue holds at most one job per session, so its
    /// capacity bounds the number of concurrently active sessions, not a
    /// session's pipeline depth).
    ///
    /// `trace_id` keys the job's trace-journal events: a frontend passes
    /// the protocol pipelining id, so one request's decode, queue-wait,
    /// execute and reply stages line up in the exported trace; `None`
    /// draws a service-assigned sequence number.
    pub fn submit(
        &self,
        id: SessionId,
        work: Work,
        trace_id: Option<u64>,
    ) -> Result<Pending, ServerError> {
        let trace_id = trace_id.unwrap_or_else(|| self.trace_seq.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::channel();
        // A dropped receiver is fine — the submitter walked away.
        let job = self.new_job(id, work, trace_id, Box::new(move |r| drop(tx.send(r))))?;
        let session = Arc::clone(&job.session);
        // If the session already has a runnable job, the new one waits in
        // its lane — the finishing worker will chain into it (accepted
        // work always completes, even across shutdown). Otherwise this job
        // is the session's runnable one and goes to the queue; the lane
        // lock is released first, since the push may block.
        let runnable = Self::claim_lane(&mut self.lanes.lock().expect("lane map poisoned"), job);
        let depth = match runnable {
            None => None,
            Some(job) => match self.queue.push(job) {
                Ok(depth) => Some(depth),
                Err(_) => {
                    // The queue closed under us. Another submitter may
                    // have appended to the lane's pending queue while we
                    // were outside the lock believing a runnable job
                    // existed.
                    Self::strand_lane(self.lanes.lock().expect("lane map poisoned"), id);
                    return Err(ServerError::ShuttingDown);
                }
            },
        };
        self.record_accepted(&session, depth);
        Ok(Pending { rx })
    }

    /// Non-blocking submission with a completion handler — the event-loop
    /// frontend's path into the worker pool. Unlike [`Self::submit`], this
    /// never parks the calling thread: a full runnable queue hands the
    /// work and completion back as [`TrySubmitError::Full`] instead of
    /// blocking, so a loop thread can deregister read interest on the
    /// submitting connection and retry when a queue-space listener (see
    /// [`QueryService::add_queue_space_listener`]) fires.
    ///
    /// Session-lane semantics are identical to the blocking path: if the
    /// session already has a runnable job the new one waits in its lane
    /// (always accepted — lanes are unbounded, per-session FIFO), and the
    /// job only contends for queue space when it is the session's runnable
    /// head. The completion runs on the executing worker thread; keep it
    /// quick and non-blocking.
    // The Err variant deliberately hands the unexecuted work (and its
    // completion) back to the caller so a non-blocking frontend can park
    // and retry it — the size is the payload, not accidental bloat.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(
        &self,
        id: SessionId,
        work: Work,
        trace_id: u64,
        on_done: Completion,
    ) -> Result<(), TrySubmitError> {
        let job = self
            .new_job(id, work, trace_id, on_done)
            .map_err(TrySubmitError::Rejected)?;
        let session = Arc::clone(&job.session);
        // Hold the lane lock across the (non-blocking) queue reservation
        // so a `Full` verdict can undo the lane claim atomically — no
        // other submitter can slip a job into the lane's pending queue
        // believing a runnable job exists. `try_push` never blocks, and
        // nothing takes the lane lock while holding the queue lock, so
        // the lanes→queue nesting cannot deadlock.
        let mut lanes = self.lanes.lock().expect("lane map poisoned");
        let depth = match Self::claim_lane(&mut lanes, job) {
            None => None,
            Some(job) => match self.queue.try_push(job) {
                Ok(depth) => Some(depth),
                Err(TryPushError::Full(job)) => {
                    // Undo the claim. The lane lock was held throughout,
                    // so nothing queued behind it and the entry is idle.
                    lanes.remove(&id.0);
                    let Job { work, on_done, .. } = job;
                    return Err(TrySubmitError::Full { work, on_done });
                }
                Err(TryPushError::Closed(_)) => {
                    // This job's completion is dropped unrun — the caller
                    // owns the error.
                    Self::strand_lane(lanes, id);
                    return Err(TrySubmitError::Rejected(ServerError::ShuttingDown));
                }
            },
        };
        drop(lanes);
        self.record_accepted(&session, depth);
        Ok(())
    }

    /// Answers a scalar request on the calling thread, or returns `None`
    /// and leaves the work to [`Self::try_submit`]. The event-loop frontend
    /// tries it first for every submission, so what it answers skips the
    /// queue, the worker wake-up and the completion mailbox.
    ///
    /// It answers on a live session with nothing queued or executing (an
    /// idle lane, so per-session FIFO holds) and every noise draw durable:
    ///
    /// * while the worker pool is idle — the lane map is empty, so no job
    ///   is queued or running — and no compaction is due (a worker
    ///   compacts), any scalar request, in accuracy or privacy mode: the
    ///   whole admission runs here through
    ///   [`DProvDb::try_submit_with_rng`], journal append and session
    ///   checkpoint included. In fsync mode an inline commit therefore
    ///   holds its loop for the fsyncs of those two appends;
    /// * otherwise only a provable cache hit in accuracy mode, which draws
    ///   nothing and appends nothing.
    ///
    /// Nothing here waits for another request's whole work: the epoch
    /// barrier, the core's epoch gate, the session's generator, the entry
    /// lock and the commit gate are only tried, and a request that fails
    /// to resolve falls through. An additive admission waits for its view
    /// lock, whose holder is finishing one admission on the same view. GROUP
    /// BY always queues. The reply and the counters are those the queued
    /// job would have produced; `trace_id` and `lane` key the `Execute`
    /// trace stage.
    pub fn try_answer_inline(
        &self,
        id: SessionId,
        work: &Work,
        trace_id: u64,
        lane: u64,
    ) -> Option<Result<Reply, ServerError>> {
        let Work::Scalar(request) = work else {
            return None;
        };
        let session = self.sessions.get(id).ok()?;
        let _epoch = self.epoch_barrier.try_read().ok()?;
        let pool_idle = {
            let lanes = self.lanes.lock().expect("lane map poisoned");
            if lanes.contains_key(&id.0) {
                return None;
            }
            lanes.is_empty()
        };
        // Read after the lane map: the worker that retired the lane set
        // the flag before taking the map's lock.
        if !session.draws_durable() {
            return None;
        }
        let admit = pool_idle
            && !self
                .durable
                .as_deref()
                .is_some_and(DurableCtx::compaction_due);
        if !admit && !matches!(request.mode, SubmissionMode::Accuracy { .. }) {
            return None;
        }
        let rng = session.rng.try_lock().ok()?;
        let reply = Self::run_and_checkpoint(
            self.durable.as_deref(),
            &self.completed,
            &self.metrics,
            &session,
            rng,
            (trace_id, lane),
            |rng| {
                self.system
                    .try_submit_with_rng(session.analyst(), request, admit.then_some(rng))
                    .map(|outcome| outcome.map(Reply::Scalar))
            },
        )?;
        session.heartbeat();
        self.record_accepted(&session, None);
        self.metrics.incr(CounterId::InlineAnswers);
        Some(reply)
    }

    /// Builds the job for one submission on a live session.
    fn new_job(
        &self,
        id: SessionId,
        work: Work,
        trace_id: u64,
        on_done: Completion,
    ) -> Result<Job, ServerError> {
        Ok(Job {
            session: self.sessions.get(id)?,
            work,
            on_done,
            trace_id,
            enqueued_at: self.metrics.start(),
        })
    }

    /// The lane claim both submission paths share: queues `job` behind its
    /// session's runnable job, or — the lane being idle — marks it busy
    /// and hands the job back as the session's new runnable head.
    fn claim_lane(lanes: &mut HashMap<u64, SessionLane>, job: Job) -> Option<Job> {
        let lane = lanes.entry(job.session.id().0).or_default();
        if lane.busy {
            lane.pending.push_back(job);
            None
        } else {
            lane.busy = true;
            Some(job)
        }
    }

    /// Shutdown handling both submission paths share: the queue refused a
    /// lane's runnable head, so the jobs pending behind it would never be
    /// chained into. Retires the lane and fails them, outside the lock.
    fn strand_lane(mut lanes: MutexGuard<'_, HashMap<u64, SessionLane>>, id: SessionId) {
        let stranded = lanes
            .remove(&id.0)
            .map_or_else(VecDeque::new, |l| l.pending);
        drop(lanes);
        for job in stranded {
            (job.on_done)(Err(ServerError::ShuttingDown));
        }
    }

    /// Counts one accepted submission; `depth` is the queue depth its
    /// producer saw under the queue lock (`None` for a lane-pending job).
    fn record_accepted(&self, session: &Session, depth: Option<usize>) {
        if let Some(depth) = depth {
            self.metrics.gauge_max(GaugeId::QueueDepthHwm, depth as f64);
        }
        session.mark_submitted();
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a callback fired whenever the runnable queue transitions
    /// from full to non-full (see `crate::queue::BoundedQueue`); the
    /// event-loop frontend uses it to re-arm read interest on connections
    /// stalled by backpressure. Listeners run outside the queue lock but
    /// on whichever thread freed the space, so they must be quick and
    /// non-blocking (typically: write one byte to a loop waker).
    pub fn add_queue_space_listener(&self, listener: SpaceListener) {
        self.queue.add_space_listener(listener);
    }

    /// The configured session time-to-live (`ServiceConfig::session_ttl`).
    #[must_use]
    pub fn session_ttl(&self) -> Duration {
        self.session_ttl
    }

    /// Submits a query and blocks until its outcome is available — the
    /// typed same-process wrapper over [`Self::submit`].
    pub fn submit_wait(
        &self,
        id: SessionId,
        request: QueryRequest,
    ) -> Result<QueryOutcome, ServerError> {
        Ok(self
            .submit(id, Work::Scalar(request), None)?
            .wait()?
            .into_scalar()
            .expect("scalar work yields a scalar reply"))
    }

    /// Submits a grouped query and blocks until its outcome (one
    /// [`QueryOutcome`] per group cell, canonical order) is available —
    /// the grouped counterpart of [`Self::submit_wait`]. The whole grouped
    /// answer is one job: its per-cell admissions run back-to-back on the
    /// executing worker, FIFO with the session's scalar submissions.
    pub fn group_by_wait(
        &self,
        id: SessionId,
        request: GroupedRequest,
    ) -> Result<GroupedOutcome, ServerError> {
        Ok(self
            .submit(id, Work::Grouped(request), None)?
            .wait()?
            .into_grouped()
            .expect("grouped work yields a grouped reply"))
    }

    /// True when `name` is in the configured updater roster.
    #[must_use]
    pub fn is_updater(&self, name: &str) -> bool {
        self.updaters.iter().any(|u| u == name)
    }

    /// The last sealed update epoch the service answers against.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.system.current_epoch()
    }

    /// Submits one update batch (validated, journalled durably, pending
    /// until the next seal). Role enforcement happens at the protocol
    /// frontend; embedders calling this directly are trusted code.
    pub fn apply_update(&self, batch: &dprov_delta::UpdateBatch) -> Result<u64, ServerError> {
        self.system.apply_update(batch).map_err(ServerError::Core)
    }

    /// Seals every pending update batch into the next epoch. Takes the
    /// epoch barrier's write side first, so in-flight micro-batches drain
    /// before the core seal runs — no batch's answers are torn across
    /// versions — then quiesces the core's own epoch gate and applies the
    /// seal (deterministic, no randomness, no budget spend; see
    /// [`DProvDb::seal_epoch`]).
    pub fn seal_epoch(&self) -> Result<dprov_core::system::EpochReport, ServerError> {
        let _barrier = self.epoch_barrier.write().expect("epoch barrier poisoned");
        let report = self.system.seal_epoch().map_err(ServerError::Core)?;
        self.epochs_sealed.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// The shared system behind the service.
    #[must_use]
    pub fn system(&self) -> &Arc<DProvDb> {
        &self.system
    }

    /// The session registry.
    #[must_use]
    pub fn sessions(&self) -> &SessionRegistry {
        &self.sessions
    }

    /// Point-in-time service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.metrics.counter(CounterId::BatchesExecuted) as usize,
            epochs_sealed: self.epochs_sealed.load(Ordering::Relaxed),
            queued: self.queue.len(),
            sessions: self.sessions.len(),
            queue_depth_hwm: self.metrics.gauge(GaugeId::QueueDepthHwm) as usize,
            batch_sizes: self.metrics.histogram(HistId::BatchSize),
            system: self.system.stats(),
        }
    }

    /// The metrics registry the service (and its system) records into.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The full observability snapshot served to
    /// `dprov_api::DProvClient::metrics`: the registry's catalog
    /// (counters, gauges, latency histograms, per-(analyst, view) budget
    /// gauges) plus pulled service- and executor-level counters that need
    /// no per-event recording.
    #[must_use]
    pub fn metrics_snapshot(&self) -> dprov_obs::MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let stats = self.stats();
        let exec = self.system.exec_stats();
        snap.gauges
            .push(("queue.depth".to_owned(), stats.queued as f64));
        let pulled: [(&str, u64); 12] = [
            ("service.submitted", stats.submitted as u64),
            ("service.completed", stats.completed as u64),
            ("service.epochs_sealed", stats.epochs_sealed as u64),
            ("service.sessions", stats.sessions as u64),
            ("exec.scans", exec.scans),
            ("exec.queries", exec.queries),
            ("exec.batches", exec.batches),
            ("exec.histogram_scans", exec.histogram_scans),
            ("exec.histograms", exec.histograms),
            ("exec.shards_visited", exec.shards_visited),
            ("exec.shards_pruned", exec.shards_pruned),
            ("exec.segments_appended", exec.segments_appended),
        ];
        snap.counters
            .extend(pulled.iter().map(|&(name, v)| (name.to_owned(), v)));
        snap.gauges
            .push(("exec.scans_per_query".to_owned(), exec.scans_per_query()));
        snap
    }

    /// The retained request trace as chrome://tracing JSON (load the
    /// string into `chrome://tracing` or Perfetto). Empty (an empty event
    /// array) with a disabled registry.
    #[must_use]
    pub fn dump_trace(&self) -> String {
        self.metrics.chrome_trace()
    }

    /// Stops accepting new work, drains the queue, joins the workers and
    /// returns the final counters. A durable service writes a final
    /// checkpoint (best-effort — the ledger alone already recovers
    /// everything) so the next startup replays nothing.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop_threads();
        if let Some(ctx) = &self.durable {
            let _ = ctx.try_compact(&self.system);
        }
        self.stats()
    }

    /// Closes the queue, joins the workers, which drain every accepted
    /// job first, then stops the reaper.
    fn stop_threads(&mut self) {
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(reaper) = self.reaper.take() {
            reaper.stop();
        }
    }
}

/// Result alias for [`QueryService::open_session`].
pub(crate) type QuerySessionResult = Result<SessionId, ServerError>;

/// A pending submission returned by [`QueryService::submit`]; the worker
/// pool resolves it asynchronously.
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<Reply, ServerError>>,
}

impl Pending {
    /// Blocks until the submission's reply is available. A service torn
    /// down before answering reports [`ServerError::ShuttingDown`].
    pub fn wait(self) -> Result<Reply, ServerError> {
        self.rx.recv().map_err(|_| ServerError::ShuttingDown)?
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_core::analyst::{AnalystId, AnalystRegistry};
    use dprov_core::config::SystemConfig;
    use dprov_core::mechanism::MechanismKind;
    use dprov_engine::catalog::ViewCatalog;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_engine::query::Query;

    fn raw_system(mechanism: MechanismKind, epsilon: f64, analysts: usize) -> DProvDb {
        let db = adult_database(1_000, 1);
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        let mut registry = AnalystRegistry::new();
        for i in 0..analysts {
            registry
                .register(&format!("a{i}"), ((i % 4) + 1) as u8)
                .unwrap();
        }
        let config = SystemConfig::new(epsilon).unwrap().with_seed(11);
        DProvDb::new(db, catalog, registry, config, mechanism).unwrap()
    }

    fn system(mechanism: MechanismKind, epsilon: f64, analysts: usize) -> Arc<DProvDb> {
        Arc::new(raw_system(mechanism, epsilon, analysts))
    }

    fn durability(dir: &std::path::Path, snapshot_every: u64) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.to_owned(),
            fsync: false,
            snapshot_every,
            delta_retention: 0,
        }
    }

    fn request(lo: i64, hi: i64, variance: f64) -> QueryRequest {
        QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), variance)
    }

    fn work(lo: i64, hi: i64, variance: f64) -> Work {
        Work::Scalar(request(lo, hi, variance))
    }

    fn workers(n: usize) -> ServiceConfig {
        ServiceConfig::builder().workers(n).build().unwrap()
    }

    #[test]
    fn config_builders_validate_their_knobs() {
        assert!(matches!(
            ServiceConfig::builder().workers(0).build(),
            Err(ServerError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServiceConfig::builder().queue_capacity(0).build(),
            Err(ServerError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServiceConfig::builder().session_ttl(Duration::ZERO).build(),
            Err(ServerError::InvalidConfig(_))
        ));
        let config = ServiceConfig::builder()
            .workers(3)
            .queue_capacity(32)
            .session_ttl(Duration::from_secs(5))
            .build()
            .unwrap();
        assert_eq!(
            (config.workers, config.queue_capacity, config.session_ttl),
            (3, 32, Duration::from_secs(5))
        );
        assert!(matches!(
            DurabilityConfig::builder("").build(),
            Err(ServerError::InvalidConfig(_))
        ));
        let durability = DurabilityConfig::builder("some/dir")
            .fsync(false)
            .snapshot_every(8)
            .build()
            .unwrap();
        assert!(!durability.fsync);
        assert_eq!(durability.snapshot_every, 8);
        assert_eq!(durability.dir, PathBuf::from("some/dir"));
    }

    #[test]
    fn micro_batches_drain_multiple_jobs_per_round() {
        // The only worker parks on a gated admission while four other
        // sessions queue behind it; once released it drains all four as
        // one micro-batch, in queue order.
        let (service, gate) = gated_service(1);
        let sessions: Vec<_> = (0..5)
            .map(|_| service.open_session(AnalystId(1)).unwrap())
            .collect();
        gate.arm();
        let parked = queued(&service, sessions[0], &request(30, 39, 200.0));
        gate.await_parked();
        let (done, finished) = mpsc::channel();
        for (i, &session) in sessions[1..].iter().enumerate() {
            let done = done.clone();
            let on_done: Completion =
                Box::new(move |reply| drop(done.send((i, reply.map(|r| r.is_answered())))));
            service
                .try_submit(session, work(25, 45, 700.0), i as u64, on_done)
                .unwrap();
        }
        gate.release.send(()).unwrap();
        assert!(matches!(
            parked.wait(),
            Err(ServerError::Core(CoreError::Storage(_)))
        ));
        let order: Vec<usize> = (0..4)
            .map(|_| {
                let (i, answered) = finished.recv_timeout(Duration::from_secs(30)).unwrap();
                assert!(answered.unwrap());
                i
            })
            .collect();
        assert_eq!(order, [0, 1, 2, 3], "a batch runs in queue order");
        let stats = service.stats();
        assert_eq!((stats.completed, stats.batches), (5, 2));
        assert_eq!(
            stats.batch_sizes.max, 4,
            "the four queued jobs drained at once"
        );
    }

    #[test]
    fn batching_preserves_per_session_fifo() {
        let service =
            QueryService::start(system(MechanismKind::AdditiveGaussian, 8.0, 2), workers(2));
        let session = service.open_session(AnalystId(1)).unwrap();
        let submissions: Vec<_> = (0..10)
            .map(|i| {
                service
                    .submit(session, work(20 + i, 40 + i, 400.0 + i as f64), None)
                    .unwrap()
            })
            .collect();
        for pending in submissions {
            assert!(pending.wait().unwrap().is_answered());
        }
        assert_eq!(service.session_info(session).unwrap().answered, 10);
    }

    #[test]
    fn resume_and_close_session_enforce_ownership_and_liveness() {
        let service =
            QueryService::start(system(MechanismKind::AdditiveGaussian, 4.0, 2), workers(1));
        let session = service.open_session(AnalystId(1)).unwrap();
        service.resume_session(session, AnalystId(1)).unwrap();
        assert!(matches!(
            service.resume_session(session, AnalystId(0)),
            Err(ServerError::SessionOwnership { .. })
        ));
        service.close_session(session).unwrap();
        assert!(matches!(
            service.close_session(session),
            Err(ServerError::Session(SessionError::Unknown(_)))
        ));
        assert!(matches!(
            service.resume_session(session, AnalystId(1)),
            Err(ServerError::Session(SessionError::Unknown(_)))
        ));
    }

    #[test]
    fn submit_wait_round_trips_an_answer() {
        let service =
            QueryService::start(system(MechanismKind::AdditiveGaussian, 4.0, 2), workers(2));
        let session = service.open_session(AnalystId(1)).unwrap();
        let outcome = service
            .submit_wait(session, request(30, 39, 500.0))
            .unwrap();
        assert!(outcome.is_answered());
        let info = service.session_info(session).unwrap();
        assert_eq!(info.submitted, 1);
        assert_eq!(info.answered, 1);
        assert!(info.budget_consumed > 0.0);
        assert!(info.budget_remaining < info.budget_constraint);
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.system.answered, 1);
    }

    #[test]
    fn unknown_analyst_and_unknown_session_are_rejected() {
        let service = QueryService::start(system(MechanismKind::Vanilla, 2.0, 1), workers(1));
        assert!(matches!(
            service.open_session(AnalystId(7)),
            Err(ServerError::Core(_))
        ));
        assert!(matches!(
            service.submit(SessionId(99), work(20, 30, 100.0), None),
            Err(ServerError::Session(SessionError::Unknown(_)))
        ));
    }

    #[test]
    fn pipelined_submissions_come_back_in_order() {
        let service =
            QueryService::start(system(MechanismKind::AdditiveGaussian, 8.0, 2), workers(4));
        let session = service.open_session(AnalystId(1)).unwrap();
        let submissions: Vec<_> = (0..10)
            .map(|i| {
                service
                    .submit(session, work(20 + i, 40 + i, 400.0 + i as f64), None)
                    .unwrap()
            })
            .collect();
        for pending in submissions {
            assert!(pending.wait().unwrap().is_answered());
        }
        let info = service.session_info(session).unwrap();
        assert_eq!(info.answered, 10);
    }

    #[test]
    fn idle_lanes_are_reclaimed_after_the_work_drains() {
        let service =
            QueryService::start(system(MechanismKind::AdditiveGaussian, 8.0, 2), workers(2));
        let session = service.open_session(AnalystId(1)).unwrap();
        for i in 0..4 {
            let pending = service
                .submit(session, work(20 + i, 40, 600.0), None)
                .unwrap();
            pending.wait().unwrap();
        }
        // The worker removes the lane the moment it goes idle; the removal
        // happens just after the last response is sent, so poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            if service.lanes.lock().unwrap().is_empty() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "lane was not reclaimed after its work drained"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn expired_sessions_cannot_submit() {
        let config = ServiceConfig::builder()
            .workers(1)
            .session_ttl(Duration::from_millis(20))
            .build()
            .unwrap();
        let service = QueryService::start(system(MechanismKind::Vanilla, 2.0, 1), config);
        let session = service.open_session(AnalystId(0)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // Refused as expired until the reaper (every 10 ms here) removes
        // it, as unknown after.
        assert!(matches!(
            service.submit(session, work(20, 30, 100.0), None),
            Err(ServerError::Session(
                SessionError::Expired(_) | SessionError::Unknown(_)
            ))
        ));
        await_no_sessions(&service);
        assert!(matches!(
            service.submit(session, work(20, 30, 100.0), None),
            Err(ServerError::Session(SessionError::Unknown(_)))
        ));
        assert!(service.expire_stale_sessions().is_empty());
    }

    fn await_no_sessions(service: &QueryService) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !service.sessions().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "{} expired sessions still registered",
                service.sessions().len()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// A durable service driven only through `open_session` and
    /// `submit_wait` (no frontend, no further call) reaps the sessions it
    /// abandons, and journals their closure: a restart restores none.
    #[test]
    fn the_reaper_expires_abandoned_sessions_without_a_frontend() {
        let dir = dprov_storage::scratch_dir("svc-reaper");
        let config = ServiceConfig::builder()
            .workers(2)
            .session_ttl(Duration::from_millis(300))
            .build()
            .unwrap();
        {
            let (service, _) = QueryService::start_durable(
                raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
                config.clone(),
                durability(&dir, 0),
            )
            .unwrap();
            for i in 0..4 {
                let session = service.open_session(AnalystId(i % 2)).unwrap();
                service
                    .submit_wait(session, request(20 + i as i64, 45, 600.0))
                    .unwrap();
                // Abandoned: never heartbeaten, never closed.
            }
            assert_eq!(service.sessions().len(), 4);
            await_no_sessions(&service);
            // Dropped without shutdown: the ledger alone carries the
            // closure records.
        }
        let (service, report) = QueryService::start_durable(
            raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
            config,
            durability(&dir, 0),
        )
        .unwrap();
        assert!(report.replayed_commits > 0, "the spend survives");
        assert_eq!(report.restored_sessions, 0);
        assert!(service.sessions().is_empty());
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_service_recovers_budget_and_sessions_across_hard_drop() {
        let dir = dprov_storage::scratch_dir("svc-restart");
        let (live_totals, live_session) = {
            let (service, report) = QueryService::start_durable(
                raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
                workers(1),
                durability(&dir, 0),
            )
            .unwrap();
            assert_eq!(report.replayed_commits, 0);
            assert!(!report.snapshot_restored);
            let session = service.open_session(AnalystId(1)).unwrap();
            for i in 0..4 {
                service
                    .submit_wait(session, request(20 + i, 45, 600.0))
                    .unwrap();
            }
            let provenance = service.system().provenance();
            let totals: Vec<f64> = (0..2).map(|a| provenance.row_total(AnalystId(a))).collect();
            (totals, session)
            // `service` dropped WITHOUT shutdown(): no final snapshot, the
            // write-ahead ledger alone must carry the state (crash-alike).
        };

        let (service, report) = QueryService::start_durable(
            raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
            workers(1),
            durability(&dir, 0),
        )
        .unwrap();
        assert!(
            report.replayed_commits > 0,
            "ledger must replay the charges"
        );
        assert_eq!(report.restored_sessions, 1);
        assert!(report.wal_corruption.is_none());
        let provenance = service.system().provenance();
        for (a, expected) in live_totals.iter().enumerate() {
            assert_eq!(
                provenance.row_total(AnalystId(a)),
                *expected,
                "recovered budget state must be bit-exact"
            );
        }
        // The restored session keeps working under its original id, and a
        // new session never collides with it.
        assert!(service
            .submit_wait(live_session, request(30, 50, 900.0))
            .unwrap()
            .is_answered());
        let fresh = service.open_session(AnalystId(0)).unwrap();
        assert!(fresh.0 > live_session.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_so_restart_replays_nothing() {
        let dir = dprov_storage::scratch_dir("svc-checkpoint");
        {
            let (service, _) = QueryService::start_durable(
                raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
                workers(2),
                durability(&dir, 0),
            )
            .unwrap();
            let session = service.open_session(AnalystId(1)).unwrap();
            for i in 0..3 {
                service
                    .submit_wait(session, request(25 + i, 50, 700.0))
                    .unwrap();
            }
            service.checkpoint().unwrap();
            assert_eq!(service.store().unwrap().appends_since_snapshot(), 0);
        }
        let (service, report) = QueryService::start_durable(
            raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
            workers(1),
            durability(&dir, 0),
        )
        .unwrap();
        assert!(report.snapshot_restored);
        assert_eq!(report.replayed_commits, 0, "snapshot already held it all");
        assert_eq!(report.restored_sessions, 1);
        assert!(service.system().provenance().row_total(AnalystId(1)) > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_triggers_on_ledger_growth() {
        let dir = dprov_storage::scratch_dir("svc-autocompact");
        let (service, _) = QueryService::start_durable(
            raw_system(MechanismKind::AdditiveGaussian, 16.0, 2),
            workers(1),
            durability(&dir, 4),
        )
        .unwrap();
        let session = service.open_session(AnalystId(1)).unwrap();
        for i in 0..8 {
            service
                .submit_wait(session, request(20 + i, 50, 500.0 + i as f64))
                .unwrap();
        }
        let store = service.store().unwrap();
        assert!(
            store.appends_since_snapshot() < store.total_appends(),
            "at least one auto-compaction must have folded the ledger"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An automatic compaction whose snapshot cannot be written leaves the
    /// service answering and is surfaced by `last_compaction_error` until
    /// a later compaction succeeds.
    #[test]
    fn a_failed_auto_compaction_is_surfaced_until_one_succeeds() {
        let dir = dprov_storage::scratch_dir("svc-compaction-error");
        let (service, _) = QueryService::start_durable(
            raw_system(MechanismKind::Vanilla, 16.0, 2),
            workers(1),
            durability(&dir, 2),
        )
        .unwrap();
        assert!(service.last_compaction_error().is_none());
        let session = service.open_session(AnalystId(1)).unwrap();
        // Each request is stricter than the last, so each one commits.
        let mut variance = 4_000.0;
        let mut commit_until = |failed: bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while service.last_compaction_error().is_some() != failed {
                assert!(Instant::now() < deadline, "compaction failed: {failed}");
                service
                    .submit_wait(session, request(30, 40, variance))
                    .unwrap();
                variance *= 0.8;
                // The worker compacts after it replies.
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        // A directory where the snapshot's temporary file goes fails
        // every snapshot write.
        let blocker = ProvenanceStore::snapshot_path(&dir).with_extension("tmp");
        std::fs::create_dir(&blocker).unwrap();
        commit_until(true);
        assert!(matches!(
            service.last_compaction_error(),
            Some(StorageError::Io(_))
        ));
        std::fs::remove_dir(&blocker).unwrap();
        commit_until(false);
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_store_is_refused_and_volatile_checkpoint_errors() {
        let dir = dprov_storage::scratch_dir("svc-mismatch");
        {
            let (service, _) = QueryService::start_durable(
                raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
                workers(1),
                durability(&dir, 0),
            )
            .unwrap();
            let session = service.open_session(AnalystId(1)).unwrap();
            service
                .submit_wait(session, request(25, 50, 700.0))
                .unwrap();
            service.shutdown();
        }
        // A different budget is a different fingerprint: refused.
        assert!(matches!(
            QueryService::start_durable(
                raw_system(MechanismKind::AdditiveGaussian, 4.0, 2),
                workers(1),
                durability(&dir, 0),
            ),
            Err(ServerError::Storage(StorageError::IncompatibleState(_)))
        ));
        // So is a changed analyst roster (same count, different privilege):
        // positional AnalystIds would re-attribute every recorded charge.
        let roster_changed = {
            let db = adult_database(1_000, 1);
            let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
            let mut registry = AnalystRegistry::new();
            registry.register("a0", 1).unwrap();
            registry.register("a1", 4).unwrap(); // was privilege 2
            let config = SystemConfig::new(8.0).unwrap().with_seed(11);
            DProvDb::new(
                db,
                catalog,
                registry,
                config,
                MechanismKind::AdditiveGaussian,
            )
            .unwrap()
        };
        assert!(matches!(
            QueryService::start_durable(roster_changed, workers(1), durability(&dir, 0),),
            Err(ServerError::Storage(StorageError::IncompatibleState(_)))
        ));
        // WAL-only stores (crash before any snapshot) refuse mismatches
        // too: the binding fingerprint lives in a ledger frame.
        let wal_only_dir = dprov_storage::scratch_dir("svc-mismatch-walonly");
        {
            let (service, _) = QueryService::start_durable(
                raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
                workers(1),
                durability(&wal_only_dir, 0),
            )
            .unwrap();
            let session = service.open_session(AnalystId(1)).unwrap();
            service
                .submit_wait(session, request(25, 50, 700.0))
                .unwrap();
            // Dropped without shutdown: no snapshot is ever written.
        }
        assert!(matches!(
            QueryService::start_durable(
                raw_system(MechanismKind::AdditiveGaussian, 4.0, 2),
                workers(1),
                durability(&wal_only_dir, 0),
            ),
            Err(ServerError::Storage(StorageError::IncompatibleState(_)))
        ));
        std::fs::remove_dir_all(&wal_only_dir).ok();
        // Volatile services have no checkpoint.
        let volatile = QueryService::start(system(MechanismKind::Vanilla, 2.0, 1), workers(1));
        assert!(matches!(
            volatile.checkpoint(),
            Err(ServerError::Storage(StorageError::Unavailable(_)))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn adult_row(age: i64) -> Vec<dprov_engine::value::Value> {
        use dprov_engine::value::Value;
        vec![
            Value::Int(age),
            Value::text("Private"),
            Value::text("HS-grad"),
            Value::Int(9),
            Value::text("Never-married"),
            Value::text("Sales"),
            Value::text("Not-in-family"),
            Value::text("White"),
            Value::text("Male"),
            Value::Int(0),
            Value::Int(0),
            Value::Int(40),
            Value::text("<=50K"),
        ]
    }

    #[test]
    fn updates_seal_under_live_query_traffic_without_torn_answers() {
        use dprov_delta::UpdateBatch;
        let config = ServiceConfig::builder()
            .workers(2)
            .updaters(&["loader"])
            .build()
            .unwrap();
        assert!(config.updaters.contains(&"loader".to_owned()));
        let service = QueryService::start(system(MechanismKind::AdditiveGaussian, 16.0, 4), config);
        assert!(service.is_updater("loader"));
        assert!(!service.is_updater("mallory"));
        let sessions: Vec<_> = (0..4)
            .map(|a| service.open_session(AnalystId(a)).unwrap())
            .collect();

        // Interleave queries and epochs: answers must carry a consistent
        // epoch tag and the exact state must move with the seals.
        let q = Query::range_count("adult", "age", 30, 30);
        let before = service.system().true_answer(&q).unwrap();
        for round in 0u64..3 {
            let submissions: Vec<_> = sessions
                .iter()
                .map(|&s| service.submit(s, work(25, 45, 900.0), None).unwrap())
                .collect();
            let batch = UpdateBatch::insert("adult", vec![adult_row(30), adult_row(30)]);
            service.apply_update(&batch).unwrap();
            let report = service.seal_epoch().unwrap();
            assert_eq!(report.epoch, round + 1);
            assert_eq!(report.rows, 2);
            for pending in submissions {
                let outcome = pending.wait().unwrap().into_scalar().unwrap();
                let answered = outcome.answered().expect("answered");
                // An answer reflects a whole epoch — one at or before the
                // seal that just ran.
                assert!(answered.epoch <= round + 1);
            }
        }
        assert_eq!(service.current_epoch(), 3);
        assert_eq!(
            service.system().true_answer(&q).unwrap(),
            before + 6.0,
            "three sealed epochs x two inserted rows"
        );
        let stats = service.shutdown();
        assert_eq!(stats.epochs_sealed, 3);
    }

    #[test]
    fn durable_service_recovers_epochs_and_pending_updates_across_hard_drop() {
        use dprov_delta::UpdateBatch;
        let dir = dprov_storage::scratch_dir("svc-epochs");
        let q = Query::range_count("adult", "age", 30, 31);
        let live_answer = {
            let (service, _) = QueryService::start_durable(
                raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
                workers(1),
                durability(&dir, 0),
            )
            .unwrap();
            service
                .apply_update(&UpdateBatch::insert("adult", vec![adult_row(30)]))
                .unwrap();
            service.seal_epoch().unwrap();
            // A second batch left pending: the crash contract recovers it
            // as pending, not applied.
            service
                .apply_update(&UpdateBatch::insert("adult", vec![adult_row(31)]))
                .unwrap();
            let session = service.open_session(AnalystId(1)).unwrap();
            service
                .submit_wait(session, request(25, 45, 700.0))
                .unwrap();
            service.system().true_answer(&q).unwrap()
            // Dropped WITHOUT shutdown: WAL-only recovery.
        };

        let (service, report) = QueryService::start_durable(
            raw_system(MechanismKind::AdditiveGaussian, 8.0, 2),
            workers(1),
            durability(&dir, 0),
        )
        .unwrap();
        assert_eq!(report.replayed_epochs, 1);
        assert_eq!(report.replayed_updates, 2);
        assert_eq!(service.current_epoch(), 1);
        assert_eq!(service.system().pending_updates(), 1);
        assert_eq!(
            service.system().true_answer(&q).unwrap().to_bits(),
            live_answer.to_bits(),
            "recovered to the last sealed epoch, bit-exact"
        );
        // Sealing after recovery applies the recovered pending batch.
        let sealed = service.seal_epoch().unwrap();
        assert_eq!(sealed.epoch, 2);
        assert_eq!(service.system().true_answer(&q).unwrap(), live_answer + 1.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_grouped_job_checkpoints_the_noise_its_released_cells_drew() {
        use dprov_engine::expr::Predicate;
        use dprov_engine::group::GroupByQuery;
        use dprov_engine::view::ViewDef;
        use dprov_storage::{CrashMode, FailpointRecorder};

        // The two group cells cover 2 and 21 age bins, so the second cell's
        // per-bin target is stricter than the synopsis the first one cached
        // and it needs a commit of its own.
        let grouped_system = || {
            let db = adult_database(1_000, 1);
            let mut catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
            catalog.add_view(ViewDef::histogram("sex_age", "adult", &["sex", "age"]));
            let mut registry = AnalystRegistry::new();
            registry.register("a0", 4).unwrap();
            let config = SystemConfig::new(8.0).unwrap().with_seed(11);
            DProvDb::new(db, catalog, registry, config, MechanismKind::Vanilla).unwrap()
        };
        let query = GroupByQuery::count("adult", &["sex"]).filter(Predicate::Or(vec![
            Predicate::equals("sex", "Female").and(Predicate::range("age", 30, 31)),
            Predicate::equals("sex", "Male").and(Predicate::range("age", 30, 50)),
        ]));

        // A durable service whose recorder dies on the second ledger
        // append: cell 0's admission lands, cell 1's is refused.
        let dir = dprov_storage::scratch_dir("svc-grouped-partial");
        let (session, live_position) = {
            let mut system = grouped_system();
            let (store, _) =
                ProvenanceStore::open_with(&dir, StoreOptions { fsync: false }).unwrap();
            let fingerprint = system_fingerprint(&system);
            store.bind_fingerprint(fingerprint).unwrap();
            let store = Arc::new(store);
            system.set_recorder(Arc::new(FailpointRecorder::new(
                Arc::clone(&store),
                1,
                CrashMode::Clean,
            )));
            let sessions = Arc::new(SessionRegistry::new(
                system.config().seed,
                Duration::from_secs(60),
            ));
            let durable = Arc::new(DurableCtx {
                store,
                fingerprint,
                snapshot_every: 0,
                delta_retention: 0,
                next_compaction_at: AtomicU64::new(1),
                last_compaction_error: Mutex::new(None),
                fail_session_checkpoints: std::sync::atomic::AtomicBool::new(false),
            });
            let service =
                QueryService::start_inner(Arc::new(system), sessions, workers(1), Some(durable));
            let session = service.open_session(AnalystId(0)).unwrap();
            assert!(matches!(
                service.group_by_wait(session, GroupedRequest::with_accuracy(query, 400.0)),
                Err(ServerError::Core(CoreError::Storage(_)))
            ));
            assert!(service.system().provenance().row_total(AnalystId(0)) > 0.0);
            let position = service.sessions().get(session).unwrap().rng_checkpoint();
            assert!(position.draws > 0, "cell 0 released before cell 1 failed");
            (session, position)
            // Hard drop: no final snapshot.
        };

        let (service, report) =
            QueryService::start_durable(grouped_system(), workers(1), durability(&dir, 0)).unwrap();
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(
            service.sessions().get(session).unwrap().rng_checkpoint(),
            live_position,
            "the resumed stream must continue after the draws cell 0 consumed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A recorder that, once armed, parks the next admission — telling
    /// the test through `entered` and waiting on `release` — and then
    /// fails it. While parked the submission holds its (analyst, view)
    /// entry lock and its session's lane; it leaves no synopsis behind.
    struct GateRecorder {
        armed: std::sync::atomic::AtomicBool,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Recorder for GateRecorder {
        fn record_admission(
            &self,
            _commit: &dprov_core::recorder::CommitRecord,
            _access: Option<&dprov_core::recorder::DataAccess>,
        ) -> Result<(), StorageError> {
            if !self.armed.swap(false, Ordering::SeqCst) {
                return Ok(());
            }
            self.entered.lock().unwrap().send(()).unwrap();
            // Bounded, so a failing test cannot leave a worker parked.
            let _ = self
                .release
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(30));
            Err(StorageError::Unavailable("gated admission".to_owned()))
        }

        fn record_rollback(&self, _seq: u64) -> Result<(), StorageError> {
            Ok(())
        }
    }

    /// The test's side of a [`GateRecorder`].
    struct Gate {
        recorder: Arc<GateRecorder>,
        entered: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    impl Gate {
        /// Arms the gate for the next admission.
        fn arm(&self) {
            self.recorder.armed.store(true, Ordering::SeqCst);
        }

        /// Blocks until the armed admission is parked in the recorder.
        fn await_parked(&self) {
            self.entered
                .recv_timeout(Duration::from_secs(30))
                .expect("the gated miss reached the ledger");
        }
    }

    /// A volatile service of `pool` workers whose commits pass through a
    /// [`GateRecorder`].
    fn gated_service(pool: usize) -> (Arc<QueryService>, Gate) {
        gated_service_of(pool, MechanismKind::Vanilla)
    }

    fn gated_service_of(pool: usize, mechanism: MechanismKind) -> (Arc<QueryService>, Gate) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let recorder = Arc::new(GateRecorder {
            armed: std::sync::atomic::AtomicBool::new(false),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let mut system = raw_system(mechanism, 8.0, 2);
        system.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        let service = Arc::new(QueryService::start(Arc::new(system), workers(pool)));
        let gate = Gate {
            recorder,
            entered,
            release,
        };
        (service, gate)
    }

    fn hours_request(lo: i64, hi: i64, variance: f64) -> QueryRequest {
        QueryRequest::with_accuracy(
            Query::range_count("adult", "hours_per_week", lo, hi),
            variance,
        )
    }

    fn inline(
        service: &QueryService,
        session: SessionId,
        request: &QueryRequest,
    ) -> Option<Result<Reply, ServerError>> {
        service.try_answer_inline(session, &Work::Scalar(request.clone()), 0, 0)
    }

    /// What a fall-through must leave as it was: the provenance table, the
    /// synopsis cache, the session's stream position and the ledger.
    fn untouched(service: &QueryService, session: SessionId) -> String {
        let state = service.system().export_durable_state();
        format!(
            "{:?} {:?} {:?} {:?} {:?}",
            state.provenance,
            state.releases,
            state.synopses,
            service.sessions().get(session).unwrap().rng_checkpoint(),
            service.store().map(|store| store.total_appends()),
        )
    }

    /// Asserts `request` falls through and records nothing.
    fn falls_through(service: &QueryService, session: SessionId, request: &QueryRequest) {
        let stats = service.stats();
        assert!(inline(service, session, request).is_none(), "{request:?}");
        let after = service.stats();
        assert_eq!(
            (after.submitted, after.completed, after.system.answered),
            (stats.submitted, stats.completed, stats.system.answered),
            "a fall-through records nothing"
        );
    }

    /// A reply's analyst-visible content; `Debug` prints every float in
    /// its shortest round-tripping form, so equal strings are equal bits.
    fn shown(reply: Result<Reply, ServerError>) -> String {
        format!("{:?}", reply.expect("answered"))
    }

    fn queued(service: &QueryService, session: SessionId, request: &QueryRequest) -> Pending {
        service
            .submit(session, Work::Scalar(request.clone()), None)
            .unwrap()
    }

    /// Warms `hit` through the queue and returns its inline answer.
    fn warm(service: &QueryService, session: SessionId, hit: &QueryRequest) -> String {
        service.submit_wait(session, hit.clone()).unwrap();
        assert!(
            !service.lanes.lock().unwrap().contains_key(&session.0),
            "a worker retires an idle lane before it replies"
        );
        shown(inline(service, session, hit).expect("a provable hit"))
    }

    #[test]
    fn inline_hits_answer_and_count_exactly_like_queued_ones() {
        let (inline_service, queued_service) = (
            QueryService::start(system(MechanismKind::AdditiveGaussian, 8.0, 2), workers(2)),
            QueryService::start(system(MechanismKind::AdditiveGaussian, 8.0, 2), workers(2)),
        );
        let hit = request(30, 39, 400.0);
        let mut transcripts = Vec::new();
        for (service, use_inline) in [(&inline_service, true), (&queued_service, false)] {
            let session = service.open_session(AnalystId(1)).unwrap();
            let mut log = vec![shown(queued(service, session, &hit).wait())];
            for _ in 0..3 {
                log.push(if use_inline {
                    shown(inline(service, session, &hit).expect("a provable hit"))
                } else {
                    shown(queued(service, session, &hit).wait())
                });
            }
            let info = service.session_info(session).unwrap();
            let stats = service.stats();
            log.push(format!(
                "{} {} {} {} {} {}",
                info.submitted,
                info.answered,
                stats.submitted,
                stats.completed,
                stats.system.answered,
                stats.system.cache_hits
            ));
            transcripts.push(log);
        }
        assert_eq!(transcripts[0], transcripts[1]);
        let inline_answers = |service: &QueryService| {
            service
                .metrics()
                .snapshot()
                .counter("frontend.inline_answers")
        };
        assert_eq!(inline_answers(&inline_service), Some(3));
        assert_eq!(inline_answers(&queued_service), Some(0));
    }

    #[test]
    fn inline_probe_falls_through_while_the_entry_lock_is_held() {
        let (service, gate) = gated_service(2);
        let (idle, busy) = (
            service.open_session(AnalystId(1)).unwrap(),
            service.open_session(AnalystId(1)).unwrap(),
        );
        let hit = request(30, 39, 400.0);
        let expected = warm(&service, idle, &hit);

        // A stricter miss on the same (analyst, view) from the other
        // session parks holding the entry lock. The probe runs on its own
        // thread so that one which waited for the lock reads as no reply.
        gate.arm();
        let miss = queued(&service, busy, &request(30, 39, 200.0));
        gate.await_parked();
        let (tx, rx) = mpsc::channel();
        let probe = {
            let (service, hit) = (Arc::clone(&service), hit.clone());
            std::thread::spawn(move || tx.send(inline(&service, idle, &hit).is_some()).unwrap())
        };
        let probed = rx.recv_timeout(Duration::from_secs(2));
        let fallen_through = queued(&service, idle, &hit);
        gate.release.send(()).unwrap();
        probe.join().unwrap();
        assert_eq!(probed, Ok(false), "the probe must neither wait nor answer");
        assert!(matches!(
            miss.wait(),
            Err(ServerError::Core(CoreError::Storage(_)))
        ));
        assert_eq!(shown(fallen_through.wait()), expected);
    }

    #[test]
    fn inline_probe_falls_through_while_the_session_lane_is_busy() {
        let (service, gate) = gated_service(2);
        let session = service.open_session(AnalystId(1)).unwrap();
        let hit = request(30, 39, 400.0);
        let expected = warm(&service, session, &hit);

        // A miss on another view parks with the session's lane busy; the
        // hit's own entry lock and the epoch barrier stay free.
        gate.arm();
        let miss = queued(&service, session, &hours_request(20, 40, 400.0));
        gate.await_parked();
        assert!(
            inline(&service, session, &hit).is_none(),
            "FIFO: the hit must queue"
        );
        let fallen_through = queued(&service, session, &hit);
        gate.release.send(()).unwrap();
        assert!(matches!(
            miss.wait(),
            Err(ServerError::Core(CoreError::Storage(_)))
        ));
        assert_eq!(shown(fallen_through.wait()), expected);
        assert_eq!(shown(inline(&service, session, &hit).unwrap()), expected);
    }

    #[test]
    fn inline_probe_falls_through_while_a_seal_holds_the_epoch_barrier() {
        let service = QueryService::start(system(MechanismKind::Vanilla, 8.0, 2), workers(1));
        let session = service.open_session(AnalystId(1)).unwrap();
        let hit = request(30, 39, 400.0);
        let expected = warm(&service, session, &hit);

        let before = untouched(&service, session);
        let seal = service.epoch_barrier.write().unwrap();
        let privacy = QueryRequest::with_privacy(Query::range_count("adult", "age", 20, 29), 0.5);
        for probe in [&hit, &request(30, 39, 100.0), &privacy] {
            falls_through(&service, session, probe);
        }
        let fallen_through = queued(&service, session, &hit);
        drop(seal);
        assert_eq!(shown(fallen_through.wait()), expected);
        assert_eq!(untouched(&service, session), before);
    }

    #[test]
    fn inline_probe_falls_through_until_the_session_draws_are_durable() {
        let dir = dprov_storage::scratch_dir("svc-inline-durable");
        let (service, _) = QueryService::start_durable(
            raw_system(MechanismKind::Vanilla, 8.0, 2),
            workers(1),
            durability(&dir, 0),
        )
        .unwrap();
        let session = service.open_session(AnalystId(1)).unwrap();
        let hit = request(30, 39, 400.0);
        let store = Arc::clone(service.store().unwrap());
        let expected = warm(&service, session, &hit);
        let appends = store.total_appends();
        assert_eq!(shown(inline(&service, session, &hit).unwrap()), expected);
        assert_eq!(
            store.total_appends(),
            appends,
            "a durable hit appends nothing"
        );

        // A miss whose draws fail to checkpoint is withheld, and from then
        // on the session's hits queue, where each retries the checkpoint
        // and is withheld while it keeps failing.
        let failpoint = &service.durable.as_ref().unwrap().fail_session_checkpoints;
        failpoint.store(true, Ordering::SeqCst);
        assert!(matches!(
            service.submit_wait(session, hours_request(20, 40, 400.0)),
            Err(ServerError::Storage(_))
        ));
        let before = untouched(&service, session);
        falls_through(&service, session, &hit);
        falls_through(&service, session, &hours_request(20, 40, 100.0));
        assert_eq!(untouched(&service, session), before);
        assert!(matches!(
            service.submit_wait(session, hit.clone()),
            Err(ServerError::Storage(_))
        ));
        failpoint.store(false, Ordering::SeqCst);
        falls_through(&service, session, &hit);
        assert_eq!(shown(queued(&service, session, &hit).wait()), expected);
        assert_eq!(shown(inline(&service, session, &hit).unwrap()), expected);
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inline_probe_refuses_grouped_and_unresolvable_requests() {
        use dprov_engine::group::GroupByQuery;

        let hit = request(30, 39, 400.0);
        let refused: [fn() -> Work; 2] = [
            || {
                Work::Grouped(GroupedRequest::with_accuracy(
                    GroupByQuery::count("adult", &["age"]),
                    1e9,
                ))
            },
            || {
                Work::Scalar(QueryRequest::with_accuracy(
                    Query::range_count("adult", "no_such_attribute", 0, 1),
                    400.0,
                ))
            },
        ];
        let (probed, reference) = (
            QueryService::start(system(MechanismKind::Vanilla, 8.0, 2), workers(1)),
            QueryService::start(system(MechanismKind::Vanilla, 8.0, 2), workers(1)),
        );
        let mut transcripts = Vec::new();
        for service in [&probed, &reference] {
            let session = service.open_session(AnalystId(1)).unwrap();
            warm(service, session, &hit);
            let mut log = Vec::new();
            for work in refused {
                if std::ptr::eq(service, &probed) {
                    let (submitted, before) =
                        (service.stats().submitted, untouched(service, session));
                    assert!(service.try_answer_inline(session, &work(), 0, 0).is_none());
                    assert_eq!(
                        (service.stats().submitted, untouched(service, session)),
                        (submitted, before),
                        "a refusal records nothing"
                    );
                }
                log.push(shown(service.submit(session, work(), None).unwrap().wait()));
            }
            transcripts.push(log);
        }
        assert_eq!(transcripts[0], transcripts[1]);
    }

    /// Misses, refusals and privacy-mode commits admitted on the calling
    /// thread while the pool is idle: the same replies, noise streams,
    /// charges and counters as the queued path, for both mechanisms.
    #[test]
    fn inline_admissions_answer_and_count_exactly_like_queued_ones() {
        for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            let script = [
                request(30, 39, 400.0),
                request(30, 39, 400.0),
                request(30, 39, 100.0),
                request(30, 39, 1e-9),
                hours_request(20, 40, 300.0),
                QueryRequest::with_privacy(Query::range_count("adult", "age", 20, 29), 0.3),
                QueryRequest::with_privacy(Query::range_count("adult", "age", 20, 29), 0.3),
                request(20, 29, 50.0),
            ];
            let mut transcripts = Vec::new();
            for use_inline in [true, false] {
                let service = QueryService::start(system(mechanism, 8.0, 2), workers(2));
                let session = service.open_session(AnalystId(1)).unwrap();
                let mut log = Vec::new();
                for next in &script {
                    log.push(if use_inline {
                        shown(inline(&service, session, next).expect("an idle pool admits it"))
                    } else {
                        shown(queued(&service, session, next).wait())
                    });
                }
                let info = service.session_info(session).unwrap();
                let stats = service.stats();
                log.push(format!(
                    "{:?} {:?} {} {} {} {} {} {} {} {}",
                    service.system().export_durable_state(),
                    service.sessions().get(session).unwrap().rng_checkpoint(),
                    info.submitted,
                    info.answered,
                    info.rejected,
                    stats.submitted,
                    stats.completed,
                    stats.system.answered,
                    stats.system.rejected,
                    stats.system.cache_hits,
                ));
                let inline_answers = service
                    .metrics()
                    .snapshot()
                    .counter("frontend.inline_answers");
                assert_eq!(
                    inline_answers,
                    Some(if use_inline { script.len() as u64 } else { 0 })
                );
                transcripts.push(log);
            }
            assert!(
                transcripts[0].iter().any(|line| line.contains("Rejected")),
                "{mechanism}: the script has a refusal"
            );
            assert_eq!(transcripts[0], transcripts[1], "{mechanism}");
        }
    }

    #[test]
    fn inline_admission_falls_through_while_the_pool_is_busy() {
        let (service, gate) = gated_service(2);
        let (idle, busy) = (
            service.open_session(AnalystId(1)).unwrap(),
            service.open_session(AnalystId(0)).unwrap(),
        );
        let hit = request(30, 39, 400.0);
        let expected = warm(&service, idle, &hit);

        // Another session's job parks on a worker: the lane map is not
        // empty, so the idle session's miss queues and only its hit is
        // answered here.
        // The parked admission holds the provenance lock, so the state is
        // read before it parks and after it fails, having changed nothing.
        let before = untouched(&service, idle);
        gate.arm();
        let parked = queued(&service, busy, &hours_request(20, 40, 400.0));
        gate.await_parked();
        let privacy = QueryRequest::with_privacy(Query::range_count("adult", "age", 20, 29), 0.5);
        for probe in [&request(30, 39, 100.0), &request(1, 99, 1e-9), &privacy] {
            falls_through(&service, idle, probe);
        }
        assert_eq!(shown(inline(&service, idle, &hit).unwrap()), expected);
        gate.release.send(()).unwrap();
        assert!(matches!(
            parked.wait(),
            Err(ServerError::Core(CoreError::Storage(_)))
        ));
        assert_eq!(untouched(&service, idle), before);
        assert!(inline(&service, idle, &request(30, 39, 100.0)).is_some());
    }

    /// With the pool idle, a held entry lock — another admission of the
    /// same analyst on the view — sends the request to the queue, under
    /// either mechanism.
    #[test]
    fn inline_admission_falls_through_while_the_entry_lock_is_held() {
        for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            let (service, gate) = gated_service_of(1, mechanism);
            let session = service.open_session(AnalystId(1)).unwrap();
            let miss = request(30, 39, 400.0);
            let before = untouched(&service, session);

            // An admission outside every session lane parks holding the
            // locks: the pool is idle, so only the locks stop the probe.
            gate.arm();
            let direct = park_direct_admission(&service, AnalystId(1));
            gate.await_parked();
            assert!(service.lanes.lock().unwrap().is_empty());
            falls_through(&service, session, &miss);
            gate.release.send(()).unwrap();
            assert!(matches!(direct.join().unwrap(), Err(CoreError::Storage(_))));
            assert_eq!(untouched(&service, session), before, "{mechanism}");
            let fallen_through = queued(&service, session, &miss);
            let reference = QueryService::start(system(mechanism, 8.0, 2), workers(1));
            let oracle = reference.open_session(AnalystId(1)).unwrap();
            assert_eq!(
                shown(fallen_through.wait()),
                shown(queued(&reference, oracle, &miss).wait()),
                "{mechanism}"
            );
        }
    }

    /// An admission by `holder` outside every session lane, on the age
    /// view, on its own thread.
    fn park_direct_admission(
        service: &Arc<QueryService>,
        holder: AnalystId,
    ) -> std::thread::JoinHandle<Result<QueryOutcome, CoreError>> {
        let service = Arc::clone(service);
        std::thread::spawn(move || {
            let mut rng = DpRng::for_stream(1, 1_000);
            service
                .system()
                .submit_with_rng(holder, &request(30, 45, 400.0), &mut rng)
        })
    }

    /// Another analyst's admission on the same additive view holds the
    /// view lock: the inline admission waits for it instead of queueing,
    /// and then answers as the queued path would have.
    #[test]
    fn inline_admission_waits_for_a_held_view_lock() {
        let (service, gate) = gated_service_of(1, MechanismKind::AdditiveGaussian);
        let session = service.open_session(AnalystId(1)).unwrap();
        gate.arm();
        let direct = park_direct_admission(&service, AnalystId(0));
        gate.await_parked();
        let (tx, rx) = mpsc::channel();
        let probe = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let reply = inline(&service, session, &request(30, 39, 400.0));
                tx.send(reply.map(shown)).unwrap();
            })
        };
        let early = rx.recv_timeout(Duration::from_millis(200));
        gate.release.send(()).unwrap();
        assert!(matches!(direct.join().unwrap(), Err(CoreError::Storage(_))));
        probe.join().unwrap();
        assert!(
            early.is_err(),
            "the inline admission gave up on the view lock"
        );
        let answered = rx.recv().unwrap().expect("admitted inline");
        let reference =
            QueryService::start(system(MechanismKind::AdditiveGaussian, 8.0, 2), workers(1));
        let oracle = reference.open_session(AnalystId(1)).unwrap();
        assert_eq!(
            answered,
            shown(queued(&reference, oracle, &request(30, 39, 400.0)).wait())
        );
    }

    #[test]
    fn inline_admission_falls_through_while_a_compaction_is_due() {
        let dir = dprov_storage::scratch_dir("svc-inline-compaction");
        let (service, _) = QueryService::start_durable(
            raw_system(MechanismKind::Vanilla, 8.0, 2),
            workers(1),
            durability(&dir, 6),
        )
        .unwrap();
        let ctx = service.durable.as_ref().unwrap();
        let session = service.open_session(AnalystId(1)).unwrap();
        // Inline commits, each stricter than the last, append without
        // compacting: a loop never compacts.
        let mut variance = 4_000.0;
        while !ctx.compaction_due() {
            assert!(variance > 100.0, "no compaction came due");
            let reply = inline(&service, session, &request(30, 30, variance));
            assert!(reply.unwrap().unwrap().into_scalar().unwrap().is_answered());
            variance /= 2.0;
        }
        let before = untouched(&service, session);
        let miss = request(30, 30, variance);
        falls_through(&service, session, &miss);
        assert_eq!(untouched(&service, session), before);
        // The worker that runs it compacts after replying.
        assert!(service.submit_wait(session, miss).unwrap().is_answered());
        let deadline = Instant::now() + Duration::from_secs(10);
        while ctx.compaction_due() || service.store().unwrap().appends_since_snapshot() > 2 {
            assert!(Instant::now() < deadline, "the worker did not compact");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(inline(&service, session, &request(30, 30, variance / 2.0)).is_some());
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A queued hit or refusal draws nothing, so it neither appends a
    /// session checkpoint nor touches the store: even with checkpoints
    /// failing it is answered.
    #[test]
    fn queued_hits_and_refusals_append_no_session_checkpoint() {
        let dir = dprov_storage::scratch_dir("svc-no-idle-checkpoint");
        let (service, _) = QueryService::start_durable(
            raw_system(MechanismKind::Vanilla, 8.0, 2),
            workers(1),
            durability(&dir, 0),
        )
        .unwrap();
        let session = service.open_session(AnalystId(1)).unwrap();
        let hit = request(30, 39, 400.0);
        let refusal = request(30, 39, 1e-9);
        let store = Arc::clone(service.store().unwrap());
        assert!(service
            .submit_wait(session, hit.clone())
            .unwrap()
            .is_answered());
        let appends = store.total_appends();
        let failpoint = &service.durable.as_ref().unwrap().fail_session_checkpoints;
        failpoint.store(true, Ordering::SeqCst);
        let answer = service.submit_wait(session, hit).unwrap();
        assert!(answer.answered().unwrap().from_cache);
        assert!(!service.submit_wait(session, refusal).unwrap().is_answered());
        failpoint.store(false, Ordering::SeqCst);
        assert_eq!(
            store.total_appends(),
            appends,
            "no frame for a draw-free reply"
        );
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// After a failed checkpoint the session's draws are not durable: the
    /// next reply, a hit that drew nothing, checkpoints the stream before
    /// it is sent, and only then may hits be answered inline again.
    #[test]
    fn a_hit_after_a_failed_checkpoint_checkpoints_before_it_replies() {
        let dir = dprov_storage::scratch_dir("svc-checkpoint-retry");
        let (service, _) = QueryService::start_durable(
            raw_system(MechanismKind::Vanilla, 8.0, 2),
            workers(1),
            durability(&dir, 0),
        )
        .unwrap();
        let session = service.open_session(AnalystId(1)).unwrap();
        let hit = request(30, 39, 400.0);
        let store = Arc::clone(service.store().unwrap());
        assert!(service
            .submit_wait(session, hit.clone())
            .unwrap()
            .is_answered());
        let failpoint = &service.durable.as_ref().unwrap().fail_session_checkpoints;
        failpoint.store(true, Ordering::SeqCst);
        assert!(matches!(
            service.submit_wait(session, hours_request(20, 40, 400.0)),
            Err(ServerError::Storage(_))
        ));
        failpoint.store(false, Ordering::SeqCst);
        let appends = store.total_appends();
        let answer = service.submit_wait(session, hit.clone()).unwrap();
        assert!(answer.answered().unwrap().from_cache);
        assert_eq!(
            store.total_appends(),
            appends + 1,
            "the hit appended the session's checkpoint"
        );
        let position = service.sessions().get(session).unwrap().rng_checkpoint();
        drop((service, store));

        // The checkpoint holds the draws the withheld miss made.
        let (service, _) = QueryService::start_durable(
            raw_system(MechanismKind::Vanilla, 8.0, 2),
            workers(1),
            durability(&dir, 0),
        )
        .unwrap();
        assert_eq!(
            service.sessions().get(session).unwrap().rng_checkpoint(),
            position
        );
        assert!(position.draws > 0);
        drop(service);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let service =
            QueryService::start(system(MechanismKind::AdditiveGaussian, 8.0, 4), workers(2));
        let sessions: Vec<_> = (0..4)
            .map(|i| service.open_session(AnalystId(i)).unwrap())
            .collect();
        let submissions: Vec<_> = sessions
            .iter()
            .flat_map(|&s| (0..5).map(move |i| (s, i)))
            .map(|(s, i)| service.submit(s, work(20 + i, 45, 900.0), None).unwrap())
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 20);
        assert_eq!(stats.completed, 20);
        for pending in submissions {
            // Every submitted job got a response before shutdown returned.
            assert!(pending.wait().is_ok());
        }
    }
}
