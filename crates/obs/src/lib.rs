//! # `dprov-obs` — lock-free observability for the query stack
//!
//! The service spans six layers (protocol → frontend → queue →
//! micro-batcher → columnar exec / admission → WAL). This crate is the
//! telemetry spine threaded through all of them: one
//! [`MetricsRegistry`] handle, cloned into every layer, holding
//!
//! * **counters** ([`CounterId`]) — relaxed-atomic monotone event
//!   counts (admission outcomes, cache hits, WAL appends, …);
//! * **gauges** ([`GaugeId`]) — point-in-time values with monotone-max
//!   semantics where needed (queue-depth high-watermark);
//! * **histograms** ([`HistId`], [`histogram::Histogram`]) —
//!   log-bucketed latency/size distributions with p50/p95/p99/max
//!   snapshots;
//! * **budget gauges** — a dense per-(analyst, view) matrix mirroring
//!   the provenance table's remaining `epsilon_{i,j}`, the paper's core
//!   resource;
//! * a **trace journal** ([`journal::TraceJournal`]) — a fixed-capacity
//!   seqlock ring of per-request stage events, exportable as
//!   chrome://tracing JSON.
//!
//! **The registry is the one tally.** The service's and the system's
//! outcome counts (answered, rejected, cache hits, batches, the
//! queue-depth high-watermark) live here and nowhere else, so every
//! registry — disabled or not — counts them.
//!
//! **Inertness is the design invariant.** Recording takes no locks,
//! allocates nothing, and never touches RNG or admission state: every
//! record is a handful of relaxed atomic operations on values the hot
//! path had already computed. A registry built with
//! [`MetricsRegistry::disabled`] still counts, but reads no clock for a
//! metric ([`MetricsRegistry::start`] returns `None`) and journals no
//! trace; the workspace's `metrics_determinism` suite proves answers,
//! noise and budget charges are bit-identical either way.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod histogram;
pub mod journal;
pub mod snapshot;

pub use histogram::{Histogram, HistogramSnapshot};
pub use journal::{chrome_trace, Stage, TraceEvent, TraceJournal};
pub use snapshot::{BudgetGauge, MetricsSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Default number of trace events retained by a registry's journal.
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Monotone event counters. The enum is the metric catalog: adding a
/// counter means adding a variant, a name, and an entry in
/// `CounterId::ALL` — snapshots pick it up automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CounterId {
    /// Connections accepted by the frontend.
    FrontendConnections,
    /// Requests decoded by the frontend.
    FrontendRequests,
    /// Queries answered (fresh or from cache).
    QueriesAnswered,
    /// Queries rejected by admission control.
    QueriesRejected,
    /// Synopsis cache hits.
    CacheHits,
    /// Synopsis cache misses (a mechanism run was required).
    CacheMisses,
    /// Cached answers served from an older epoch under `CarryForward`.
    StaleServes,
    /// Commit/session records appended to the write-ahead ledger.
    WalAppends,
    /// `fsync` (sync_data) calls issued by the write-ahead ledger.
    WalFsyncs,
    /// Budget commits replayed from durable state at recovery.
    RecoveredCommits,
    /// Session checkpoints replayed from durable state at recovery.
    RecoveredSessions,
    /// Micro-batches executed by the worker pool.
    BatchesExecuted,
    /// Leader elections won across the replication group (terms in which
    /// some node collected a majority of votes).
    LeaderElections,
    /// Accept-loop failures classified as transient (EMFILE-style resource
    /// exhaustion, aborted handshakes): the loop backs off and continues.
    AcceptTransientErrors,
    /// Accept-loop failures classified as fatal (bad listener fd, invalid
    /// state): the loop surfaces the error and stops accepting.
    AcceptFatalErrors,
    /// Connections closed by the event-loop frontend for idling past the
    /// reap timeout (sessions survive; only the socket is dropped).
    IdleConnectionsReaped,
    /// Grouped (GROUP BY) queries answered end to end.
    GroupQueries,
    /// Group cells released across grouped queries (each a priced,
    /// individually-admitted answer).
    GroupCellsReleased,
    /// Accuracy→epsilon translations the core ran (vanilla and
    /// friction-aware searches alike; a cache hit runs none). The cells of
    /// one grouped request run each distinct search once.
    Translations,
    /// Noise-scale calibrations the core ran outside a translation (a
    /// request calibrates each distinct epsilon once).
    Calibrations,
    /// Scalar requests the event-loop frontend answered on its loop
    /// thread, never queued (they add no `queue.wait_ns` or `batch.size`
    /// sample).
    InlineAnswers,
}

impl CounterId {
    /// Every counter, in catalog order.
    pub(crate) const ALL: [CounterId; 21] = [
        CounterId::FrontendConnections,
        CounterId::FrontendRequests,
        CounterId::QueriesAnswered,
        CounterId::QueriesRejected,
        CounterId::CacheHits,
        CounterId::CacheMisses,
        CounterId::StaleServes,
        CounterId::WalAppends,
        CounterId::WalFsyncs,
        CounterId::RecoveredCommits,
        CounterId::RecoveredSessions,
        CounterId::BatchesExecuted,
        CounterId::LeaderElections,
        CounterId::AcceptTransientErrors,
        CounterId::AcceptFatalErrors,
        CounterId::IdleConnectionsReaped,
        CounterId::GroupQueries,
        CounterId::GroupCellsReleased,
        CounterId::Translations,
        CounterId::Calibrations,
        CounterId::InlineAnswers,
    ];

    /// Stable snapshot name of the counter.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            CounterId::FrontendConnections => "frontend.connections",
            CounterId::FrontendRequests => "frontend.requests",
            CounterId::QueriesAnswered => "query.answered",
            CounterId::QueriesRejected => "query.rejected",
            CounterId::CacheHits => "synopsis.cache_hits",
            CounterId::CacheMisses => "synopsis.cache_misses",
            CounterId::StaleServes => "epoch.stale_serves",
            CounterId::WalAppends => "wal.appends",
            CounterId::WalFsyncs => "wal.fsyncs",
            CounterId::RecoveredCommits => "recovery.replayed_commits",
            CounterId::RecoveredSessions => "recovery.replayed_sessions",
            CounterId::BatchesExecuted => "batch.executed",
            CounterId::LeaderElections => "cluster.leader_elections",
            CounterId::AcceptTransientErrors => "frontend.accept_transient_errors",
            CounterId::AcceptFatalErrors => "frontend.accept_fatal_errors",
            CounterId::IdleConnectionsReaped => "net.idle_reaped",
            CounterId::GroupQueries => "group.queries",
            CounterId::GroupCellsReleased => "group.cells_released",
            CounterId::Translations => "dp.translations",
            CounterId::Calibrations => "dp.calibrations",
            CounterId::InlineAnswers => "frontend.inline_answers",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Point-in-time gauges (stored as `f64`; non-negative values only, so
/// monotone-max updates can use the IEEE-754 bit ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum GaugeId {
    /// Deepest the bounded job queue has ever been.
    QueueDepthHwm,
    /// Replication lag of the slowest live follower: leader last log
    /// index minus that follower's match index, at the last append.
    ReplicationLag,
    /// Connections currently registered with the event-loop frontend.
    RegisteredConnections,
    /// Largest per-connection output buffer the event-loop frontend has
    /// ever held (bytes) — how close writers get to the high-water mark.
    OutputBufferHwm,
}

impl GaugeId {
    /// Every gauge, in catalog order.
    pub(crate) const ALL: [GaugeId; 4] = [
        GaugeId::QueueDepthHwm,
        GaugeId::ReplicationLag,
        GaugeId::RegisteredConnections,
        GaugeId::OutputBufferHwm,
    ];

    /// Stable snapshot name of the gauge.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::QueueDepthHwm => "queue.depth_hwm",
            GaugeId::ReplicationLag => "cluster.replication_lag",
            GaugeId::RegisteredConnections => "net.registered_connections",
            GaugeId::OutputBufferHwm => "net.output_buffer_hwm_bytes",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Latency and size histograms. Latencies are recorded in nanoseconds;
/// `BatchSize` in jobs and `EpochStaleness` in epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HistId {
    /// Frontend: wire bytes → decoded request.
    FrontendDecode,
    /// Frontend: response encode + write.
    FrontendReply,
    /// Job time spent queued before a worker picked it up.
    QueueWait,
    /// Mechanism execution per query (admission + DP answer).
    Execute,
    /// Columnar executor busy time per batch: the shard-scan nanoseconds
    /// of every table pass of the batch, recorded as exactly **one**
    /// sample per executed batch.
    ScanTime,
    /// Write-ahead ledger append (buffer write, excluding fsync).
    WalAppend,
    /// Write-ahead ledger `sync_data` call.
    WalFsync,
    /// Jobs per executed micro-batch.
    BatchSize,
    /// Epoch lag (current − served) of cache hits under `CarryForward`.
    EpochStaleness,
    /// Replication: budget charge proposed → majority-acknowledged.
    QuorumAck,
    /// Ready events delivered per event-loop wakeup (count, not ns) — how
    /// much work each `epoll_wait` return amortises.
    ReadyEventsPerWake,
    /// End-to-end grouped-query execution (resolve + every cell's
    /// admission and release).
    GroupExecute,
    /// Group cells per grouped query (count, not ns).
    GroupSize,
}

impl HistId {
    /// Every histogram, in catalog order.
    pub(crate) const ALL: [HistId; 13] = [
        HistId::FrontendDecode,
        HistId::FrontendReply,
        HistId::QueueWait,
        HistId::Execute,
        HistId::ScanTime,
        HistId::WalAppend,
        HistId::WalFsync,
        HistId::BatchSize,
        HistId::EpochStaleness,
        HistId::QuorumAck,
        HistId::ReadyEventsPerWake,
        HistId::GroupExecute,
        HistId::GroupSize,
    ];

    /// Stable snapshot name of the histogram.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HistId::FrontendDecode => "frontend.decode_ns",
            HistId::FrontendReply => "frontend.reply_ns",
            HistId::QueueWait => "queue.wait_ns",
            HistId::Execute => "query.execute_ns",
            HistId::ScanTime => "exec.scan_ns",
            HistId::WalAppend => "wal.append_ns",
            HistId::WalFsync => "wal.fsync_ns",
            HistId::BatchSize => "batch.size",
            HistId::EpochStaleness => "epoch.staleness",
            HistId::QuorumAck => "cluster.quorum_ack_ns",
            HistId::ReadyEventsPerWake => "net.ready_events_per_wake",
            HistId::GroupExecute => "group.execute_ns",
            HistId::GroupSize => "group.size",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One (analyst, view) cell of the budget matrix: `f64` bits, `NaN`
/// until first set.
#[derive(Debug)]
struct BudgetCell {
    entry: AtomicU64,
    remaining: AtomicU64,
}

/// The dense per-(analyst, view) budget-gauge matrix, registered once
/// at system build.
#[derive(Debug)]
struct BudgetMatrix {
    analysts: Vec<String>,
    views: Vec<String>,
    cells: Vec<BudgetCell>,
}

#[derive(Debug)]
struct Inner {
    /// Whether metric timings and the trace journal are on (off only for
    /// [`MetricsRegistry::disabled`]).
    timed: bool,
    epoch: Instant,
    counters: [AtomicU64; CounterId::ALL.len()],
    gauges: [AtomicU64; GaugeId::ALL.len()],
    histograms: [Histogram; HistId::ALL.len()],
    budgets: OnceLock<BudgetMatrix>,
    journal: TraceJournal,
}

/// The cloneable metrics handle threaded through every layer; all clones
/// share one inner set of atomics.
///
/// Counters, gauges, histograms and the budget matrix always record. A
/// **disabled** handle ([`MetricsRegistry::disabled`]) only skips the
/// clock reads that exist for metrics and the trace journal, which is
/// what the determinism suite compares against.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An enabled registry with the default journal capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An enabled registry retaining at most `capacity` trace events.
    #[must_use]
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self::build(true, capacity)
    }

    /// A registry that counts but never times: [`Self::start`] returns
    /// `None` and [`Self::trace`] does nothing. Counters, gauges,
    /// histogram samples that need no clock and the budget matrix still
    /// record.
    #[must_use]
    pub fn disabled() -> Self {
        Self::build(false, 1)
    }

    fn build(timed: bool, capacity: usize) -> Self {
        MetricsRegistry {
            inner: Arc::new(Inner {
                timed,
                epoch: Instant::now(),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauges: std::array::from_fn(|_| AtomicU64::new(0f64.to_bits())),
                histograms: std::array::from_fn(|_| Histogram::new()),
                budgets: OnceLock::new(),
                journal: TraceJournal::new(capacity),
            }),
        }
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.inner.counters[id.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Sets a gauge (non-negative values only).
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, value: f64) {
        self.inner.gauges[id.index()].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raises a gauge to `value` if it is the new maximum (non-negative
    /// values only — the monotone max relies on IEEE-754 bit ordering).
    #[inline]
    pub fn gauge_max(&self, id: GaugeId, value: f64) {
        self.inner.gauges[id.index()].fetch_max(value.to_bits(), Ordering::Relaxed);
    }

    /// Records one histogram sample.
    #[inline]
    pub fn observe(&self, id: HistId, value: u64) {
        self.inner.histograms[id.index()].record(value);
    }

    /// Records a duration sample (saturating at `u64::MAX` nanoseconds).
    #[inline]
    pub fn observe_duration(&self, id: HistId, dur: Duration) {
        self.observe(id, dur.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// The current value of one counter.
    #[must_use]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.inner.counters[id.index()].load(Ordering::Relaxed)
    }

    /// The current value of one gauge.
    #[must_use]
    pub fn gauge(&self, id: GaugeId) -> f64 {
        f64::from_bits(self.inner.gauges[id.index()].load(Ordering::Relaxed))
    }

    /// A summary of one histogram.
    #[must_use]
    pub fn histogram(&self, id: HistId) -> HistogramSnapshot {
        self.inner.histograms[id.index()].snapshot()
    }

    /// Starts a timing: `Some(now)` when enabled, `None` when disabled,
    /// so a disabled registry never pays for a clock read.
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        self.inner.timed.then(Instant::now)
    }

    /// Records a completed request stage into the trace journal (and
    /// nothing else — pair with [`Self::observe_duration`] when the
    /// stage also has a histogram).
    #[inline]
    pub fn trace(&self, request_id: u64, stage: Stage, lane: u64, start: Instant, dur: Duration) {
        let inner = &self.inner;
        if inner.timed {
            let start_ns = start
                .checked_duration_since(inner.epoch)
                .unwrap_or_default()
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            inner.journal.record(request_id, stage, lane, start_ns, dur);
        }
    }

    /// The retained trace events, ordered by start time. Empty when
    /// disabled.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.journal.snapshot()
    }

    /// Total trace events ever recorded (including overwritten ones).
    #[must_use]
    pub fn trace_recorded(&self) -> u64 {
        self.inner.journal.recorded()
    }

    /// The retained trace as chrome://tracing JSON.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.trace_events())
    }

    /// Registers the per-(analyst, view) budget matrix. First
    /// registration wins; later calls are ignored (the matrix shape is
    /// fixed at system build).
    pub fn register_budget_matrix(&self, analysts: Vec<String>, views: Vec<String>) {
        let cells = (0..analysts.len() * views.len())
            .map(|_| BudgetCell {
                entry: AtomicU64::new(f64::NAN.to_bits()),
                remaining: AtomicU64::new(f64::NAN.to_bits()),
            })
            .collect();
        let _ = self.inner.budgets.set(BudgetMatrix {
            analysts,
            views,
            cells,
        });
    }

    /// Updates one budget cell (by analyst and view index into the
    /// registered matrix). Out-of-range indices and unregistered
    /// matrices are ignored — recording never fails.
    #[inline]
    pub fn set_budget(&self, analyst: usize, view: usize, entry_epsilon: f64, remaining: f64) {
        if let Some(matrix) = self.inner.budgets.get() {
            if analyst < matrix.analysts.len() && view < matrix.views.len() {
                let cell = &matrix.cells[analyst * matrix.views.len() + view];
                cell.entry.store(entry_epsilon.to_bits(), Ordering::Relaxed);
                cell.remaining.store(remaining.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time summary of every metric. Budget cells never
    /// touched since registration are omitted.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = CounterId::ALL
            .iter()
            .map(|&id| (id.name().to_owned(), self.counter(id)))
            .collect();
        let gauges = GaugeId::ALL
            .iter()
            .map(|&id| (id.name().to_owned(), self.gauge(id)))
            .collect();
        let histograms = HistId::ALL
            .iter()
            .map(|&id| (id.name().to_owned(), self.histogram(id)))
            .collect();
        let mut budgets = Vec::new();
        if let Some(matrix) = self.inner.budgets.get() {
            for (a, analyst) in matrix.analysts.iter().enumerate() {
                for (v, view) in matrix.views.iter().enumerate() {
                    let cell = &matrix.cells[a * matrix.views.len() + v];
                    let entry = f64::from_bits(cell.entry.load(Ordering::Relaxed));
                    let remaining = f64::from_bits(cell.remaining.load(Ordering::Relaxed));
                    if entry.is_nan() && remaining.is_nan() {
                        continue;
                    }
                    budgets.push(BudgetGauge {
                        analyst: analyst.clone(),
                        view: view.clone(),
                        entry_epsilon: entry,
                        remaining_epsilon: remaining,
                    });
                }
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            budgets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_counts_but_never_times() {
        let m = MetricsRegistry::disabled();
        assert!(m.start().is_none());
        m.incr(CounterId::QueriesAnswered);
        m.observe(HistId::BatchSize, 3);
        m.gauge_max(GaugeId::QueueDepthHwm, 5.0);
        m.register_budget_matrix(vec!["a".into()], vec!["v".into()]);
        m.set_budget(0, 0, 1.0, 0.5);
        m.trace(
            1,
            Stage::Execute,
            0,
            Instant::now(),
            Duration::from_nanos(1),
        );
        // Every tally records...
        let snap = m.snapshot();
        assert_eq!(snap.counter("query.answered"), Some(1));
        assert_eq!(snap.histogram("batch.size").unwrap().count, 1);
        assert_eq!(snap.gauge("queue.depth_hwm"), Some(5.0));
        assert_eq!(snap.budget("a", "v").unwrap().remaining_epsilon, 0.5);
        // ...but nothing is journaled.
        assert!(m.trace_events().is_empty());
        assert_eq!(m.trace_recorded(), 0);
    }

    #[test]
    fn clones_share_one_registry() {
        let m = MetricsRegistry::new();
        let clone = m.clone();
        assert!(Arc::ptr_eq(&m.inner, &clone.inner));
        assert!(!Arc::ptr_eq(&m.inner, &MetricsRegistry::new().inner));
        clone.incr(CounterId::CacheHits);
        clone.incr(CounterId::CacheHits);
        assert_eq!(m.snapshot().counter("synopsis.cache_hits"), Some(2));
    }

    #[test]
    fn snapshot_carries_the_full_catalog() {
        let m = MetricsRegistry::new();
        let snap = m.snapshot();
        assert_eq!(snap.counters.len(), CounterId::ALL.len());
        assert_eq!(snap.gauges.len(), GaugeId::ALL.len());
        assert_eq!(snap.histograms.len(), HistId::ALL.len());
        assert!(snap.budgets.is_empty());
        // Catalog names are unique.
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(GaugeId::ALL.iter().map(|g| g.name()));
        names.extend(HistId::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn gauge_max_is_monotone() {
        let m = MetricsRegistry::new();
        m.gauge_max(GaugeId::QueueDepthHwm, 3.0);
        m.gauge_max(GaugeId::QueueDepthHwm, 7.0);
        m.gauge_max(GaugeId::QueueDepthHwm, 5.0);
        assert_eq!(m.snapshot().gauge("queue.depth_hwm"), Some(7.0));
    }

    #[test]
    fn budget_matrix_reports_touched_cells_only() {
        let m = MetricsRegistry::new();
        m.register_budget_matrix(
            vec!["alice".into(), "bob".into()],
            vec!["v0".into(), "v1".into()],
        );
        m.set_budget(1, 0, 2.0, 1.25);
        // Out-of-range updates are ignored, not panics.
        m.set_budget(9, 9, 1.0, 1.0);
        let snap = m.snapshot();
        assert_eq!(snap.budgets.len(), 1);
        let cell = snap.budget("bob", "v0").unwrap();
        assert_eq!(cell.entry_epsilon, 2.0);
        assert_eq!(cell.remaining_epsilon, 1.25);
        assert!(snap.budget("alice", "v0").is_none());
        // Second registration is ignored; cells persist.
        m.register_budget_matrix(vec!["x".into()], vec!["y".into()]);
        assert!(m.snapshot().budget("bob", "v0").is_some());
    }

    #[test]
    fn histogram_lookup_round_trips() {
        let m = MetricsRegistry::new();
        m.observe_duration(HistId::WalFsync, Duration::from_micros(3));
        let snap = m.snapshot();
        let h = snap.histogram("wal.fsync_ns").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 3_000);
        assert!(snap.histogram("no.such").is_none());
    }

    #[test]
    fn trace_round_trips_through_the_registry() {
        let m = MetricsRegistry::with_journal_capacity(8);
        let t0 = m.start().unwrap();
        m.trace(7, Stage::Decode, 3, t0, Duration::from_micros(2));
        let events = m.trace_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].request_id, 7);
        assert_eq!(events[0].stage, Stage::Decode);
        assert_eq!(events[0].lane, 3);
        assert_eq!(events[0].dur_ns, 2_000);
        assert!(m.chrome_trace().contains("\"request_id\": 7"));
    }
}
