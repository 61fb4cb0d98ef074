//! The DProvDB middleware orchestrator (Algorithm 1), thread-safe.
//!
//! [`DProvDb`] ties every component together: the relational engine and its
//! view catalog, the privacy provenance table (from which the multi-analyst
//! ledger is derived), the synopsis manager and the accuracy→privacy
//! translation. It exposes
//! the dual submission modes of Principle 3 and admits every query — a
//! scalar request, or each cell of a GROUP BY — through one pipeline,
//! `DProvDb::admit` (Algorithm 1): the configured [`MechanismKind`] only
//! decides how a charge is priced and what is released, by the vanilla
//! mechanism (Algorithm 2) or the additive Gaussian mechanism
//! (Algorithm 4).
//!
//! # Concurrency model
//!
//! The system is split into *shared immutable state* (configuration,
//! catalog, registry, the executor's schemas — plain reads, no locks) and
//! *interior-mutability components*:
//!
//! * resolution — view selection and the query's rewrite over the view —
//!   reads only the immutable state and borrows the view from the catalog,
//!   so it takes no lock; the relational instance itself sits behind an
//!   epoch-versioned `RwLock` that a seal writes and update validation
//!   reads;
//! * the synopsis cache is lock-striped per view inside
//!   [`SynopsisManager`] (read-mostly fast path for cache hits);
//! * the provenance table and tight accountant sit behind
//!   short-critical-section `Mutex`es; the answered, rejected and cache-hit
//!   counts are the metrics registry's relaxed-atomic counters (no lock);
//! * admission is gated by `AdmissionControl`: a per-(analyst, view)
//!   entry lock held across one admission's cache probe → plan →
//!   check-and-reserve → release sequence, plus a per-view lock that only
//!   the additive mechanism takes, serialising its global-synopsis growth
//!   (a vanilla admission never waits for it). Lock order is entry → view
//!   → provenance, with the commit gate taken just before the provenance
//!   lock. Constraint *check*, write-ahead journal and *charge* happen in
//!   the one provenance-mutex critical section of `DProvDb::admit`, which
//!   both mechanisms share, so concurrent submissions can never jointly
//!   overspend a row, column or table constraint;
//! * noise generation takes a caller-supplied [`DpRng`] — concurrent
//!   callers (e.g. the `dprov-server` worker pool) pass per-session
//!   generators seeded via [`DpRng::for_stream`], so each caller's noise
//!   stream is independent of thread interleaving (interleaving can still
//!   reorder growth of a view's shared global synopsis under the additive
//!   mechanism; see the `dprov-server` crate docs for the resulting
//!   determinism guarantee).
//!
//! The original single-threaded API ([`DProvDb::submit`] on `&mut self`)
//! is preserved and forwards to the shared path with an internal RNG.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use dprov_delta::{build_segments, EncodedBatch, SealedEpoch, UpdateBatch, UpdateLog};
use dprov_dp::accountant::{make_accountant, Accountant};
use dprov_dp::budget::{Budget, Epsilon};
use dprov_dp::mechanism::analytic_gaussian::AnalyticGaussian;
use dprov_dp::rng::DpRng;
use dprov_dp::sensitivity::Sensitivity;
use dprov_dp::translation::{translate_variance_to_epsilon, FrictionAwareTranslation};
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::database::Database;
use dprov_engine::group::GroupByQuery;
use dprov_engine::query::Query;
use dprov_engine::transform::{for_each_coefficient, LinearQuery};
use dprov_engine::value::Value;
use dprov_engine::view::ViewDef;
use dprov_engine::EngineError;
use dprov_exec::{ColumnarExecutor, ExecConfig, ExecStats};
use dprov_obs::{CounterId, HistId, MetricsRegistry};

use crate::accounting::{legacy_release_counts, MultiAnalystLedger};
use crate::admission::AdmissionControl;
use crate::analyst::{AnalystId, AnalystRegistry};
use crate::config::SystemConfig;
use crate::error::{CoreError, RejectReason, Result};
use crate::fairness::{self, AnalystOutcome};
use crate::mechanism::MechanismKind;
use crate::processor::{
    AnsweredQuery, GroupedOutcome, GroupedRequest, QueryOutcome, QueryProcessor, QueryRequest,
    SubmissionMode,
};
use crate::provenance::{analyst_constraints, ProvenanceTable};
use crate::recorder::{
    Admission, CommitRecord, CoreState, DataAccess, ProvenanceEntryState, Recorder, ReleaseState,
    TightState,
};
use crate::synopsis_manager::{BudgetedSynopsis, SynopsisManager};

/// Statistics for the runtime tables (Tables 1 and 3). The counts
/// are read from the metrics registry's counters (`query.answered`,
/// `query.rejected`, `synopsis.cache_hits`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemStats {
    /// Time spent materialising views at setup.
    pub setup_time: Duration,
    /// Number of answered queries.
    pub answered: usize,
    /// Number of rejected queries.
    pub rejected: usize,
    /// Of the answered queries, how many were served from an existing
    /// synopsis without spending new budget.
    pub cache_hits: usize,
}

/// The DProvDB system. Sharable across threads (`&self` submission path);
/// see the module docs for the locking discipline.
pub struct DProvDb {
    config: SystemConfig,
    mechanism: MechanismKind,
    /// The relational instance, epoch-versioned: sealed update epochs are
    /// applied to the tables under the write side; update validation and
    /// [`DProvDb::with_database`] take the read side. Query resolution
    /// takes neither: it reads schemas from `exec`, which never change.
    db: RwLock<Database>,
    /// The batched columnar execution layer (`dprov-exec`): the database
    /// re-ingested as an immutable sharded column-store. Setup-time view
    /// materialisation and every exact (ground-truth) evaluation route
    /// through it; shared after setup without locks.
    exec: ColumnarExecutor,
    catalog: ViewCatalog,
    registry: AnalystRegistry,
    provenance: Mutex<ProvenanceTable>,
    synopses: SynopsisManager,
    /// Tighter accounting of the data accesses (global synopsis releases /
    /// fresh per-analyst synopses) under the configured composition method
    /// (Appendix A). Used for reporting only — constraint checking uses
    /// basic composition on the provenance table, as the paper recommends.
    /// An access is counted inside the provenance critical section, right
    /// after its admission record persists, so the accountant composes in
    /// ledger order.
    tight_accountant: Mutex<Box<dyn Accountant>>,
    admission: AdmissionControl,
    /// RNG backing the legacy single-threaded [`DProvDb::submit`] API.
    rng: Mutex<DpRng>,
    /// Time spent materialising views at setup ([`SystemStats::setup_time`]).
    setup_time: Duration,
    per_analyst_answered: Vec<AtomicUsize>,
    /// Optional durable-commit hook: every accepted charge is appended to
    /// the recorder's write-ahead ledger *before* the in-memory commit
    /// becomes visible (see [`crate::recorder`]). `None` = volatile mode.
    recorder: Option<Arc<dyn Recorder>>,
    /// Monotone commit sequence, assigned inside the provenance critical
    /// section so sequence order equals commit order.
    commit_seq: AtomicU64,
    /// Commit-pipeline gate: submissions hold a read guard across their
    /// append → apply → release window; [`DProvDb::export_durable_state`]
    /// takes the write guard so a snapshot never observes a commit that is
    /// in the write-ahead ledger but not yet fully applied in memory.
    commit_gate: RwLock<()>,
    /// The dynamic-data update log: validated pending batches plus the
    /// sealed epoch history (see `dprov-delta`).
    delta_log: Mutex<UpdateLog>,
    /// Epoch gate: every submission and exact-answer evaluation holds the
    /// read side for its whole execution; [`DProvDb::seal_epoch`] takes
    /// the write side, so an answer is never torn across two epochs and a
    /// seal waits for in-flight answers to finish.
    epoch_gate: RwLock<()>,
    /// The observability registry (`dprov-obs`): admission outcomes
    /// (the one tally [`Self::stats`] reads), cache hit/miss, epoch
    /// staleness, execute latency and the per-(analyst, view)
    /// remaining-budget gauges. Recording is
    /// lock-free and only reads values the hot path already computed, so
    /// answers/noise/charges are bit-identical with the registry enabled
    /// or [`MetricsRegistry::disabled`] (the `metrics_determinism` suite
    /// proves it).
    metrics: MetricsRegistry,
    /// Dense view index (catalog order) for the budget-gauge matrix.
    view_index: HashMap<String, usize>,
}

/// A guard holding the commit pipeline frozen (see
/// [`DProvDb::freeze_commits`]). Dropping it resumes commits.
pub struct CommitFreeze<'a> {
    _guard: std::sync::RwLockWriteGuard<'a, ()>,
}

/// What one epoch seal did (see [`DProvDb::seal_epoch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// The sealed epoch's number.
    pub epoch: u64,
    /// Update batches the epoch applied.
    pub batches: usize,
    /// Delta rows (inserts + deletes) the epoch applied.
    pub rows: usize,
    /// Views whose exact histograms were patched (or rebuilt).
    pub views_patched: Vec<String>,
    /// Cached noisy synopses invalidated under the epoch policy.
    pub synopses_invalidated: usize,
}

/// What a request resolves to before any budget is spent. The view is
/// borrowed from the catalog, so a scalar request or a group cell clones
/// none.
struct ResolvedRequest<'a> {
    view: &'a ViewDef,
    linear: LinearQuery,
    /// The per-bin variance the answer's synopsis must reach.
    per_bin_target: f64,
    /// The mechanism calibrated at the explicit epsilon of a
    /// privacy-oriented request, if any: the epsilon travels with the σ
    /// resolution calibrated for it, so the release does not calibrate
    /// it again.
    requested: Option<AnalyticGaussian>,
}

/// The per-cell tail of resolution, shared by scalar and grouped requests:
/// the per-bin variance the answer's synopsis must reach. An accuracy-mode
/// target is `variance / Σ coeff²`; a privacy-mode target is the variance
/// of the mechanism `calibrated(view, ε)` returns; a query touching no cell
/// has a trivially exact answer of 0, answerable from any synopsis at no
/// cost. `calibrated` runs only for a non-empty privacy-mode query.
fn resolve_target(
    view: &ViewDef,
    linear: LinearQuery,
    mode: SubmissionMode,
    calibrated: impl FnOnce(&str, f64) -> Option<AnalyticGaussian>,
) -> std::result::Result<ResolvedRequest<'_>, RejectReason> {
    let coeff_sq = linear.answer_variance(1.0);
    let (per_bin_target, requested) = if coeff_sq <= 0.0 {
        (f64::INFINITY, None)
    } else {
        match mode {
            SubmissionMode::Accuracy { variance } if variance.is_finite() && variance > 0.0 => {
                (variance / coeff_sq, None)
            }
            SubmissionMode::Accuracy { .. } => return Err(RejectReason::AccuracyUnreachable),
            SubmissionMode::Privacy { epsilon } => {
                let mechanism =
                    calibrated(&view.name, epsilon).ok_or(RejectReason::AccuracyUnreachable)?;
                (mechanism.variance(), Some(mechanism))
            }
        }
    };
    Ok(ResolvedRequest {
        view,
        linear,
        per_bin_target,
        requested,
    })
}

/// Whether a submission waits for a held lock or gives up on it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Locking {
    /// Wait for every lock: the queued path and every GROUP BY cell.
    Wait,
    /// Only try the epoch gate, the entry lock and the commit gate, and
    /// give up — having charged, drawn, cached and journalled nothing —
    /// on the first one that is held.
    Try,
}

impl Locking {
    /// The read side of `gate`, or `None` when a `Try` finds it held.
    fn read(self, gate: &RwLock<()>) -> Option<RwLockReadGuard<'_, ()>> {
        match self {
            Locking::Wait => Some(gate.read().expect("gate poisoned")),
            Locking::Try => gate.try_read().ok(),
        }
    }
}

/// How one admission prices its charge and what it releases: the
/// mechanism-specific half of Algorithm 1, decided by [`DProvDb::admit`]
/// before its provenance critical section.
enum Plan {
    /// Algorithm 2: charge `ε` on top of `P[A_i, V]` and release a fresh
    /// synopsis of the exact histogram with `mechanism`, calibrated at `ε`.
    Vanilla { mechanism: AnalyticGaussian },
    /// Algorithm 4: charge `min(ε_g, P[A_i, V] + ε_i) − P[A_i, V]`, grow
    /// the global synopsis to `global_target` with `growth` (none when it
    /// already covers the target) and derive a local synopsis at
    /// `local_epsilon`.
    Additive {
        global_target: f64,
        local_epsilon: f64,
        /// The mechanism the request calibrated, at the requested or the
        /// nominal epsilon.
        known: AnalyticGaussian,
        growth: Option<AnalyticGaussian>,
    },
}

impl Plan {
    /// The charge rule, evaluated under the provenance lock: the entry
    /// before and after the charge, and the epsilon charged — or the
    /// constraint the charge would break.
    fn charge(
        &self,
        provenance: &ProvenanceTable,
        analyst: AnalystId,
        view: &str,
    ) -> std::result::Result<(f64, f64, f64), RejectReason> {
        match *self {
            Plan::Vanilla { mechanism } => {
                let epsilon = mechanism.budget().epsilon.value();
                provenance.check_vanilla(analyst, view, epsilon)?;
                let prev_entry = provenance.entry(analyst, view);
                Ok((prev_entry, prev_entry + epsilon, epsilon))
            }
            Plan::Additive {
                global_target,
                local_epsilon,
                ..
            } => additive_charge(provenance, analyst, view, global_target, local_epsilon),
        }
    }

    /// The data access the plan's release makes — the vanilla synopsis, or
    /// the global growth (local synopses are post-processing) — if any.
    fn access(&self, sensitivity: Sensitivity) -> Option<DataAccess> {
        let mechanism = match self {
            Plan::Vanilla { mechanism } => mechanism,
            Plan::Additive { growth, .. } => growth.as_ref()?,
        };
        Some(DataAccess {
            epsilon: mechanism.budget().epsilon.value(),
            sigma: mechanism.sigma(),
            sensitivity: sensitivity.value(),
        })
    }
}

/// Algorithm 4's incremental charge (line 19):
/// `ε' = min(ε_global, P[A_i, V] + ε_i) − P[A_i, V]`, floored at zero. A
/// re-noise seal drops the global synopsis, so the new target can sit below
/// `P[A_i, V]`; the entry then keeps the spend it holds.
fn additive_charge(
    provenance: &ProvenanceTable,
    analyst: AnalystId,
    view: &str,
    global_target: f64,
    local_epsilon: f64,
) -> std::result::Result<(f64, f64, f64), RejectReason> {
    let prev_entry = provenance.entry(analyst, view);
    let new_entry = global_target
        .min(prev_entry + local_epsilon)
        .max(prev_entry);
    let charged = new_entry - prev_entry;
    provenance.check_additive(analyst, view, charged)?;
    Ok((prev_entry, new_entry, charged))
}

/// The answer `local` gives to a resolved request.
fn answered(
    resolved: &ResolvedRequest<'_>,
    local: &BudgetedSynopsis,
    epsilon_charged: f64,
    from_cache: bool,
) -> AnsweredQuery {
    AnsweredQuery {
        value: local.synopsis.answer(&resolved.linear),
        view: Some(resolved.view.name.clone()),
        epsilon_charged,
        noise_variance: local.synopsis.answer_variance(&resolved.linear),
        from_cache,
        // Under carry-forward a cached synopsis may lag the current epoch
        // (bounded staleness); stale-beyond-bound entries were invalidated
        // at the seal, so whatever is cached is servable.
        epoch: local.epoch,
    }
}

/// The accuracy→ε searches one grouped request has run, keyed by their
/// exact input bits. `delta`, the table budget and the translation
/// precision are fixed per system, so each search is a pure function of
/// its key: a repeat reuses the first result bit for bit and runs (and
/// counts) nothing. Scalar requests pass none: they run each search at
/// most once anyway.
#[derive(Default)]
struct TranslationMemo {
    /// Vanilla search (Def. 9): `(per-bin target, sensitivity)` → the
    /// mechanism it calibrated, or the refusal.
    vanilla: HashMap<(u64, u64), std::result::Result<AnalyticGaussian, RejectReason>>,
    /// Friction-aware search (Eq. 3): `(per-bin target, global variance,
    /// sensitivity)` → the growth epsilon, or the refusal.
    friction: HashMap<(u64, u64, u64), std::result::Result<f64, RejectReason>>,
}

/// Runs `search` unless `memo` already holds its result for `key`.
fn memoised<K: Hash + Eq, V: Clone>(
    memo: Option<&mut HashMap<K, V>>,
    key: K,
    search: impl FnOnce() -> V,
) -> V {
    match memo {
        Some(memo) => memo.entry(key).or_insert_with(search).clone(),
        None => search(),
    }
}

impl DProvDb {
    /// Builds the system: computes constraints from the configuration,
    /// initialises the provenance table and materialises every view's exact
    /// histogram (the "setup time" of Tables 1/3).
    pub fn new(
        db: Database,
        catalog: ViewCatalog,
        registry: AnalystRegistry,
        config: SystemConfig,
        mechanism: MechanismKind,
    ) -> Result<Self> {
        config.validate_for_dataset(db.total_rows())?;

        let setup_start = Instant::now();

        let row_constraints = analyst_constraints(&config, &registry)?;
        let psi_p = config.total_epsilon.value();
        let mut provenance = ProvenanceTable::new(psi_p);
        for (analyst, constraint) in registry.ids().into_iter().zip(row_constraints) {
            provenance.add_analyst(analyst, constraint);
        }
        // Definition 12 (water-filling): every view constraint is ψ_P.
        for view in catalog.views() {
            provenance.add_view(&view.name, psi_p);
        }

        // Ingest the database into the columnar execution layer, then
        // materialise the whole view catalog through it: every view over
        // one base table shares a single pass over its shards.
        let exec = ColumnarExecutor::ingest(&db, &ExecConfig::default());
        let metrics = MetricsRegistry::new();
        let mut synopses = SynopsisManager::new(config.delta);
        synopses.set_metrics(metrics.clone());
        synopses.register_views(&exec, catalog.views())?;

        let view_names: Vec<String> = catalog.views().iter().map(|v| v.name.clone()).collect();
        let admission = AdmissionControl::new(registry.len(), &view_names);

        let setup_time = setup_start.elapsed();
        let rng = DpRng::seed_from_u64(config.seed);
        let per_analyst_answered = (0..registry.len()).map(|_| AtomicUsize::new(0)).collect();
        let tight_accountant = make_accountant(config.composition, config.delta.value());

        let view_index = view_names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i))
            .collect();

        let system = DProvDb {
            config,
            mechanism,
            db: RwLock::new(db),
            exec,
            catalog,
            registry,
            provenance: Mutex::new(provenance),
            synopses,
            tight_accountant: Mutex::new(tight_accountant),
            admission,
            rng: Mutex::new(rng),
            setup_time,
            per_analyst_answered,
            recorder: None,
            commit_seq: AtomicU64::new(0),
            commit_gate: RwLock::new(()),
            delta_log: Mutex::new(UpdateLog::new()),
            epoch_gate: RwLock::new(()),
            metrics,
            view_index,
        };
        system.publish_budget_matrix();
        Ok(system)
    }

    /// Replaces the observability registry (enabled by default; pass
    /// [`MetricsRegistry::disabled`] to count without timing or tracing).
    /// Must be called before the system is shared (hence `&mut self`),
    /// like [`Self::set_recorder`]: [`Self::stats`] reads its counts from
    /// the installed registry, so outcomes counted before the swap are not
    /// carried over. The budget-gauge matrix is re-registered and
    /// re-published from the current provenance state.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.synopses.set_metrics(metrics.clone());
        self.metrics = metrics;
        self.publish_budget_matrix();
    }

    /// The observability registry. Clone it into any layer that should
    /// record into the same set of metrics.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registers the per-(analyst, view) budget-gauge matrix and seeds
    /// every cell from the current provenance state.
    fn publish_budget_matrix(&self) {
        self.metrics.register_budget_matrix(
            self.registry
                .analysts()
                .iter()
                .map(|a| a.name.clone())
                .collect(),
            self.catalog
                .views()
                .iter()
                .map(|v| v.name.clone())
                .collect(),
        );
        let provenance = self.lock_provenance();
        for analyst in self.registry.ids() {
            for view in self.catalog.views() {
                self.observe_budget(&provenance, analyst, &view.name);
            }
        }
    }

    /// Publishes one (analyst, view) budget gauge from the provenance
    /// state the caller already holds locked. Pure reads plus relaxed
    /// atomic stores — never mutates admission state.
    fn observe_budget(&self, provenance: &ProvenanceTable, analyst: AnalystId, view: &str) {
        let Some(&view_idx) = self.view_index.get(view) else {
            return;
        };
        let entry = provenance.entry(analyst, view);
        // Headroom for this cell: the analyst's remaining row budget
        // capped by the view column's remaining room under the
        // mechanism's accounting (sum for vanilla, max for additive).
        let column_spent = match self.mechanism {
            MechanismKind::Vanilla => provenance.column_sum(view),
            MechanismKind::AdditiveGaussian => provenance.column_max(view),
        };
        let column_headroom = provenance.col_constraint(view) - column_spent;
        let remaining = provenance
            .row_remaining(analyst)
            .min(column_headroom)
            .max(0.0);
        self.metrics
            .set_budget(analyst.0, view_idx, entry, remaining);
    }

    /// Attaches the durable-commit recorder. Must be called before the
    /// system is shared (hence `&mut self`), and — when recovering — after
    /// [`Self::import_durable_state`] / [`Self::replay_admission`], so replay
    /// never echoes back into the write-ahead ledger.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// The next commit sequence number to be assigned.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn next_commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::SeqCst)
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The mechanism the system runs.
    #[must_use]
    pub fn mechanism(&self) -> MechanismKind {
        self.mechanism
    }

    /// The analyst registry.
    #[must_use]
    pub fn registry(&self) -> &AnalystRegistry {
        &self.registry
    }

    /// Runs `f` against the current relational instance — the tables as of
    /// the last sealed epoch — under the read side of the epoch-versioned
    /// database, so a seal waits for it. The closure shape keeps the lock
    /// scoped to the call. It is for reading rows (tests and tools); a
    /// schema alone is read without a lock from [`Self::exec`]
    /// (`ColumnarExecutor::schema`), which is how queries are resolved.
    pub fn with_database<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        let db = self.db.read().expect("db lock poisoned");
        f(&db)
    }

    /// A consistent snapshot of the privacy provenance table. Cloning keeps
    /// the accessor re-entrant (callers may combine it freely with other
    /// accessors that lock internally); the matrix is small — one `f64` per
    /// (analyst, view) pair.
    #[must_use]
    pub fn provenance(&self) -> ProvenanceTable {
        self.lock_provenance().clone()
    }

    /// The per-analyst privacy-loss ledger, derived from a consistent
    /// snapshot of the provenance table: each analyst's row total and
    /// release count (see `MultiAnalystLedger::derive`).
    #[must_use]
    pub fn ledger(&self) -> MultiAnalystLedger {
        MultiAnalystLedger::derive(&self.lock_provenance(), self.config.delta)
    }

    /// One analyst's row constraint ψ_Ai and row total `(constraint,
    /// consumed)`, read under one provenance lock without cloning the
    /// table. An admission holds that lock across its journal append, so
    /// this read waits behind an in-flight append; the wait is what keeps
    /// the pair consistent with every charge already acknowledged.
    #[must_use]
    pub fn row_budget(&self, analyst: AnalystId) -> (f64, f64) {
        let provenance = self.lock_provenance();
        (
            provenance.row_constraint(analyst),
            provenance.row_total(analyst),
        )
    }

    fn lock_provenance(&self) -> MutexGuard<'_, ProvenanceTable> {
        self.provenance.lock().expect("provenance lock poisoned")
    }

    /// The overall privacy loss of all data accesses under the configured
    /// composition method (Appendix A). With `CompositionMethod::Sequential`
    /// this matches the provenance-table accounting; Rényi/zCDP give a
    /// tighter bound over long runs. Reporting only — constraint checks use
    /// the provenance table.
    #[must_use]
    pub fn tight_accounting(&self) -> Budget {
        self.tight_accountant
            .lock()
            .expect("accountant lock poisoned")
            .total()
    }

    /// Runtime statistics: the setup time plus the registry's outcome
    /// counters.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        let count = |id| self.metrics.counter(id) as usize;
        SystemStats {
            setup_time: self.setup_time,
            answered: count(CounterId::QueriesAnswered),
            rejected: count(CounterId::QueriesRejected),
            cache_hits: count(CounterId::CacheHits),
        }
    }

    /// The exact (non-private) answer to a scalar query — only used by the
    /// evaluation harness for relative-error measurements, never exposed to
    /// analysts. Runs on the columnar executor (vectorised kernels,
    /// zone-map pruning); a GROUP BY query is refused before anything is
    /// scanned (use [`Self::true_group_by`]).
    pub fn true_answer(&self, query: &Query) -> Result<f64> {
        if !query.group_by.is_empty() {
            return Err(CoreError::Engine(EngineError::InvalidQuery(
                "true_answer requires a scalar query".to_owned(),
            )));
        }
        Ok(self.true_answers(std::slice::from_ref(query))?[0])
    }

    /// Exact answers to a whole batch of scalar queries in a **single
    /// shared scan** per base table (the `dprov-exec` batch path): `B`
    /// same-table queries cost 1 scan instead of `B`. Answers are
    /// bit-identical to calling [`Self::true_answer`] per query.
    pub fn true_answers(&self, queries: &[Query]) -> Result<Vec<f64>> {
        Ok(self.true_answers_epoch(queries)?.0)
    }

    /// Like [`Self::true_answers`], but also reports the update epoch the
    /// audit ran against — the whole batch is evaluated under one epoch
    /// gate acquisition, so every answer reflects exactly that epoch.
    pub(crate) fn true_answers_epoch(&self, queries: &[Query]) -> Result<(Vec<f64>, u64)> {
        let _epoch_gate = self.epoch_gate.read().expect("epoch gate poisoned");
        let (answers, scan_ns) = self
            .exec
            .execute_batch_timed(queries)
            .map_err(CoreError::Engine)?;
        // Scan busy time, recorded exactly once per batch.
        self.metrics.observe(HistId::ScanTime, scan_ns);
        Ok((answers, self.synopses.current_epoch()))
    }

    /// The columnar execution layer (shard/batch diagnostics, direct batch
    /// evaluation).
    #[must_use]
    pub fn exec(&self) -> &ColumnarExecutor {
        &self.exec
    }

    /// Counters of the columnar execution layer: scans, queries, batches
    /// and the scans-per-query amortisation ratio.
    #[must_use]
    pub fn exec_stats(&self) -> ExecStats {
        self.exec.stats()
    }

    /// Per-analyst outcomes for the fairness metrics.
    #[must_use]
    pub fn fairness_outcomes(&self) -> Vec<AnalystOutcome> {
        let provenance = self.lock_provenance();
        self.registry
            .analysts()
            .iter()
            .map(|a| AnalystOutcome {
                privilege: a.privilege.level(),
                answered: self.per_analyst_answered[a.id.0].load(Ordering::Relaxed),
                consumed_epsilon: provenance.row_total(a.id),
            })
            .collect()
    }

    /// The nDCFG fairness score of the answered workload so far.
    #[must_use]
    pub fn ndcfg(&self) -> f64 {
        fairness::ndcfg(&self.fairness_outcomes())
    }

    /// Number of queries answered to each analyst, indexed by analyst id.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn answered_per_analyst(&self) -> Vec<usize> {
        self.per_analyst_answered
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Submits a query on behalf of an analyst (Algorithm 1, lines 5–14).
    ///
    /// Legacy single-threaded entry point; forwards to the shared path
    /// using the system-wide RNG.
    pub fn submit(&mut self, analyst: AnalystId, request: &QueryRequest) -> Result<QueryOutcome> {
        self.submit_shared(analyst, request)
    }

    /// Shared-reference submission using the system-wide RNG (serialises
    /// noise generation on one generator; concurrent callers should prefer
    /// [`Self::submit_with_rng`] with per-session streams).
    pub fn submit_shared(
        &self,
        analyst: AnalystId,
        request: &QueryRequest,
    ) -> Result<QueryOutcome> {
        let mut rng = self.rng.lock().expect("rng lock poisoned");
        self.submit_with_rng(analyst, request, &mut rng)
    }

    /// Submits a query on behalf of an analyst using a caller-supplied
    /// noise generator. Safe to call concurrently from many threads; the
    /// admission locks guarantee no constraint is ever overspent.
    pub fn submit_with_rng(
        &self,
        analyst: AnalystId,
        request: &QueryRequest,
        rng: &mut DpRng,
    ) -> Result<QueryOutcome> {
        self.submit_scalar(analyst, request, Some(rng), Locking::Wait)
            .expect("a waiting submission never gives up")
    }

    /// [`Self::submit_with_rng`] as a probe that does not wait for another
    /// request: the epoch gate, the entry lock and the commit gate are only
    /// tried. It returns `None` — having charged, drawn, cached and
    /// journalled nothing, and recorded no outcome — when one of them is
    /// held, when `resolve` refuses the request, and, with no `rng`, for
    /// anything but a cache hit. Otherwise its outcome, its records and the
    /// generator's position are exactly those `submit_with_rng` would have
    /// produced on that generator. Two locks are taken as usual, because
    /// another admission holds each only for part of its own work: an
    /// additive admission's view lock (the rest of one admission on the
    /// same view) and the provenance lock (one commit and its journal
    /// append).
    pub fn try_submit_with_rng(
        &self,
        analyst: AnalystId,
        request: &QueryRequest,
        rng: Option<&mut DpRng>,
    ) -> Option<Result<QueryOutcome>> {
        self.submit_scalar(analyst, request, rng, Locking::Try)
    }

    /// The one scalar submission body: resolve once, then the admission.
    fn submit_scalar(
        &self,
        analyst: AnalystId,
        request: &QueryRequest,
        rng: Option<&mut DpRng>,
        locking: Locking,
    ) -> Option<Result<QueryOutcome>> {
        if let Err(e) = self.registry.get(analyst) {
            return Some(Err(e));
        }
        // Hold the epoch gate for the whole execution: a seal waits for
        // this answer and this answer never mixes two epochs. `resolve`
        // reads the schema from the executor and takes no lock.
        let _epoch_gate = locking.read(&self.epoch_gate)?;
        let start = self.metrics.start();
        let outcome = match self.resolve(request) {
            Ok(resolved) => self.admit(analyst, resolved, rng, None, locking)?,
            Err(_) if locking == Locking::Try => return None,
            Err(reason) => Ok(QueryOutcome::Rejected { reason }),
        };
        self.observe_outcome(analyst, &outcome);
        if let Some(start) = start {
            self.metrics
                .observe_duration(HistId::Execute, start.elapsed());
        }
        Some(outcome)
    }

    /// Counts one per-query outcome: the registry's outcome counters (the
    /// runtime stats read them) and the analyst's answered count. Shared
    /// between the scalar submission path and the grouped path, which calls
    /// it once per group cell so grouped stats equal the per-group
    /// oracle's. Reads + relaxed atomics only; no lock, no RNG.
    fn observe_outcome(&self, analyst: AnalystId, outcome: &Result<QueryOutcome>) {
        if let Ok(outcome) = outcome {
            match outcome {
                QueryOutcome::Answered(a) => {
                    self.per_analyst_answered[analyst.0].fetch_add(1, Ordering::Relaxed);
                    self.metrics.incr(CounterId::QueriesAnswered);
                    if a.from_cache {
                        self.metrics.incr(CounterId::CacheHits);
                        // Bounded staleness under `CarryForward`: a cache
                        // hit whose synopsis predates the current epoch is a
                        // stale serve.
                        let current = self.synopses.current_epoch();
                        if a.epoch < current {
                            self.metrics.incr(CounterId::StaleServes);
                            self.metrics
                                .observe(HistId::EpochStaleness, current - a.epoch);
                        }
                    } else {
                        self.metrics.incr(CounterId::CacheMisses);
                    }
                }
                QueryOutcome::Rejected { .. } => {
                    self.metrics.incr(CounterId::QueriesRejected);
                }
            }
        }
    }

    /// Resolves a request: selects the view, transforms the query, and
    /// derives the per-bin accuracy target. Returns `Err(reason)` for
    /// rejections that should not abort the run. The schema comes from the
    /// columnar executor (fixed across epochs), so this takes no lock.
    fn resolve(
        &self,
        request: &QueryRequest,
    ) -> std::result::Result<ResolvedRequest<'_>, RejectReason> {
        let (view, linear) = self
            .exec
            .schema(&request.query.table)
            .and_then(|schema| self.catalog.select(&request.query, schema))
            .map_err(|_| RejectReason::NotAnswerable)?;
        resolve_target(view, linear, request.mode, |view, epsilon| {
            self.synopses.calibrate(view, epsilon).ok()
        })
    }

    /// Answers from an existing (analyst, view) synopsis if it is accurate
    /// enough. The variance check and the answer evaluation both happen
    /// under the shard read guard (`with_local`), so the hot path never
    /// clones the synopsis counts.
    fn try_cache(
        &self,
        analyst: AnalystId,
        resolved: &ResolvedRequest<'_>,
    ) -> Option<AnsweredQuery> {
        self.synopses
            .with_local(analyst.0, &resolved.view.name, |local| {
                (local.synopsis.per_bin_variance <= resolved.per_bin_target)
                    .then(|| answered(resolved, local, 0.0, true))
            })
            .flatten()
    }

    /// Translates a per-bin variance target into the minimal epsilon, using
    /// the table constraint as the search range (Definition 9), and returns
    /// the mechanism the search calibrated there. With a memo, runs once
    /// per distinct key.
    fn translate_vanilla(
        &self,
        per_bin_target: f64,
        sensitivity: Sensitivity,
        memo: Option<&mut TranslationMemo>,
    ) -> std::result::Result<AnalyticGaussian, RejectReason> {
        let key = (per_bin_target.to_bits(), sensitivity.value().to_bits());
        memoised(memo.map(|m| &mut m.vanilla), key, || {
            self.metrics.incr(CounterId::Translations);
            translate_variance_to_epsilon(
                per_bin_target,
                self.config.delta,
                sensitivity,
                self.config.total_epsilon,
                self.config.translation_precision,
            )
            .map(|t| t.mechanism)
            .map_err(|_| RejectReason::AccuracyUnreachable)
        })
    }

    /// Friction-aware translation (Eq. 3): the epsilon by which a global
    /// synopsis of per-bin variance `global_variance` must grow to reach
    /// `per_bin_target`. The delta synopsis may be noisier than the
    /// request because it will be combined with the existing one. With a
    /// memo, runs once per distinct key.
    fn translate_friction(
        &self,
        per_bin_target: f64,
        global_variance: f64,
        sensitivity: Sensitivity,
        memo: Option<&mut TranslationMemo>,
    ) -> std::result::Result<f64, RejectReason> {
        let key = (
            per_bin_target.to_bits(),
            global_variance.to_bits(),
            sensitivity.value().to_bits(),
        );
        memoised(memo.map(|m| &mut m.friction), key, || {
            self.metrics.incr(CounterId::Translations);
            FrictionAwareTranslation::new(
                self.config.delta,
                sensitivity,
                self.config.translation_precision,
            )
            .translate(
                per_bin_target,
                Some(global_variance),
                self.config.total_epsilon,
            )
            .map(|t| t.epsilon.value())
            .map_err(|_| RejectReason::AccuracyUnreachable)
        })
    }

    /// Persists one admission record — the charge plus the data access it
    /// makes, if any — assigns its sequence number and counts the access in
    /// the tight accountant. Must be called with the provenance lock held,
    /// *before* the in-memory charge is applied, so the accountant composes
    /// in ledger order; an `Err` means nothing was persisted or counted and
    /// the caller must abort the submission without mutating memory.
    fn record_admission(
        &self,
        analyst: AnalystId,
        view: &str,
        prev_entry: f64,
        new_entry: f64,
        charged: f64,
        access: Option<DataAccess>,
    ) -> Result<u64> {
        let seq = self.commit_seq.fetch_add(1, Ordering::SeqCst);
        if let Some(recorder) = &self.recorder {
            let commit = CommitRecord {
                seq,
                analyst,
                view: view.to_owned(),
                mechanism: self.mechanism,
                prev_entry,
                new_entry,
                charged,
            };
            recorder
                .record_admission(&commit, access.as_ref())
                .map_err(CoreError::Storage)?;
        }
        if let Some(access) = access {
            self.count_access(&access);
        }
        Ok(seq)
    }

    /// Composes one data access into the tight accountant.
    fn count_access(&self, access: &DataAccess) {
        let mut accountant = self
            .tight_accountant
            .lock()
            .expect("accountant lock poisoned");
        self.compose(accountant.as_mut(), access);
    }

    fn compose(&self, accountant: &mut dyn Accountant, access: &DataAccess) {
        accountant.record(
            Budget::from_parts(Epsilon::unchecked(access.epsilon), self.config.delta),
            access.sigma,
            access.sensitivity,
        );
    }

    /// Appends a tombstone voiding commit `seq` after its release failed
    /// and the in-memory charge was rolled back. Best-effort: losing the
    /// tombstone only makes recovery over-count the spend.
    fn record_rollback(&self, seq: u64) {
        if let Some(recorder) = &self.recorder {
            let _ = recorder.record_rollback(seq);
        }
    }

    /// Algorithm 1's post-resolve tail (lines 7–13), written once for both
    /// mechanisms, both request shapes and both [`Locking`] policies:
    /// [`Self::submit_scalar`] calls it for a scalar request,
    /// [`Self::answer_group_by_with_rng`] once per group cell with one
    /// shared `memo` (scalar requests pass none), so a grouped answer is
    /// bit-identical to per-group scalar submissions.
    ///
    /// 1. Entry lock, then the cache probe: an (analyst, view) synopsis
    ///    that meets the target answers for free. Without a generator the
    ///    admission stops here.
    /// 2. Algorithm 4 takes the view lock; then the commit gate, so durable
    ///    snapshots (which take its write side) never observe a commit that
    ///    is in the write-ahead ledger but only half-applied in memory.
    /// 3. The [`Plan`] (`privacyTranslate`): Algorithm 2 translates the
    ///    target to ε; Algorithm 4 reads the global synopsis, translates
    ///    against it and calibrates the growth it will release.
    /// 4. One provenance critical section checks the plan's charge
    ///    (`constraintCheck`), journals it with its data access and commits
    ///    it, so concurrent admissions never jointly overspend and the
    ///    ledger's record order is the commit order.
    /// 5. The plan's release (`run`), outside the provenance lock: a fresh
    ///    synopsis (Algorithm 2), or global growth plus a local synopsis
    ///    (Algorithm 4). A release that fails restores the journalled
    ///    entry and voids the record with a tombstone.
    ///
    /// `None` only under [`Locking::Try`] or without a generator, before
    /// anything is charged, drawn or cached.
    fn admit(
        &self,
        analyst: AnalystId,
        resolved: ResolvedRequest<'_>,
        rng: Option<&mut DpRng>,
        memo: Option<&mut TranslationMemo>,
        locking: Locking,
    ) -> Option<Result<QueryOutcome>> {
        let view = resolved.view.name.as_str();
        // Serialise competing submissions for this provenance entry: the
        // second of two identical queries waits here and is then answered
        // from the first one's cached synopsis for free.
        let _entry = match locking {
            Locking::Wait => Some(self.admission.lock_entry(analyst.0, view)),
            Locking::Try => self.admission.try_lock_entry(analyst.0, view),
        }?;
        if let Some(answer) = self.try_cache(analyst, &resolved) {
            return Some(Ok(QueryOutcome::Answered(answer)));
        }
        let rng = rng?;
        // The additive path reads the hidden global synopsis, translates
        // against it and then grows it; the per-view lock makes that
        // read-translate-grow sequence atomic (entry lock first, view lock
        // second — fixed order, deadlock-free). A vanilla admission takes
        // no view lock. A `Try` admission waits for it too: its holder is
        // an admission on the same view that already holds its own entry,
        // so it finishes without waiting on this one, and every admission
        // on a view takes it — giving up here would send most concurrent
        // commits on one view to the queue.
        let _view = (self.mechanism == MechanismKind::AdditiveGaussian)
            .then(|| self.admission.lock_view(view));
        let _commit_gate = locking.read(&self.commit_gate)?;
        Some(self.charge_and_release(analyst, &resolved, rng, memo))
    }

    /// Steps 3–5 of [`Self::admit`], under its locks: plan, one provenance
    /// critical section, release, rollback.
    fn charge_and_release(
        &self,
        analyst: AnalystId,
        resolved: &ResolvedRequest<'_>,
        rng: &mut DpRng,
        memo: Option<&mut TranslationMemo>,
    ) -> Result<QueryOutcome> {
        let view = resolved.view.name.as_str();
        let plan = match self.plan(analyst, resolved, memo)? {
            Ok(plan) => plan,
            Err(reason) => return Ok(QueryOutcome::Rejected { reason }),
        };
        let access = plan.access(resolved.view.sensitivity());
        let (seq, prev_entry, charged) = {
            let mut provenance = self.lock_provenance();
            let (prev_entry, new_entry, charged) = match plan.charge(&provenance, analyst, view) {
                Ok(charge) => charge,
                Err(reason) => return Ok(QueryOutcome::Rejected { reason }),
            };
            let seq =
                self.record_admission(analyst, view, prev_entry, new_entry, charged, access)?;
            provenance.commit(analyst, view, new_entry);
            self.observe_budget(&provenance, analyst, view);
            (seq, prev_entry, charged)
        };

        match self.release(analyst, &plan, resolved, charged, rng) {
            Ok(answer) => Ok(QueryOutcome::Answered(answer)),
            Err(e) => {
                {
                    let mut provenance = self.lock_provenance();
                    provenance.revert(analyst, view, prev_entry);
                    self.observe_budget(&provenance, analyst, view);
                }
                self.record_rollback(seq);
                Err(e)
            }
        }
    }

    /// The mechanism-specific pricing of one admission, decided before the
    /// provenance critical section. `Ok(Err(reason))` refuses the request
    /// with nothing charged.
    fn plan(
        &self,
        analyst: AnalystId,
        resolved: &ResolvedRequest<'_>,
        mut memo: Option<&mut TranslationMemo>,
    ) -> Result<std::result::Result<Plan, RejectReason>> {
        // The mechanism the request has calibrated by then — at the
        // requested epsilon, or at the nominal epsilon by the translation
        // (Definition 9) — which the release reuses wherever it needs that
        // epsilon.
        let translate = |memo: Option<&mut TranslationMemo>| match resolved.requested {
            Some(requested) => Ok(requested),
            None => {
                self.translate_vanilla(resolved.per_bin_target, resolved.view.sensitivity(), memo)
            }
        };
        if self.mechanism == MechanismKind::Vanilla {
            return Ok(translate(memo).map(|mechanism| Plan::Vanilla { mechanism }));
        }
        let view = resolved.view.name.as_str();
        let global = self.synopses.global_state(view)?;
        let known = match translate(memo.as_deref_mut()) {
            Ok(known) => known,
            Err(reason) => return Ok(Err(reason)),
        };
        let epsilon = known.budget().epsilon.value();
        // Algorithm 4's translation: the global target budget and the
        // analyst's local budget.
        let global_target = match global {
            None => epsilon,
            // Privacy-oriented mode follows Algorithm 4 literally.
            Some((eps_g, _)) if resolved.requested.is_some() => eps_g.max(epsilon),
            Some((eps_g, v_g)) if v_g <= resolved.per_bin_target => eps_g,
            Some((eps_g, v_g)) => match self.translate_friction(
                resolved.per_bin_target,
                v_g,
                resolved.view.sensitivity(),
                memo,
            ) {
                Ok(growth) => eps_g + growth,
                Err(reason) => return Ok(Err(reason)),
            },
        };
        let local_epsilon = epsilon.min(global_target);

        // The global growth this admission releases (Algorithm 4, lines
        // 2–10). Its mechanism is calibrated here, outside every lock, and
        // only once a pre-check shows the charge fits, so a refused request
        // calibrates nothing.
        let growth_epsilon = match global {
            None => Some(global_target),
            Some((eps_g, _)) if eps_g + 1e-12 >= global_target => None,
            Some((eps_g, _)) => Some(global_target - eps_g),
        };
        let growth = match growth_epsilon {
            Some(growth_epsilon) => {
                if let Err(reason) = additive_charge(
                    &self.lock_provenance(),
                    analyst,
                    view,
                    global_target,
                    local_epsilon,
                ) {
                    return Ok(Err(reason));
                }
                Some(self.synopses.mechanism(view, growth_epsilon, Some(known))?)
            }
            None => None,
        };
        Ok(Ok(Plan::Additive {
            global_target,
            local_epsilon,
            known,
            growth,
        }))
    }

    /// Runs the plan's release, stores the (analyst, view) synopsis it
    /// makes and answers from it: an independent synopsis drawn from the
    /// exact histogram (Algorithm 2), or the global synopsis grown with the
    /// journalled mechanism and a local synopsis derived from it by
    /// additive GM (Algorithm 4).
    fn release(
        &self,
        analyst: AnalystId,
        plan: &Plan,
        resolved: &ResolvedRequest<'_>,
        charged: f64,
        rng: &mut DpRng,
    ) -> Result<AnsweredQuery> {
        let view = resolved.view.name.as_str();
        match *plan {
            Plan::Vanilla { mechanism } => {
                let epsilon = mechanism.budget().epsilon.value();
                let local = BudgetedSynopsis {
                    synopsis: self
                        .synopses
                        .fresh_synopsis(view, epsilon, Some(mechanism), rng)?,
                    epsilon,
                    epoch: self.synopses.current_epoch(),
                };
                let answer = answered(resolved, &local, charged, false);
                self.synopses.store_local(analyst.0, view, local);
                Ok(answer)
            }
            Plan::Additive {
                global_target,
                local_epsilon,
                known,
                growth,
                ..
            } => {
                if let Some(growth) = growth {
                    self.synopses
                        .grow_global(view, global_target, growth, rng)?;
                }
                let local =
                    self.synopses
                        .derive_local(analyst.0, view, local_epsilon, Some(known), rng)?;
                Ok(answered(resolved, &local, charged, false))
            }
        }
    }

    // ----- grouped (GROUP BY) answering -----

    /// Answers a grouped query with the system-wide RNG (the grouped
    /// analogue of [`Self::submit_shared`]). Concurrent callers should
    /// prefer [`Self::answer_group_by_with_rng`] with per-session streams.
    pub fn answer_group_by(
        &self,
        analyst: AnalystId,
        request: &GroupedRequest,
    ) -> Result<GroupedOutcome> {
        let mut rng = self.rng.lock().expect("rng lock poisoned");
        self.answer_group_by_with_rng(analyst, request, &mut rng)
    }

    /// Answers a grouped query: one outcome per group cell in canonical
    /// enumeration order, each priced and admitted through the normal
    /// provenance path.
    ///
    /// **Oracle equivalence.** Answers, noise draws, budget charges and
    /// runtime stats are bit-identical to submitting the per-group scalar
    /// queries ([`GroupByQuery::scalar_queries`]) one by one via
    /// [`Self::submit_with_rng`] with the same RNG: resolution walks the
    /// selected view's histogram once and replays the exact per-group
    /// coefficient lists `transform` would build, and each cell then runs
    /// the one admission pipeline (`admit`) the scalar path runs. The one
    /// difference is DP arithmetic: the cells share one translation memo,
    /// so a search whose exact inputs an earlier cell already searched
    /// reuses that result instead of running again, and the
    /// `dp.translations` counter is at most the oracle's. The whole grouped
    /// answer executes under **one** epoch-gate acquisition, so it never
    /// straddles an update epoch.
    ///
    /// Structurally invalid grouped queries (unknown table, unknown or
    /// duplicate grouping attribute — cases where the oracle could not
    /// even enumerate its queries) return `Err`; everything else surfaces
    /// as per-cell [`QueryOutcome::Rejected`].
    pub fn answer_group_by_with_rng(
        &self,
        analyst: AnalystId,
        request: &GroupedRequest,
        rng: &mut DpRng,
    ) -> Result<GroupedOutcome> {
        self.registry.get(analyst)?;
        let _epoch_gate = self.epoch_gate.read().expect("epoch gate poisoned");
        let group_start = self.metrics.start();
        let (keys, cells) = self.resolve_grouped(request)?;
        let mut memo = TranslationMemo::default();
        let mut outcomes = Vec::with_capacity(cells.len());
        let mut released = 0u64;
        for cell in cells {
            let outcome = match cell {
                Ok(resolved) => self
                    .admit(analyst, resolved, Some(rng), Some(&mut memo), Locking::Wait)
                    .expect("a waiting admission never gives up"),
                Err(reason) => Ok(QueryOutcome::Rejected { reason }),
            };
            self.observe_outcome(analyst, &outcome);
            let outcome = outcome?;
            if outcome.is_answered() {
                released += 1;
            }
            outcomes.push(outcome);
        }
        self.metrics.incr(CounterId::GroupQueries);
        self.metrics.add(CounterId::GroupCellsReleased, released);
        self.metrics
            .observe(HistId::GroupSize, outcomes.len() as u64);
        if let Some(start) = group_start {
            self.metrics
                .observe_duration(HistId::GroupExecute, start.elapsed());
        }
        Ok(GroupedOutcome { keys, outcomes })
    }

    /// Resolves a grouped request into one per-cell resolution in
    /// canonical enumeration order, walking the selected view's cells
    /// **once**, in place, instead of once per group. Like [`Self::resolve`]
    /// it reads the schema from the columnar executor and takes no lock.
    ///
    /// Per-group results are bit-identical to calling [`Self::resolve`] on
    /// the per-group oracle queries: view selection is value-independent
    /// (answerability depends on attribute coverage and aggregate shape,
    /// never on the group key, so every group picks the view
    /// [`ViewCatalog::select_grouped`] ranks first, and it is chosen without
    /// transforming any cell's query), each view cell satisfies exactly one
    /// group's equality selection, and cells are visited in ascending flat
    /// order — the same order `transform` enumerates them per group. A SUM
    /// over a categorical attribute that selects any cell has no linear
    /// form, and every group is refused as not answerable.
    #[allow(clippy::type_complexity)]
    fn resolve_grouped(
        &self,
        request: &GroupedRequest,
    ) -> Result<(
        Vec<Vec<Value>>,
        Vec<std::result::Result<ResolvedRequest<'_>, RejectReason>>,
    )> {
        let query = &request.query;
        let schema = self.exec.schema(&query.table).map_err(CoreError::Engine)?;
        // Refuses an over-wide grouping before enumerating a key.
        let keys = query.group_keys(schema).map_err(CoreError::Engine)?;
        if keys.is_empty() {
            // An empty grouping domain has no representative cell; its
            // scalar query reports the domain error.
            query
                .group_query(schema, &vec![0; query.group_cols.len()])
                .map_err(CoreError::Engine)?;
        }
        let not_answerable = || (0..keys.len()).map(|_| Err(RejectReason::NotAnswerable));
        let Ok(view) = self.catalog.select_grouped(query, schema) else {
            // Not answerable over any view: every group is rejected,
            // exactly as the oracle would reject each scalar query.
            let cells = not_answerable().collect();
            return Ok((keys, cells));
        };

        // Each grouping attribute's position in the view and its domain
        // size: a cell's group is the row-major index of those coordinates.
        let group_dims: Vec<(usize, usize)> = query
            .group_cols
            .iter()
            .map(|g| {
                let position = view
                    .attributes
                    .iter()
                    .position(|a| a == g)
                    .expect("selected view covers the grouping attributes");
                Ok((position, schema.attribute(g)?.domain_size()))
            })
            .collect::<dprov_engine::Result<_>>()
            .map_err(CoreError::Engine)?;
        let mut coefficients: Vec<Vec<(usize, f64)>> = vec![Vec::new(); keys.len()];
        let view_cells = for_each_coefficient(
            &query.predicate,
            &query.aggregate,
            view,
            schema,
            |flat, cell, coeff| {
                let group = group_dims
                    .iter()
                    .fold(0, |group, &(position, size)| group * size + cell[position]);
                coefficients[group].push((flat, coeff));
            },
        )
        .map_err(CoreError::Engine)?;
        let Some(view_cells) = view_cells else {
            let cells = not_answerable().collect();
            return Ok((keys, cells));
        };

        // Per-group tail of `resolve`, with the privacy-mode calibration
        // hoisted: it depends only on the request and the view, so running
        // it once per request is bit-identical.
        let requested = match request.mode {
            SubmissionMode::Privacy { epsilon } => {
                self.synopses.calibrate(&view.name, epsilon).ok()
            }
            SubmissionMode::Accuracy { .. } => None,
        };
        let cells = coefficients
            .into_iter()
            .map(|coefficients| {
                let linear = LinearQuery {
                    coefficients,
                    view_cells,
                };
                resolve_target(view, linear, request.mode, |_, _| requested)
            })
            .collect();
        Ok((keys, cells))
    }

    /// Exact (non-private) per-group answers in canonical enumeration
    /// order — evaluation-harness only, like [`Self::true_answer`]. Runs
    /// on the columnar executor's grouped path (one shared pass for the
    /// whole group set).
    pub fn true_group_by(&self, query: &GroupByQuery) -> Result<Vec<f64>> {
        let _epoch_gate = self.epoch_gate.read().expect("epoch gate poisoned");
        let (answers, scan_ns) = self
            .exec
            .execute_group_by_timed(query)
            .map_err(CoreError::Engine)?;
        self.metrics.observe(HistId::ScanTime, scan_ns);
        Ok(answers)
    }

    // ----- dynamic data: epoch-versioned updates (see `dprov-delta`) -----

    /// The last sealed update epoch (0 = the immutable setup state).
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.synopses.current_epoch()
    }

    /// Number of validated update batches awaiting the next seal.
    #[must_use]
    pub fn pending_updates(&self) -> usize {
        self.lock_delta().pending.len()
    }

    fn lock_delta(&self) -> MutexGuard<'_, UpdateLog> {
        self.delta_log.lock().expect("delta log poisoned")
    }

    /// Submits one update batch: validates every row against the schema
    /// (and every delete's multiplicity against the logical table state),
    /// journals the encoded batch to the write-ahead ledger *before* it
    /// becomes pending in memory, and returns its batch sequence number.
    /// The batch takes effect at the next [`Self::seal_epoch`]; queries
    /// keep answering against the current epoch until then.
    pub fn apply_update(&self, batch: &UpdateBatch) -> Result<u64> {
        // Epoch-gate read: a concurrent seal is either fully applied or
        // not started when validation runs. Without it there is a window
        // (seal drained the pending log but has not yet applied the
        // batches to the tables) in which delete-multiplicity validation
        // would see neither the sealed batches nor their effects.
        let _epoch_gate = self.epoch_gate.read().expect("epoch gate poisoned");
        // Commit-gate read: the WAL append and the in-memory push are
        // atomic with respect to durable snapshots, like budget commits.
        let _commit_gate = self.commit_gate.read().expect("commit gate poisoned");
        let db = self.db.read().expect("db lock poisoned");
        let mut log = self.lock_delta();
        let encoded = log.encode_batch(&db, batch).map_err(CoreError::Delta)?;
        if let Some(recorder) = &self.recorder {
            recorder
                .record_update(&encoded)
                .map_err(CoreError::Storage)?;
        }
        let seq = encoded.seq;
        log.push_pending(encoded);
        Ok(seq)
    }

    /// Seals the pending update batches into the next epoch:
    ///
    /// 1. quiesces query execution (epoch-gate write: every in-flight
    ///    answer finishes against the old epoch, none straddles the seal);
    /// 2. journals the seal to the write-ahead ledger *before* applying;
    /// 3. applies the batches to the engine tables, appends the epoch's
    ///    immutable delta segments to the columnar shard sets (old shards
    ///    are never rewritten), and patches every affected view's exact
    ///    histogram from the delta rows alone (bit-identical to a full
    ///    rebuild);
    /// 4. invalidates cached noisy synopses per the configured
    ///    [`dprov_delta::EpochPolicy`] — the seal itself draws **no**
    ///    randomness and spends **no** budget; re-releases are bought
    ///    lazily by the next query through the normal admission path, so
    ///    the multi-analyst constraints keep holding across epochs.
    ///
    /// Sealing with no pending batches is allowed (an empty epoch).
    pub fn seal_epoch(&self) -> Result<EpochReport> {
        let _epoch_gate = self.epoch_gate.write().expect("epoch gate poisoned");
        let _commit_gate = self.commit_gate.read().expect("commit gate poisoned");
        let mut log = self.lock_delta();
        let epoch = log.current_epoch + 1;
        if let Some(recorder) = &self.recorder {
            recorder
                .record_epoch_seal(epoch, log.next_seq)
                .map_err(CoreError::Storage)?;
        }
        let sealed = log.seal();
        drop(log);
        self.apply_sealed(&sealed)
    }

    /// Applies one sealed epoch to the engine tables, the columnar shard
    /// sets and the synopsis state. Callers hold the epoch-gate write (or
    /// run single-threaded recovery).
    fn apply_sealed(&self, sealed: &SealedEpoch) -> Result<EpochReport> {
        let segments = {
            let db = self.db.read().expect("db lock poisoned");
            build_segments(&db, &sealed.batches)
        };
        {
            let mut db = self.db.write().expect("db lock poisoned");
            for batch in &sealed.batches {
                db.table_mut(&batch.table)
                    .map_err(CoreError::Engine)?
                    .apply_encoded_updates(&batch.inserts, &batch.deletes)
                    .map_err(CoreError::Engine)?;
            }
            db.set_epoch(sealed.epoch);
        }
        self.exec
            .append_epoch(sealed.epoch, &segments)
            .map_err(CoreError::Engine)?;

        let touched_tables = UpdateLog::touched_tables(&sealed.batches);
        let mut views_patched = Vec::new();
        for table in &touched_tables {
            let schema = self.exec.schema(table).map_err(CoreError::Engine)?.clone();
            for def in self.synopses.views_over_table(table) {
                self.synopses
                    .patch_exact(&def.name, &schema, &sealed.batches)?;
                views_patched.push(def.name.clone());
            }
        }
        let synopses_invalidated =
            self.synopses
                .apply_epoch(sealed.epoch, &views_patched, self.config.epoch_policy);
        Ok(EpochReport {
            epoch: sealed.epoch,
            batches: sealed.batches.len(),
            rows: sealed.batches.iter().map(EncodedBatch::len).sum(),
            views_patched,
            synopses_invalidated,
        })
    }

    /// Re-enqueues one journalled update batch during recovery (no
    /// recorder echo — attach the recorder only after replay). Validates
    /// the target table, the row arity and every cell's domain before the
    /// batch becomes pending.
    pub fn replay_update(&self, batch: EncodedBatch) -> Result<()> {
        self.check_batches([&batch])?;
        self.lock_delta().replay_pending(batch);
        Ok(())
    }

    /// Checks that every journalled batch targets a known table with rows
    /// of its arity whose every cell is an index inside its attribute's
    /// domain. A cell past the domain would panic the seal that applies
    /// it, or land in a neighbouring histogram bin.
    fn check_batches<'a>(&self, batches: impl IntoIterator<Item = &'a EncodedBatch>) -> Result<()> {
        let db = self.db.read().expect("db lock poisoned");
        for batch in batches {
            let table = db.table(&batch.table).map_err(CoreError::Engine)?;
            let attributes = table.schema().attributes();
            for row in batch.inserts.iter().chain(&batch.deletes) {
                if row.len() != attributes.len() {
                    return Err(CoreError::Engine(EngineError::ArityMismatch {
                        expected: attributes.len(),
                        found: row.len(),
                    }));
                }
                if let Some((attr, cell)) = attributes
                    .iter()
                    .zip(row)
                    .find(|(attr, &cell)| cell as usize >= attr.domain_size())
                {
                    return Err(CoreError::Engine(EngineError::ValueOutOfDomain {
                        attribute: attr.name.clone(),
                        value: format!("domain index {cell}"),
                    }));
                }
            }
        }
        Ok(())
    }

    /// Re-applies one journalled epoch seal during recovery: drains the
    /// replayed pending batches with `seq < through_seq` into the epoch
    /// and applies it exactly as the live seal did — deterministic
    /// integer work, so the recovered segments and histograms are
    /// bit-identical to the pre-crash state.
    pub fn replay_epoch_seal(&self, epoch: u64, through_seq: u64) -> Result<()> {
        let sealed = {
            let mut log = self.lock_delta();
            if epoch != log.current_epoch + 1 {
                return Err(CoreError::Storage(
                    crate::error::StorageError::IncompatibleState(format!(
                        "epoch seal {epoch} does not follow current epoch {}",
                        log.current_epoch
                    )),
                ));
            }
            let stragglers: Vec<EncodedBatch> = log
                .pending
                .iter()
                .filter(|b| b.seq >= through_seq)
                .cloned()
                .collect();
            log.pending.retain(|b| b.seq < through_seq);
            let mut sealed = log.seal();
            // Keep the journalled watermark (seal() stamps next_seq, which
            // may exceed it when stragglers were already replayed).
            sealed.through_seq = through_seq;
            if let Some(last) = log.sealed.last_mut() {
                last.through_seq = through_seq;
            }
            log.pending = stragglers;
            sealed
        };
        self.apply_sealed(&sealed)?;
        Ok(())
    }

    // ----- durable recovery support (see `crate::recorder`) -----

    /// Validates that a durable record references a registered analyst and
    /// view of *this* system.
    fn check_replay_target(&self, analyst: AnalystId, view: &str) -> Result<()> {
        self.registry.get(analyst)?;
        if self.catalog.view(view).is_err() {
            return Err(CoreError::Storage(
                crate::error::StorageError::IncompatibleState(format!(
                    "durable record references unregistered view {view}"
                )),
            ));
        }
        Ok(())
    }

    /// Refuses a durable provenance value that is non-finite or negative.
    /// A NaN entry makes every `spend + ε > ψ` comparison false, so every
    /// constraint check would pass; a negative one under-reports spend.
    fn check_replay_epsilon(what: &str, value: f64) -> Result<()> {
        if Epsilon::new(value).is_err() {
            return Err(CoreError::Storage(
                crate::error::StorageError::IncompatibleState(format!(
                    "durable {what} holds {value}"
                )),
            ));
        }
        Ok(())
    }

    /// Re-applies one journalled admission during recovery: unless a
    /// tombstone voided it, commits its post-commit entry (counting one
    /// release to the analyst); then counts its data access, voided or not
    /// — the live accountant counted it at commit time, so this errs in
    /// the safe direction. A record of another mechanism than the system's
    /// is refused before anything is applied. Does **not** echo into the
    /// recorder — attach the recorder only after replay.
    pub fn replay_admission(&self, admission: &Admission) -> Result<()> {
        let record = &admission.commit;
        if record.mechanism != self.mechanism {
            return Err(CoreError::Storage(
                crate::error::StorageError::IncompatibleState(format!(
                    "durable commit {} was charged by the {} mechanism, this system runs {}",
                    record.seq, record.mechanism, self.mechanism
                )),
            ));
        }
        self.check_replay_target(record.analyst, &record.view)?;
        let next_seq = record.seq.checked_add(1).ok_or_else(|| {
            CoreError::Storage(crate::error::StorageError::IncompatibleState(
                "durable commit has the last sequence number".to_owned(),
            ))
        })?;
        if !admission.voided {
            Self::check_replay_epsilon("commit entry", record.new_entry)?;
            Self::check_replay_epsilon("commit charge", record.charged)?;
            let mut provenance = self.lock_provenance();
            provenance.commit(record.analyst, &record.view, record.new_entry);
            self.observe_budget(&provenance, record.analyst, &record.view);
        }
        if let Some(access) = &admission.access {
            self.count_access(access);
        }
        self.commit_seq.fetch_max(next_seq, Ordering::SeqCst);
        Ok(())
    }

    /// Freezes the commit pipeline: blocks until no submission is between
    /// its write-ahead append and its last in-memory apply, and holds new
    /// commits off until the guard drops. Compaction holds this across
    /// snapshot *and* ledger truncation, so a commit can never land in the
    /// gap and be silently truncated away.
    #[must_use]
    pub fn freeze_commits(&self) -> CommitFreeze<'_> {
        CommitFreeze {
            _guard: self.commit_gate.write().expect("commit gate poisoned"),
        }
    }

    /// Caps the sealed delta history carried by future snapshots: merges
    /// every sealed epoch except the most recent `retain` into one
    /// baseline epoch (see
    /// [`dprov_delta::UpdateLog::compact_history`] — replaying the
    /// baseline is bit-identical to replaying the epochs it replaced).
    /// Returns the number of epochs merged away. Run it right before a
    /// snapshot export; it never changes the current epoch, the pending
    /// set or any answer.
    pub fn compact_delta_history(&self, retain: u64) -> usize {
        let mut delta = self.lock_delta();
        let watermark = delta.current_epoch.saturating_sub(retain);
        delta.compact_history(watermark)
    }

    /// Exports a consistent snapshot of every durably-relevant piece of
    /// state. Acquires the commit freeze internally; use
    /// [`Self::export_durable_state_frozen`] when the caller already holds
    /// it (the lock is not re-entrant).
    #[must_use]
    pub fn export_durable_state(&self) -> CoreState {
        let freeze = self.freeze_commits();
        self.export_durable_state_frozen(&freeze)
    }

    /// Exports the durable state under a caller-held commit freeze: every
    /// charge whose write-ahead record precedes the freeze is fully
    /// reflected in the result, which is what makes truncating the ledger
    /// while still holding the freeze safe.
    #[must_use]
    pub fn export_durable_state_frozen(&self, _freeze: &CommitFreeze<'_>) -> CoreState {
        let provenance = self.lock_provenance();
        let mut entries = Vec::new();
        for analyst in self.registry.ids() {
            for view in provenance.view_names() {
                let epsilon = provenance.entry(analyst, view);
                if epsilon != 0.0 {
                    entries.push(ProvenanceEntryState {
                        analyst,
                        view: view.clone(),
                        epsilon,
                    });
                }
            }
        }
        let releases = self
            .registry
            .ids()
            .into_iter()
            .map(|analyst| (analyst, provenance.releases(analyst)))
            .filter(|&(_, n)| n > 0)
            .collect();
        CoreState {
            next_seq: self.commit_seq.load(Ordering::SeqCst),
            provenance: entries,
            releases: ReleaseState::Counts(releases),
            tight: TightState::Accountant(
                self.tight_accountant
                    .lock()
                    .expect("accountant lock poisoned")
                    .export_state(),
            ),
            synopses: self.synopses.export_cache(),
            deltas: self.lock_delta().clone(),
        }
    }

    /// Restores a snapshot produced by [`Self::export_durable_state`] into
    /// a freshly constructed system (same database, catalog, registry and
    /// configuration). Call *before* attaching the recorder and before
    /// replaying the write-ahead suffix. Provenance targets, release
    /// counts, the tight accountant's state, the synopsis cache and the
    /// update batches are all checked before anything is applied, so a
    /// refused state leaves the system as it was. A version-1 or -2
    /// snapshot's access list is folded through the configured accountant;
    /// a version-1 to -3 snapshot's ledger section yields the release
    /// counts (each bucket's δ over the configured δ, its ε within 1e-9
    /// relative of the analyst's provenance row total) and is dropped.
    pub fn import_durable_state(&self, state: &CoreState) -> Result<()> {
        for entry in &state.provenance {
            self.check_replay_target(entry.analyst, &entry.view)?;
            Self::check_replay_epsilon("provenance entry", entry.epsilon)?;
        }
        let releases = match &state.releases {
            ReleaseState::Counts(counts) => counts.clone(),
            ReleaseState::LegacyLedger { buckets, releases } => {
                legacy_release_counts(buckets, *releases, &state.provenance, self.config.delta)?
            }
        };
        for (analyst, _) in &releases {
            self.registry.get(*analyst)?;
        }
        let mut tight = make_accountant(self.config.composition, self.config.delta.value());
        match &state.tight {
            TightState::Accountant(accountant) => tight.import_state(accountant)?,
            TightState::LegacyAccesses(accesses) => {
                for access in accesses {
                    self.compose(tight.as_mut(), access);
                }
            }
        }
        self.synopses
            .check_cache(&state.synopses, self.registry.len())?;
        let sealed = state.deltas.sealed.iter().flat_map(|s| &s.batches);
        self.check_batches(sealed.chain(&state.deltas.pending))?;
        // Re-apply the sealed epoch history first (deterministic integer
        // work — segments and patched histograms land bit-identical),
        // then restore the log verbatim (pending batches included) and
        // finally overlay the snapshot's synopsis cache, which reflects
        // the post-seal state.
        for sealed in &state.deltas.sealed {
            self.apply_sealed(sealed)?;
        }
        *self.lock_delta() = state.deltas.clone();
        {
            let mut provenance = self.lock_provenance();
            for entry in &state.provenance {
                provenance.set_entry(entry.analyst, &entry.view, entry.epsilon);
            }
            for (analyst, count) in releases {
                provenance.set_releases(analyst, count);
            }
        }
        *self
            .tight_accountant
            .lock()
            .expect("accountant lock poisoned") = tight;
        self.synopses
            .import_cache(&state.synopses, self.registry.len())?;
        self.commit_seq.fetch_max(state.next_seq, Ordering::SeqCst);
        // Re-seed the budget gauges from the imported provenance state.
        self.publish_budget_matrix();
        Ok(())
    }
}

impl QueryProcessor for DProvDb {
    fn name(&self) -> String {
        self.mechanism.label().to_owned()
    }

    fn submit(&mut self, analyst: AnalystId, request: &QueryRequest) -> Result<QueryOutcome> {
        DProvDb::submit(self, analyst, request)
    }

    fn cumulative_epsilon(&self) -> f64 {
        let provenance = self.lock_provenance();
        match self.mechanism {
            MechanismKind::Vanilla => provenance.total_sum(),
            MechanismKind::AdditiveGaussian => provenance.total_of_column_maxes(),
        }
    }

    fn analyst_epsilon(&self, analyst: AnalystId) -> f64 {
        self.lock_provenance().row_total(analyst)
    }

    fn num_analysts(&self) -> usize {
        self.registry.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_engine::query::Query;

    fn build(mechanism: MechanismKind, epsilon: f64) -> DProvDb {
        let db = adult_database(2_000, 1);
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        let mut registry = AnalystRegistry::new();
        registry.register("external", 1).unwrap();
        registry.register("internal", 4).unwrap();
        let config = SystemConfig::new(epsilon).unwrap().with_seed(7);
        DProvDb::new(db, catalog, registry, config, mechanism).unwrap()
    }

    fn range_request(lo: i64, hi: i64, variance: f64) -> QueryRequest {
        QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), variance)
    }

    #[test]
    fn setup_builds_provenance_rows_and_columns() {
        let system = build(MechanismKind::AdditiveGaussian, 2.0);
        assert_eq!(system.provenance().num_analysts(), 2);
        assert_eq!(system.provenance().num_views(), 13);
        // Def. 11 (l_max over registered analysts): internal analyst can use
        // the full table budget.
        assert!((system.provenance().row_constraint(AnalystId(1)) - 2.0).abs() < 1e-12);
        assert!((system.provenance().row_constraint(AnalystId(0)) - 0.5).abs() < 1e-12);
        assert!(system.stats().setup_time > Duration::ZERO);
    }

    #[test]
    fn batched_true_answers_share_one_scan_and_match_per_query() {
        let system = build(MechanismKind::Vanilla, 2.0);
        let queries: Vec<Query> = (0..8)
            .map(|i| Query::range_count("adult", "age", 20 + i, 40 + i))
            .collect();
        let per_query: Vec<f64> = queries
            .iter()
            .map(|q| system.true_answer(q).unwrap())
            .collect();
        let scans_before = system.exec_stats().scans;
        let batched = system.true_answers(&queries).unwrap();
        assert_eq!(
            system.exec_stats().scans,
            scans_before + 1,
            "8 same-table queries must share one scan"
        );
        for (a, b) in batched.iter().zip(&per_query) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Setup materialised the whole 13-view catalog in one table pass.
        assert_eq!(system.exec_stats().histogram_scans, 1);
        assert_eq!(system.exec_stats().histograms, 13);
    }

    #[test]
    fn true_answer_refuses_a_group_by_query_without_scanning() {
        let system = build(MechanismKind::Vanilla, 2.0);
        let before = system.exec_stats();
        let err = system
            .true_answer(&Query::count("adult").group_by(&["sex"]))
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Engine(EngineError::InvalidQuery(ref msg))
                if msg == "true_answer requires a scalar query"
        ));
        assert_eq!(system.exec_stats(), before, "nothing was scanned");
    }

    #[test]
    fn a_group_by_past_the_cell_cap_is_refused_before_enumerating() {
        let system = build(MechanismKind::AdditiveGaussian, 8.0);
        // 74 · 99 · 45 · 5 = 1 648 350 cells, just past MAX_GROUP_CELLS.
        let cols = ["age", "hours_per_week", "capital_loss", "race"];
        let wide = GroupedRequest::with_accuracy(GroupByQuery::count("adult", &cols), 500.0);
        let err = system.answer_group_by(AnalystId(1), &wide).unwrap_err();
        assert!(
            matches!(err, CoreError::Engine(EngineError::InvalidQuery(ref msg))
                if msg.contains("group cells")),
            "{err}"
        );
        assert_eq!(system.cumulative_epsilon(), 0.0, "nothing was charged");
        // The same analyst is then answered normally.
        let narrow = GroupByQuery::count("adult", &["sex"]);
        let outcome = system
            .answer_group_by(AnalystId(1), &GroupedRequest::with_accuracy(narrow, 500.0))
            .unwrap();
        assert_eq!(outcome.keys.len(), 2);
        assert!(outcome.outcomes.iter().all(QueryOutcome::is_answered));
    }

    #[test]
    fn a_grouped_sum_over_a_categorical_attribute_is_refused_in_every_group() {
        let db = adult_database(2_000, 1);
        let mut catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        catalog.add_view(ViewDef::histogram("race+sex", "adult", &["race", "sex"]));
        let mut registry = AnalystRegistry::new();
        registry.register("analyst", 4).unwrap();
        let config = SystemConfig::new(8.0).unwrap().with_seed(7);
        let system = DProvDb::new(
            db,
            catalog,
            registry,
            config,
            MechanismKind::AdditiveGaussian,
        )
        .unwrap();
        // Only the second group selects a cell: the first (the old
        // representative) selects none, the walk meets SUM's categorical
        // target in the second.
        let query = GroupByQuery::sum("adult", "sex", &["race"]).filter(
            dprov_engine::expr::Predicate::equals("race", "Asian-Pac-Islander"),
        );
        let outcome = system
            .answer_group_by(AnalystId(0), &GroupedRequest::with_accuracy(query, 500.0))
            .unwrap();
        assert_eq!(outcome.keys.len(), 5);
        assert!(outcome.outcomes.iter().all(|o| matches!(
            o,
            QueryOutcome::Rejected {
                reason: RejectReason::NotAnswerable
            }
        )));
        assert_eq!(system.cumulative_epsilon(), 0.0);
    }

    #[test]
    fn a_translation_memo_reuses_only_a_search_with_the_same_inputs() {
        let system = build(MechanismKind::AdditiveGaussian, 8.0);
        let translations = || {
            system
                .metrics()
                .snapshot()
                .counter("dp.translations")
                .unwrap()
        };
        let vanilla_bits = |r: std::result::Result<AnalyticGaussian, RejectReason>| {
            r.map(|m| (m.budget().epsilon.value().to_bits(), m.sigma().to_bits()))
        };
        // The last target is out of reach: a refusal is remembered too.
        let targets = [7.0, 150.0, 1e-9];
        let mut memo = TranslationMemo::default();
        // Pass 0 searches every input once; pass 1 must reuse each result,
        // and every memoised result must equal a fresh search's bits.
        for pass in 0..2 {
            for sensitivity in [Sensitivity::histogram_bounded(), Sensitivity::COUNT] {
                for target in targets {
                    let before = translations();
                    let fresh = system.translate_vanilla(target, sensitivity, None);
                    let memoised = system.translate_vanilla(target, sensitivity, Some(&mut memo));
                    assert_eq!(vanilla_bits(memoised), vanilla_bits(fresh), "{target}");
                    assert_eq!(translations() - before, 2 - pass, "vanilla {target}");

                    for global in [1_000.0, 400.0] {
                        let before = translations();
                        let fresh = system.translate_friction(target, global, sensitivity, None);
                        let memoised =
                            system.translate_friction(target, global, sensitivity, Some(&mut memo));
                        assert_eq!(
                            memoised.map(f64::to_bits),
                            fresh.map(f64::to_bits),
                            "{target} against {global}"
                        );
                        assert_eq!(translations() - before, 2 - pass, "friction {target}");
                    }
                }
            }
        }
    }

    #[test]
    fn answered_query_is_close_to_truth_and_charges_budget() {
        let mut system = build(MechanismKind::AdditiveGaussian, 4.0);
        let request = range_request(30, 39, 400.0);
        let outcome = system.submit(AnalystId(1), &request).unwrap();
        let answered = outcome.answered().expect("should be answered");
        let truth = system.true_answer(&request.query).unwrap();
        assert!(answered.noise_variance <= 400.0 * 1.0001);
        assert!(
            (answered.value - truth).abs() < 150.0,
            "noisy {} vs truth {truth}",
            answered.value
        );
        assert!(answered.epsilon_charged > 0.0);
        assert!(!answered.from_cache);
        assert_eq!(system.stats().answered, 1);
        assert!(system.cumulative_epsilon() > 0.0);
    }

    #[test]
    fn repeated_query_hits_the_cache_for_both_mechanisms() {
        for mech in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            let mut system = build(mech, 4.0);
            let request = range_request(30, 39, 400.0);
            let first = system.submit(AnalystId(1), &request).unwrap();
            let consumed_after_first = system.cumulative_epsilon();
            let second = system.submit(AnalystId(1), &request).unwrap();
            assert!(first.is_answered() && second.is_answered());
            let second = second.answered().unwrap();
            assert!(second.from_cache, "{mech}: second query should be cached");
            assert_eq!(second.epsilon_charged, 0.0);
            assert_eq!(system.cumulative_epsilon(), consumed_after_first);
            assert_eq!(system.stats().cache_hits, 1);
        }
    }

    /// What a fall-through must leave untouched: the provenance table, the
    /// synopsis cache (read back through a hit), the commit sequence, the
    /// stats and the generator's position.
    fn untouched(system: &DProvDb, rng: &DpRng) -> String {
        let provenance = system.provenance();
        format!(
            "{:?} {:?} {} {:?} {:?}",
            (0..2)
                .map(|a| provenance.row_total(AnalystId(a)).to_bits())
                .collect::<Vec<_>>(),
            system.synopses.with_local(1, "adult.age", |local| local
                .synopsis
                .per_bin_variance
                .to_bits()),
            system.next_commit_seq(),
            system.stats().answered + system.stats().rejected,
            rng.checkpoint(),
        )
    }

    #[test]
    fn try_submit_is_the_submitted_outcome_and_never_waits() {
        for mech in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            let (probed, submitted) = (build(mech, 4.0), build(mech, 4.0));
            let (mut probed_rng, mut submitted_rng) =
                (DpRng::for_stream(7, 1), DpRng::for_stream(7, 1));
            let analyst = AnalystId(1);
            let request = range_request(30, 39, 400.0);
            let stricter = range_request(30, 39, 100.0);
            let privacy = QueryRequest::with_privacy(request.query.clone(), 0.5);
            let unanswerable = QueryRequest::with_accuracy(
                Query::range_count("adult", "no_such_attribute", 0, 1),
                400.0,
            );

            // Without a generator only a hit is answered.
            assert!(probed
                .try_submit_with_rng(analyst, &request, None)
                .is_none());
            // Miss, hit (generator-less too), privacy-mode commit and a
            // stricter miss: outcome and stream position as submitted.
            let mut oracle = Vec::new();
            let mut tried = Vec::new();
            for (step, next) in [&request, &request, &request, &privacy, &stricter]
                .into_iter()
                .enumerate()
            {
                oracle.push(format!(
                    "{:?} {:?}",
                    submitted.submit_with_rng(analyst, next, &mut submitted_rng),
                    submitted_rng.checkpoint()
                ));
                let rng = (step != 2).then_some(&mut probed_rng);
                let outcome = probed.try_submit_with_rng(analyst, next, rng).unwrap();
                tried.push(format!("{outcome:?} {:?}", probed_rng.checkpoint()));
            }
            assert_eq!(tried, oracle, "{mech}");

            // Each tried lock and an unresolvable request fall through and
            // leave no trace. A hit takes only the epoch gate and the entry
            // lock.
            let before = untouched(&probed, &probed_rng);
            let strictest = range_request(30, 39, 10.0);
            let mut probe = |requests: &[&QueryRequest]| {
                for next in requests {
                    let rng = Some(&mut probed_rng);
                    assert!(probed.try_submit_with_rng(analyst, next, rng).is_none());
                }
            };
            {
                let _entry = probed.admission.lock_entry(analyst.0, "adult.age");
                probe(&[&request, &strictest]);
            }
            {
                let _seal = probed.epoch_gate.write().unwrap();
                probe(&[&request, &strictest]);
            }
            {
                let _freeze = probed.freeze_commits();
                probe(&[&strictest]);
            }
            probe(&[&unanswerable]);
            assert_eq!(untouched(&probed, &probed_rng), before, "{mech}");
            assert!(matches!(
                probed.try_submit_with_rng(AnalystId(9), &request, None),
                Some(Err(CoreError::UnknownAnalyst(_)))
            ));

            // Every answer counted exactly as the oracle's.
            let (p, s) = (probed.stats(), submitted.stats());
            assert_eq!(
                (p.answered, p.cache_hits, p.rejected),
                (s.answered, s.cache_hits, s.rejected),
                "{mech}"
            );
            let (p, s) = (probed.metrics().snapshot(), submitted.metrics().snapshot());
            for counter in [
                "query.answered",
                "synopsis.cache_hits",
                "synopsis.cache_misses",
            ] {
                assert_eq!(p.counter(counter), s.counter(counter), "{mech}: {counter}");
            }
            let executed = |snap: &dprov_obs::MetricsSnapshot| {
                snap.histogram("query.execute_ns").unwrap().count
            };
            assert_eq!(executed(&p), executed(&s), "{mech}");
        }
    }

    /// A `Try` admission gives up on a held entry lock or commit gate but
    /// waits for the view lock: its holder is finishing one admission on
    /// the same view. The probe runs on its own thread so that one which
    /// gave up reads as an early reply.
    #[test]
    fn a_try_admission_waits_for_the_view_lock() {
        let system = &build(MechanismKind::AdditiveGaussian, 4.0);
        let request = &range_request(30, 39, 400.0);
        let view = system.admission.lock_view("adult.age");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let submitter = scope.spawn(move || {
                let mut rng = DpRng::for_stream(7, 1);
                let outcome = system.try_submit_with_rng(AnalystId(1), request, Some(&mut rng));
                tx.send(outcome).unwrap();
            });
            let early = rx.recv_timeout(Duration::from_millis(200));
            drop(view);
            submitter.join().unwrap();
            assert!(early.is_err(), "the admission gave up on the view lock");
            let answer = rx.recv().unwrap().expect("admitted").unwrap();
            assert!(!answer.answered().unwrap().from_cache);
        });
    }

    /// Only the additive path serialises on a view (its global synopsis);
    /// a vanilla admission takes the entry lock alone. The submission runs
    /// on its own thread so that one which waited reads as no reply.
    #[test]
    fn a_vanilla_admission_never_waits_for_the_view_lock() {
        let system = &build(MechanismKind::Vanilla, 4.0);
        let request = &range_request(30, 39, 400.0);
        let view = system.admission.lock_view("adult.age");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let submitter = scope.spawn(move || {
                tx.send(system.submit_shared(AnalystId(1), request))
                    .unwrap();
            });
            let submitted = rx.recv_timeout(Duration::from_secs(2));
            drop(view);
            submitter.join().unwrap();
            let answer = submitted
                .expect("a vanilla admission waited for the view lock")
                .unwrap();
            let answer = answer.answered().unwrap();
            assert!(!answer.from_cache && answer.epsilon_charged > 0.0);
            assert_eq!(answer.view.as_deref(), Some("adult.age"));
        });
    }

    #[test]
    fn similar_queries_from_two_analysts_are_cheaper_under_additive() {
        // The motivating scenario: two analysts ask the same query. Vanilla
        // pays twice; additive GM pays only the maximum.
        let request = range_request(25, 44, 2_000.0);
        let mut vanilla = build(MechanismKind::Vanilla, 8.0);
        vanilla.submit(AnalystId(0), &request).unwrap();
        vanilla.submit(AnalystId(1), &request).unwrap();
        let mut additive = build(MechanismKind::AdditiveGaussian, 8.0);
        additive.submit(AnalystId(0), &request).unwrap();
        additive.submit(AnalystId(1), &request).unwrap();
        assert!(
            additive.cumulative_epsilon() < vanilla.cumulative_epsilon() * 0.75,
            "additive {} should be well below vanilla {}",
            additive.cumulative_epsilon(),
            vanilla.cumulative_epsilon()
        );
    }

    #[test]
    fn rejection_when_accuracy_needs_more_than_the_table_budget() {
        let mut system = build(MechanismKind::AdditiveGaussian, 0.1);
        // Essentially exact counts cannot be bought with epsilon <= 0.1.
        let request = range_request(30, 39, 1e-4);
        let outcome = system.submit(AnalystId(1), &request).unwrap();
        assert_eq!(
            outcome,
            QueryOutcome::Rejected {
                reason: RejectReason::AccuracyUnreachable
            }
        );
        assert_eq!(system.stats().rejected, 1);
        assert_eq!(system.cumulative_epsilon(), 0.0);
    }

    #[test]
    fn low_privilege_analyst_hits_their_row_constraint_first() {
        let mut system = build(MechanismKind::AdditiveGaussian, 1.0);
        // Analyst 0 has privilege 1 => constraint 0.25. A query needing an
        // epsilon between 0.25 and 1.0 must be rejected for them but
        // accepted for the high-privilege analyst.
        let request = range_request(20, 60, 10_000.0);
        let low = system.submit(AnalystId(0), &request).unwrap();
        assert!(matches!(
            low,
            QueryOutcome::Rejected {
                reason: RejectReason::AnalystConstraint { .. }
            }
        ));
        let high = system.submit(AnalystId(1), &request).unwrap();
        assert!(high.is_answered());
    }

    #[test]
    fn unanswerable_and_unknown_analyst_paths() {
        let mut system = build(MechanismKind::Vanilla, 2.0);
        // Two attributes but only 1-way views: not answerable.
        let q = Query::count("adult")
            .filter(dprov_engine::expr::Predicate::range("age", 20, 30))
            .filter(dprov_engine::expr::Predicate::equals("sex", "Female"));
        let outcome = system
            .submit(AnalystId(0), &QueryRequest::with_accuracy(q, 100.0))
            .unwrap();
        assert_eq!(
            outcome,
            QueryOutcome::Rejected {
                reason: RejectReason::NotAnswerable
            }
        );
        assert!(system
            .submit(AnalystId(9), &range_request(20, 30, 100.0))
            .is_err());
    }

    #[test]
    fn privacy_oriented_mode_charges_the_requested_epsilon() {
        let mut system = build(MechanismKind::AdditiveGaussian, 2.0);
        let request = QueryRequest::with_privacy(Query::range_count("adult", "age", 30, 39), 0.5);
        let outcome = system.submit(AnalystId(1), &request).unwrap();
        let answered = outcome.answered().unwrap();
        assert!((answered.epsilon_charged - 0.5).abs() < 1e-9);
        assert!((system.analyst_epsilon(AnalystId(1)) - 0.5).abs() < 1e-9);
        // A second analyst asking with a smaller budget on the same view
        // does not move the global synopsis, so the collusion bound stays.
        let request2 = QueryRequest::with_privacy(Query::range_count("adult", "age", 35, 44), 0.3);
        system.submit(AnalystId(0), &request2).unwrap();
        assert!((system.cumulative_epsilon() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn additive_collusion_bound_is_the_max_vanilla_is_the_sum() {
        let request = range_request(25, 44, 300.0);
        let mut vanilla = build(MechanismKind::Vanilla, 8.0);
        let mut additive = build(MechanismKind::AdditiveGaussian, 8.0);
        for system in [&mut vanilla, &mut additive] {
            system.submit(AnalystId(0), &request).unwrap();
            system.submit(AnalystId(1), &request).unwrap();
        }
        let eps_v0 = vanilla.analyst_epsilon(AnalystId(0));
        let eps_v1 = vanilla.analyst_epsilon(AnalystId(1));
        assert!((vanilla.cumulative_epsilon() - (eps_v0 + eps_v1)).abs() < 1e-9);

        let per_analyst_max = additive
            .analyst_epsilon(AnalystId(0))
            .max(additive.analyst_epsilon(AnalystId(1)));
        assert!((additive.cumulative_epsilon() - per_analyst_max).abs() < 1e-9);
    }

    #[test]
    fn fairness_outcomes_reflect_answered_counts() {
        let mut system = build(MechanismKind::AdditiveGaussian, 4.0);
        let request = range_request(30, 39, 500.0);
        system.submit(AnalystId(1), &request).unwrap();
        system
            .submit(AnalystId(1), &range_request(40, 49, 500.0))
            .unwrap();
        system
            .submit(AnalystId(0), &range_request(50, 59, 2_000.0))
            .unwrap();
        let outcomes = system.fairness_outcomes();
        assert_eq!(outcomes[0].answered, 1);
        assert_eq!(outcomes[1].answered, 2);
        assert!(system.ndcfg() > 0.0);
        assert_eq!(system.answered_per_analyst(), &[1, 2]);
    }

    #[test]
    fn accuracy_guarantee_holds_across_many_requests() {
        // Fig. 9(a): the delivered noise variance never exceeds the request.
        let mut system = build(MechanismKind::AdditiveGaussian, 6.4);
        let mut rng = DpRng::seed_from_u64(5);
        for i in 0..40 {
            let lo = 17 + (i % 30) as i64;
            let hi = lo + 5 + (i % 7) as i64;
            let variance = 200.0 + rng.uniform() * 2_000.0;
            let analyst = AnalystId((i % 2) as usize);
            let request =
                QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), variance);
            if let QueryOutcome::Answered(a) = system.submit(analyst, &request).unwrap() {
                assert!(
                    a.noise_variance <= variance * (1.0 + 1e-6),
                    "delivered {} > requested {variance}",
                    a.noise_variance
                );
            }
        }
    }

    #[test]
    fn tight_accounting_tracks_data_accesses() {
        use dprov_dp::accountant::CompositionMethod;
        let db = adult_database(2_000, 1);
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        let mut registry = AnalystRegistry::new();
        registry.register("external", 1).unwrap();
        registry.register("internal", 4).unwrap();
        let build = |method| {
            let config = SystemConfig::new(6.4)
                .unwrap()
                .with_seed(7)
                .with_composition(method);
            DProvDb::new(
                db.clone(),
                catalog.clone(),
                registry.clone(),
                config,
                MechanismKind::AdditiveGaussian,
            )
            .unwrap()
        };
        let requests: Vec<QueryRequest> = (0..20)
            .map(|i| {
                QueryRequest::with_accuracy(
                    Query::range_count("adult", "age", 17 + i, 30 + i),
                    (2_000 - i * 90) as f64,
                )
            })
            .collect();

        let mut sequential = build(CompositionMethod::Sequential);
        let mut zcdp = build(CompositionMethod::Zcdp);
        for request in &requests {
            for analyst in [AnalystId(0), AnalystId(1)] {
                let _ = sequential.submit(analyst, request).unwrap();
                let _ = zcdp.submit(analyst, request).unwrap();
            }
        }
        let seq_total = sequential.tight_accounting().epsilon.value();
        let zcdp_total = zcdp.tight_accounting().epsilon.value();
        assert!(seq_total > 0.0);
        // Sequential tight accounting coincides with the additive
        // provenance accounting (only global releases are data accesses).
        assert!((seq_total - sequential.cumulative_epsilon()).abs() < 1e-6);
        // zCDP composition over many small releases is no looser than
        // twice the sequential bound (it is typically tighter; the exact
        // factor depends on the release sizes).
        assert!(zcdp_total <= 2.0 * seq_total + 1e-9);
    }

    #[test]
    fn delta_larger_than_inverse_dataset_size_is_rejected_at_setup() {
        let db = adult_database(2_000, 1);
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        let mut registry = AnalystRegistry::new();
        registry.register("a", 1).unwrap();
        let config = SystemConfig::new(1.0).unwrap().with_delta(1e-2).unwrap();
        assert!(DProvDb::new(db, catalog, registry, config, MechanismKind::Vanilla).is_err());
    }

    /// An in-memory recorder capturing the write-ahead stream, for testing
    /// the commit hook without the storage crate.
    #[derive(Default)]
    struct MemoryRecorder {
        admissions: Mutex<Vec<Admission>>,
        rollbacks: Mutex<Vec<u64>>,
        updates: Mutex<Vec<EncodedBatch>>,
        seals: Mutex<Vec<(u64, u64)>>,
    }

    impl Recorder for MemoryRecorder {
        fn record_admission(
            &self,
            commit: &CommitRecord,
            access: Option<&DataAccess>,
        ) -> std::result::Result<(), crate::error::StorageError> {
            self.admissions.lock().unwrap().push(Admission {
                commit: commit.clone(),
                access: access.copied(),
                voided: false,
            });
            Ok(())
        }
        fn record_rollback(&self, seq: u64) -> std::result::Result<(), crate::error::StorageError> {
            self.rollbacks.lock().unwrap().push(seq);
            Ok(())
        }
        fn record_update(
            &self,
            batch: &EncodedBatch,
        ) -> std::result::Result<(), crate::error::StorageError> {
            self.updates.lock().unwrap().push(batch.clone());
            Ok(())
        }
        fn record_epoch_seal(
            &self,
            epoch: u64,
            through_seq: u64,
        ) -> std::result::Result<(), crate::error::StorageError> {
            self.seals.lock().unwrap().push((epoch, through_seq));
            Ok(())
        }
    }

    #[test]
    fn recorder_sees_every_commit_and_replay_reconstructs_budget_state() {
        for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            let mut live = build(mechanism, 6.0);
            let recorder = Arc::new(MemoryRecorder::default());
            live.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
            for i in 0..6 {
                let analyst = AnalystId(i % 2);
                let _ = live
                    .submit(analyst, &range_request(20 + i as i64, 45, 600.0 + i as f64))
                    .unwrap();
            }
            let admissions = recorder.admissions.lock().unwrap().clone();
            assert!(!admissions.is_empty(), "{mechanism}: no commits recorded");
            assert!(recorder.rollbacks.lock().unwrap().is_empty());
            // Sequence numbers are contiguous from zero in commit order.
            for (i, a) in admissions.iter().enumerate() {
                assert_eq!(a.commit.seq, i as u64);
                assert_eq!(a.commit.mechanism, mechanism);
            }
            assert!(admissions.iter().any(|a| a.access.is_some()));

            // Replay the stream into a fresh system: exact budget state.
            let fresh = build(mechanism, 6.0);
            for a in &admissions {
                fresh.replay_admission(a).unwrap();
            }
            let live_prov = live.provenance();
            let fresh_prov = fresh.provenance();
            for analyst in [AnalystId(0), AnalystId(1)] {
                assert_eq!(
                    live_prov.row_total(analyst),
                    fresh_prov.row_total(analyst),
                    "{mechanism}: replayed row total differs"
                );
                assert_eq!(
                    live.ledger().loss_to(analyst).epsilon.value(),
                    fresh.ledger().loss_to(analyst).epsilon.value(),
                );
                assert_eq!(
                    live.ledger().releases_to(analyst),
                    fresh.ledger().releases_to(analyst),
                );
                assert_eq!(
                    live.ledger().loss_to(analyst).delta,
                    fresh.ledger().loss_to(analyst).delta,
                );
            }
            assert_eq!(
                fresh.tight_accounting(),
                live.tight_accounting(),
                "{mechanism}: replayed tight accounting differs"
            );
            assert_eq!(fresh.next_commit_seq(), live.next_commit_seq());
        }
    }

    /// Recovery rebuilds the tight accountant bit for bit under every
    /// composition method — from the snapshot alone, from the ledger
    /// alone, and from a mid-run snapshot plus the ledger suffix —
    /// including a release that failed after its admission committed: its
    /// charge is voided, and its access stays counted on both sides.
    #[test]
    fn tight_accounting_recovers_bit_exactly_for_every_composition_method() {
        use crate::synopsis_manager::FAIL_NEXT_RELEASE;
        use dprov_dp::accountant::CompositionMethod;
        const FAILS: usize = 5;
        let bits = |b: Budget| (b.epsilon.value().to_bits(), b.delta.value().to_bits());
        for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            for method in [
                CompositionMethod::Sequential,
                CompositionMethod::Advanced,
                CompositionMethod::Rdp,
                CompositionMethod::Zcdp,
            ] {
                let build = || {
                    let db = adult_database(2_000, 1);
                    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
                    let mut registry = AnalystRegistry::new();
                    registry.register("external", 1).unwrap();
                    registry.register("internal", 4).unwrap();
                    let config = SystemConfig::new(6.0)
                        .unwrap()
                        .with_seed(7)
                        .with_composition(method);
                    DProvDb::new(db, catalog, registry, config, mechanism).unwrap()
                };
                let mut live = build();
                let recorder = Arc::new(MemoryRecorder::default());
                live.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
                let mut mid = CoreState::default();
                for i in 0..8 {
                    if i == 4 {
                        mid = live.export_durable_state();
                    }
                    // Every request is fresh: its epsilon grows per analyst.
                    let request = QueryRequest::with_privacy(
                        Query::range_count("adult", "age", 20, 40),
                        0.05 * (i + 1) as f64,
                    );
                    FAIL_NEXT_RELEASE.with(|armed| armed.set(i == FAILS));
                    let outcome = live.submit(AnalystId(i % 2), &request);
                    assert_eq!(outcome.is_err(), i == FAILS, "{mechanism}/{method:?}");
                }
                let rollbacks = recorder.rollbacks.lock().unwrap().clone();
                let admissions: Vec<Admission> = recorder
                    .admissions
                    .lock()
                    .unwrap()
                    .iter()
                    .map(|a| Admission {
                        voided: rollbacks.contains(&a.commit.seq),
                        ..a.clone()
                    })
                    .collect();
                let failed = &admissions[FAILS];
                assert!(failed.voided && failed.access.is_some());
                let accesses = admissions.iter().filter(|a| a.access.is_some()).count();
                let live_state = live.export_durable_state();
                match &live_state.tight {
                    TightState::Accountant(state) => assert_eq!(state.releases, accesses as u64),
                    TightState::LegacyAccesses(_) => panic!("export writes the accountant state"),
                }

                let replay = |system: &DProvDb, from_seq: u64| {
                    for admission in admissions.iter().filter(|a| a.commit.seq >= from_seq) {
                        system.replay_admission(admission).unwrap();
                    }
                };
                let snapshot_only = build();
                snapshot_only.import_durable_state(&live_state).unwrap();
                let ledger_only = build();
                replay(&ledger_only, 0);
                let mixed = build();
                mixed.import_durable_state(&mid).unwrap();
                replay(&mixed, mid.next_seq);
                for (label, recovered) in [
                    ("snapshot", &snapshot_only),
                    ("ledger", &ledger_only),
                    ("snapshot + ledger suffix", &mixed),
                ] {
                    assert_eq!(
                        bits(recovered.tight_accounting()),
                        bits(live.tight_accounting()),
                        "{mechanism}/{method:?}: {label}"
                    );
                    assert_eq!(
                        recovered.export_durable_state().provenance,
                        live_state.provenance,
                        "{mechanism}/{method:?}: {label}"
                    );
                    assert_eq!(recovered.next_commit_seq(), live.next_commit_seq());
                }
            }
        }
    }

    /// A vanilla release that fails after its reserve restores the
    /// journalled entry itself: subtracting the charge again would leave
    /// `(0.1 + 0.2) − 0.2 = 0.10000000000000003`, one ulp away from the
    /// entry a replay of the voided commit rebuilds.
    #[test]
    fn a_failed_vanilla_release_restores_the_exact_entry() {
        use crate::synopsis_manager::FAIL_NEXT_RELEASE;
        let mut live = build(MechanismKind::Vanilla, 6.0);
        let recorder = Arc::new(MemoryRecorder::default());
        live.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        let age = |epsilon| {
            QueryRequest::with_privacy(Query::range_count("adult", "age", 30, 39), epsilon)
        };
        assert!(live.submit(AnalystId(1), &age(0.1)).unwrap().is_answered());
        FAIL_NEXT_RELEASE.with(|armed| armed.set(true));
        assert!(live.submit(AnalystId(1), &age(0.2)).is_err());

        let rollbacks = recorder.rollbacks.lock().unwrap().clone();
        assert_eq!(rollbacks, vec![1]);
        let replayed = build(MechanismKind::Vanilla, 6.0);
        for admission in recorder.admissions.lock().unwrap().iter() {
            let voided = rollbacks.contains(&admission.commit.seq);
            replayed
                .replay_admission(&Admission {
                    voided,
                    ..admission.clone()
                })
                .unwrap();
        }
        let live_state = live.export_durable_state();
        assert_eq!(
            live_state.provenance,
            replayed.export_durable_state().provenance
        );
        assert_eq!(live_state.provenance[0].epsilon.to_bits(), 0.1f64.to_bits());
        assert_eq!(
            live_state.releases,
            ReleaseState::Counts(vec![(AnalystId(1), 1)])
        );
        assert_eq!(replayed.ledger().releases_to(AnalystId(1)), 1);
    }

    #[test]
    fn export_import_round_trips_durable_state() {
        let mut live = build(MechanismKind::AdditiveGaussian, 6.0);
        let recorder = Arc::new(MemoryRecorder::default());
        live.set_recorder(recorder as Arc<dyn Recorder>);
        for i in 0..5 {
            let _ = live
                .submit(AnalystId(i % 2), &range_request(25 + i as i64, 50, 700.0))
                .unwrap();
        }
        let state = live.export_durable_state();
        assert!(state.next_seq > 0);
        assert!(!state.provenance.is_empty());
        assert!(!state.synopses.is_empty());

        let fresh = build(MechanismKind::AdditiveGaussian, 6.0);
        fresh.import_durable_state(&state).unwrap();
        assert_eq!(fresh.export_durable_state(), state);
        // Budget state is bit-exact.
        for analyst in [AnalystId(0), AnalystId(1)] {
            assert_eq!(
                live.provenance().row_total(analyst),
                fresh.provenance().row_total(analyst)
            );
        }
        assert_eq!(
            live.tight_accounting().epsilon.value(),
            fresh.tight_accounting().epsilon.value()
        );
    }

    #[test]
    fn failing_recorder_aborts_the_submission_without_spending() {
        struct DeadRecorder;
        impl Recorder for DeadRecorder {
            fn record_admission(
                &self,
                _: &CommitRecord,
                _: Option<&DataAccess>,
            ) -> std::result::Result<(), crate::error::StorageError> {
                Err(crate::error::StorageError::Unavailable("killed".into()))
            }
            fn record_rollback(
                &self,
                _: u64,
            ) -> std::result::Result<(), crate::error::StorageError> {
                Err(crate::error::StorageError::Unavailable("killed".into()))
            }
        }
        for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            let mut system = build(mechanism, 4.0);
            system.set_recorder(Arc::new(DeadRecorder));
            let outcome = system.submit(AnalystId(1), &range_request(30, 39, 400.0));
            assert!(
                matches!(outcome, Err(CoreError::Storage(_))),
                "{mechanism}: expected storage error"
            );
            // Nothing was spent: the in-memory commit never became visible,
            // and the tight accountant counted no access.
            assert_eq!(system.cumulative_epsilon(), 0.0);
            assert_eq!(system.ledger().releases(), 0);
            assert_eq!(system.tight_accounting(), Budget::ZERO);
        }
    }

    fn age_row(age: i64) -> Vec<dprov_engine::value::Value> {
        use dprov_engine::value::Value;
        // A full adult row with the age set; other attributes fixed to
        // valid domain values (schema order: age, workclass, education,
        // education_num, marital_status, occupation, relationship, race,
        // sex, capital_gain, capital_loss, hours_per_week, income).
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

    fn adult_insert(ages: &[i64]) -> UpdateBatch {
        UpdateBatch::insert("adult", ages.iter().map(|&a| age_row(a)).collect())
    }

    #[test]
    fn updates_seal_into_epochs_and_change_answers_exactly() {
        let system = build(MechanismKind::Vanilla, 4.0);
        let q = Query::range_count("adult", "age", 30, 30);
        let before = system.true_answer(&q).unwrap();
        assert_eq!(system.current_epoch(), 0);

        let seq = system.apply_update(&adult_insert(&[30, 30, 30])).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(system.pending_updates(), 1);
        // Pending updates are invisible until the seal.
        assert_eq!(system.true_answer(&q).unwrap(), before);

        let report = system.seal_epoch().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.batches, 1);
        assert_eq!(report.rows, 3);
        assert!(report.views_patched.contains(&"adult.age".to_owned()));
        assert_eq!(system.current_epoch(), 1);
        assert_eq!(system.pending_updates(), 0);
        assert_eq!(system.true_answer(&q).unwrap(), before + 3.0);

        // Deleting one of the inserted rows takes effect at the next seal.
        system
            .apply_update(&UpdateBatch::delete("adult", vec![age_row(30)]))
            .unwrap();
        let report = system.seal_epoch().unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(system.true_answer(&q).unwrap(), before + 2.0);
        // The exact histogram moved with the data (patched, not stale).
        let (answers, epoch) = system.true_answers_epoch(&[q]).unwrap();
        assert_eq!(answers[0], before + 2.0);
        assert_eq!(epoch, 2);
    }

    #[test]
    fn invalid_updates_are_refused_without_side_effects() {
        let system = build(MechanismKind::Vanilla, 4.0);
        use dprov_engine::value::Value;
        // Out-of-domain age.
        assert!(matches!(
            system.apply_update(&adult_insert(&[5])),
            Err(CoreError::Delta(dprov_delta::DeltaError::Engine(_)))
        ));
        // Delete of a row that (essentially surely) does not exist: a
        // jointly near-impossible attribute combination.
        let mut ghost = age_row(89);
        ghost[1] = Value::text("Never-worked");
        ghost[5] = Value::text("Armed-Forces");
        ghost[9] = Value::Int(50_000);
        assert!(matches!(
            system.apply_update(&UpdateBatch::delete("adult", vec![ghost])),
            Err(CoreError::Delta(dprov_delta::DeltaError::MissingRow { .. }))
        ));
        // Empty batches are refused.
        assert!(matches!(
            system.apply_update(&UpdateBatch::insert("adult", Vec::new())),
            Err(CoreError::Delta(dprov_delta::DeltaError::EmptyBatch))
        ));
        assert_eq!(system.pending_updates(), 0);
        assert_eq!(system.current_epoch(), 0);
    }

    #[test]
    fn renoise_policy_invalidates_and_recharges_while_carry_forward_serves_stale() {
        use dprov_delta::EpochPolicy;
        for mech in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            // Re-noise: a seal touching the view invalidates the cached
            // synopsis; the same query afterwards is NOT a cache hit and
            // charges fresh budget through the admission path.
            let system = build(mech, 8.0);
            let request = range_request(30, 39, 400.0);
            let first = system.submit_shared(AnalystId(1), &request).unwrap();
            assert_eq!(first.answered().unwrap().epoch, 0);
            let spent_before = system.cumulative_epsilon();
            let accessed_before = system.tight_accounting().epsilon.value();
            system.apply_update(&adult_insert(&[35])).unwrap();
            let report = system.seal_epoch().unwrap();
            assert!(
                report.synopses_invalidated > 0,
                "{mech}: nothing invalidated"
            );
            let second = system.submit_shared(AnalystId(1), &request).unwrap();
            let answered = second.answered().unwrap();
            assert!(!answered.from_cache, "{mech}: stale cache served");
            assert_eq!(answered.epoch, 1);
            match mech {
                // Vanilla charges every fresh synopsis to the analyst.
                MechanismKind::Vanilla => assert!(
                    system.cumulative_epsilon() > spent_before,
                    "vanilla: re-release was not charged"
                ),
                // Additive prices the re-release through the provenance
                // formula min(ε_global, P+ε) − P: an analyst whose entry
                // already covers the target pays no *incremental* charge,
                // but the re-grown global synopsis is a genuinely new data
                // access and must appear in the tight accounting.
                MechanismKind::AdditiveGaussian => assert!(
                    system.tight_accounting().epsilon.value() > accessed_before,
                    "additive: re-released global synopsis was not recorded as a data access"
                ),
            }

            // Carry-forward: the stale synopsis keeps serving within the
            // bound, for free, tagged with its release epoch.
            let db = adult_database(2_000, 1);
            let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
            let mut registry = AnalystRegistry::new();
            registry.register("external", 1).unwrap();
            registry.register("internal", 4).unwrap();
            let config = SystemConfig::new(8.0)
                .unwrap()
                .with_seed(7)
                .with_epoch_policy(EpochPolicy::CarryForward { max_staleness: 2 });
            let system = DProvDb::new(db, catalog, registry, config, mech).unwrap();
            let first = system.submit_shared(AnalystId(1), &request).unwrap();
            assert!(first.is_answered());
            let spent_before = system.cumulative_epsilon();
            system.apply_update(&adult_insert(&[35])).unwrap();
            let report = system.seal_epoch().unwrap();
            assert_eq!(report.synopses_invalidated, 0);
            let second = system.submit_shared(AnalystId(1), &request).unwrap();
            let answered = second.answered().unwrap();
            assert!(answered.from_cache, "{mech}: carry-forward should serve");
            assert_eq!(answered.epoch, 0, "{mech}: stale answer tags its epoch");
            assert_eq!(system.cumulative_epsilon(), spent_before);

            // Two more touching seals exceed max_staleness=2: invalidated.
            for _ in 0..2 {
                system.apply_update(&adult_insert(&[35])).unwrap();
                system.seal_epoch().unwrap();
            }
            let third = system.submit_shared(AnalystId(1), &request).unwrap();
            assert!(
                !third.answered().unwrap().from_cache,
                "{mech}: staleness bound not enforced"
            );
            assert_eq!(third.answered().unwrap().epoch, 3);
        }
    }

    /// A re-noise seal drops the additive global synopsis, so the next
    /// admission's target can sit below the analyst's entry. The entry
    /// keeps the spend it already holds (a spend never shrinks), and the
    /// admission still counts as the analyst's release.
    #[test]
    fn additive_renoise_never_lowers_a_provenance_entry() {
        let system = build(MechanismKind::AdditiveGaussian, 8.0);
        let age = |epsilon| {
            QueryRequest::with_privacy(Query::range_count("adult", "age", 30, 39), epsilon)
        };
        assert!(system
            .submit_shared(AnalystId(1), &age(1.0))
            .unwrap()
            .is_answered());
        system.apply_update(&adult_insert(&[35])).unwrap();
        assert!(system.seal_epoch().unwrap().synopses_invalidated > 0);
        let second = system.submit_shared(AnalystId(1), &age(0.4)).unwrap();
        assert_eq!(second.answered().unwrap().epsilon_charged, 0.0);
        assert_eq!(system.provenance().entry(AnalystId(1), "adult.age"), 1.0);
        assert_eq!(system.ledger().releases_to(AnalystId(1)), 2);
    }

    #[test]
    fn patched_histograms_equal_a_rebuild_after_every_seal() {
        let system = build(MechanismKind::AdditiveGaussian, 8.0);
        for round in 0..3 {
            let before = system.exec_stats();
            system
                .apply_update(&adult_insert(&[20 + round, 30 + round]))
                .unwrap();
            if round > 0 {
                // Delete a row the previous epoch inserted.
                system
                    .apply_update(&UpdateBatch::delete("adult", vec![age_row(19 + round)]))
                    .unwrap();
            }
            let report = system.seal_epoch().unwrap();
            // Seal cost tracks the delta: the views are patched from the
            // one new segment of the one touched table, never rescanned.
            let after = system.exec_stats();
            assert_eq!(after.histogram_scans, before.histogram_scans);
            assert_eq!(after.scans, before.scans);
            assert_eq!(after.segments_appended, before.segments_appended + 1);
            let touched = system.synopses.views_over_table("adult");
            assert_eq!(report.views_patched.len(), touched.len());
            for def in &touched {
                assert_eq!(
                    system.synopses.exact_histogram(&def.name).unwrap(),
                    system.exec.materialize_histogram(def).unwrap(),
                    "{} at epoch {}",
                    def.name,
                    report.epoch
                );
            }
        }
    }

    #[test]
    fn recorder_journals_updates_and_seals_and_replay_reconstructs_epochs() {
        let mut live = build(MechanismKind::Vanilla, 6.0);
        let recorder = Arc::new(MemoryRecorder::default());
        live.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        live.apply_update(&adult_insert(&[30, 31])).unwrap();
        live.seal_epoch().unwrap();
        live.apply_update(&adult_insert(&[32])).unwrap();
        // NOT sealed: pending at "crash" time.
        let updates = recorder.updates.lock().unwrap().clone();
        let seals = recorder.seals.lock().unwrap().clone();
        assert_eq!(updates.len(), 2);
        assert_eq!(seals, vec![(1, 1)]);

        // Replay into a fresh system: WAL order (update, seal, update).
        let fresh = build(MechanismKind::Vanilla, 6.0);
        fresh.replay_update(updates[0].clone()).unwrap();
        fresh.replay_epoch_seal(seals[0].0, seals[0].1).unwrap();
        fresh.replay_update(updates[1].clone()).unwrap();
        assert_eq!(fresh.current_epoch(), 1);
        assert_eq!(fresh.pending_updates(), 1);
        let q = Query::range_count("adult", "age", 30, 32);
        assert_eq!(
            fresh.true_answer(&q).unwrap().to_bits(),
            live.true_answer(&q).unwrap().to_bits(),
            "recovered to the last sealed epoch, pending batch excluded"
        );
        // A second seal applies the recovered pending batch identically.
        live.seal_epoch().unwrap();
        fresh.seal_epoch().unwrap();
        assert_eq!(
            fresh.true_answer(&q).unwrap().to_bits(),
            live.true_answer(&q).unwrap().to_bits()
        );
    }

    /// A live vanilla system's durable state with one cached local
    /// synopsis (analyst 1, `adult.age`), damaged by `damage`, is refused
    /// whole by a fresh system, which stays as it was.
    fn assert_damaged_cache_is_refused(
        damage: impl FnOnce(&mut crate::recorder::LocalSynopsisState),
    ) {
        let live = build(MechanismKind::Vanilla, 6.0);
        let request = range_request(25, 50, 700.0);
        assert!(live
            .submit_shared(AnalystId(1), &request)
            .unwrap()
            .is_answered());
        let mut state = live.export_durable_state();
        damage(&mut state.synopses[0].locals[0]);

        let fresh = build(MechanismKind::Vanilla, 6.0);
        let before = fresh.export_durable_state();
        let refused = fresh.import_durable_state(&state);
        assert!(
            matches!(
                refused,
                Err(CoreError::Storage(
                    crate::error::StorageError::IncompatibleState(_)
                ))
            ),
            "{refused:?}"
        );
        assert_eq!(fresh.export_durable_state(), before, "nothing applied");
        // The request that would have hit the damaged synopsis is served.
        assert!(fresh
            .submit_shared(AnalystId(1), &request)
            .unwrap()
            .is_answered());
    }

    #[test]
    fn import_refuses_a_synopsis_with_the_wrong_bin_count() {
        assert_damaged_cache_is_refused(|local| {
            local.counts.pop();
        });
    }

    #[test]
    fn import_refuses_a_synopsis_of_an_unregistered_analyst() {
        assert_damaged_cache_is_refused(|local| local.analyst = 2);
    }

    #[test]
    fn import_refuses_an_accountant_state_that_does_not_fit() {
        let live = build(MechanismKind::Vanilla, 6.0);
        let request = range_request(25, 50, 700.0);
        assert!(live
            .submit_shared(AnalystId(1), &request)
            .unwrap()
            .is_answered());
        let mut state = live.export_durable_state();
        let TightState::Accountant(tight) = &mut state.tight else {
            panic!("export writes the accountant state");
        };
        // The sequential accountant keeps two sums.
        tight.sums.push(0.5);

        let fresh = build(MechanismKind::Vanilla, 6.0);
        let before = fresh.export_durable_state();
        let refused = fresh.import_durable_state(&state);
        assert!(
            matches!(
                refused,
                Err(CoreError::Dp(dprov_dp::DpError::InvalidAccountantState(_)))
            ),
            "{refused:?}"
        );
        assert_eq!(fresh.export_durable_state(), before, "nothing applied");
    }

    fn is_incompatible_state(result: &Result<()>) -> bool {
        matches!(
            result,
            Err(CoreError::Storage(
                crate::error::StorageError::IncompatibleState(_)
            ))
        )
    }

    /// A snapshot provenance entry that is NaN, infinite or negative is
    /// refused before anything is applied: a NaN entry would make every
    /// later constraint check pass.
    #[test]
    fn import_refuses_a_non_finite_or_negative_provenance_entry() {
        let live = build(MechanismKind::Vanilla, 6.0);
        assert!(live
            .submit_shared(AnalystId(1), &range_request(25, 50, 700.0))
            .unwrap()
            .is_answered());
        for bad in [f64::NAN, f64::INFINITY, -0.25] {
            let mut state = live.export_durable_state();
            state.provenance[0].epsilon = bad;
            let fresh = build(MechanismKind::Vanilla, 6.0);
            let before = fresh.export_durable_state();
            let refused = fresh.import_durable_state(&state);
            assert!(is_incompatible_state(&refused), "{bad}: {refused:?}");
            assert_eq!(
                fresh.export_durable_state(),
                before,
                "{bad}: nothing applied"
            );
        }
    }

    /// A journalled commit whose post-commit entry or charge is NaN,
    /// infinite or negative is refused before the provenance table is
    /// touched.
    #[test]
    fn replay_refuses_a_non_finite_or_negative_commit() {
        let mut live = build(MechanismKind::Vanilla, 6.0);
        let recorder = Arc::new(MemoryRecorder::default());
        live.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
        assert!(live
            .submit(AnalystId(1), &range_request(25, 50, 700.0))
            .unwrap()
            .is_answered());
        let admission = recorder.admissions.lock().unwrap()[0].clone();
        let damages: [fn(&mut CommitRecord); 5] = [
            |c| c.new_entry = f64::NAN,
            |c| c.new_entry = -1.0,
            |c| c.charged = f64::NAN,
            |c| c.charged = f64::INFINITY,
            |c| c.charged = -0.5,
        ];
        for damage in damages {
            let mut damaged = admission.clone();
            damage(&mut damaged.commit);
            let fresh = build(MechanismKind::Vanilla, 6.0);
            let refused = fresh.replay_admission(&damaged);
            assert!(is_incompatible_state(&refused), "{damaged:?}: {refused:?}");
            assert_eq!(fresh.provenance().row_total(AnalystId(1)), 0.0);
            assert_eq!(fresh.ledger().releases(), 0);
        }
    }

    /// A replayed commit charged by another mechanism than the system's is
    /// refused before anything is applied: the store fingerprint pins one
    /// mechanism, so only corruption makes such a record, and the derived
    /// ledger would silently ignore its byte.
    #[test]
    fn replay_refuses_a_foreign_mechanism_byte() {
        for (mechanism, foreign) in [
            (MechanismKind::Vanilla, MechanismKind::AdditiveGaussian),
            (MechanismKind::AdditiveGaussian, MechanismKind::Vanilla),
        ] {
            let mut live = build(mechanism, 6.0);
            let recorder = Arc::new(MemoryRecorder::default());
            live.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
            assert!(live
                .submit(AnalystId(1), &range_request(25, 50, 700.0))
                .unwrap()
                .is_answered());
            let mut damaged = recorder.admissions.lock().unwrap()[0].clone();
            assert!(damaged.access.is_some());
            damaged.commit.mechanism = foreign;
            let fresh = build(mechanism, 6.0);
            let before = fresh.export_durable_state();
            let refused = fresh.replay_admission(&damaged);
            assert!(is_incompatible_state(&refused), "{mechanism}: {refused:?}");
            assert_eq!(fresh.export_durable_state(), before, "{mechanism}");
            assert_eq!(fresh.tight_accounting(), Budget::ZERO);
            assert_eq!(fresh.next_commit_seq(), 0);
        }
    }

    /// A live system's encoded insert of one adult row whose last cell is
    /// set to the last attribute's domain size: one index past the domain.
    fn out_of_domain_insert(live: &DProvDb) -> EncodedBatch {
        live.apply_update(&adult_insert(&[30])).unwrap();
        let mut batch = live.export_durable_state().deltas.pending[0].clone();
        let db = live.db.read().unwrap();
        let domain = db
            .table("adult")
            .unwrap()
            .schema()
            .attributes()
            .last()
            .unwrap()
            .domain_size();
        *batch.inserts[0].last_mut().unwrap() = domain as u32;
        batch
    }

    fn is_out_of_domain(result: &Result<()>) -> bool {
        matches!(
            result,
            Err(CoreError::Engine(EngineError::ValueOutOfDomain { .. }))
        )
    }

    #[test]
    fn replay_refuses_an_out_of_domain_update_cell() {
        let live = build(MechanismKind::Vanilla, 6.0);
        let damaged = out_of_domain_insert(&live);
        let fresh = build(MechanismKind::Vanilla, 6.0);
        let refused = fresh.replay_update(damaged);
        assert!(is_out_of_domain(&refused), "{refused:?}");
        assert_eq!(fresh.pending_updates(), 0);
        // Nothing pending: the next seal is an empty epoch, not a panic.
        assert_eq!(fresh.seal_epoch().unwrap().rows, 0);
    }

    #[test]
    fn import_refuses_an_out_of_domain_update_cell() {
        for sealed in [false, true] {
            let live = build(MechanismKind::Vanilla, 6.0);
            let damaged = out_of_domain_insert(&live);
            if sealed {
                live.seal_epoch().unwrap();
            }
            let mut state = live.export_durable_state();
            let batches = if sealed {
                &mut state.deltas.sealed[0].batches
            } else {
                &mut state.deltas.pending
            };
            batches[0] = damaged;

            let fresh = build(MechanismKind::Vanilla, 6.0);
            let before = fresh.export_durable_state();
            let refused = fresh.import_durable_state(&state);
            assert!(is_out_of_domain(&refused), "sealed {sealed}: {refused:?}");
            assert_eq!(fresh.export_durable_state(), before, "nothing applied");
            assert_eq!(fresh.seal_epoch().unwrap().rows, 0);
        }
    }

    #[test]
    fn export_import_round_trips_delta_state() {
        let live = build(MechanismKind::AdditiveGaussian, 6.0);
        live.apply_update(&adult_insert(&[30, 31])).unwrap();
        live.seal_epoch().unwrap();
        let _ = live
            .submit_shared(AnalystId(1), &range_request(25, 45, 700.0))
            .unwrap();
        live.apply_update(&adult_insert(&[33])).unwrap(); // pending
        let state = live.export_durable_state();
        assert_eq!(state.deltas.current_epoch, 1);
        assert_eq!(state.deltas.pending.len(), 1);

        let fresh = build(MechanismKind::AdditiveGaussian, 6.0);
        fresh.import_durable_state(&state).unwrap();
        assert_eq!(fresh.current_epoch(), 1);
        assert_eq!(fresh.pending_updates(), 1);
        assert_eq!(fresh.export_durable_state(), state);
        let q = Query::range_count("adult", "age", 30, 33);
        assert_eq!(
            fresh.true_answer(&q).unwrap().to_bits(),
            live.true_answer(&q).unwrap().to_bits()
        );
    }

    #[test]
    fn concurrent_submissions_never_overspend_any_constraint() {
        // A miniature of the server stress test, at the core layer: many
        // threads hammer the same view through `submit_with_rng` and the
        // provenance table must end inside every constraint.
        use std::sync::Arc;
        for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
            let db = adult_database(1_000, 1);
            let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
            let mut registry = AnalystRegistry::new();
            for i in 0..4 {
                registry
                    .register(&format!("a{i}"), [1, 2, 4, 8][i % 4])
                    .unwrap();
            }
            let config = SystemConfig::new(1.6).unwrap().with_seed(3);
            let system = Arc::new(DProvDb::new(db, catalog, registry, config, mechanism).unwrap());
            let mut handles = Vec::new();
            for t in 0..8u64 {
                let system = Arc::clone(&system);
                handles.push(std::thread::spawn(move || {
                    let mut rng = DpRng::for_stream(3, t);
                    for i in 0..25 {
                        let variance = 400.0 * 0.9f64.powi(i);
                        let request = QueryRequest::with_accuracy(
                            Query::range_count("adult", "age", 25, 55),
                            variance,
                        );
                        let analyst = AnalystId((t as usize) % 4);
                        let _ = system.submit_with_rng(analyst, &request, &mut rng).unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let provenance = system.provenance();
            for a in 0..4 {
                let analyst = AnalystId(a);
                assert!(
                    provenance.row_total(analyst) <= provenance.row_constraint(analyst) + 1e-6,
                    "{mechanism}: row constraint overspent"
                );
            }
            for view in provenance.view_names() {
                let col = match mechanism {
                    MechanismKind::Vanilla => provenance.column_sum(view),
                    MechanismKind::AdditiveGaussian => provenance.column_max(view),
                };
                assert!(
                    col <= provenance.col_constraint(view) + 1e-6,
                    "{mechanism}: column constraint overspent"
                );
            }
            let total = match mechanism {
                MechanismKind::Vanilla => provenance.total_sum(),
                MechanismKind::AdditiveGaussian => provenance.total_of_column_maxes(),
            };
            assert!(
                total <= provenance.table_constraint() + 1e-6,
                "{mechanism}: table constraint overspent"
            );
        }
    }
}
