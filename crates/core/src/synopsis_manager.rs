//! Global and local synopsis management (Section 5.2.2), sharded for
//! concurrent access.
//!
//! For every registered view the manager caches the exact histogram (built
//! once at setup) and maintains:
//!
//! * one **global** DP synopsis `V^ε` — hidden from every analyst — whose
//!   budget can only grow over time; when a query needs a more accurate
//!   global synopsis, a *delta* synopsis `V^Δε` is generated from the exact
//!   histogram and merged with the previous one using the inverse-variance
//!   (UMVUE) weight of Eq. (2);
//! * one **local** synopsis per (analyst, view) — the only thing an analyst
//!   ever sees — produced by adding *more* Gaussian noise on top of the
//!   global synopsis (the additive Gaussian mechanism, Algorithm 3), so
//!   that even full collusion reveals no more than the global synopsis;
//! * for the vanilla mechanism, per-(analyst, view) cached synopses drawn
//!   *independently* from the exact histogram.
//!
//! # Concurrency
//!
//! The cache is **lock-striped per view**: each registered view owns one
//! shard holding its mutable state (the global synopsis and the per-analyst
//! locals) behind its own [`RwLock`]. The view map itself is immutable after
//! setup, so lookups never contend. Cache probes ([`SynopsisManager::local`],
//! the `global_*` getters) take a shard *read* lock — the read-mostly fast
//! path for repeated queries — while releases take the shard *write* lock.
//! Queries over different views therefore proceed fully in parallel.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use dprov_delta::{patch_histogram, EncodedBatch, EpochPolicy};
use dprov_dp::budget::{Budget, Delta, Epsilon};
use dprov_dp::mechanism::analytic_gaussian::AnalyticGaussian;
use dprov_dp::rng::DpRng;
use dprov_dp::sensitivity::Sensitivity;
use dprov_engine::database::Database;
use dprov_engine::histogram::Histogram;
use dprov_engine::synopsis::Synopsis;
use dprov_engine::view::ViewDef;
use dprov_obs::{CounterId, MetricsRegistry};

use crate::error::{CoreError, Result, StorageError};
use crate::recorder::{GlobalSynopsisState, LocalSynopsisState, ViewCacheState};

#[cfg(test)]
thread_local! {
    /// Test-only failpoint: the next data release on this thread fails,
    /// after its admission committed.
    pub(crate) static FAIL_NEXT_RELEASE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Fails when a test armed [`FAIL_NEXT_RELEASE`].
#[cfg(test)]
fn injected_release_failure() -> Result<()> {
    if FAIL_NEXT_RELEASE.with(|armed| armed.replace(false)) {
        return Err(CoreError::InvalidConfig(
            "injected release failure".to_owned(),
        ));
    }
    Ok(())
}

/// A synopsis together with the nominal budget spent on it and the update
/// epoch it was released against.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedSynopsis {
    /// The noisy counts and their actual per-bin variance.
    pub synopsis: Synopsis,
    /// The nominal epsilon this synopsis is worth.
    pub epsilon: f64,
    /// The update epoch whose exact histogram the release observed.
    pub epoch: u64,
}

/// The mutable, per-view slice of cache state guarded by one shard lock.
#[derive(Debug, Clone)]
struct ShardState {
    /// The exact histogram at the view's current data epoch (patched
    /// incrementally — or rebuilt — at every epoch seal that touches the
    /// view's base table).
    exact: Histogram,
    /// The epoch of the last seal that changed this view's data (0 =
    /// setup state: the view has never been touched by an update).
    data_epoch: u64,
    /// The hidden global synopsis (additive mechanism), if released yet.
    global: Option<BudgetedSynopsis>,
    /// Local synopses (additive mechanism) or cached per-analyst synopses
    /// (vanilla mechanism), keyed by analyst index.
    locals: HashMap<usize, BudgetedSynopsis>,
}

/// One managed view: immutable definition plus the lock-guarded mutable
/// state (exact histogram, data epoch, cached synopses).
#[derive(Debug)]
struct ViewShard {
    def: ViewDef,
    state: RwLock<ShardState>,
}

/// The synopsis manager: a sharded, lock-striped cache of global and local
/// synopses, safe to share across worker threads (`&self` everywhere after
/// setup).
#[derive(Debug)]
pub struct SynopsisManager {
    delta: Delta,
    shards: HashMap<String, ViewShard>,
    /// The last sealed update epoch; new releases are stamped with it.
    epoch: AtomicU64,
    /// Counts the calibrations this manager runs (`dp.calibrations`);
    /// disabled until the owning system installs its registry.
    metrics: MetricsRegistry,
}

impl Clone for SynopsisManager {
    fn clone(&self) -> Self {
        SynopsisManager {
            delta: self.delta,
            shards: self
                .shards
                .iter()
                .map(|(name, shard)| {
                    (
                        name.clone(),
                        ViewShard {
                            def: shard.def.clone(),
                            state: RwLock::new(shard.state.read().expect("shard poisoned").clone()),
                        },
                    )
                })
                .collect(),
            epoch: AtomicU64::new(self.epoch.load(Ordering::SeqCst)),
            metrics: self.metrics.clone(),
        }
    }
}

impl SynopsisManager {
    /// Creates a manager with the system δ.
    #[must_use]
    pub fn new(delta: Delta) -> Self {
        SynopsisManager {
            delta,
            shards: HashMap::new(),
            epoch: AtomicU64::new(0),
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Installs the registry the manager's calibrations are counted in.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// The last sealed update epoch new releases are stamped with.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Registers a view and materialises its exact histogram (this is the
    /// "setup time" cost reported in Tables 1 and 3). Setup-phase only:
    /// takes `&mut self`, so registration cannot race with serving.
    pub fn register_view(&mut self, db: &Database, def: &ViewDef) -> Result<()> {
        let exact = Histogram::materialize(db, def).map_err(CoreError::Engine)?;
        self.insert_view(def, exact);
        Ok(())
    }

    /// Registers many views at once, materialising their exact histograms
    /// through the columnar executor: all views over one base table share a
    /// single pass over its shards (`dprov-exec`), so a catalog of `k`
    /// views costs one scan instead of `k`. The histograms are
    /// bit-identical to [`Histogram::materialize`].
    pub fn register_views(
        &mut self,
        exec: &dprov_exec::ColumnarExecutor,
        defs: &[ViewDef],
    ) -> Result<()> {
        let histograms = exec
            .materialize_histograms(defs)
            .map_err(CoreError::Engine)?;
        for (def, exact) in defs.iter().zip(histograms) {
            self.insert_view(def, exact);
        }
        Ok(())
    }

    fn insert_view(&mut self, def: &ViewDef, exact: Histogram) {
        self.shards.insert(
            def.name.clone(),
            ViewShard {
                def: def.clone(),
                state: RwLock::new(ShardState {
                    exact,
                    data_epoch: 0,
                    global: None,
                    locals: HashMap::new(),
                }),
            },
        );
    }

    /// Names of the registered views.
    #[must_use]
    pub fn view_names(&self) -> Vec<String> {
        self.shards.keys().cloned().collect()
    }

    /// Number of registered views (= number of lock stripes).
    #[must_use]
    pub fn num_views(&self) -> usize {
        self.shards.len()
    }

    /// The sensitivity of a registered view.
    pub fn sensitivity(&self, view: &str) -> Result<Sensitivity> {
        Ok(self.shard(view)?.def.sensitivity())
    }

    /// The exact histogram of a registered view at its current data epoch
    /// (cloned out of the shard — the histogram mutates at epoch seals).
    pub fn exact_histogram(&self, view: &str) -> Result<Histogram> {
        Ok(self.read_state(view)?.exact.clone())
    }

    /// The epoch of the last seal that changed a view's data (0 = never
    /// touched by an update).
    pub fn data_epoch(&self, view: &str) -> Result<u64> {
        Ok(self.read_state(view)?.data_epoch)
    }

    /// The registered view definitions whose base table is `table`.
    #[must_use]
    pub fn views_over_table(&self, table: &str) -> Vec<ViewDef> {
        let mut defs: Vec<ViewDef> = self
            .shards
            .values()
            .filter(|s| s.def.table == table)
            .map(|s| s.def.clone())
            .collect();
        defs.sort_by(|a, b| a.name.cmp(&b.name));
        defs
    }

    /// Patches a view's exact histogram in place from the delta rows of an
    /// epoch's batches (incremental maintenance; bit-identical to a full
    /// rebuild — see `dprov-delta`). Does not advance any epoch counter;
    /// callers follow up with [`Self::apply_epoch`].
    pub fn patch_exact(
        &self,
        view: &str,
        schema: &dprov_engine::schema::Schema,
        batches: &[EncodedBatch],
    ) -> Result<()> {
        let shard = self.shard(view)?;
        let mut state = shard.state.write().expect("shard poisoned");
        patch_histogram(&mut state.exact, &shard.def, schema, batches)
            .map_err(|e| CoreError::InvalidConfig(format!("incremental patch failed: {e}")))
    }

    /// Applies an epoch seal to the cache: advances the release epoch,
    /// marks the touched views' data epoch, and invalidates every cached
    /// synopsis the policy no longer retains (touched views immediately
    /// under re-noise; any view whose stale synopses exceed the
    /// carry-forward bound). Returns the number of synopses invalidated.
    pub fn apply_epoch(&self, new_epoch: u64, touched: &[String], policy: EpochPolicy) -> usize {
        self.epoch.store(new_epoch, Ordering::SeqCst);
        let mut invalidated = 0usize;
        for (name, shard) in &self.shards {
            let mut state = shard.state.write().expect("shard poisoned");
            if touched.iter().any(|t| t == name) {
                state.data_epoch = new_epoch;
            }
            let data_epoch = state.data_epoch;
            if let Some(global) = &state.global {
                if !policy.retains(global.epoch, data_epoch, new_epoch) {
                    state.global = None;
                    invalidated += 1;
                }
            }
            let before = state.locals.len();
            state
                .locals
                .retain(|_, local| policy.retains(local.epoch, data_epoch, new_epoch));
            invalidated += before - state.locals.len();
        }
        invalidated
    }

    /// One consistent snapshot of the global synopsis's `(epsilon,
    /// per-bin variance)` — a single read-lock acquisition, so concurrent
    /// growth cannot be observed half-applied between the two fields.
    pub fn global_state(&self, view: &str) -> Result<Option<(f64, f64)>> {
        Ok(self
            .read_state(view)?
            .global
            .as_ref()
            .map(|g| (g.epsilon, g.synopsis.per_bin_variance)))
    }

    /// A snapshot of the current global synopsis.
    #[cfg(test)]
    pub(crate) fn global_synopsis(&self, view: &str) -> Result<Option<BudgetedSynopsis>> {
        Ok(self.read_state(view)?.global.clone())
    }

    /// The local (or vanilla-cached) synopsis of an analyst on a view,
    /// cloned out of the shard. Prefer [`Self::with_local`] on hot paths.
    #[must_use]
    pub fn local(&self, analyst: usize, view: &str) -> Option<BudgetedSynopsis> {
        self.with_local(analyst, view, Clone::clone)
    }

    /// Evaluates `f` against an analyst's local synopsis under the shard's
    /// read guard — the cache-probe fast path: concurrent hits on one view
    /// do not block each other and nothing is cloned. Returns `None` when
    /// the view or the local synopsis does not exist.
    pub fn with_local<R>(
        &self,
        analyst: usize,
        view: &str,
        f: impl FnOnce(&BudgetedSynopsis) -> R,
    ) -> Option<R> {
        let shard = self.shards.get(view)?;
        let state = shard.state.read().expect("shard poisoned");
        state.locals.get(&analyst).map(f)
    }

    fn shard(&self, view: &str) -> Result<&ViewShard> {
        self.shards.get(view).ok_or_else(|| {
            CoreError::Engine(dprov_engine::EngineError::UnknownView(view.to_owned()))
        })
    }

    fn read_state(&self, view: &str) -> Result<std::sync::RwLockReadGuard<'_, ShardState>> {
        Ok(self.shard(view)?.state.read().expect("shard poisoned"))
    }

    /// Exports the full cache state (hidden globals plus every analyst's
    /// local synopsis) for durable snapshots. Views are emitted in sorted
    /// order and locals in analyst order, so two exports of the same state
    /// are byte-identical after serialisation.
    #[must_use]
    pub fn export_cache(&self) -> Vec<ViewCacheState> {
        let mut names: Vec<&String> = self.shards.keys().collect();
        names.sort();
        names
            .into_iter()
            .filter_map(|name| {
                let state = self.shards[name].state.read().expect("shard poisoned");
                if state.global.is_none() && state.locals.is_empty() {
                    return None;
                }
                let mut locals: Vec<LocalSynopsisState> = state
                    .locals
                    .iter()
                    .map(|(&analyst, s)| LocalSynopsisState {
                        analyst,
                        epsilon: s.epsilon,
                        variance: s.synopsis.per_bin_variance,
                        epoch: s.epoch,
                        counts: s.synopsis.counts.clone(),
                    })
                    .collect();
                locals.sort_by_key(|l| l.analyst);
                Some(ViewCacheState {
                    view: name.clone(),
                    global: state.global.as_ref().map(|g| GlobalSynopsisState {
                        epsilon: g.epsilon,
                        variance: g.synopsis.per_bin_variance,
                        epoch: g.epoch,
                        counts: g.synopsis.counts.clone(),
                    }),
                    locals,
                })
            })
            .collect()
    }

    /// Checks, without touching any state, that a cache state fits this
    /// manager and a roster of `analysts`: every view is registered, every
    /// synopsis has the view's bin count, and every local synopsis belongs
    /// to a registered analyst.
    pub fn check_cache(&self, views: &[ViewCacheState], analysts: usize) -> Result<()> {
        for view in views {
            let refuse = |what: &str| {
                Err(CoreError::Storage(StorageError::IncompatibleState(
                    format!("snapshot cache of view {}: {what}", view.view),
                )))
            };
            let Ok(state) = self.read_state(&view.view) else {
                return refuse("view not registered");
            };
            let bins = state.exact.counts.len();
            if view
                .global
                .iter()
                .map(|g| &g.counts)
                .chain(view.locals.iter().map(|l| &l.counts))
                .any(|c| c.len() != bins)
            {
                return refuse("synopsis bin count differs from the view's");
            }
            if view.locals.iter().any(|l| l.analyst >= analysts) {
                return refuse("local synopsis of an unregistered analyst");
            }
        }
        Ok(())
    }

    /// Restores a cache state exported by [`Self::export_cache`] (snapshot
    /// recovery). Replaces the state of every mentioned view; refuses, with
    /// nothing installed, a state that [`Self::check_cache`] refuses.
    pub fn import_cache(&self, views: &[ViewCacheState], analysts: usize) -> Result<()> {
        self.check_cache(views, analysts)?;
        for view in views {
            let shard = &self.shards[&view.view];
            let mut state = shard.state.write().expect("shard poisoned");
            state.global = view.global.as_ref().map(|g| BudgetedSynopsis {
                synopsis: Synopsis::new(&view.view, g.counts.clone(), g.variance),
                epsilon: g.epsilon,
                epoch: g.epoch,
            });
            state.locals = view
                .locals
                .iter()
                .map(|l| {
                    (
                        l.analyst,
                        BudgetedSynopsis {
                            synopsis: Synopsis::new(&view.view, l.counts.clone(), l.variance),
                            epsilon: l.epsilon,
                            epoch: l.epoch,
                        },
                    )
                })
                .collect();
        }
        Ok(())
    }

    /// Calibrates the analytic Gaussian mechanism for `epsilon` on `view`
    /// under the system δ. Every calibration the serving path runs outside
    /// a translation goes through here and is counted (`dp.calibrations`).
    pub fn calibrate(&self, view: &str, epsilon: f64) -> Result<AnalyticGaussian> {
        self.calibrate_on(self.shard(view)?, epsilon)
    }

    /// The mechanism for a release at `epsilon` on `view`: `known` itself
    /// when it was calibrated for exactly this release, one (counted)
    /// calibration otherwise.
    pub fn mechanism(
        &self,
        view: &str,
        epsilon: f64,
        known: Option<AnalyticGaussian>,
    ) -> Result<AnalyticGaussian> {
        self.mechanism_for(self.shard(view)?, epsilon, known)
    }

    fn calibrate_on(&self, shard: &ViewShard, epsilon: f64) -> Result<AnalyticGaussian> {
        self.metrics.incr(CounterId::Calibrations);
        let budget = Budget::from_parts(Epsilon::new(epsilon)?, self.delta);
        Ok(AnalyticGaussian::calibrate(
            budget,
            shard.def.sensitivity(),
        )?)
    }

    /// The mechanism for a release at `epsilon`: `known` itself when the
    /// caller's request already calibrated exactly this (ε, δ, Δ) — an ε
    /// travels with its σ — and one calibration otherwise.
    fn mechanism_for(
        &self,
        shard: &ViewShard,
        epsilon: f64,
        known: Option<AnalyticGaussian>,
    ) -> Result<AnalyticGaussian> {
        match known {
            Some(m)
                if m.budget().epsilon.value().to_bits() == epsilon.to_bits()
                    && m.budget().delta == self.delta
                    && m.sensitivity() == shard.def.sensitivity().value() =>
            {
                Ok(m)
            }
            _ => self.calibrate_on(shard, epsilon),
        }
    }

    /// Generates a *fresh, independent* synopsis of the view at the given
    /// budget — the vanilla mechanism's release, also used for the static
    /// sPrivateSQL synopses. Reads the exact histogram under the shard's
    /// read guard, so it observes a whole number of sealed epochs.
    /// `known` is the mechanism the request already calibrated, if any; it
    /// is used only when it was calibrated for exactly this release.
    pub fn fresh_synopsis(
        &self,
        view: &str,
        epsilon: f64,
        known: Option<AnalyticGaussian>,
        rng: &mut DpRng,
    ) -> Result<Synopsis> {
        #[cfg(test)]
        injected_release_failure()?;
        let shard = self.shard(view)?;
        let mechanism = self.mechanism_for(shard, epsilon, known)?;
        let state = shard.state.read().expect("shard poisoned");
        let counts = mechanism.release_vector(&state.exact.counts, rng);
        Ok(Synopsis::new(view, counts, mechanism.variance()))
    }

    /// Stores a per-(analyst, view) synopsis (vanilla cache or additive
    /// local) under the shard's write lock.
    pub fn store_local(&self, analyst: usize, view: &str, synopsis: BudgetedSynopsis) {
        if let Some(shard) = self.shards.get(view) {
            shard
                .state
                .write()
                .expect("shard poisoned")
                .locals
                .insert(analyst, synopsis);
        }
    }

    /// Grows the global synopsis of `view` to nominal budget
    /// `target_epsilon` by releasing `growth`, the mechanism whose epsilon
    /// the caller decided under the view's admission lock: the whole
    /// target when no synopsis exists yet, `Δε = target − current`
    /// otherwise (a target the synopsis already covers needs no growth).
    ///
    /// * No existing synopsis: the release becomes the global synopsis.
    /// * Existing synopsis: the release is a delta synopsis `V^Δε`, merged
    ///   with the UMVUE weight (Eq. 2); note the *friction*: the combined
    ///   variance is larger than a one-shot synopsis at the full budget
    ///   would have.
    ///
    /// The release and the merge are atomic under the shard's write lock,
    /// so a concurrent reader never observes a partial grow.
    pub fn grow_global(
        &self,
        view: &str,
        target_epsilon: f64,
        growth: AnalyticGaussian,
        rng: &mut DpRng,
    ) -> Result<()> {
        #[cfg(test)]
        injected_release_failure()?;
        let shard = self.shard(view)?;
        let release_epoch = self.current_epoch();
        let mut guard = shard.state.write().expect("shard poisoned");
        let state = &mut *guard;
        let counts = growth.release_vector(&state.exact.counts, rng);
        let fresh = Synopsis::new(view, counts, growth.variance());
        match &mut state.global {
            None => {
                state.global = Some(BudgetedSynopsis {
                    synopsis: fresh,
                    epsilon: target_epsilon,
                    epoch: release_epoch,
                });
            }
            Some(global) => {
                // Eq. (2): weight on the fresh synopsis minimising the
                // combined variance.
                let w = global
                    .synopsis
                    .optimal_combination_weight(fresh.per_bin_variance);
                global.synopsis = global.synopsis.combine(&fresh, w);
                global.epsilon = target_epsilon;
                // The merge keeps the OLDER component's epoch: under a
                // carry-forward policy a merged synopsis still embeds
                // stale-epoch observations, so stamping it newer would let
                // old data escape the staleness bound forever. (Under
                // re-noise a stale global cannot reach this point — it was
                // invalidated at the seal.)
                global.epoch = global.epoch.min(release_epoch);
            }
        }
        Ok(())
    }

    /// Derives (and stores) a local synopsis for `analyst` on `view` at
    /// budget `local_epsilon` from the current global synopsis by adding
    /// extra Gaussian noise (the additive Gaussian mechanism). The local
    /// synopsis's total per-bin variance is `max(σ(ε_loc)², v_global)`.
    ///
    /// The global synopsis must already exist with a nominal budget at least
    /// `local_epsilon` (callers go through [`Self::grow_global`] first).
    /// `known` is the mechanism the request already calibrated, if any.
    pub fn derive_local(
        &self,
        analyst: usize,
        view: &str,
        local_epsilon: f64,
        known: Option<AnalyticGaussian>,
        rng: &mut DpRng,
    ) -> Result<BudgetedSynopsis> {
        let shard = self.shard(view)?;
        let (global_counts, global_variance, global_epoch) = {
            let state = shard.state.read().expect("shard poisoned");
            let global = state.global.as_ref().ok_or_else(|| {
                CoreError::InvalidConfig(format!(
                    "derive_local called before a global synopsis exists for {view}"
                ))
            })?;
            debug_assert!(global.epsilon + 1e-9 >= local_epsilon);
            (
                global.synopsis.counts.clone(),
                global.synopsis.per_bin_variance,
                global.epoch,
            )
        };

        let local_variance = self.mechanism_for(shard, local_epsilon, known)?.variance();
        let target_variance = local_variance.max(global_variance);
        let extra_variance = (target_variance - global_variance).max(0.0);
        let extra_sigma = extra_variance.sqrt();
        let counts: Vec<f64> = global_counts
            .iter()
            .map(|&c| c + rng.gaussian(extra_sigma))
            .collect();
        let local = BudgetedSynopsis {
            synopsis: Synopsis::new(view, counts, target_variance),
            epsilon: local_epsilon,
            epoch: global_epoch,
        };
        self.store_local(analyst, view, local.clone());
        Ok(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_dp::mechanism::analytic_gaussian::analytic_gaussian_sigma;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_engine::view::ViewDef;

    fn setup() -> (SynopsisManager, DpRng) {
        let db = adult_database(2_000, 3);
        let mut mgr = SynopsisManager::new(Delta::new(1e-9).unwrap());
        mgr.register_view(&db, &ViewDef::histogram("adult.age", "adult", &["age"]))
            .unwrap();
        mgr.register_view(&db, &ViewDef::histogram("adult.sex", "adult", &["sex"]))
            .unwrap();
        (mgr, DpRng::seed_from_u64(11))
    }

    /// Grows `view`'s global synopsis to `target` as an admission decides
    /// the growth: the whole target first, then only the difference, and
    /// nothing once the synopsis covers the target.
    fn grow_to(mgr: &SynopsisManager, view: &str, target: f64, rng: &mut DpRng) {
        let growth = match mgr.global_state(view).unwrap().map(|(e, _)| e) {
            Some(current) if current + 1e-12 >= target => return,
            Some(current) => target - current,
            None => target,
        };
        let mechanism = mgr.calibrate(view, growth).unwrap();
        mgr.grow_global(view, target, mechanism, rng).unwrap();
    }

    #[test]
    fn register_views_shares_one_scan_and_matches_register_view() {
        let db = adult_database(2_000, 3);
        let exec = dprov_exec::ColumnarExecutor::ingest(&db, &dprov_exec::ExecConfig::default());
        let defs = vec![
            ViewDef::histogram("adult.age", "adult", &["age"]),
            ViewDef::histogram("adult.sex", "adult", &["sex"]),
        ];
        let mut batched = SynopsisManager::new(Delta::new(1e-9).unwrap());
        batched.register_views(&exec, &defs).unwrap();
        let (reference, _) = setup();
        for name in ["adult.age", "adult.sex"] {
            assert_eq!(
                batched.exact_histogram(name).unwrap(),
                reference.exact_histogram(name).unwrap(),
                "{name}: shared-scan histogram must equal the row-loop one"
            );
        }
        // Both views ride the same base-table pass.
        assert_eq!(exec.stats().histogram_scans, 1);
        assert_eq!(exec.stats().histograms, 2);
    }

    #[test]
    fn register_and_query_metadata() {
        let (mgr, _) = setup();
        assert_eq!(mgr.view_names().len(), 2);
        assert_eq!(mgr.num_views(), 2);
        assert!(mgr.global_state("adult.age").unwrap().is_none());
        assert!(mgr.exact_histogram("adult.age").unwrap().total() > 0.0);
        assert!(mgr.exact_histogram("nope").is_err());
        assert!(
            (mgr.sensitivity("adult.age").unwrap().value() - std::f64::consts::SQRT_2).abs()
                < 1e-12
        );
    }

    #[test]
    fn fresh_synopsis_has_the_calibrated_variance() {
        let (mgr, mut rng) = setup();
        let s = mgr
            .fresh_synopsis("adult.age", 1.0, None, &mut rng)
            .unwrap();
        let sigma = analytic_gaussian_sigma(1.0, 1e-9, std::f64::consts::SQRT_2).unwrap();
        assert!((s.per_bin_variance - sigma * sigma).abs() < 1e-9);
        assert_eq!(s.counts.len(), 74);
    }

    #[test]
    fn grow_global_creates_then_grows() {
        let (mgr, mut rng) = setup();
        let sigma_at = |eps| analytic_gaussian_sigma(eps, 1e-9, std::f64::consts::SQRT_2).unwrap();
        let first = mgr.calibrate("adult.age", 0.5).unwrap();
        mgr.grow_global("adult.age", 0.5, first, &mut rng).unwrap();
        let (eps, v_first) = mgr.global_state("adult.age").unwrap().unwrap();
        assert_eq!(eps, 0.5);
        assert_eq!(v_first, first.variance());
        assert_eq!(first.sigma(), sigma_at(0.5));

        // Growing to 0.7 releases a delta synopsis at the difference and
        // merges it, reducing the variance.
        let delta = mgr.calibrate("adult.age", 0.7 - 0.5).unwrap();
        mgr.grow_global("adult.age", 0.7, delta, &mut rng).unwrap();
        let (eps, v_combined) = mgr.global_state("adult.age").unwrap().unwrap();
        assert_eq!(eps, 0.7);
        assert!(v_combined < v_first.min(delta.variance()));

        // Friction: the combined synopsis is noisier than a one-shot 0.7.
        assert!(v_combined > sigma_at(0.7) * sigma_at(0.7));
    }

    #[test]
    fn a_known_mechanism_is_reused_only_for_its_own_epsilon() {
        // Same seed, with and without the travelling mechanism: identical
        // releases; a mechanism for another epsilon is ignored.
        let release = |known_eps: Option<f64>| {
            let (mgr, mut rng) = setup();
            let known = known_eps.map(|e| mgr.calibrate("adult.age", e).unwrap());
            grow_to(&mgr, "adult.age", 0.8, &mut rng);
            let local = mgr
                .derive_local(0, "adult.age", 0.8, known, &mut rng)
                .unwrap();
            let fresh = mgr
                .fresh_synopsis("adult.age", 0.8, known, &mut rng)
                .unwrap();
            (mgr.global_synopsis("adult.age").unwrap(), local, fresh)
        };
        let plain = release(None);
        assert_eq!(release(Some(0.8)), plain);
        assert_eq!(release(Some(0.4)), plain);
    }

    #[test]
    fn derive_local_adds_noise_and_respects_budget_ordering() {
        let (mgr, mut rng) = setup();
        grow_to(&mgr, "adult.age", 1.0, &mut rng);
        let (_, global_var) = mgr.global_state("adult.age").unwrap().unwrap();

        let local_small = mgr
            .derive_local(0, "adult.age", 0.2, None, &mut rng)
            .unwrap();
        let local_big = mgr
            .derive_local(1, "adult.age", 0.9, None, &mut rng)
            .unwrap();
        // A smaller local budget means a noisier local synopsis.
        assert!(local_small.synopsis.per_bin_variance > local_big.synopsis.per_bin_variance);
        // Local variance can never be below the global variance.
        assert!(local_small.synopsis.per_bin_variance >= global_var);
        assert!(local_big.synopsis.per_bin_variance >= global_var);
        // Locals are cached per analyst.
        assert_eq!(mgr.local(0, "adult.age").unwrap().epsilon, 0.2);
        assert_eq!(mgr.local(1, "adult.age").unwrap().epsilon, 0.9);
        assert!(mgr.local(2, "adult.age").is_none());
    }

    #[test]
    fn derive_local_matches_the_analytic_calibration() {
        let (mgr, mut rng) = setup();
        grow_to(&mgr, "adult.age", 1.0, &mut rng);
        let local = mgr
            .derive_local(0, "adult.age", 0.4, None, &mut rng)
            .unwrap();
        let sigma = analytic_gaussian_sigma(0.4, 1e-9, std::f64::consts::SQRT_2).unwrap();
        assert!((local.synopsis.per_bin_variance - sigma * sigma).abs() < 1e-9);
    }

    #[test]
    fn derive_local_without_global_is_an_error() {
        let (mgr, mut rng) = setup();
        assert!(mgr
            .derive_local(0, "adult.age", 0.4, None, &mut rng)
            .is_err());
    }

    #[test]
    fn local_noise_is_added_on_top_of_the_global_counts() {
        // The local synopsis must be a noisier version of the *global*
        // counts, not of the exact histogram: check the local counts differ
        // from the global ones (extra noise was added) with equal length.
        let (mgr, mut rng) = setup();
        grow_to(&mgr, "adult.sex", 2.0, &mut rng);
        let global_counts = mgr
            .global_synopsis("adult.sex")
            .unwrap()
            .unwrap()
            .synopsis
            .counts;
        let local = mgr
            .derive_local(0, "adult.sex", 0.1, None, &mut rng)
            .unwrap();
        assert_eq!(local.synopsis.counts.len(), global_counts.len());
        assert_ne!(local.synopsis.counts, global_counts);
    }

    #[test]
    fn export_import_round_trips_the_cache() {
        let (mgr, mut rng) = setup();
        grow_to(&mgr, "adult.age", 1.0, &mut rng);
        mgr.derive_local(0, "adult.age", 0.5, None, &mut rng)
            .unwrap();
        mgr.derive_local(2, "adult.age", 0.3, None, &mut rng)
            .unwrap();
        let exported = mgr.export_cache();
        // Only the touched view is exported.
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].view, "adult.age");
        assert_eq!(exported[0].locals.len(), 2);
        assert_eq!(exported[0].locals[0].analyst, 0);

        let (fresh, _) = setup();
        fresh.import_cache(&exported, 3).unwrap();
        assert_eq!(
            fresh.global_state("adult.age").unwrap(),
            mgr.global_state("adult.age").unwrap()
        );
        let a = fresh.local(0, "adult.age").unwrap();
        let b = mgr.local(0, "adult.age").unwrap();
        assert_eq!(a.synopsis.counts, b.synopsis.counts);
        assert_eq!(a.epsilon, b.epsilon);
        assert!(fresh.local(1, "adult.age").is_none());
        // Exports are deterministic.
        assert_eq!(fresh.export_cache(), exported);
    }

    #[test]
    fn import_refuses_unknown_views() {
        let (mgr, _) = setup();
        let bogus = vec![ViewCacheState {
            view: "nope".to_owned(),
            global: None,
            locals: vec![],
        }];
        assert!(matches!(
            mgr.import_cache(&bogus, 3),
            Err(CoreError::Storage(StorageError::IncompatibleState(_)))
        ));
    }

    #[test]
    fn clone_snapshots_the_cache_state() {
        let (mgr, mut rng) = setup();
        grow_to(&mgr, "adult.age", 1.0, &mut rng);
        mgr.derive_local(0, "adult.age", 0.5, None, &mut rng)
            .unwrap();
        let snapshot = mgr.clone();
        assert_eq!(
            snapshot.global_state("adult.age").unwrap().map(|(e, _)| e),
            Some(1.0)
        );
        assert_eq!(snapshot.local(0, "adult.age").unwrap().epsilon, 0.5);
        // Mutating the original does not leak into the snapshot.
        grow_to(&mgr, "adult.age", 2.0, &mut rng);
        assert_eq!(
            snapshot.global_state("adult.age").unwrap().map(|(e, _)| e),
            Some(1.0)
        );
    }

    #[test]
    fn concurrent_reads_and_writes_stay_consistent() {
        // Hammer one view's shard from several threads, each deciding its
        // growth under a shared view lock as admissions do: epsilon must be
        // monotone non-decreasing and the variance monotone non-increasing
        // at every observation point.
        use std::sync::{Arc, Mutex};
        let (mgr, _) = setup();
        let mgr = Arc::new(mgr);
        let view_lock = Arc::new(Mutex::new(()));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let mgr = Arc::clone(&mgr);
            let view_lock = Arc::clone(&view_lock);
            handles.push(std::thread::spawn(move || {
                let mut rng = DpRng::seed_from_u64(100 + t);
                let mut last_eps = 0.0f64;
                let mut last_var = f64::INFINITY;
                for step in 1..=20u64 {
                    let target = (t * 20 + step) as f64 * 0.01;
                    {
                        let _view = view_lock.lock().unwrap();
                        grow_to(&mgr, "adult.age", target, &mut rng);
                    }
                    let (eps, var) = mgr.global_state("adult.age").unwrap().unwrap();
                    assert!(eps >= last_eps, "epsilon regressed: {eps} < {last_eps}");
                    assert!(var <= last_var + 1e-12, "variance grew: {var} > {last_var}");
                    last_eps = eps;
                    last_var = var;
                    mgr.derive_local(t as usize, "adult.age", eps * 0.5, None, &mut rng)
                        .unwrap();
                    assert!(mgr.local(t as usize, "adult.age").is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
