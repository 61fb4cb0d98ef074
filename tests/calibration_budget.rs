//! How much DP arithmetic one request may cost, counted by the service
//! itself (`dp.translations` / `dp.calibrations` in the core's metrics
//! registry):
//!
//! * a cache hit runs neither a translation nor a calibration;
//! * an accuracy-mode request runs one vanilla translation (two with the
//!   friction-aware search on a miss against an existing global synopsis)
//!   and releases with the mechanism that translation calibrated;
//! * a privacy-mode request calibrates its epsilon once, in resolution,
//!   and that mechanism travels into the release — the additive mechanism
//!   calibrates again only for the *different* epsilon of a global growth;
//! * an additive request whose target the global synopsis already covers
//!   grows nothing: its commit journals no data access and the global
//!   synopsis keeps its noise bit for bit;
//! * the cells of a privacy-mode grouped request share the resolution's
//!   calibration; the cells of an accuracy-mode grouped request run the
//!   search a scalar request runs, once per distinct input: cells with
//!   one shared target translate once (twice with the friction-aware
//!   search), cells with different targets translate separately.
//!
//! Also here: the configured translation precision reaches both searches,
//! and the two configurations that used to panic the first accuracy-mode
//! query are refused instead.

use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::error::{CoreError, RejectReason};
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{GroupedRequest, QueryOutcome, QueryRequest};
use dprovdb::core::recorder::{CommitRecord, DataAccess, Recorder};
use dprovdb::core::system::DProvDb;
use dprovdb::dp::rng::DpRng;
use dprovdb::dp::sensitivity::Sensitivity;
use dprovdb::dp::translation::{translate_variance_to_epsilon, FrictionAwareTranslation};
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::database::Database;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::expr::Predicate;
use dprovdb::engine::group::GroupByQuery;
use dprovdb::engine::query::Query;
use dprovdb::engine::view::ViewDef;
use std::sync::{Arc, Mutex};

/// Analyst 0 may spend a quarter of the table budget, analyst 1 all of it.
const EXTERNAL: AnalystId = AnalystId(0);
const INTERNAL: AnalystId = AnalystId(1);
const BOTH: [MechanismKind; 2] = [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian];

fn build_with(config: SystemConfig, mechanism: MechanismKind) -> Result<DProvDb, CoreError> {
    let db = adult_database(2_000, 1);
    let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    build_on(db, catalog, config, mechanism)
}

fn build_on(
    db: Database,
    catalog: ViewCatalog,
    config: SystemConfig,
    mechanism: MechanismKind,
) -> Result<DProvDb, CoreError> {
    let mut registry = AnalystRegistry::new();
    registry.register("external", 1).unwrap();
    registry.register("internal", 4).unwrap();
    DProvDb::new(db, catalog, registry, config.with_seed(7), mechanism)
}

fn build(mechanism: MechanismKind, total_epsilon: f64) -> DProvDb {
    build_with(SystemConfig::new(total_epsilon).unwrap(), mechanism).unwrap()
}

/// A 21-bin range count over `adult.age`.
fn age_range() -> Query {
    Query::range_count("adult", "age", 20, 40)
}

fn accuracy(variance: f64) -> QueryRequest {
    QueryRequest::with_accuracy(age_range(), variance)
}

fn privacy(epsilon: f64) -> QueryRequest {
    QueryRequest::with_privacy(age_range(), epsilon)
}

/// Runs `f` and returns its result with the translations and calibrations
/// the core counted while it ran.
fn counted<R>(system: &DProvDb, f: impl FnOnce() -> R) -> (R, u64, u64) {
    let read = || {
        let snapshot = system.metrics().snapshot();
        (
            snapshot.counter("dp.translations").unwrap(),
            snapshot.counter("dp.calibrations").unwrap(),
        )
    };
    let (translations, calibrations) = read();
    let result = f();
    let (translations_after, calibrations_after) = read();
    (
        result,
        translations_after - translations,
        calibrations_after - calibrations,
    )
}

fn submit(
    system: &DProvDb,
    analyst: AnalystId,
    request: &QueryRequest,
) -> (QueryOutcome, u64, u64) {
    counted(system, || system.submit_shared(analyst, request).unwrap())
}

fn charged(outcome: &QueryOutcome) -> f64 {
    match outcome {
        QueryOutcome::Answered(a) => a.epsilon_charged,
        QueryOutcome::Rejected { reason } => panic!("unexpected rejection: {reason}"),
    }
}

#[test]
fn a_cache_hit_runs_no_dp_arithmetic() {
    for mechanism in BOTH {
        let system = build(mechanism, 8.0);
        let (first, translations, calibrations) = submit(&system, INTERNAL, &accuracy(700.0));
        assert!(charged(&first) > 0.0);
        // The release reuses the translation's own calibration.
        assert_eq!((translations, calibrations), (1, 0), "{mechanism}: miss");

        let (hit, translations, calibrations) = submit(&system, INTERNAL, &accuracy(5_000.0));
        assert_eq!(charged(&hit), 0.0);
        assert_eq!((translations, calibrations), (0, 0), "{mechanism}: hit");
    }
}

#[test]
fn a_request_refused_after_translation_pays_for_the_translation_only() {
    for mechanism in BOTH {
        let system = build(mechanism, 2.0);
        // Needs epsilon ~ 1; the external analyst's row constraint is 0.5.
        let (outcome, translations, calibrations) = submit(&system, EXTERNAL, &accuracy(700.0));
        assert!(
            matches!(
                outcome,
                QueryOutcome::Rejected {
                    reason: RejectReason::AnalystConstraint { .. }
                }
            ),
            "{mechanism}: {outcome:?}"
        );
        assert_eq!((translations, calibrations), (1, 0), "{mechanism}");
    }
}

#[test]
fn a_privacy_mode_release_calibrates_each_distinct_epsilon_once() {
    // Vanilla: the resolution's calibration is the release's.
    let system = build(MechanismKind::Vanilla, 8.0);
    let (outcome, translations, calibrations) = submit(&system, INTERNAL, &privacy(0.5));
    assert_eq!(charged(&outcome), 0.5);
    assert_eq!((translations, calibrations), (0, 1));

    // Additive: creating the global and deriving the local both release at
    // the requested epsilon ...
    let system = build(MechanismKind::AdditiveGaussian, 8.0);
    let (outcome, translations, calibrations) = submit(&system, INTERNAL, &privacy(0.5));
    assert_eq!(charged(&outcome), 0.5);
    assert_eq!((translations, calibrations), (0, 1), "creates the global");
    // ... a later, larger request grows the global by a different epsilon
    // (0.9 − 0.5), which is the one extra calibration ...
    let (outcome, _, calibrations) = submit(&system, INTERNAL, &privacy(0.9));
    assert!(charged(&outcome) > 0.0);
    assert_eq!(calibrations, 2, "grows the global");
    // ... and a smaller one by another analyst needs no growth at all.
    let (outcome, _, calibrations) = submit(&system, EXTERNAL, &privacy(0.3));
    assert_eq!(charged(&outcome), 0.3);
    assert_eq!(calibrations, 1, "global already sufficient");
}

#[test]
fn a_friction_aware_miss_translates_twice_and_calibrates_the_growth_only() {
    let system = build(MechanismKind::AdditiveGaussian, 8.0);
    submit(&system, INTERNAL, &accuracy(2_000.0));
    let (outcome, translations, calibrations) = submit(&system, INTERNAL, &accuracy(500.0));
    assert!(charged(&outcome) > 0.0);
    assert_eq!(translations, 2, "vanilla + friction-aware search");
    assert!(
        calibrations <= 1,
        "only the growth's own epsilon: {calibrations}"
    );
}

#[test]
fn grouped_cells_share_the_calibration() {
    let query = GroupByQuery::count("adult", &["education_num"]);
    for mechanism in BOTH {
        // Privacy mode: one calibration in resolution serves every cell.
        let system = build(mechanism, 80.0);
        let mut rng = DpRng::seed_from_u64(3);
        let request = GroupedRequest::with_privacy(query.clone(), 0.4);
        let (grouped, translations, calibrations) = counted(&system, || {
            system
                .answer_group_by_with_rng(INTERNAL, &request, &mut rng)
                .unwrap()
        });
        assert!(grouped.outcomes.len() > 1);
        assert!(grouped.outcomes.iter().all(QueryOutcome::is_answered));
        assert_eq!((translations, calibrations), (0, 1), "{mechanism}: privacy");

        // Accuracy mode, every cell refused on the analyst's constraint:
        // the cells share one target, so one translation for the whole
        // request and nothing else.
        let system = build(mechanism, 2.0);
        let request = GroupedRequest::with_accuracy(query.clone(), 30.0);
        let (grouped, translations, calibrations) = counted(&system, || {
            system
                .answer_group_by_with_rng(EXTERNAL, &request, &mut rng)
                .unwrap()
        });
        assert!(grouped.outcomes.len() > 1);
        assert!(grouped
            .outcomes
            .iter()
            .all(is_refused_by_the_row_constraint));
        assert_eq!((translations, calibrations), (1, 0), "{mechanism}: refused");
    }
}

#[test]
fn grouped_cells_refused_after_a_friction_aware_search_share_both_searches() {
    let system = build(MechanismKind::AdditiveGaussian, 8.0);
    // A loose global synopsis on the grouped view (per-bin variance
    // 2 000 / 16 = 125) ...
    submit(
        &system,
        INTERNAL,
        &QueryRequest::with_accuracy(Query::range_count("adult", "education_num", 1, 16), 2_000.0),
    );
    // ... too noisy for every one-bin cell of this request, whose local
    // share exceeds the external analyst's row constraint of 2.
    let query = GroupByQuery::count("adult", &["education_num"]);
    let request = GroupedRequest::with_accuracy(query, 5.0);
    let mut rng = DpRng::seed_from_u64(3);
    let (grouped, translations, calibrations) = counted(&system, || {
        system
            .answer_group_by_with_rng(EXTERNAL, &request, &mut rng)
            .unwrap()
    });
    assert_eq!(grouped.outcomes.len(), 16);
    assert!(grouped
        .outcomes
        .iter()
        .all(is_refused_by_the_row_constraint));
    assert_eq!(
        (translations, calibrations),
        (2, 0),
        "one vanilla + one friction-aware search for the whole request"
    );
}

fn is_refused_by_the_row_constraint(outcome: &QueryOutcome) -> bool {
    matches!(
        outcome,
        QueryOutcome::Rejected {
            reason: RejectReason::AnalystConstraint { .. }
        }
    )
}

#[test]
fn a_friction_aware_miss_refused_by_the_row_constraint_calibrates_nothing() {
    let system = build(MechanismKind::AdditiveGaussian, 8.0);
    // A loose global synopsis exists ...
    submit(&system, INTERNAL, &accuracy(2_000.0));
    // ... too noisy for this request, whose local share (epsilon ~ 4)
    // exceeds the external analyst's row constraint of 2.
    let (outcome, translations, calibrations) = submit(&system, EXTERNAL, &accuracy(150.0));
    assert!(
        matches!(
            outcome,
            QueryOutcome::Rejected {
                reason: RejectReason::AnalystConstraint { .. }
            }
        ),
        "{outcome:?}"
    );
    assert_eq!(
        (translations, calibrations),
        (2, 0),
        "vanilla + friction-aware search, no release"
    );
}

/// Keeps whether each journalled commit carried a data access.
#[derive(Default)]
struct Accesses(Mutex<Vec<bool>>);

impl Recorder for Accesses {
    fn record_admission(
        &self,
        _commit: &CommitRecord,
        access: Option<&DataAccess>,
    ) -> Result<(), dprovdb::core::error::StorageError> {
        self.0.lock().unwrap().push(access.is_some());
        Ok(())
    }

    fn record_rollback(&self, _seq: u64) -> Result<(), dprovdb::core::error::StorageError> {
        Ok(())
    }
}

#[test]
fn an_additive_request_the_global_already_covers_releases_no_growth() {
    // Privacy mode (a smaller epsilon than the global's; its resolution
    // calibrates) and accuracy mode (a looser target than the global's
    // variance; the local reuses the translation's mechanism).
    for (first, covered, local_calibrations) in [
        (privacy(0.8), privacy(0.3), 1),
        (accuracy(500.0), accuracy(2_000.0), 0),
    ] {
        let mut system = build(MechanismKind::AdditiveGaussian, 8.0);
        let accesses = Arc::new(Accesses::default());
        system.set_recorder(Arc::clone(&accesses) as Arc<dyn Recorder>);
        submit(&system, INTERNAL, &first);
        let global = || system.export_durable_state().synopses[0].global.clone();
        let before = global().expect("the first request creates the global");

        let (outcome, _, calibrations) = submit(&system, EXTERNAL, &covered);
        assert!(charged(&outcome) > 0.0, "{covered:?}");
        assert_eq!(*accesses.0.lock().unwrap(), [true, false], "{covered:?}");
        assert_eq!(global(), Some(before), "{covered:?}: no global noise drawn");
        assert_eq!(calibrations, local_calibrations, "{covered:?}");
    }
}

#[test]
fn grouped_cells_are_priced_by_the_scalar_search() {
    // Female touches 2 bins of `sex_age`, Male 21: the second cell needs a
    // tighter synopsis than the first cell released, so both are fresh.
    let db = adult_database(2_000, 1);
    let mut catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    catalog.add_view(ViewDef::histogram("sex_age", "adult", &["sex", "age"]));
    let config = SystemConfig::new(8.0).unwrap();
    let system = build_on(
        db.clone(),
        catalog.clone(),
        config.clone(),
        MechanismKind::Vanilla,
    )
    .unwrap();
    let query = GroupByQuery::count("adult", &["sex"]).filter(Predicate::Or(vec![
        Predicate::equals("sex", "Female").and(Predicate::range("age", 30, 31)),
        Predicate::equals("sex", "Male").and(Predicate::range("age", 30, 50)),
    ]));
    const VARIANCE: f64 = 300.0;
    let request = GroupedRequest::with_accuracy(query.clone(), VARIANCE);
    let mut rng = DpRng::seed_from_u64(3);
    let (grouped, translations, calibrations) = counted(&system, || {
        system
            .answer_group_by_with_rng(INTERNAL, &request, &mut rng)
            .unwrap()
    });
    let cells = query
        .scalar_queries(db.table("adult").unwrap().schema())
        .unwrap();
    assert_eq!(grouped.outcomes.len(), cells.len());
    assert_eq!((translations, calibrations), (cells.len() as u64, 0));
    for (cell, outcome) in cells.iter().zip(&grouped.outcomes) {
        let QueryOutcome::Answered(answer) = outcome else {
            panic!("{cell:?}: {outcome:?}");
        };
        assert!(!answer.from_cache, "{cell:?} must be a fresh release");
        let (view, linear) = catalog.select_view(cell, &db).unwrap();
        let want = translate_variance_to_epsilon(
            VARIANCE / linear.answer_variance(1.0),
            config.delta,
            view.sensitivity(),
            config.total_epsilon,
            config.translation_precision,
        )
        .unwrap();
        assert_eq!(
            answer.epsilon_charged.to_bits(),
            want.epsilon.value().to_bits(),
            "{cell:?}"
        );
    }
}

#[test]
fn both_searches_honour_the_configured_precision() {
    const COARSE: f64 = 1e-2;
    let mut config = SystemConfig::new(8.0).unwrap();
    config.translation_precision = COARSE;
    let (delta, max_epsilon) = (config.delta, config.total_epsilon);
    let system = build_with(config, MechanismKind::AdditiveGaussian).unwrap();
    let sensitivity = Sensitivity::histogram_bounded();
    let vanilla = |per_bin: f64, precision: f64| {
        translate_variance_to_epsilon(per_bin, delta, sensitivity, max_epsilon, precision).unwrap()
    };

    // First release: the vanilla search alone prices it.
    let (first, ..) = submit(&system, INTERNAL, &accuracy(2_000.0));
    let first_translation = vanilla(2_000.0 / 21.0, COARSE);
    let global_epsilon = first_translation.epsilon.value();
    assert_eq!(charged(&first).to_bits(), global_epsilon.to_bits());
    assert_ne!(
        global_epsilon,
        vanilla(2_000.0 / 21.0, 1e-4).epsilon.value(),
        "the coarse grid must be distinguishable from the default one"
    );

    // Second, tighter request by the same analyst: the friction-aware
    // search prices the growth, and the charge is exactly that growth.
    let (second, ..) = submit(&system, INTERNAL, &accuracy(500.0));
    let friction = |precision: f64| {
        FrictionAwareTranslation::new(delta, sensitivity, precision)
            .translate(
                500.0 / 21.0,
                Some(first_translation.achieved_variance),
                max_epsilon,
            )
            .unwrap()
            .epsilon
            .value()
    };
    let expected = (global_epsilon + friction(COARSE)) - global_epsilon;
    assert_eq!(charged(&second).to_bits(), expected.to_bits());
    assert_ne!(friction(COARSE), friction(1e-4));
}

#[test]
fn a_budget_below_the_search_floor_refuses_instead_of_panicking() {
    for mechanism in BOTH {
        let system = build(mechanism, 5e-7);
        let (outcome, translations, _) = submit(&system, INTERNAL, &accuracy(700.0));
        assert!(
            matches!(
                outcome,
                QueryOutcome::Rejected {
                    reason: RejectReason::AccuracyUnreachable
                }
            ),
            "{mechanism}: {outcome:?}"
        );
        assert_eq!(translations, 1);
    }
}

#[test]
fn an_unusable_translation_precision_is_refused_at_setup() {
    for precision in [0.0, -1e-4, f64::NAN] {
        let mut config = SystemConfig::new(2.0).unwrap();
        config.translation_precision = precision;
        assert!(
            matches!(
                build_with(config, MechanismKind::Vanilla),
                Err(CoreError::InvalidConfig(_))
            ),
            "precision {precision} must not build a system"
        );
    }
}
