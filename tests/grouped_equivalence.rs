//! The grouped-answering equivalence battery.
//!
//! GROUP BY support is only admissible if it changes *how fast* group
//! cells are answered, never *what* an analyst receives or is charged.
//! This suite pins that contract end-to-end, through the full concurrent
//! service (queue, session lanes, micro-batching, worker pool):
//!
//! * a grouped submission is **bit-identical** — answer values, epsilon
//!   charges, noise variances, cache flags, rejection reasons, and the
//!   final provenance ledger — to submitting the per-group *oracle*
//!   queries ([`GroupByQuery::scalar_queries`]) one by one on an
//!   identically-seeded twin, for **both** mechanisms, including cells
//!   refused on a tight budget, cells priced by the friction-aware search
//!   and cells with different per-bin targets — while running no more
//!   accuracy→ε searches (`dp.translations`) than the oracle;
//! * the wire protocol (`DProvClient::group_by` over loopback TCP)
//!   returns exactly what the service computed in-process;
//! * star-schema join-folding feeds grouped answering correctly: exact
//!   grouped counts over the folded wide table equal a hand-computed
//!   fact⋈dimension join, and the DP path over the wide table matches its
//!   per-group oracle.

use std::sync::Arc;

use dprovdb::api::DProvClient;
use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{GroupedRequest, QueryOutcome, QueryRequest};
use dprovdb::core::system::DProvDb;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::database::Database;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::expr::Predicate;
use dprovdb::engine::group::GroupByQuery;
use dprovdb::engine::query::Query;
use dprovdb::engine::schema::Schema;
use dprovdb::engine::view::ViewDef;
use dprovdb::net::listen;
use dprovdb::server::{QueryService, ServiceConfig};
use dprovdb::workloads::star::{
    folded_star_database, star_database, ITEM_TABLE, SALES_TABLE, SALES_WIDE_TABLE, STORE_TABLE,
};

/// Analyst 0 (privilege 1) may spend a third of the table budget ψ_P,
/// analyst 1 (privilege 3) all of it.
const ANALYSTS: usize = 2;
const VARIANCE: f64 = 900.0;
const BOTH: [MechanismKind; 2] = [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian];

/// A table budget ψ_P of 80 and the given seed.
fn config(seed: u64) -> SystemConfig {
    SystemConfig::new(80.0).unwrap().with_seed(seed)
}

/// Adult system whose catalog can serve multi-attribute groupings: the
/// per-attribute views plus a two-dimensional (sex, race) histogram.
fn adult_system(mechanism: MechanismKind, config: SystemConfig) -> Arc<DProvDb> {
    let db = adult_database(1_200, 1);
    let mut catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    catalog.add_view(ViewDef::histogram("sex_race", "adult", &["sex", "race"]));
    Arc::new(build(db, catalog, mechanism, config))
}

/// Adult system with one (race, age) histogram, so a grouping by race
/// with a predicate on age can give each group its own bin count.
fn race_age_system(mechanism: MechanismKind, config: SystemConfig) -> Arc<DProvDb> {
    let db = adult_database(1_200, 1);
    let mut catalog = ViewCatalog::new();
    catalog.add_view(ViewDef::histogram("race_age", "adult", &["race", "age"]));
    Arc::new(build(db, catalog, mechanism, config))
}

/// Star system over the join-folded wide table with one grouped view.
fn star_system(mechanism: MechanismKind, config: SystemConfig) -> Arc<DProvDb> {
    let db = folded_star_database(2_000, 9);
    let mut catalog = ViewCatalog::new();
    catalog.add_view(ViewDef::histogram(
        "region_category",
        SALES_WIDE_TABLE,
        &["store.region", "item.category"],
    ));
    Arc::new(build(db, catalog, mechanism, config))
}

fn build(
    db: Database,
    catalog: ViewCatalog,
    mechanism: MechanismKind,
    config: SystemConfig,
) -> DProvDb {
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), (2 * i + 1) as u8)
            .unwrap();
    }
    DProvDb::new(db, catalog, registry, config, mechanism).unwrap()
}

fn schema_of(system: &DProvDb, table: &str) -> Schema {
    system.with_database(|db| db.table(table).unwrap().schema().clone())
}

/// Every analyst-visible field of one cell outcome, bit-exact.
#[derive(Debug, Clone, PartialEq)]
enum Observed {
    Answered {
        value: u64,
        epsilon: u64,
        variance: u64,
        from_cache: bool,
        view: Option<String>,
    },
    Rejected(String),
}

fn observe(outcome: &QueryOutcome) -> Observed {
    match outcome {
        QueryOutcome::Answered(a) => Observed::Answered {
            value: a.value.to_bits(),
            epsilon: a.epsilon_charged.to_bits(),
            variance: a.noise_variance.to_bits(),
            from_cache: a.from_cache,
            view: a.view.clone(),
        },
        QueryOutcome::Rejected { reason } => Observed::Rejected(reason.to_string()),
    }
}

fn service_over(system: &Arc<DProvDb>) -> QueryService {
    QueryService::start(
        Arc::clone(system),
        ServiceConfig::builder().workers(2).build().unwrap(),
    )
}

fn translations(system: &DProvDb) -> u64 {
    system
        .metrics()
        .snapshot()
        .counter("dp.translations")
        .unwrap()
}

/// Accuracy→ε searches a grouped request ran, and the searches its
/// per-group oracle queries ran.
#[derive(Debug)]
struct Searches {
    grouped: u64,
    oracle: u64,
}

/// Answers `gq` at `variance` once as a grouped submission of analyst 0
/// through the service and once as its per-group oracle queries on an
/// identically-built twin (`make(config)`), after the same `warmup`
/// scalars (analyst 0's share its session, and so its noise stream, with
/// the grouped job). Asserts both the outcome streams and the provenance
/// ledgers are bit-identical and that the grouped request ran no more
/// accuracy→ε searches than the oracle.
fn assert_grouped_matches_oracle(
    make: impl Fn(SystemConfig) -> Arc<DProvDb>,
    config: SystemConfig,
    gq: &GroupByQuery,
    warmup: &[(AnalystId, QueryRequest)],
    variance: f64,
) -> (Vec<QueryOutcome>, Searches) {
    let run_warmup = |service: &QueryService| {
        let sessions: Vec<_> = (0..ANALYSTS)
            .map(|i| service.open_session(AnalystId(i)).unwrap())
            .collect();
        for (analyst, request) in warmup {
            service
                .submit_wait(sessions[analyst.0], request.clone())
                .unwrap();
        }
        sessions[0]
    };

    // Grouped path.
    let system = make(config.clone());
    let service = service_over(&system);
    let session = run_warmup(&service);
    let before = translations(&system);
    let grouped = service
        .group_by_wait(session, GroupedRequest::with_accuracy(gq.clone(), variance))
        .unwrap();
    let grouped_searches = translations(&system) - before;
    let grouped_prov = system.provenance();
    service.shutdown();

    // Oracle path: the same cells, one query per group, in the canonical
    // enumeration order, on a twin built identically.
    let twin = make(config);
    let schema = schema_of(&twin, &gq.table);
    let service = service_over(&twin);
    let session = run_warmup(&service);
    let scalars = gq.scalar_queries(&schema).unwrap();
    assert_eq!(
        scalars.len(),
        grouped.keys.len(),
        "one oracle query per group cell"
    );
    let before = translations(&twin);
    let oracle: Vec<QueryOutcome> = scalars
        .into_iter()
        .map(|q| {
            service
                .submit_wait(session, QueryRequest::with_accuracy(q, variance))
                .unwrap()
        })
        .collect();
    let oracle_searches = translations(&twin) - before;
    let oracle_prov = twin.provenance();
    service.shutdown();

    assert_eq!(grouped.outcomes.len(), oracle.len());
    for (cell, (g, o)) in grouped.outcomes.iter().zip(&oracle).enumerate() {
        assert_eq!(
            observe(g),
            observe(o),
            "cell {cell} (key {:?}) diverged from the per-group oracle",
            grouped.keys[cell]
        );
    }
    for analyst in (0..ANALYSTS).map(AnalystId) {
        assert_eq!(
            grouped_prov.row_total(analyst).to_bits(),
            oracle_prov.row_total(analyst).to_bits(),
            "ledger row totals diverged"
        );
        for view in grouped_prov.view_names() {
            assert_eq!(
                grouped_prov.entry(analyst, view).to_bits(),
                oracle_prov.entry(analyst, view).to_bits(),
                "ledger entry of {analyst:?} for view {view} diverged"
            );
        }
    }
    let searches = Searches {
        grouped: grouped_searches,
        oracle: oracle_searches,
    };
    assert!(
        searches.grouped <= searches.oracle,
        "the grouped request searched more than its oracle: {searches:?}"
    );
    (grouped.outcomes, searches)
}

fn refused(outcomes: &[QueryOutcome]) -> usize {
    outcomes.iter().filter(|o| !o.is_answered()).count()
}

#[test]
fn grouped_matches_oracle_vanilla() {
    assert_grouped_matches_oracle(
        |c| adult_system(MechanismKind::Vanilla, c),
        config(77),
        &GroupByQuery::count("adult", &["sex", "race"]),
        &[],
        VARIANCE,
    );
}

#[test]
fn grouped_matches_oracle_additive() {
    assert_grouped_matches_oracle(
        |c| adult_system(MechanismKind::AdditiveGaussian, c),
        config(77),
        &GroupByQuery::count("adult", &["sex", "race"]),
        &[],
        VARIANCE,
    );
}

#[test]
fn grouped_matches_oracle_single_attribute() {
    assert_grouped_matches_oracle(
        |c| adult_system(MechanismKind::AdditiveGaussian, c),
        config(31),
        &GroupByQuery::count("adult", &["education_num"]),
        &[],
        VARIANCE,
    );
}

#[test]
fn grouped_matches_oracle_mid_stream() {
    // The grouped job draws from the session's noise stream at whatever
    // position earlier scalar work left it — interleaving must not skew
    // either side.
    let warmup = [(
        AnalystId(0),
        QueryRequest::with_accuracy(Query::range_count("adult", "age", 25, 45), 700.0),
    )];
    assert_grouped_matches_oracle(
        |c| adult_system(MechanismKind::Vanilla, c),
        config(13),
        &GroupByQuery::count("adult", &["sex", "race"]),
        &warmup,
        VARIANCE,
    );
}

#[test]
fn grouped_matches_oracle_on_folded_star() {
    assert_grouped_matches_oracle(
        |c| star_system(MechanismKind::Vanilla, c),
        config(41),
        &GroupByQuery::count(SALES_WIDE_TABLE, &["store.region", "item.category"]),
        &[],
        VARIANCE,
    );
}

#[test]
fn grouped_matches_oracle_when_the_budget_refuses_every_cell() {
    // ψ_P = 2: analyst 0 may spend 2/3, and one (sex, race) cell at
    // variance 30 needs more. Every cell misses and is refused after the
    // vanilla search of the one target all ten cells share.
    for mechanism in BOTH {
        let (outcomes, searches) = assert_grouped_matches_oracle(
            |c| adult_system(mechanism, c),
            SystemConfig::new(2.0).unwrap().with_seed(5),
            &GroupByQuery::count("adult", &["sex", "race"]),
            &[],
            30.0,
        );
        assert_eq!(refused(&outcomes), 10, "{mechanism}");
        assert_eq!((searches.grouped, searches.oracle), (1, 10), "{mechanism}");
    }
}

#[test]
fn grouped_matches_oracle_after_a_friction_aware_search() {
    // Analyst 1 buys a loose global synopsis (per-bin variance 5 000) on
    // the grouped view. Analyst 0's cells are tighter, so the additive
    // mechanism prices each by the vanilla and the friction-aware search
    // before the row constraint (8 / 3) refuses it; the vanilla mechanism
    // runs its one search and is refused the same way.
    let warmup = [(
        AnalystId(1),
        QueryRequest::with_accuracy(
            Query::count("adult")
                .filter(Predicate::equals("sex", "Male").and(Predicate::equals("race", "White"))),
            5_000.0,
        ),
    )];
    for (mechanism, searched) in [
        (MechanismKind::Vanilla, (1, 10)),
        (MechanismKind::AdditiveGaussian, (2, 20)),
    ] {
        let (outcomes, searches) = assert_grouped_matches_oracle(
            |c| adult_system(mechanism, c),
            SystemConfig::new(8.0).unwrap().with_seed(23),
            &GroupByQuery::count("adult", &["sex", "race"]),
            &warmup,
            5.0,
        );
        assert_eq!(refused(&outcomes), 10, "{mechanism}");
        assert_eq!((searches.grouped, searches.oracle), searched, "{mechanism}");
    }
}

#[test]
fn grouped_matches_oracle_with_mixed_targets() {
    // White, Amer-Indian-Eskimo and Black select 41 age bins, the other
    // two races 2: the groups alternate between a tight per-bin target
    // (300 / 41), which analyst 0's row constraint (8 / 3) refuses, and a
    // loose one (300 / 2), which it affords. Analyst 1 first buys a loose
    // global synopsis (per-bin variance 1 000) on the grouped view.
    let wide = |race: &str| Predicate::equals("race", race).and(Predicate::range("age", 20, 60));
    let narrow = |race: &str| Predicate::equals("race", race).and(Predicate::range("age", 30, 31));
    let gq = GroupByQuery::count("adult", &["race"]).filter(Predicate::Or(vec![
        wide("White"),
        narrow("Asian-Pac-Islander"),
        wide("Amer-Indian-Eskimo"),
        narrow("Other"),
        wide("Black"),
    ]));
    let warmup = [(
        AnalystId(1),
        QueryRequest::with_accuracy(Query::count("adult").filter(wide("White")), 41_000.0),
    )];
    // Vanilla: one search per target. Additive: the first tight cell runs
    // both searches; the loose cell runs both and grows the global; the
    // second tight cell runs only the friction-aware search, against the
    // grown global; the third reuses both.
    for (mechanism, searched) in [
        (MechanismKind::Vanilla, (2, 4)),
        (MechanismKind::AdditiveGaussian, (5, 8)),
    ] {
        let (outcomes, searches) = assert_grouped_matches_oracle(
            |c| race_age_system(mechanism, c),
            SystemConfig::new(8.0).unwrap().with_seed(29),
            &gq,
            &warmup,
            300.0,
        );
        let answered: Vec<bool> = outcomes.iter().map(QueryOutcome::is_answered).collect();
        assert_eq!(answered, [false, true, false, true, false], "{mechanism}");
        assert_eq!((searches.grouped, searches.oracle), searched, "{mechanism}");
    }
}

#[test]
fn grouped_over_the_wire_matches_in_process_service() {
    let gq = GroupByQuery::count("adult", &["sex", "race"]);
    let request = GroupedRequest::with_accuracy(gq, VARIANCE);

    // Reference: the raw service path.
    let system = adult_system(MechanismKind::AdditiveGaussian, config(57));
    let service = service_over(&system);
    let session = service.open_session(AnalystId(0)).unwrap();
    let reference = service.group_by_wait(session, request.clone()).unwrap();
    service.shutdown();

    // Real TCP on another twin.
    let service = Arc::new(service_over(&adult_system(
        MechanismKind::AdditiveGaussian,
        config(57),
    )));
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "tcp").unwrap();
    client.register("analyst-0").unwrap();
    let tcp = client.group_by(&request).unwrap();
    client.close().unwrap();
    listener.shutdown();

    assert_eq!(reference.keys, tcp.keys);
    let reference: Vec<Observed> = reference.outcomes.iter().map(observe).collect();
    let got: Vec<Observed> = tcp.outcomes.iter().map(observe).collect();
    assert_eq!(reference, got, "transport changed a grouped answer");
}

#[test]
fn folded_star_grouped_counts_match_hand_join() {
    // Hand-compute the fact ⋈ store ⋈ item join from the *unfolded* star
    // and group it, then compare against exact grouped counts over the
    // join-folded wide table.
    let star = star_database(2_000, 9);
    let store = star.table(STORE_TABLE).unwrap();
    let item = star.table(ITEM_TABLE).unwrap();
    let sales = star.table(SALES_TABLE).unwrap();

    // Dimension lookups: encoded key -> encoded attribute index. Keys are
    // integers with domain 0..N, so the encoded key equals the id.
    let region_of: Vec<u32> = {
        let keys = store.column_at(store.schema().position("store_id").unwrap());
        let regions = store.column_at(store.schema().position("region").unwrap());
        let mut map = vec![0u32; keys.len()];
        for (k, r) in keys.iter().zip(regions) {
            map[*k as usize] = *r;
        }
        map
    };
    let category_of: Vec<u32> = {
        let keys = item.column_at(item.schema().position("item_id").unwrap());
        let categories = item.column_at(item.schema().position("category").unwrap());
        let mut map = vec![0u32; keys.len()];
        for (k, c) in keys.iter().zip(categories) {
            map[*k as usize] = *c;
        }
        map
    };

    let gq = GroupByQuery::count(SALES_WIDE_TABLE, &["store.region", "item.category"]);
    let system = star_system(MechanismKind::Vanilla, config(9));
    let schema = schema_of(&system, SALES_WIDE_TABLE);
    let num_categories =
        schema.attributes()[schema.position("item.category").unwrap()].domain_size();
    let num_regions = schema.attributes()[schema.position("store.region").unwrap()].domain_size();

    // Canonical enumeration is row-major, last grouping attribute fastest.
    let mut expected = vec![0.0_f64; num_regions * num_categories];
    let store_ids = sales.column_at(sales.schema().position("store_id").unwrap());
    let item_ids = sales.column_at(sales.schema().position("item_id").unwrap());
    for (s, i) in store_ids.iter().zip(item_ids) {
        let r = region_of[*s as usize] as usize;
        let c = category_of[*i as usize] as usize;
        expected[r * num_categories + c] += 1.0;
    }

    let exact = system.true_group_by(&gq).unwrap();
    assert_eq!(exact, expected, "join-fold diverged from the hand join");
}
