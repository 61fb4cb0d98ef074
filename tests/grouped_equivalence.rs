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
//!   identically-seeded twin, for **both** mechanisms;
//! * grouped answers do not depend on the executor's `scan_threads`;
//! * the wire protocol (`DProvClient::group_by` over the in-process and
//!   TCP transports) returns exactly what the service computed;
//! * `DProvClient::declare_workload` returns exactly the library
//!   [`Planner`]'s plan for the same database and cost inputs;
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
use dprovdb::engine::group::GroupByQuery;
use dprovdb::engine::schema::Schema;
use dprovdb::engine::view::ViewDef;
use dprovdb::net::listen;
use dprovdb::plan::cost::CostModel;
use dprovdb::plan::planner::Planner;
use dprovdb::server::{Frontend, QueryService, ServiceConfig};
use dprovdb::workloads::star::{
    folded_star_database, planner_probe, star_database, ITEM_TABLE, SALES_TABLE, SALES_WIDE_TABLE,
    STORE_TABLE,
};

const ANALYSTS: usize = 2;
const VARIANCE: f64 = 900.0;

/// Adult system whose catalog can serve multi-attribute groupings: the
/// per-attribute views plus a two-dimensional (sex, race) histogram.
fn adult_system(mechanism: MechanismKind, seed: u64) -> Arc<DProvDb> {
    let db = adult_database(1_200, 1);
    let mut catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    catalog.add_view(ViewDef::histogram("sex_race", "adult", &["sex", "race"]));
    Arc::new(build(db, catalog, mechanism, seed))
}

/// Star system over the join-folded wide table with one grouped view.
fn star_system(mechanism: MechanismKind, seed: u64) -> Arc<DProvDb> {
    let db = folded_star_database(2_000, 9);
    let mut catalog = ViewCatalog::new();
    catalog.add_view(ViewDef::histogram(
        "region_category",
        SALES_WIDE_TABLE,
        &["store.region", "item.category"],
    ));
    Arc::new(build(db, catalog, mechanism, seed))
}

fn build(db: Database, catalog: ViewCatalog, mechanism: MechanismKind, seed: u64) -> DProvDb {
    let mut registry = AnalystRegistry::new();
    for i in 0..ANALYSTS {
        registry
            .register(&format!("analyst-{i}"), (2 * i + 1) as u8)
            .unwrap();
    }
    let config = SystemConfig::new(80.0).unwrap().with_seed(seed);
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

fn service_over(system: &Arc<DProvDb>, scan_threads: usize) -> QueryService {
    QueryService::start(
        Arc::clone(system),
        ServiceConfig::builder()
            .workers(2)
            .scan_threads(scan_threads)
            .build()
            .unwrap(),
    )
}

/// Answers `gq` once as a grouped submission through the service and once
/// as its per-group oracle queries on an identically-seeded twin, and
/// asserts both the outcome streams and the provenance ledgers are
/// bit-identical.
fn assert_grouped_matches_oracle(
    make: impl Fn() -> Arc<DProvDb>,
    gq: &GroupByQuery,
    extra_scalars: &[QueryRequest],
) {
    // Grouped path.
    let system = make();
    let service = service_over(&system, 1);
    let session = service.open_session(AnalystId(0)).unwrap();
    for request in extra_scalars {
        service.submit_wait(session, request.clone()).unwrap();
    }
    let grouped = service
        .group_by_wait(session, GroupedRequest::with_accuracy(gq.clone(), VARIANCE))
        .unwrap();
    let grouped_prov = system.provenance();
    service.shutdown();

    // Oracle path: the same cells, one query per group, in the canonical
    // enumeration order, on a twin seeded identically.
    let twin = make();
    let schema = schema_of(&twin, &gq.table);
    let service = service_over(&twin, 1);
    let session = service.open_session(AnalystId(0)).unwrap();
    for request in extra_scalars {
        service.submit_wait(session, request.clone()).unwrap();
    }
    let scalars = gq.scalar_queries(&schema).unwrap();
    assert_eq!(
        scalars.len(),
        grouped.keys.len(),
        "one oracle query per group cell"
    );
    let oracle: Vec<QueryOutcome> = scalars
        .into_iter()
        .map(|q| {
            service
                .submit_wait(session, QueryRequest::with_accuracy(q, VARIANCE))
                .unwrap()
        })
        .collect();
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
    assert_eq!(
        grouped_prov.row_total(AnalystId(0)).to_bits(),
        oracle_prov.row_total(AnalystId(0)).to_bits(),
        "ledger row totals diverged"
    );
    for view in grouped_prov.view_names() {
        assert_eq!(
            grouped_prov.entry(AnalystId(0), view).to_bits(),
            oracle_prov.entry(AnalystId(0), view).to_bits(),
            "ledger entry for view {view} diverged"
        );
    }
}

#[test]
fn grouped_matches_oracle_vanilla() {
    assert_grouped_matches_oracle(
        || adult_system(MechanismKind::Vanilla, 77),
        &GroupByQuery::count("adult", &["sex", "race"]),
        &[],
    );
}

#[test]
fn grouped_matches_oracle_additive() {
    assert_grouped_matches_oracle(
        || adult_system(MechanismKind::AdditiveGaussian, 77),
        &GroupByQuery::count("adult", &["sex", "race"]),
        &[],
    );
}

#[test]
fn grouped_matches_oracle_single_attribute() {
    assert_grouped_matches_oracle(
        || adult_system(MechanismKind::AdditiveGaussian, 31),
        &GroupByQuery::count("adult", &["education_num"]),
        &[],
    );
}

#[test]
fn grouped_matches_oracle_mid_stream() {
    // The grouped job draws from the session's noise stream at whatever
    // position earlier scalar work left it — interleaving must not skew
    // either side.
    let warmup = vec![QueryRequest::with_accuracy(
        dprovdb::engine::query::Query::range_count("adult", "age", 25, 45),
        700.0,
    )];
    assert_grouped_matches_oracle(
        || adult_system(MechanismKind::Vanilla, 13),
        &GroupByQuery::count("adult", &["sex", "race"]),
        &warmup,
    );
}

#[test]
fn grouped_matches_oracle_on_folded_star() {
    assert_grouped_matches_oracle(
        || star_system(MechanismKind::Vanilla, 41),
        &GroupByQuery::count(SALES_WIDE_TABLE, &["store.region", "item.category"]),
        &[],
    );
}

#[test]
fn grouped_answers_do_not_depend_on_scan_threads() {
    let gq = GroupByQuery::count("adult", &["sex", "race"]);
    let runs: Vec<Vec<Observed>> = [1usize, 8]
        .into_iter()
        .map(|threads| {
            let system = adult_system(MechanismKind::AdditiveGaussian, 19);
            let service = service_over(&system, threads);
            let session = service.open_session(AnalystId(0)).unwrap();
            let grouped = service
                .group_by_wait(session, GroupedRequest::with_accuracy(gq.clone(), VARIANCE))
                .unwrap();
            service.shutdown();
            grouped.outcomes.iter().map(observe).collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "scan_threads changed a grouped answer");
}

#[test]
fn grouped_over_the_wire_matches_in_process_service() {
    let gq = GroupByQuery::count("adult", &["sex", "race"]);
    let request = GroupedRequest::with_accuracy(gq, VARIANCE);

    // Reference: the raw service path.
    let system = adult_system(MechanismKind::AdditiveGaussian, 57);
    let service = service_over(&system, 1);
    let session = service.open_session(AnalystId(0)).unwrap();
    let reference = service.group_by_wait(session, request.clone()).unwrap();
    service.shutdown();

    // In-process transport on a twin.
    let service = Arc::new(service_over(
        &adult_system(MechanismKind::AdditiveGaussian, 57),
        1,
    ));
    let frontend = Frontend::new(&service);
    let mut client = DProvClient::connect(frontend.connect(), "in-proc").unwrap();
    client.register("analyst-0").unwrap();
    let in_proc = client.group_by(&request).unwrap();
    client.close().unwrap();

    // Real TCP on another twin.
    let service = Arc::new(service_over(
        &adult_system(MechanismKind::AdditiveGaussian, 57),
        1,
    ));
    let listener = listen(&service, "127.0.0.1:0").unwrap();
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "tcp").unwrap();
    client.register("analyst-0").unwrap();
    let tcp = client.group_by(&request).unwrap();
    client.close().unwrap();

    for other in [&in_proc, &tcp] {
        assert_eq!(reference.keys, other.keys);
        let reference: Vec<Observed> = reference.outcomes.iter().map(observe).collect();
        let got: Vec<Observed> = other.outcomes.iter().map(observe).collect();
        assert_eq!(reference, got, "transport changed a grouped answer");
    }
}

#[test]
fn declared_workload_plan_matches_library_planner() {
    let system = star_system(MechanismKind::Vanilla, 3);
    let service = Arc::new(service_over(&system, 1));
    let frontend = Frontend::new(&service);
    let mut client = DProvClient::connect(frontend.connect(), "in-proc").unwrap();
    client.register("analyst-0").unwrap();

    let workload = planner_probe();
    let report = client.declare_workload(&workload).unwrap();
    client.close().unwrap();

    // The library planner, handed the same database and cost inputs.
    let config = system.config();
    let cost = CostModel::new(config.delta.value(), config.total_epsilon.value())
        .with_exec_stats(&system.exec_stats());
    let plan = system
        .with_database(|db| Planner::new(cost).plan(db, &workload))
        .unwrap();

    assert_eq!(report.views, plan.views.len() as u64);
    assert_eq!(report.est_epsilon.to_bits(), plan.est_epsilon.to_bits());
    assert_eq!(
        report.est_materialise_cells.to_bits(),
        plan.est_materialise_cells.to_bits()
    );
    assert_eq!(report.report, plan.report());
    // Declaring is advisory: no budget was spent.
    assert_eq!(system.provenance().row_total(AnalystId(0)), 0.0);
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
    let system = star_system(MechanismKind::Vanilla, 9);
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
