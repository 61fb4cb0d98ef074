//! Planner vs materialise-everything on the star-schema probe workload.

use dprov_core::analyst::{AnalystId, AnalystRegistry};
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::{GroupedRequest, QueryRequest};
use dprov_core::workload::DeclaredWorkload;
use dprov_engine::database::Database;
use dprov_plan::cost::CostModel;
use dprov_plan::planner::{Plan, Planner};
use dprov_workloads::star;

#[test]
fn probe_plan_beats_materialise_everything() {
    let db = star::folded_star_database(2_000, 7);
    let workload = star::planner_probe();
    let planner = Planner::new(CostModel::new(1e-9, 8.0));

    let plan = planner.plan(&db, &workload).unwrap();
    let baseline = planner.materialise_everything(&db, &workload).unwrap();

    // Every template routed in both plans.
    assert_eq!(plan.choices.len(), workload.templates.len());
    assert_eq!(baseline.choices.len(), workload.templates.len());

    // The greedy cover shares views: fewer synopses, less up-front scan
    // work, and no more estimated budget than one-view-per-template.
    assert!(
        plan.views.len() < baseline.views.len(),
        "plan {} views vs baseline {}\n{}",
        plan.views.len(),
        baseline.views.len(),
        plan.report()
    );
    assert!(plan.est_materialise_cells < baseline.est_materialise_cells);
    assert!(
        plan.est_epsilon <= baseline.est_epsilon,
        "plan ε {} > baseline ε {}",
        plan.est_epsilon,
        baseline.est_epsilon
    );

    // The planned catalog builds a working system pre-budget.
    let mut registry = AnalystRegistry::new();
    registry.register("alice", 1).unwrap();
    registry.register("bob", 2).unwrap();
    let system = plan
        .build(
            db,
            registry,
            SystemConfig::new(8.0).unwrap(),
            MechanismKind::Vanilla,
        )
        .unwrap();
    assert_eq!(system.provenance().num_views(), plan.views.len());
}

#[test]
fn probe_plan_is_deterministic_and_explainable() {
    let db = star::folded_star_database(500, 11);
    let workload = star::planner_probe();
    let planner = Planner::new(CostModel::new(1e-9, 8.0));
    let a = planner.plan(&db, &workload).unwrap();
    let b = planner.plan(&db, &workload).unwrap();
    assert_eq!(a, b);
    let report = a.report();
    for view in &a.views {
        assert!(report.contains(&view.view.name));
    }
}

/// Expands a declared workload into a share-proportional stream of
/// template indices: slot `i` takes the template owning point
/// `(i + 0.5) / n` of the cumulative share mass.
fn stream(workload: &DeclaredWorkload, queries: usize) -> Vec<usize> {
    (0..queries)
        .map(|i| {
            let point = (i as f64 + 0.5) / queries as f64;
            let mut mass = 0.0;
            (0..workload.templates.len())
                .find(|&t| {
                    mass += workload.share(t);
                    point < mass
                })
                .unwrap_or(workload.templates.len() - 1)
        })
        .collect()
}

/// Serves `order` on a system built from `plan` and returns the ε the
/// analyst spent.
fn serve(plan: &Plan, db: &Database, workload: &DeclaredWorkload, order: &[usize]) -> f64 {
    const VARIANCE: f64 = 900.0;
    let mut registry = AnalystRegistry::new();
    registry.register("analyst", 4).unwrap();
    let config = SystemConfig::new(30.0).unwrap().with_seed(7);
    let system = plan
        .build(db.clone(), registry, config, MechanismKind::Vanilla)
        .unwrap();
    for &t in order {
        let template = &workload.templates[t];
        match template.grouped() {
            Some(gq) => {
                let request = GroupedRequest::with_accuracy(gq, VARIANCE);
                system.answer_group_by(AnalystId(0), &request).unwrap();
            }
            None => {
                let request = QueryRequest::with_accuracy(template.query.clone(), VARIANCE);
                system.submit_shared(AnalystId(0), &request).unwrap();
            }
        }
    }
    system.provenance().row_total(AnalystId(0))
}

/// The planned catalog, *served* the identical seeded stream, buys
/// strictly fewer views and spends no more ε than materialise-everything
/// — the estimates above are confirmed by what the system charges.
#[test]
fn probe_plan_serves_the_same_stream_with_fewer_views_and_no_more_budget() {
    let db = star::folded_star_database(2_000, 7);
    let workload = star::planner_probe();
    let planner = Planner::new(CostModel::new(1e-9, 30.0));
    let plan = planner.plan(&db, &workload).unwrap();
    let baseline = planner.materialise_everything(&db, &workload).unwrap();

    let order = stream(&workload, 120);
    let every_template = (0..workload.templates.len()).all(|t| order.contains(&t));
    assert!(every_template, "the stream must touch every template");
    let planned_spent = serve(&plan, &db, &workload, &order);
    let baseline_spent = serve(&baseline, &db, &workload, &order);
    assert!(plan.views.len() < baseline.views.len());
    assert!(
        planned_spent <= baseline_spent,
        "planner spent {planned_spent} ε, baseline {baseline_spent}"
    );
    assert!(planned_spent > 0.0, "the stream must charge something");
}
