//! The workload-aware planner: candidate views, greedy cover, explainable
//! plans.
//!
//! Planning answers one question before any budget is spent: *which views
//! should exist, at which granularity, for this declared workload?* The
//! search space is deliberately small and interpretable:
//!
//! * every template's exact attribute set is a candidate (the finest
//!   granularity that can answer it);
//! * pairwise unions of template attribute sets are candidates while their
//!   domain stays under [`PlannerConfig::max_union_cells`] (coarser, but
//!   shareable — one synopsis serving several templates);
//! * a deterministic greedy cover picks candidates by *score* — amortised
//!   cost per unit of covered workload share — until every template is
//!   covered;
//! * each template is then routed to the smallest covering chosen view,
//!   which is exactly the rule
//!   [`dprov_engine::catalog::ViewCatalog::select_view`] applies at
//!   runtime, so the plan's routing predictions hold when the system runs.
//!
//! The estimated budget uses the vanilla mechanism's sharing behaviour:
//! one view's synopsis is paid for once at the largest epsilon any routed
//! template requests, and every further same-view query is a cache hit.
//! That is why buying one shared coarser view frequently beats
//! materialise-everything — `max(ε₁..εₖ)` on one view undercuts `Σ εᵢ`
//! across `k` dedicated views even though each shared answer needs a
//! slightly larger epsilon.

use dprov_core::analyst::AnalystRegistry;
use dprov_core::config::SystemConfig;
use dprov_core::mechanism::MechanismKind;
use dprov_core::system::DProvDb;
use dprov_core::workload::DeclaredWorkload;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::database::Database;
use dprov_engine::query::AggregateKind;
use dprov_engine::view::ViewDef;
use dprov_obs::{CounterId, MetricsRegistry};

use crate::cost::CostModel;
use crate::{PlanError, Result};

/// Planner knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// The per-cell accuracy target (expected squared error) used to price
    /// templates. One number for the whole workload keeps the estimates
    /// comparable across templates.
    pub target_variance: f64,
    /// Exchange rate folding up-front scan work into the score: epsilon
    /// units per materialised cell-visit. Small by default — budget is the
    /// scarce resource, scans are the tie-breaker.
    pub scan_epsilon_per_cell: f64,
    /// Candidate unions of template attribute sets are only considered
    /// while their histogram domain stays under this many cells.
    pub max_union_cells: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            target_variance: 10_000.0,
            scan_epsilon_per_cell: 1e-6,
            max_union_cells: 4_096,
        }
    }
}

/// The planner: a cost model plus knobs.
#[derive(Debug, Clone)]
pub struct Planner {
    /// The cost model estimates are computed with.
    pub cost: CostModel,
    /// Planner knobs.
    pub config: PlannerConfig,
    metrics: MetricsRegistry,
}

/// One template's routing decision inside a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// Rendering of the template query.
    pub template: String,
    /// The template's share of the workload (normalised weight).
    pub share: f64,
    /// Name of the view the template routes to.
    pub view: String,
    /// View bins each released cell sums at this granularity.
    pub bins_per_cell: usize,
    /// Estimated epsilon one admission of this template requests.
    pub epsilon: f64,
}

/// One view the plan materialises.
#[derive(Debug, Clone, PartialEq)]
pub struct ChosenView {
    /// The view definition to register in the catalog.
    pub view: ViewDef,
    /// Histogram cells of the view.
    pub domain: usize,
    /// Estimated budget the view's synopsis costs per analyst using it:
    /// the largest epsilon any routed template requests (later same-view
    /// queries are cache hits under the vanilla sharing rule).
    pub epsilon: f64,
    /// Estimated up-front materialisation work in cell-visits.
    pub materialise_cells: f64,
    /// Indices (into the declared workload) of the templates routed here.
    pub templates: Vec<usize>,
    /// Why the greedy cover picked this view.
    pub reason: String,
}

/// An explainable plan: the views to materialise, every template's
/// routing, and the estimated totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Views to materialise, in the order the cover chose them.
    pub views: Vec<ChosenView>,
    /// Per-template routing, in declaration order.
    pub choices: Vec<PlanChoice>,
    /// Estimated total budget per analyst (sum of per-view synopsis
    /// epsilons).
    pub est_epsilon: f64,
    /// Estimated total up-front materialisation work in cell-visits.
    pub est_materialise_cells: f64,
}

impl Plan {
    /// The view catalog to build the system with.
    #[must_use]
    pub fn catalog(&self) -> ViewCatalog {
        let mut catalog = ViewCatalog::new();
        for chosen in &self.views {
            catalog.add_view(chosen.view.clone());
        }
        catalog
    }

    /// Builds a [`DProvDb`] whose catalog is this plan's chosen views —
    /// the "catalog registration from a plan" step. Runs *before* any
    /// budget is spent: the provenance table is derived from the planned
    /// catalog at construction.
    pub fn build(
        &self,
        db: Database,
        registry: AnalystRegistry,
        config: SystemConfig,
        mechanism: MechanismKind,
    ) -> dprov_core::Result<DProvDb> {
        DProvDb::new(db, self.catalog(), registry, config, mechanism)
    }

    /// A human-readable multi-line report of the plan.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan: {} view(s), est ε {:.4}/analyst, est {:.0} materialise cell-visits\n",
            self.views.len(),
            self.est_epsilon,
            self.est_materialise_cells
        ));
        for chosen in &self.views {
            out.push_str(&format!(
                "  view {} [{} cells, est ε {:.4}] — {}\n",
                chosen.view.name, chosen.domain, chosen.epsilon, chosen.reason
            ));
            for &t in &chosen.templates {
                let choice = &self.choices[t];
                out.push_str(&format!(
                    "    {:>5.1}%  {} ({} bin(s)/cell, ε {:.4})\n",
                    choice.share * 100.0,
                    choice.template,
                    choice.bins_per_cell,
                    choice.epsilon
                ));
            }
        }
        out
    }
}

/// One candidate view during planning.
#[derive(Debug, Clone)]
struct Candidate {
    table: String,
    attrs: Vec<String>,
    domain: usize,
    rows: usize,
}

impl Candidate {
    fn name(&self) -> String {
        format!("plan.{}.{}", self.table, self.attrs.join("+"))
    }

    fn covers(&self, table: &str, attrs: &[String]) -> bool {
        self.table == table && attrs.iter().all(|a| self.attrs.contains(a))
    }
}

/// A validated template: its table, canonical attribute set, and workload
/// share.
struct Prepared {
    table: String,
    attrs: Vec<String>,
    share: f64,
}

/// The histogram domain of a view over `attrs`.
fn domain_of(schema: &dprov_engine::schema::Schema, attrs: &[String]) -> Result<usize> {
    let mut domain = 1usize;
    for attr in attrs {
        domain = domain.saturating_mul(schema.attribute(attr)?.domain_size());
    }
    Ok(domain)
}

impl Planner {
    /// A planner with default knobs and no metrics.
    #[must_use]
    pub fn new(cost: CostModel) -> Self {
        Planner {
            cost,
            config: PlannerConfig::default(),
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Replaces the knobs.
    #[must_use]
    pub fn with_config(mut self, config: PlannerConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a metrics registry (plans computed are counted).
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Validates every template and computes its canonical attribute set.
    fn prepare(&self, db: &Database, workload: &DeclaredWorkload) -> Result<Vec<Prepared>> {
        if workload.templates.is_empty() {
            return Err(PlanError::EmptyWorkload);
        }
        let mut prepared = Vec::with_capacity(workload.templates.len());
        for (i, template) in workload.templates.iter().enumerate() {
            let query = &template.query;
            let schema = db.table(&query.table)?.schema();
            match &query.aggregate {
                AggregateKind::Avg(_) => {
                    return Err(PlanError::NotPlannable {
                        template: query.describe(),
                        reason: "AVG is not answerable over histogram views".to_owned(),
                    });
                }
                AggregateKind::Sum(target) => {
                    if !schema.attribute(target)?.attr_type.is_numeric() {
                        return Err(PlanError::NotPlannable {
                            template: query.describe(),
                            reason: format!("SUM over categorical attribute {target}"),
                        });
                    }
                }
                AggregateKind::Count => {}
            }
            let mut attrs = query.referenced_attributes();
            for attr in &attrs {
                schema.position(attr)?;
            }
            attrs.sort();
            attrs.dedup();
            if attrs.is_empty() {
                // An unfiltered scalar COUNT is answerable over any view of
                // its table; anchor it to the table's first attribute so it
                // still gets covered.
                attrs.push(schema.attributes()[0].name.clone());
            }
            prepared.push(Prepared {
                table: query.table.clone(),
                attrs,
                share: workload.share(i),
            });
        }
        Ok(prepared)
    }

    /// The candidate pool: every template's exact attribute set, plus
    /// affordable pairwise unions of same-table sets.
    fn candidates(&self, db: &Database, prepared: &[Prepared]) -> Result<Vec<Candidate>> {
        fn push(
            pool: &mut Vec<Candidate>,
            table: &str,
            attrs: Vec<String>,
            db: &Database,
        ) -> Result<()> {
            if pool.iter().any(|c| c.table == table && c.attrs == attrs) {
                return Ok(());
            }
            let domain = domain_of(db.table(table)?.schema(), &attrs)?;
            pool.push(Candidate {
                table: table.to_owned(),
                attrs,
                domain,
                rows: db.table(table)?.num_rows(),
            });
            Ok(())
        }
        let mut pool: Vec<Candidate> = Vec::new();
        for p in prepared {
            push(&mut pool, &p.table, p.attrs.clone(), db)?;
        }
        let exact: Vec<(String, Vec<String>)> = pool
            .iter()
            .map(|c| (c.table.clone(), c.attrs.clone()))
            .collect();
        for (i, (table_a, a)) in exact.iter().enumerate() {
            for (table_b, b) in exact.iter().skip(i + 1) {
                if table_a != table_b {
                    continue;
                }
                let mut union = a.clone();
                union.extend(b.iter().cloned());
                union.sort();
                union.dedup();
                push(&mut pool, table_a, union, db)?;
            }
        }
        pool.retain(|c| {
            c.domain <= self.config.max_union_cells
                || exact.iter().any(|(t, a)| *t == c.table && *a == c.attrs)
        });
        Ok(pool)
    }

    /// Prices one template against one candidate.
    fn price(
        &self,
        db: &Database,
        workload: &DeclaredWorkload,
        t: usize,
        candidate: &Candidate,
    ) -> Result<(usize, f64)> {
        let query = &workload.templates[t].query;
        let schema = db.table(&candidate.table)?.schema();
        let bins = self.cost.bins_per_cell(query, &candidate.attrs, schema)?;
        let epsilon = self
            .cost
            .epsilon_price(query, bins, self.config.target_variance)?;
        Ok((bins, epsilon))
    }

    /// Plans the workload: greedy cover over the candidate pool, routing,
    /// and estimates. Deterministic.
    pub fn plan(&self, db: &Database, workload: &DeclaredWorkload) -> Result<Plan> {
        let prepared = self.prepare(db, workload)?;
        let pool = self.candidates(db, &prepared)?;
        let mut uncovered: Vec<usize> = (0..prepared.len()).collect();
        let mut chosen: Vec<Candidate> = Vec::new();
        let mut reasons: Vec<String> = Vec::new();

        while !uncovered.is_empty() {
            // Score every unchosen candidate by amortised cost per unit of
            // newly covered workload share.
            let mut best: Option<(f64, usize, Vec<usize>)> = None;
            for (c, candidate) in pool.iter().enumerate() {
                if chosen
                    .iter()
                    .any(|ch| ch.table == candidate.table && ch.attrs == candidate.attrs)
                {
                    continue;
                }
                let covered: Vec<usize> = uncovered
                    .iter()
                    .copied()
                    .filter(|&t| candidate.covers(&prepared[t].table, &prepared[t].attrs))
                    .collect();
                if covered.is_empty() {
                    continue;
                }
                let mut epsilon = 0.0f64;
                for &t in &covered {
                    epsilon = epsilon.max(self.price(db, workload, t, candidate)?.1);
                }
                let scan_cost = self
                    .cost
                    .materialise_cells(candidate.rows, candidate.domain)
                    * self.config.scan_epsilon_per_cell;
                let gain: f64 = covered.iter().map(|&t| prepared[t].share).sum();
                let score = (epsilon + scan_cost) / gain.max(1e-9);
                let better = match &best {
                    None => true,
                    Some((best_score, best_idx, _)) => {
                        score < *best_score
                            || (score == *best_score && candidate.domain < pool[*best_idx].domain)
                    }
                };
                if better {
                    best = Some((score, c, covered));
                }
            }
            let (score, c, covered) = best.expect("every template's exact set is a candidate");
            let candidate = pool[c].clone();
            reasons.push(format!(
                "covers {} template(s) carrying {:.1}% of the workload (score {:.5})",
                covered.len(),
                covered.iter().map(|&t| prepared[t].share).sum::<f64>() * 100.0,
                score
            ));
            chosen.push(candidate);
            uncovered.retain(|t| !covered.contains(t));
        }

        self.assemble(db, workload, &prepared, chosen, reasons)
    }

    /// The materialise-everything baseline: one dedicated view per
    /// distinct template attribute set, no sharing. Same estimators, so
    /// the comparison against [`Planner::plan`] is apples to apples.
    pub fn materialise_everything(
        &self,
        db: &Database,
        workload: &DeclaredWorkload,
    ) -> Result<Plan> {
        let prepared = self.prepare(db, workload)?;
        let mut chosen: Vec<Candidate> = Vec::new();
        let mut reasons = Vec::new();
        for p in &prepared {
            if chosen
                .iter()
                .any(|c| c.table == p.table && c.attrs == p.attrs)
            {
                continue;
            }
            let domain = domain_of(db.table(&p.table)?.schema(), &p.attrs)?;
            chosen.push(Candidate {
                table: p.table.clone(),
                attrs: p.attrs.clone(),
                domain,
                rows: db.table(&p.table)?.num_rows(),
            });
            reasons.push("materialise-everything baseline".to_owned());
        }
        self.assemble(db, workload, &prepared, chosen, reasons)
    }

    /// Routes templates to chosen views (smallest covering domain, the
    /// runtime `select_view` rule) and totals the estimates.
    fn assemble(
        &self,
        db: &Database,
        workload: &DeclaredWorkload,
        prepared: &[Prepared],
        chosen: Vec<Candidate>,
        reasons: Vec<String>,
    ) -> Result<Plan> {
        let mut views: Vec<ChosenView> = chosen
            .iter()
            .zip(reasons)
            .map(|(c, reason)| ChosenView {
                view: ViewDef::histogram(&c.name(), &c.table, &c.attrs),
                domain: c.domain,
                epsilon: 0.0,
                materialise_cells: self.cost.materialise_cells(c.rows, c.domain),
                templates: Vec::new(),
                reason,
            })
            .collect();

        let mut choices = Vec::with_capacity(prepared.len());
        for (t, p) in prepared.iter().enumerate() {
            let mut routed: Option<usize> = None;
            for (v, c) in chosen.iter().enumerate() {
                if c.covers(&p.table, &p.attrs)
                    && routed.is_none_or(|r| c.domain < chosen[r].domain)
                {
                    routed = Some(v);
                }
            }
            let v = routed.expect("cover left a template unrouted");
            let (bins, epsilon) = self.price(db, workload, t, &chosen[v])?;
            views[v].templates.push(t);
            views[v].epsilon = views[v].epsilon.max(epsilon);
            choices.push(PlanChoice {
                template: workload.templates[t].query.describe(),
                share: p.share,
                view: chosen[v].name(),
                bins_per_cell: bins,
                epsilon,
            });
        }
        // A view every template routed away from contributes nothing.
        views.retain(|v| !v.templates.is_empty());

        let est_epsilon = views.iter().map(|v| v.epsilon).sum();
        let est_materialise_cells = views.iter().map(|v| v.materialise_cells).sum();
        self.metrics.incr(CounterId::PlansComputed);
        Ok(Plan {
            views,
            choices,
            est_epsilon,
            est_materialise_cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::expr::Predicate;
    use dprov_engine::query::Query;
    use dprov_engine::schema::{Attribute, AttributeType, Schema};
    use dprov_engine::table::Table;
    use dprov_engine::value::Value;

    fn db() -> Database {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Attribute::new("region", AttributeType::categorical(&["NA", "EU", "APAC"])),
                Attribute::new("channel", AttributeType::categorical(&["web", "store"])),
                Attribute::new("day", AttributeType::integer(0, 9)),
            ]),
        );
        for i in 0..30 {
            t.insert_row(&[
                Value::text(["NA", "EU", "APAC"][i % 3]),
                Value::text(["web", "store"][i % 2]),
                Value::Int((i % 10) as i64),
            ])
            .unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    fn planner() -> Planner {
        Planner::new(CostModel::new(1e-9, 8.0))
    }

    #[test]
    fn overlapping_templates_share_a_view_and_beat_the_baseline() {
        let db = db();
        let workload = DeclaredWorkload::new()
            .template(Query::count("t").group_by(&["region"]), 40.0)
            .template(Query::count("t").group_by(&["channel"]), 25.0)
            .template(Query::count("t").group_by(&["region", "channel"]), 20.0);
        let p = planner();
        let plan = p.plan(&db, &workload).unwrap();
        let baseline = p.materialise_everything(&db, &workload).unwrap();
        // One shared (region, channel) view covers all three templates.
        assert_eq!(plan.views.len(), 1, "{}", plan.report());
        assert_eq!(plan.views[0].templates.len(), 3);
        assert_eq!(baseline.views.len(), 3);
        assert!(
            plan.est_epsilon < baseline.est_epsilon,
            "plan ε {} >= baseline ε {}",
            plan.est_epsilon,
            baseline.est_epsilon
        );
        assert!(plan.est_materialise_cells < baseline.est_materialise_cells);
        // Every template is routed and the report mentions the view.
        assert_eq!(plan.choices.len(), 3);
        assert!(plan.report().contains("plan.t.channel+region"));
    }

    #[test]
    fn disjoint_templates_get_dedicated_views() {
        let db = db();
        let workload = DeclaredWorkload::new()
            .template(Query::count("t").group_by(&["region"]), 50.0)
            .template(Query::range_count("t", "day", 0, 4), 50.0);
        let plan = planner().plan(&db, &workload).unwrap();
        // (region ∪ day) has domain 30 — affordable — but sharing one view
        // cannot beat two tiny dedicated synopses here unless the union
        // price stays below the separate maxima; either way both templates
        // must be covered and routed.
        assert_eq!(plan.choices.len(), 2);
        for choice in &plan.choices {
            assert!(plan.views.iter().any(|v| v.view.name == choice.view));
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let db = db();
        let workload = DeclaredWorkload::new()
            .template(Query::count("t").group_by(&["region"]), 3.0)
            .template(Query::count("t").group_by(&["channel"]), 2.0)
            .template(Query::range_count("t", "day", 2, 5), 1.0);
        let a = planner().plan(&db, &workload).unwrap();
        let b = planner().plan(&db, &workload).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn catalog_answers_every_template() {
        let db = db();
        let workload = DeclaredWorkload::new()
            .template(Query::count("t").group_by(&["region"]), 4.0)
            .template(
                Query::count("t")
                    .group_by(&["channel"])
                    .filter(Predicate::range("day", 0, 3)),
                1.0,
            );
        let plan = planner().plan(&db, &workload).unwrap();
        let catalog = plan.catalog();
        for template in &workload.templates {
            if let Some(grouped) = template.grouped() {
                let schema = db.table("t").unwrap().schema();
                for scalar in grouped.scalar_queries(schema).unwrap() {
                    catalog.select_view(&scalar, &db).unwrap();
                }
            } else {
                catalog.select_view(&template.query, &db).unwrap();
            }
        }
    }

    #[test]
    fn invalid_workloads_are_rejected() {
        let db = db();
        let p = planner();
        assert!(matches!(
            p.plan(&db, &DeclaredWorkload::new()),
            Err(PlanError::EmptyWorkload)
        ));
        let avg = DeclaredWorkload::new().template(Query::avg("t", "day"), 1.0);
        assert!(matches!(
            p.plan(&db, &avg),
            Err(PlanError::NotPlannable { .. })
        ));
        let sum_cat = DeclaredWorkload::new().template(Query::sum("t", "region"), 1.0);
        assert!(matches!(
            p.plan(&db, &sum_cat),
            Err(PlanError::NotPlannable { .. })
        ));
        let missing = DeclaredWorkload::new().template(Query::count("nope"), 1.0);
        assert!(matches!(p.plan(&db, &missing), Err(PlanError::Engine(_))));
    }

    #[test]
    fn unfiltered_count_is_anchored_and_covered() {
        let db = db();
        let workload = DeclaredWorkload::new().template(Query::count("t"), 1.0);
        let plan = planner().plan(&db, &workload).unwrap();
        assert_eq!(plan.views.len(), 1);
        assert_eq!(plan.choices[0].bins_per_cell, 3);
    }
}
