//! A simulated PrivateSQL baseline (sPrivateSQL, §6.1.1).
//!
//! PrivateSQL \[36\] spends the whole privacy budget up front: every view gets
//! a static share (proportional to its sensitivity — an equal split when all
//! views are counting histograms) and one synopsis is generated per view at
//! setup. Incoming queries are answered from those static synopses when the
//! resulting error meets the request, and rejected otherwise; no further
//! budget is ever spent and all analysts see the same synopses.

use std::collections::HashMap;

use dprov_dp::mechanism::analytic_gaussian::analytic_gaussian_sigma;
use dprov_dp::rng::DpRng;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::database::Database;
use dprov_engine::synopsis::Synopsis;
use dprov_engine::EngineError;

use crate::analyst::{AnalystId, AnalystRegistry};
use crate::config::SystemConfig;
use crate::error::{RejectReason, Result};
use crate::processor::{AnsweredQuery, QueryOutcome, QueryProcessor, QueryRequest, SubmissionMode};
use crate::synopsis_manager::SynopsisManager;

/// The simulated PrivateSQL baseline.
pub struct SPrivateSqlBaseline {
    db: Database,
    catalog: ViewCatalog,
    registry: AnalystRegistry,
    config: SystemConfig,
    /// The static synopses, one per view, generated at setup.
    synopses: HashMap<String, Synopsis>,
    #[cfg(test)]
    per_view_epsilon: f64,
}

impl SPrivateSqlBaseline {
    /// Builds the baseline and spends the whole budget generating one static
    /// synopsis per view.
    pub fn new(
        db: Database,
        catalog: ViewCatalog,
        registry: AnalystRegistry,
        config: SystemConfig,
    ) -> Result<Self> {
        let mut rng = DpRng::seed_from_u64(config.seed);

        let num_views = catalog.len().max(1);
        let per_view_epsilon = config.total_epsilon.value() / num_views as f64;

        // Reuse the synopsis manager's materialisation + fresh-synopsis
        // machinery for the static generation.
        let mut manager = SynopsisManager::new(config.delta);
        let mut synopses = HashMap::new();
        for view in catalog.views() {
            manager.register_view(&db, view)?;
            let synopsis = manager.fresh_synopsis(&view.name, per_view_epsilon, None, &mut rng)?;
            synopses.insert(view.name.clone(), synopsis);
        }

        Ok(SPrivateSqlBaseline {
            db,
            catalog,
            registry,
            config,
            synopses,
            #[cfg(test)]
            per_view_epsilon,
        })
    }

    /// The static budget share assigned to every view.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn per_view_epsilon(&self) -> f64 {
        self.per_view_epsilon
    }
}

impl QueryProcessor for SPrivateSqlBaseline {
    fn name(&self) -> String {
        "sPrivateSQL".to_owned()
    }

    fn submit(&mut self, analyst: AnalystId, request: &QueryRequest) -> Result<QueryOutcome> {
        self.registry.get(analyst)?;
        let (view, linear) = match self.catalog.select_view(&request.query, &self.db) {
            Ok(pair) => pair,
            Err(EngineError::NotAnswerable(_)) | Err(_) => {
                return Ok(QueryOutcome::Rejected {
                    reason: RejectReason::NotAnswerable,
                });
            }
        };
        let synopsis = &self.synopses[&view.name];
        let delivered_variance = synopsis.answer_variance(&linear);

        let target_variance = match request.mode {
            SubmissionMode::Accuracy { variance } => variance,
            SubmissionMode::Privacy { epsilon } => {
                // A privacy-oriented request is honoured when the static
                // synopsis is at least as accurate as a fresh release at
                // the requested epsilon would be.
                match analytic_gaussian_sigma(
                    epsilon,
                    self.config.delta.value(),
                    view.sensitivity().value(),
                ) {
                    Ok(sigma) => linear.answer_variance(sigma * sigma),
                    Err(_) => {
                        return Ok(QueryOutcome::Rejected {
                            reason: RejectReason::AccuracyUnreachable,
                        });
                    }
                }
            }
        };

        if delivered_variance > target_variance {
            return Ok(QueryOutcome::Rejected {
                reason: RejectReason::InsufficientSynopsis,
            });
        }

        Ok(QueryOutcome::Answered(AnsweredQuery {
            value: synopsis.answer(&linear),
            view: Some(view.name),
            epsilon_charged: 0.0,
            noise_variance: delivered_variance,
            from_cache: true,
            epoch: 0,
        }))
    }

    fn cumulative_epsilon(&self) -> f64 {
        // The whole budget is committed at setup.
        self.config.total_epsilon.value()
    }

    fn analyst_epsilon(&self, _analyst: AnalystId) -> f64 {
        self.config.total_epsilon.value() / self.registry.len().max(1) as f64
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

    fn build(epsilon: f64) -> SPrivateSqlBaseline {
        let db = adult_database(2_000, 1);
        let catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
        let mut registry = AnalystRegistry::new();
        registry.register("external", 1).unwrap();
        registry.register("internal", 4).unwrap();
        SPrivateSqlBaseline::new(db, catalog, registry, SystemConfig::new(epsilon).unwrap())
            .unwrap()
    }

    fn request(v: f64) -> QueryRequest {
        QueryRequest::with_accuracy(Query::range_count("adult", "age", 25, 44), v)
    }

    #[test]
    fn budget_is_split_equally_across_views() {
        let s = build(6.4);
        assert!((s.per_view_epsilon() - 6.4 / 13.0).abs() < 1e-12);
        assert_eq!(s.cumulative_epsilon(), 6.4);
    }

    #[test]
    fn loose_requests_are_answered_tight_requests_rejected() {
        let mut s = build(6.4);
        let loose = s.submit(AnalystId(0), &request(1e6)).unwrap();
        assert!(loose.is_answered());
        assert_eq!(loose.answered().unwrap().epsilon_charged, 0.0);

        let tight = s.submit(AnalystId(0), &request(1e-3)).unwrap();
        assert_eq!(
            tight,
            QueryOutcome::Rejected {
                reason: RejectReason::InsufficientSynopsis
            }
        );
    }

    #[test]
    fn low_budget_static_synopses_answer_fewer_queries() {
        // The Fig. 3 observation: under a tight overall budget the static
        // split leaves every synopsis too noisy for moderately accurate
        // queries, while a generous budget handles them.
        let mut tight = build(0.4);
        let mut generous = build(6.4);
        let r = request(20_000.0);
        let tight_outcome = tight.submit(AnalystId(0), &r).unwrap();
        let generous_outcome = generous.submit(AnalystId(0), &r).unwrap();
        assert!(!tight_outcome.is_answered());
        assert!(generous_outcome.is_answered());
    }

    #[test]
    fn answering_never_spends_additional_budget() {
        let mut s = build(6.4);
        for _ in 0..50 {
            assert!(s.submit(AnalystId(1), &request(1e5)).unwrap().is_answered());
        }
        assert_eq!(s.cumulative_epsilon(), 6.4);
    }
}
