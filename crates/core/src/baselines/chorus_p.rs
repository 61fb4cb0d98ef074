//! ChorusP: Chorus plus privacy provenance, minus cached views.
//!
//! This baseline ("DProvDB minus cached views" in §6.1.1) enforces the
//! per-analyst row constraints of the provenance framework — so a
//! low-privilege analyst can no longer starve a high-privilege one — but it
//! still answers every query directly with fresh noise, so similar queries
//! keep paying full price.

use std::time::Instant;

use dprov_dp::mechanism::analytic_gaussian::analytic_gaussian_sigma;
use dprov_dp::rng::DpRng;
use dprov_dp::sensitivity::Sensitivity;
use dprov_dp::translation::translate_variance_to_epsilon;
use dprov_engine::database::Database;
use dprov_engine::exec::execute;

use crate::analyst::{AnalystId, AnalystRegistry};
use crate::config::{AnalystConstraintSpec, SystemConfig};
use crate::error::{CoreError, RejectReason, Result};
use crate::processor::{AnsweredQuery, QueryOutcome, QueryProcessor, QueryRequest, SubmissionMode};
use crate::provenance::analyst_constraints;
use crate::system::SystemStats;

use super::direct_query_sensitivity;

/// The ChorusP baseline.
pub struct ChorusPBaseline {
    db: Database,
    registry: AnalystRegistry,
    config: SystemConfig,
    rng: DpRng,
    row_constraints: Vec<f64>,
    consumed_total: f64,
    per_analyst_consumed: Vec<f64>,
    per_analyst_answered: Vec<usize>,
    stats: SystemStats,
}

impl ChorusPBaseline {
    /// Builds the baseline. Analyst constraints follow Definition 10 (the
    /// proportional specification), matching the paper's configuration of
    /// ChorusP.
    pub fn new(db: Database, registry: AnalystRegistry, config: SystemConfig) -> Result<Self> {
        let spec_config = config
            .clone()
            .with_analyst_constraints(AnalystConstraintSpec::ProportionalSum);
        let row_constraints = analyst_constraints(&spec_config, &registry)?;
        let n = registry.len();
        let rng = DpRng::seed_from_u64(config.seed);
        Ok(ChorusPBaseline {
            db,
            registry,
            config,
            rng,
            row_constraints,
            consumed_total: 0.0,
            per_analyst_consumed: vec![0.0; n],
            per_analyst_answered: vec![0; n],
            stats: SystemStats {
                setup_time: std::time::Duration::ZERO,
                query_time: std::time::Duration::ZERO,
                answered: 0,
                rejected: 0,
                cache_hits: 0,
            },
        })
    }

    /// The row constraint ψ_Ai of an analyst.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn row_constraint(&self, analyst: AnalystId) -> f64 {
        self.row_constraints[analyst.0]
    }

    fn required_epsilon(&self, request: &QueryRequest) -> std::result::Result<f64, RejectReason> {
        let sensitivity = direct_query_sensitivity(&self.db, &request.query)
            .map_err(|_| RejectReason::NotAnswerable)?;
        match request.mode {
            SubmissionMode::Privacy { epsilon } => Ok(epsilon),
            SubmissionMode::Accuracy { variance } => {
                if !(variance.is_finite() && variance > 0.0) {
                    return Err(RejectReason::AccuracyUnreachable);
                }
                translate_variance_to_epsilon(
                    variance,
                    self.config.delta,
                    Sensitivity::new(sensitivity).map_err(|_| RejectReason::NotAnswerable)?,
                    self.config.total_epsilon,
                    self.config.translation_precision,
                )
                .map(|t| t.epsilon.value())
                .map_err(|_| RejectReason::AccuracyUnreachable)
            }
        }
    }
}

impl QueryProcessor for ChorusPBaseline {
    fn name(&self) -> String {
        "ChorusP".to_owned()
    }

    fn submit(&mut self, analyst: AnalystId, request: &QueryRequest) -> Result<QueryOutcome> {
        self.registry.get(analyst)?;
        let start = Instant::now();
        let outcome = (|| {
            let epsilon = match self.required_epsilon(request) {
                Ok(e) => e,
                Err(reason) => {
                    self.stats.rejected += 1;
                    return Ok(QueryOutcome::Rejected { reason });
                }
            };
            if self.consumed_total + epsilon > self.config.total_epsilon.value() + 1e-9 {
                self.stats.rejected += 1;
                return Ok(QueryOutcome::Rejected {
                    reason: RejectReason::TableConstraint,
                });
            }
            if self.per_analyst_consumed[analyst.0] + epsilon
                > self.row_constraints[analyst.0] + 1e-9
            {
                self.stats.rejected += 1;
                return Ok(QueryOutcome::Rejected {
                    reason: RejectReason::AnalystConstraint { analyst },
                });
            }

            let sensitivity =
                direct_query_sensitivity(&self.db, &request.query).map_err(CoreError::Engine)?;
            let sigma = analytic_gaussian_sigma(epsilon, self.config.delta.value(), sensitivity)
                .map_err(CoreError::Dp)?;
            let result = execute(&self.db, &request.query).map_err(CoreError::Engine)?;
            let truth = match result.scalar() {
                Some(v) => v,
                None => {
                    self.stats.rejected += 1;
                    return Ok(QueryOutcome::Rejected {
                        reason: RejectReason::NotAnswerable,
                    });
                }
            };
            let value = truth + self.rng.gaussian(sigma);

            self.consumed_total += epsilon;
            self.per_analyst_consumed[analyst.0] += epsilon;
            self.per_analyst_answered[analyst.0] += 1;
            self.stats.answered += 1;
            Ok(QueryOutcome::Answered(AnsweredQuery {
                value,
                view: None,
                epsilon_charged: epsilon,
                noise_variance: sigma * sigma,
                from_cache: false,
                epoch: 0,
            }))
        })();
        self.stats.query_time += start.elapsed();
        outcome
    }

    fn cumulative_epsilon(&self) -> f64 {
        self.consumed_total
    }

    fn analyst_epsilon(&self, analyst: AnalystId) -> f64 {
        self.per_analyst_consumed
            .get(analyst.0)
            .copied()
            .unwrap_or(0.0)
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

    fn build(epsilon: f64) -> ChorusPBaseline {
        let db = adult_database(2_000, 1);
        let mut registry = AnalystRegistry::new();
        registry.register("external", 1).unwrap();
        registry.register("internal", 4).unwrap();
        ChorusPBaseline::new(
            db,
            registry,
            SystemConfig::new(epsilon).unwrap().with_seed(3),
        )
        .unwrap()
    }

    fn request(v: f64) -> QueryRequest {
        QueryRequest::with_accuracy(Query::range_count("adult", "age", 25, 44), v)
    }

    #[test]
    fn constraints_follow_definition_10() {
        let chorus_p = build(1.0);
        assert!((chorus_p.row_constraint(AnalystId(0)) - 0.2).abs() < 1e-12);
        assert!((chorus_p.row_constraint(AnalystId(1)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn low_privilege_analyst_cannot_starve_the_high_privilege_one() {
        let mut chorus_p = build(1.0);
        // Drain analyst 0 (privilege 1, constraint 0.2).
        let mut answered_low = 0;
        for _ in 0..200 {
            if chorus_p
                .submit(AnalystId(0), &request(2_000.0))
                .unwrap()
                .is_answered()
            {
                answered_low += 1;
            }
        }
        assert!(chorus_p.analyst_epsilon(AnalystId(0)) <= 0.2 + 1e-6);
        // The high-privilege analyst still has room.
        let outcome = chorus_p.submit(AnalystId(1), &request(2_000.0)).unwrap();
        assert!(outcome.is_answered());
        assert!(answered_low > 0);
    }

    #[test]
    fn table_constraint_still_applies() {
        let mut chorus_p = build(0.2);
        let mut total_answered = 0;
        for i in 0..300 {
            if chorus_p
                .submit(AnalystId((i % 2) as usize), &request(5_000.0))
                .unwrap()
                .is_answered()
            {
                total_answered += 1;
            }
        }
        assert!(chorus_p.cumulative_epsilon() <= 0.2 + 1e-6);
        assert!(total_answered > 0);
        assert!(total_answered < 300);
    }
}
