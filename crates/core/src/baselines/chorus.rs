//! The plain Chorus baseline.
//!
//! Chorus \[29\] answers each query directly from the database with fresh
//! Gaussian noise, tracks a single overall budget, keeps no state between
//! queries, and treats every analyst as the same principal. It is the
//! "stateless" extreme DProvDB argues against: similar queries and similar
//! analysts pay full price every time.

use dprov_dp::mechanism::analytic_gaussian::analytic_gaussian_sigma;
use dprov_dp::rng::DpRng;
use dprov_dp::sensitivity::Sensitivity;
use dprov_dp::translation::translate_variance_to_epsilon;
use dprov_engine::database::Database;
use dprov_exec::{ColumnarExecutor, ExecConfig};

use crate::analyst::{AnalystId, AnalystRegistry};
use crate::config::SystemConfig;
use crate::error::{CoreError, RejectReason, Result};
use crate::processor::{AnsweredQuery, QueryOutcome, QueryProcessor, QueryRequest, SubmissionMode};

use super::direct_query_sensitivity;

/// The plain Chorus baseline.
pub struct ChorusBaseline {
    db: Database,
    /// Chorus scans the base table on every single query (it keeps no
    /// synopses), so its per-query scan runs on the columnar executor.
    exec: ColumnarExecutor,
    registry: AnalystRegistry,
    config: SystemConfig,
    rng: DpRng,
    consumed_total: f64,
    per_analyst_consumed: Vec<f64>,
}

impl ChorusBaseline {
    /// Builds the baseline. Chorus materialises no synopses; its only
    /// setup cost is ingesting the database into the columnar store the
    /// per-query scans run on.
    #[must_use]
    pub fn new(db: Database, registry: AnalystRegistry, config: SystemConfig) -> Self {
        let n = registry.len();
        let rng = DpRng::seed_from_u64(config.seed);
        let exec = ColumnarExecutor::ingest(&db, &ExecConfig::default());
        ChorusBaseline {
            db,
            exec,
            registry,
            config,
            rng,
            consumed_total: 0.0,
            per_analyst_consumed: vec![0.0; n],
        }
    }

    /// Translates the request into an epsilon for direct query answering.
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

    fn answer_directly(
        &mut self,
        analyst: AnalystId,
        request: &QueryRequest,
        epsilon: f64,
    ) -> Result<QueryOutcome> {
        let sensitivity =
            direct_query_sensitivity(&self.db, &request.query).map_err(CoreError::Engine)?;
        let sigma = analytic_gaussian_sigma(epsilon, self.config.delta.value(), sensitivity)
            .map_err(CoreError::Dp)?;
        // GROUP BY queries are not scalar — the row path used to discover
        // that after executing; the columnar path rejects them up front
        // with the same outcome.
        if !request.query.group_by.is_empty() {
            return Ok(QueryOutcome::Rejected {
                reason: RejectReason::NotAnswerable,
            });
        }
        let truth = self
            .exec
            .execute(&request.query)
            .map_err(CoreError::Engine)?;
        let value = truth + self.rng.gaussian(sigma);

        self.consumed_total += epsilon;
        self.per_analyst_consumed[analyst.0] += epsilon;

        Ok(QueryOutcome::Answered(AnsweredQuery {
            value,
            view: None,
            epsilon_charged: epsilon,
            noise_variance: sigma * sigma,
            from_cache: false,
            epoch: 0,
        }))
    }
}

impl QueryProcessor for ChorusBaseline {
    fn name(&self) -> String {
        "Chorus".to_owned()
    }

    fn submit(&mut self, analyst: AnalystId, request: &QueryRequest) -> Result<QueryOutcome> {
        self.registry.get(analyst)?;
        let epsilon = match self.required_epsilon(request) {
            Ok(e) => e,
            Err(reason) => return Ok(QueryOutcome::Rejected { reason }),
        };
        if self.consumed_total + epsilon > self.config.total_epsilon.value() + 1e-9 {
            return Ok(QueryOutcome::Rejected {
                reason: RejectReason::TableConstraint,
            });
        }
        self.answer_directly(analyst, request, epsilon)
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

    fn build(epsilon: f64) -> ChorusBaseline {
        let db = adult_database(2_000, 1);
        let mut registry = AnalystRegistry::new();
        registry.register("external", 1).unwrap();
        registry.register("internal", 4).unwrap();
        ChorusBaseline::new(
            db,
            registry,
            SystemConfig::new(epsilon).unwrap().with_seed(3),
        )
    }

    fn request(lo: i64, hi: i64, v: f64) -> QueryRequest {
        QueryRequest::with_accuracy(Query::range_count("adult", "age", lo, hi), v)
    }

    #[test]
    fn answers_until_the_budget_runs_out() {
        let mut chorus = build(1.0);
        let mut answered = 0;
        for i in 0..200 {
            let outcome = chorus
                .submit(AnalystId((i % 2) as usize), &request(20, 40, 100.0))
                .unwrap();
            if outcome.is_answered() {
                answered += 1;
            }
        }
        assert!(answered > 0);
        // The budget is finite so not everything is answered.
        assert!(answered < 200, "answered {answered}");
        assert!(chorus.cumulative_epsilon() <= 1.0 + 1e-6);
    }

    #[test]
    fn identical_queries_pay_every_time() {
        let mut chorus = build(10.0);
        let r = request(30, 39, 100.0);
        let a = chorus.submit(AnalystId(0), &r).unwrap();
        let b = chorus.submit(AnalystId(0), &r).unwrap();
        let (a, b) = (a.answered().unwrap().clone(), b.answered().unwrap().clone());
        assert!(a.epsilon_charged > 0.0);
        assert!((a.epsilon_charged - b.epsilon_charged).abs() < 1e-9);
        assert!(!b.from_cache);
        assert!((chorus.cumulative_epsilon() - 2.0 * a.epsilon_charged).abs() < 1e-9);
    }

    #[test]
    fn no_distinction_between_analysts() {
        // A low-privilege analyst can drain the whole budget.
        let mut chorus = build(0.5);
        let mut drained = 0;
        while chorus
            .submit(AnalystId(0), &request(20, 40, 200.0))
            .unwrap()
            .is_answered()
        {
            drained += 1;
            assert!(drained < 1_000);
        }
        // Now the high-privilege analyst gets nothing.
        let outcome = chorus
            .submit(AnalystId(1), &request(20, 40, 200.0))
            .unwrap();
        assert!(!outcome.is_answered());
        assert!(chorus.analyst_epsilon(AnalystId(0)) > 0.0);
        assert_eq!(chorus.analyst_epsilon(AnalystId(1)), 0.0);
    }

    #[test]
    fn privacy_mode_uses_the_given_epsilon() {
        let mut chorus = build(1.0);
        let r = QueryRequest::with_privacy(Query::count("adult"), 0.25);
        let outcome = chorus.submit(AnalystId(0), &r).unwrap();
        assert!((outcome.answered().unwrap().epsilon_charged - 0.25).abs() < 1e-12);
    }
}
