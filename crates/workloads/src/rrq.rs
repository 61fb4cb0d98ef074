//! Randomized range queries (RRQ, §6.1.2).
//!
//! Each analyst receives a batch of range-count queries. For every query an
//! integer attribute is selected with a *biased* distribution (earlier
//! attributes are more popular, modelling analysts' shared interest in a few
//! columns — which is exactly the situation where the additive Gaussian
//! approach saves budget), and the range `[s, s + o]` has its start and
//! offset drawn from normal distributions over the attribute's domain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprov_core::processor::QueryRequest;
use dprov_engine::database::Database;
use dprov_engine::query::Query;
use dprov_engine::schema::AttributeType;
use dprov_engine::Result as EngineResult;

/// Configuration of the RRQ workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct RrqConfig {
    /// The table queried.
    pub table: String,
    /// Number of queries generated per analyst (the paper uses 4,000).
    pub queries_per_analyst: usize,
    /// Accuracy requirements are drawn uniformly from this inclusive range
    /// of expected squared errors.
    pub accuracy_range: (f64, f64),
    /// Bias parameter for attribute selection: attribute `k` (in schema
    /// order, integer attributes only) is chosen with weight `bias^k`.
    /// Values below 1 concentrate the workload on the first attributes.
    pub attribute_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RrqConfig {
    /// The default configuration used by the end-to-end experiments,
    /// scaled by `queries_per_analyst`.
    #[must_use]
    pub fn new(table: &str, queries_per_analyst: usize, seed: u64) -> Self {
        RrqConfig {
            table: table.to_owned(),
            queries_per_analyst,
            accuracy_range: (5_000.0, 50_000.0),
            attribute_bias: 0.5,
            seed,
        }
    }
}

/// A generated RRQ workload: one query batch per analyst.
#[derive(Debug, Clone, PartialEq)]
pub struct RrqWorkload {
    /// `per_analyst[i]` is the query batch of analyst `i`.
    pub per_analyst: Vec<Vec<QueryRequest>>,
}

impl RrqWorkload {
    /// Total number of queries across analysts.
    #[must_use]
    pub fn total_queries(&self) -> usize {
        self.per_analyst.iter().map(Vec::len).sum()
    }

    /// Truncates every analyst's batch to at most `limit` queries (used by
    /// the workload-size sweep of Fig. 5).
    #[must_use]
    pub fn truncated(&self, limit: usize) -> RrqWorkload {
        RrqWorkload {
            per_analyst: self
                .per_analyst
                .iter()
                .map(|qs| qs.iter().take(limit).cloned().collect())
                .collect(),
        }
    }
}

/// Generates an RRQ workload for `num_analysts` analysts over the integer
/// attributes of the configured table.
pub fn generate(
    db: &Database,
    config: &RrqConfig,
    num_analysts: usize,
) -> EngineResult<RrqWorkload> {
    let table = db.table(&config.table)?;
    let schema = table.schema();

    // Candidate attributes: integers with a reasonably wide domain so range
    // predicates are meaningful.
    let candidates: Vec<(String, i64, i64)> = schema
        .attributes()
        .iter()
        .filter_map(|a| match a.attr_type {
            AttributeType::Integer { min, max, .. } if max > min => {
                Some((a.name.clone(), min, max))
            }
            _ => None,
        })
        .collect();
    assert!(
        !candidates.is_empty(),
        "RRQ generation requires at least one integer attribute"
    );

    let weights: Vec<f64> = (0..candidates.len())
        .map(|k| config.attribute_bias.powi(k as i32))
        .collect();
    let weight_total: f64 = weights.iter().sum();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut per_analyst = Vec::with_capacity(num_analysts);
    for _ in 0..num_analysts {
        let mut queries = Vec::with_capacity(config.queries_per_analyst);
        for _ in 0..config.queries_per_analyst {
            // Biased attribute pick.
            let mut draw = rng.gen::<f64>() * weight_total;
            let mut chosen = 0;
            for (k, w) in weights.iter().enumerate() {
                if draw < *w {
                    chosen = k;
                    break;
                }
                draw -= w;
                chosen = k;
            }
            let (attr, min, max) = &candidates[chosen];
            let span = (max - min) as f64;

            // Normally distributed start and offset over the domain.
            let start = normal(&mut rng, *min as f64 + span / 2.0, span / 4.0)
                .round()
                .clamp(*min as f64, *max as f64) as i64;
            let offset = normal(&mut rng, span / 4.0, span / 8.0)
                .abs()
                .round()
                .max(1.0) as i64;
            let end = (start + offset).min(*max);

            let (lo, hi) = config.accuracy_range;
            let variance = rng.gen_range(lo..=hi);
            queries.push(QueryRequest::with_accuracy(
                Query::range_count(&config.table, attr, start, end),
                variance,
            ));
        }
        per_analyst.push(queries);
    }

    Ok(RrqWorkload { per_analyst })
}

fn normal(rng: &mut StdRng, mean: f64, std_dev: f64) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    mean + std_dev * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_core::processor::SubmissionMode;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_engine::expr::Predicate;

    #[test]
    fn generates_the_requested_shape() {
        let db = adult_database(200, 1);
        let config = RrqConfig::new("adult", 50, 3);
        let w = generate(&db, &config, 3).unwrap();
        assert_eq!(w.per_analyst.len(), 3);
        assert_eq!(w.total_queries(), 150);
        assert_eq!(w.truncated(10).total_queries(), 30);
    }

    #[test]
    fn generation_is_deterministic_under_a_seed() {
        let db = adult_database(200, 1);
        let config = RrqConfig::new("adult", 20, 7);
        assert_eq!(
            generate(&db, &config, 2).unwrap(),
            generate(&db, &config, 2).unwrap()
        );
        let other = RrqConfig::new("adult", 20, 8);
        assert_ne!(
            generate(&db, &config, 2).unwrap(),
            generate(&db, &other, 2).unwrap()
        );
    }

    #[test]
    fn queries_are_valid_range_counts_with_accuracy_bounds() {
        let db = adult_database(200, 1);
        let config = RrqConfig::new("adult", 100, 5);
        let w = generate(&db, &config, 1).unwrap();
        for request in &w.per_analyst[0] {
            match request.mode {
                SubmissionMode::Accuracy { variance } => {
                    assert!((5_000.0..=50_000.0).contains(&variance));
                }
                SubmissionMode::Privacy { .. } => panic!("RRQ uses the accuracy mode"),
            }
            match &request.query.predicate {
                Predicate::Range { low, high, .. } => assert!(low <= high),
                other => panic!("unexpected predicate {other:?}"),
            }
        }
    }

    #[test]
    fn attribute_selection_is_biased_towards_early_attributes() {
        let db = adult_database(200, 1);
        let config = RrqConfig::new("adult", 2_000, 11);
        let w = generate(&db, &config, 1).unwrap();
        let age_queries = w.per_analyst[0]
            .iter()
            .filter(|r| r.query.referenced_attributes().contains(&"age".to_owned()))
            .count();
        // "age" is the first integer attribute, so with bias 0.5 it should
        // receive roughly half of the workload.
        assert!(age_queries > 700, "age got only {age_queries} of 2000");
    }
}
