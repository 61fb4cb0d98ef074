//! Skewed multi-analyst scenarios (Zipfian view popularity).
//!
//! The batched execution subsystem (`dprov-exec`'s shared scans + the
//! server's micro-batches) pays off when concurrent analysts concentrate on a few
//! shared views and degenerates to one-at-a-time execution when every
//! query targets a different view. This generator produces both traffic
//! mixes from one knob: view (attribute) popularity follows a Zipf
//! distribution with exponent `s` — rank-`k` attribute drawn with weight
//! `1 / (k+1)^s` — so `s = 0` is uniform (**batch-hostile**: a micro-batch
//! rarely shares a view) and large `s` concentrates almost all traffic on
//! the most popular view (**batch-friendly**: whole batches share one
//! scan).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprov_core::processor::QueryRequest;
use dprov_delta::UpdateBatch;
use dprov_engine::database::Database;
use dprov_engine::query::Query;
use dprov_engine::schema::AttributeType;
use dprov_engine::value::Value;
use dprov_engine::Result as EngineResult;

use crate::rrq::RrqWorkload;

/// Configuration of the skewed-scenario generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewConfig {
    /// The table queried.
    pub(crate) table: String,
    /// Number of analysts in the scenario.
    pub(crate) analysts: usize,
    /// Number of queries generated per analyst.
    pub(crate) queries_per_analyst: usize,
    /// Zipf exponent of the view-popularity distribution: `0.0` is
    /// uniform over the integer attributes, larger values concentrate the
    /// workload on the first attributes.
    pub(crate) zipf_s: f64,
    /// Accuracy requirements are drawn uniformly from this inclusive range
    /// of expected squared errors.
    pub accuracy_range: (f64, f64),
    /// RNG seed.
    pub(crate) seed: u64,
}

impl SkewConfig {
    /// A scenario over `table` with the given analyst count and skew.
    #[must_use]
    pub fn new(table: &str, analysts: usize, queries_per_analyst: usize, zipf_s: f64) -> Self {
        SkewConfig {
            table: table.to_owned(),
            analysts,
            queries_per_analyst,
            zipf_s,
            accuracy_range: (5_000.0, 50_000.0),
            seed: 0,
        }
    }

    /// Batch-friendly traffic: heavy skew (`s = 2.5`) concentrates nearly
    /// every query on the most popular view, so a micro-batch's jobs
    /// mostly share one view.
    #[must_use]
    pub fn batch_friendly(table: &str, analysts: usize, queries_per_analyst: usize) -> Self {
        SkewConfig::new(table, analysts, queries_per_analyst, 2.5)
    }

    /// Batch-hostile traffic: no skew (`s = 0`) spreads queries uniformly
    /// over every integer attribute, so a micro-batch rarely shares a
    /// view.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn batch_hostile(table: &str, analysts: usize, queries_per_analyst: usize) -> Self {
        SkewConfig::new(table, analysts, queries_per_analyst, 0.0)
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates a skewed multi-analyst workload over the integer attributes
/// of the configured table. Every query is a range count whose bounds are
/// uniform over the chosen attribute's domain, submitted in accuracy mode;
/// the result reuses [`RrqWorkload`] so the experiment runner and the
/// service benches drive it unchanged.
pub fn generate(db: &Database, config: &SkewConfig) -> EngineResult<RrqWorkload> {
    let table = db.table(&config.table)?;
    let candidates: Vec<(String, i64, i64)> = table
        .schema()
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
        "skew generation requires at least one integer attribute"
    );

    // Zipf weights over attribute ranks.
    let weights: Vec<f64> = (0..candidates.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(config.zipf_s))
        .collect();
    let weight_total: f64 = weights.iter().sum();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut per_analyst = Vec::with_capacity(config.analysts);
    for _ in 0..config.analysts {
        let mut queries = Vec::with_capacity(config.queries_per_analyst);
        for _ in 0..config.queries_per_analyst {
            let mut draw = rng.gen::<f64>() * weight_total;
            let mut chosen = 0;
            for (k, w) in weights.iter().enumerate() {
                chosen = k;
                if draw < *w {
                    break;
                }
                draw -= w;
            }
            let (attr, min, max) = &candidates[chosen];
            let a = rng.gen_range(*min..=*max);
            let b = rng.gen_range(*min..=*max);
            let (lo, hi) = (a.min(b), a.max(b));
            let (v_lo, v_hi) = config.accuracy_range;
            let variance = rng.gen_range(v_lo..=v_hi);
            queries.push(QueryRequest::with_accuracy(
                Query::range_count(&config.table, attr, lo, hi),
                variance,
            ));
        }
        per_analyst.push(queries);
    }
    Ok(RrqWorkload { per_analyst })
}

/// One event of a streaming (dynamic-data) scenario, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// An analyst submits a query.
    Query {
        /// The submitting analyst's index.
        analyst: usize,
        /// The submission.
        request: QueryRequest,
    },
    /// The updater submits one insert/delete batch (pending until the
    /// next seal).
    Update(UpdateBatch),
    /// The updater seals the pending batches into the next epoch.
    Seal,
}

/// Configuration of the streaming scenario generator: interleaved update
/// batches and Zipf-popular queries with a configurable update rate.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// The query mix (table, analysts, Zipfian view popularity, accuracy
    /// range, seed). `queries_per_analyst` bounds the total query events.
    pub base: SkewConfig,
    /// The fraction of events that are updates (0.0 = static workload,
    /// 0.5 = one update per query on average).
    pub(crate) update_rate: f64,
    /// Rows per update batch (split between inserts and deletes of
    /// previously inserted rows).
    pub(crate) rows_per_update: usize,
    /// A [`StreamEvent::Seal`] is emitted after this many update batches
    /// (the epoch cadence).
    pub(crate) seal_every: usize,
}

impl StreamingConfig {
    /// An update-heavy preset: ~40% of events are update batches, sealing
    /// every 4 batches — the churn end of the spectrum, where the epoch
    /// policy dominates budget behaviour.
    #[must_use]
    pub fn update_heavy(table: &str, analysts: usize, queries_per_analyst: usize) -> Self {
        StreamingConfig {
            base: SkewConfig::batch_friendly(table, analysts, queries_per_analyst),
            update_rate: 0.4,
            rows_per_update: 8,
            seal_every: 4,
        }
    }

    /// A query-heavy preset: ~5% of events are update batches, sealing
    /// every 2 batches — long-lived deployments with occasional ingest.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn query_heavy(table: &str, analysts: usize, queries_per_analyst: usize) -> Self {
        StreamingConfig {
            base: SkewConfig::batch_friendly(table, analysts, queries_per_analyst),
            update_rate: 0.05,
            rows_per_update: 16,
            seal_every: 2,
        }
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base.seed = seed;
        self
    }
}

/// Generates a streaming scenario: query events drawn exactly like
/// [`generate`] (Zipfian view popularity over the integer attributes),
/// interleaved with update batches at the configured rate and a seal
/// every `seal_every` batches. Inserts sample uniform rows from the full
/// schema domain; deletes remove rows *previously inserted by the
/// stream*, so every batch validates against any base table contents.
/// The final event is always a [`StreamEvent::Seal`], so a driven run
/// ends on a sealed epoch. Deterministic in the seed.
pub fn generate_stream(db: &Database, config: &StreamingConfig) -> EngineResult<Vec<StreamEvent>> {
    let table = db.table(&config.base.table)?;
    let schema = table.schema().clone();
    let queries = generate(db, &config.base)?;
    // Interleave: flatten per-analyst queries round-robin (analyst 0's
    // first query, analyst 1's first, ... then the seconds) so concurrent
    // sessions stay busy throughout the stream.
    let mut per_analyst: Vec<std::collections::VecDeque<QueryRequest>> = queries
        .per_analyst
        .into_iter()
        .map(std::collections::VecDeque::from)
        .collect();
    let total_queries: usize = per_analyst
        .iter()
        .map(std::collections::VecDeque::len)
        .sum();

    let mut rng = StdRng::seed_from_u64(config.base.seed.wrapping_add(0x5EED_57E0));
    let mut events = Vec::new();
    let mut inserted_pool: Vec<Vec<Value>> = Vec::new();
    let mut updates_since_seal = 0usize;
    let mut emitted_queries = 0usize;
    let mut next_analyst = 0usize;

    let sample_row = |rng: &mut StdRng| -> Vec<Value> {
        schema
            .attributes()
            .iter()
            .map(|attr| attr.value_at(rng.gen_range(0..attr.domain_size())))
            .collect()
    };

    while emitted_queries < total_queries {
        let is_update = config.update_rate > 0.0 && rng.gen::<f64>() < config.update_rate;
        if is_update {
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for _ in 0..config.rows_per_update.max(1) {
                // Delete a previously inserted row half the time (when
                // the pool has one); otherwise insert a fresh row.
                if !inserted_pool.is_empty() && rng.gen::<bool>() {
                    let pick = rng.gen_range(0..inserted_pool.len());
                    deletes.push(inserted_pool.swap_remove(pick));
                } else {
                    let row = sample_row(&mut rng);
                    inserted_pool.push(row.clone());
                    inserts.push(row);
                }
            }
            events.push(StreamEvent::Update(UpdateBatch {
                table: config.base.table.clone(),
                inserts,
                deletes,
            }));
            updates_since_seal += 1;
            if updates_since_seal >= config.seal_every.max(1) {
                events.push(StreamEvent::Seal);
                updates_since_seal = 0;
            }
        } else {
            // Round-robin over analysts that still have queries left.
            for _ in 0..per_analyst.len() {
                let analyst = next_analyst % per_analyst.len();
                next_analyst += 1;
                if let Some(request) = per_analyst[analyst].pop_front() {
                    events.push(StreamEvent::Query { analyst, request });
                    emitted_queries += 1;
                    break;
                }
            }
        }
    }
    events.push(StreamEvent::Seal);
    Ok(events)
}

/// The fraction of events that are update batches (the realised update
/// rate of a generated stream).
#[must_use]
pub fn update_share(events: &[StreamEvent]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let updates = events
        .iter()
        .filter(|e| matches!(e, StreamEvent::Update(_)))
        .count();
    updates as f64 / events.len() as f64
}

/// The fraction of queries (across all analysts) that reference the named
/// attribute — the observable "view popularity" of a generated workload.
#[must_use]
pub fn attribute_share(workload: &RrqWorkload, attribute: &str) -> f64 {
    let total = workload.total_queries();
    if total == 0 {
        return 0.0;
    }
    let hits = workload
        .per_analyst
        .iter()
        .flatten()
        .filter(|r| {
            r.query
                .referenced_attributes()
                .iter()
                .any(|a| a == attribute)
        })
        .count();
    hits as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::datagen::adult::adult_database;
    use dprov_engine::expr::Predicate;

    #[test]
    fn generates_the_requested_shape_deterministically() {
        let db = adult_database(300, 1);
        let config = SkewConfig::new("adult", 5, 40, 1.0).with_seed(9);
        let w = generate(&db, &config).unwrap();
        assert_eq!(w.per_analyst.len(), 5);
        assert_eq!(w.total_queries(), 200);
        assert_eq!(generate(&db, &config).unwrap(), w);
        assert_ne!(generate(&db, &config.clone().with_seed(10)).unwrap(), w);
        for request in w.per_analyst.iter().flatten() {
            match &request.query.predicate {
                Predicate::Range { low, high, .. } => assert!(low <= high),
                other => panic!("unexpected predicate {other:?}"),
            }
        }
    }

    #[test]
    fn batch_friendly_concentrates_and_batch_hostile_spreads() {
        let db = adult_database(300, 1);
        let friendly = generate(
            &db,
            &SkewConfig::batch_friendly("adult", 4, 400).with_seed(3),
        )
        .unwrap();
        let hostile = generate(
            &db,
            &SkewConfig::batch_hostile("adult", 4, 400).with_seed(3),
        )
        .unwrap();
        // "age" is the rank-0 integer attribute of the adult schema.
        let friendly_share = attribute_share(&friendly, "age");
        let hostile_share = attribute_share(&hostile, "age");
        assert!(
            friendly_share > 0.6,
            "heavy skew should concentrate on the top view, got {friendly_share}"
        );
        // The adult schema has 5 integer attributes; uniform traffic puts
        // roughly 1/5 of the queries on each.
        assert!(
            hostile_share < 0.35,
            "uniform traffic should spread out, got {hostile_share}"
        );
        assert!(friendly_share > 2.0 * hostile_share);
    }

    #[test]
    fn streaming_presets_hit_their_update_rates_deterministically() {
        let db = adult_database(300, 1);
        let heavy = generate_stream(
            &db,
            &StreamingConfig::update_heavy("adult", 4, 50).with_seed(5),
        )
        .unwrap();
        let light = generate_stream(
            &db,
            &StreamingConfig::query_heavy("adult", 4, 50).with_seed(5),
        )
        .unwrap();
        // Determinism in the seed.
        assert_eq!(
            generate_stream(
                &db,
                &StreamingConfig::update_heavy("adult", 4, 50).with_seed(5)
            )
            .unwrap(),
            heavy
        );
        // The realised update shares separate the presets.
        assert!(update_share(&heavy) > 0.25, "{}", update_share(&heavy));
        assert!(update_share(&light) < 0.12, "{}", update_share(&light));
        assert!(update_share(&heavy) > 3.0 * update_share(&light));
        // Every requested query is present, streams end on a seal.
        for events in [&heavy, &light] {
            let queries = events
                .iter()
                .filter(|e| matches!(e, StreamEvent::Query { .. }))
                .count();
            assert_eq!(queries, 200);
            assert_eq!(events.last(), Some(&StreamEvent::Seal));
        }
        // Update batches validate against an engine mirror: inserts are
        // in-domain and deletes only name rows inserted earlier.
        let mut mirror = db.table("adult").unwrap().clone();
        let base_rows = mirror.num_rows();
        for event in &heavy {
            if let StreamEvent::Update(batch) = event {
                for row in &batch.inserts {
                    mirror.insert_row(row).unwrap();
                }
                for row in &batch.deletes {
                    let schema = mirror.schema();
                    let encoded: Vec<u32> = schema
                        .attributes()
                        .iter()
                        .zip(row)
                        .map(|(a, v)| a.index_of(v).unwrap() as u32)
                        .collect();
                    assert!(
                        mirror.delete_encoded_row(&encoded).unwrap(),
                        "stream deleted a row it never inserted"
                    );
                }
            }
        }
        assert!(mirror.num_rows() >= base_rows);
    }

    #[test]
    fn zero_analysts_and_empty_share_are_well_defined() {
        let db = adult_database(100, 1);
        let w = generate(&db, &SkewConfig::new("adult", 0, 10, 1.0)).unwrap();
        assert_eq!(w.total_queries(), 0);
        assert_eq!(attribute_share(&w, "age"), 0.0);
        assert!(generate(&db, &SkewConfig::new("nope", 1, 1, 1.0)).is_err());
    }
}
