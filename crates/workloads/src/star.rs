//! Synthetic star-schema dataset and grouped workload presets.
//!
//! A small retail star: a `sales` fact table keyed into two dimension
//! tables (`store`, `item`). The dataset is FK-consistent by construction —
//! every fact key has exactly one matching dimension row — so
//! [`StarSchema::fold`] always succeeds, and the folded `sales_wide` table
//! carries the dimension attributes (`store.region`, `item.category`, …)
//! that the grouped workloads query.
//!
//! [`GroupedConfig::grouped_heavy`] drives `dprovbench`'s `grouped`
//! workload and the equivalence tests: per-analyst batches dominated by a
//! few popular groupings (batch-friendly: grouped cells of one view fill
//! the server's micro-batches).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dprov_core::processor::GroupedRequest;
use dprov_engine::database::Database;
use dprov_engine::group::GroupByQuery;
use dprov_engine::schema::{Attribute, AttributeType, Schema};
use dprov_engine::star::StarSchema;
use dprov_engine::table::Table;
use dprov_engine::Result as EngineResult;

/// The fact table.
pub const SALES_TABLE: &str = "sales";
/// The store dimension.
pub const STORE_TABLE: &str = "store";
/// The item dimension.
pub const ITEM_TABLE: &str = "item";
/// The join-folded (denormalised) table the workloads query.
pub const SALES_WIDE_TABLE: &str = "sales_wide";

const STORES: usize = 12;
const ITEMS: usize = 24;
const REGIONS: &[&str] = &["NA", "EU", "APAC", "LATAM"];
const CHANNELS: &[&str] = &["online", "retail", "partner"];
const CATEGORIES: &[&str] = &["grocery", "electronics", "apparel", "home", "toys"];

/// The star-schema declaration joining `sales` to both dimensions.
#[must_use]
pub fn sales_star() -> StarSchema {
    StarSchema::new(SALES_WIDE_TABLE, SALES_TABLE)
        .join("store_id", STORE_TABLE, "store_id")
        .join("item_id", ITEM_TABLE, "item_id")
}

/// Generates the star database: `sales` fact rows plus the two dimension
/// tables, FK-consistent (every key value 0..N has exactly one dimension
/// row). Deterministic in the seed.
#[must_use]
pub fn star_database(fact_rows: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    let mut store = Table::new(
        STORE_TABLE,
        Schema::new(vec![
            Attribute::new("store_id", AttributeType::integer(0, STORES as i64 - 1)),
            Attribute::new("region", AttributeType::categorical(REGIONS)),
            Attribute::new("channel", AttributeType::categorical(CHANNELS)),
        ]),
    );
    for id in 0..STORES {
        store
            .insert_encoded_row(&[
                id as u32,
                (id % REGIONS.len()) as u32,
                rng.gen_range(0..CHANNELS.len()) as u32,
            ])
            .expect("store row matches schema");
    }
    db.add_table(store);

    let mut item = Table::new(
        ITEM_TABLE,
        Schema::new(vec![
            Attribute::new("item_id", AttributeType::integer(0, ITEMS as i64 - 1)),
            Attribute::new("category", AttributeType::categorical(CATEGORIES)),
            Attribute::new("price_band", AttributeType::integer(1, 5)),
        ]),
    );
    for id in 0..ITEMS {
        item.insert_encoded_row(&[
            id as u32,
            (id % CATEGORIES.len()) as u32,
            rng.gen_range(0..5) as u32,
        ])
        .expect("item row matches schema");
    }
    db.add_table(item);

    let mut sales = Table::new(
        SALES_TABLE,
        Schema::new(vec![
            Attribute::new("store_id", AttributeType::integer(0, STORES as i64 - 1)),
            Attribute::new("item_id", AttributeType::integer(0, ITEMS as i64 - 1)),
            Attribute::new("quantity", AttributeType::integer(1, 20)),
            Attribute::new("day", AttributeType::integer(0, 29)),
        ]),
    );
    for _ in 0..fact_rows {
        // Popular stores and items get more traffic (rank-biased picks),
        // so grouped answers have realistic skew.
        let store_id = rng.gen_range(0..STORES).min(rng.gen_range(0..STORES));
        let item_id = rng.gen_range(0..ITEMS).min(rng.gen_range(0..ITEMS));
        sales
            .insert_encoded_row(&[
                store_id as u32,
                item_id as u32,
                rng.gen_range(0..20) as u32,
                rng.gen_range(0..30) as u32,
            ])
            .expect("sales row matches schema");
    }
    db.add_table(sales);
    db
}

/// [`star_database`] with the star already folded: the returned database
/// additionally holds the denormalised [`SALES_WIDE_TABLE`].
#[must_use]
pub fn folded_star_database(fact_rows: usize, seed: u64) -> Database {
    let mut db = star_database(fact_rows, seed);
    sales_star()
        .fold(&mut db)
        .expect("the generated star is FK-consistent");
    db
}

/// Configuration of the grouped workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedConfig {
    /// The (folded) table queried.
    pub table: String,
    /// Number of analysts.
    pub analysts: usize,
    /// Grouped queries per analyst.
    pub queries_per_analyst: usize,
    /// Zipf exponent over the grouping candidates: 0 is uniform, larger
    /// values concentrate traffic on the first groupings.
    pub zipf_s: f64,
    /// Per-cell accuracy targets drawn uniformly from this range.
    pub accuracy_range: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl GroupedConfig {
    /// A grouped scenario over `table`.
    #[must_use]
    pub fn new(table: &str, analysts: usize, queries_per_analyst: usize, zipf_s: f64) -> Self {
        GroupedConfig {
            table: table.to_owned(),
            analysts,
            queries_per_analyst,
            zipf_s,
            accuracy_range: (5_000.0, 50_000.0),
            seed: 0,
        }
    }

    /// Grouped-heavy traffic: strong skew (`s = 2.0`) concentrates the
    /// batches on the first groupings, so a micro-batch's jobs mostly share
    /// a view and the grouped gather path fills up.
    #[must_use]
    pub fn grouped_heavy(table: &str, analysts: usize, queries_per_analyst: usize) -> Self {
        GroupedConfig::new(table, analysts, queries_per_analyst, 2.0)
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A generated grouped workload: one batch of grouped submissions per
/// analyst.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedWorkload {
    /// `per_analyst[i]` is analyst `i`'s batch, in submission order.
    pub per_analyst: Vec<Vec<GroupedRequest>>,
}

impl GroupedWorkload {
    /// Total grouped submissions across analysts.
    #[must_use]
    pub fn total_queries(&self) -> usize {
        self.per_analyst.iter().map(Vec::len).sum()
    }
}

/// The grouping candidates of a table: every single categorical or
/// small-domain attribute, then a couple of popular pairs. Returned in
/// rank order (rank 0 gets the most Zipf weight).
fn grouping_candidates(db: &Database, table: &str) -> EngineResult<Vec<Vec<String>>> {
    let schema = db.table(table)?.schema().clone();
    let mut singles: Vec<String> = schema
        .attributes()
        .iter()
        .filter(|a| a.domain_size() <= 32)
        .map(|a| a.name.clone())
        .collect();
    assert!(
        !singles.is_empty(),
        "grouped generation requires at least one small-domain attribute"
    );
    // Prefer the widened dimension attributes (they are the interesting
    // group-bys of a star), keeping relative order otherwise.
    singles.sort_by_key(|name| usize::from(!name.contains('.')));
    let mut candidates: Vec<Vec<String>> = singles.iter().map(|s| vec![s.clone()]).collect();
    for pair in singles.windows(2).take(2) {
        candidates.push(pair.to_vec());
    }
    Ok(candidates)
}

/// Generates a grouped workload over the configured table: each submission
/// is a grouped COUNT (or, one time in four, a grouped SUM over the first
/// numeric attribute) whose grouping is drawn with Zipf weight over the
/// candidate groupings, submitted in accuracy mode. Deterministic in the
/// seed.
pub fn generate_grouped(db: &Database, config: &GroupedConfig) -> EngineResult<GroupedWorkload> {
    let candidates = grouping_candidates(db, &config.table)?;
    let schema = db.table(&config.table)?.schema().clone();
    let sum_target = schema
        .attributes()
        .iter()
        .find(|a| a.attr_type.is_numeric() && a.domain_size() > 2)
        .map(|a| a.name.clone());

    let weights: Vec<f64> = (0..candidates.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(config.zipf_s))
        .collect();
    let weight_total: f64 = weights.iter().sum();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut per_analyst = Vec::with_capacity(config.analysts);
    for _ in 0..config.analysts {
        let mut batch = Vec::with_capacity(config.queries_per_analyst);
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
            let group_cols = &candidates[chosen];
            let query = match &sum_target {
                Some(target) if rng.gen_range(0..4) == 0 => {
                    GroupByQuery::sum(&config.table, target, group_cols)
                }
                _ => GroupByQuery::count(&config.table, group_cols),
            };
            let (lo, hi) = config.accuracy_range;
            let variance = rng.gen_range(lo..=hi);
            batch.push(GroupedRequest::with_accuracy(query, variance));
        }
        per_analyst.push(batch);
    }
    Ok(GroupedWorkload { per_analyst })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_engine::exec::execute;
    use dprov_engine::star::StarSchema;

    #[test]
    fn star_is_fk_consistent_and_deterministic() {
        let a = star_database(400, 9);
        let b = star_database(400, 9);
        let c = star_database(400, 10);
        assert_eq!(a.table(SALES_TABLE), b.table(SALES_TABLE));
        assert_ne!(a.table(SALES_TABLE), c.table(SALES_TABLE));
        // Folding succeeds (no dangling keys, no duplicate dimension keys).
        let folded = folded_star_database(400, 9);
        let wide = folded.table(SALES_WIDE_TABLE).unwrap();
        assert_eq!(wide.num_rows(), 400);
        let names: Vec<&str> = wide
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert!(names.contains(&"store.region"));
        assert!(names.contains(&"item.price_band"));
    }

    #[test]
    fn fold_matches_hand_denormalisation() {
        let db = star_database(200, 4);
        let folded = sales_star().denormalise(&db).unwrap();
        let sales = db.table(SALES_TABLE).unwrap();
        let store = db.table(STORE_TABLE).unwrap();
        let item = db.table(ITEM_TABLE).unwrap();
        let mut hand = Table::new(SALES_WIDE_TABLE, folded.schema().clone());
        for row in 0..sales.num_rows() {
            let store_id = sales.value_at(row, "store_id").unwrap();
            let item_id = sales.value_at(row, "item_id").unwrap();
            let store_row = (0..store.num_rows())
                .find(|&r| store.value_at(r, "store_id").unwrap() == store_id)
                .unwrap();
            let item_row = (0..item.num_rows())
                .find(|&r| item.value_at(r, "item_id").unwrap() == item_id)
                .unwrap();
            hand.insert_row(&[
                store_id,
                item_id,
                sales.value_at(row, "quantity").unwrap(),
                sales.value_at(row, "day").unwrap(),
                store.value_at(store_row, "region").unwrap(),
                store.value_at(store_row, "channel").unwrap(),
                item.value_at(item_row, "category").unwrap(),
                item.value_at(item_row, "price_band").unwrap(),
            ])
            .unwrap();
        }
        for pos in 0..folded.schema().arity() {
            assert_eq!(folded.column_at(pos), hand.column_at(pos));
        }
    }

    #[test]
    fn grouped_heavy_is_deterministic_and_skewed() {
        let db = folded_star_database(300, 2);
        let config = GroupedConfig::grouped_heavy(SALES_WIDE_TABLE, 4, 100).with_seed(6);
        let w = generate_grouped(&db, &config).unwrap();
        assert_eq!(w.per_analyst.len(), 4);
        assert_eq!(w.total_queries(), 400);
        assert_eq!(generate_grouped(&db, &config).unwrap(), w);
        assert_ne!(
            generate_grouped(&db, &config.clone().with_seed(7)).unwrap(),
            w
        );
        // Heavy skew concentrates on the rank-0 grouping (a widened
        // dimension attribute).
        let top = w
            .per_analyst
            .iter()
            .flatten()
            .filter(|r| r.query.group_cols.first().is_some_and(|c| c.contains('.')))
            .count();
        assert!(
            top as f64 > 0.7 * w.total_queries() as f64,
            "top groupings got {top} of {}",
            w.total_queries()
        );
        // Every generated grouping is answerable exactly.
        for request in w.per_analyst.iter().flatten().take(20) {
            execute(&db, &request.query.as_grouped_query()).unwrap();
        }
    }

    #[test]
    fn dangling_fact_keys_stay_impossible_under_any_seed() {
        for seed in 0..4 {
            let db = star_database(50, seed);
            assert!(StarSchema::new("w", SALES_TABLE)
                .join("store_id", STORE_TABLE, "store_id")
                .join("item_id", ITEM_TABLE, "item_id")
                .denormalise(&db)
                .is_ok());
        }
    }
}
