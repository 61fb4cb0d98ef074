//! Table 1 — runtime performance comparison on the TPC-H dataset.
//!
//! Reports, per system: setup time (view materialisation + static synopsis
//! generation), running time for the workload, the number of queries
//! answered, and the per-query processing time. Each time is the median
//! (min–max) of five fresh runs with the same seeds; every run must
//! answer the same number of queries. Absolute numbers differ from the
//! paper (in-memory engine vs PostgreSQL); the reproduction target is the
//! *ordering*: view-based systems pay a setup cost but answer queries
//! orders of magnitude faster than the per-query Chorus baselines.
//!
//! Scale knobs: `DPROV_ROWS` (default 20000), `DPROV_QUERIES` (default 200).

use dprov_bench::harness::print_runtime_table;
use dprov_bench::setup::{env_usize, Dataset};

fn main() {
    print_runtime_table(
        Dataset::Tpch,
        env_usize("DPROV_ROWS", 20_000),
        env_usize("DPROV_QUERIES", 200),
        "Table 1",
    );
}
