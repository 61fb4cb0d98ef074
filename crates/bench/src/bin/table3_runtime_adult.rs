//! Table 3 — runtime performance comparison on the Adult dataset.
//!
//! Same measurement as Table 1 but over the Adult dataset. See
//! `table1_runtime_tpch.rs` for the column definitions.
//!
//! Scale knobs: `DPROV_ROWS` (default 45222), `DPROV_QUERIES` (default 200).

use dprov_bench::harness::print_runtime_table;
use dprov_bench::setup::{env_usize, Dataset};

fn main() {
    print_runtime_table(
        Dataset::Adult,
        env_usize("DPROV_ROWS", 45_222),
        env_usize("DPROV_QUERIES", 200),
        "Table 3",
    );
}
