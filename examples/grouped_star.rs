//! GROUP BY over a join-folded star schema, served through the concurrent
//! service.
//!
//! The walk-through: (1) generate the star database (sales fact + store and
//! item dimensions) and fold it into one wide table at ingest; (2) build
//! the system over an explicit view catalog and serve it over loopback
//! TCP; (3) run grouped queries over the wire; (4) read the per-(analyst, view) budget ledger.
//!
//! Run with `cargo run --release --example grouped_star`.

use std::sync::Arc;

use dprovdb::api::DProvClient;
use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{GroupedRequest, QueryOutcome};
use dprovdb::core::system::DProvDb;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::group::GroupByQuery;
use dprovdb::engine::view::ViewDef;
use dprovdb::net::listen;
use dprovdb::server::{QueryService, ServiceConfig};
use dprovdb::workloads::star;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The star schema, folded at ingest: `sales_wide` carries every
    //    dimension attribute (store.region, item.category, ...) so grouped
    //    queries run as single-table scans.
    let db = star::folded_star_database(20_000, 42);
    println!(
        "star database: {} fact rows folded with store x item dimensions",
        db.table(star::SALES_TABLE)?.num_rows()
    );

    // 2. One histogram view per grouping the session asks for, served
    //    concurrently.
    let mut catalog = ViewCatalog::new();
    catalog.add_view(ViewDef::histogram(
        "region",
        star::SALES_WIDE_TABLE,
        &["store.region"],
    ));
    catalog.add_view(ViewDef::histogram(
        "category_quantity",
        star::SALES_WIDE_TABLE,
        &["item.category", "quantity"],
    ));
    let mut registry = AnalystRegistry::new();
    registry.register("external-researcher", 1)?;
    registry.register("internal-analyst", 4)?;
    let system = Arc::new(DProvDb::new(
        db,
        catalog,
        registry,
        SystemConfig::new(8.0)?.with_seed(42),
        MechanismKind::Vanilla,
    )?);
    let service = Arc::new(QueryService::start(
        Arc::clone(&system),
        ServiceConfig::builder().workers(2).build()?,
    ));
    let listener = listen(&service, "127.0.0.1:0")?;
    let mut client = DProvClient::connect_tcp(listener.local_addr(), "grouped-demo")?;
    client.register("internal-analyst")?;

    // 3. GROUP BY over the wire: one submission, one DP answer per group
    //    in the canonical enumeration order, each cell admitted through
    //    the normal provenance path.
    let gq = GroupByQuery::count(star::SALES_WIDE_TABLE, &["store.region"]);
    let outcome = client.group_by(&GroupedRequest::with_accuracy(gq, 400.0))?;
    println!("COUNT(*) GROUP BY store.region:");
    for (key, cell) in outcome.keys.iter().zip(&outcome.outcomes) {
        match cell {
            QueryOutcome::Answered(a) => println!("  {key:?}: {:.1}", a.value),
            QueryOutcome::Rejected { reason } => println!("  {key:?}: rejected ({reason})"),
        }
    }

    let gq = GroupByQuery::sum(star::SALES_WIDE_TABLE, "quantity", &["item.category"]);
    let outcome = client.group_by(&GroupedRequest::with_accuracy(gq, 60_000.0))?;
    println!("SUM(quantity) GROUP BY item.category:");
    for (key, cell) in outcome.keys.iter().zip(&outcome.outcomes) {
        match cell {
            QueryOutcome::Answered(a) => println!("  {key:?}: {:.1}", a.value),
            QueryOutcome::Rejected { reason } => println!("  {key:?}: rejected ({reason})"),
        }
    }

    // 4. The ledger after the grouped session: every cell's charge landed
    //    on the view that answers its grouping.
    let provenance = system.provenance();
    println!("\nper-view budget spent by internal-analyst:");
    for view in provenance.view_names() {
        let spent = provenance.entry(AnalystId(1), view);
        if spent > 0.0 {
            println!("  {view}: eps {spent:.4}");
        }
    }
    println!("row total: eps {:.4}", provenance.row_total(AnalystId(1)));

    client.close()?;
    listener.shutdown();
    Ok(())
}
