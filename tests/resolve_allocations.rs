//! The heap traffic of request resolution.
//!
//! Every request — a cache hit included — first selects its view and
//! rewrites its query over that view, so resolution's allocations are paid
//! on the most common path the service has. This suite pins them: a scalar
//! cache hit, the same hit beside twenty views that cannot answer it, and a
//! repeated GROUP BY over the folded star schema. It also pins what a query
//! that selects no cell gets today.
//!
//! The file is a test binary of its own because it installs a counting
//! `#[global_allocator]`. The counter is per thread and only runs while
//! [`allocations`] holds its flag up, so the harness's other threads do
//! not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dprovdb::core::analyst::{AnalystId, AnalystRegistry};
use dprovdb::core::config::SystemConfig;
use dprovdb::core::error::RejectReason;
use dprovdb::core::mechanism::MechanismKind;
use dprovdb::core::processor::{GroupedRequest, QueryOutcome, QueryRequest};
use dprovdb::core::system::DProvDb;
use dprovdb::dp::rng::DpRng;
use dprovdb::engine::catalog::ViewCatalog;
use dprovdb::engine::database::Database;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::group::GroupByQuery;
use dprovdb::engine::query::Query;
use dprovdb::engine::view::ViewDef;
use dprovdb::workloads::star::{folded_star_database, SALES_WIDE_TABLE};

/// Counts the calling thread's allocations (and reallocations) while its
/// flag is up; frees are not counted.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            COUNT.with(|count| count.set(count.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the counter only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    COUNT.with(|count| count.set(0));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (result, COUNT.with(Cell::get))
}

const ANALYST: AnalystId = AnalystId(0);
const FRESH: AnalystId = AnalystId(1);

fn build(db: Database, catalog: ViewCatalog, mechanism: MechanismKind) -> DProvDb {
    let mut registry = AnalystRegistry::new();
    registry.register("analyst", 4).unwrap();
    registry.register("fresh", 4).unwrap();
    let config = SystemConfig::new(64.0).unwrap().with_seed(3);
    DProvDb::new(db, catalog, registry, config, mechanism).unwrap()
}

/// The adult system with the paper's catalog (one view per attribute)
/// plus `extra` views that no query over `age` can use.
fn adult_system(extra: usize, mechanism: MechanismKind) -> DProvDb {
    let db = adult_database(2_000, 1);
    let mut catalog = ViewCatalog::one_per_attribute(&db, "adult").unwrap();
    let others = ["workclass", "education", "sex", "race", "income"];
    for i in 0..extra {
        let first = others[i % others.len()];
        let second = others[(i / others.len() + i + 1) % others.len()];
        catalog.add_view(ViewDef::histogram(
            &format!("extra-{i}"),
            "adult",
            &[first, second],
        ));
    }
    build(db, catalog, mechanism)
}

fn answered(outcome: &QueryOutcome) -> &dprovdb::core::processor::AnsweredQuery {
    match outcome {
        QueryOutcome::Answered(answer) => answer,
        QueryOutcome::Rejected { reason } => panic!("refused: {reason}"),
    }
}

/// The allocations of a cache hit on `age ∈ [30, 40]`, after a first
/// submission put a synopsis of `adult.age` in the cache.
fn scalar_hit_allocations(system: &DProvDb) -> usize {
    let request = QueryRequest::with_accuracy(Query::range_count("adult", "age", 30, 40), 5_000.0);
    let mut rng = DpRng::for_stream(11, 0);
    let first = system.submit_with_rng(ANALYST, &request, &mut rng).unwrap();
    assert!(!answered(&first).from_cache);
    let (hit, count) = allocations(|| system.submit_with_rng(ANALYST, &request, &mut rng));
    let hit = hit.unwrap();
    assert!(answered(&hit).from_cache);
    assert_eq!(answered(&hit).view.as_deref(), Some("adult.age"));
    count
}

#[test]
fn a_scalar_cache_hit_allocates_at_most_twenty_times() {
    let count = scalar_hit_allocations(&adult_system(0, MechanismKind::AdditiveGaussian));
    assert!(count <= 20, "a scalar cache hit made {count} allocations");
}

#[test]
fn views_that_cannot_answer_add_no_allocation() {
    let lean = scalar_hit_allocations(&adult_system(0, MechanismKind::AdditiveGaussian));
    let wide = scalar_hit_allocations(&adult_system(20, MechanismKind::AdditiveGaussian));
    assert_eq!(wide, lean, "20 non-covering views changed the count");
}

#[test]
fn a_repeated_group_by_over_the_star_allocates_at_most_120_times() {
    let db = folded_star_database(2_000, 1);
    let mut catalog = ViewCatalog::one_per_attribute(&db, SALES_WIDE_TABLE).unwrap();
    catalog.add_view(ViewDef::histogram(
        "store.region+item.category",
        SALES_WIDE_TABLE,
        &["store.region", "item.category"],
    ));
    let system = build(db, catalog, MechanismKind::AdditiveGaussian);
    let request = GroupedRequest::with_accuracy(
        GroupByQuery::count(SALES_WIDE_TABLE, &["item.category"]),
        20_000.0,
    );
    let mut rng = DpRng::for_stream(11, 0);
    let first = system
        .answer_group_by_with_rng(ANALYST, &request, &mut rng)
        .unwrap();
    assert_eq!(first.outcomes.len(), 5);
    let (repeat, count) =
        allocations(|| system.answer_group_by_with_rng(ANALYST, &request, &mut rng));
    let repeat = repeat.unwrap();
    assert!(repeat.outcomes.iter().all(|o| answered(o).from_cache));
    assert!(count <= 120, "a repeated GROUP BY made {count} allocations");
}

/// A query that selects no cell has an exact answer of 0, yet today it is
/// only answered from a synopsis the analyst already holds: on a fresh
/// (analyst, view) the translation of its infinite per-bin target fails.
#[test]
fn a_query_selecting_no_cell_is_refused_fresh_and_free_from_a_held_synopsis() {
    for mechanism in [MechanismKind::Vanilla, MechanismKind::AdditiveGaussian] {
        let system = adult_system(0, mechanism);
        scalar_hit_allocations(&system);
        let empty = QueryRequest::with_accuracy(Query::range_count("adult", "age", 200, 300), 1.0);
        let mut rng = DpRng::for_stream(11, 1);
        let fresh = system.submit_with_rng(FRESH, &empty, &mut rng).unwrap();
        assert!(
            matches!(
                fresh,
                QueryOutcome::Rejected {
                    reason: RejectReason::AccuracyUnreachable
                }
            ),
            "{mechanism:?}: {fresh:?}"
        );
        let held = system.submit_with_rng(ANALYST, &empty, &mut rng).unwrap();
        let held = answered(&held);
        assert_eq!(
            (held.value, held.epsilon_charged, held.from_cache),
            (0.0, 0.0, true),
            "{mechanism:?}"
        );
        assert_eq!(held.view.as_deref(), Some("adult.age"));
    }
}
