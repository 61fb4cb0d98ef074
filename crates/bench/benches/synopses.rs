//! Micro-benchmarks of view materialisation and synopsis management: the
//! setup cost (Tables 1/3) and the per-release cost of the global/local
//! synopsis machinery.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use dprov_core::synopsis_manager::SynopsisManager;
use dprov_dp::budget::Delta;
use dprov_dp::rng::DpRng;
use dprov_engine::datagen::adult::adult_database;
use dprov_engine::histogram::Histogram;
use dprov_engine::view::ViewDef;

fn bench_materialisation(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_materialisation");
    group.sample_size(20);
    let db = adult_database(20_000, 1);
    let one_way = ViewDef::histogram("adult.age", "adult", &["age"]);
    let two_way = ViewDef::histogram("adult.age_edu", "adult", &["age", "education"]);
    group.bench_function("one_way_20k_rows", |b| {
        b.iter(|| Histogram::materialize(black_box(&db), &one_way).unwrap())
    });
    group.bench_function("two_way_20k_rows", |b| {
        b.iter(|| Histogram::materialize(black_box(&db), &two_way).unwrap())
    });
    group.finish();
}

fn bench_synopsis_management(c: &mut Criterion) {
    let mut group = c.benchmark_group("synopsis_management");
    let db = adult_database(5_000, 1);
    let view = ViewDef::histogram("adult.age", "adult", &["age"]);
    let mut manager = SynopsisManager::new(Delta::new(1e-9).unwrap());
    manager.register_view(&db, &view).unwrap();

    group.bench_function("fresh_synopsis_74_bins", |b| {
        let mut rng = DpRng::seed_from_u64(1);
        b.iter(|| {
            manager
                .fresh_synopsis("adult.age", black_box(1.0), None, &mut rng)
                .unwrap()
        })
    });

    group.bench_function("grow_global_growth", |b| {
        b.iter_batched(
            || {
                let mut m = SynopsisManager::new(Delta::new(1e-9).unwrap());
                m.register_view(&db, &view).unwrap();
                let mut rng = DpRng::seed_from_u64(2);
                m.grow_global("adult.age", 0.5, None, &mut rng).unwrap();
                (m, rng)
            },
            |(m, mut rng)| {
                m.grow_global("adult.age", black_box(0.7), None, &mut rng)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });

    group.bench_function("derive_local", |b| {
        let mut m = SynopsisManager::new(Delta::new(1e-9).unwrap());
        m.register_view(&db, &view).unwrap();
        let mut rng = DpRng::seed_from_u64(3);
        m.grow_global("adult.age", 2.0, None, &mut rng).unwrap();
        b.iter(|| {
            m.derive_local(0, "adult.age", black_box(0.5), None, &mut rng)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_materialisation, bench_synopsis_management);
criterion_main!(benches);
