//! Micro-benchmarks of the accuracy→privacy translation (Definition 9 and
//! the friction-aware Eq. 3 variant). The paper reports the translation
//! overhead is below 2 ms per query; these benches verify we are far below
//! that.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dprov_dp::budget::{Delta, Epsilon};
use dprov_dp::sensitivity::Sensitivity;
use dprov_dp::translation::{
    translate_variance_to_epsilon, FrictionAwareTranslation, DEFAULT_EPSILON_PRECISION,
};

fn bench_vanilla_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("translation_vanilla");
    let delta = Delta::new(1e-9).unwrap();
    let max_eps = Epsilon::new(10.0).unwrap();
    for &target in &[10.0, 1_000.0, 100_000.0] {
        group.bench_function(format!("variance_{target}"), |b| {
            b.iter(|| {
                translate_variance_to_epsilon(
                    black_box(target),
                    delta,
                    Sensitivity::histogram_bounded(),
                    max_eps,
                    1e-4,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_friction_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("translation_friction_aware");
    let translator = FrictionAwareTranslation::new(
        Delta::new(1e-9).unwrap(),
        Sensitivity::histogram_bounded(),
        DEFAULT_EPSILON_PRECISION,
    );
    let max_eps = Epsilon::new(10.0).unwrap();
    group.bench_function("existing_synopsis", |b| {
        b.iter(|| {
            translator
                .translate(black_box(50.0), Some(black_box(200.0)), max_eps)
                .unwrap()
        })
    });
    group.bench_function("no_existing_synopsis", |b| {
        b.iter(|| {
            translator
                .translate(black_box(50.0), None, max_eps)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_vanilla_translation,
    bench_friction_translation
);
criterion_main!(benches);
