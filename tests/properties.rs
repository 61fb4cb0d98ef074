//! Property-based tests (proptest) over the core DP invariants.

use proptest::prelude::*;

use dprovdb::core::synopsis_manager::SynopsisManager;
use dprovdb::engine::datagen::adult::adult_database;
use dprovdb::engine::synopsis::Synopsis;
use dprovdb::engine::view::ViewDef;

use dprovdb::dp::budget::{Budget, Delta, Epsilon};
use dprovdb::dp::mechanism::{
    additive_gaussian_release, analytic_gaussian_delta, analytic_gaussian_sigma,
};
use dprovdb::dp::rng::DpRng;
use dprovdb::dp::sensitivity::Sensitivity;
use dprovdb::dp::translation::{
    translate_variance_to_epsilon, FrictionAwareTranslation, DEFAULT_EPSILON_PRECISION,
};
use dprovdb::engine::schema::{Attribute, AttributeType, Schema};
use dprovdb::engine::table::Table;
use dprovdb::engine::value::Value;
use dprovdb::engine::view::{flat_index, MultiIndexIter};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analytic-Gaussian calibration is tight: the calibrated sigma
    /// satisfies the privacy profile, and a 1% smaller sigma violates it.
    #[test]
    fn analytic_calibration_is_tight(
        eps in 0.05f64..8.0,
        delta_exp in 5i32..13,
        sens in 0.5f64..4.0,
    ) {
        let delta = 10f64.powi(-delta_exp);
        let sigma = analytic_gaussian_sigma(eps, delta, sens).unwrap();
        prop_assert!(analytic_gaussian_delta(sigma, sens, eps) <= delta * (1.0 + 1e-6));
        prop_assert!(analytic_gaussian_delta(sigma * 0.99, sens, eps) > delta);
    }

    /// Calibrated sigma is monotone: more budget (larger eps or delta) never
    /// needs more noise.
    #[test]
    fn calibration_is_monotone_in_epsilon(
        eps in 0.05f64..4.0,
        bump in 0.01f64..2.0,
    ) {
        let s1 = analytic_gaussian_sigma(eps, 1e-9, 1.0).unwrap();
        let s2 = analytic_gaussian_sigma(eps + bump, 1e-9, 1.0).unwrap();
        prop_assert!(s2 <= s1 + 1e-9);
    }

    /// Accuracy→privacy translation always delivers at least the requested
    /// accuracy, and the result is monotone in the target.
    #[test]
    fn translation_meets_accuracy_and_is_monotone(
        target in 0.5f64..1e6,
        factor in 1.1f64..10.0,
    ) {
        let delta = Delta::new(1e-9).unwrap();
        let max_eps = Epsilon::new(50.0).unwrap();
        let tight = translate_variance_to_epsilon(
            target, delta, Sensitivity::histogram_bounded(), max_eps, 1e-5,
        ).unwrap();
        prop_assert!(tight.achieved_variance <= target * (1.0 + 1e-9));

        let loose = translate_variance_to_epsilon(
            target * factor, delta, Sensitivity::histogram_bounded(), max_eps, 1e-5,
        ).unwrap();
        prop_assert!(loose.epsilon.value() <= tight.epsilon.value() + 1e-5);
    }

    /// The friction-aware translation never asks for more budget than the
    /// vanilla translation, and its combination always meets the requested
    /// accuracy (Eq. 3).
    #[test]
    fn friction_aware_translation_is_never_worse(
        target in 1.0f64..10_000.0,
        existing_factor in 1.05f64..20.0,
    ) {
        let delta = Delta::new(1e-9).unwrap();
        let max_eps = Epsilon::new(50.0).unwrap();
        let existing = target * existing_factor;
        let translator = FrictionAwareTranslation::new(
            delta,
            Sensitivity::histogram_bounded(),
            DEFAULT_EPSILON_PRECISION,
        );
        let friction = translator.translate(target, Some(existing), max_eps).unwrap();
        let vanilla = translator.translate(target, None, max_eps).unwrap();
        prop_assert!(friction.epsilon.value() <= vanilla.epsilon.value() + 1e-6);
        let w = friction.combination_weight;
        let combined = w * w * existing + (1.0 - w) * (1.0 - w) * friction.achieved_variance;
        prop_assert!(combined <= target * (1.0 + 1e-6));
    }

    /// The additive Gaussian release charges each recipient its own budget
    /// and noisier answers go to smaller budgets (Algorithm 3 ordering).
    #[test]
    fn additive_release_orders_noise_by_budget(
        eps in proptest::collection::vec(0.05f64..3.0, 2..6),
        seed in 0u64..1_000,
    ) {
        let budgets: Vec<Budget> = eps.iter().map(|&e| Budget::new(e, 1e-9).unwrap()).collect();
        let mut rng = DpRng::seed_from_u64(seed);
        let truth = vec![500.0; 32];
        let releases =
            additive_gaussian_release(&truth, Sensitivity::COUNT, &budgets, &mut rng).unwrap();
        prop_assert_eq!(releases.len(), budgets.len());
        for (i, r) in releases.iter().enumerate() {
            prop_assert_eq!(r.recipient, i);
            let expected =
                analytic_gaussian_sigma(eps[i], 1e-9, 1.0).unwrap();
            prop_assert!((r.sigma - expected).abs() < 1e-9);
        }
        // Pairwise: a strictly larger epsilon never gets a larger sigma.
        for i in 0..releases.len() {
            for j in 0..releases.len() {
                if eps[i] > eps[j] {
                    prop_assert!(releases[i].sigma <= releases[j].sigma + 1e-12);
                }
            }
        }
    }

    /// Budget composition is commutative and monotone.
    #[test]
    fn budget_composition_properties(
        e1 in 0.0f64..5.0, e2 in 0.0f64..5.0,
        d1 in 0.0f64..1e-6, d2 in 0.0f64..1e-6,
    ) {
        let a = Budget::new(e1, d1).unwrap();
        let b = Budget::new(e2, d2).unwrap();
        prop_assert_eq!(a.compose(b), b.compose(a));
        prop_assert!(a.compose(b).covers(a));
        prop_assert!(a.compose(b).covers(b));
        prop_assert!(a.compose(b).covers(a.pointwise_max(b)));
    }

    /// Flat indexing is a bijection between multi-indices and 0..N.
    #[test]
    fn flat_index_is_a_bijection(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let total: usize = dims.iter().product();
        let mut seen = vec![false; total];
        for cell in MultiIndexIter::new(&dims) {
            let idx = flat_index(&dims, &cell);
            prop_assert!(idx < total);
            prop_assert!(!seen[idx], "duplicate flat index {}", idx);
            seen[idx] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// The inverse-variance (UMVUE, Eq. 2) combination of two unbiased
    /// synopses is at least as accurate as either input: with the optimal
    /// weight the merged per-bin variance equals the harmonic combination
    /// `(1/v_a + 1/v_b)^{-1}`, which is ≤ min(v_a, v_b).
    #[test]
    fn umvue_combination_beats_both_inputs(
        v_a in 1.0f64..1e6,
        v_b in 1.0f64..1e6,
    ) {
        let counts = vec![100.0; 16];
        let a = Synopsis::new("v", counts.clone(), v_a);
        let b = Synopsis::new("v", counts, v_b);
        let w = a.optimal_combination_weight(v_b);
        prop_assert!((0.0..=1.0).contains(&w));
        let merged = a.combine(&b, w);
        let harmonic = 1.0 / (1.0 / v_a + 1.0 / v_b);
        prop_assert!((merged.per_bin_variance - harmonic).abs() <= harmonic * 1e-9);
        prop_assert!(merged.per_bin_variance <= v_a.min(v_b) * (1.0 + 1e-9));
    }

    /// Table insertion round-trips every in-domain value.
    #[test]
    fn table_insert_round_trips(values in proptest::collection::vec(17i64..=90, 1..50)) {
        let schema = Schema::new(vec![Attribute::new("age", AttributeType::integer(17, 90))]);
        let mut table = Table::new("t", schema);
        for &v in &values {
            table.insert_row(&[Value::Int(v)]).unwrap();
        }
        prop_assert_eq!(table.num_rows(), values.len());
        for (row, &v) in values.iter().enumerate() {
            prop_assert_eq!(table.value_at(row, "age").unwrap(), Value::Int(v));
        }
    }
}

proptest! {
    // Each case materialises a small database, so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SynopsisManager's global-synopsis growth (`grow_global`) obeys
    /// the UMVUE-merge invariants across an arbitrary growth schedule, each
    /// growth calibrated at its own epsilon as an admission calibrates it:
    /// the nominal epsilon is monotone non-decreasing, and every merge
    /// leaves the per-bin variance no larger than the *minimum* of its two
    /// inputs (the previous global synopsis and the fresh delta synopsis).
    #[test]
    fn grow_global_merge_is_monotone_and_umvue_accurate(
        eps_first in 0.1f64..1.5,
        growths in proptest::collection::vec(0.05f64..0.8, 1..5),
        seed in 0u64..1_000,
    ) {
        use dprovdb::dp::budget::Delta;
        use dprovdb::dp::mechanism::analytic_gaussian_sigma;
        use dprovdb::dp::rng::DpRng;

        let db = adult_database(300, 1);
        let mut mgr = SynopsisManager::new(Delta::new(1e-9).unwrap());
        mgr.register_view(&db, &ViewDef::histogram("adult.age", "adult", &["age"]))
            .unwrap();
        let mut rng = DpRng::seed_from_u64(seed);
        let sens = mgr.sensitivity("adult.age").unwrap().value();

        let first = mgr.calibrate("adult.age", eps_first).unwrap();
        mgr.grow_global("adult.age", eps_first, first, &mut rng).unwrap();
        let (mut prev_eps, mut prev_var) =
            mgr.global_state("adult.age").unwrap().unwrap();
        prop_assert_eq!(prev_eps, eps_first);
        prop_assert_eq!(prev_var, first.variance());

        for growth in growths {
            let target = prev_eps + growth;
            let delta = mgr.calibrate("adult.age", growth).unwrap();
            mgr.grow_global("adult.age", target, delta, &mut rng).unwrap();
            let (eps, var) = mgr.global_state("adult.age").unwrap().unwrap();
            // Epsilon is monotone non-decreasing (exactly the target here).
            prop_assert!(eps >= prev_eps);
            prop_assert!((eps - target).abs() < 1e-12);
            // The merge is a strict accuracy improvement over the previous
            // global synopsis ...
            prop_assert!(var <= prev_var * (1.0 + 1e-9));
            // ... and no worse than the fresh delta synopsis it merged in.
            let sigma_delta = analytic_gaussian_sigma(growth, 1e-9, sens).unwrap();
            let fresh_var = sigma_delta * sigma_delta;
            prop_assert!(var <= fresh_var.min(prev_var) * (1.0 + 1e-9));
            prev_eps = eps;
            prev_var = var;
        }
    }
}
