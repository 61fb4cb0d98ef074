//! Synthetic dataset generators.
//!
//! The paper evaluates on the UCI Adult census dataset and TPC-H SF-1. Both
//! are replaced here by schema-faithful synthetic generators (see the
//! README's "Reproducing the paper" section): every mechanism in DProvDB
//! is data-independent Gaussian noise over histogram counts, so what
//! matters for reproducing the evaluation is the *schema* (attribute
//! domains and their sizes) and the dataset cardinality, both of which
//! the generators match; the concrete joint distribution only shifts the
//! true counts.

pub mod adult;
pub mod tpch;

pub use adult::{adult_database, ADULT_TABLE};
pub use tpch::{tpch_database, TPCH_TABLE};

use rand::rngs::StdRng;
use rand::Rng;

/// Samples an index in `[0, weights.len())` proportionally to `weights`.
pub(crate) fn weighted_index(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut draw = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return i;
        }
        draw -= w;
    }
    weights.len() - 1
}

/// Samples an integer from a clamped, discretised normal distribution —
/// used for quasi-realistic age / hours / quantity marginals.
pub(crate) fn clamped_normal(rng: &mut StdRng, mean: f64, std_dev: f64, min: i64, max: i64) -> i64 {
    // Box–Muller from two uniforms; only one value needed per call.
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let v = (mean + std_dev * z).round() as i64;
    v.clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let weights = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(weighted_index(&mut rng, &weights), 1);
        }
        let weights = [1.0, 1.0];
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        assert!(counts[0] > 4_000 && counts[1] > 4_000);
    }

    #[test]
    fn clamped_normal_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = clamped_normal(&mut rng, 40.0, 60.0, 17, 90);
            assert!((17..=90).contains(&v));
        }
    }
}
