//! Analyst interleaving strategies (§6.1.2).
//!
//! The paper runs every workload under two query sequences: *round-robin*
//! (analysts take turns) and *random* (an analyst is drawn uniformly at
//! each step). The interleaving determines which analyst's budget is
//! consumed first and therefore directly stresses the fairness properties.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The interleaving strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleaving {
    /// Analysts take turns in id order.
    RoundRobin,
    /// An analyst is selected uniformly at random at every step.
    Random {
        /// The RNG seed for the selection sequence.
        seed: u64,
    },
}

impl Interleaving {
    /// A short label used in experiment output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Interleaving::RoundRobin => "round-robin",
            Interleaving::Random { .. } => "randomized",
        }
    }

    /// Builds the submission order for `per_analyst_counts[i]` queries per
    /// analyst: a sequence of `(analyst index, query index)` pairs that
    /// exhausts every analyst's batch exactly once.
    #[must_use]
    pub fn order(&self, per_analyst_counts: &[usize]) -> Vec<(usize, usize)> {
        let total: usize = per_analyst_counts.iter().sum();
        let mut next_index = vec![0usize; per_analyst_counts.len()];
        let mut order = Vec::with_capacity(total);
        match self {
            Interleaving::RoundRobin => {
                while order.len() < total {
                    for analyst in 0..per_analyst_counts.len() {
                        if next_index[analyst] < per_analyst_counts[analyst] {
                            order.push((analyst, next_index[analyst]));
                            next_index[analyst] += 1;
                        }
                    }
                }
            }
            Interleaving::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                while order.len() < total {
                    let analyst = rng.gen_range(0..per_analyst_counts.len());
                    if next_index[analyst] < per_analyst_counts[analyst] {
                        order.push((analyst, next_index[analyst]));
                        next_index[analyst] += 1;
                    }
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_alternates() {
        let order = Interleaving::RoundRobin.order(&[3, 3]);
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn round_robin_handles_uneven_batches() {
        let order = Interleaving::RoundRobin.order(&[1, 3]);
        assert_eq!(order, vec![(0, 0), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn random_covers_every_query_exactly_once() {
        let order = Interleaving::Random { seed: 5 }.order(&[10, 7, 3]);
        assert_eq!(order.len(), 20);
        let mut seen = std::collections::BTreeSet::new();
        for pair in &order {
            assert!(seen.insert(*pair), "duplicate submission {pair:?}");
        }
        // Determinism under the seed.
        assert_eq!(order, Interleaving::Random { seed: 5 }.order(&[10, 7, 3]));
        assert_ne!(order, Interleaving::Random { seed: 6 }.order(&[10, 7, 3]));
    }

    #[test]
    fn labels() {
        assert_eq!(Interleaving::RoundRobin.label(), "round-robin");
        assert_eq!(Interleaving::Random { seed: 0 }.label(), "randomized");
    }
}
