//! Privacy accountants.
//!
//! The provenance table entries are composed with *basic* sequential
//! composition (the paper's recommendation for constraint checking, because
//! the provenance matrix is small), but DProvDB also supports tighter
//! composition for overall accounting: advanced composition, Rényi DP and
//! zCDP (Appendix A). All four are provided behind the [`Accountant`]
//! trait so the system layer can swap them via configuration.

pub mod advanced;
pub mod rdp;
pub mod sequential;
pub mod zcdp;

pub use advanced::AdvancedAccountant;
pub use rdp::RdpAccountant;
pub use sequential::SequentialAccountant;
pub use zcdp::ZcdpAccountant;

use crate::budget::Budget;

/// A privacy accountant: records Gaussian-mechanism invocations and reports
/// the total `(epsilon, delta)` spent so far.
///
/// `Send` is a supertrait so accountants can live behind a mutex shared by
/// the concurrent query service's worker threads.
pub trait Accountant: Send {
    /// Records one `(epsilon, delta)`-DP Gaussian release with the given
    /// noise scale and sensitivity (some accountants only use the budget,
    /// others the noise parameters).
    fn record(&mut self, budget: Budget, sigma: f64, sensitivity: f64);

    /// The total privacy loss at the accountant's target delta.
    fn total(&self) -> Budget;

    /// Number of recorded releases.
    fn releases(&self) -> usize;
}

/// The composition methods available to the system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositionMethod {
    /// Basic sequential composition (Theorem 2.1).
    Sequential,
    /// Advanced composition (Theorem A.1, simplified form).
    Advanced,
    /// Rényi-DP composition (Theorem A.2 + A.3).
    Rdp,
    /// zero-Concentrated DP composition.
    Zcdp,
}

/// Builds an accountant for a composition method with a target delta used
/// when converting back to `(epsilon, delta)`.
#[must_use]
pub fn make_accountant(method: CompositionMethod, target_delta: f64) -> Box<dyn Accountant> {
    match method {
        CompositionMethod::Sequential => Box::new(SequentialAccountant::new()),
        CompositionMethod::Advanced => Box::new(AdvancedAccountant::new(target_delta)),
        CompositionMethod::Rdp => Box::new(RdpAccountant::new(target_delta)),
        CompositionMethod::Zcdp => Box::new(ZcdpAccountant::new(target_delta)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spend(acc: &mut dyn Accountant, k: usize, eps: f64, delta: f64, sigma: f64) {
        for _ in 0..k {
            acc.record(Budget::new(eps, delta).unwrap(), sigma, 1.0);
        }
    }

    #[test]
    fn factory_builds_all_variants() {
        for method in [
            CompositionMethod::Sequential,
            CompositionMethod::Advanced,
            CompositionMethod::Rdp,
            CompositionMethod::Zcdp,
        ] {
            let mut acc = make_accountant(method, 1e-9);
            spend(acc.as_mut(), 3, 0.1, 1e-10, 10.0);
            assert_eq!(acc.releases(), 3);
            assert!(acc.total().epsilon.value() > 0.0);
        }
    }

    #[test]
    fn tighter_accountants_beat_sequential_for_many_small_releases() {
        // 200 releases of a Gaussian mechanism calibrated to eps=0.05.
        let sigma = crate::mechanism::analytic_gaussian_sigma(0.05, 1e-10, 1.0).unwrap();
        let mut seq = SequentialAccountant::new();
        let mut rdp = RdpAccountant::new(1e-9);
        let mut zcdp = ZcdpAccountant::new(1e-9);
        for _ in 0..200 {
            let b = Budget::new(0.05, 1e-10).unwrap();
            seq.record(b, sigma, 1.0);
            rdp.record(b, sigma, 1.0);
            zcdp.record(b, sigma, 1.0);
        }
        let seq_eps = seq.total().epsilon.value();
        assert!(rdp.total().epsilon.value() < seq_eps);
        assert!(zcdp.total().epsilon.value() < seq_eps);
    }
}
