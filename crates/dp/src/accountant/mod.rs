//! Privacy accountants.
//!
//! The provenance table entries are composed with *basic* sequential
//! composition (the paper's recommendation for constraint checking, because
//! the provenance matrix is small), but DProvDB also supports tighter
//! composition for overall accounting: advanced composition, Rényi DP and
//! zCDP (Appendix A). All four are provided behind the [`Accountant`]
//! trait so the system layer can swap them via configuration.
//!
//! Every accountant's state is a release count plus a fixed number of
//! additive sums — Σε and Σδ; advanced composition's four sums; one RDP
//! sum per order of a fixed grid; zCDP's ρ — so it exports as an
//! [`AccountantState`] whose size does not depend on how many releases
//! it composed.

pub mod advanced;
pub mod rdp;
pub mod sequential;
pub mod zcdp;

pub use advanced::AdvancedAccountant;
pub use rdp::RdpAccountant;
pub use sequential::SequentialAccountant;
pub use zcdp::ZcdpAccountant;

use crate::budget::Budget;
use crate::{DpError, Result};

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

    /// The accountant's state (see [`AccountantState`]).
    fn export_state(&self) -> AccountantState;

    /// Replaces the accountant's state with one [`Self::export_state`]
    /// returned, refusing a state that does not fit this accountant.
    fn import_state(&mut self, state: &AccountantState) -> Result<()>;
}

/// An accountant's state: its release count and its additive sums, in the
/// order the accountant defines. Imported into a fresh accountant of the
/// same method and target delta, it continues the composition bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccountantState {
    /// Number of recorded releases.
    pub releases: u64,
    /// The running sums. The default state — no release, no sum — is an
    /// accountant that recorded nothing, whatever its method.
    pub sums: Vec<f64>,
}

impl AccountantState {
    /// The sums as an accountant keeping `len` of them imports them: the
    /// default state reads as zeros; a state with another number of sums,
    /// or a sum that is negative or NaN, is refused.
    fn sums(&self, len: usize) -> Result<Vec<f64>> {
        if self.releases == 0 && self.sums.is_empty() {
            return Ok(vec![0.0; len]);
        }
        if self.sums.len() != len {
            return Err(DpError::InvalidAccountantState(format!(
                "{} sums for an accountant keeping {len}",
                self.sums.len()
            )));
        }
        match self.sums.iter().find(|sum| sum.is_nan() || **sum < 0.0) {
            Some(sum) => Err(DpError::InvalidAccountantState(format!(
                "sum {sum} is negative or NaN"
            ))),
            None => Ok(self.sums.clone()),
        }
    }
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

    const METHODS: [CompositionMethod; 4] = [
        CompositionMethod::Sequential,
        CompositionMethod::Advanced,
        CompositionMethod::Rdp,
        CompositionMethod::Zcdp,
    ];

    /// Records releases `range` of one fixed heterogeneous sequence; the
    /// eighth has no noise scale (the accountants' fallback branch).
    fn record_range(acc: &mut dyn Accountant, range: std::ops::Range<usize>) {
        for i in range {
            let eps = 0.02 + 0.013 * i as f64;
            let sigma = if i == 7 {
                0.0
            } else {
                crate::mechanism::analytic_gaussian_sigma(eps, 1e-10, 1.0).unwrap()
            };
            acc.record(Budget::new(eps, 1e-10).unwrap(), sigma, 1.0);
        }
    }

    fn state_bits(state: &AccountantState) -> (u64, Vec<u64>) {
        (
            state.releases,
            state.sums.iter().map(|sum| sum.to_bits()).collect(),
        )
    }

    /// Export → import → keep recording equals an uninterrupted accountant
    /// bit for bit, for every method.
    #[test]
    fn an_imported_state_keeps_composing_bit_for_bit() {
        for method in METHODS {
            let mut straight = make_accountant(method, 1e-9);
            record_range(straight.as_mut(), 0..30);
            let mut first = make_accountant(method, 1e-9);
            record_range(first.as_mut(), 0..12);
            let mut resumed = make_accountant(method, 1e-9);
            resumed.import_state(&first.export_state()).unwrap();
            record_range(resumed.as_mut(), 12..30);
            assert_eq!(
                state_bits(&resumed.export_state()),
                state_bits(&straight.export_state()),
                "{method:?}"
            );
            let (got, want) = (resumed.total(), straight.total());
            assert_eq!(
                (got.epsilon.value().to_bits(), got.delta.value().to_bits()),
                (want.epsilon.value().to_bits(), want.delta.value().to_bits()),
                "{method:?}"
            );
            assert_eq!(resumed.releases(), 30, "{method:?}");
        }
    }

    #[test]
    fn a_state_that_does_not_fit_is_refused() {
        let mut rdp = make_accountant(CompositionMethod::Rdp, 1e-9);
        record_range(rdp.as_mut(), 0..3);
        let rdp_state = rdp.export_state();
        for method in [
            CompositionMethod::Sequential,
            CompositionMethod::Advanced,
            CompositionMethod::Zcdp,
        ] {
            assert!(
                matches!(
                    make_accountant(method, 1e-9).import_state(&rdp_state),
                    Err(DpError::InvalidAccountantState(_))
                ),
                "{method:?}"
            );
        }
        let mut zcdp = make_accountant(CompositionMethod::Zcdp, 1e-9);
        for bad in [-1.0, f64::NAN] {
            let state = AccountantState {
                releases: 1,
                sums: vec![bad, 0.0],
            };
            assert!(matches!(
                zcdp.import_state(&state),
                Err(DpError::InvalidAccountantState(_))
            ));
        }
        // The default state is an accountant that recorded nothing.
        rdp.import_state(&AccountantState::default()).unwrap();
        assert_eq!(rdp.total(), Budget::ZERO);
        assert_eq!(rdp.releases(), 0);
    }
}
