//! System configuration.
//!
//! Unlike the single-knob configuration of prior DP systems, DProvDB asks
//! the administrator to configure the table constraint ψ_P, the per-analyst
//! constraint specification (Definition 10 or 11, optionally expanded by τ),
//! the per-view constraint specification (Definition 12 or a static split),
//! the system-wide δ, and the composition method.

use dprov_delta::EpochPolicy;
use dprov_dp::accountant::CompositionMethod;
use dprov_dp::budget::{Delta, Epsilon};
use dprov_dp::translation::DEFAULT_EPSILON_PRECISION;

use crate::error::{CoreError, Result};

/// How per-analyst (row) constraints ψ_Ai are derived from privileges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalystConstraintSpec {
    /// Definition 10 ("l_sum"): ψ_Ai = l_i / Σ_j l_j · ψ_P. Requires every
    /// analyst to be registered before setup; tailored to the vanilla
    /// approach.
    ProportionalSum,
    /// Definition 11 ("l_max"): ψ_Ai = l_i / l_max · ψ_P. `system_max_level`
    /// fixes l_max; `None` uses the maximum privilege among registered
    /// analysts, which is what the paper's experiments correspond to.
    MaxNormalized {
        /// Optional fixed system-wide maximum privilege level.
        system_max_level: Option<u8>,
    },
}

/// How per-view (column) constraints ψ_Vj are derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ViewConstraintSpec {
    /// Definition 12 (water-filling): every view constraint equals the table
    /// constraint; budget flows to the views analysts actually query.
    WaterFilling,
    /// The PrivateSQL-style static split: the table budget is divided across
    /// views proportionally to the inverse of their sensitivities (equal
    /// split when all views are counting histograms). Test-only.
    #[cfg(test)]
    StaticSensitivitySplit,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The table constraint ψ_P — the overall privacy budget.
    pub total_epsilon: Epsilon,
    /// The per-query / per-synopsis δ (the paper fixes one small δ for all
    /// queries, e.g. 1e-9, capped by 1/|D|).
    pub delta: Delta,
    /// How analyst constraints are derived.
    pub(crate) analyst_constraints: AnalystConstraintSpec,
    /// How view constraints are derived.
    pub(crate) view_constraints: ViewConstraintSpec,
    /// The constraint-expansion factor τ ≥ 1 (§6.2.2, Fig. 7): analyst
    /// constraints are multiplied by τ (and capped at ψ_P), trading fairness
    /// for utility.
    pub(crate) expansion_tau: f64,
    /// The composition method used for overall accounting.
    pub composition: CompositionMethod,
    /// The precision `p` of the accuracy→privacy binary search.
    pub translation_precision: f64,
    /// RNG seed for noise generation (experiments repeat over several seeds).
    pub seed: u64,
    /// What happens to noisy synopses of a view whose data changed at an
    /// epoch seal (the dynamic-data budget policy; see `dprov-delta`).
    pub(crate) epoch_policy: EpochPolicy,
}

impl SystemConfig {
    /// A configuration with the paper's defaults: δ = 1e-9, water-filling
    /// view constraints, Def. 11 analyst constraints, no expansion, basic
    /// composition.
    pub fn new(total_epsilon: f64) -> Result<Self> {
        Ok(SystemConfig {
            total_epsilon: Epsilon::new(total_epsilon).map_err(CoreError::Dp)?,
            delta: Delta::new(1e-9).expect("default delta is valid"),
            analyst_constraints: AnalystConstraintSpec::MaxNormalized {
                system_max_level: None,
            },
            view_constraints: ViewConstraintSpec::WaterFilling,
            expansion_tau: 1.0,
            composition: CompositionMethod::Sequential,
            translation_precision: DEFAULT_EPSILON_PRECISION,
            seed: 0,
            epoch_policy: EpochPolicy::default(),
        })
    }

    /// Sets the per-epoch synopsis budget policy for dynamic data.
    #[must_use]
    pub fn with_epoch_policy(mut self, policy: EpochPolicy) -> Self {
        self.epoch_policy = policy;
        self
    }

    /// Sets the per-query δ.
    pub fn with_delta(mut self, delta: f64) -> Result<Self> {
        self.delta = Delta::new(delta).map_err(CoreError::Dp)?;
        Ok(self)
    }

    /// Sets the analyst-constraint specification.
    #[must_use]
    pub fn with_analyst_constraints(mut self, spec: AnalystConstraintSpec) -> Self {
        self.analyst_constraints = spec;
        self
    }

    /// Sets the view-constraint specification.
    #[cfg(test)]
    pub(crate) fn with_view_constraints(mut self, spec: ViewConstraintSpec) -> Self {
        self.view_constraints = spec;
        self
    }

    /// Sets the constraint-expansion factor τ (must be ≥ 1).
    pub fn with_expansion(mut self, tau: f64) -> Result<Self> {
        if !(tau.is_finite() && tau >= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "expansion factor must be >= 1, got {tau}"
            )));
        }
        self.expansion_tau = tau;
        Ok(self)
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the composition method for overall accounting.
    #[must_use]
    pub fn with_composition(mut self, method: CompositionMethod) -> Self {
        self.composition = method;
        self
    }

    /// Validates the configuration against a dataset size: the paper caps δ
    /// at the inverse of the dataset size. Also rejects a translation
    /// precision the ε search cannot run at (the field is public).
    pub(crate) fn validate_for_dataset(&self, rows: usize) -> Result<()> {
        if !(self.translation_precision.is_finite() && self.translation_precision > 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "translation precision must be positive and finite, got {}",
                self.translation_precision
            )));
        }
        if rows > 0 && self.delta.value() > 1.0 / rows as f64 {
            return Err(CoreError::InvalidConfig(format!(
                "delta {} exceeds 1/|D| = {}",
                self.delta.value(),
                1.0 / rows as f64
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SystemConfig::new(3.2).unwrap();
        assert_eq!(c.total_epsilon.value(), 3.2);
        assert_eq!(c.delta.value(), 1e-9);
        assert_eq!(c.expansion_tau, 1.0);
        assert_eq!(c.view_constraints, ViewConstraintSpec::WaterFilling);
        assert!(matches!(
            c.analyst_constraints,
            AnalystConstraintSpec::MaxNormalized { .. }
        ));
    }

    #[test]
    fn builders_validate() {
        assert!(SystemConfig::new(-1.0).is_err());
        let c = SystemConfig::new(1.0).unwrap();
        assert!(c.clone().with_delta(2.0).is_err());
        assert!(c.clone().with_expansion(0.5).is_err());
        assert!(c.clone().with_expansion(1.9).is_ok());
        assert_eq!(c.clone().with_seed(9).seed, 9);
    }

    #[test]
    fn delta_cap_against_dataset_size() {
        let c = SystemConfig::new(1.0).unwrap().with_delta(1e-3).unwrap();
        assert!(c.validate_for_dataset(100).is_ok());
        assert!(c.validate_for_dataset(10_000).is_err());
        assert!(c.validate_for_dataset(0).is_ok());
    }

    #[test]
    fn unusable_translation_precision_is_rejected() {
        for precision in [0.0, -1e-4, f64::NAN, f64::INFINITY] {
            let mut c = SystemConfig::new(1.0).unwrap();
            c.translation_precision = precision;
            assert!(
                matches!(
                    c.validate_for_dataset(100),
                    Err(CoreError::InvalidConfig(_))
                ),
                "precision {precision} must not validate"
            );
        }
    }
}
