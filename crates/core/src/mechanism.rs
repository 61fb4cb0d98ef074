//! Mechanism selection.
//!
//! DProvDB ships two provenance-aware mechanisms (Section 5): the vanilla
//! approach (Algorithm 2 — independent noise per analyst, cached views) and
//! the additive Gaussian approach (Algorithm 4 — correlated noise derived
//! from a hidden global synopsis). The [`crate::system::DProvDb`]
//! orchestrator is parameterised by this enum.

/// Which provenance-aware mechanism the system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MechanismKind {
    /// Algorithm 2: every (analyst, view) release is an independent
    /// analytic-Gaussian synopsis; composition across analysts on a view is
    /// a sum.
    Vanilla,
    /// Algorithm 4: local synopses are derived from one hidden global
    /// synopsis per view using the additive Gaussian mechanism; composition
    /// across analysts on a view is a maximum.
    AdditiveGaussian,
}

impl MechanismKind {
    /// The display name used in experiment outputs (matching the paper's
    /// figure legends).
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            MechanismKind::Vanilla => "Vanilla",
            MechanismKind::AdditiveGaussian => "DProvDB",
        }
    }

    /// A stable one-byte wire code for durable storage (`dprov-storage`
    /// ledger records and snapshot fingerprints). Codes are append-only:
    /// existing values must never be renumbered.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            MechanismKind::Vanilla => 1,
            MechanismKind::AdditiveGaussian => 2,
        }
    }

    /// Decodes a wire code produced by [`Self::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(MechanismKind::Vanilla),
            2 => Some(MechanismKind::AdditiveGaussian),
            _ => None,
        }
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(MechanismKind::Vanilla.label(), "Vanilla");
        assert_eq!(MechanismKind::AdditiveGaussian.to_string(), "DProvDB");
    }
}
