//! The privacy provenance framework (Section 4.2).
//!
//! * [`table`] — the provenance matrix `P[A_i, V_j]` with its row, column
//!   and table constraints and the constraint checks used by the vanilla
//!   (Algorithm 2) and additive-Gaussian (Algorithm 4) mechanisms.
//! * `constraints` — the administrator-facing constraint specifications:
//!   Definition 10 (proportional / "l_sum"), Definition 11 (max-normalised /
//!   "l_max") with the τ expansion factor. Every view constraint is ψ_P
//!   (Definition 12, water-filling).

pub(crate) mod constraints;
pub mod table;

pub(crate) use constraints::analyst_constraints;
pub use table::ProvenanceTable;
