//! The privacy provenance table (Definition 8).
//!
//! The table is the heart of the "stateful" design: a matrix with one row
//! per analyst and one column per view, where entry `P[A_i, V_j]` records
//! the cumulative privacy loss of view `V_j` *to analyst `A_i`*, together
//! with:
//!
//! * a **row constraint** ψ_Ai per analyst (their maximum allowed loss),
//! * a **column constraint** ψ_Vj per view,
//! * a **table constraint** ψ_P for the protected database.
//!
//! How entries compose into row/column/table totals depends on the
//! mechanism: the vanilla approach adds independent noise per analyst so a
//! view's loss is the *sum* over its column, while the additive Gaussian
//! approach derives all local synopses from one hidden global synopsis so a
//! view's loss is the column *maximum* (Theorem 5.2). Both checks are
//! provided here.

use std::collections::HashMap;

use crate::analyst::AnalystId;
use crate::error::RejectReason;

/// Numerical slack used in constraint comparisons so that repeated float
/// accumulation does not spuriously reject a query sitting exactly on a
/// constraint.
const EPS_TOL: f64 = 1e-9;

/// The privacy provenance table.
#[derive(Debug, Clone)]
pub struct ProvenanceTable {
    /// View names in column order.
    views: Vec<String>,
    view_index: HashMap<String, usize>,
    /// Row constraints ψ_Ai, indexed by `AnalystId.0`.
    row_constraints: Vec<f64>,
    /// Column constraints ψ_Vj.
    col_constraints: Vec<f64>,
    /// Table constraint ψ_P.
    table_constraint: f64,
    /// matrix[analyst][view] = cumulative epsilon.
    matrix: Vec<Vec<f64>>,
    /// Admissions committed to each analyst, indexed by `AnalystId.0`.
    releases: Vec<u64>,
}

impl ProvenanceTable {
    /// Creates a table with the given overall constraint and no analysts or
    /// views yet.
    #[must_use]
    pub fn new(table_constraint: f64) -> Self {
        ProvenanceTable {
            views: Vec::new(),
            view_index: HashMap::new(),
            row_constraints: Vec::new(),
            col_constraints: Vec::new(),
            table_constraint,
            matrix: Vec::new(),
            releases: Vec::new(),
        }
    }

    /// Registers an analyst row with its constraint ψ_Ai. Analysts must be
    /// added in id order (dense ids from the registry).
    pub fn add_analyst(&mut self, id: AnalystId, constraint: f64) {
        assert_eq!(
            id.0,
            self.row_constraints.len(),
            "analysts must be added in registration order"
        );
        self.row_constraints.push(constraint);
        self.matrix.push(vec![0.0; self.views.len()]);
        self.releases.push(0);
    }

    /// Registers a view column with its constraint ψ_Vj. Views can be added
    /// at any time (water-filling allows adding views over time, §5.3.2).
    pub fn add_view(&mut self, name: &str, constraint: f64) {
        if self.view_index.contains_key(name) {
            return;
        }
        self.view_index.insert(name.to_owned(), self.views.len());
        self.views.push(name.to_owned());
        self.col_constraints.push(constraint);
        for row in &mut self.matrix {
            row.push(0.0);
        }
    }

    /// Number of analyst rows.
    #[must_use]
    pub fn num_analysts(&self) -> usize {
        self.row_constraints.len()
    }

    /// Number of view columns.
    #[must_use]
    pub fn num_views(&self) -> usize {
        self.views.len()
    }

    /// The table constraint ψ_P.
    #[must_use]
    pub fn table_constraint(&self) -> f64 {
        self.table_constraint
    }

    /// The row constraint of an analyst.
    #[must_use]
    pub fn row_constraint(&self, analyst: AnalystId) -> f64 {
        self.row_constraints[analyst.0]
    }

    /// The column constraint of a view.
    #[must_use]
    pub fn col_constraint(&self, view: &str) -> f64 {
        self.col_constraints[self.view_index[view]]
    }

    /// The current cumulative loss `P[A_i, V_j]`.
    #[must_use]
    pub fn entry(&self, analyst: AnalystId, view: &str) -> f64 {
        match self.view_index.get(view) {
            Some(&v) => self.matrix[analyst.0][v],
            None => 0.0,
        }
    }

    /// Adds `epsilon` to entry `P[A_i, V_j]`.
    #[cfg(test)]
    pub(crate) fn charge(&mut self, analyst: AnalystId, view: &str, epsilon: f64) {
        let v = self.view_index[view];
        self.matrix[analyst.0][v] += epsilon;
    }

    /// Commits one admission: entry `P[A_i, V_j]` becomes `new_entry` and
    /// the analyst's release count grows by one.
    pub fn commit(&mut self, analyst: AnalystId, view: &str, new_entry: f64) {
        self.set_entry(analyst, view, new_entry);
        self.releases[analyst.0] += 1;
    }

    /// Undoes a [`Self::commit`] whose release failed: restores the entry
    /// it overwrote, bit for bit, and the release count.
    pub fn revert(&mut self, analyst: AnalystId, view: &str, prev_entry: f64) {
        self.set_entry(analyst, view, prev_entry);
        self.releases[analyst.0] -= 1;
    }

    /// The number of admissions committed to an analyst.
    #[must_use]
    pub fn releases(&self, analyst: AnalystId) -> u64 {
        self.releases[analyst.0]
    }

    /// Overwrites an analyst's release count (snapshot import).
    pub fn set_releases(&mut self, analyst: AnalystId, releases: u64) {
        self.releases[analyst.0] = releases;
    }

    /// Overwrites entry `P[A_i, V_j]` (snapshot import).
    pub fn set_entry(&mut self, analyst: AnalystId, view: &str, epsilon: f64) {
        let v = self.view_index[view];
        self.matrix[analyst.0][v] = epsilon;
    }

    /// Row composition: the analyst's total loss across views (basic
    /// sequential composition).
    #[must_use]
    pub fn row_total(&self, analyst: AnalystId) -> f64 {
        self.matrix[analyst.0].iter().sum()
    }

    /// Column composition under the vanilla mechanism: the sum over
    /// analysts.
    #[must_use]
    pub fn column_sum(&self, view: &str) -> f64 {
        let v = self.view_index[view];
        self.matrix.iter().map(|row| row[v]).sum()
    }

    /// Column composition under the additive Gaussian mechanism: the maximum
    /// over analysts (Theorem 5.2).
    #[must_use]
    pub fn column_max(&self, view: &str) -> f64 {
        let v = self.view_index[view];
        self.matrix.iter().map(|row| row[v]).fold(0.0, f64::max)
    }

    /// Table composition under the vanilla mechanism: the sum of every
    /// entry.
    #[must_use]
    pub fn total_sum(&self) -> f64 {
        self.matrix.iter().flatten().sum()
    }

    /// Table composition under the additive mechanism: the sum over views of
    /// each view's column maximum.
    #[must_use]
    pub fn total_of_column_maxes(&self) -> f64 {
        (0..self.views.len())
            .map(|v| self.matrix.iter().map(|row| row[v]).fold(0.0, f64::max))
            .sum()
    }

    /// Constraint check for the vanilla mechanism (Algorithm 2,
    /// `constraintCheck`): charging `epsilon` to `(analyst, view)` must keep
    /// the table, row and column compositions within their constraints.
    pub fn check_vanilla(
        &self,
        analyst: AnalystId,
        view: &str,
        epsilon: f64,
    ) -> std::result::Result<(), RejectReason> {
        if self.total_sum() + epsilon > self.table_constraint + EPS_TOL {
            return Err(RejectReason::TableConstraint);
        }
        if self.row_total(analyst) + epsilon > self.row_constraints[analyst.0] + EPS_TOL {
            return Err(RejectReason::AnalystConstraint { analyst });
        }
        if self.column_sum(view) + epsilon > self.col_constraint(view) + EPS_TOL {
            return Err(RejectReason::ViewConstraint {
                view: view.to_owned(),
            });
        }
        Ok(())
    }

    /// Constraint check for the additive Gaussian mechanism (Algorithm 4,
    /// `constraintCheck`): `effective_epsilon` is the *incremental* charge
    /// `ε' = min(ε_global, P[A_i,V] + ε_i) − P[A_i,V]`.
    pub fn check_additive(
        &self,
        analyst: AnalystId,
        view: &str,
        effective_epsilon: f64,
    ) -> std::result::Result<(), RejectReason> {
        if self.column_max(view) + effective_epsilon > self.col_constraint(view) + EPS_TOL {
            return Err(RejectReason::ViewConstraint {
                view: view.to_owned(),
            });
        }
        if self.total_of_column_maxes() + effective_epsilon > self.table_constraint + EPS_TOL {
            return Err(RejectReason::TableConstraint);
        }
        if self.row_total(analyst) + effective_epsilon > self.row_constraints[analyst.0] + EPS_TOL {
            return Err(RejectReason::AnalystConstraint { analyst });
        }
        Ok(())
    }

    /// Remaining room under the analyst's row constraint.
    #[must_use]
    pub fn row_remaining(&self, analyst: AnalystId) -> f64 {
        (self.row_constraints[analyst.0] - self.row_total(analyst)).max(0.0)
    }

    /// The registered view names, in column order.
    #[must_use]
    pub fn view_names(&self) -> &[String] {
        &self.views
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ProvenanceTable {
        let mut p = ProvenanceTable::new(2.0);
        p.add_analyst(AnalystId(0), 0.5); // low privilege
        p.add_analyst(AnalystId(1), 2.0); // high privilege
        p.add_view("v1", 2.0);
        p.add_view("v2", 2.0);
        p
    }

    #[test]
    fn entries_start_at_zero_and_accumulate() {
        let mut p = table();
        assert_eq!(p.entry(AnalystId(0), "v1"), 0.0);
        p.charge(AnalystId(0), "v1", 0.3);
        p.charge(AnalystId(0), "v1", 0.1);
        assert!((p.entry(AnalystId(0), "v1") - 0.4).abs() < 1e-12);
        p.set_entry(AnalystId(0), "v1", 0.25);
        assert_eq!(p.entry(AnalystId(0), "v1"), 0.25);
    }

    #[test]
    fn a_reverted_commit_restores_the_entry_and_the_release_count() {
        let mut p = table();
        p.commit(AnalystId(0), "v1", 0.1);
        // Subtracting the charge again would leave 0.10000000000000003.
        p.commit(AnalystId(0), "v1", 0.1 + 0.2);
        p.revert(AnalystId(0), "v1", 0.1);
        assert_eq!(p.entry(AnalystId(0), "v1").to_bits(), 0.1f64.to_bits());
        assert_eq!(p.releases(AnalystId(0)), 1);
        assert_eq!(p.releases(AnalystId(1)), 0);
    }

    #[test]
    fn compositions() {
        let mut p = table();
        p.charge(AnalystId(0), "v1", 0.3);
        p.charge(AnalystId(1), "v1", 0.5);
        p.charge(AnalystId(1), "v2", 0.2);
        assert!((p.row_total(AnalystId(1)) - 0.7).abs() < 1e-12);
        assert!((p.column_sum("v1") - 0.8).abs() < 1e-12);
        assert!((p.column_max("v1") - 0.5).abs() < 1e-12);
        assert!((p.total_sum() - 1.0).abs() < 1e-12);
        assert!((p.total_of_column_maxes() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn vanilla_check_rejects_each_constraint() {
        let mut p = table();
        // Row constraint: analyst 0 has psi = 0.5.
        assert!(p.check_vanilla(AnalystId(0), "v1", 0.4).is_ok());
        assert!(matches!(
            p.check_vanilla(AnalystId(0), "v1", 0.6),
            Err(RejectReason::AnalystConstraint { .. })
        ));
        // Table constraint: psi_P = 2.0.
        p.charge(AnalystId(1), "v1", 1.9);
        assert!(matches!(
            p.check_vanilla(AnalystId(0), "v2", 0.2),
            Err(RejectReason::TableConstraint)
        ));
    }

    #[test]
    fn vanilla_check_rejects_view_constraint() {
        let mut p = ProvenanceTable::new(10.0);
        p.add_analyst(AnalystId(0), 10.0);
        p.add_analyst(AnalystId(1), 10.0);
        p.add_view("v1", 1.0);
        p.charge(AnalystId(0), "v1", 0.7);
        assert!(matches!(
            p.check_vanilla(AnalystId(1), "v1", 0.5),
            Err(RejectReason::ViewConstraint { .. })
        ));
        assert!(p.check_vanilla(AnalystId(1), "v1", 0.3).is_ok());
    }

    #[test]
    fn additive_check_uses_column_max_not_sum() {
        let mut p = ProvenanceTable::new(1.0);
        p.add_analyst(AnalystId(0), 1.0);
        p.add_analyst(AnalystId(1), 1.0);
        p.add_view("v1", 1.0);
        p.charge(AnalystId(0), "v1", 0.8);
        p.charge(AnalystId(1), "v1", 0.8);
        // Vanilla would see a column sum of 1.6 > 1.0; additive sees max 0.8.
        assert!(matches!(
            p.check_vanilla(AnalystId(1), "v1", 0.1),
            Err(RejectReason::TableConstraint) | Err(RejectReason::ViewConstraint { .. })
        ));
        assert!(p.check_additive(AnalystId(1), "v1", 0.1).is_ok());
        // But exceeding the max-based table constraint still rejects.
        assert!(matches!(
            p.check_additive(AnalystId(1), "v1", 0.3),
            Err(RejectReason::ViewConstraint { .. }) | Err(RejectReason::TableConstraint)
        ));
    }

    #[test]
    fn additive_check_respects_row_constraint() {
        let mut p = ProvenanceTable::new(5.0);
        p.add_analyst(AnalystId(0), 0.4);
        p.add_view("v1", 5.0);
        p.charge(AnalystId(0), "v1", 0.35);
        assert!(p.check_additive(AnalystId(0), "v1", 0.05).is_ok());
        assert!(matches!(
            p.check_additive(AnalystId(0), "v1", 0.1),
            Err(RejectReason::AnalystConstraint { .. })
        ));
    }

    #[test]
    fn exact_boundary_is_accepted() {
        let p = table();
        assert!(p.check_vanilla(AnalystId(0), "v1", 0.5).is_ok());
        assert!(p.check_additive(AnalystId(1), "v1", 2.0).is_ok());
    }

    #[test]
    fn views_added_later_extend_every_row() {
        let mut p = table();
        p.charge(AnalystId(0), "v1", 0.2);
        p.add_view("v3", 2.0);
        assert_eq!(p.num_views(), 3);
        assert_eq!(p.entry(AnalystId(0), "v3"), 0.0);
        assert_eq!(p.entry(AnalystId(1), "v3"), 0.0);
        // Re-adding an existing view is a no-op.
        p.add_view("v1", 0.1);
        assert_eq!(p.num_views(), 3);
        assert_eq!(p.col_constraint("v1"), 2.0);
    }

    #[test]
    fn row_remaining_floors_at_zero() {
        let mut p = table();
        p.charge(AnalystId(0), "v1", 0.6);
        assert_eq!(p.row_remaining(AnalystId(0)), 0.0);
        assert!((p.row_remaining(AnalystId(1)) - 2.0).abs() < 1e-12);
    }
}
