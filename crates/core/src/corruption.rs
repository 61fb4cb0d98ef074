//! The (t, n)-compromised threat model (Section 7.1).
//!
//! Instead of assuming *all* analysts may collude, the administrator can
//! express a prior belief as a corruption graph: an edge means two analysts
//! may collude, and the policy is valid when every connected component has
//! fewer than `t` nodes (Definition 14). Budget can then be assigned per
//! connected component — up to `k · ψ_P` in total across `k` components
//! (Theorem 7.2) — because analysts in different components are assumed not
//! to share answers.

use std::collections::BTreeSet;

use crate::analyst::AnalystId;
use crate::error::{CoreError, Result};

/// An undirected corruption graph over `n` analysts.
#[derive(Debug, Clone)]
pub struct CorruptionGraph {
    n: usize,
    edges: BTreeSet<(usize, usize)>,
}

impl CorruptionGraph {
    /// Creates a graph over `n` analysts with no edges (no collusion
    /// assumed between any pair).
    #[must_use]
    pub fn new(n: usize) -> Self {
        CorruptionGraph {
            n,
            edges: BTreeSet::new(),
        }
    }

    /// Adds an undirected edge: analysts `a` and `b` may collude.
    pub fn add_edge(&mut self, a: AnalystId, b: AnalystId) -> Result<()> {
        if a.0 >= self.n || b.0 >= self.n {
            return Err(CoreError::InvalidCorruptionGraph(format!(
                "edge ({a}, {b}) references an analyst outside 0..{}",
                self.n
            )));
        }
        if a != b {
            let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
            self.edges.insert((lo, hi));
        }
        Ok(())
    }

    /// Number of analysts (nodes).
    #[must_use]
    pub fn num_analysts(&self) -> usize {
        self.n
    }

    /// The connected components, each a sorted list of analyst ids.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<AnalystId>> {
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for &(a, b) in &self.edges {
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<AnalystId>> = Default::default();
        for i in 0..self.n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(AnalystId(i));
        }
        groups.into_values().collect()
    }

    /// Checks that the graph is a valid `(t, n)`-analysts corruption graph
    /// (Definition 14): every connected component has fewer than `t` nodes.
    pub fn validate(&self, t: usize) -> Result<()> {
        for component in self.components() {
            if component.len() >= t {
                return Err(CoreError::InvalidCorruptionGraph(format!(
                    "component {:?} has {} nodes, which is not < t = {t}",
                    component,
                    component.len()
                )));
            }
        }
        Ok(())
    }

    /// Assigns the overall budget ψ_P to each connected component,
    /// splitting it inside the component proportionally to the supplied
    /// privilege weights (Theorem 7.2's construction). Returns per-analyst
    /// budgets indexed by `AnalystId.0`.
    pub fn component_budgets(&self, psi_p: f64, privileges: &[f64]) -> Result<Vec<f64>> {
        if privileges.len() != self.n {
            return Err(CoreError::InvalidCorruptionGraph(format!(
                "expected {} privilege weights, got {}",
                self.n,
                privileges.len()
            )));
        }
        let mut budgets = vec![0.0; self.n];
        for component in self.components() {
            let total: f64 = component.iter().map(|a| privileges[a.0]).sum();
            if total <= 0.0 {
                return Err(CoreError::InvalidCorruptionGraph(
                    "component has zero total privilege".to_owned(),
                ));
            }
            for a in component {
                budgets[a.0] = psi_p * privileges[a.0] / total;
            }
        }
        Ok(budgets)
    }

    /// The total budget the relaxed model can hand out: `k · ψ_P` where `k`
    /// is the number of connected components.
    #[must_use]
    pub fn total_assignable(&self, psi_p: f64) -> f64 {
        self.components().len() as f64 * psi_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_of_an_empty_graph_are_singletons() {
        let g = CorruptionGraph::new(4);
        let comps = g.components();
        assert_eq!(comps.len(), 4);
        assert!(g.validate(2).is_ok());
        assert_eq!(g.total_assignable(1.0), 4.0);
    }

    #[test]
    fn edges_merge_components() {
        let mut g = CorruptionGraph::new(5);
        g.add_edge(AnalystId(0), AnalystId(1)).unwrap();
        g.add_edge(AnalystId(1), AnalystId(2)).unwrap();
        g.add_edge(AnalystId(3), AnalystId(4)).unwrap();
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![AnalystId(0), AnalystId(1), AnalystId(2)]);
        // t must exceed the largest component size.
        assert!(g.validate(3).is_err());
        assert!(g.validate(4).is_ok());
    }

    #[test]
    fn self_loops_and_bad_indices() {
        let mut g = CorruptionGraph::new(2);
        g.add_edge(AnalystId(0), AnalystId(0)).unwrap();
        assert_eq!(g.components().len(), 2);
        assert!(g.add_edge(AnalystId(0), AnalystId(5)).is_err());
    }

    #[test]
    fn component_budgets_give_each_component_the_full_budget() {
        let mut g = CorruptionGraph::new(4);
        g.add_edge(AnalystId(0), AnalystId(1)).unwrap();
        let budgets = g.component_budgets(2.0, &[1.0, 3.0, 2.0, 2.0]).unwrap();
        // Component {0,1}: split 2.0 proportionally 1:3.
        assert!((budgets[0] - 0.5).abs() < 1e-12);
        assert!((budgets[1] - 1.5).abs() < 1e-12);
        // Singletons get the full budget each.
        assert!((budgets[2] - 2.0).abs() < 1e-12);
        assert!((budgets[3] - 2.0).abs() < 1e-12);
        // Total assignable exceeds the all-collusion setting when k > 1.
        assert!(g.total_assignable(2.0) > 2.0);
    }

    #[test]
    fn component_budget_errors() {
        let g = CorruptionGraph::new(2);
        assert!(g.component_budgets(1.0, &[1.0]).is_err());
        assert!(g.component_budgets(1.0, &[1.0, 0.0]).is_err());
    }
}
