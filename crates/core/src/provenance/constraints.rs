//! Constraint specifications (Section 5.3).
//!
//! * Definition 10 ("l_sum"): ψ_Ai = l_i / Σ_j l_j · ψ_P — proportional
//!   normalisation, requires all analysts to be known up front; the natural
//!   choice for the vanilla mechanism because the column/table composition
//!   is a sum.
//! * Definition 11 ("l_max"): ψ_Ai = l_i / l_max · ψ_P — lets the most
//!   privileged analyst use the whole table budget; the natural choice for
//!   the additive Gaussian mechanism where collusion cost is a max.
//! * Expansion factor τ ≥ 1 (§6.2.2): multiplies analyst constraints
//!   (capped at ψ_P), trading fairness for utility while overall privacy is
//!   still protected by the table constraint.
//! * Definition 12 (water-filling): every view constraint equals ψ_P, so
//!   budget flows to the views analysts actually need.
//! * Static sensitivity split (sPrivateSQL): the table budget is divided
//!   across views up front, proportionally to 1/sensitivity. Test-only: no
//!   configuration selects it.

use crate::analyst::AnalystRegistry;
use crate::config::{AnalystConstraintSpec, SystemConfig, ViewConstraintSpec};
#[cfg(test)]
use crate::corruption::CorruptionGraph;
use crate::error::{CoreError, Result};

/// Computes the per-analyst (row) constraints ψ_Ai for every registered
/// analyst, in registration order, applying the τ expansion and capping at
/// ψ_P.
pub(crate) fn analyst_constraints(
    config: &SystemConfig,
    registry: &AnalystRegistry,
) -> Result<Vec<f64>> {
    if registry.is_empty() {
        return Ok(Vec::new());
    }
    let psi_p = config.total_epsilon.value();
    let denominator = match config.analyst_constraints {
        AnalystConstraintSpec::ProportionalSum => registry.privilege_sum(),
        AnalystConstraintSpec::MaxNormalized { system_max_level } => match system_max_level {
            Some(level) => {
                if level == 0 || level > crate::analyst::Privilege::MAX_LEVEL {
                    return Err(CoreError::InvalidConfig(format!(
                        "system_max_level must be in 1..=10, got {level}"
                    )));
                }
                f64::from(level)
            }
            None => registry.privilege_max(),
        },
    };
    if denominator <= 0.0 {
        return Err(CoreError::InvalidConfig(
            "constraint normaliser is zero".to_owned(),
        ));
    }
    Ok(registry
        .analysts()
        .iter()
        .map(|a| {
            let base = a.privilege.as_f64() / denominator * psi_p;
            (base * config.expansion_tau).min(psi_p)
        })
        .collect())
}

/// Computes per-analyst constraints under the relaxed (t, n)-compromised
/// threat model of Section 7.1: the table budget ψ_P is assigned to every
/// connected component of the corruption graph and split inside each
/// component proportionally to the analysts' privilege levels (Theorem 7.2).
/// Analysts believed not to collude can therefore jointly receive more than
/// ψ_P, while any colluding set stays within it.
#[cfg(test)]
pub(crate) fn analyst_constraints_from_corruption_graph(
    config: &SystemConfig,
    registry: &AnalystRegistry,
    graph: &CorruptionGraph,
) -> Result<Vec<f64>> {
    if graph.num_analysts() != registry.len() {
        return Err(CoreError::InvalidCorruptionGraph(format!(
            "graph covers {} analysts but {} are registered",
            graph.num_analysts(),
            registry.len()
        )));
    }
    let privileges: Vec<f64> = registry
        .analysts()
        .iter()
        .map(|a| a.privilege.as_f64())
        .collect();
    let psi_p = config.total_epsilon.value();
    let budgets = graph.component_budgets(psi_p, &privileges)?;
    Ok(budgets
        .into_iter()
        .map(|b| (b * config.expansion_tau).min(psi_p))
        .collect())
}

/// Computes the per-view (column) constraints ψ_Vj for the given view names
/// and sensitivities (same order).
pub(crate) fn view_constraints(
    config: &SystemConfig,
    view_sensitivities: &[(String, f64)],
) -> Result<Vec<f64>> {
    let psi_p = config.total_epsilon.value();
    match config.view_constraints {
        ViewConstraintSpec::WaterFilling => Ok(view_sensitivities.iter().map(|_| psi_p).collect()),
        #[cfg(test)]
        ViewConstraintSpec::StaticSensitivitySplit => {
            if view_sensitivities.is_empty() {
                return Ok(Vec::new());
            }
            let inv: Vec<f64> = view_sensitivities
                .iter()
                .map(|(name, s)| {
                    if *s <= 0.0 {
                        Err(CoreError::InvalidConfig(format!(
                            "view {name} has non-positive sensitivity {s}"
                        )))
                    } else {
                        Ok(1.0 / s)
                    }
                })
                .collect::<Result<_>>()?;
            let total: f64 = inv.iter().sum();
            Ok(inv.iter().map(|w| w / total * psi_p).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalystConstraintSpec;

    fn registry() -> AnalystRegistry {
        let mut r = AnalystRegistry::new();
        r.register("external", 1).unwrap();
        r.register("internal", 4).unwrap();
        r
    }

    #[test]
    fn proportional_sum_matches_definition_10() {
        let config = SystemConfig::new(2.0)
            .unwrap()
            .with_analyst_constraints(AnalystConstraintSpec::ProportionalSum);
        let c = analyst_constraints(&config, &registry()).unwrap();
        assert!((c[0] - 2.0 * 1.0 / 5.0).abs() < 1e-12);
        assert!((c[1] - 2.0 * 4.0 / 5.0).abs() < 1e-12);
        // Under Def. 10 no analyst can reach the full table budget when
        // more than one analyst is registered.
        assert!(c.iter().all(|&x| x < 2.0));
    }

    #[test]
    fn max_normalized_matches_definition_11() {
        let config = SystemConfig::new(2.0).unwrap();
        let c = analyst_constraints(&config, &registry()).unwrap();
        // l_max = 4 among registered analysts: the top analyst gets psi_P.
        assert!((c[0] - 2.0 * 1.0 / 4.0).abs() < 1e-12);
        assert!((c[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_normalized_with_fixed_system_level() {
        let config = SystemConfig::new(2.0).unwrap().with_analyst_constraints(
            AnalystConstraintSpec::MaxNormalized {
                system_max_level: Some(10),
            },
        );
        let c = analyst_constraints(&config, &registry()).unwrap();
        assert!((c[0] - 0.2).abs() < 1e-12);
        assert!((c[1] - 0.8).abs() < 1e-12);

        let bad = SystemConfig::new(2.0).unwrap().with_analyst_constraints(
            AnalystConstraintSpec::MaxNormalized {
                system_max_level: Some(11),
            },
        );
        assert!(analyst_constraints(&bad, &registry()).is_err());
    }

    #[test]
    fn expansion_scales_and_caps_at_table_constraint() {
        let config = SystemConfig::new(2.0)
            .unwrap()
            .with_analyst_constraints(AnalystConstraintSpec::ProportionalSum)
            .with_expansion(1.9)
            .unwrap();
        let c = analyst_constraints(&config, &registry()).unwrap();
        assert!((c[0] - 2.0 * 0.2 * 1.9).abs() < 1e-12);
        // 0.8 * 2.0 * 1.9 = 3.04 would exceed psi_P = 2.0: capped.
        assert!((c[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_registry_yields_no_constraints() {
        let config = SystemConfig::new(2.0).unwrap();
        assert!(analyst_constraints(&config, &AnalystRegistry::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn corruption_graph_constraints_split_psi_per_component() {
        use crate::analyst::AnalystId;
        let mut registry = registry(); // privileges 1 and 4
        registry.register("contractor", 2).unwrap();
        let config = SystemConfig::new(2.0).unwrap();

        // Analysts 0 and 1 may collude; analyst 2 is independent.
        let mut graph = CorruptionGraph::new(3);
        graph.add_edge(AnalystId(0), AnalystId(1)).unwrap();
        let c = analyst_constraints_from_corruption_graph(&config, &registry, &graph).unwrap();
        // Component {0, 1}: 2.0 split 1:4.
        assert!((c[0] - 0.4).abs() < 1e-12);
        assert!((c[1] - 1.6).abs() < 1e-12);
        // Singleton component gets the full table budget.
        assert!((c[2] - 2.0).abs() < 1e-12);
        // The relaxed model hands out more than psi_P in total…
        assert!(c.iter().sum::<f64>() > 2.0);
        // …but never more than psi_P to any single analyst.
        assert!(c.iter().all(|&x| x <= 2.0 + 1e-12));

        // A mismatched graph is rejected.
        let small_graph = CorruptionGraph::new(2);
        assert!(
            analyst_constraints_from_corruption_graph(&config, &registry, &small_graph).is_err()
        );
    }

    #[test]
    fn water_filling_gives_every_view_the_table_budget() {
        let config = SystemConfig::new(3.2).unwrap();
        let views = vec![("v1".to_owned(), 1.4), ("v2".to_owned(), 1.4)];
        let c = view_constraints(&config, &views).unwrap();
        assert_eq!(c, vec![3.2, 3.2]);
    }

    #[test]
    fn static_split_divides_the_budget() {
        let config = SystemConfig::new(3.0)
            .unwrap()
            .with_view_constraints(ViewConstraintSpec::StaticSensitivitySplit);
        let views = vec![
            ("v1".to_owned(), 1.0),
            ("v2".to_owned(), 1.0),
            ("v3".to_owned(), 1.0),
        ];
        let c = view_constraints(&config, &views).unwrap();
        assert_eq!(c.len(), 3);
        for x in &c {
            assert!((x - 1.0).abs() < 1e-12);
        }
        let sum: f64 = c.iter().sum();
        assert!((sum - 3.0).abs() < 1e-12);

        // Higher sensitivity gets a smaller share.
        let views = vec![("a".to_owned(), 1.0), ("b".to_owned(), 3.0)];
        let c = view_constraints(&config, &views).unwrap();
        assert!(c[0] > c[1]);
        assert!((c.iter().sum::<f64>() - 3.0).abs() < 1e-12);

        let bad = vec![("a".to_owned(), 0.0)];
        assert!(view_constraints(&config, &bad).is_err());
    }
}
