//! Dataset and system construction shared by every experiment binary.

use dprov_core::analyst::AnalystRegistry;
use dprov_core::baselines::{ChorusBaseline, ChorusPBaseline, SPrivateSqlBaseline};
use dprov_core::config::{AnalystConstraintSpec, SystemConfig};
use dprov_core::mechanism::MechanismKind;
use dprov_core::processor::QueryProcessor;
use dprov_core::system::DProvDb;
use dprov_core::Result as CoreResult;
use dprov_engine::catalog::ViewCatalog;
use dprov_engine::database::Database;
use dprov_engine::datagen::adult::{adult_database, ADULT_TABLE};
use dprov_engine::datagen::tpch::{tpch_database, TPCH_TABLE};

/// Which dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// The synthetic Adult census stand-in.
    Adult,
    /// The synthetic TPC-H lineitem stand-in.
    Tpch,
}

impl Dataset {
    /// The table name queried by the workloads.
    #[must_use]
    pub fn table(self) -> &'static str {
        match self {
            Dataset::Adult => ADULT_TABLE,
            Dataset::Tpch => TPCH_TABLE,
        }
    }

    /// Builds the dataset at the given number of rows.
    #[must_use]
    pub fn build(self, rows: usize, seed: u64) -> Database {
        match self {
            Dataset::Adult => adult_database(rows, seed),
            Dataset::Tpch => tpch_database(rows, seed),
        }
    }

    /// A human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Dataset::Adult => "Adult",
            Dataset::Tpch => "TPC-H",
        }
    }
}

/// The five systems compared throughout Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// DProvDB with the additive Gaussian mechanism (Def. 11 constraints).
    DProvDb,
    /// DProvDB with the vanilla mechanism (Def. 10 constraints).
    Vanilla,
    /// The simulated PrivateSQL baseline.
    SPrivateSql,
    /// Plain Chorus.
    Chorus,
    /// Chorus with provenance (per-analyst constraints), no cached views.
    ChorusP,
}

impl SystemKind {
    /// All five systems, in the order the paper's figures list them.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::DProvDb,
        SystemKind::Vanilla,
        SystemKind::SPrivateSql,
        SystemKind::Chorus,
        SystemKind::ChorusP,
    ];

    /// Display label matching the figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::DProvDb => "DProvDB",
            SystemKind::Vanilla => "Vanilla",
            SystemKind::SPrivateSql => "sPrivateSQL",
            SystemKind::Chorus => "Chorus",
            SystemKind::ChorusP => "ChorusP",
        }
    }
}

/// Registers `privileges.len()` analysts with the given privilege levels.
#[must_use]
pub fn registry_with(privileges: &[u8]) -> AnalystRegistry {
    let mut registry = AnalystRegistry::new();
    for (i, &p) in privileges.iter().enumerate() {
        registry
            .register(&format!("analyst-{i}"), p)
            .expect("privilege in range");
    }
    registry
}

/// The default two-analyst setting of the experiments: privileges 1 and 4.
#[must_use]
pub fn default_privileges() -> Vec<u8> {
    vec![1, 4]
}

/// Builds one of the five systems over the given database.
///
/// DProvDB uses the Definition 11 (l_max) analyst constraints; Vanilla and
/// ChorusP use Definition 10 (l_sum), matching §6.2.1's configuration.
pub fn build_system(
    kind: SystemKind,
    db: &Database,
    privileges: &[u8],
    config: &SystemConfig,
) -> CoreResult<Box<dyn QueryProcessor>> {
    let registry = registry_with(privileges);
    let table = db
        .table_names()
        .first()
        .copied()
        .unwrap_or(ADULT_TABLE)
        .to_owned();
    let catalog = ViewCatalog::one_per_attribute(db, &table)?;

    let processor: Box<dyn QueryProcessor> = match kind {
        SystemKind::DProvDb => {
            let config =
                config
                    .clone()
                    .with_analyst_constraints(AnalystConstraintSpec::MaxNormalized {
                        system_max_level: None,
                    });
            Box::new(DProvDb::new(
                db.clone(),
                catalog,
                registry,
                config,
                MechanismKind::AdditiveGaussian,
            )?)
        }
        SystemKind::Vanilla => {
            let config = config
                .clone()
                .with_analyst_constraints(AnalystConstraintSpec::ProportionalSum);
            Box::new(DProvDb::new(
                db.clone(),
                catalog,
                registry,
                config,
                MechanismKind::Vanilla,
            )?)
        }
        SystemKind::SPrivateSql => Box::new(SPrivateSqlBaseline::new(
            db.clone(),
            catalog,
            registry,
            config.clone(),
        )?),
        SystemKind::Chorus => Box::new(ChorusBaseline::new(db.clone(), registry, config.clone())),
        SystemKind::ChorusP => {
            Box::new(ChorusPBaseline::new(db.clone(), registry, config.clone())?)
        }
    };
    Ok(processor)
}

/// Reads an environment variable as a usize with a default (lets the
/// experiment binaries scale up to paper-sized runs without recompiling,
/// e.g. `DPROV_QUERIES=4000`).
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_core::analyst::AnalystId;
    use dprov_core::processor::QueryRequest;
    use dprov_engine::query::Query;

    #[test]
    fn every_system_can_be_built_and_answers_or_rejects() {
        let db = Dataset::Adult.build(500, 1);
        let config = SystemConfig::new(3.2).unwrap().with_seed(1);
        let request =
            QueryRequest::with_accuracy(Query::range_count("adult", "age", 25, 44), 20_000.0);
        for kind in SystemKind::ALL {
            let mut system = build_system(kind, &db, &default_privileges(), &config).unwrap();
            assert_eq!(system.name(), kind.label());
            assert_eq!(system.num_analysts(), 2);
            let outcome = system.submit(AnalystId(1), &request).unwrap();
            // Whatever the decision, it must be a decision, not an error.
            let _ = outcome.is_answered();
        }
    }

    #[test]
    fn dataset_helpers() {
        assert_eq!(Dataset::Adult.table(), "adult");
        assert_eq!(Dataset::Tpch.table(), "lineitem");
        assert_eq!(Dataset::Tpch.build(100, 1).total_rows(), 100);
        assert_eq!(Dataset::Adult.label(), "Adult");
    }

    #[test]
    fn env_parsing_falls_back_to_defaults() {
        assert_eq!(env_usize("DPROV_DOES_NOT_EXIST", 7), 7);
    }
}
