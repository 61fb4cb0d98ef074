//! Data analysts and privilege levels.

use crate::error::{CoreError, Result};

/// Identifier of a registered analyst (dense index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnalystId(pub usize);

impl std::fmt::Display for AnalystId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// A privacy privilege level, an integer in `1..=10` (RQ3 in §3): a higher
/// number means a more trusted analyst who may receive more information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Privilege(u8);

impl Privilege {
    /// The highest privilege level expressible in the system.
    pub(crate) const MAX_LEVEL: u8 = 10;

    /// Creates a privilege level, rejecting values outside `1..=10`.
    pub(crate) fn new(level: u8) -> Result<Self> {
        if (1..=Self::MAX_LEVEL).contains(&level) {
            Ok(Privilege(level))
        } else {
            Err(CoreError::InvalidPrivilege(level))
        }
    }

    /// The raw level.
    #[must_use]
    pub fn level(self) -> u8 {
        self.0
    }

    /// The level as a float (used in constraint normalisation and DCFG).
    #[must_use]
    pub(crate) fn as_f64(self) -> f64 {
        f64::from(self.0)
    }
}

/// A registered analyst.
#[derive(Debug, Clone, PartialEq)]
pub struct Analyst {
    /// The analyst's identifier.
    pub id: AnalystId,
    /// Display name.
    pub name: String,
    /// Privacy privilege level.
    pub privilege: Privilege,
}

/// The registry of analysts known to the system.
#[derive(Debug, Clone, Default)]
pub struct AnalystRegistry {
    analysts: Vec<Analyst>,
}

impl AnalystRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        AnalystRegistry {
            analysts: Vec::new(),
        }
    }

    /// Registers an analyst and returns the new identifier.
    pub fn register(&mut self, name: &str, privilege: u8) -> Result<AnalystId> {
        let privilege = Privilege::new(privilege)?;
        let id = AnalystId(self.analysts.len());
        self.analysts.push(Analyst {
            id,
            name: name.to_owned(),
            privilege,
        });
        Ok(id)
    }

    /// Looks up an analyst by id.
    pub fn get(&self, id: AnalystId) -> Result<&Analyst> {
        self.analysts.get(id.0).ok_or(CoreError::UnknownAnalyst(id))
    }

    /// Looks up an analyst by display name (the credential the analyst
    /// protocol authenticates with). Names are compared exactly; the first
    /// registration wins if a name was registered twice.
    #[must_use]
    pub fn find_by_name(&self, name: &str) -> Option<&Analyst> {
        self.analysts.iter().find(|a| a.name == name)
    }

    /// The privilege of an analyst.
    #[cfg(test)]
    pub(crate) fn privilege(&self, id: AnalystId) -> Result<Privilege> {
        Ok(self.get(id)?.privilege)
    }

    /// All registered analysts.
    #[must_use]
    pub fn analysts(&self) -> &[Analyst] {
        &self.analysts
    }

    /// Identifiers of all registered analysts.
    #[must_use]
    pub(crate) fn ids(&self) -> Vec<AnalystId> {
        self.analysts.iter().map(|a| a.id).collect()
    }

    /// Number of registered analysts.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.analysts.len()
    }

    /// True if no analysts are registered.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.analysts.is_empty()
    }

    /// The sum of all privilege levels (the Def. 10 normaliser).
    #[must_use]
    pub(crate) fn privilege_sum(&self) -> f64 {
        self.analysts.iter().map(|a| a.privilege.as_f64()).sum()
    }

    /// The maximum privilege level among registered analysts (the Def. 11
    /// normaliser when no system-wide maximum is configured).
    #[must_use]
    pub(crate) fn privilege_max(&self) -> f64 {
        self.analysts
            .iter()
            .map(|a| a.privilege.as_f64())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privilege_bounds() {
        assert!(Privilege::new(0).is_err());
        assert!(Privilege::new(11).is_err());
        assert_eq!(Privilege::new(1).unwrap().level(), 1);
        assert_eq!(Privilege::new(10).unwrap().as_f64(), 10.0);
    }

    #[test]
    fn registration_assigns_dense_ids() {
        let mut reg = AnalystRegistry::new();
        let a = reg.register("alice", 4).unwrap();
        let b = reg.register("bob", 1).unwrap();
        assert_eq!(a, AnalystId(0));
        assert_eq!(b, AnalystId(1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(a).unwrap().name, "alice");
        assert_eq!(reg.privilege(b).unwrap().level(), 1);
        assert!(reg.get(AnalystId(5)).is_err());
    }

    #[test]
    fn privilege_aggregates() {
        let mut reg = AnalystRegistry::new();
        reg.register("a", 1).unwrap();
        reg.register("b", 4).unwrap();
        reg.register("c", 10).unwrap();
        assert_eq!(reg.privilege_sum(), 15.0);
        assert_eq!(reg.privilege_max(), 10.0);
    }

    #[test]
    fn invalid_privilege_does_not_register() {
        let mut reg = AnalystRegistry::new();
        assert!(reg.register("bad", 0).is_err());
        assert!(reg.is_empty());
    }
}
