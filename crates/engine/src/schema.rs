//! Attribute and relation schemas over finite domains.
//!
//! Every attribute declares a finite domain up front — either an inclusive
//! integer range (optionally discretised into fixed-width bins) or an
//! explicit category list. Finite domains are what make *full-domain*
//! histogram views (Definition 16 in the paper's Appendix D) well defined
//! and are also how the engine avoids the GROUP BY domain-leakage problem.

use crate::value::Value;
use crate::{EngineError, Result};

/// The type (and domain) of an attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeType {
    /// An integer attribute over the inclusive range `[min, max]`,
    /// discretised into bins of `bin_width` consecutive integers
    /// (`bin_width = 1` keeps exact values).
    Integer {
        /// Smallest admissible value.
        min: i64,
        /// Largest admissible value.
        max: i64,
        /// Width of each histogram bin, in domain units.
        bin_width: i64,
    },
    /// A categorical attribute over an explicit list of categories.
    Categorical {
        /// The category labels, in domain order.
        categories: Vec<String>,
    },
}

impl AttributeType {
    /// An integer domain with unit bins.
    #[must_use]
    pub fn integer(min: i64, max: i64) -> Self {
        AttributeType::Integer {
            min,
            max,
            bin_width: 1,
        }
    }

    /// An integer domain with the given bin width.
    #[must_use]
    pub fn binned_integer(min: i64, max: i64, bin_width: i64) -> Self {
        assert!(bin_width >= 1, "bin width must be at least 1");
        AttributeType::Integer {
            min,
            max,
            bin_width,
        }
    }

    /// A categorical domain from string labels.
    #[must_use]
    pub fn categorical<S: AsRef<str>>(labels: &[S]) -> Self {
        AttributeType::Categorical {
            categories: labels.iter().map(|s| s.as_ref().to_owned()).collect(),
        }
    }

    /// Number of distinct domain indices (histogram bins) of this attribute.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        match self {
            AttributeType::Integer {
                min,
                max,
                bin_width,
            } => {
                let span = (max - min + 1).max(0) as usize;
                span.div_ceil(*bin_width as usize)
            }
            AttributeType::Categorical { categories } => categories.len(),
        }
    }

    /// True for integer attributes (the only ones SUM/AVG apply to).
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        matches!(self, AttributeType::Integer { .. })
    }
}

/// A named attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// The attribute name.
    pub name: String,
    /// The attribute type / domain.
    pub attr_type: AttributeType,
}

impl Attribute {
    /// Creates an attribute.
    #[must_use]
    pub fn new(name: &str, attr_type: AttributeType) -> Self {
        Attribute {
            name: name.to_owned(),
            attr_type,
        }
    }

    /// Domain size of the attribute.
    #[must_use]
    pub fn domain_size(&self) -> usize {
        self.attr_type.domain_size()
    }

    /// Encodes a value into its domain index.
    pub fn index_of(&self, value: &Value) -> Result<usize> {
        let err = || EngineError::ValueOutOfDomain {
            attribute: self.name.clone(),
            value: value.to_string(),
        };
        match (&self.attr_type, value) {
            (
                AttributeType::Integer {
                    min,
                    max,
                    bin_width,
                },
                Value::Int(v),
            ) => {
                if v < min || v > max {
                    return Err(err());
                }
                Ok(((v - min) / bin_width) as usize)
            }
            (AttributeType::Categorical { categories }, Value::Text(s)) => {
                categories.iter().position(|c| c == s).ok_or_else(err)
            }
            _ => Err(err()),
        }
    }

    /// Decodes a domain index back into a representative value (for integer
    /// attributes with bins wider than 1, the bin's lower edge).
    #[must_use]
    pub fn value_at(&self, index: usize) -> Value {
        match &self.attr_type {
            AttributeType::Integer { min, bin_width, .. } => {
                Value::Int(min + index as i64 * bin_width)
            }
            AttributeType::Categorical { categories } => Value::Text(categories[index].clone()),
        }
    }

    /// The numeric value associated with a domain index, used as the SUM
    /// coefficient (bin lower edge for binned integers). `None` for
    /// categorical attributes.
    #[must_use]
    pub fn numeric_at(&self, index: usize) -> Option<f64> {
        match &self.attr_type {
            AttributeType::Integer { min, bin_width, .. } => {
                Some((min + index as i64 * bin_width) as f64)
            }
            AttributeType::Categorical { .. } => None,
        }
    }

    /// The inclusive range of domain indices covered by the value range
    /// `[low, high]` for an integer attribute. `None` if the attribute is
    /// categorical or the ranges do not intersect.
    #[must_use]
    pub fn index_range(&self, low: i64, high: i64) -> Option<(usize, usize)> {
        match &self.attr_type {
            AttributeType::Integer {
                min,
                max,
                bin_width,
            } => {
                let lo = low.max(*min);
                let hi = high.min(*max);
                if lo > hi {
                    return None;
                }
                Some((
                    ((lo - min) / bin_width) as usize,
                    ((hi - min) / bin_width) as usize,
                ))
            }
            AttributeType::Categorical { .. } => None,
        }
    }
}

/// The schema of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema from attributes. Attribute names must be unique.
    #[must_use]
    pub fn new(attributes: Vec<Attribute>) -> Self {
        let mut names: Vec<&str> = attributes.iter().map(|a| a.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            attributes.len(),
            "schema attribute names must be unique"
        );
        Schema { attributes }
    }

    /// The attributes in declaration order.
    #[must_use]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of an attribute by name.
    pub fn position(&self, name: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| EngineError::UnknownAttribute(name.to_owned()))
    }

    /// The attribute with the given name.
    pub fn attribute(&self, name: &str) -> Result<&Attribute> {
        let pos = self.position(name)?;
        Ok(&self.attributes[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn age() -> Attribute {
        Attribute::new("age", AttributeType::integer(17, 90))
    }

    fn sex() -> Attribute {
        Attribute::new("sex", AttributeType::categorical(&["Female", "Male"]))
    }

    #[test]
    fn integer_domain_size_and_encoding() {
        let a = age();
        assert_eq!(a.domain_size(), 74);
        assert_eq!(a.index_of(&Value::Int(17)).unwrap(), 0);
        assert_eq!(a.index_of(&Value::Int(90)).unwrap(), 73);
        assert!(a.index_of(&Value::Int(16)).is_err());
        assert!(a.index_of(&Value::Int(91)).is_err());
        assert!(a.index_of(&Value::text("x")).is_err());
        assert_eq!(a.value_at(5), Value::Int(22));
        assert_eq!(a.numeric_at(0), Some(17.0));
    }

    #[test]
    fn binned_integer_domain() {
        let a = Attribute::new("hours", AttributeType::binned_integer(0, 99, 10));
        assert_eq!(a.domain_size(), 10);
        assert_eq!(a.index_of(&Value::Int(0)).unwrap(), 0);
        assert_eq!(a.index_of(&Value::Int(9)).unwrap(), 0);
        assert_eq!(a.index_of(&Value::Int(10)).unwrap(), 1);
        assert_eq!(a.index_of(&Value::Int(99)).unwrap(), 9);
        assert_eq!(a.value_at(3), Value::Int(30));
    }

    #[test]
    fn categorical_domain() {
        let s = sex();
        assert_eq!(s.domain_size(), 2);
        assert_eq!(s.index_of(&Value::text("Male")).unwrap(), 1);
        assert!(s.index_of(&Value::text("Other")).is_err());
        assert!(s.index_of(&Value::Int(1)).is_err());
        assert_eq!(s.value_at(0), Value::text("Female"));
        assert_eq!(s.numeric_at(0), None);
        assert!(!s.attr_type.is_numeric());
    }

    #[test]
    fn index_range_clamps_to_domain() {
        let a = age();
        assert_eq!(a.index_range(20, 29), Some((3, 12)));
        assert_eq!(a.index_range(0, 200), Some((0, 73)));
        assert_eq!(a.index_range(95, 99), None);
        assert_eq!(sex().index_range(0, 1), None);
    }

    #[test]
    fn schema_lookup() {
        let schema = Schema::new(vec![age(), sex()]);
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.position("sex").unwrap(), 1);
        assert!(schema.position("nope").is_err());
        assert_eq!(schema.attribute("age").unwrap().domain_size(), 74);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_names_rejected() {
        let _ = Schema::new(vec![age(), age()]);
    }
}
