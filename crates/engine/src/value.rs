//! Cell values.

/// A single cell value.
///
/// The engine stores every attribute over a *finite* domain (integers within
/// a declared range, or a declared category list), which is what makes
/// full-domain histogram views well defined. `Value` is the decoded,
/// user-facing representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer value.
    Int(i64),
    /// A categorical (string) value.
    Text(String),
}

impl Value {
    /// Convenience constructor for text values.
    #[must_use]
    pub fn text(s: &str) -> Value {
        Value::Text(s.to_owned())
    }

    /// Returns the integer content, if this is an integer value.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Text(_) => None,
        }
    }

    /// Returns the text content, if this is a text value.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Text(s) => Some(s),
        }
    }

    /// A numeric rendering used by SUM/AVG aggregates: integers map to
    /// themselves, text has no numeric value.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        self.as_int().map(|v| v as f64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(42), Value::Int(42));
        assert_eq!(Value::from("abc"), Value::Text("abc".into()));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert_eq!(Value::text("x").as_int(), None);
        assert_eq!(Value::text("x").as_f64(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::text("hi").to_string(), "hi");
    }

    #[test]
    fn ordering_is_total_within_variant() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::text("a") < Value::text("b"));
    }
}
