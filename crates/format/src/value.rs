//! Scalar values and data types.
//!
//! Feisu's type system is deliberately small — the production system serves
//! log/business/label data whose queried attributes are integers, floats,
//! booleans and strings. `Value` is the dynamically-typed scalar used at
//! plan boundaries (literals, constant folding, row materialization); bulk
//! data lives in typed `Column`s and never boxes per-value.

use std::cmp::Ordering;
use std::fmt;

/// Data types supported by the Feisu columnar format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int64,
    Float64,
    Utf8,
}

impl DataType {
    /// Rough per-value in-memory width in bytes, used by cost estimation.
    /// Strings use an average-width estimate.
    pub fn estimated_width(self) -> usize {
        match self {
            DataType::Bool => 1,
            DataType::Int64 => 8,
            DataType::Float64 => 8,
            DataType::Utf8 => 24,
        }
    }

    /// Whether values of this type support arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int64 => "BIGINT",
            DataType::Float64 => "DOUBLE",
            DataType::Utf8 => "STRING",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar. `Null` is typeless, as in SQL.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int64(i64),
    Float64(f64),
    Utf8(String),
}

impl Value {
    /// The value's data type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Utf8(_) => Some(DataType::Utf8),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64 for mixed int/float comparison and arithmetic.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int64(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// SQL three-valued comparison: `None` when either side is null or the
    /// types are incomparable; ints and floats compare numerically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int64(a), Value::Int64(b)) => Some(a.cmp(b)),
            (Value::Utf8(a), Value::Utf8(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Total order used by ORDER BY and B-tree keys: nulls sort first,
    /// then by type tag, then by value (floats via total order).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int64(_) => 2,
                Value::Float64(_) => 2, // same rank: numerics interleave
                Value::Utf8(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int64(a), Value::Int64(b)) => a.cmp(b),
            (Value::Float64(a), Value::Float64(b)) => a.total_cmp(b),
            (Value::Int64(a), Value::Float64(b)) => (*a as f64).total_cmp(b),
            (Value::Float64(a), Value::Int64(b)) => a.total_cmp(&(*b as f64)),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Utf8(a), Value::Utf8(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Equality under SQL semantics (null = anything → false).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }

    /// Approximate in-memory footprint, used by cache accounting.
    pub fn footprint(&self) -> usize {
        match self {
            Value::Utf8(s) => std::mem::size_of::<Value>() + s.len(),
            _ => std::mem::size_of::<Value>(),
        }
    }
}

/// Structural equality (used by tests and hash keys): unlike `sql_eq`,
/// `Null == Null` and floats compare bitwise.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int64(a), Value::Int64(b)) => a == b,
            (Value::Float64(a), Value::Float64(b)) => a.to_bits() == b.to_bits(),
            (Value::Utf8(a), Value::Utf8(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::Int64(v) => {
                state.write_u8(2);
                state.write_u64(*v as u64);
            }
            Value::Float64(v) => {
                state.write_u8(3);
                state.write_u64(v.to_bits());
            }
            Value::Utf8(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Utf8(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Utf8(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int64(2).sql_cmp(&Value::Float64(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int64(1).sql_cmp(&Value::Float64(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float64(3.0).sql_cmp(&Value::Int64(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int64(1)), None);
        assert_eq!(Value::Int64(1).sql_cmp(&Value::Null), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn sql_cmp_incomparable_types() {
        assert_eq!(Value::Utf8("a".into()).sql_cmp(&Value::Int64(1)), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Utf8("t".into())), None);
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut v = [
            Value::Int64(5),
            Value::Null,
            Value::Utf8("a".into()),
            Value::Int64(-1),
        ];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], Value::Null);
        assert_eq!(v[1], Value::Int64(-1));
        assert_eq!(v[2], Value::Int64(5));
        assert_eq!(v[3], Value::Utf8("a".into()));
    }

    #[test]
    fn structural_eq_treats_null_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Float64(f64::NAN), Value::Float64(f64::NAN));
        assert_ne!(Value::Int64(1), Value::Float64(1.0));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use feisu_common::hash::hash_one;
        assert_eq!(hash_one(&Value::Int64(7)), hash_one(&Value::Int64(7)));
        assert_eq!(
            hash_one(&Value::Utf8("x".into())),
            hash_one(&Value::Utf8("x".into()))
        );
        assert_ne!(hash_one(&Value::Int64(7)), hash_one(&Value::Int64(8)));
    }

    #[test]
    fn conversions_and_accessors() {
        let v: Value = 42i64.into();
        assert_eq!(v.as_i64(), Some(42));
        assert_eq!(v.as_f64(), Some(42.0));
        let s: Value = "hi".into();
        assert_eq!(s.as_str(), Some("hi"));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int64(3).to_string(), "3");
        assert_eq!(Value::Utf8("q".into()).to_string(), "'q'");
        assert_eq!(DataType::Utf8.to_string(), "STRING");
    }

    #[test]
    fn footprint_counts_string_bytes() {
        let short = Value::Int64(1).footprint();
        let long = Value::Utf8("x".repeat(100)).footprint();
        assert!(long > short + 90);
    }
}
