//! Table schemas.
//!
//! A schema is an ordered list of named, typed, optionally-nullable fields.
//! Production tables at Baidu carry ~200 attributes (paper Table I), so
//! field lookup by name is backed by a hash index rather than linear scan.

use crate::value::DataType;
use feisu_common::hash::FxHashMap;
use std::sync::Arc;

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Field {
    pub fn new(name: impl Into<String>, data_type: DataType, nullable: bool) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable,
        }
    }
}

/// An ordered, name-indexed collection of fields. Immutable once built and
/// shared by refcount: a clone allocates nothing, and two handles to one
/// allocation compare equal without looking at a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema(Arc<Inner>);

#[derive(Debug, PartialEq, Eq)]
struct Inner {
    fields: Vec<Field>,
    by_name: FxHashMap<String, usize>,
}

impl Schema {
    /// Builds a schema; panics on duplicate field names (a construction-time
    /// programming error, not a runtime condition).
    pub fn new(fields: Vec<Field>) -> Self {
        Schema::try_new(fields).unwrap_or_else(|name| panic!("duplicate field name: {name}"))
    }

    /// Builds a schema from fields that came from outside the program (a
    /// block header): a duplicate name is reported, by name, instead of
    /// panicking.
    pub fn try_new(fields: Vec<Field>) -> Result<Self, String> {
        let mut by_name = FxHashMap::default();
        by_name.reserve(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if by_name.insert(f.name.clone(), i).is_some() {
                return Err(f.name.clone());
            }
        }
        Ok(Schema(Arc::new(Inner { fields, by_name })))
    }

    pub fn empty() -> Self {
        Schema::new(Vec::new())
    }

    pub fn fields(&self) -> &[Field] {
        &self.0.fields
    }

    pub fn len(&self) -> usize {
        self.0.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.fields.is_empty()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.0.by_name.get(name).copied()
    }

    pub fn field(&self, i: usize) -> &Field {
        &self.0.fields[i]
    }

    pub fn field_by_name(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.0.fields[i])
    }

    /// Projects a subset of fields (by index) into a new schema.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.0.fields[i].clone()).collect())
    }

    /// Concatenates two schemas (used by join output); right-side duplicate
    /// names get a disambiguating suffix.
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.0.fields.clone();
        for f in right.fields() {
            let mut f = f.clone();
            if self.index_of(&f.name).is_some() {
                f.name = format!("{}:r", f.name);
            }
            fields.push(f);
        }
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("url", DataType::Utf8, false),
            Field::new("clicks", DataType::Int64, false),
            Field::new("score", DataType::Float64, true),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("clicks"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(
            s.field_by_name("score").unwrap().data_type,
            DataType::Float64
        );
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_names_panic() {
        Schema::new(vec![
            Field::new("a", DataType::Int64, false),
            Field::new("a", DataType::Utf8, false),
        ]);
    }

    #[test]
    fn project_preserves_order() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.field(0).name, "score");
        assert_eq!(p.field(1).name, "url");
    }

    #[test]
    fn join_disambiguates_duplicates() {
        let s = sample();
        let joined = s.join(&sample());
        assert_eq!(joined.len(), 6);
        assert_eq!(joined.field(3).name, "url:r");
        assert!(joined.index_of("clicks:r").is_some());
    }
}
