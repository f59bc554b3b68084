//! Table schema and identifier types.

use serde::{Deserialize, Serialize};

/// Identifies a tuple (row) within a table. Stable across inserts; deleted
/// tuples leave tombstones so ids are never reused.
pub type TupleId = u32;

/// Identifies an attribute (column) within a table's schema.
pub type AttrId = u32;

/// A relational schema: a table name and its attribute names.
///
/// All attributes are `u64`-valued — the paper evaluates on integer domains
/// (`[1, 30M]` synthetic data, scaled money/coordinate values for the real
/// datasets); fractional inputs are fixed-point scaled by the caller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    table: String,
    attrs: Vec<String>,
}

impl Schema {
    /// Creates a schema for `table` with the given attribute names.
    ///
    /// # Panics
    /// Panics if `attrs` is empty — a relation without attributes cannot be
    /// selected on.
    pub fn new(table: impl Into<String>, attrs: &[&str]) -> Self {
        assert!(!attrs.is_empty(), "schema must have at least one attribute");
        Schema {
            table: table.into(),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Number of attributes.
    pub(crate) fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Looks up an attribute id by name.
    pub(crate) fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a == name)
            .map(|i| i as AttrId)
    }

    /// Iterates over `(id, name)` pairs.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, n)| (i as AttrId, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_roundtrip() {
        let s = Schema::new("buildings", &["lat", "lon"]);
        assert_eq!(s.table(), "buildings");
        assert_eq!(s.arity(), 2);
        assert_eq!(s.attr_id("lat"), Some(0));
        assert_eq!(s.attr_id("lon"), Some(1));
        assert_eq!(s.attr_id("alt"), None);
        let pairs: Vec<_> = s.attrs().collect();
        assert_eq!(pairs, vec![(0, "lat"), (1, "lon")]);
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn empty_schema_rejected() {
        let _ = Schema::new("t", &[]);
    }
}
