//! Plaintext tables as they exist at the data owner before encryption.

use crate::error::EdbmsError;
use crate::schema::{AttrId, Schema};

/// A plaintext relational table (column-major storage).
///
/// Lives only at the data owner: the service provider never sees one.
/// Column-major layout keeps bulk encryption and the plaintext test oracle
/// cache friendly.
#[derive(Debug, Clone)]
pub struct PlainTable {
    schema: Schema,
    columns: Vec<Vec<u64>>,
}

impl PlainTable {
    /// Creates a table directly from columns.
    ///
    /// # Errors
    /// Returns [`EdbmsError::ArityMismatch`] if the number of columns does
    /// not match the schema, and treats ragged columns as an arity error.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<u64>>) -> Result<Self, EdbmsError> {
        if columns.len() != schema.arity() {
            return Err(EdbmsError::ArityMismatch {
                expected: schema.arity(),
                actual: columns.len(),
            });
        }
        if let Some(first) = columns.first() {
            let n = first.len();
            if columns.iter().any(|c| c.len() != n) {
                return Err(EdbmsError::ArityMismatch {
                    expected: n,
                    actual: columns.iter().map(Vec::len).max().unwrap_or(0),
                });
            }
        }
        Ok(PlainTable { schema, columns })
    }

    /// Convenience constructor for a single-attribute table.
    pub fn single_column(table: &str, attr: &str, values: Vec<u64>) -> Self {
        let schema = Schema::new(table, &[attr]);
        PlainTable {
            schema,
            columns: vec![values],
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Borrow a whole column.
    ///
    /// # Errors
    /// Returns [`EdbmsError::AttrOutOfRange`] for a bad attribute id.
    pub(crate) fn column(&self, attr: AttrId) -> Result<&[u64], EdbmsError> {
        self.columns
            .get(attr as usize)
            .map(Vec::as_slice)
            .ok_or(EdbmsError::AttrOutOfRange {
                attr,
                n_attrs: self.schema.arity(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let s = Schema::new("t", &["x", "y"]);
        let t = PlainTable::from_columns(s, vec![vec![1, 2], vec![10, 20]]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.column(0).unwrap(), &[1, 2]);
        assert_eq!(t.column(1).unwrap(), &[10, 20]);
        assert!(matches!(
            t.column(2),
            Err(EdbmsError::AttrOutOfRange { .. })
        ));
    }

    #[test]
    fn from_columns_validates() {
        let s = Schema::new("t", &["x", "y"]);
        assert!(PlainTable::from_columns(s.clone(), vec![vec![1], vec![2]]).is_ok());
        assert!(PlainTable::from_columns(s.clone(), vec![vec![1]]).is_err());
        assert!(PlainTable::from_columns(s, vec![vec![1], vec![2, 3]]).is_err());
    }

    #[test]
    fn single_column_helper() {
        let t = PlainTable::single_column("t", "x", vec![5, 6, 7]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().arity(), 1);
        assert_eq!(t.column(0).unwrap(), &[5, 6, 7]);
    }
}
