//! Encrypted table storage at the service provider.
//!
//! Each attribute column is a flat byte buffer of fixed-width ciphertexts
//! ([`prkb_crypto::cipher::CIPHERTEXT_LEN`] bytes per cell): no per-cell
//! allocation, cache-friendly scans, and byte-exact storage accounting for
//! the paper's Table 3 measurements.

use crate::error::EdbmsError;
use crate::schema::{AttrId, Schema, TupleId};
use prkb_crypto::cipher::CIPHERTEXT_LEN;

/// One encrypted column: a flat buffer of fixed-width ciphertext cells.
#[derive(Debug, Clone, Default)]
pub(crate) struct EncryptedColumn {
    data: Vec<u8>,
}

impl EncryptedColumn {
    /// Creates an empty column with capacity for `n` cells.
    pub(crate) fn with_capacity(n: usize) -> Self {
        EncryptedColumn {
            data: Vec::with_capacity(n * CIPHERTEXT_LEN),
        }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.data.len() / CIPHERTEXT_LEN
    }

    /// Appends an already-encrypted cell (exactly one ciphertext width).
    ///
    /// # Panics
    /// Panics if `cell` is not exactly [`CIPHERTEXT_LEN`] bytes — cells are
    /// produced by the owner-side cipher, so any other width is a bug.
    pub(crate) fn push_cell(&mut self, cell: &[u8]) {
        assert_eq!(cell.len(), CIPHERTEXT_LEN, "cell width");
        self.data.extend_from_slice(cell);
    }

    /// Mutable access to the raw buffer for bulk encryption
    /// (`ValueCipher::seal_into` appends directly).
    pub(crate) fn raw_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Borrows cell `t`.
    pub(crate) fn cell(&self, t: TupleId) -> Option<&[u8]> {
        let start = t as usize * CIPHERTEXT_LEN;
        self.data.get(start..start + CIPHERTEXT_LEN)
    }

    /// Storage consumed by this column in bytes.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.data.len()
    }
}

/// The encrypted table held by the service provider.
///
/// Tuple ids are stable: deletion leaves a tombstone, insertion appends.
#[derive(Debug, Clone)]
pub struct EncryptedTable {
    schema: Schema,
    columns: Vec<EncryptedColumn>,
    live: Vec<bool>,
}

impl EncryptedTable {
    /// Creates an empty encrypted table pre-sized for `n` rows (used by the
    /// data owner during encryption; the service provider receives the
    /// result).
    pub(crate) fn with_capacity(schema: Schema, n: usize) -> Self {
        let columns = (0..schema.arity())
            .map(|_| EncryptedColumn::with_capacity(n))
            .collect();
        EncryptedTable {
            schema,
            columns,
            live: Vec::with_capacity(n),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of tuple slots, including tombstones.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the table has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of live (non-deleted) tuples.
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|l| **l).count()
    }

    /// Whether tuple `t` exists and has not been deleted.
    pub fn is_live(&self, t: TupleId) -> bool {
        self.live.get(t as usize).copied().unwrap_or(false)
    }

    /// Marks tuple `t` deleted (id is never reused).
    ///
    /// # Errors
    /// Returns [`EdbmsError::TupleOutOfRange`] if `t` does not exist.
    pub fn delete(&mut self, t: TupleId) -> Result<(), EdbmsError> {
        let len = self.live.len();
        let slot = self
            .live
            .get_mut(t as usize)
            .ok_or(EdbmsError::TupleOutOfRange { tuple: t, len })?;
        *slot = false;
        Ok(())
    }

    /// Appends a row of pre-encrypted cells, returning the new tuple id.
    ///
    /// # Errors
    /// Returns [`EdbmsError::ArityMismatch`] on a wrong-width row.
    pub fn push_encrypted_row(&mut self, cells: &[&[u8]]) -> Result<TupleId, EdbmsError> {
        if cells.len() != self.schema.arity() {
            return Err(EdbmsError::ArityMismatch {
                expected: self.schema.arity(),
                actual: cells.len(),
            });
        }
        for (col, cell) in self.columns.iter_mut().zip(cells) {
            col.push_cell(cell);
        }
        self.live.push(true);
        Ok((self.live.len() - 1) as TupleId)
    }

    /// Internal bulk-load hook used by the data owner: appends directly into
    /// the raw column buffer and registers `n` live rows.
    pub(crate) fn bulk_load(&mut self, fill: impl FnOnce(&mut [EncryptedColumn]) -> usize) {
        let n = fill(&mut self.columns);
        self.live.extend(std::iter::repeat_n(true, n));
        debug_assert!(
            self.columns.iter().all(|c| c.len() == self.live.len()),
            "ragged bulk load"
        );
    }

    /// Borrows the ciphertext cell for (`attr`, `t`).
    ///
    /// # Errors
    /// Returns an out-of-range error for bad ids.
    pub fn cell(&self, attr: AttrId, t: TupleId) -> Result<&[u8], EdbmsError> {
        let col = self.column(attr)?;
        col.cell(t).ok_or_else(|| self.tuple_out_of_range(t))
    }

    /// Borrows column `attr`, for a caller that reads many of its cells.
    pub(crate) fn column(&self, attr: AttrId) -> Result<&EncryptedColumn, EdbmsError> {
        self.columns
            .get(attr as usize)
            .ok_or(EdbmsError::AttrOutOfRange {
                attr,
                n_attrs: self.schema.arity(),
            })
    }

    /// The error for a tuple id with no cell.
    pub(crate) fn tuple_out_of_range(&self, t: TupleId) -> EdbmsError {
        EdbmsError::TupleOutOfRange {
            tuple: t,
            len: self.len(),
        }
    }

    /// Storage consumed by the encrypted data in bytes (used as the
    /// denominator in the paper's §8.2.6 index-overhead ratios).
    pub fn storage_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(EncryptedColumn::storage_bytes)
            .sum::<usize>()
            + self.live.len() / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn fake_cell(b: u8) -> Vec<u8> {
        vec![b; CIPHERTEXT_LEN]
    }

    #[test]
    fn push_and_access() {
        let mut t = EncryptedTable::with_capacity(Schema::new("t", &["x", "y"]), 0);
        let c0 = fake_cell(1);
        let c1 = fake_cell(2);
        let id = t.push_encrypted_row(&[&c0, &c1]).unwrap();
        assert_eq!(id, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.cell(0, 0).unwrap(), &c0[..]);
        assert_eq!(t.cell(1, 0).unwrap(), &c1[..]);
        assert!(t.cell(2, 0).is_err());
        assert!(t.cell(0, 1).is_err());
    }

    #[test]
    fn arity_checked() {
        let mut t = EncryptedTable::with_capacity(Schema::new("t", &["x", "y"]), 0);
        let c0 = fake_cell(1);
        assert!(matches!(
            t.push_encrypted_row(&[&c0]),
            Err(EdbmsError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn tombstones() {
        let mut t = EncryptedTable::with_capacity(Schema::new("t", &["x"]), 0);
        let c = fake_cell(7);
        t.push_encrypted_row(&[&c]).unwrap();
        t.push_encrypted_row(&[&c]).unwrap();
        t.delete(0).unwrap();
        assert!(!t.is_live(0));
        assert!(t.is_live(1));
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.len(), 2);
        assert!(t.delete(5).is_err());
        // The cell bytes are still addressable (tombstone, not compaction).
        assert!(t.cell(0, 0).is_ok());
    }

    #[test]
    fn column_cell_width_enforced() {
        let mut c = EncryptedColumn::default();
        c.push_cell(&fake_cell(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.storage_bytes(), CIPHERTEXT_LEN);
        let r = std::panic::catch_unwind(move || {
            let mut c2 = EncryptedColumn::default();
            c2.push_cell(&[0u8; 3]);
        });
        assert!(r.is_err());
    }
}
