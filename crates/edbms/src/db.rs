//! Multi-table catalog.
//!
//! [`Catalog`] is the service-provider-side table registry: named encrypted
//! tables behind one trusted machine. It is the storage layer a deployment
//! embeds under the PRKB engine (see the `prkb` facade crate's `SecureDb`
//! for the full client/server pairing).

use crate::encrypted::EncryptedTable;
use crate::error::EdbmsError;
use crate::schema::TupleId;
use std::collections::HashMap;

/// The service provider's table registry.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, EncryptedTable>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers an uploaded encrypted table under its schema name.
    ///
    /// # Errors
    /// Returns [`EdbmsError::TableMismatch`] if the name is already taken
    /// (re-upload requires dropping first — ids would otherwise alias).
    pub fn register(&mut self, table: EncryptedTable) -> Result<(), EdbmsError> {
        let name = table.schema().table().to_string();
        if self.tables.contains_key(&name) {
            return Err(EdbmsError::TableMismatch {
                expected: "a fresh table name".to_string(),
                actual: name,
            });
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Borrows a table.
    pub fn table(&self, name: &str) -> Option<&EncryptedTable> {
        self.tables.get(name)
    }

    /// Mutably borrows a table (insert/delete paths).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut EncryptedTable> {
        self.tables.get_mut(name)
    }

    /// Total ciphertext bytes stored across tables.
    pub fn storage_bytes(&self) -> usize {
        self.tables
            .values()
            .map(EncryptedTable::storage_bytes)
            .sum()
    }

    /// Deletes a tuple in a named table.
    ///
    /// # Errors
    /// Fails if the table is unknown or the tuple does not exist.
    pub fn delete(&mut self, name: &str, t: TupleId) -> Result<(), EdbmsError> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| EdbmsError::TableMismatch {
                expected: "a registered table".to_string(),
                actual: name.to_string(),
            })?;
        table.delete(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::DataOwner;
    use crate::schema::Schema;
    use crate::table::PlainTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn enc(name: &str, values: Vec<u64>) -> EncryptedTable {
        let owner = DataOwner::with_seed(1);
        let mut rng = StdRng::seed_from_u64(1);
        let plain =
            PlainTable::from_columns(Schema::new(name, &["x"]), vec![values]).expect("rectangular");
        owner.encrypt_table(&plain, &mut rng)
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        cat.register(enc("a", vec![1, 2])).expect("fresh name");
        cat.register(enc("b", vec![3])).expect("fresh name");
        assert!(cat.register(enc("a", vec![9])).is_err(), "duplicate name");
        assert_eq!(cat.table("a").map(EncryptedTable::len), Some(2));
        assert_eq!(cat.table("b").map(EncryptedTable::len), Some(1));
        assert!(cat.storage_bytes() > 0);
        assert!(cat.table("zzz").is_none());
    }

    #[test]
    fn delete_routes_to_table() {
        let mut cat = Catalog::new();
        cat.register(enc("a", vec![1, 2])).expect("fresh name");
        cat.delete("a", 0).expect("live tuple");
        assert!(!cat.table("a").expect("registered").is_live(0));
        assert!(cat.delete("zzz", 0).is_err());
        assert!(cat.delete("a", 99).is_err());
    }
}
