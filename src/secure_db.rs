//! `SecureDb` — the whole system in one handle.
//!
//! Wires together every layer of the reproduction the way a deployment
//! would: the data owner's keys, the trusted machine, and one map from
//! table name to the service provider's encrypted table and the PRKB engine
//! over it — behind a SQL-string query API. The owner and provider run in
//! one process here (this is a research reproduction), but the information
//! flow respects the paper's model: plaintext and keys never cross into the
//! table/engine side except through trapdoors and the TM.
//!
//! ```
//! use prkb::SecureDb;
//! use prkb::edbms::PlainTable;
//!
//! let mut db = SecureDb::with_seed(7);
//! db.create_table(PlainTable::single_column("t", "x", (0..1000).collect()))?;
//! let sel = db.query("SELECT * FROM t WHERE x BETWEEN 100 AND 199")?;
//! assert_eq!(sel.tuples.len(), 100);
//! # Ok::<(), prkb::DbError>(())
//! ```

use prkb_core::{EngineConfig, PrkbEngine, QueryError, Selection};
use prkb_edbms::{
    parse_sql, DataOwner, EdbmsError, EncryptedPredicate, EncryptedTable, PlainTable, SpOracle,
    SqlError, TmConfig, TrustedMachine, TupleId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Errors surfaced by [`SecureDb`].
#[derive(Debug)]
pub enum DbError {
    /// SQL parsing / binding failed.
    Sql(SqlError),
    /// Storage / crypto / arity failure in the EDBMS substrate.
    Edbms(EdbmsError),
    /// The oracle failed mid-query (corrupt cell, lost response). The
    /// knowledge base is untouched — the query can simply be reissued.
    Query(QueryError),
    /// The query referenced a table the database does not have.
    UnknownTable(String),
    /// [`SecureDb::create_table`] was given a name already in use
    /// (re-upload would alias tuple ids).
    DuplicateTable(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Sql(e) => write!(f, "{e}"),
            DbError::Edbms(e) => write!(f, "{e}"),
            DbError::Query(e) => write!(f, "{e}"),
            DbError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            DbError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<SqlError> for DbError {
    fn from(e: SqlError) -> Self {
        match e {
            SqlError::UnknownTable(t) => DbError::UnknownTable(t),
            e => DbError::Sql(e),
        }
    }
}

impl From<EdbmsError> for DbError {
    fn from(e: EdbmsError) -> Self {
        DbError::Edbms(e)
    }
}

impl From<QueryError> for DbError {
    fn from(e: QueryError) -> Self {
        DbError::Query(e)
    }
}

/// One table: the provider's ciphertexts and the PRKB over them.
struct Table {
    data: EncryptedTable,
    engine: PrkbEngine<EncryptedPredicate>,
}

/// An encrypted database with PRKB-accelerated selections.
pub struct SecureDb {
    owner: DataOwner,
    tm: TrustedMachine,
    tables: HashMap<String, Table>,
    rng: StdRng,
}

/// The table named `name`.
fn table<'a>(tables: &'a mut HashMap<String, Table>, name: &str) -> Result<&'a mut Table, DbError> {
    tables
        .get_mut(name)
        .ok_or_else(|| DbError::UnknownTable(name.to_string()))
}

impl SecureDb {
    /// Creates a database with a seeded key hierarchy and RNG
    /// (reproducible runs; use distinct seeds per deployment).
    pub fn with_seed(seed: u64) -> Self {
        let owner = DataOwner::with_seed(seed);
        let tm = owner.trusted_machine(TmConfig::default());
        SecureDb {
            owner,
            tm,
            tables: HashMap::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed),
        }
    }

    /// Encrypts and uploads a plaintext table, initializing a PRKB engine
    /// over every attribute.
    ///
    /// # Errors
    /// [`DbError::DuplicateTable`] if the name is already registered.
    pub fn create_table(&mut self, plain: PlainTable) -> Result<(), DbError> {
        let slot = match self.tables.entry(plain.schema().table().to_string()) {
            Entry::Occupied(e) => return Err(DbError::DuplicateTable(e.key().clone())),
            Entry::Vacant(slot) => slot,
        };
        let data = self.owner.encrypt_table(&plain, &mut self.rng);
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for (attr, _) in data.schema().attrs() {
            engine.init_attr(attr, data.len());
        }
        slot.insert(Table { data, engine });
        Ok(())
    }

    /// Executes a SQL selection (`SELECT * FROM t [WHERE …]`), returning the
    /// matching tuple ids plus QPF-cost accounting.
    ///
    /// # Errors
    /// Fails on parse errors, unknown tables, or oracle failures
    /// (surfaced as [`DbError::Query`] — never a panic; the knowledge base
    /// is left exactly as it was, so the query can be retried).
    pub fn query(&mut self, sql: &str) -> Result<Selection, DbError> {
        let parsed = parse_sql(sql, self.tables.values().map(|t| t.data.schema()))?;
        let trapdoors: Vec<EncryptedPredicate> = parsed
            .predicates
            .iter()
            .map(|p| self.owner.trapdoor(&parsed.table, p, &mut self.rng))
            .collect::<Result<_, _>>()?;
        let Table { data, engine } = table(&mut self.tables, &parsed.table)?;
        let oracle = SpOracle::new(data, &self.tm);
        Ok(engine.try_select_where(&oracle, &trapdoors, &mut self.rng)?)
    }

    /// Inserts a plaintext row: encrypted at the owner, appended at the
    /// provider, routed into every attribute's PRKB (O(β lg k) QPF).
    ///
    /// # Errors
    /// Fails on unknown table, arity mismatch, or an oracle failure while
    /// routing the row into the index ([`DbError::Query`]); an aborted
    /// routing leaves the knowledge base untouched, though the row itself
    /// stays appended to the encrypted table.
    pub fn insert(&mut self, name: &str, row: &[u64]) -> Result<TupleId, DbError> {
        let Table { data, engine } = table(&mut self.tables, name)?;
        let cells = self.owner.encrypt_row(name, row, &mut self.rng);
        let refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
        let t = data.push_encrypted_row(&refs)?;
        engine.try_insert(&SpOracle::new(data, &self.tm), t)?;
        Ok(t)
    }

    /// Deletes a tuple from a table and its indexes.
    ///
    /// # Errors
    /// Fails on unknown table or tuple.
    pub fn delete(&mut self, name: &str, t: TupleId) -> Result<(), DbError> {
        let Table { data, engine } = table(&mut self.tables, name)?;
        data.delete(t)?;
        engine.delete(t);
        Ok(())
    }

    /// Total QPF uses spent so far (the paper's primary cost metric).
    pub fn qpf_uses(&self) -> u64 {
        self.tm.qpf_uses()
    }

    /// Index storage across tables (PRKB bytes).
    pub fn index_storage_bytes(&self) -> usize {
        self.tables.values().map(|t| t.engine.storage_bytes()).sum()
    }

    /// Ciphertext storage across tables.
    pub fn data_storage_bytes(&self) -> usize {
        self.tables.values().map(|t| t.data.storage_bytes()).sum()
    }

    /// The PRKB engine for a table (introspection: partition counts, etc.).
    pub fn engine(&self, table: &str) -> Option<&PrkbEngine<EncryptedPredicate>> {
        self.tables.get(table).map(|t| &t.engine)
    }
}

impl fmt::Debug for SecureDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureDb")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .field("qpf_uses", &self.qpf_uses())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::Schema;

    fn db_with_sales() -> SecureDb {
        let mut db = SecureDb::with_seed(3);
        let amounts: Vec<u64> = (0..2000).map(|i| (i * 37) % 10_000).collect();
        let days: Vec<u64> = (0..2000).map(|i| (i * 13) % 365 + 1).collect();
        let plain = PlainTable::from_columns(
            Schema::new("sales", &["amount", "day"]),
            vec![amounts, days],
        )
        .expect("rectangular");
        db.create_table(plain).expect("fresh table");
        db
    }

    #[test]
    fn sql_roundtrip() {
        let mut db = db_with_sales();
        let sel = db
            .query("SELECT * FROM sales WHERE amount < 5000")
            .expect("valid");
        assert!(!sel.tuples.is_empty());
        let again = db
            .query("SELECT * FROM sales WHERE amount < 5000")
            .expect("valid");
        assert_eq!(sel.sorted(), again.sorted());
        // Warm the index with a spread of cuts, then re-ask: the repeated
        // query must be far cheaper than the cold one.
        for bound in (500..10_000).step_by(500) {
            db.query(&format!("SELECT * FROM sales WHERE amount < {bound}"))
                .expect("valid");
        }
        let warmed = db
            .query("SELECT * FROM sales WHERE amount < 5000")
            .expect("valid");
        assert_eq!(sel.sorted(), warmed.sorted());
        assert!(
            warmed.stats.qpf_uses < sel.stats.qpf_uses / 4,
            "cold {} vs warmed {}",
            sel.stats.qpf_uses,
            warmed.stats.qpf_uses
        );
    }

    #[test]
    fn multi_dim_sql() {
        let mut db = db_with_sales();
        let sel = db
            .query("SELECT * FROM sales WHERE 100 < amount AND amount < 5000 AND day BETWEEN 50 AND 200")
            .expect("valid");
        let full = db.query("SELECT * FROM sales").expect("valid");
        assert!(sel.tuples.len() < full.tuples.len());
    }

    #[test]
    fn insert_delete_query() {
        let mut db = db_with_sales();
        let t = db.insert("sales", &[123_456, 77]).expect("arity ok");
        let sel = db
            .query("SELECT * FROM sales WHERE amount > 100000")
            .expect("valid");
        assert_eq!(sel.sorted(), vec![t]);
        db.delete("sales", t).expect("live tuple");
        let sel = db
            .query("SELECT * FROM sales WHERE amount > 100000")
            .expect("valid");
        assert!(sel.tuples.is_empty());
    }

    #[test]
    fn errors_surface() {
        let mut db = db_with_sales();
        assert!(matches!(
            db.query("SELECT * FROM nope WHERE x < 1"),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            db.query("SELECT * FROM sales WHERE ghost < 1"),
            Err(DbError::Sql(_))
        ));
        assert!(db.insert("sales", &[1]).is_err(), "arity mismatch");
        assert!(db.delete("sales", 999_999).is_err());
        // Duplicate table name.
        let plain = PlainTable::single_column("sales", "x", vec![1]);
        assert!(db.create_table(plain).is_err());
    }

    #[test]
    fn from_needs_no_space_around_the_star() {
        let mut db = db_with_sales();
        let spaced = db
            .query("SELECT * FROM sales WHERE amount < 50")
            .expect("valid")
            .sorted();
        assert!(!spaced.is_empty());
        for sql in [
            "SELECT *FROM sales WHERE amount < 50",
            "SELECT*FROM sales WHERE amount < 50",
        ] {
            assert_eq!(db.query(sql).expect(sql).sorted(), spaced, "{sql}");
        }
    }

    #[test]
    fn tables_register_and_look_up() {
        let mut db = SecureDb::with_seed(1);
        db.create_table(PlainTable::single_column("a", "x", vec![1, 2]))
            .expect("fresh name");
        db.create_table(PlainTable::single_column("b", "y", vec![3]))
            .expect("fresh name");
        assert!(matches!(
            db.create_table(PlainTable::single_column("a", "x", vec![9])),
            Err(DbError::DuplicateTable(t)) if t == "a"
        ));
        assert_eq!(db.query("SELECT * FROM a").expect("a").sorted(), [0, 1]);
        assert_eq!(
            db.query("SELECT * FROM b WHERE y > 2").expect("b").sorted(),
            [0]
        );
        assert!(matches!(
            db.query("SELECT * FROM a WHERE y > 2"),
            Err(DbError::Sql(SqlError::UnknownAttribute(_)))
        ));
        assert!(db.engine("b").is_some() && db.engine("zzz").is_none());
        assert!(db.data_storage_bytes() > 0);
    }

    #[test]
    fn delete_routes_to_table() {
        let mut db = SecureDb::with_seed(1);
        db.create_table(PlainTable::single_column("a", "x", vec![1, 2]))
            .expect("fresh name");
        db.delete("a", 0).expect("live tuple");
        assert_eq!(db.query("SELECT * FROM a").expect("a").sorted(), [1]);
        assert!(matches!(
            db.delete("zzz", 0),
            Err(DbError::UnknownTable(t)) if t == "zzz"
        ));
        assert!(matches!(
            db.delete("a", 99),
            Err(DbError::Edbms(EdbmsError::TupleOutOfRange {
                tuple: 99,
                ..
            }))
        ));
    }

    #[test]
    fn accounting_accessors() {
        let mut db = db_with_sales();
        assert_eq!(db.qpf_uses(), 0);
        db.query("SELECT * FROM sales WHERE amount < 100")
            .expect("valid");
        assert!(db.qpf_uses() > 0);
        assert!(db.index_storage_bytes() > 0);
        assert!(db.data_storage_bytes() > 0);
        assert!(db.engine("sales").is_some());
        let dbg = format!("{db:?}");
        assert!(dbg.contains("sales"));
    }
}
