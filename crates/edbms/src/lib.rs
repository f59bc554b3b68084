//! # prkb-edbms
//!
//! The encrypted-DBMS substrate the paper's method runs on, following the
//! paper's §3.1 model:
//!
//! * A **data owner** ([`owner::DataOwner`]) holds the keys, encrypts tables
//!   attribute-cell by attribute-cell, and turns plaintext predicates into
//!   **trapdoors** ([`trapdoor::EncryptedPredicate`]).
//! * A **service provider** stores the [`encrypted::EncryptedTable`] and
//!   executes selections. It can only learn whether a tuple satisfies a
//!   predicate by calling the **query processing function** (QPF).
//! * A **trusted machine** ([`trusted::TrustedMachine`]) — the Cipherbase-style
//!   enclave — holds the decryption keys and evaluates the QPF
//!   (decrypt-and-compare), counting every use. The QPF-use counter is the
//!   paper's primary cost metric.
//!
//! The [`oracle::SelectionOracle`] trait is the interface the PRKB engine
//! consumes: "evaluate trapdoor `p` on tuple `t`" plus cost introspection.
//! [`oracle::SpOracle`] is the real encrypted pipeline;
//! [`testing::PlainOracle`] is a plaintext stand-in with identical counting
//! semantics for fast large-scale logic tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod db;
pub mod durability;
pub(crate) mod encrypted;
pub(crate) mod error;
pub(crate) mod oracle;
pub(crate) mod owner;
pub(crate) mod predicate;
pub mod resilience;
pub(crate) mod schema;
pub mod select;
pub(crate) mod sql;
pub mod storage;
pub(crate) mod table;
pub mod testing;
pub mod trapdoor;
pub(crate) mod trusted;

pub use db::Catalog;
pub use durability::{CrashInjector, CrashPoint, DurabilityError, TailStatus, Wal};
pub use encrypted::EncryptedTable;
pub use error::EdbmsError;
pub use oracle::{OracleError, SelectionOracle, SpOracle};
pub use owner::DataOwner;
pub use predicate::{ComparisonOp, Predicate};
pub use schema::{AttrId, Schema, TupleId};
pub use select::{conjunctive_scan, linear_scan};
pub use sql::{parse as parse_sql, ParsedQuery, SqlError};
pub use storage::{real_fs, RealFs, StorageFile, StorageFs};
pub use table::PlainTable;
pub use trapdoor::{EncryptedPredicate, PredicateKind};
pub use trusted::{QpfSession, TmConfig, TrustedMachine};
