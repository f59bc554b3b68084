//! Error type for the EDBMS substrate.

use prkb_crypto::CryptoError;
use std::fmt;

/// Errors raised by the EDBMS substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdbmsError {
    /// Underlying cryptographic failure (corrupted ciphertext, wrong key).
    Crypto(CryptoError),
    /// A tuple id referred to a row that does not exist.
    TupleOutOfRange {
        /// Offending tuple id.
        tuple: u32,
        /// Current table size.
        len: usize,
    },
    /// An attribute id referred to a column that does not exist.
    AttrOutOfRange {
        /// Offending attribute id.
        attr: u32,
        /// Number of attributes in the schema.
        n_attrs: usize,
    },
    /// A row with the wrong number of attribute values was inserted.
    ArityMismatch {
        /// Schema arity.
        expected: usize,
        /// Row arity.
        actual: usize,
    },
    /// A malformed trapdoor payload was decoded inside the trusted machine.
    MalformedTrapdoor,
    /// A BETWEEN trapdoor with `lo > hi` (empty range) was requested.
    EmptyRange {
        /// Lower bound supplied.
        lo: u64,
        /// Upper bound supplied.
        hi: u64,
    },
}

impl fmt::Display for EdbmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdbmsError::Crypto(e) => write!(f, "crypto error: {e}"),
            EdbmsError::TupleOutOfRange { tuple, len } => {
                write!(f, "tuple id {tuple} out of range (table has {len} rows)")
            }
            EdbmsError::AttrOutOfRange { attr, n_attrs } => {
                write!(f, "attribute id {attr} out of range (schema has {n_attrs})")
            }
            EdbmsError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row arity {actual} does not match schema arity {expected}"
                )
            }
            EdbmsError::MalformedTrapdoor => write!(f, "malformed trapdoor payload"),
            EdbmsError::EmptyRange { lo, hi } => {
                write!(f, "empty BETWEEN range: lo {lo} > hi {hi}")
            }
        }
    }
}

impl std::error::Error for EdbmsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdbmsError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for EdbmsError {
    fn from(e: CryptoError) -> Self {
        EdbmsError::Crypto(e)
    }
}
