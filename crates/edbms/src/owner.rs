//! The data owner (DO).
//!
//! Holds the master key, encrypts tables before upload, issues trapdoors for
//! queries, and provisions the trusted machine. Per the paper, the data
//! owner is **never** involved in building or using PRKB — this type's API
//! surface is exactly the owner's role in a PRKB-less EDBMS.

use crate::encrypted::EncryptedTable;
use crate::error::EdbmsError;
use crate::predicate::Predicate;
use crate::schema::AttrId;
use crate::table::PlainTable;
use crate::trapdoor::{EncryptedPredicate, PredicateKind};
use crate::trusted::{TmConfig, TrustedMachine};
use prkb_crypto::{KeyPurpose, MasterKey, ValueCipher};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Ciphers derived so far: table → (purpose, attribute) → cipher.
type CipherCache = HashMap<String, HashMap<(KeyPurpose, AttrId), Arc<ValueCipher>>>;

/// The data owner: key custody, encryption, trapdoor generation.
pub struct DataOwner {
    master: MasterKey,
    next_trapdoor_id: AtomicU64,
    /// A derivation is an HKDF and two PRF evaluations, so each cipher is
    /// derived once, as the trusted machine does.
    ciphers: RwLock<CipherCache>,
}

impl DataOwner {
    /// Creates an owner with an explicit master key.
    pub(crate) fn new(master: MasterKey) -> Self {
        DataOwner {
            master,
            next_trapdoor_id: AtomicU64::new(0),
            ciphers: RwLock::default(),
        }
    }

    /// Creates an owner with a master key derived from `seed`
    /// (reproducible experiments).
    pub fn with_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::new(MasterKey::generate(&mut rng))
    }

    /// Encrypts a plaintext table for upload to the service provider.
    pub fn encrypt_table<R: RngCore>(&self, plain: &PlainTable, rng: &mut R) -> EncryptedTable {
        let schema = plain.schema().clone();
        let n = plain.len();
        let mut enc = EncryptedTable::with_capacity(schema.clone(), n);
        enc.bulk_load(|columns| {
            for (attr, col) in columns.iter_mut().enumerate() {
                let cipher = self.value_cipher(schema.table(), attr as AttrId);
                // Infallible by construction: `columns` is sized from the
                // same schema `plain` carries, so every index resolves.
                let values = plain
                    .column(attr as AttrId)
                    .expect("column count matches schema");
                let buf = col.raw_mut();
                for &v in values {
                    cipher.encrypt_into(rng, v, buf);
                }
            }
            n
        });
        enc
    }

    /// Encrypts a single row (for INSERT statements). Returns one
    /// fixed-width ciphertext cell per attribute, in schema order.
    pub fn encrypt_row<R: RngCore>(&self, table: &str, row: &[u64], rng: &mut R) -> Vec<Vec<u8>> {
        row.iter()
            .enumerate()
            .map(|(attr, &v)| {
                let cipher = self.value_cipher(table, attr as AttrId);
                let mut buf = Vec::new();
                cipher.encrypt_into(rng, v, &mut buf);
                buf
            })
            .collect()
    }

    /// Issues a trapdoor for `pred` against `table`.
    ///
    /// # Errors
    /// Returns [`EdbmsError::EmptyRange`] for a BETWEEN with `lo > hi`.
    pub fn trapdoor<R: RngCore>(
        &self,
        table: &str,
        pred: &Predicate,
        rng: &mut R,
    ) -> Result<EncryptedPredicate, EdbmsError> {
        let attr = pred.attr();
        let cipher = self.trapdoor_cipher(table, attr);
        let (kind, words) = match *pred {
            Predicate::Comparison { op, bound, .. } => {
                (PredicateKind::Comparison, [op.code(), bound])
            }
            Predicate::Between { lo, hi, .. } => {
                if lo > hi {
                    return Err(EdbmsError::EmptyRange { lo, hi });
                }
                (PredicateKind::Between, [lo, hi])
            }
        };
        let mut payload = Vec::new();
        for w in words {
            cipher.encrypt_into(rng, w, &mut payload);
        }
        let id = self.next_trapdoor_id.fetch_add(1, Ordering::Relaxed);
        Ok(EncryptedPredicate::assemble(
            id,
            table.to_string(),
            attr,
            kind,
            payload,
        ))
    }

    /// Provisions a trusted machine sharing this owner's keys (the paper's
    /// deployment: DO installs its key in the enclave at SP's site).
    pub fn trusted_machine(&self, cfg: TmConfig) -> TrustedMachine {
        TrustedMachine::new(self.master.clone(), cfg)
    }

    /// Derives the searchable-encryption key pair for (`table`, `attr`) —
    /// consumed by index structures (e.g. Logarithmic-SRC-i) that the
    /// trusted machine builds on the owner's behalf.
    pub fn search_keys(&self, table: &str, attr: AttrId) -> ([u8; 32], [u8; 32]) {
        (
            *self
                .master
                .derive(KeyPurpose::SearchToken, table, attr)
                .as_bytes(),
            *self
                .master
                .derive(KeyPurpose::SearchPayload, table, attr)
                .as_bytes(),
        )
    }

    fn value_cipher(&self, table: &str, attr: AttrId) -> Arc<ValueCipher> {
        self.cipher(KeyPurpose::ValueEncryption, table, attr)
    }

    fn trapdoor_cipher(&self, table: &str, attr: AttrId) -> Arc<ValueCipher> {
        self.cipher(KeyPurpose::TrapdoorEncryption, table, attr)
    }

    /// The cipher for (`purpose`, `table`, `attr`), derived on first use.
    fn cipher(&self, purpose: KeyPurpose, table: &str, attr: AttrId) -> Arc<ValueCipher> {
        // A panic elsewhere cannot leave the map half-updated: an entry is
        // inserted whole or not at all.
        let cached = self.ciphers.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(cipher) = cached.get(table).and_then(|t| t.get(&(purpose, attr))) {
            return Arc::clone(cipher);
        }
        drop(cached);
        let derived = ValueCipher::new(self.master.derive(purpose, table, attr));
        let mut cache = self.ciphers.write().unwrap_or_else(PoisonError::into_inner);
        let entry = cache
            .entry(table.to_string())
            .or_default()
            .entry((purpose, attr));
        Arc::clone(entry.or_insert_with(|| Arc::new(derived)))
    }
}

impl std::fmt::Debug for DataOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataOwner").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::ComparisonOp;
    use crate::schema::Schema;

    /// Whether `cell` (attribute `attr` of table `t`) encrypts `value`: the
    /// TM's verdict on a point trapdoor.
    fn holds(owner: &DataOwner, attr: AttrId, cell: &[u8], value: u64) -> bool {
        let mut rng = StdRng::seed_from_u64(value);
        let point = owner
            .trapdoor("t", &Predicate::between(attr, value, value), &mut rng)
            .unwrap();
        owner
            .trusted_machine(TmConfig::default())
            .qpf(&point, cell)
            .unwrap()
    }

    #[test]
    fn encrypt_table_roundtrips_through_tm() {
        let owner = DataOwner::with_seed(42);
        let mut rng = StdRng::seed_from_u64(0);
        let schema = Schema::new("t", &["x", "y"]);
        let plain = PlainTable::from_columns(schema, vec![vec![10, 20], vec![100, 200]]).unwrap();
        let enc = owner.encrypt_table(&plain, &mut rng);
        assert_eq!(enc.len(), 2);
        assert!(holds(&owner, 0, enc.cell(0, 0).unwrap(), 10));
        assert!(holds(&owner, 1, enc.cell(1, 1).unwrap(), 200));
        assert!(!holds(&owner, 1, enc.cell(1, 0).unwrap(), 200));
    }

    #[test]
    fn encrypt_row_matches_table_encryption_keys() {
        let owner = DataOwner::with_seed(43);
        let mut rng = StdRng::seed_from_u64(0);
        let cells = owner.encrypt_row("t", &[7, 8], &mut rng);
        assert!(holds(&owner, 0, &cells[0], 7));
        assert!(holds(&owner, 1, &cells[1], 8));
    }

    #[test]
    fn trapdoor_ids_are_unique() {
        let owner = DataOwner::with_seed(44);
        let mut rng = StdRng::seed_from_u64(0);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 5);
        let t1 = owner.trapdoor("t", &p, &mut rng).unwrap();
        let t2 = owner.trapdoor("t", &p, &mut rng).unwrap();
        assert_ne!(t1.id(), t2.id());
        // Randomized payload: identical predicates are unlinkable.
        assert_ne!(t1, t2);
    }

    #[test]
    fn a_warm_cipher_cache_changes_no_byte() {
        let pred = Predicate::between(1, 3, 9);
        let sealed = |owner: &DataOwner| {
            let mut rng = StdRng::seed_from_u64(1);
            let row = owner.encrypt_row("t", &[5, 6], &mut rng);
            let trapdoor = owner.trapdoor("t", &pred, &mut rng).unwrap();
            let words: Vec<Vec<u8>> = trapdoor.payload_words().map(<[u8]>::to_vec).collect();
            (row, words)
        };
        let warm = DataOwner::with_seed(47);
        let mut rng = StdRng::seed_from_u64(99);
        warm.encrypt_row("t", &[1, 2], &mut rng);
        warm.trapdoor("t", &pred, &mut rng).unwrap();
        let cold = DataOwner::with_seed(47);
        assert_eq!(sealed(&cold), sealed(&warm));
    }

    #[test]
    fn empty_between_rejected() {
        let owner = DataOwner::with_seed(45);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            owner.trapdoor("t", &Predicate::between(0, 9, 3), &mut rng),
            Err(EdbmsError::EmptyRange { .. })
        ));
    }
}
