//! The trusted machine (TM).
//!
//! Models the Cipherbase-style enclave: the only party at the service
//! provider's site that holds decryption keys. Every QPF evaluation
//! (decrypt-and-compare) passes through here and is counted — the paper's
//! primary cost metric (`# QPF use`). A configurable work factor adds extra
//! keystream computations per call to emulate the enclave round-trip cost of
//! real trusted hardware.

use crate::error::EdbmsError;
use crate::predicate::ComparisonOp;
use crate::schema::AttrId;
use crate::trapdoor::{EncryptedPredicate, PredicateKind};
use parking_lot::RwLock;
use prkb_crypto::chacha20;
use prkb_crypto::cipher::BATCH_LANES;
use prkb_crypto::{KeyPurpose, MasterKey, ValueCipher};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Trusted-machine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct TmConfig {
    /// Extra ChaCha20 block computations per QPF call, emulating enclave
    /// round-trip / FPGA pipeline latency on top of the real decryption.
    /// `0` measures pure decrypt-and-compare.
    pub work_factor: u32,
}

/// A decoded (inside-TM-only) predicate.
#[derive(Debug, Clone, Copy)]
enum DecodedPred {
    Comparison { op: ComparisonOp, bound: u64 },
    Between { lo: u64, hi: u64 },
}

impl DecodedPred {
    #[inline]
    fn matches(self, value: u64) -> bool {
        match self {
            DecodedPred::Comparison { op, bound } => op.eval(value, bound),
            DecodedPred::Between { lo, hi } => lo <= value && value <= hi,
        }
    }
}

/// Most decoded trapdoors the TM keeps. PRKB retains one separator trapdoor
/// per partition boundary and probes them on every insert, so the cap sits
/// well above any knowledge base this repository builds; past it the oldest
/// entry goes and is simply decoded again on its next use.
const DECODED_CACHE_CAP: usize = 1 << 16;

/// Everything one evaluation of a trapdoor needs, found by trapdoor id.
struct CachedTrapdoor {
    /// The trapdoor this entry was decoded from. Ids restart when the data
    /// owner does, so an id alone does not name a trapdoor: the entry
    /// answers only for an equal one.
    pred: EncryptedPredicate,
    decoded: DecodedPred,
    /// Value cipher of the trapdoor's (table, attribute).
    cipher: Arc<ValueCipher>,
}

/// Decoded trapdoors by id, bounded first-in-first-out (a real enclave
/// would do the same: decode once per query, not once per tuple).
#[derive(Default)]
struct DecodedCache {
    by_id: HashMap<u64, CachedTrapdoor>,
    /// Ids in insertion order, for eviction.
    order: VecDeque<u64>,
}

impl DecodedCache {
    fn insert(&mut self, entry: CachedTrapdoor) {
        let id = entry.pred.id();
        if self.by_id.insert(id, entry).is_none() {
            self.order.push_back(id);
            if self.order.len() > DECODED_CACHE_CAP {
                if let Some(oldest) = self.order.pop_front() {
                    self.by_id.remove(&oldest);
                }
            }
        }
    }
}

/// The trusted machine. Thread-safe: all interior state is behind locks or
/// atomics so concurrent scans can share one TM.
pub struct TrustedMachine {
    master: MasterKey,
    cfg: TmConfig,
    qpf_uses: AtomicU64,
    /// Per-table value ciphers, derived lazily: table → per-attribute.
    value_ciphers: RwLock<HashMap<String, Vec<Arc<ValueCipher>>>>,
    /// Trapdoor-payload ciphers, derived lazily per (table, attr).
    trapdoor_ciphers: RwLock<HashMap<(String, AttrId), ValueCipher>>,
    decoded: RwLock<DecodedCache>,
}

impl TrustedMachine {
    /// Provisions a TM with the data owner's master key.
    pub(crate) fn new(master: MasterKey, cfg: TmConfig) -> Self {
        TrustedMachine {
            master,
            cfg,
            qpf_uses: AtomicU64::new(0),
            value_ciphers: RwLock::new(HashMap::new()),
            trapdoor_ciphers: RwLock::new(HashMap::new()),
            decoded: RwLock::new(DecodedCache::default()),
        }
    }

    /// Total QPF evaluations performed since construction (monotonic).
    /// Callers measure a span by differencing two readings.
    pub fn qpf_uses(&self) -> u64 {
        self.qpf_uses.load(Ordering::Relaxed)
    }

    /// The query processing function Θ (paper §3.1): returns whether the
    /// encrypted cell satisfies the trapdoor's hidden predicate. After a
    /// trapdoor's first use this is one read lock and one id lookup; the
    /// cell is decrypted under the lock with the cached cipher.
    ///
    /// # Errors
    /// Fails on corrupted ciphertexts or malformed trapdoors.
    pub fn qpf(&self, pred: &EncryptedPredicate, cell: &[u8]) -> Result<bool, EdbmsError> {
        self.qpf_uses.fetch_add(1, Ordering::Relaxed);
        self.emulated_work();
        self.with_trapdoor(pred, |decoded, cipher| {
            Ok(decoded.matches(cipher.decrypt_slice(cell)?))
        })?
    }

    /// Opens a batch-evaluation session for `pred`: resolves the value
    /// cipher and the decoded trapdoor once, so per-tuple evaluation runs
    /// without touching any TM lock. The session does NOT advance the
    /// QPF-use counter per call — the batch driver settles the whole batch
    /// with one `QpfSession::settle`, which keeps counts identical to
    /// per-tuple [`TrustedMachine::qpf`] while avoiding a lock round-trip
    /// per tuple.
    ///
    /// # Errors
    /// Fails on a malformed trapdoor.
    pub fn session(&self, pred: &EncryptedPredicate) -> Result<QpfSession<'_>, EdbmsError> {
        self.with_trapdoor(pred, |decoded, cipher| QpfSession {
            tm: self,
            cipher: Arc::clone(cipher),
            decoded,
        })
    }

    /// Returns (deriving and caching on first use) the value cipher for
    /// `(table, attr)`.
    fn value_cipher(&self, table: &str, attr: AttrId) -> Arc<ValueCipher> {
        {
            let ciphers = self.value_ciphers.read();
            if let Some(c) = ciphers
                .get(table)
                .and_then(|per_attr| per_attr.get(attr as usize))
            {
                return Arc::clone(c);
            }
        }
        let mut ciphers = self.value_ciphers.write();
        let per_attr = ciphers.entry(table.to_string()).or_default();
        while per_attr.len() <= attr as usize {
            let a = per_attr.len() as AttrId;
            per_attr.push(Arc::new(ValueCipher::new(self.master.derive(
                KeyPurpose::ValueEncryption,
                table,
                a,
            ))));
        }
        Arc::clone(&per_attr[attr as usize])
    }

    fn trapdoor_cipher(&self, table: &str, attr: AttrId) -> ValueCipher {
        {
            let cache = self.trapdoor_ciphers.read();
            if let Some(c) = cache.get(&(table.to_string(), attr)) {
                return c.clone();
            }
        }
        let c = ValueCipher::new(
            self.master
                .derive(KeyPurpose::TrapdoorEncryption, table, attr),
        );
        self.trapdoor_ciphers
            .write()
            .insert((table.to_string(), attr), c.clone());
        c
    }

    /// Runs `f` on `pred`'s decoded form and value cipher. A trapdoor seen
    /// before costs one read lock and one lookup by id — no table-name
    /// hashing, nothing cloned; a new one (or a new trapdoor reusing an id)
    /// is decoded and takes the id's entry.
    fn with_trapdoor<R>(
        &self,
        pred: &EncryptedPredicate,
        f: impl FnOnce(DecodedPred, &Arc<ValueCipher>) -> R,
    ) -> Result<R, EdbmsError> {
        {
            let cache = self.decoded.read();
            if let Some(e) = cache.by_id.get(&pred.id()) {
                if e.pred == *pred {
                    return Ok(f(e.decoded, &e.cipher));
                }
            }
        }
        let decoded = self.decode(pred)?;
        let cipher = self.value_cipher(pred.table(), pred.attr());
        let out = f(decoded, &cipher);
        self.decoded.write().insert(CachedTrapdoor {
            pred: pred.clone(),
            decoded,
            cipher,
        });
        Ok(out)
    }

    fn decode(&self, pred: &EncryptedPredicate) -> Result<DecodedPred, EdbmsError> {
        let cipher = self.trapdoor_cipher(pred.table(), pred.attr());
        let words: Result<Vec<u64>, _> = pred
            .payload_words()
            .map(|w| cipher.decrypt_slice(w))
            .collect();
        match (pred.kind(), words?.as_slice()) {
            (PredicateKind::Comparison, [code, bound]) => {
                let op = ComparisonOp::from_code(*code).ok_or(EdbmsError::MalformedTrapdoor)?;
                Ok(DecodedPred::Comparison { op, bound: *bound })
            }
            (PredicateKind::Between, [lo, hi]) => Ok(DecodedPred::Between { lo: *lo, hi: *hi }),
            _ => Err(EdbmsError::MalformedTrapdoor),
        }
    }

    #[inline]
    fn emulated_work(&self) {
        if self.cfg.work_factor > 0 {
            let key = [0x5au8; 32];
            let nonce = [0u8; 12];
            let mut acc = 0u8;
            for i in 0..self.cfg.work_factor {
                let block = chacha20::block(&key, i, &nonce);
                acc ^= block[0];
            }
            // Keep the work observable so the optimizer cannot elide it.
            std::hint::black_box(acc);
        }
    }
}

/// A per-(predicate, table) evaluation handle opened by
/// [`TrustedMachine::session`].
///
/// Holds the decoded trapdoor and a handle on the value cipher, so
/// evaluation is lock-free: it pays only the real per-tuple cost (emulated
/// enclave work + decrypt + compare). The batch path evaluates a chunk of
/// up to [`BATCH_LANES`] cells per keystream pass (`QpfSession::eval_pass`,
/// over [`ValueCipher::decrypt_slices`]); [`QpfSession::eval`] is the
/// one-cell form.
///
/// Evaluations through a session are not counted individually; the batch
/// driver must call `QpfSession::settle` with the number of evaluations
/// performed so the TM's QPF-use counter matches per-tuple accounting
/// exactly. `eval_pass` reports the index of a failing cell for that.
pub struct QpfSession<'a> {
    tm: &'a TrustedMachine,
    cipher: Arc<ValueCipher>,
    decoded: DecodedPred,
}

impl QpfSession<'_> {
    /// Evaluates the session's predicate against one encrypted cell.
    /// Same semantics and per-call work as [`TrustedMachine::qpf`], minus
    /// the counter bump (see `QpfSession::settle`).
    ///
    /// # Errors
    /// Fails on corrupted ciphertexts.
    #[inline]
    pub fn eval(&self, cell: &[u8]) -> Result<bool, EdbmsError> {
        self.tm.emulated_work();
        let value = self.cipher.decrypt_slice(cell)?;
        Ok(self.decoded.matches(value))
    }

    /// Evaluates the session's predicate against up to [`BATCH_LANES`]
    /// cells in one keystream pass ([`ValueCipher::decrypt_slices`]),
    /// writing one verdict per cell to `out`. Each cell costs the enclave
    /// what one [`QpfSession::eval`] does: the emulated work runs per cell.
    ///
    /// # Errors
    /// The first cell that fails to decrypt, with its index `i`: `i + 1`
    /// evaluations were performed, and nothing is written to `out`.
    ///
    /// # Panics
    /// If `cells` holds more than [`BATCH_LANES`] cells, or `out` differs
    /// from it in length.
    pub(crate) fn eval_pass(
        &self,
        cells: &[&[u8]],
        out: &mut [bool],
    ) -> Result<(), (usize, EdbmsError)> {
        assert_eq!(cells.len(), out.len(), "one verdict per cell");
        let mut plain = [0u64; BATCH_LANES];
        let plain = &mut plain[..cells.len()];
        for _ in cells {
            self.tm.emulated_work();
        }
        self.cipher
            .decrypt_slices(cells, plain)
            .map_err(|(i, e)| (i, EdbmsError::from(e)))?;
        for (o, &value) in out.iter_mut().zip(plain.iter()) {
            *o = self.decoded.matches(value);
        }
        Ok(())
    }

    /// Credits `uses` evaluations to the TM's QPF-use counter in one atomic
    /// add. Call once per batch with the exact number of evaluations
    /// performed.
    pub(crate) fn settle(&self, uses: u64) {
        self.tm.qpf_uses.fetch_add(uses, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for TrustedMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedMachine")
            .field("qpf_uses", &self.qpf_uses())
            .field("work_factor", &self.cfg.work_factor)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::DataOwner;
    use crate::predicate::Predicate;
    use crate::table::PlainTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn qpf_counts_every_use() {
        let mut rng = StdRng::seed_from_u64(1);
        let owner = DataOwner::with_seed(1);
        let plain = PlainTable::single_column("t", "x", vec![5, 10, 15]);
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 12), &mut rng)
            .unwrap();
        assert_eq!(tm.qpf_uses(), 0);
        assert!(tm.qpf(&p, enc.cell(0, 0).unwrap()).unwrap());
        assert!(tm.qpf(&p, enc.cell(0, 1).unwrap()).unwrap());
        assert!(!tm.qpf(&p, enc.cell(0, 2).unwrap()).unwrap());
        assert_eq!(tm.qpf_uses(), 3);
    }

    #[test]
    fn between_trapdoor() {
        let mut rng = StdRng::seed_from_u64(2);
        let owner = DataOwner::with_seed(2);
        let plain = PlainTable::single_column("t", "x", vec![1, 5, 9]);
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let p = owner
            .trapdoor("t", &Predicate::between(0, 4, 8), &mut rng)
            .unwrap();
        assert!(!tm.qpf(&p, enc.cell(0, 0).unwrap()).unwrap());
        assert!(tm.qpf(&p, enc.cell(0, 1).unwrap()).unwrap());
        assert!(!tm.qpf(&p, enc.cell(0, 2).unwrap()).unwrap());
    }

    #[test]
    fn work_factor_is_exercised() {
        let mut rng = StdRng::seed_from_u64(3);
        let owner = DataOwner::with_seed(3);
        let plain = PlainTable::single_column("t", "x", vec![5]);
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig { work_factor: 8 });
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Gt, 1), &mut rng)
            .unwrap();
        assert!(tm.qpf(&p, enc.cell(0, 0).unwrap()).unwrap());
    }

    #[test]
    fn wrong_table_key_fails_decrypt() {
        let mut rng = StdRng::seed_from_u64(4);
        let owner = DataOwner::with_seed(4);
        let plain = PlainTable::single_column("t", "x", vec![5]);
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        // Trapdoor issued for a different table: its value key derivation
        // differs, so decrypting t's cell must fail the integrity check.
        let p = owner
            .trapdoor("other", &Predicate::cmp(0, ComparisonOp::Gt, 1), &mut rng)
            .unwrap();
        assert!(tm.qpf(&p, enc.cell(0, 0).unwrap()).is_err());
    }

    #[test]
    fn session_agrees_with_qpf_and_settles_in_one_add() {
        let mut rng = StdRng::seed_from_u64(6);
        let owner = DataOwner::with_seed(6);
        let plain = PlainTable::single_column("t", "x", (0..50).collect());
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let p = owner
            .trapdoor("t", &Predicate::between(0, 10, 30), &mut rng)
            .unwrap();
        let session = tm.session(&p).unwrap();
        assert_eq!(tm.qpf_uses(), 0, "opening a session is not a QPF use");
        let mut n = 0u64;
        for t in 0..50 {
            let cell = enc.cell(0, t).unwrap();
            let via_session = session.eval(cell).unwrap();
            n += 1;
            assert_eq!(
                via_session,
                (10..=30).contains(&plain.column(0).unwrap()[t as usize])
            );
        }
        assert_eq!(tm.qpf_uses(), 0, "session evals are settled, not streamed");
        session.settle(n);
        assert_eq!(tm.qpf_uses(), 50);
        // And the per-tuple path still counts as before.
        assert!(tm.qpf(&p, enc.cell(0, 15).unwrap()).unwrap());
        assert_eq!(tm.qpf_uses(), 51);
    }

    #[test]
    fn restarted_owner_reusing_an_id_is_not_answered_from_the_old_trapdoor() {
        // A restarted owner holds the same key but numbers its trapdoors
        // from 0 again: same id, different predicate.
        let mut rng = StdRng::seed_from_u64(9);
        let first = DataOwner::with_seed(9);
        let plain = PlainTable::single_column("t", "x", vec![5]);
        let enc = first.encrypt_table(&plain, &mut rng);
        let tm = first.trusted_machine(TmConfig::default());
        let cell = enc.cell(0, 0).unwrap();
        let lt = first
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 7), &mut rng)
            .unwrap();
        assert!(tm.qpf(&lt, cell).unwrap(), "5 < 7");

        let restarted = DataOwner::with_seed(9);
        let gt = restarted
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Gt, 7), &mut rng)
            .unwrap();
        assert_eq!(gt.id(), lt.id(), "the restarted owner reuses the id");
        assert!(!tm.qpf(&gt, cell).unwrap(), "5 > 7 must be false");
        assert!(!tm.session(&gt).unwrap().eval(cell).unwrap());
        // The first trapdoor may live on as a PRKB separator: still right.
        assert!(tm.qpf(&lt, cell).unwrap());
        assert!(tm.session(&lt).unwrap().eval(cell).unwrap());
    }

    #[test]
    fn decoded_cache_is_capped_and_evicted_trapdoors_still_evaluate() {
        let mut rng = StdRng::seed_from_u64(11);
        let owner = DataOwner::with_seed(11);
        let plain = PlainTable::single_column("t", "x", vec![5]);
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let cell = enc.cell(0, 0).unwrap();
        let first = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 7), &mut rng)
            .unwrap();
        assert!(tm.qpf(&first, cell).unwrap());
        for bound in 0..DECODED_CACHE_CAP as u64 + 9 {
            let p = owner
                .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Gt, bound), &mut rng)
                .unwrap();
            assert_eq!(tm.qpf(&p, cell).unwrap(), 5 > bound);
        }
        let cache = tm.decoded.read();
        assert_eq!(cache.by_id.len(), DECODED_CACHE_CAP);
        assert_eq!(cache.order.len(), DECODED_CACHE_CAP);
        assert!(!cache.by_id.contains_key(&first.id()), "oldest goes first");
        drop(cache);
        assert!(tm.qpf(&first, cell).unwrap(), "decoded again on next use");
    }
}
