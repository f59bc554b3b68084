//! The selection oracle — the interface between the PRKB engine and the
//! underlying EDBMS.
//!
//! PRKB (the service provider's reasoning layer) never touches plaintext or
//! ciphertext: all it can do is ask "does tuple `t` satisfy trapdoor `p`?"
//! and observe the answer. That is exactly [`SelectionOracle::try_eval`].
//! The QPF-use counter exposed alongside is the paper's primary cost metric.
//!
//! In the paper's deployment model the QPF is served by a trusted machine
//! that is physically separate from the service provider, so the boundary is
//! a network/enclave hop that can fail. The oracle API is therefore
//! *fallible*: `try_eval`/`try_eval_batch` return [`OracleError`], classified
//! so callers can tell a retryable blip from storage corruption. The
//! infallible [`SelectionOracle::eval`]/[`SelectionOracle::eval_batch`]
//! wrappers remain for code that treats a boundary failure as a programming
//! error (benchmarks, tests).

use crate::encrypted::EncryptedTable;
use crate::error::EdbmsError;
use crate::schema::TupleId;
use crate::trapdoor::{EncryptedPredicate, PredicateKind};
use crate::trusted::{QpfSession, TrustedMachine};
use prkb_crypto::cipher::BATCH_LANES;
use std::fmt;

/// Failure classes of the SP↔TM boundary.
///
/// The taxonomy mirrors what a real enclave/network hop produces: faults
/// where the request never reached the trusted machine
/// ([`OracleError::Transient`] — retryable, no QPF spent), faults where the
/// TM did the work but the response was lost ([`OracleError::Timeout`] —
/// retryable, the QPF use *was* spent), integrity failures
/// ([`OracleError::Corruption`] — not retryable, the data itself is bad),
/// and non-recoverable protocol errors ([`OracleError::Fatal`]). Any of them
/// aborts its query; "retryable" means the client may re-issue the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The request never reached the trusted machine (lost message, enclave
    /// momentarily unreachable). Retryable; no QPF use was spent.
    Transient(String),
    /// The trusted machine accepted the request but no response was observed
    /// in time. Retryable; the QPF use was spent (the decrypt round-trip
    /// happened — retries are real paper-cost).
    Timeout(String),
    /// A stored ciphertext or a response failed its integrity check.
    /// Not retryable: the same bytes will fail again.
    Corruption(String),
    /// A non-recoverable protocol error (tuple/attribute out of range,
    /// trapdoor for the wrong table, malformed batch).
    Fatal(String),
    /// The caller's deadline budget expired before (or between) evaluation
    /// batches. Not retryable on the same budget: the deadline belongs to
    /// the request, and re-running the same doomed work cannot meet it.
    /// Raised by deadline-propagating wrappers (e.g. the server's
    /// per-request budget), never by the trusted machine itself.
    DeadlineExceeded,
}

impl OracleError {
    /// Stable numeric code for the `prkb-wire/v2` protocol. Part of the
    /// wire contract: codes are never reused, only appended. 4 (a retired
    /// circuit-breaker class) stays unassigned.
    pub fn wire_code(&self) -> u16 {
        match self {
            OracleError::Transient(_) => 1,
            OracleError::Timeout(_) => 2,
            OracleError::Corruption(_) => 3,
            OracleError::Fatal(_) => 5,
            OracleError::DeadlineExceeded => 6,
        }
    }
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Transient(what) => write!(f, "transient oracle failure: {what}"),
            OracleError::Timeout(what) => write!(f, "oracle timeout: {what}"),
            OracleError::Corruption(what) => write!(f, "oracle corruption: {what}"),
            OracleError::Fatal(what) => write!(f, "fatal oracle error: {what}"),
            OracleError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<EdbmsError> for OracleError {
    fn from(e: EdbmsError) -> Self {
        match e {
            // Bad cell bytes or a garbled trapdoor payload: the stored data
            // (or the response stream) is corrupt — retrying cannot help.
            EdbmsError::Crypto(_) | EdbmsError::MalformedTrapdoor => {
                OracleError::Corruption(e.to_string())
            }
            other => OracleError::Fatal(other.to_string()),
        }
    }
}

/// The Θ oracle of the paper's QPF model, plus the bookkeeping the
/// service provider legitimately has (table size, liveness, cost counter).
pub trait SelectionOracle {
    /// The encrypted-predicate (trapdoor) type.
    type Pred: Clone;

    /// Evaluates Θ(`pred`, tuple `t`). Every evaluation that reaches the
    /// trusted machine costs one QPF use — including failed ones, because
    /// the decrypt round-trip is spent either way.
    ///
    /// # Errors
    /// Returns an [`OracleError`] classifying the boundary failure.
    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError>;

    /// Batch form of [`SelectionOracle::try_eval`]: clears `out`, then fills
    /// it with Θ(`pred`, `t`) for each `t` of `tuples`, in input order.
    ///
    /// Contract: element-wise identical to calling `try_eval` per tuple, and
    /// a successful batch costs exactly `tuples.len()` QPF uses —
    /// implementations may hoist per-predicate setup out of the loop or
    /// evaluate several tuples per pass, but results and counts must not
    /// depend on batching.
    ///
    /// # Errors
    /// On failure `out`'s contents are unspecified (callers must not read
    /// partial verdicts); the QPF counter reflects exactly the evaluations
    /// actually performed before the batch was cancelled.
    fn try_eval_batch(
        &self,
        pred: &Self::Pred,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        out.clear();
        out.reserve(tuples.len());
        for &t in tuples {
            out.push(self.try_eval(pred, t)?);
        }
        Ok(())
    }

    /// Infallible wrapper over [`SelectionOracle::try_eval`].
    ///
    /// # Panics
    /// Panics on any oracle failure — fault-tolerant paths use `try_eval`.
    fn eval(&self, pred: &Self::Pred, t: TupleId) -> bool {
        match self.try_eval(pred, t) {
            Ok(v) => v,
            Err(e) => panic!("oracle failure: {e}"),
        }
    }

    /// Infallible wrapper over [`SelectionOracle::try_eval_batch`].
    ///
    /// # Panics
    /// Panics on any oracle failure — fault-tolerant paths use
    /// `try_eval_batch`.
    fn eval_batch(&self, pred: &Self::Pred, tuples: &[TupleId], out: &mut Vec<bool>) {
        if let Err(e) = self.try_eval_batch(pred, tuples, out) {
            panic!("oracle failure: {e}");
        }
    }

    /// SP-visible shape of the trapdoor (comparison vs BETWEEN).
    fn kind_of(&self, pred: &Self::Pred) -> PredicateKind;

    /// Number of tuple slots, including tombstones.
    fn n_slots(&self) -> usize;

    /// Whether tuple `t` is live (not deleted).
    fn is_live(&self, t: TupleId) -> bool;

    /// Monotonic QPF-use counter.
    fn qpf_uses(&self) -> u64;
}

/// The real oracle: encrypted table + trusted machine.
///
/// Storage corruption (bad cell bytes), a trapdoor for the wrong table, or
/// an out-of-range tuple id surface as [`OracleError`]s from the `try_*`
/// methods; only the infallible convenience wrappers panic.
#[derive(Debug, Clone, Copy)]
pub struct SpOracle<'a> {
    table: &'a EncryptedTable,
    tm: &'a TrustedMachine,
}

impl<'a> SpOracle<'a> {
    /// Pairs an encrypted table with the trusted machine that can evaluate
    /// trapdoors over it.
    pub fn new(table: &'a EncryptedTable, tm: &'a TrustedMachine) -> Self {
        SpOracle { table, tm }
    }

    /// Kept only because the benchmark adapter (`prkb_e2e/src/sut.rs`) still
    /// calls it with 1. A batch always runs on the calling thread, so the
    /// only count accepted is 1 (or 0), and this returns `self` unchanged.
    /// It is deleted together with that call, in the next change to the
    /// benchmark.
    ///
    /// # Panics
    /// If `threads` is more than 1.
    #[doc(hidden)]
    pub fn with_threads(self, threads: usize) -> Self {
        assert!(threads <= 1, "a batch runs on the calling thread");
        self
    }

    /// Evaluates `tuples` into `out` (same length) through `session`,
    /// gathering [`BATCH_LANES`] cells per keystream pass, and credits every
    /// performed decrypt to the session before propagating any failure, so
    /// the QPF counter stays exact on every path (error or unwind).
    fn eval_chunk(
        &self,
        session: &QpfSession<'_>,
        pred: &EncryptedPredicate,
        tuples: &[TupleId],
        out: &mut [bool],
    ) -> Result<(), OracleError> {
        let mut guard = SettleOnDrop::new(session);
        let mut cells: [&[u8]; BATCH_LANES] = [&[]; BATCH_LANES];
        for (tuples, out) in tuples.chunks(BATCH_LANES).zip(out.chunks_mut(BATCH_LANES)) {
            // An out-of-range tuple ends the gather: the cells before it are
            // evaluated (and counted), it is not.
            let mut gathered = 0;
            let mut missing = None;
            for &t in tuples {
                match self.table.cell(pred.attr(), t) {
                    Ok(cell) => {
                        cells[gathered] = cell;
                        gathered += 1;
                    }
                    Err(e) => {
                        missing = Some(e);
                        break;
                    }
                }
            }
            let evaluated = session.eval_pass(&cells[..gathered], &mut out[..gathered]);
            let failure = match evaluated {
                Ok(()) => {
                    guard.add(gathered as u64);
                    missing.map(OracleError::from)
                }
                Err((i, e)) => {
                    // The decrypt round-trip happened whether or not it succeeded.
                    guard.add(i as u64 + 1);
                    Some(OracleError::from(e))
                }
            };
            if let Some(e) = failure {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// Unwind-safe deferred settlement of one batch's QPF uses.
///
/// The batch counts its evaluations locally, and the guard settles the total
/// with one atomic add when it drops — on normal exit, on an early error
/// return, *and* during a panic unwind. Work already performed is real
/// paper-cost, so a batch that stops early must never lose it.
struct SettleOnDrop<'a, 's> {
    session: &'a QpfSession<'s>,
    count: u64,
}

impl<'a, 's> SettleOnDrop<'a, 's> {
    fn new(session: &'a QpfSession<'s>) -> Self {
        SettleOnDrop { session, count: 0 }
    }

    /// Records `n` performed evaluations.
    fn add(&mut self, n: u64) {
        self.count += n;
    }
}

impl Drop for SettleOnDrop<'_, '_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.session.settle(self.count);
        }
    }
}

impl SelectionOracle for SpOracle<'_> {
    type Pred = EncryptedPredicate;

    fn try_eval(&self, pred: &EncryptedPredicate, t: TupleId) -> Result<bool, OracleError> {
        let cell = self.table.cell(pred.attr(), t)?;
        Ok(self.tm.qpf(pred, cell)?)
    }

    /// Lock-hoisted, lane-batched evaluation: one [`TrustedMachine::session`]
    /// per batch resolves the value cipher and decoded trapdoor (one lock
    /// round-trip instead of 3·n), and tuples are evaluated lock-free
    /// [`BATCH_LANES`] at a time: their cells are gathered and decrypted in
    /// one keystream pass (`QpfSession::eval_pass`). The QPF counter is
    /// settled once per batch with one atomic add. The batch runs on the
    /// calling thread.
    ///
    /// # Errors
    /// The count is exactly the per-tuple path's: a bad cell at position `i`
    /// settles `i + 1` uses (its decrypt happened), an out-of-range tuple at
    /// `i` settles `i`, and `out` is left empty.
    fn try_eval_batch(
        &self,
        pred: &EncryptedPredicate,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        out.clear();
        if tuples.is_empty() {
            return Ok(());
        }
        let session = self.tm.session(pred).map_err(OracleError::from)?;
        out.resize(tuples.len(), false);
        let result = self.eval_chunk(&session, pred, tuples, out);
        if result.is_err() {
            out.clear(); // partial verdicts must not be readable
        }
        result
    }

    fn kind_of(&self, pred: &EncryptedPredicate) -> PredicateKind {
        pred.kind()
    }

    fn n_slots(&self) -> usize {
        self.table.len()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.table.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.tm.qpf_uses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owner::DataOwner;
    use crate::predicate::{ComparisonOp, Predicate};
    use crate::table::PlainTable;
    use crate::trusted::TmConfig;
    use prkb_crypto::cipher::CIPHERTEXT_LEN;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sp_oracle_evaluates_and_counts() {
        let owner = DataOwner::with_seed(7);
        let mut rng = StdRng::seed_from_u64(7);
        let plain = PlainTable::single_column("t", "x", vec![1, 5, 9]);
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let oracle = SpOracle::new(&enc, &tm);
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Ge, 5), &mut rng)
            .unwrap();
        assert_eq!(oracle.kind_of(&p), PredicateKind::Comparison);
        assert_eq!(oracle.n_slots(), 3);
        assert!(oracle.is_live(2));
        assert!(!oracle.eval(&p, 0));
        assert!(oracle.eval(&p, 1));
        assert!(oracle.eval(&p, 2));
        assert_eq!(oracle.qpf_uses(), 3);
    }

    #[test]
    fn try_eval_classifies_failures() {
        let owner = DataOwner::with_seed(8);
        let mut rng = StdRng::seed_from_u64(8);
        let plain = PlainTable::single_column("t", "x", vec![1, 5]);
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let oracle = SpOracle::new(&enc, &tm);
        // Out-of-range tuple: fatal, no QPF spent.
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Ge, 3), &mut rng)
            .unwrap();
        assert!(matches!(
            oracle.try_eval(&p, 99),
            Err(OracleError::Fatal(_))
        ));
        assert_eq!(oracle.qpf_uses(), 0);
        // Wrong-table trapdoor: the decrypt fails its integrity check —
        // corruption, and the QPF use was spent (the round-trip happened).
        let wrong = owner
            .trapdoor("other", &Predicate::cmp(0, ComparisonOp::Ge, 3), &mut rng)
            .unwrap();
        assert!(matches!(
            oracle.try_eval(&wrong, 0),
            Err(OracleError::Corruption(_))
        ));
        assert_eq!(oracle.qpf_uses(), 1);
    }

    #[test]
    fn batch_error_counts_exactly_and_clears_out() {
        // A corrupted cell, or an id past the table, at every position of the
        // first two passes — lane 0, the middle lanes, lane 7, and the second
        // pass: the batch fails, the counter equals the decrypts actually
        // performed (the bad cell's own decrypt happened, a missing tuple has
        // none), and the output holds no partial verdicts.
        let owner = DataOwner::with_seed(9);
        let mut rng = StdRng::seed_from_u64(9);
        let plain = PlainTable::single_column("t", "x", (0..24).collect());
        let mut enc = owner.encrypt_table(&plain, &mut rng);
        let garbage = vec![0u8; CIPHERTEXT_LEN]; // right width, wrong bytes: fails the tag check
        let bad = enc.push_encrypted_row(&[&garbage]).expect("arity");
        let tm = owner.trusted_machine(TmConfig::default());
        let oracle = SpOracle::new(&enc, &tm);
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 5), &mut rng)
            .unwrap();
        let mut out = Vec::new();
        for pos in 0..=17 {
            for (id, performed, class) in [(bad, pos + 1, "oracle corruption"), (999, pos, "fatal")]
            {
                let mut tuples: Vec<TupleId> = (0..24).collect();
                tuples[pos] = id;
                let before = oracle.qpf_uses();
                let err = oracle.try_eval_batch(&p, &tuples, &mut out).unwrap_err();
                assert!(err.to_string().starts_with(class), "{err}");
                assert!(out.is_empty(), "no partial verdicts (tuple {id} at {pos})");
                assert_eq!(
                    oracle.qpf_uses() - before,
                    performed as u64,
                    "tuple {id} at {pos}"
                );
            }
        }
    }

    #[test]
    fn batch_verdicts_equal_per_tuple_qpf_at_every_length() {
        let owner = DataOwner::with_seed(13);
        let mut rng = StdRng::seed_from_u64(13);
        let plain = PlainTable::single_column("t", "x", (0..40).rev().collect());
        let enc = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let oracle = SpOracle::new(&enc, &tm);
        let p = owner
            .trapdoor("t", &Predicate::between(0, 9, 27), &mut rng)
            .unwrap();
        let mut out = Vec::new();
        for len in 0..=40 {
            // Shuffled ids: a pass gathers cells from anywhere in the column.
            let tuples: Vec<TupleId> = (0..len).map(|i| (i * 17 % 40) as TupleId).collect();
            let before = tm.qpf_uses();
            oracle
                .try_eval_batch(&p, &tuples, &mut out)
                .expect("clean batch");
            assert_eq!(tm.qpf_uses() - before, len as u64, "{len} tuples");
            let reference: Vec<bool> = tuples
                .iter()
                .map(|&t| tm.qpf(&p, enc.cell(0, t).unwrap()).unwrap())
                .collect();
            assert_eq!(out, reference, "{len} tuples");
        }
    }

    #[test]
    fn long_batch_error_keeps_counter_exact() {
        let owner = DataOwner::with_seed(10);
        let mut rng = StdRng::seed_from_u64(10);
        let n = 600u32; // many passes before the bad cell
        let plain = PlainTable::single_column("t", "x", (0..n as u64).collect());
        let mut enc = owner.encrypt_table(&plain, &mut rng);
        let garbage = vec![0u8; CIPHERTEXT_LEN];
        let bad = enc.push_encrypted_row(&[&garbage]).expect("arity");
        let tm = owner.trusted_machine(TmConfig::default());
        let oracle = SpOracle::new(&enc, &tm);
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 100), &mut rng)
            .unwrap();
        let tuples: Vec<TupleId> = (0..=bad).collect();
        let mut out = Vec::new();
        let err = oracle.try_eval_batch(&p, &tuples, &mut out).unwrap_err();
        assert!(matches!(err, OracleError::Corruption(_)), "{err}");
        assert!(out.is_empty());
        // Every cell up to and including the bad one was decrypted.
        let uses = oracle.qpf_uses();
        assert_eq!(uses, n as u64 + 1);
        // A clean batch afterwards works and counts exactly.
        let good: Vec<TupleId> = (0..n).collect();
        oracle
            .try_eval_batch(&p, &good, &mut out)
            .expect("clean batch");
        assert_eq!(out.len(), n as usize);
        assert_eq!(oracle.qpf_uses(), uses + n as u64);
    }

    #[test]
    fn settle_on_drop_settles_once_on_normal_exit() {
        let owner = DataOwner::with_seed(11);
        let p = owner
            .trapdoor(
                "t",
                &Predicate::cmp(0, ComparisonOp::Lt, 5),
                &mut StdRng::seed_from_u64(11),
            )
            .unwrap();
        let tm = owner.trusted_machine(TmConfig::default());
        let session = tm.session(&p).unwrap();
        {
            let mut guard = SettleOnDrop::new(&session);
            guard.add(3);
            guard.add(4);
            assert_eq!(guard.count, 7);
            assert_eq!(tm.qpf_uses(), 0, "settled only on drop");
        }
        assert_eq!(tm.qpf_uses(), 7);
    }

    /// A batch that unwinds mid-way (a panic between passes) still credits
    /// every evaluation it performed, exactly once: the guard settles during
    /// the unwind, not after the batch.
    #[test]
    fn panic_mid_batch_cannot_leave_counter_under_settled() {
        let owner = DataOwner::with_seed(12);
        let p = owner
            .trapdoor(
                "t",
                &Predicate::cmp(0, ComparisonOp::Lt, 5),
                &mut StdRng::seed_from_u64(12),
            )
            .unwrap();
        let tm = owner.trusted_machine(TmConfig::default());
        let session = tm.session(&p).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = SettleOnDrop::new(&session);
            for i in 0..10u64 {
                guard.add(1); // count the evaluation as performed...
                if i == 4 {
                    panic!("injected crash mid-batch"); // ...then crash
                }
            }
        }));
        assert!(result.is_err(), "the panic must propagate");
        assert_eq!(
            tm.qpf_uses(),
            5,
            "evaluations performed before the crash are settled exactly once"
        );
    }
}
