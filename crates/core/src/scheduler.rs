//! Session scheduler: the one driver of the durable commit protocol, and
//! the multiplexer of concurrent sessions onto one engine's attributes.
//!
//! PRKB keeps one POP per attribute and a select refines only the POPs of
//! the attributes it names (paper §4, §5.3), so the attribute is the unit of
//! mutual exclusion: the scheduler holds **one lock per indexed
//! attribute**, and an operation holds the locks of its footprint while it
//! runs. Two queries on disjoint attributes never touch the same lock.
//!
//! There is one checkout discipline. A selection's footprint is its
//! trapdoors' attributes, and a whole-table operation (insert, delete,
//! inspection) is the same checkout with a footprint of *every* attribute
//! — an engine is nothing but per-attribute knowledge, so that moves the
//! whole pool. The attribute set is fixed when the scheduler is built
//! (indexing decisions are made at upload time). A checkout refuses an
//! unknown attribute before it locks anything, then locks its footprint in
//! ascending attribute id — the one global lock order, so lock-order cycles
//! are impossible by construction — and moves the footprint's knowledge
//! into a scratch engine that the operation runs against.
//!
//! There is also one **commit sequence**, and nothing outside this crate
//! can run its steps: while a successful operation still holds its locks,
//! its journaled ops, whatever attributes they span, are enqueued as
//! **one** record on the pool's WAL (so each attribute's WAL order is its
//! commit order) and its caller-visible **commit sequence number** is
//! drawn from one global atomic. Two operations that share an attribute
//! therefore draw in their serialization order, which gives the scheduler
//! its observable contract: the concurrent execution is indistinguishable
//! from replaying the operations sequentially in commit-sequence order —
//! same results, same per-query QPF spend (the loopback and proptest
//! suites assert exactly this). One fsync is awaited after the unlock, and
//! only by a record that holds a fact (insert, delete) or that filled the
//! pool's bounded un-synced tail — refinements are a cache SP can
//! re-derive, so a select replies after the enqueue; and a pool that
//! crossed its checkpoint threshold rotates once a non-blocking whole-table
//! reservation finds it quiescent. A reopen recovers a prefix of the
//! pool's commit order holding every acknowledged insert, delete and init,
//! each operation on all its attributes or none;
//! [`SessionScheduler::flush_durable`] makes it the whole order.
//!
//! Only an operation that succeeds commits: it draws a number and, in a
//! durable pool, journals one WAL record if it changed anything. A failed,
//! expired or panicking one puts its knowledge back untouched and leaves no
//! trace. Internally a durable pool's commits are positioned by
//! `(epoch, seq)`; the global number exists only for callers.
//!
//! Because per-query cost accounting in the core pipelines is delta-based
//! over [`SelectionOracle::qpf_uses`], a *shared* oracle counter would bleed
//! concurrent queries' costs into each other's stats. A select or insert
//! therefore evaluates through one [`SessionOracle`]: the query-scoped
//! wrapper around the shared oracle that holds its own QPF counter, so
//! stats stay exact under concurrency, and the operation's deadline, which
//! it checks before every oracle batch.

use crate::durability::{Committer, DurableError, ShardedDurablePool};
use crate::engine::{EngineConfig, PrkbEngine, QueryError};
use crate::insert::InsertOutcome;
use crate::metrics::{self, HistogramId};
use crate::selection::Selection;
use crate::snapshot::WireCodec;
use crate::traits::SpPredicate;
use prkb_edbms::trapdoor::PredicateKind;
use prkb_edbms::{AttrId, OracleError, SelectionOracle, TupleId};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// A stand-in kept only for `prkb_e2e/src/sut.rs`, as are
/// `SessionScheduler::with_shards` and `ShardedDurablePool`'s
/// `open_with_storage`, `map` and `shard_engine`: the scheduler has one
/// lock per attribute, whatever count this names.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct ShardMap;

impl ShardMap {
    #[doc(hidden)]
    pub fn new(_: usize) -> Self {
        ShardMap
    }

    #[doc(hidden)]
    pub fn shards(&self) -> usize {
        1
    }
}

/// The canonical "budget expired" failure, raised at scheduler checkout and
/// by [`SessionOracle`] between evaluation batches.
fn deadline_error() -> DurableError {
    DurableError::Query(QueryError::Oracle(OracleError::DeadlineExceeded))
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The query-scoped oracle: one operation's QPF counter and deadline over
/// the shared oracle.
///
/// Delegates every evaluation to the inner oracle but answers
/// [`SelectionOracle::qpf_uses`] from its own counter, so the delta-based
/// per-query stats in the core pipelines are exact even while other
/// sessions spend QPF uses on the same shared oracle. Counting follows the
/// batch contract: one use per tuple, whether batched or not.
///
/// `try_eval` and `try_eval_batch` check the deadline first and return
/// [`OracleError::DeadlineExceeded`] once it has passed, counting nothing.
/// Because the core pipelines evaluate in batches and every abort path
/// unwinds through the evaluate-then-commit split, an expired operation
/// surfaces `DEADLINE` between batches, frees its attribute footprint, and
/// leaves the KB byte-identical — no partial refinement or insert is ever
/// committed. With no deadline the check is one branch.
#[derive(Debug)]
pub struct SessionOracle<'a, O> {
    inner: &'a O,
    deadline: Option<Instant>,
    uses: AtomicU64,
}

impl<'a, O> SessionOracle<'a, O> {
    /// Wraps `inner` with a fresh zero counter and no deadline.
    pub fn new(inner: &'a O) -> Self {
        Self::with_deadline(inner, None)
    }

    /// Wraps `inner` with a fresh zero counter and an absolute deadline
    /// (`None` = unbounded).
    pub fn with_deadline(inner: &'a O, deadline: Option<Instant>) -> Self {
        SessionOracle {
            inner,
            deadline,
            uses: AtomicU64::new(0),
        }
    }
}

impl<O: SelectionOracle> SelectionOracle for SessionOracle<'_, O> {
    type Pred = O::Pred;

    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError> {
        if expired(self.deadline) {
            return Err(OracleError::DeadlineExceeded);
        }
        self.uses.fetch_add(1, Ordering::Relaxed);
        self.inner.try_eval(pred, t)
    }

    fn try_eval_batch(
        &self,
        pred: &Self::Pred,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        if expired(self.deadline) {
            return Err(OracleError::DeadlineExceeded);
        }
        self.uses.fetch_add(tuples.len() as u64, Ordering::Relaxed);
        self.inner.try_eval_batch(pred, tuples, out)
    }

    fn kind_of(&self, pred: &Self::Pred) -> PredicateKind {
        self.inner.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.inner.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.inner.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.uses.load(Ordering::Relaxed)
    }
}

/// Kept only for `prkb_e2e/src/sut.rs`, whose
/// `DeadlineOracle::new(&session, None)` now builds a second
/// [`SessionOracle`] over the same inner oracle: the deadline is the
/// session's own. Deleted with that call, in the next change to the
/// benchmark (ROADMAP 7(a)).
#[doc(hidden)]
pub trait DeadlineOracle: Sized {
    /// A fresh session over `session`'s inner oracle, with `deadline`.
    fn new(session: &Self, deadline: Option<Instant>) -> Self;
}

impl<O> DeadlineOracle for SessionOracle<'_, O> {
    fn new(session: &Self, deadline: Option<Instant>) -> Self {
        SessionOracle::with_deadline(session.inner, deadline)
    }
}

/// Checkout/checkin scheduler: one lock per indexed attribute.
pub struct SessionScheduler<P: SpPredicate> {
    /// Every indexed attribute, ascending: the footprint of a whole-table
    /// operation, and the one lock order.
    attrs: Vec<AttrId>,
    /// `locks[i]` guards `attrs[i]`'s knowledge, as a one-attribute engine
    /// that is empty while a checkout holds the lock. A lock poisoned by a
    /// panicking session is used as is: its checkout put the knowledge back
    /// first, and the pipelines are abort-safe.
    locks: Vec<Mutex<PrkbEngine<P>>>,
    /// Global caller-visible commit sequence (drawn while a committing
    /// footprint still holds its locks).
    seq: AtomicU64,
    config: EngineConfig,
    /// Durable deployments: the pool's group-commit pipeline.
    committer: Option<Committer<P>>,
}

impl<P: SpPredicate + WireCodec> SessionScheduler<P> {
    /// Wraps `engine` for concurrent use, one lock per attribute it
    /// indexes.
    pub fn new(engine: PrkbEngine<P>) -> Self {
        Self::from_parts(engine, None)
    }

    #[doc(hidden)]
    pub fn with_shards(engine: PrkbEngine<P>, _: ShardMap) -> Self {
        Self::new(engine)
    }

    /// Wraps a recovered [`ShardedDurablePool`] and its one WAL-backed
    /// committer. A committed insert or delete is acked only after its one
    /// record is group-commit durable; a select's refinements are journaled
    /// before the ack and durable by the pool's next fsync (see
    /// [`flush_durable`](Self::flush_durable)). This is also the
    /// single-owner durable engine.
    pub fn durable(pool: ShardedDurablePool<P>) -> Self {
        let (engine, committer) = pool.into_parts();
        Self::from_parts(engine, Some(committer))
    }

    fn from_parts(mut engine: PrkbEngine<P>, committer: Option<Committer<P>>) -> Self {
        let mut attrs: Vec<AttrId> = engine.attrs().collect();
        attrs.sort_unstable();
        let locks = (attrs.iter())
            .map(|&a| {
                let own = engine.detach_attrs(&[a]);
                Mutex::new(own.expect("attrs enumerated from the engine"))
            })
            .collect();
        SessionScheduler {
            attrs,
            locks,
            seq: AtomicU64::new(0),
            config: engine.config,
            committer,
        }
    }

    /// Runs `f` against the knowledge of `attrs`, holding their locks, and
    /// returns `f`'s result and the commit sequence number assigned at
    /// checkin. In durable pools the journaled ops are enqueued as one
    /// record before this returns, and fsync'd too if any of them is a
    /// fact.
    ///
    /// # Errors
    /// [`QueryError::AttrNotInitialized`] if any attribute is unknown
    /// (nothing is locked), whatever `f` reports (the knowledge is put back
    /// — the core pipelines leave it untouched on abort), or
    /// [`DurableError`] when the durable pool fails.
    pub fn with_detached<T>(
        &self,
        attrs: &[AttrId],
        f: impl FnOnce(&mut PrkbEngine<P>) -> Result<T, QueryError>,
    ) -> Result<(T, u64), DurableError> {
        self.checkout(attrs, None, f)
    }

    /// Runs `f` against the whole pool — a checkout whose footprint is every
    /// attribute, so it waits for every in-flight checkout and holds off
    /// every later one — and assigns a commit sequence number. For inserts
    /// and deletes. In durable pools the journaled facts are group-commit
    /// durable before this returns.
    ///
    /// # Errors
    /// [`DurableError`] when the durable pool fails; infallible on
    /// in-memory pools.
    pub fn with_exclusive<T>(
        &self,
        f: impl FnOnce(&mut PrkbEngine<P>) -> T,
    ) -> Result<(T, u64), DurableError> {
        self.checkout(&self.attrs, None, |engine| Ok(f(engine)))
    }

    /// Runs `f` with read access to the quiescent pool, without assigning a
    /// sequence number. For validation and inspection.
    pub fn inspect<T>(&self, f: impl FnOnce(&PrkbEngine<P>) -> T) -> T {
        let held = self.reserve(0..self.attrs.len(), true);
        let held = held.expect("a waiting reservation gets its footprint");
        f(&held.engine)
    }

    /// The one checkout every operation goes through: lock `attrs`, run `f`
    /// holding them, then commit if `f` succeeded. A failing `f` (or a
    /// panicking one) puts the knowledge back uncommitted: no sequence
    /// number, no WAL record, no fsync wait. A successful one that changed
    /// nothing draws its number and journals nothing.
    ///
    /// `deadline` bounds the wait for the footprint, not `f`: a budget that
    /// expired while the session waited fails with
    /// [`OracleError::DeadlineExceeded`] without running `f`, so a doomed
    /// operation never pins contended attributes. Expiry *during* `f` is the
    /// oracle layer's job ([`SessionOracle`] with the same instant).
    fn checkout<T>(
        &self,
        attrs: &[AttrId],
        deadline: Option<Instant>,
        f: impl FnOnce(&mut PrkbEngine<P>) -> Result<T, QueryError>,
    ) -> Result<(T, u64), DurableError> {
        // Refuse new work on a poisoned pool: its memory may be ahead of
        // disk, and only a reopen recovers that.
        if let Some(e) = self.committer.as_ref().and_then(Committer::poison_error) {
            return Err(e);
        }
        let mut footprint = Vec::with_capacity(attrs.len());
        for &attr in attrs {
            let i = (self.attrs.binary_search(&attr))
                .map_err(|_| QueryError::AttrNotInitialized(attr))?;
            footprint.push(i);
        }
        footprint.sort_unstable();
        footprint.dedup();
        let mut held =
            (self.reserve(footprint, true)).expect("a waiting reservation gets its footprint");
        if expired(deadline) {
            return Err(deadline_error());
        }
        let value = f(&mut held.engine)?;
        Ok((value, held.commit()?))
    }

    /// Locks the attributes at `footprint` (ascending indices into `attrs`:
    /// the one lock order, so no deadlock) and moves their knowledge into
    /// the [`Checkin`]'s scratch engine. Unless `wait`, a held attribute
    /// ends the attempt: `None`, and what was taken so far goes back.
    fn reserve(
        &self,
        footprint: impl IntoIterator<Item = usize>,
        wait: bool,
    ) -> Option<Checkin<'_, P>> {
        let mut held = Checkin {
            sched: self,
            guards: Vec::new(),
            engine: PrkbEngine::new(self.config),
        };
        let start = Instant::now();
        for i in footprint {
            let mut guard = match self.locks[i].try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) if wait => {
                    self.locks[i].lock().unwrap_or_else(PoisonError::into_inner)
                }
                Err(TryLockError::WouldBlock) => return None,
            };
            let own = std::mem::replace(&mut *guard, PrkbEngine::new(self.config));
            held.engine.attach(own);
            held.guards.push((self.attrs[i], guard));
        }
        let waited = start.elapsed().as_micros();
        metrics::global().observe(HistogramId::LockWaitUs, waited as u64);
        Some(held)
    }

    /// Rotates the pool's checkpoint holding every attribute's lock, so it
    /// serializes exactly what the flushed WAL produced. Unforced (after a
    /// commit), only if the policy asks and every lock is free — a later
    /// commit retries; forced, it waits for them.
    fn rotate(&self, forced: bool) -> Result<(), DurableError> {
        let Some(committer) = &self.committer else {
            return Ok(());
        };
        if !forced && !committer.wants_checkpoint(&self.config) {
            return Ok(());
        }
        match self.reserve(0..self.attrs.len(), forced) {
            Some(held) => committer.checkpoint(&held.engine),
            None => Ok(()),
        }
    }

    /// Forces a checkpoint rotation of a durable pool, whatever the
    /// [`EngineConfig`] thresholds say: waits out the in-flight checkouts,
    /// flushes the pending batch, writes the partitions dirtied since the
    /// last rotation as one segment and starts a fresh WAL epoch. A no-op
    /// on in-memory pools.
    ///
    /// # Errors
    /// A storage failure poisons the pool (the disk keeps a consistent
    /// committed prefix; reopen to resume).
    pub fn checkpoint(&self) -> Result<(), DurableError> {
        self.rotate(true)
    }

    /// Flushes and fsyncs the pool's un-synced tail — *the*
    /// clean-shutdown barrier. Acknowledged inserts and deletes already
    /// waited for their fsync; the refinements of acknowledged selects sit
    /// in a bounded tail until the pool's next fsync, and this is
    /// the call that forces it: after `Ok`, a reopen recovers every
    /// committed operation. Dropping the scheduler without it is a crash
    /// (recovery lands on a prefix holding every acknowledged fact). A lock
    /// and an empty-check when nothing is pending.
    ///
    /// # Errors
    /// The [`DurableError`] the flush met (the pool is poisoned: its next
    /// checkout gets the same error).
    pub fn flush_durable(&self) -> Result<(), DurableError> {
        self.committer.as_ref().map_or(Ok(()), Committer::flush)
    }

    /// Hands the engine back for single-threaded use (shutdown). Owning
    /// `self` proves no checkout is outstanding — a `Checkin` borrows the
    /// scheduler. Durable pools flush their pending batches first.
    pub fn into_engine(self) -> PrkbEngine<P> {
        // The signature can't carry the flush error (shutdown proceeds
        // regardless — the WAL keeps whatever prefix made it to disk), but
        // it must not vanish silently: a failed final flush means the
        // deferred tail of refinements died with the process.
        if let Err(e) = self.flush_durable() {
            eprintln!("prkb: final durable flush failed during shutdown: {e}");
        }
        let mut engine = PrkbEngine::new(self.config);
        for own in self.locks {
            engine.attach(own.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
        engine
    }
}

/// A locked footprint, its knowledge moved into one scratch engine.
/// Dropping it puts the knowledge back uncommitted and unlocks — the path
/// a failed, expired or panicking operation takes;
/// [`commit`](Checkin::commit) is the path a successful one takes.
struct Checkin<'a, P: SpPredicate + WireCodec> {
    sched: &'a SessionScheduler<P>,
    /// The footprint's locks, ascending.
    guards: Vec<(AttrId, MutexGuard<'a, PrkbEngine<P>>)>,
    engine: PrkbEngine<P>,
}

impl<P: SpPredicate + WireCodec> Checkin<'_, P> {
    /// Commits the footprint as one operation while it still holds every
    /// lock: drains the journal into one WAL record (so each attribute's
    /// WAL order is its commit order) and draws the sequence number (so
    /// operations that share an attribute draw in their serialization
    /// order). Then it unlocks, awaits group-commit durability of the
    /// record when it journaled a fact or filled the un-synced tail, and
    /// lets a pool that crossed its checkpoint threshold rotate.
    fn commit(mut self) -> Result<u64, DurableError> {
        let sched = self.sched;
        let ops = self.engine.take_ops();
        let ticket = (sched.committer.as_ref()).and_then(|c| c.enqueue_journal(ops));
        let seq = sched.seq.fetch_add(1, Ordering::Relaxed) + 1;
        drop(self);
        if let (Some(committer), Some(ticket)) = (&sched.committer, ticket) {
            committer.wait_durable(ticket)?;
        }
        sched.rotate(false)?;
        Ok(seq)
    }
}

impl<P: SpPredicate + WireCodec> Drop for Checkin<'_, P> {
    /// Moves each attribute's knowledge back under its lock; the guards
    /// then unlock in ascending order. An uncommitted operation's journal
    /// is discarded (the abort-safe pipelines left none).
    fn drop(&mut self) {
        self.engine.take_ops();
        for (attr, guard) in &mut self.guards {
            if let Ok(own) = self.engine.detach_attrs(&[*attr]) {
                **guard = own;
            }
        }
    }
}

/// The three deadline-bounded operations a server dispatches (and the
/// durability suites drive). `deadline` bounds the whole operation: the
/// checkout wait and every oracle batch check it, and expiry aborts with
/// [`OracleError::DeadlineExceeded`] leaving the KB untouched. A select
/// and an insert each evaluate through one [`SessionOracle`] around
/// `oracle`; a delete calls no oracle, so checkout is its only check.
impl<P: SpPredicate + WireCodec> SessionScheduler<P> {
    /// A selection — a list of trapdoors read as a conjunction, see
    /// [`PrkbEngine::try_select_where`] — over a footprint of the
    /// trapdoors' attributes. With no trapdoor it answers every row the
    /// oracle calls live, which is right only if the caller tombstones that
    /// table on every delete — the server does not, so the wire refuses an
    /// empty list before it gets here.
    ///
    /// # Errors
    /// [`DurableError::Query`] when the engine fails (nothing committed),
    /// any other [`DurableError`] when the durable pool does.
    pub fn select_where<O, R>(
        &self,
        oracle: &O,
        preds: &[P],
        deadline: Option<Instant>,
        rng: &mut R,
    ) -> Result<(Selection, u64), DurableError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let attrs: Vec<AttrId> = preds.iter().map(SpPredicate::attr).collect();
        let session = SessionOracle::with_deadline(oracle, deadline);
        self.checkout(&attrs, deadline, |sub| {
            sub.try_select_where(&session, preds, rng)
        })
    }

    /// Insert routing across every indexed attribute (whole-table
    /// footprint). An oracle failure, an expired deadline included, commits
    /// nothing: [`PrkbEngine::try_insert`] decides every attribute before it
    /// applies any.
    ///
    /// # Errors
    /// [`DurableError::Query`] when the engine fails (nothing committed),
    /// any other [`DurableError`] when the durable pool does.
    pub fn insert<O>(
        &self,
        oracle: &O,
        t: TupleId,
        deadline: Option<Instant>,
    ) -> Result<(Vec<(AttrId, InsertOutcome)>, u64), DurableError>
    where
        O: SelectionOracle<Pred = P>,
    {
        let session = SessionOracle::with_deadline(oracle, deadline);
        self.checkout(&self.attrs, deadline, |engine| {
            engine.try_insert(&session, t)
        })
    }

    /// Delete across every indexed attribute.
    ///
    /// # Errors
    /// [`DurableError`] on a durable pool; infallible in memory.
    pub fn delete(&self, t: TupleId, deadline: Option<Instant>) -> Result<u64, DurableError> {
        let ((), seq) = self.checkout(&self.attrs, deadline, |engine| {
            engine.delete(t);
            Ok(())
        })?;
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn engine_with(oracle: &PlainOracle, attrs: u32) -> PrkbEngine<Predicate> {
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for a in 0..attrs {
            engine.init_attr(a, oracle.n_slots());
        }
        engine
    }

    #[test]
    fn session_oracle_counts_locally() {
        let oracle = PlainOracle::single_column((0..10).collect());
        oracle.eval(&Predicate::cmp(0, ComparisonOp::Lt, 5), 0);
        let session = SessionOracle::new(&oracle);
        assert_eq!(session.qpf_uses(), 0, "fresh session counter");
        session.eval(&Predicate::cmp(0, ComparisonOp::Lt, 5), 1);
        let mut out = Vec::new();
        session.eval_batch(
            &Predicate::cmp(0, ComparisonOp::Lt, 5),
            &[2, 3, 4],
            &mut out,
        );
        assert_eq!(session.qpf_uses(), 4);
        assert_eq!(oracle.qpf_uses(), 5, "shared counter still global");
    }

    #[test]
    fn detached_select_matches_inline_and_assigns_seq() {
        let values: Vec<u64> = (0..200).map(|i| (i * 37) % 200).collect();
        let oracle = PlainOracle::single_column(values.clone());
        let sched = SessionScheduler::new(engine_with(&oracle, 1));

        let inline_oracle = PlainOracle::single_column(values);
        let mut inline = engine_with(&inline_oracle, 1);

        for (i, bound) in [120u64, 40, 90, 40].into_iter().enumerate() {
            let pred = Predicate::cmp(0, ComparisonOp::Lt, bound);
            let session = SessionOracle::new(&oracle);
            let (sel, seq) = sched
                .with_detached(&[0], |sub| {
                    sub.try_select(&session, &pred, &mut StdRng::seed_from_u64(7))
                })
                .expect("select");
            assert_eq!(seq, i as u64 + 1, "dense commit sequence");
            let expected = inline
                .try_select(&inline_oracle, &pred, &mut StdRng::seed_from_u64(7))
                .expect("inline select");
            assert_eq!(sel.sorted(), expected.sorted());
            assert_eq!(sel.stats.qpf_uses, expected.stats.qpf_uses);
        }
        sched.inspect(|engine| {
            engine
                .knowledge(0)
                .expect("attr 0")
                .validate()
                .expect("valid knowledge");
        });
    }

    #[test]
    fn expired_deadline_aborts_at_checkout_without_leaking_attrs() {
        let oracle = PlainOracle::single_column((0..50).collect());
        let sched = SessionScheduler::new(engine_with(&oracle, 1));
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 25);

        // A deadline already in the past: the checkout must roll back
        // before `f` ever runs.
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = sched
            .checkout(&[0], Some(past), |_sub| -> Result<(), QueryError> {
                panic!("closure must not run once the budget expired")
            })
            .expect_err("expired budget");
        assert!(matches!(
            err,
            DurableError::Query(QueryError::Oracle(OracleError::DeadlineExceeded))
        ));

        // The footprint was checked back in: the same attribute is
        // immediately available, knowledge intact, and the failed attempt
        // consumed no commit sequence number.
        let (sel, seq) = sched
            .with_detached(&[0], |sub| {
                sub.try_select(&oracle, &pred, &mut StdRng::seed_from_u64(1))
            })
            .expect("attr 0 not leaked");
        assert_eq!(sel.tuples.len(), 25);
        assert_eq!(seq, 1, "aborted checkout must not draw a sequence number");

        // A whole-table checkout honours the budget the same way.
        let err = sched
            .delete(3, Some(past))
            .expect_err("expired whole-table budget");
        assert!(matches!(
            err,
            DurableError::Query(QueryError::Oracle(OracleError::DeadlineExceeded))
        ));
        let ((), seq) = sched
            .with_exclusive(|engine| engine.delete(3))
            .expect("pool not wedged after aborted exclusive");
        assert_eq!(seq, 2);
    }

    #[test]
    fn session_oracle_cuts_off_between_batches() {
        let oracle = PlainOracle::single_column((0..10).collect());
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 5);
        let live = SessionOracle::with_deadline(&oracle, None);
        assert!(live.try_eval(&pred, 0).is_ok());
        assert_eq!(live.qpf_uses(), 1, "passthrough counter");

        let past = Instant::now() - std::time::Duration::from_millis(1);
        let dead = SessionOracle::with_deadline(&oracle, Some(past));
        let mut out = Vec::new();
        assert!(matches!(
            dead.try_eval(&pred, 0),
            Err(OracleError::DeadlineExceeded)
        ));
        assert!(matches!(
            dead.try_eval_batch(&pred, &[1, 2], &mut out),
            Err(OracleError::DeadlineExceeded)
        ));
        assert_eq!(dead.qpf_uses(), 0, "an expired budget counts nothing");
        assert_eq!(oracle.qpf_uses(), 1, "no uses spent after expiry");

        // The benchmark's shim builds the same wrapper: a fresh counter
        // over the same inner oracle, with the deadline it is given.
        let shim = DeadlineOracle::new(&live, Some(past));
        assert_eq!(shim.qpf_uses(), 0, "fresh counter");
        assert!(matches!(
            shim.try_eval(&pred, 0),
            Err(OracleError::DeadlineExceeded)
        ));
        assert!(DeadlineOracle::new(&live, None).eval(&pred, 3));
        assert_eq!(oracle.qpf_uses(), 2, "the same inner oracle");
    }

    #[test]
    fn unknown_attr_leaves_engine_usable() {
        let oracle = PlainOracle::single_column((0..50).collect());
        let sched = SessionScheduler::new(engine_with(&oracle, 1));
        let pred = Predicate::cmp(9, ComparisonOp::Lt, 5);
        let err = sched
            .with_detached(&[9], |sub| {
                sub.try_select(&oracle, &pred, &mut StdRng::seed_from_u64(1))
            })
            .expect_err("attr 9 unknown");
        assert!(matches!(
            err,
            DurableError::Query(QueryError::AttrNotInitialized(9))
        ));
        // Attribute 0 must still be attached and queryable.
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 25);
        let (sel, _) = sched
            .with_detached(&[0], |sub| {
                sub.try_select(&oracle, &pred, &mut StdRng::seed_from_u64(1))
            })
            .expect("attr 0 still live");
        assert_eq!(sel.tuples.len(), 25);
    }

    #[test]
    fn concurrent_disjoint_queries_overlap_and_serialize_per_attr() {
        let columns: Vec<Vec<u64>> = vec![
            (0..300).map(|i| (i * 13) % 300).collect(),
            (0..300).map(|i| (i * 29) % 300).collect(),
        ];
        let oracle = Arc::new(PlainOracle::from_columns(columns));
        let sched = Arc::new(SessionScheduler::new(engine_with(&oracle, 2)));

        let mut handles = Vec::new();
        for worker in 0..4u32 {
            let oracle = Arc::clone(&oracle);
            let sched = Arc::clone(&sched);
            handles.push(std::thread::spawn(move || {
                for round in 0..10u64 {
                    let attr = worker % 2;
                    let bound = (worker as u64 * 57 + round * 31) % 300;
                    let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound);
                    let session = SessionOracle::new(&*oracle);
                    let (sel, _seq) = sched
                        .with_detached(&[attr], |sub| {
                            sub.try_select(&session, &pred, &mut StdRng::seed_from_u64(round))
                        })
                        .expect("select");
                    assert_eq!(sel.tuples.len(), bound as usize);
                }
            }));
        }
        for h in handles {
            h.join().expect("worker");
        }
        let engine = match Arc::try_unwrap(sched) {
            Ok(s) => s.into_engine(),
            Err(_) => panic!("all workers joined"),
        };
        for attr in 0..2 {
            engine
                .knowledge(attr)
                .expect("attr")
                .validate()
                .expect("valid after concurrency");
        }
    }

    #[test]
    fn multi_attr_footprint_locks_and_puts_back() {
        // A conjunction footprint of six attributes must come back whole:
        // every lock free, every attribute queryable again.
        let columns: Vec<Vec<u64>> = (0..6)
            .map(|a| (0..100).map(|i| (i * (7 + a)) % 100).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let sched = SessionScheduler::new(engine_with(&oracle, 6));
        assert_eq!(sched.locks.len(), 6, "one lock per attribute");
        let attrs: Vec<AttrId> = (0..6).rev().collect();
        let session = SessionOracle::new(&oracle);
        let preds: Vec<Predicate> = (0..6)
            .map(|a| Predicate::cmp(a, ComparisonOp::Lt, 60))
            .collect();
        let (sel, seq) = sched
            .with_detached(&attrs, |sub| {
                for (a, lock) in (0..6).zip(&sched.locks) {
                    assert!(lock.try_lock().is_err(), "attr {a} held while f runs");
                }
                sub.try_select_where(&session, &preds, &mut StdRng::seed_from_u64(3))
            })
            .expect("conjunction over six attributes");
        assert_eq!(seq, 1);
        assert!(!sel.tuples.is_empty());
        assert_all_free(&sched, "after the conjunction");
        for a in 0..6u32 {
            let session = SessionOracle::new(&oracle);
            let pred = Predicate::cmp(a, ComparisonOp::Lt, 10);
            sched
                .with_detached(&[a], |sub| {
                    sub.try_select(&session, &pred, &mut StdRng::seed_from_u64(4))
                })
                .expect("single-attr select after conjunction");
        }
    }

    #[test]
    fn exclusive_takes_and_returns_every_attr() {
        let columns: Vec<Vec<u64>> = (0..4)
            .map(|a| (0..80).map(|i| (i * (3 + a)) % 80).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let sched = SessionScheduler::new(engine_with(&oracle, 4));
        let ((), seq) = sched
            .with_exclusive(|engine| {
                assert_eq!(engine.attrs().count(), 4, "every attr checked out");
                engine.delete(5);
            })
            .expect("delete");
        assert_eq!(seq, 1);
        assert_all_free(&sched, "after exclusive");
        sched.inspect(|engine| {
            assert_eq!(engine.attrs().count(), 4, "all attrs back after exclusive");
        });
        let engine = sched.into_engine();
        assert_eq!(engine.attrs().count(), 4);
    }

    /// Every attribute lock is free and holds its knowledge — nothing
    /// leaked by a checkout that ended.
    fn assert_all_free(sched: &SessionScheduler<Predicate>, what: &str) {
        for (attr, lock) in sched.attrs.iter().zip(&sched.locks) {
            let own = match lock.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => panic!("{what}: attr {attr} still locked"),
            };
            assert!(own.knowledge(*attr).is_some(), "{what}: attr {attr} leaked");
        }
    }

    #[test]
    fn panicking_closure_frees_its_footprint_under_both_wrappers() {
        type Run = fn(&SessionScheduler<Predicate>);
        let cases: [(&str, Run); 2] = [
            ("with_detached", |s| {
                let _ = s.with_detached(&[0, 2], |_| -> Result<(), QueryError> { panic!("boom") });
            }),
            ("with_exclusive", |s| {
                let _ = s.with_exclusive(|_| panic!("boom"));
            }),
        ];
        let oracle = PlainOracle::from_columns(vec![(0..40).collect(); 4]);
        for (name, run) in cases {
            let sched = SessionScheduler::new(engine_with(&oracle, 4));
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&sched)));
            assert!(unwound.is_err(), "{name}: the panic propagates");
            assert_all_free(&sched, name);
            sched.inspect(|engine| assert_eq!(engine.attrs().count(), 4, "{name}"));
            let ((), seq) = sched.with_exclusive(|e| e.delete(1)).expect("delete");
            assert_eq!(seq, 1, "{name}: the unwound operation drew no number");
        }
    }

    /// Whether some checkout holds `attr`'s lock right now.
    fn held(sched: &SessionScheduler<Predicate>, attr: AttrId) -> bool {
        matches!(
            sched.locks[attr as usize].try_lock(),
            Err(TryLockError::WouldBlock)
        )
    }

    #[test]
    fn exclusive_waits_for_held_attr_and_holds_off_later_checkouts() {
        use std::sync::mpsc::channel;
        let oracle = PlainOracle::from_columns(vec![(0..40).collect(); 2]);
        let sched = SessionScheduler::new(engine_with(&oracle, 2));
        let order = Mutex::new(Vec::new());
        let (sched, order) = (&sched, &order);
        let (a_held, a_is_held) = channel();
        let (release_a, a_released) = channel::<()>();
        let (x_asks, x_asked) = channel();
        let (x_runs, x_is_running) = channel();
        let (release_x, x_released) = channel::<()>();
        let (b_asks, b_asked) = channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                sched.with_detached(&[0], |_| {
                    a_held.send(()).expect("main listens");
                    a_released.recv().expect("main releases");
                    order.lock().expect("order").push("a");
                    Ok(())
                })
            });
            a_is_held.recv().expect("attr 0 checked out");
            assert!(held(sched, 0) && !held(sched, 1), "a holds attr 0 alone");
            s.spawn(move || {
                x_asks.send(()).expect("main listens");
                sched.with_exclusive(|_| {
                    order.lock().expect("order").push("x-start");
                    x_runs.send(()).expect("main listens");
                    x_released.recv().expect("main releases");
                    order.lock().expect("order").push("x-end");
                })
            });
            x_asked.recv().expect("exclusive asked for the pool");
            assert!(held(sched, 0), "the exclusive cannot have attr 0 yet");
            release_a.send(()).expect("a's holder listens");
            x_is_running.recv().expect("exclusive got the pool");
            assert!(held(sched, 0) && held(sched, 1), "the exclusive holds both");
            s.spawn(move || {
                b_asks.send(()).expect("main listens");
                sched.with_detached(&[1], |_| {
                    order.lock().expect("order").push("b");
                    Ok(())
                })
            });
            b_asked.recv().expect("b asked for attr 1");
            release_x.send(()).expect("exclusive listens");
        });
        assert_eq!(
            *order.lock().expect("order"),
            ["a", "x-start", "x-end", "b"]
        );
        assert!(!held(sched, 0) && !held(sched, 1), "every lock free");
    }
}
