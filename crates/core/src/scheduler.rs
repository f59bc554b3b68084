//! Session scheduler: the one driver of the durable commit protocol, and
//! the multiplexer of concurrent sessions onto a sharded pool of engines.
//!
//! The engine's refinement commits must be serialized *per attribute* — two
//! queries refining the same attribute's knowledge concurrently would race —
//! but the *expensive* part of a query is QPF evaluation, which the core
//! pipelines already split from commit (evaluate-then-commit). The
//! scheduler exploits that split twice over:
//!
//! * **Sharding.** Attributes are hash-partitioned across the shards of a
//!   [`ShardMap`], each with its own lock and busy set — so unrelated
//!   queries never touch the same mutex. A shard is a lock stripe: a
//!   durable pool has one WAL-backed committer, whatever the count.
//! * **Checkout/checkin.** Every operation names an attribute footprint.
//!   Per shard, the footprint's knowledge is *detached* into a private
//!   sub-engine under the shard lock, the lock is dropped, and evaluation
//!   (all oracle traffic, all QPF spending) runs against the detached
//!   knowledge, concurrently with any operation whose footprint is
//!   disjoint.
//!
//! There is one checkout discipline. A selection's footprint is its
//! trapdoors' attributes, and a whole-table operation (insert, delete,
//! inspection) is the same checkout with a footprint of *every* attribute
//! — an engine is nothing but per-attribute knowledge, so that moves the
//! whole pool. The attribute set is fixed when the scheduler is built
//! (indexing decisions are made at upload time). Shards are reserved
//! strictly in ascending shard-id order, holding at most one shard mutex at
//! a time, so lock-order cycles are impossible by construction — the
//! classic hierarchical resource-ordering argument.
//!
//! There is also one **commit sequence**, and nothing outside this crate
//! can run its steps: a successful operation's journaled ops, whatever
//! shards they span, are enqueued as **one** record on the pool's WAL
//! *before any of its attributes is freed* (so each attribute's WAL order
//! is its commit order); one fsync is awaited after the checkin, and only
//! by a record that holds a fact (insert, delete) or that filled the
//! pool's bounded un-synced tail — refinements are a cache SP can
//! re-derive, so a select replies after the enqueue; and a pool that
//! crossed its checkpoint threshold rotates once a non-blocking whole-table
//! reservation finds it quiescent. A reopen recovers a prefix of the
//! pool's commit order holding every acknowledged insert, delete and init,
//! each operation on all its attributes or none;
//! [`SessionScheduler::flush_durable`] makes it the whole order. A
//! single-owner durable engine is this scheduler over a one-shard pool.
//!
//! Waiting is **precise**: each busy attribute keeps its own condvar plus a
//! waiter count, and a checkin notifies only the condvars of the attributes
//! it actually freed — a checkin of attribute `a` never wakes a session
//! parked on attribute `b`.
//!
//! The caller-visible **commit sequence number** is drawn from one global
//! atomic while holding the *first* (lowest-id) shard lock of the
//! footprint, before any of the footprint's attributes are freed. Two
//! operations that share an attribute therefore draw in their serialization
//! order, which gives the scheduler its observable contract: the concurrent
//! execution is indistinguishable from replaying the operations
//! sequentially in commit-sequence order — same results, same per-query QPF
//! spend (the loopback and proptest suites assert exactly this). Only an
//! operation that succeeds commits: it draws a number and, in a durable
//! pool, journals one WAL record if it changed anything. A failed, expired
//! or panicking one checks its knowledge back in untouched and leaves no
//! trace. Internally a durable pool's commits are positioned by
//! `(epoch, seq)`; the global number exists only for callers.
//!
//! Because per-query cost accounting in the core pipelines is delta-based
//! over [`SelectionOracle::qpf_uses`], a *shared* oracle counter would bleed
//! concurrent queries' costs into each other's stats. [`SessionOracle`]
//! wraps the shared oracle with a per-query counter so stats stay exact
//! under concurrency.

use crate::durability::{Committer, DurableError, GroupCommitTicket, ShardedDurablePool};
use crate::engine::{EngineConfig, PrkbEngine, QueryError};
use crate::insert::InsertOutcome;
use crate::metrics::{self, HistogramId};
use crate::selection::Selection;
use crate::shard::ShardMap;
use crate::snapshot::WireCodec;
use crate::traits::SpPredicate;
use prkb_edbms::trapdoor::PredicateKind;
use prkb_edbms::{AttrId, OracleError, SelectionOracle, TupleId};
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// The canonical "budget expired" failure, raised at scheduler checkout and
/// by [`DeadlineOracle`] between evaluation batches.
fn deadline_error() -> DurableError {
    DurableError::Query(QueryError::Oracle(OracleError::DeadlineExceeded))
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Per-session QPF counting wrapper over a shared oracle.
///
/// Delegates every evaluation to the inner oracle but answers
/// [`SelectionOracle::qpf_uses`] from its own counter, so the delta-based
/// per-query stats in the core pipelines are exact even while other
/// sessions spend QPF uses on the same shared oracle. Counting follows the
/// batch contract: one use per tuple, whether batched or not.
#[derive(Debug)]
pub struct SessionOracle<'a, O> {
    inner: &'a O,
    uses: AtomicU64,
}

impl<'a, O> SessionOracle<'a, O> {
    /// Wraps `inner` with a fresh zero counter.
    pub fn new(inner: &'a O) -> Self {
        SessionOracle {
            inner,
            uses: AtomicU64::new(0),
        }
    }
}

impl<O: SelectionOracle> SelectionOracle for SessionOracle<'_, O> {
    type Pred = O::Pred;

    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError> {
        self.uses.fetch_add(1, Ordering::Relaxed);
        self.inner.try_eval(pred, t)
    }

    fn try_eval_batch(
        &self,
        pred: &Self::Pred,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
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

/// Enforces a per-request deadline budget at every oracle call site.
///
/// Wraps an oracle (typically a [`SessionOracle`]) and checks the budget on
/// entry to `try_eval`/`try_eval_batch`, returning
/// [`OracleError::DeadlineExceeded`] once the deadline passes. Because the
/// core pipelines evaluate in batches and every abort path unwinds through
/// the evaluate-then-commit split, an expired query surfaces `DEADLINE`
/// between batches, frees its attribute footprint, and leaves the KB
/// byte-identical — no partial refinement is ever committed.
///
/// `deadline = None` means no budget: every check is a cheap branch.
#[derive(Debug)]
pub struct DeadlineOracle<'a, O> {
    inner: &'a O,
    deadline: Option<Instant>,
}

impl<'a, O> DeadlineOracle<'a, O> {
    /// Wraps `inner` with an absolute deadline (`None` = unbounded).
    pub fn new(inner: &'a O, deadline: Option<Instant>) -> Self {
        DeadlineOracle { inner, deadline }
    }

    fn check(&self) -> Result<(), OracleError> {
        if expired(self.deadline) {
            Err(OracleError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

impl<O: SelectionOracle> SelectionOracle for DeadlineOracle<'_, O> {
    type Pred = O::Pred;

    fn try_eval(&self, pred: &Self::Pred, t: TupleId) -> Result<bool, OracleError> {
        self.check()?;
        self.inner.try_eval(pred, t)
    }

    fn try_eval_batch(
        &self,
        pred: &Self::Pred,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        self.check()?;
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
        self.inner.qpf_uses()
    }
}

/// A parked-session registration for one busy attribute: its condvar plus
/// how many sessions currently wait on it. The entry is removed when the
/// count drops to zero, so `waiters` only ever holds contended attributes.
struct WaitCell {
    cv: Arc<Condvar>,
    count: usize,
}

struct ShardState<P: SpPredicate> {
    /// The shard's engine, minus the knowledge of its `busy` attributes.
    engine: PrkbEngine<P>,
    /// Attributes currently checked out by in-flight operations.
    busy: HashSet<AttrId>,
    /// Per-attribute waiter registrations (precise wakeups).
    waiters: HashMap<AttrId, WaitCell>,
}

struct Shard<P: SpPredicate> {
    state: Mutex<ShardState<P>>,
}

impl<P: SpPredicate> Shard<P> {
    fn new(engine: PrkbEngine<P>) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                engine,
                busy: HashSet::new(),
                waiters: HashMap::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ShardState<P>> {
        // A worker that panicked mid-commit cannot be reasoned about; treat
        // the lock as still usable (knowledge moves are two-phase and the
        // engine is abort-safe) rather than cascading the panic.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Parks the caller on `attr`'s condvar until a checkin frees it.
    fn wait_attr<'g>(
        &self,
        mut guard: MutexGuard<'g, ShardState<P>>,
        attr: AttrId,
    ) -> MutexGuard<'g, ShardState<P>> {
        let cv = {
            let cell = guard.waiters.entry(attr).or_insert_with(|| WaitCell {
                cv: Arc::new(Condvar::new()),
                count: 0,
            });
            cell.count += 1;
            Arc::clone(&cell.cv)
        };
        guard = match cv.wait(guard) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let cell = guard
            .waiters
            .get_mut(&attr)
            .expect("registered waiter entry survives until count hits zero");
        cell.count -= 1;
        if cell.count == 0 {
            guard.waiters.remove(&attr);
        }
        guard
    }
}

/// Checkout/checkin scheduler over a shard-per-attribute engine pool.
pub struct SessionScheduler<P: SpPredicate> {
    shards: Vec<Shard<P>>,
    map: ShardMap,
    /// Every indexed attribute, sorted: the footprint of a whole-table
    /// operation.
    attrs: Vec<AttrId>,
    /// Global caller-visible commit sequence (drawn under the first shard
    /// lock of a committing footprint).
    seq: AtomicU64,
    config: EngineConfig,
    /// Durable deployments: the pool's group-commit pipeline.
    committer: Option<Committer<P>>,
}

impl<P: SpPredicate + WireCodec> SessionScheduler<P> {
    /// Wraps `engine` for concurrent use over `min(16, cores)` shards.
    pub fn new(engine: PrkbEngine<P>) -> Self {
        Self::with_shards(engine, ShardMap::new(ShardMap::default_shards()))
    }

    /// Wraps `engine` with an explicit shard map.
    pub fn with_shards(engine: PrkbEngine<P>, map: ShardMap) -> Self {
        let config = engine.config;
        Self::from_parts(map, map.split(engine), None, config)
    }

    /// Wraps a recovered [`ShardedDurablePool`] and its one WAL-backed
    /// committer. A committed insert or delete is acked only after its one
    /// record is group-commit durable; a select's refinements are journaled
    /// before the ack and durable by the pool's next fsync (see
    /// [`flush_durable`](Self::flush_durable)). Over a `ShardMap::new(1)`
    /// pool this is the single-owner durable engine.
    pub fn durable(pool: ShardedDurablePool<P>) -> Self {
        let (map, engines, committer) = pool.into_parts();
        let config = engines.first().map(|e| e.config).unwrap_or_default();
        Self::from_parts(map, engines, Some(committer), config)
    }

    fn from_parts(
        map: ShardMap,
        engines: Vec<PrkbEngine<P>>,
        committer: Option<Committer<P>>,
        config: EngineConfig,
    ) -> Self {
        let mut attrs: Vec<AttrId> = engines.iter().flat_map(PrkbEngine::attrs).collect();
        attrs.sort_unstable();
        metrics::global().set_shards(map.shards() as u64);
        SessionScheduler {
            shards: engines.into_iter().map(Shard::new).collect(),
            map,
            attrs,
            seq: AtomicU64::new(0),
            config,
            committer,
        }
    }

    /// Runs `f` against the detached knowledge of `attrs`, holding each
    /// shard's lock only for checkout and checkin (two-phase, ascending
    /// shard-id order). Returns `f`'s result and the commit sequence number
    /// assigned at checkin. In durable pools the journaled ops are enqueued
    /// as one record before this returns, and fsync'd too if any of them is
    /// a fact.
    ///
    /// # Errors
    /// [`QueryError::AttrNotInitialized`] if any attribute is unknown (all
    /// knowledge is reattached), whatever `f` reports (the knowledge is
    /// still reattached — the core pipelines leave it untouched on abort),
    /// or [`DurableError`] when the durable pool fails.
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
        let held = self.reserve(self.map.group_sorted(&self.attrs), None, true);
        let held = held
            .ok()
            .flatten()
            .expect("own attributes, no deadline, waiting");
        f(&held.merged)
    }

    /// The one checkout every operation goes through: reserve `attrs`, run
    /// `f` outside every lock, then commit if `f` succeeded. A failing `f`
    /// (or a panicking one) releases the footprint uncommitted: no sequence
    /// number, no WAL record, no fsync wait. A successful one that changed
    /// nothing draws its number and journals nothing.
    ///
    /// `deadline` bounds the wait for the footprint, not `f`: a budget that
    /// expired while the session was parked fails with
    /// [`OracleError::DeadlineExceeded`] without running `f`, so a doomed
    /// operation never pins contended attributes. Expiry *during* `f` is the
    /// oracle layer's job ([`DeadlineOracle`] with the same instant).
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
        let groups = self.map.group_sorted(attrs);
        let mut held = (self.reserve(groups, deadline, true)?)
            .expect("a waiting reservation gets its footprint");
        let value = f(&mut held.merged)?;
        Ok((value, held.commit()?))
    }

    /// Phase 1: reserve and detach, shards strictly ascending, at most one
    /// shard mutex held at a time — deadlock-free by lock ordering. Every
    /// early return drops the [`Checkin`], which rolls the reservations so
    /// far back. Unless `wait`, a busy attribute ends the attempt: `None`.
    fn reserve(
        &self,
        groups: Vec<(usize, Vec<AttrId>)>,
        deadline: Option<Instant>,
        wait: bool,
    ) -> Result<Option<Checkin<'_, P>>, DurableError> {
        let mut held = Checkin {
            sched: self,
            parts: Vec::with_capacity(groups.len()),
            merged: PrkbEngine::new(self.config),
        };
        let mut wait_us = 0u64;
        for (sid, shard_attrs) in groups {
            let shard = &self.shards[sid];
            let reserve_start = Instant::now();
            let mut st = shard.lock();
            while let Some(&blocking) = shard_attrs.iter().find(|a| st.busy.contains(a)) {
                if !wait {
                    return Ok(None);
                }
                st = shard.wait_attr(st, blocking);
            }
            wait_us += reserve_start.elapsed().as_micros() as u64;
            let sub = st.engine.detach_attrs(&shard_attrs)?;
            st.busy.extend(shard_attrs.iter().copied());
            drop(st);
            held.merged.attach(sub);
            held.parts.push((sid, shard_attrs));
        }
        metrics::global().observe(HistogramId::ShardLockWaitUs, wait_us);
        if expired(deadline) {
            return Err(deadline_error());
        }
        Ok(Some(held))
    }

    /// Phase 2, the only split-and-reattach loop: a committed checkin first
    /// enqueues its one WAL record (if it changed anything) before freeing
    /// any attribute, so each attribute's WAL order is its commit order;
    /// then each part is checked in, ascending, the global sequence number
    /// drawn under the first shard's lock. Returns that number and the
    /// ticket to await — none for derived refinements that fit the tail.
    fn release_parts(
        &self,
        parts: &[(usize, Vec<AttrId>)],
        mut merged: PrkbEngine<P>,
        committed: bool,
    ) -> (u64, Option<GroupCommitTicket>) {
        // Journaled ops travel with the knowledge; aborted operations left
        // none (abort-safe pipelines).
        let ops = merged.take_ops();
        let ticket = (self.committer.as_ref())
            .filter(|_| committed)
            .and_then(|committer| committer.enqueue_journal(ops));
        let mut seq = 0u64;
        let last = parts.len().saturating_sub(1);
        for (i, (sid, shard_attrs)) in parts.iter().enumerate() {
            let sub = if i == last {
                std::mem::replace(&mut merged, PrkbEngine::new(self.config))
            } else {
                merged
                    .detach_attrs(shard_attrs)
                    .expect("footprint attrs present in merged sub-engine")
            };
            let shard = &self.shards[*sid];
            let mut st = shard.lock();
            if committed && i == 0 {
                seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            }
            st.engine.attach(sub);
            // Precise wakeups: only sessions parked on an attribute this
            // checkin actually freed.
            for a in shard_attrs {
                st.busy.remove(a);
                if let Some(cell) = st.waiters.get(a) {
                    cell.cv.notify_all();
                }
            }
        }
        if committed && parts.is_empty() {
            seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        }
        (seq, ticket)
    }

    /// Rotates the pool's checkpoint holding every attribute (a whole-table
    /// reservation), so it serializes exactly what the flushed WAL produced.
    /// Unforced (after a commit), only if the policy asks and no attribute
    /// is busy — a later commit retries; forced, it waits for them.
    fn rotate(&self, forced: bool) -> Result<(), DurableError> {
        let Some(committer) = &self.committer else {
            return Ok(());
        };
        if !forced && !committer.wants_checkpoint(&self.config) {
            return Ok(());
        }
        match self.reserve(self.map.group_sorted(&self.attrs), None, forced)? {
            Some(held) => committer.checkpoint(&held.merged),
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

    /// Hands the merged engine back for single-threaded use (shutdown). Owning `self` proves no checkout is outstanding — a
    /// `Checkin` borrows the scheduler. Durable pools flush their pending
    /// batches first.
    pub fn into_engine(self) -> PrkbEngine<P> {
        // The signature can't carry the flush error (shutdown proceeds
        // regardless — the WAL keeps whatever prefix made it to disk), but
        // it must not vanish silently: a failed final flush means the
        // deferred tail of refinements died with the process.
        if let Err(e) = self.flush_durable() {
            eprintln!("prkb: final durable flush failed during shutdown: {e}");
        }
        let mut merged = PrkbEngine::new(self.config);
        for shard in self.shards {
            let st = match shard.state.into_inner() {
                Ok(st) => st,
                Err(poisoned) => poisoned.into_inner(),
            };
            merged.attach(st.engine);
        }
        merged
    }
}

/// A reserved footprint: the detached knowledge of `parts`, merged into one
/// engine. Dropping it checks the knowledge back in uncommitted — the path
/// a failed, expired or panicking operation takes;
/// [`commit`](Checkin::commit) is the path a successful one takes.
struct Checkin<'a, P: SpPredicate + WireCodec> {
    sched: &'a SessionScheduler<P>,
    /// `(shard id, that shard's footprint attributes)`, ascending.
    parts: Vec<(usize, Vec<AttrId>)>,
    merged: PrkbEngine<P>,
}

impl<P: SpPredicate + WireCodec> Checkin<'_, P> {
    /// Moves the footprint out, leaving nothing for `Drop` to release.
    fn take(&mut self) -> (Vec<(usize, Vec<AttrId>)>, PrkbEngine<P>) {
        let merged = std::mem::replace(&mut self.merged, PrkbEngine::new(self.sched.config));
        (std::mem::take(&mut self.parts), merged)
    }

    /// Checks the footprint in as one committed operation, awaits
    /// group-commit durability of its one record when it journaled a fact
    /// or filled the un-synced tail, then lets a pool that crossed its
    /// checkpoint threshold rotate.
    fn commit(mut self) -> Result<u64, DurableError> {
        let sched = self.sched;
        let (parts, merged) = self.take();
        let (seq, ticket) = sched.release_parts(&parts, merged, true);
        if let (Some(committer), Some(ticket)) = (&sched.committer, ticket) {
            committer.wait_durable(ticket)?;
        }
        sched.rotate(false)?;
        Ok(seq)
    }
}

impl<P: SpPredicate + WireCodec> Drop for Checkin<'_, P> {
    fn drop(&mut self) {
        let (parts, merged) = self.take();
        // May run while `f` unwinds: a second panic would abort.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.sched.release_parts(&parts, merged, false);
        }));
    }
}

/// The three deadline-bounded operations a server dispatches (and the
/// durability suites drive). `deadline`
/// bounds the whole operation: the checkout wait and every oracle batch
/// check it, and expiry aborts with [`OracleError::DeadlineExceeded`]
/// leaving the KB untouched. (Insert routing passes `oracle` through as is,
/// so for whole-table operations the only deadline point is checkout.)
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
        let session = SessionOracle::new(oracle);
        let bounded = DeadlineOracle::new(&session, deadline);
        self.checkout(&attrs, deadline, |sub| {
            sub.try_select_where(&bounded, preds, rng)
        })
    }

    /// Insert routing across every indexed attribute (whole-table
    /// footprint). An oracle failure commits nothing.
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
        self.checkout(&self.attrs, deadline, |engine| engine.try_insert(oracle, t))
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
    fn deadline_oracle_cuts_off_between_batches() {
        let oracle = PlainOracle::single_column((0..10).collect());
        let session = SessionOracle::new(&oracle);
        let live = DeadlineOracle::new(&session, None);
        assert!(live
            .try_eval(&Predicate::cmp(0, ComparisonOp::Lt, 5), 0)
            .is_ok());
        assert_eq!(live.qpf_uses(), 1, "passthrough counter");

        let past = Instant::now() - std::time::Duration::from_millis(1);
        let dead = DeadlineOracle::new(&session, Some(past));
        let mut out = Vec::new();
        assert!(matches!(
            dead.try_eval(&Predicate::cmp(0, ComparisonOp::Lt, 5), 0),
            Err(OracleError::DeadlineExceeded)
        ));
        assert!(matches!(
            dead.try_eval_batch(&Predicate::cmp(0, ComparisonOp::Lt, 5), &[1, 2], &mut out),
            Err(OracleError::DeadlineExceeded)
        ));
        assert_eq!(session.qpf_uses(), 1, "no uses spent after expiry");
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
    fn cross_shard_footprint_reserves_and_releases() {
        // 8 shards, 6 attributes: conjunction footprints span shards and
        // must come back fully reattached.
        let columns: Vec<Vec<u64>> = (0..6)
            .map(|a| (0..100).map(|i| (i * (7 + a)) % 100).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let sched = SessionScheduler::with_shards(engine_with(&oracle, 6), ShardMap::new(8));
        assert_eq!(sched.shards.len(), 8);
        let attrs: Vec<AttrId> = (0..6).collect();
        let session = SessionOracle::new(&oracle);
        let preds: Vec<Predicate> = (0..6)
            .map(|a| Predicate::cmp(a, ComparisonOp::Lt, 60))
            .collect();
        let (sel, seq) = sched
            .with_detached(&attrs, |sub| {
                sub.try_select_where(&session, &preds, &mut StdRng::seed_from_u64(3))
            })
            .expect("conjunction across shards");
        assert_eq!(seq, 1);
        assert!(!sel.tuples.is_empty());
        // Every attribute must be queryable again afterwards.
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
    fn exclusive_merges_and_splits_across_shards() {
        let columns: Vec<Vec<u64>> = (0..4)
            .map(|a| (0..80).map(|i| (i * (3 + a)) % 80).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let sched = SessionScheduler::with_shards(engine_with(&oracle, 4), ShardMap::new(8));
        let ((), seq) = sched
            .with_exclusive(|engine| engine.delete(5))
            .expect("delete");
        assert_eq!(seq, 1);
        sched.inspect(|engine| {
            assert_eq!(engine.attrs().count(), 4, "all attrs back after exclusive");
        });
        let engine = sched.into_engine();
        assert_eq!(engine.attrs().count(), 4);
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
            let sched = SessionScheduler::with_shards(engine_with(&oracle, 4), ShardMap::new(8));
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&sched)));
            assert!(unwound.is_err(), "{name}: the panic propagates");
            for shard in &sched.shards {
                assert!(shard.lock().busy.is_empty(), "{name}: attribute leaked");
            }
            sched.inspect(|engine| assert_eq!(engine.attrs().count(), 4, "{name}"));
            let ((), seq) = sched.with_exclusive(|e| e.delete(1)).expect("delete");
            assert_eq!(seq, 1, "{name}: the unwound operation drew no number");
        }
    }

    /// Spins until some session is parked on `attr` — the deterministic
    /// "it is waiting" signal (a checkout that wrongly ran would never park).
    fn await_parked(sched: &SessionScheduler<Predicate>, attr: AttrId) {
        let give_up = Instant::now() + std::time::Duration::from_secs(10);
        while !sched.shards[0].lock().waiters.contains_key(&attr) {
            assert!(Instant::now() < give_up, "nobody parked on attr {attr}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn exclusive_waits_for_held_attr_and_holds_off_later_checkouts() {
        use std::sync::mpsc::channel;
        let oracle = PlainOracle::from_columns(vec![(0..40).collect(); 2]);
        // One shard, so attributes 0 and 1 share it.
        let sched = SessionScheduler::with_shards(engine_with(&oracle, 2), ShardMap::new(1));
        let order = Mutex::new(Vec::new());
        let (sched, order) = (&sched, &order);
        let (a_held, a_is_held) = channel();
        let (release_a, a_released) = channel::<()>();
        let (x_runs, x_is_running) = channel();
        let (release_x, x_released) = channel::<()>();
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
            s.spawn(move || {
                sched.with_exclusive(|_| {
                    order.lock().expect("order").push("x-start");
                    x_runs.send(()).expect("main listens");
                    x_released.recv().expect("main releases");
                    order.lock().expect("order").push("x-end");
                })
            });
            await_parked(sched, 0);
            release_a.send(()).expect("a's holder listens");
            x_is_running.recv().expect("exclusive got the pool");
            s.spawn(move || {
                sched.with_detached(&[1], |_| {
                    order.lock().expect("order").push("b");
                    Ok(())
                })
            });
            await_parked(sched, 1);
            release_x.send(()).expect("exclusive listens");
        });
        assert_eq!(
            *order.lock().expect("order"),
            ["a", "x-start", "x-end", "b"]
        );
    }
}
