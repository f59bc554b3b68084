//! The PRKB engine: per-attribute knowledge bases behind one façade.
//!
//! This is the service-provider-side entry point a deployment would embed:
//! it owns one [`Knowledge`] per indexed attribute, hands every select — a
//! list of trapdoors read as a conjunction, be it a comparison, a BETWEEN,
//! a range or a SQL `WHERE` clause — to the one MD executor, and keeps the
//! index maintained across inserts and deletes.

use crate::insert::{apply_insert, decide_insert, InsertOutcome};
use crate::knowledge::Knowledge;
use crate::md::{self, MdDim, MdUpdatePolicy};
use crate::metrics::{self, QueryKind};
use crate::selection::Selection;
use crate::traits::SpPredicate;
use prkb_edbms::{AttrId, OracleError, PredicateKind, SelectionOracle, TupleId};
use rand::Rng;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Why a fallible engine entry point gave up.
#[derive(Debug)]
pub enum QueryError {
    /// The SP↔TM boundary failed (transport, decryption, circuit breaker).
    Oracle(OracleError),
    /// A trapdoor references an attribute that was never initialized —
    /// indexing decisions are made at upload time in this engine.
    AttrNotInitialized(AttrId),
    /// An insert named a tuple some attribute already indexes, placed or
    /// parked (every uploaded row is indexed by `init_attr`).
    AlreadyIndexed(TupleId),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Oracle(e) => write!(f, "oracle failure: {e}"),
            QueryError::AttrNotInitialized(a) => write!(f, "attribute {a} not initialized"),
            QueryError::AlreadyIndexed(t) => write!(f, "tuple {t} is already indexed"),
        }
    }
}

impl Error for QueryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QueryError::Oracle(e) => Some(e),
            QueryError::AttrNotInitialized(_) | QueryError::AlreadyIndexed(_) => None,
        }
    }
}

impl From<OracleError> for QueryError {
    fn from(e: OracleError) -> Self {
        QueryError::Oracle(e)
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// How queries refine the index (`updatePRKB`): under this policy, or,
    /// with `None` — the paper's "static PRKB" experiments — not at all,
    /// for any query kind.
    pub refine: Option<MdUpdatePolicy>,
    /// Checkpoint rotation policy: rotate once the active write-ahead log
    /// holds at least this many records (`0` disables count-based
    /// rotation). This and the two fields below are read by the
    /// durability layer (a durable
    /// [`SessionScheduler`](crate::scheduler::SessionScheduler) and the
    /// pool committer it drives); a plain [`PrkbEngine`] never logs or
    /// checkpoints.
    pub checkpoint_wal_records: u64,
    /// Checkpoint rotation policy: rotate once the active write-ahead log
    /// exceeds this many bytes (`0` disables size-based rotation).
    pub checkpoint_wal_bytes: u64,
    /// Group commit: the most refinement records one fsync covers. A flush
    /// leader takes at most this many pending payloads per batch, bounding
    /// tail latency and crash-exposure granularity under burst — and it is
    /// the most deferred refinement records a pool's un-synced tail holds:
    /// the select that brings the tail to this many waits out its flush.
    /// Clamped to at least 1.
    pub group_commit_records: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            refine: Some(MdUpdatePolicy::PartialOnly),
            checkpoint_wal_records: 4096,
            checkpoint_wal_bytes: 4 << 20,
            group_commit_records: 32,
        }
    }
}

/// What the infallible entry points do with a failure: panic with it.
fn or_panic<T>(result: Result<T, QueryError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

/// The `queries_*` counter a select bumps, read off its trapdoors (sorted
/// by attribute): one is a comparison or a BETWEEN by its SP-visible kind;
/// only comparisons, exactly two on every attribute, are a box (`md`);
/// anything else, no trapdoor included, is a conjunction.
fn query_kind<O: SelectionOracle>(oracle: &O, by_attr: &[&O::Pred]) -> QueryKind
where
    O::Pred: SpPredicate,
{
    let comparison = |p: &&O::Pred| oracle.kind_of(p) == PredicateKind::Comparison;
    let pairs = || {
        by_attr
            .chunk_by(|a, b| a.attr() == b.attr())
            .all(|run| run.len() == 2)
    };
    match by_attr {
        [one] if comparison(one) => QueryKind::Comparison,
        [_] => QueryKind::Between,
        [_, ..] if by_attr.iter().all(comparison) && pairs() => QueryKind::Md,
        _ => QueryKind::Conjunction,
    }
}

/// The per-table PRKB engine.
#[derive(Debug, Clone)]
pub struct PrkbEngine<P> {
    kbs: HashMap<AttrId, Knowledge<P>>,
    /// Engine configuration (mutable between queries).
    pub config: EngineConfig,
}

impl<P: SpPredicate> PrkbEngine<P> {
    /// Creates an engine with no attribute indexed yet.
    pub fn new(config: EngineConfig) -> Self {
        PrkbEngine {
            kbs: HashMap::new(),
            config,
        }
    }

    /// `initPRKB` for one attribute over a table of `n` tuples. Call once
    /// per attribute, right after the encrypted table is uploaded.
    pub fn init_attr(&mut self, attr: AttrId, n: usize) {
        self.kbs.insert(attr, Knowledge::init(n));
    }

    /// The knowledge base for `attr`, if initialized.
    pub fn knowledge(&self, attr: AttrId) -> Option<&Knowledge<P>> {
        self.kbs.get(&attr)
    }

    /// Attributes currently indexed.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.kbs.keys().copied()
    }

    /// Processes a single-trapdoor selection: [`select_where`](Self::select_where)
    /// over `pred` alone.
    ///
    /// # Panics
    /// As [`select_where`](Self::select_where).
    pub fn select<O, R>(&mut self, oracle: &O, pred: &P, rng: &mut R) -> Selection
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        self.select_where(oracle, std::slice::from_ref(pred), rng)
    }

    /// Fallible twin of [`select`](Self::select).
    ///
    /// # Errors
    /// As [`try_select_where`](Self::try_select_where).
    pub fn try_select<O, R>(
        &mut self,
        oracle: &O,
        pred: &P,
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        self.try_select_where(oracle, std::slice::from_ref(pred), rng)
    }

    /// Processes a selection: a list of trapdoors, read as a conjunction.
    ///
    /// Infallible wrapper over [`try_select_where`](Self::try_select_where).
    ///
    /// # Panics
    /// Panics if a trapdoor's attribute was never initialized — indexing
    /// decisions are made at upload time in this engine — or on oracle
    /// failure.
    pub fn select_where<O, R>(&mut self, oracle: &O, preds: &[P], rng: &mut R) -> Selection
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        or_panic(self.try_select_where(oracle, preds, rng))
    }

    /// Processes a selection — a comparison, a BETWEEN, a d-dimensional
    /// box, a parsed SQL conjunction — as one run of the MD executor
    /// (paper §6.2). The trapdoors are grouped by attribute, ascending, in
    /// input order within one; each attribute is one dimension holding all
    /// of its trapdoors, whose SP-visible kinds pick their locators
    /// (`QFilter` for a comparison, the hunt for a BETWEEN), and the walk
    /// tests only candidates no dimension has ruled out. With no trapdoor
    /// it answers every row the oracle calls live, at no QPF.
    ///
    /// # Errors
    /// [`QueryError::AttrNotInitialized`] for an unindexed attribute,
    /// before anything is spent; [`QueryError::Oracle`] on SP↔TM failure.
    /// Abort-safe: the executor evaluates every trapdoor before committing
    /// any refinement, so on error the knowledge is untouched.
    pub fn try_select_where<O, R>(
        &mut self,
        oracle: &O,
        preds: &[P],
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        let mut by_attr: Vec<&P> = preds.iter().collect();
        by_attr.sort_by_key(|p| p.attr());
        let kind = query_kind(oracle, &by_attr);
        // One dimension per run of equal attributes, each borrowing that
        // attribute's knowledge once found.
        let mut dims: Vec<(&[&P], Option<&mut Knowledge<P>>)> = by_attr
            .chunk_by(|a, b| a.attr() == b.attr())
            .map(|run| (run, None))
            .collect();
        for (attr, kb) in &mut self.kbs {
            if let Ok(i) = dims.binary_search_by_key(attr, |(run, _)| run[0].attr()) {
                dims[i].1 = Some(kb);
            }
        }
        let mut md_dims: Vec<MdDim<P>> = Vec::with_capacity(dims.len());
        for (run, slot) in dims {
            let knowledge = slot.ok_or(QueryError::AttrNotInitialized(run[0].attr()))?;
            md_dims.push(MdDim {
                knowledge,
                preds: run,
            });
        }
        let sel = md::run(&mut md_dims, oracle, rng, self.config.refine)?;
        metrics::global().record_query(kind, &sel.stats);
        Ok(sel)
    }

    /// A d-dimensional box as two comparison trapdoors per dimension: the
    /// pairs flattened into [`try_select_where`](Self::try_select_where).
    ///
    /// # Errors
    /// As [`try_select_where`](Self::try_select_where).
    #[doc(hidden)]
    pub fn try_select_range_md<O, R>(
        &mut self,
        oracle: &O,
        dims: &[[P; 2]],
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        self.try_select_where(oracle, dims.as_flattened(), rng)
    }

    /// Checks the named attributes' knowledge **out** of this engine into a
    /// detached sub-engine (same configuration), for a concurrent scheduler
    /// that wants to hold the shared engine's lock only while moving
    /// knowledge, not while spending QPF uses on evaluation.
    ///
    /// The returned engine owns exactly the deduplicated `attrs`; this
    /// engine no longer knows them until [`attach`](Self::attach) moves the
    /// (possibly refined) knowledge back. Callers are responsible for
    /// tracking which attributes are detached — a second `detach_attrs` on
    /// the same attribute reports it as uninitialized.
    ///
    /// # Errors
    /// [`QueryError::AttrNotInitialized`] if any attribute is absent; no
    /// knowledge is moved in that case.
    pub(crate) fn detach_attrs(&mut self, attrs: &[AttrId]) -> Result<PrkbEngine<P>, QueryError> {
        let mut wanted: Vec<AttrId> = attrs.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        for &attr in &wanted {
            if !self.kbs.contains_key(&attr) {
                return Err(QueryError::AttrNotInitialized(attr));
            }
        }
        let mut sub = PrkbEngine::new(self.config);
        for attr in wanted {
            let kb = self.kbs.remove(&attr).expect("checked above");
            sub.kbs.insert(attr, kb);
        }
        Ok(sub)
    }

    /// Moves every attribute of a detached sub-engine (see
    /// [`detach_attrs`](Self::detach_attrs)) back into this engine,
    /// replacing any same-named attribute wholesale.
    pub(crate) fn attach(&mut self, sub: PrkbEngine<P>) {
        self.kbs.extend(sub.kbs);
    }

    /// Routes a freshly inserted tuple into every indexed attribute
    /// (paper §7.1; O(β lg k) QPF uses in total).
    ///
    /// Infallible wrapper over [`try_insert`](Self::try_insert).
    ///
    /// # Panics
    /// Panics on oracle failure.
    pub fn insert<O>(&mut self, oracle: &O, t: TupleId) -> Vec<(AttrId, InsertOutcome)>
    where
        O: SelectionOracle<Pred = P>,
    {
        or_panic(self.try_insert(oracle, t))
    }

    /// Fallible twin of [`insert`](Self::insert).
    ///
    /// # Errors
    /// [`QueryError::AlreadyIndexed`] when any attribute already indexes
    /// `t`, placed or parked, before any QPF is spent;
    /// [`QueryError::Oracle`] on SP↔TM failure. Abort-safe: routing
    /// decisions for *all* attributes are computed read-only first; the
    /// knowledge bases are mutated only after every oracle call of the
    /// whole insert has succeeded.
    pub fn try_insert<O>(
        &mut self,
        oracle: &O,
        t: TupleId,
    ) -> Result<Vec<(AttrId, InsertOutcome)>, QueryError>
    where
        O: SelectionOracle<Pred = P>,
    {
        if self.kbs.values().any(|kb| kb.indexes(t)) {
            return Err(QueryError::AlreadyIndexed(t));
        }
        // Deterministic attribute order keeps the oracle call sequence (and
        // with it any injected-fault schedule) reproducible across runs.
        let qpf_before = oracle.qpf_uses();
        let mut attrs: Vec<AttrId> = self.kbs.keys().copied().collect();
        attrs.sort_unstable();

        // Decision phase: read-only, all oracle calls happen here.
        let mut outcomes: Vec<(AttrId, InsertOutcome)> = Vec::with_capacity(attrs.len());
        for &attr in &attrs {
            outcomes.push((attr, decide_insert(&self.kbs[&attr], oracle, t)?));
        }

        // Commit phase: infallible.
        for &(attr, outcome) in &outcomes {
            let kb = self.kbs.get_mut(&attr).expect("attr enumerated above");
            apply_insert(kb, t, outcome);
        }
        let parked = outcomes
            .iter()
            .any(|(_, o)| matches!(o, InsertOutcome::Parked { .. }));
        metrics::global().record_insert(oracle.qpf_uses().saturating_sub(qpf_before), parked);
        Ok(outcomes)
    }

    /// Removes a deleted tuple from every indexed attribute (paper §7.2).
    ///
    /// The knowledge base is the authority on which tuples exist: every
    /// select answers for exactly the tuples it indexes, placed or parked,
    /// and never asks the oracle whether one is still live. So whoever
    /// tombstones a row in the table calls this in the same step, as
    /// `SecureDb::delete` does.
    pub fn delete(&mut self, t: TupleId) {
        for kb in self.kbs.values_mut() {
            kb.delete(t);
        }
    }

    /// Turns op journaling on or off for every attribute's knowledge base
    /// (see [`Knowledge::set_recording`]). Attributes initialized later
    /// start with journaling off; durable wrappers re-enable it after each
    /// [`init_attr`](Self::init_attr).
    pub(crate) fn set_recording(&mut self, on: bool) {
        for kb in self.kbs.values_mut() {
            kb.set_recording(on);
        }
    }

    /// Drains every attribute's op journal, attribute-sorted (ops across
    /// attributes are independent — each applies to its own knowledge base —
    /// so sorting keeps the drained sequence deterministic while preserving
    /// each attribute's commit order).
    pub(crate) fn take_ops(&mut self) -> Vec<(AttrId, crate::knowledge::RefinementOp<P>)> {
        let mut attrs: Vec<AttrId> = self.kbs.keys().copied().collect();
        attrs.sort_unstable();
        let mut out = Vec::new();
        for attr in attrs {
            let kb = self.kbs.get_mut(&attr).expect("attr enumerated above");
            out.extend(kb.take_ops().into_iter().map(|op| (attr, op)));
        }
        out
    }

    /// Mutable knowledge access for the durability layer's replay path.
    pub(crate) fn knowledge_mut(&mut self, attr: AttrId) -> Option<&mut Knowledge<P>> {
        self.kbs.get_mut(&attr)
    }

    /// Installs a knowledge base for `attr`, replacing any it had: one
    /// [`snapshot::load`](crate::snapshot::load) restored after a restart,
    /// or a segment's image.
    pub fn restore_attr(&mut self, attr: AttrId, kb: Knowledge<P>) {
        self.kbs.insert(attr, kb);
    }

    /// Total index storage across attributes (Table 3 accounting).
    pub fn storage_bytes(&self) -> usize {
        self.kbs.values().map(Knowledge::storage_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::snapshot;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine_2d(n: usize, seed: u64) -> (PrkbEngine<Predicate>, PlainOracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..n).map(|_| rng.gen_range(0..1000u64)).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let mut engine = PrkbEngine::new(EngineConfig::default());
        engine.init_attr(0, n);
        engine.init_attr(1, n);
        (engine, oracle)
    }

    #[test]
    fn select_dispatches_comparison_and_between() {
        let (mut engine, oracle) = engine_2d(500, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let c = Predicate::cmp(0, ComparisonOp::Lt, 300);
        assert_eq!(
            engine.select(&oracle, &c, &mut rng).sorted(),
            oracle.expected_select(&c)
        );
        let b = Predicate::between(1, 100, 400);
        assert_eq!(
            engine.select(&oracle, &b, &mut rng).sorted(),
            oracle.expected_select(&b)
        );
    }

    #[test]
    fn insert_and_delete_maintain_all_attrs() {
        let (mut engine, mut oracle) = engine_2d(300, 5);
        let mut rng = StdRng::seed_from_u64(6);
        // Warm both attributes.
        for bound in [100u64, 500, 900] {
            for attr in 0..2u32 {
                let p = Predicate::cmp(attr, ComparisonOp::Lt, bound);
                engine.select(&oracle, &p, &mut rng);
            }
        }
        let t = oracle.insert(&[450, 777]);
        let outcomes = engine.insert(&oracle, t);
        assert_eq!(outcomes.len(), 2);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 460);
        assert_eq!(
            engine.select(&oracle, &p, &mut rng).sorted(),
            oracle.expected_select(&p)
        );

        oracle.delete(t);
        engine.delete(t);
        assert_eq!(
            engine.select(&oracle, &p, &mut rng).sorted(),
            oracle.expected_select(&p)
        );
    }

    /// A multi-dimensional select reads a clear bit of another dimension's
    /// sieve as "known false there" (`md::exec`), which holds because every
    /// attribute indexes the same tuples: an insert reaches every knowledge
    /// base, placed or parked, a repeated one is refused before anything
    /// changes, and a delete leaves none behind.
    #[test]
    fn every_attribute_indexes_the_same_tuples() {
        let (mut engine, mut oracle) = engine_2d(400, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let mut live: Vec<TupleId> = (0..400).collect();
        let mut parked = 0;
        for round in 0..80u32 {
            let (attr, lo) = (round % 2, rng.gen_range(0..800u64));
            match round % 4 {
                // BETWEEN cuts leave windows no separator resolves, so
                // some inserts park.
                0 | 1 => {
                    engine.select(&oracle, &Predicate::between(attr, lo, lo + 150), &mut rng);
                }
                2 => {
                    let t = oracle.insert(&[rng.gen_range(0..1000), rng.gen_range(0..1000)]);
                    let outcomes = engine.insert(&oracle, t);
                    parked += outcomes
                        .iter()
                        .filter(|(_, o)| matches!(o, InsertOutcome::Parked { .. }))
                        .count();
                    let again = engine.try_insert(&oracle, t);
                    assert!(matches!(again, Err(QueryError::AlreadyIndexed(_))));
                    live.push(t);
                }
                _ => {
                    let t = live.swap_remove(rng.gen_range(0..live.len()));
                    oracle.delete(t);
                    engine.delete(t);
                }
            }
            for t in 0..=oracle.n_slots() as TupleId {
                let mut indexed = engine
                    .attrs()
                    .map(|a| engine.knowledge(a).unwrap().indexes(t));
                let first = indexed.next().unwrap();
                assert!(indexed.all(|i| i == first), "round {round}, tuple {t}");
                assert_eq!(first, live.contains(&t), "round {round}, tuple {t}");
            }
            let boxed = [
                Predicate::cmp(0, ComparisonOp::Ge, lo),
                Predicate::cmp(0, ComparisonOp::Lt, lo + 300),
                Predicate::cmp(1, ComparisonOp::Ge, 1000 - lo),
                Predicate::cmp(1, ComparisonOp::Lt, 1200 - lo),
            ];
            let sel = engine.select_where(&oracle, &boxed, &mut rng);
            assert_eq!(
                sel.sorted(),
                oracle.expected_conjunction(&boxed),
                "round {round}"
            );
        }
        assert!(parked > 0, "some insert parks");
    }

    #[test]
    fn storage_accounting_scales_with_k() {
        let (mut engine, oracle) = engine_2d(1000, 7);
        let base = engine.storage_bytes();
        let mut rng = StdRng::seed_from_u64(8);
        for bound in [100u64, 300, 500, 700, 900] {
            engine.select(
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, bound),
                &mut rng,
            );
        }
        assert!(engine.storage_bytes() > base);
    }

    #[test]
    fn select_conjunction_mixes_shapes() {
        let (mut engine, oracle) = engine_2d(600, 11);
        let mut rng = StdRng::seed_from_u64(12);
        // 2 range dims + a BETWEEN + a lone comparison on attr 0.
        let preds = vec![
            Predicate::cmp(0, ComparisonOp::Gt, 100),
            Predicate::cmp(0, ComparisonOp::Lt, 800),
            Predicate::cmp(1, ComparisonOp::Gt, 200),
            Predicate::cmp(1, ComparisonOp::Lt, 900),
            Predicate::between(0, 150, 700),
            Predicate::cmp(1, ComparisonOp::Ge, 250),
        ];
        let sel = engine.select_where(&oracle, &preds, &mut rng);
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
        // Repeat: must stay correct with the now-warmed index.
        let sel = engine.select_where(&oracle, &preds, &mut rng);
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
    }

    #[test]
    fn select_conjunction_empty_is_full_scan() {
        let (mut engine, oracle) = engine_2d(50, 13);
        let mut rng = StdRng::seed_from_u64(14);
        let sel = engine.select_where(&oracle, &[], &mut rng);
        assert_eq!(sel.tuples.len(), 50);
        assert_eq!(sel.stats.qpf_uses, 0);
    }

    #[test]
    fn select_conjunction_many_predicates_per_attr() {
        // Regression (found by the `differ` harness): four comparisons on
        // one attribute must not build two MD dims over the same knowledge.
        let (mut engine, oracle) = engine_2d(300, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let preds = vec![
            Predicate::cmp(1, ComparisonOp::Gt, 100),
            Predicate::cmp(1, ComparisonOp::Lt, 900),
            Predicate::cmp(1, ComparisonOp::Ge, 200),
            Predicate::cmp(1, ComparisonOp::Le, 800),
            Predicate::cmp(0, ComparisonOp::Gt, 50),
            Predicate::cmp(0, ComparisonOp::Lt, 950),
        ];
        let sel = engine.select_where(&oracle, &preds, &mut rng);
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
    }

    #[test]
    fn select_conjunction_same_direction_pair() {
        // Two same-direction comparisons on one attribute are still a valid
        // conjunction (not a range) and must evaluate correctly.
        let (mut engine, oracle) = engine_2d(400, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let preds = vec![
            Predicate::cmp(0, ComparisonOp::Lt, 700),
            Predicate::cmp(0, ComparisonOp::Lt, 300),
            Predicate::cmp(1, ComparisonOp::Gt, 100),
            Predicate::cmp(1, ComparisonOp::Gt, 400),
        ];
        let sel = engine.select_where(&oracle, &preds, &mut rng);
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
    }

    #[test]
    fn detach_evaluate_attach_matches_inline() {
        // The scheduler's lock discipline: queries run on a detached
        // sub-engine and the refined knowledge is attached back. Results and
        // QPF must match the inline path exactly.
        let (mut engine, oracle) = engine_2d(400, 17);
        let (mut inline_engine, inline_oracle) = engine_2d(400, 17);
        for (i, bound) in [120u64, 640, 300, 880, 300].into_iter().enumerate() {
            let p = Predicate::cmp((i % 2) as u32, ComparisonOp::Lt, bound);
            let mut sub = engine.detach_attrs(&[p.attr()]).expect("detach");
            assert!(
                engine.knowledge(p.attr()).is_none(),
                "knowledge moved out while detached"
            );
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let sel = sub.try_select(&oracle, &p, &mut rng).expect("select");
            engine.attach(sub);
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let want = inline_engine
                .try_select(&inline_oracle, &p, &mut rng)
                .expect("inline");
            assert_eq!(sel.sorted(), want.sorted());
            assert_eq!(sel.stats.qpf_uses, want.stats.qpf_uses);
            engine
                .knowledge(p.attr())
                .expect("attached back")
                .validate()
                .expect("valid after attach");
        }
    }

    #[test]
    fn detach_missing_attr_moves_nothing() {
        let (mut engine, _) = engine_2d(100, 19);
        let err = engine.detach_attrs(&[0, 7]).expect_err("attr 7 missing");
        assert!(matches!(err, QueryError::AttrNotInitialized(7)));
        assert!(engine.knowledge(0).is_some(), "attr 0 must not be stranded");
    }

    fn range(attr: u32, lo: u64, hi: u64) -> [Predicate; 2] {
        [
            Predicate::cmp(attr, ComparisonOp::Gt, lo),
            Predicate::cmp(attr, ComparisonOp::Lt, hi),
        ]
    }

    /// The knowledge base is the authority on which tuples exist: a row
    /// tombstoned in the table but still indexed gets one answer from every
    /// shape — one comparison, a 1-D range, a 2-D range.
    #[test]
    fn a_tombstoned_but_indexed_row_gets_one_answer() {
        let (mut engine, mut oracle) = engine_2d(600, 23);
        let mut rng = StdRng::seed_from_u64(24);
        for bound in [150u64, 450, 700, 300] {
            for attr in 0..2 {
                engine.select(
                    &oracle,
                    &Predicate::cmp(attr, ComparisonOp::Lt, bound),
                    &mut rng,
                );
            }
        }
        let dims = [range(0, 200, 600), range(1, 300, 700)];
        let inside = |t: TupleId| {
            let (x, y) = (oracle.value(0, t), oracle.value(1, t));
            (201..600).contains(&x) && (301..700).contains(&y)
        };
        let t = (0..600)
            .find(|&t| inside(t))
            .expect("some row in both ranges");
        oracle.delete(t);
        let answers = [
            engine.select(&oracle, &dims[0][0], &mut rng),
            engine.select_where(&oracle, &dims[0], &mut rng),
            engine.select_where(&oracle, dims.as_flattened(), &mut rng),
        ];
        for (i, sel) in answers.iter().enumerate() {
            assert!(
                sel.tuples.contains(&t),
                "answer {i} drops the indexed row {t}"
            );
        }
        // Once the engine is told, no shape answers for it.
        engine.delete(t);
        let sel = engine.select_where(&oracle, dims.as_flattened(), &mut rng);
        assert_eq!(
            sel.sorted(),
            oracle.expected_conjunction(dims.as_flattened())
        );
    }

    /// The `queries_*` counter a select bumps is read off its trapdoors:
    /// one comparison, one BETWEEN, a box of two comparisons per attribute
    /// (in any attribute order), and everything else.
    #[test]
    fn the_query_kind_is_derived_from_the_trapdoors() {
        let (mut engine, oracle) = engine_2d(300, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let between = Predicate::between(1, 100, 400);
        let cases = [
            (
                vec![Predicate::cmp(0, ComparisonOp::Lt, 500)],
                QueryKind::Comparison,
                Metric::QueriesComparison,
            ),
            (vec![between], QueryKind::Between, Metric::QueriesBetween),
            (
                [range(1, 300, 700), range(0, 200, 600)].concat(),
                QueryKind::Md,
                Metric::QueriesMd,
            ),
            (
                [&range(0, 200, 600)[..], &[between]].concat(),
                QueryKind::Conjunction,
                Metric::QueriesConjunction,
            ),
        ];
        let kind = |preds: &[Predicate]| {
            let mut by_attr: Vec<&Predicate> = preds.iter().collect();
            by_attr.sort_by_key(|p| p.attr());
            query_kind(&oracle, &by_attr)
        };
        for (preds, want, counter) in &cases {
            assert_eq!(kind(preds), *want, "{preds:?}");
            // Other tests share the global registry: the counter only has
            // to move.
            let before = metrics::global().get(*counter);
            engine.select_where(&oracle, preds, &mut rng);
            assert!(metrics::global().get(*counter) > before, "{want:?}");
        }
        // The rule's edges: no trapdoor, a lone half-open dimension beside a
        // pair, and three comparisons on one attribute are conjunctions.
        let lt = Predicate::cmp(0, ComparisonOp::Lt, 9);
        for preds in [
            vec![],
            [
                &range(0, 1, 9)[..],
                &[Predicate::cmp(1, ComparisonOp::Gt, 4)],
            ]
            .concat(),
            [&range(0, 1, 9)[..], &[lt]].concat(),
        ] {
            assert_eq!(kind(&preds), QueryKind::Conjunction, "{preds:?}");
        }
    }

    /// Counts the oracle calls that carry no tuple.
    struct EmptyBatches<'a> {
        inner: &'a PlainOracle,
        empty: std::cell::Cell<u64>,
    }

    impl SelectionOracle for EmptyBatches<'_> {
        type Pred = Predicate;

        fn try_eval(&self, pred: &Predicate, t: TupleId) -> Result<bool, OracleError> {
            self.inner.try_eval(pred, t)
        }

        fn try_eval_batch(
            &self,
            pred: &Predicate,
            tuples: &[TupleId],
            out: &mut Vec<bool>,
        ) -> Result<(), OracleError> {
            if tuples.is_empty() {
                self.empty.set(self.empty.get() + 1);
            }
            self.inner.try_eval_batch(pred, tuples, out)
        }

        fn kind_of(&self, pred: &Predicate) -> PredicateKind {
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

    /// No select kind issues a zero-length oracle batch — with an empty
    /// overflow, and with parked rows.
    #[test]
    fn no_select_kind_issues_an_empty_batch() {
        let (mut engine, mut plain) = engine_2d(500, 25);
        let mut rng = StdRng::seed_from_u64(26);
        for round in 0..2 {
            let parked = engine.knowledge(1).expect("indexed").overflow().len();
            assert_eq!(parked > 0, round == 1, "round 1 runs with an overflow");
            let oracle = EmptyBatches {
                inner: &plain,
                empty: std::cell::Cell::new(0),
            };
            let dims = [range(0, 100 + round, 700), range(1, 250, 800 - round)];
            let cmp = Predicate::cmp(0, ComparisonOp::Ge, 420 + round);
            let between = Predicate::between(1, 330 + round, 610);
            let conjunction: Vec<Predicate> = [&dims[0][..], &dims[1][..], &[between]].concat();
            let kinds = [
                engine.select(&oracle, &cmp, &mut rng),
                engine.select(&oracle, &between, &mut rng),
                engine.select_where(&oracle, &dims[0], &mut rng),
                engine.select_where(&oracle, dims.as_flattened(), &mut rng),
                engine.select_where(&oracle, &conjunction, &mut rng),
            ];
            assert!(kinds.iter().all(|sel| sel.stats.qpf_uses > 0));
            assert_eq!(oracle.empty.get(), 0, "round {round}");
            // Between rounds: late rows arrive parked, unplaced in every
            // attribute.
            for v in [290u64, 300, 700] {
                let t = plain.insert(&[v, v]);
                for attr in 0..2 {
                    let kb = engine.knowledge_mut(attr).expect("indexed");
                    kb.park(t, 0, kb.k() - 1);
                }
            }
        }
    }

    /// A query with no trapdoor gets one answer from both entry points that
    /// take a list: every live row, at no QPF — not a panic, and not the
    /// deleted row.
    #[test]
    fn zero_dimension_queries_get_one_answer() {
        let (mut engine, mut oracle) = engine_2d(40, 27);
        let mut rng = StdRng::seed_from_u64(28);
        oracle.delete(7);
        engine.delete(7);
        let live: Vec<TupleId> = (0..40).filter(|&t| t != 7).collect();
        let answers = [
            engine.select_where(&oracle, &[], &mut rng),
            engine
                .try_select_range_md(&oracle, &[], &mut rng)
                .expect("no trapdoor, nothing to fail"),
        ];
        for (i, sel) in answers.iter().enumerate() {
            assert_eq!(sel.sorted(), live, "entry point {i}");
            assert_eq!(sel.stats.qpf_uses, 0, "entry point {i}");
        }
    }

    /// Inserting a tuple some attribute already indexes — placed since
    /// `init_attr`, or parked in one attribute only — is refused before any
    /// QPF is spent, and every knowledge base keeps its bytes.
    #[test]
    fn an_indexed_tuple_is_refused_before_any_qpf() {
        let (mut engine, mut oracle) = engine_2d(200, 29);
        let mut rng = StdRng::seed_from_u64(30);
        for bound in [300u64, 700] {
            engine.select(
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, bound),
                &mut rng,
            );
        }
        let parked = oracle.insert(&[500, 500]);
        let kb = engine.knowledge_mut(1).expect("indexed");
        kb.park(parked, 0, kb.k() - 1);
        let bytes = |e: &PrkbEngine<Predicate>| -> Vec<Vec<u8>> {
            (0..2)
                .map(|a| crate::snapshot::save(e.knowledge(a).expect("indexed")))
                .collect()
        };
        let before = bytes(&engine);
        for t in [3, parked] {
            let qpf = oracle.qpf_uses();
            let err = engine.try_insert(&oracle, t).expect_err("already indexed");
            assert_eq!(err.to_string(), format!("tuple {t} is already indexed"));
            assert_eq!(oracle.qpf_uses(), qpf, "tuple {t}");
            assert_eq!(bytes(&engine), before, "tuple {t}");
        }
    }

    const DOMAIN: u64 = 120;

    /// A random trapdoor on `attr`: one of the four operators, or a BETWEEN.
    fn trapdoor(attr: u32, rng: &mut StdRng) -> Predicate {
        let at = rng.gen_range(0..DOMAIN + 2);
        match rng.gen_range(0..5) {
            4 => Predicate::between(attr, at, at + rng.gen_range(0..DOMAIN / 2)),
            op => Predicate::cmp(attr, ComparisonOp::ALL[op], at),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A conjunction is one walk, and it answers what running each of
        /// its trapdoors on its own and intersecting answers, whatever the
        /// mix of operators, BETWEENs and trapdoors per attribute, the
        /// refinement configuration, and the inserts and deletes between
        /// queries; the knowledge stays valid.
        #[test]
        fn a_conjunction_is_the_intersection_of_its_trapdoors(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..600,
            d in 1usize..4,
            update in proptest::prelude::any::<bool>(),
            complete in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let columns: Vec<Vec<u64>> = (0..d)
                .map(|_| (0..n).map(|_| rng.gen_range(0..DOMAIN)).collect())
                .collect();
            let mut oracle = PlainOracle::from_columns(columns);
            let mut engine = PrkbEngine::new(EngineConfig::default());
            for a in 0..d {
                engine.init_attr(a as AttrId, n);
            }
            let policy = if complete {
                MdUpdatePolicy::CompleteSplits
            } else {
                MdUpdatePolicy::PartialOnly
            };
            engine.config.refine = update.then_some(policy);
            for step in 0..12 {
                match rng.gen_range(0..6) {
                    0..=3 => {
                        let preds: Vec<Predicate> = (0..rng.gen_range(1..6))
                            .map(|_| trapdoor(rng.gen_range(0..d) as u32, &mut rng))
                            .collect();
                        // The twin: every trapdoor on its own, on a static
                        // copy, intersected.
                        let mut twin = PrkbEngine::new(EngineConfig { refine: None, ..engine.config });
                        for a in 0..d as AttrId {
                            twin.restore_attr(a, engine.knowledge(a).expect("indexed").clone());
                        }
                        let mut expected: Option<Vec<TupleId>> = None;
                        for p in &preds {
                            let mut ids = twin.select(&oracle, p, &mut rng).sorted();
                            if let Some(earlier) = expected.take() {
                                ids.retain(|t| earlier.binary_search(t).is_ok());
                            }
                            expected = Some(ids);
                        }
                        let sel = engine.select_where(&oracle, &preds, &mut rng);
                        proptest::prop_assert_eq!(sel.sorted(), expected.expect("a trapdoor"), "step {}", step);
                        proptest::prop_assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
                    }
                    4 => {
                        let row: Vec<u64> = (0..d).map(|_| rng.gen_range(0..DOMAIN)).collect();
                        let t = oracle.insert(&row);
                        engine.insert(&oracle, t);
                    }
                    _ => {
                        let t = rng.gen_range(0..oracle.n_slots() as TupleId);
                        oracle.delete(t);
                        engine.delete(t);
                    }
                }
                for a in 0..d as AttrId {
                    engine.knowledge(a).expect("indexed").check_invariants();
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every partition stays ascending through selects (comparison and
        /// BETWEEN splits, refinements of parked tuples), inserts (solo,
        /// place, park) and deletes; and the journal from some mid-run
        /// point, replayed onto a `snapshot::load` of the image taken
        /// there, rebuilds every partition member for member, in the same
        /// order, to the same snapshot bytes.
        #[test]
        fn partitions_stay_ascending_and_replay_rebuilds_them_in_order(
            seed in proptest::prelude::any::<u64>(),
            n in proptest::prop_oneof![proptest::strategy::Just(0usize), 1usize..300],
            d in 1usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let columns: Vec<Vec<u64>> = (0..d)
                .map(|_| (0..n).map(|_| rng.gen_range(0..DOMAIN)).collect())
                .collect();
            let mut oracle = PlainOracle::from_columns(columns);
            let mut engine = PrkbEngine::new(EngineConfig::default());
            for a in 0..d {
                engine.init_attr(a as AttrId, n);
            }
            let attrs = 0..d as AttrId;
            let image = |engine: &PrkbEngine<Predicate>, a| {
                snapshot::save(engine.knowledge(a).expect("indexed"))
            };
            let mark = rng.gen_range(0..12);
            let mut twin: Vec<Knowledge<Predicate>> = Vec::new();
            for step in 0..30 {
                if step == mark {
                    twin = attrs.clone().map(|a| snapshot::load(&image(&engine, a)).expect("loads")).collect();
                    engine.set_recording(true);
                }
                match rng.gen_range(0..6) {
                    0..=2 => {
                        let p = trapdoor(rng.gen_range(0..d) as u32, &mut rng);
                        engine.select(&oracle, &p, &mut rng);
                    }
                    3 | 4 => {
                        let row: Vec<u64> = (0..d).map(|_| rng.gen_range(0..DOMAIN)).collect();
                        let t = oracle.insert(&row);
                        engine.insert(&oracle, t);
                    }
                    _ if oracle.n_slots() > 0 => {
                        let t = rng.gen_range(0..oracle.n_slots() as TupleId);
                        oracle.delete(t);
                        engine.delete(t);
                    }
                    _ => {}
                }
                for a in attrs.clone() {
                    let pop = engine.knowledge(a).expect("indexed").pop();
                    for r in 0..pop.k() {
                        let m = pop.members_at(r);
                        proptest::prop_assert!(m.windows(2).all(|w| w[0] < w[1]), "step {} rank {}: {:?}", step, r, m);
                    }
                }
            }
            for (a, op) in engine.take_ops() {
                twin[a as usize].try_apply_op(op).expect("a journaled op fits its twin");
            }
            for a in attrs {
                let (live, replayed) = (engine.knowledge(a).expect("indexed").pop(), twin[a as usize].pop());
                proptest::prop_assert_eq!(live.k(), replayed.k());
                for r in 0..live.k() {
                    proptest::prop_assert_eq!(live.members_at(r), replayed.members_at(r), "rank {}", r);
                }
                proptest::prop_assert_eq!(image(&engine, a), snapshot::save(&twin[a as usize]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not initialized")]
    fn uninitialized_attr_panics() {
        let (mut engine, oracle) = engine_2d(100, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let p = Predicate::cmp(7, ComparisonOp::Lt, 5);
        let _ = engine.select(&oracle, &p, &mut rng);
    }
}
