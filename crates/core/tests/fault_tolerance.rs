//! Fault-tolerance properties of the PRKB boundary (DESIGN.md §12).
//!
//! Two pinned guarantees:
//!
//! 1. **Abort-safety** — when a query fails (any fault class), the engine
//!    reports the error and every attribute's knowledge base is
//!    byte-identical to its pre-query state: no partial splits, no stranded
//!    overflow entries, no half-routed inserts.
//! 2. **Re-issue equivalence** — nothing retries an oracle call, so an
//!    aborted query is re-issued whole with the same seed (what the wire
//!    client does); the attempt that gets through is fault-free, and the
//!    run produces the same results and a byte-identical final knowledge
//!    base as the fault-free run.

mod common;

use common::kb_bytes;
use prkb_core::{EngineConfig, PrkbEngine};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, OracleError, Predicate, PredicateKind, SelectionOracle, TupleId};
use prkb_sim::{reissue, FaultConfig, FaultInjector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Attempts a re-issued query gets. At `FaultConfig::retryable`'s rates a
/// query of a few hundred evaluations needs a few; the widest conjunctions
/// here have needed a few dozen.
const ATTEMPTS: u32 = 256;

fn columns(n: usize, extra: usize, seed: u64) -> Vec<Vec<u64>> {
    common::columns(2, n, extra, seed)
}

fn two_attr_engine(n: usize) -> PrkbEngine<Predicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, n);
    engine.init_attr(1, n);
    engine
}

/// One round of the mixed workload: one trapdoor (comparison or BETWEEN),
/// a list of them (a 2-D box, a mixed conjunction), an insert — everything
/// that can mutate knowledge.
#[derive(Debug, Clone)]
enum Step {
    Cmp(Predicate),
    Where(Vec<Predicate>),
    Insert(u32),
}

fn workload(n: usize, extra: usize, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    let mut next_insert = n as u32;
    for round in 0..14 {
        let lo = rng.gen_range(0..800u64);
        let hi = lo + rng.gen_range(50..200u64);
        let attr = (round % 2) as u32;
        let step = match round % 6 {
            0 => Step::Cmp(Predicate::cmp(attr, ComparisonOp::Lt, hi)),
            1 => Step::Cmp(Predicate::between(attr, lo, hi)),
            2 | 3 => Step::Where(vec![
                Predicate::cmp(0, ComparisonOp::Gt, lo),
                Predicate::cmp(0, ComparisonOp::Lt, hi),
                Predicate::cmp(1, ComparisonOp::Gt, lo / 2),
                Predicate::cmp(1, ComparisonOp::Lt, hi + 100),
            ]),
            4 => Step::Where(vec![
                Predicate::cmp(0, ComparisonOp::Gt, lo),
                Predicate::cmp(0, ComparisonOp::Lt, hi),
                Predicate::cmp(1, ComparisonOp::Gt, lo / 2),
                Predicate::cmp(1, ComparisonOp::Lt, hi + 100),
                Predicate::between(0, lo, hi),
            ]),
            _ => {
                let t = next_insert;
                next_insert += 1;
                if (t as usize) < n + extra {
                    Step::Insert(t)
                } else {
                    Step::Cmp(Predicate::cmp(attr, ComparisonOp::Ge, lo))
                }
            }
        };
        steps.push(step);
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Re-issue equivalence: every step whose query a retryable fault
    /// aborted is re-issued with the same seed until it gets through, and
    /// the run is indistinguishable from the fault-free run — same
    /// selection results and insert outcomes, byte-identical final
    /// knowledge bases.
    fn faulty_retried_run_matches_fault_free_run(seed in 0u64..1_000_000) {
        let (n, extra) = (260usize, 3usize);
        let cols = columns(n, extra, seed);
        let clean = PlainOracle::from_columns(cols.clone());
        // retryable(): transient + timeout faults only.
        let faulty =
            FaultInjector::new(PlainOracle::from_columns(cols), FaultConfig::retryable(seed));

        let mut e1 = two_attr_engine(n);
        let mut e2 = two_attr_engine(n);

        for (i, step) in workload(n, extra, seed ^ 0x77).into_iter().enumerate() {
            // Each step's RNG is re-seeded for every attempt, so a re-issue
            // is the same query.
            let rng = || StdRng::seed_from_u64(seed ^ 0xA5 ^ i as u64);
            let (s1, s2) = match &step {
                Step::Cmp(p) => (
                    e1.select(&clean, p, &mut rng()).sorted(),
                    reissue(ATTEMPTS, || e2.try_select(&faulty, p, &mut rng())).sorted(),
                ),
                Step::Where(ps) => (
                    e1.select_where(&clean, ps, &mut rng()).sorted(),
                    reissue(ATTEMPTS, || e2.try_select_where(&faulty, ps, &mut rng())).sorted(),
                ),
                Step::Insert(t) => {
                    let o1 = e1.insert(&clean, *t);
                    let o2 = reissue(ATTEMPTS, || e2.try_insert(&faulty, *t));
                    prop_assert_eq!(&o1, &o2, "step {}: insert outcomes diverged", i);
                    (Vec::new(), Vec::new())
                }
            };
            prop_assert_eq!(s1, s2, "step {}: selections diverged", i);
        }

        prop_assert!(faulty.injected() > 0, "workload too small to exercise faults");
        prop_assert_eq!(kb_bytes(&e1), kb_bytes(&e2), "final knowledge diverged");
    }

    /// Abort-safety: a failed query (any fault class aborts it) leaves
    /// every attribute's knowledge base byte-identical to its pre-query
    /// state; successful queries still match the fault-free engine exactly.
    fn aborted_query_leaves_knowledge_byte_identical(seed in 0u64..1_000_000) {
        let (n, extra) = (220usize, 3usize);
        let cols = columns(n, extra, seed);
        let clean = PlainOracle::from_columns(cols.clone());
        // with_corruption(): any injected fault aborts the query.
        let faulty =
            FaultInjector::new(PlainOracle::from_columns(cols), FaultConfig::with_corruption(seed));

        let mut e1 = two_attr_engine(n);
        let mut e2 = two_attr_engine(n);
        let mut r1 = StdRng::seed_from_u64(seed ^ 0x5A);
        let mut r2 = StdRng::seed_from_u64(seed ^ 0x5A);
        let (mut aborted, mut committed) = (0u32, 0u32);

        for (i, step) in workload(n, extra, seed ^ 0x33).into_iter().enumerate() {
            let before = kb_bytes(&e2);
            // Run the faulty engine first; mirror onto the fault-free
            // engine only when the query committed, so e1 tracks exactly
            // the queries e2 actually executed.
            match &step {
                Step::Cmp(p) => match e2.try_select(&faulty, p, &mut r2) {
                    Ok(s2) => {
                        committed += 1;
                        let s1 = e1.select(&clean, p, &mut r1);
                        prop_assert_eq!(s1.sorted(), s2.sorted(), "step {}", i);
                    }
                    Err(_) => {
                        aborted += 1;
                        prop_assert_eq!(&before, &kb_bytes(&e2), "step {}: abort mutated KB", i);
                    }
                },
                Step::Where(ps) => match e2.try_select_where(&faulty, ps, &mut r2) {
                    Ok(s2) => {
                        committed += 1;
                        let s1 = e1.select_where(&clean, ps, &mut r1);
                        prop_assert_eq!(s1.sorted(), s2.sorted(), "step {}", i);
                    }
                    Err(_) => {
                        aborted += 1;
                        prop_assert_eq!(&before, &kb_bytes(&e2), "step {}: abort mutated KB", i);
                    }
                },
                Step::Insert(t) => match e2.try_insert(&faulty, *t) {
                    Ok(o2) => {
                        committed += 1;
                        let o1 = e1.insert(&clean, *t);
                        prop_assert_eq!(&o1, &o2, "step {}", i);
                    }
                    Err(_) => {
                        aborted += 1;
                        prop_assert_eq!(&before, &kb_bytes(&e2), "step {}: abort mutated KB", i);
                        // e1 skips the insert too, so the engines keep
                        // executing identical committed histories.
                    }
                },
            }
            // After every round, the committed histories must agree —
            // except for inserts e2 aborted and e1 therefore skipped.
            prop_assert_eq!(&kb_bytes(&e1), &kb_bytes(&e2), "step {}: histories diverged", i);
        }
        // The schedule must exercise both outcomes to prove anything.
        prop_assert!(aborted > 0, "no query aborted — raise fault rates");
        prop_assert!(committed > 0, "every query aborted — lower fault rates");
    }
}

/// End-to-end with the real crypto stack: a corrupted ciphertext cell makes
/// the trusted machine's integrity check fail, the oracle reports
/// `Corruption`, the engine aborts the insert, and the knowledge base is
/// byte-identical to its pre-insert state.
#[test]
fn corrupted_cell_aborts_real_oracle_insert_and_preserves_knowledge() {
    use prkb_crypto::cipher::CIPHERTEXT_LEN;
    use prkb_edbms::{DataOwner, EncryptedPredicate, PlainTable, SpOracle, TmConfig};

    let mut rng = StdRng::seed_from_u64(9);
    let values: Vec<u64> = (0..400).map(|_| rng.gen_range(0..1_000u64)).collect();
    let plain = PlainTable::single_column("t", "x", values);
    let owner = DataOwner::with_seed(10);
    let mut table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());

    // Warm the index so inserts must probe separators.
    let mut engine: PrkbEngine<EncryptedPredicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, 400);
    {
        let oracle = SpOracle::new(&table, &tm);
        for bound in [200u64, 500, 800] {
            let p = owner
                .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, bound), &mut rng)
                .expect("valid trapdoor");
            engine.select(&oracle, &p, &mut rng);
        }
    }
    assert!(
        engine.knowledge(0).expect("indexed").k() > 1,
        "warmup must split"
    );

    // A full-width garbage cell passes the arity check but fails the
    // keyed integrity tag inside the TM.
    let garbage = vec![0u8; CIPHERTEXT_LEN];
    let bad_t = table.push_encrypted_row(&[&garbage]).expect("arity ok");
    let oracle = SpOracle::new(&table, &tm);

    let before = kb_bytes(&engine);
    let err = engine
        .try_insert(&oracle, bad_t)
        .expect_err("corrupt cell must abort");
    assert!(
        matches!(
            err,
            prkb_core::QueryError::Oracle(OracleError::Corruption(_))
        ),
        "unexpected error class: {err}"
    );
    assert_eq!(
        before,
        kb_bytes(&engine),
        "aborted insert mutated the knowledge base"
    );

    // The engine stays fully usable afterwards: a clean row still routes.
    let cells = owner.encrypt_row("t", &[555], &mut rng);
    let refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
    let good_t = table.push_encrypted_row(&refs).expect("arity ok");
    let oracle = SpOracle::new(&table, &tm);
    engine
        .try_insert(&oracle, good_t)
        .expect("clean insert succeeds");
    engine.knowledge(0).expect("indexed").check_invariants();
}

/// Delegates to [`PlainOracle`] but fails evaluation number `fail_at`
/// (1-based) with a non-retryable corruption error. Batch evaluation
/// routes through the default per-tuple `try_eval_batch`, so the fault
/// strikes after `fail_at - 1` verdicts of the batch were produced.
struct FailNth<'a> {
    inner: &'a PlainOracle,
    fail_at: u64,
    calls: AtomicU64,
}

impl SelectionOracle for FailNth<'_> {
    type Pred = Predicate;

    fn try_eval(&self, pred: &Predicate, t: TupleId) -> Result<bool, OracleError> {
        let idx = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if idx == self.fail_at {
            return Err(OracleError::Corruption("mid-batch fault".into()));
        }
        self.inner.try_eval(pred, t)
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

/// Satellite for the durability PR: a fault landing in the *middle* of a
/// `try_eval_batch` (some verdicts already produced, the rest never
/// evaluated) must not leak the partial verdict prefix into the knowledge
/// base — abort-safety holds at batch granularity, not just per query.
#[test]
fn mid_batch_fault_leaks_no_partial_verdicts() {
    let n = 300usize;
    let clean = PlainOracle::from_columns(columns(n, 0, 71));
    let mut engine = two_attr_engine(n);
    let mut rng = StdRng::seed_from_u64(71);

    // Warm one attribute so later queries use short NS-pair batches while
    // attribute 1 still triggers full cold scans — both batch shapes get a
    // mid-batch fault below.
    for bound in [250u64, 500, 750] {
        engine.select(
            &clean,
            &Predicate::cmp(0, ComparisonOp::Lt, bound),
            &mut rng,
        );
    }

    // A cold query on attribute 1 evaluates a full-scan batch of n tuples;
    // fault its first, middle, and last evaluation in turn.
    for fail_at in [1u64, (n as u64) / 2, n as u64] {
        let faulty = FailNth {
            inner: &clean,
            fail_at,
            calls: AtomicU64::new(0),
        };
        let before = kb_bytes(&engine);
        let pred = Predicate::cmp(1, ComparisonOp::Lt, 600);
        let err = engine
            .try_select(&faulty, &pred, &mut rng)
            .expect_err("scheduled fault must abort the query");
        assert!(
            matches!(
                err,
                prkb_core::QueryError::Oracle(OracleError::Corruption(_))
            ),
            "unexpected error class: {err}"
        );
        let calls = faulty.calls.load(Ordering::Relaxed);
        assert_eq!(
            calls, fail_at,
            "fault at {fail_at}: batch must stop at the faulted evaluation"
        );
        assert_eq!(
            before,
            kb_bytes(&engine),
            "fault at {fail_at}: partial batch verdicts leaked into the KB"
        );
    }

    // Warm-path batch: a cut inside attribute 0's NS-pair evaluates a short
    // batch; fault its second evaluation.
    let faulty = FailNth {
        inner: &clean,
        fail_at: 2,
        calls: AtomicU64::new(0),
    };
    let before = kb_bytes(&engine);
    let pred = Predicate::cmp(0, ComparisonOp::Lt, 510);
    engine
        .try_select(&faulty, &pred, &mut rng)
        .expect_err("scheduled fault must abort the warm query");
    assert_eq!(
        before,
        kb_bytes(&engine),
        "warm-path partial batch leaked into the KB"
    );

    // The engine is untouched, so the same query against the clean oracle
    // commits and returns the exact expected selection.
    let sel = engine
        .try_select(&clean, &pred, &mut rng)
        .expect("clean retry commits");
    assert_eq!(sel.sorted(), clean.expected_select(&pred));
    engine.knowledge(0).expect("indexed").check_invariants();
    engine.knowledge(1).expect("indexed").check_invariants();
}

/// PRKB(MD) evaluates an NS partition's survivors as one run (one oracle
/// batch). A fault striking in the *middle* of a run must abort the query
/// with every knowledge base byte-identical, and the same query re-issued
/// over a faulty-but-retryable boundary must equal the fault-free run.
#[test]
fn mid_run_fault_in_md_walk_aborts_clean_and_retried_run_matches() {
    let n = 300usize;
    let cols = columns(n, 0, 83);
    let clean = PlainOracle::from_columns(cols.clone());
    let mut faulted = two_attr_engine(n);
    let mut twin = two_attr_engine(n);
    let mut rng = StdRng::seed_from_u64(83);

    // A 1-D range on the cold attribute: k = 1, so no probes, and the first
    // wave is one run over all n tuples — evaluations 0..n of the injector.
    let range = [[
        Predicate::cmp(1, ComparisonOp::Gt, 200),
        Predicate::cmp(1, ComparisonOp::Lt, 650),
    ]];
    let corrupting = FaultInjector::new(
        PlainOracle::from_columns(cols.clone()),
        FaultConfig {
            seed: 1,
            transient_per_mille: 0,
            timeout_per_mille: 0,
            corruption_per_mille: 8,
            max_consecutive: 0,
        },
    );
    let before = kb_bytes(&faulted);
    let err = faulted
        .try_select_where(&corrupting, range.as_flattened(), &mut rng)
        .expect_err("a corruption inside the run aborts the query");
    assert!(
        matches!(
            err,
            prkb_core::QueryError::Oracle(OracleError::Corruption(_))
        ),
        "unexpected error class: {err}"
    );
    let struck_at = corrupting.calls();
    assert!(
        (2..n as u64).contains(&struck_at),
        "the schedule must strike inside the run, not at its edges: call {struck_at} of {n}"
    );
    assert_eq!(
        corrupting.inner().qpf_uses(),
        struck_at,
        "QPF = evaluations performed"
    );
    assert_eq!(
        before,
        kb_bytes(&faulted),
        "a failed run leaked verdicts into the KB"
    );

    // Re-issued over a lossy boundary ≡ fault-free, winners in the same
    // order.
    let lossy = FaultInjector::new(PlainOracle::from_columns(cols), FaultConfig::retryable(83));
    let got = reissue(ATTEMPTS, || {
        faulted.try_select_where(&lossy, range.as_flattened(), &mut StdRng::seed_from_u64(85))
    });
    let want = twin.select_where(&clean, range.as_flattened(), &mut StdRng::seed_from_u64(85));
    assert!(lossy.injected() > 0, "no fault was injected");
    assert_eq!(got.tuples, want.tuples);
    assert_eq!(got.stats.splits, want.stats.splits);
    assert_eq!(got.stats.oracle_batches, want.stats.oracle_batches);
    assert_eq!(kb_bytes(&faulted), kb_bytes(&twin));
}

/// A BETWEEN whose k samples all miss runs every kind of oracle call the
/// operator has — hunt waves, fallback rounds, suffix completions. A fault
/// inside any of them must abort with the knowledge base byte-identical,
/// and the same query re-issued over a faulty-but-retryable boundary must
/// equal the fault-free run.
#[test]
fn between_fault_in_wave_round_or_completion_aborts_clean_and_retried_run_matches() {
    // Attribute 0 is a permutation of 0..n, cut every 100 below 2 000: 20
    // thin partitions and one of 1 000 members that hides a 5 % range.
    let n = 3000usize;
    let cols = common::strided_columns(n);
    let clean = PlainOracle::from_columns(cols.clone());
    let warmed = || {
        let mut engine = two_attr_engine(n);
        let mut rng = StdRng::seed_from_u64(91);
        for bound in (100..=2000u64).step_by(100) {
            let p = Predicate::cmp(0, ComparisonOp::Lt, bound);
            engine.select(&clean, &p, &mut rng);
        }
        engine
    };
    let (mut faulted, mut twin) = (warmed(), warmed());
    let k = twin.knowledge(0).expect("indexed").k() as u64;
    assert_eq!(k, 21);
    let range = Predicate::between(0, 2500, 2649);
    // Every attempt draws the same samples.
    let sample_seed = (0..64)
        .find(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let probes = warmed()
                .select(&clean, &range, &mut rng)
                .stats
                .filter_probes;
            probes > k
        })
        .expect("a seed whose samples all miss");
    let want = twin.select(&clean, &range, &mut StdRng::seed_from_u64(sample_seed));
    assert_eq!(want.sorted(), clean.expected_select(&range));
    assert!(want.stats.ns_width > 0, "a suffix was completed");
    assert_eq!(
        want.stats.qpf_uses,
        want.stats.filter_probes + want.stats.ns_width
    );

    // Evaluation 4 is inside the wave of stride P/4, k + 2 inside the first
    // fallback round, filter_probes + 2 inside the first completion.
    let before = kb_bytes(&faulted);
    for fail_at in [4, k + 2, want.stats.filter_probes + 2] {
        let faulty = FailNth {
            inner: &clean,
            fail_at,
            calls: AtomicU64::new(0),
        };
        let err = faulted
            .try_select(&faulty, &range, &mut StdRng::seed_from_u64(sample_seed))
            .expect_err("scheduled fault must abort the query");
        assert!(
            matches!(
                err,
                prkb_core::QueryError::Oracle(OracleError::Corruption(_))
            ),
            "unexpected error class: {err}"
        );
        assert_eq!(faulty.calls.load(Ordering::Relaxed), fail_at);
        assert_eq!(
            before,
            kb_bytes(&faulted),
            "fault at {fail_at}: verdicts leaked into the KB"
        );
    }

    let lossy = FaultInjector::new(PlainOracle::from_columns(cols), FaultConfig::retryable(93));
    let got = reissue(ATTEMPTS, || {
        faulted.try_select(&lossy, &range, &mut StdRng::seed_from_u64(sample_seed))
    });
    assert!(lossy.injected() > 0, "no fault was injected");
    assert_eq!(got.tuples, want.tuples);
    assert_eq!(
        got.stats, want.stats,
        "the attempt that got through met no fault"
    );
    assert_eq!(kb_bytes(&faulted), kb_bytes(&twin));
}
