//! The enriched per-query `QueryStats` breakdown (QPF uses, filter probes,
//! NS width, oracle batches, pruning counts) must be an *observation*, never
//! an artifact of how the query executed: identical whether the oracle
//! batches or evaluates tuple by tuple, and identical when a fault aborted
//! the query and it was re-issued.

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::edbms::{
    ComparisonOp, DataOwner, EncryptedPredicate, EncryptedTable, OracleError, PlainTable,
    Predicate, PredicateKind, Schema, SelectionOracle, SpOracle, TmConfig, TrustedMachine, TupleId,
};
use prkb_sim::{reissue, FaultConfig, FaultInjector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An encrypted two-column pipeline with two independent TMs (separate QPF
/// counters) over the same table.
struct World {
    owner: DataOwner,
    table: EncryptedTable,
    tm_a: TrustedMachine,
    tm_b: TrustedMachine,
    n: usize,
}

/// `SpOracle` with only `try_eval`: its batches take the trait's default
/// per-tuple loop, the reference the batched path must equal.
struct PerTuple<'a>(SpOracle<'a>);

impl SelectionOracle for PerTuple<'_> {
    type Pred = EncryptedPredicate;

    fn try_eval(&self, pred: &EncryptedPredicate, t: TupleId) -> Result<bool, OracleError> {
        self.0.try_eval(pred, t)
    }

    fn kind_of(&self, pred: &EncryptedPredicate) -> PredicateKind {
        self.0.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.0.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.0.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.0.qpf_uses()
    }
}

fn world(columns: Vec<Vec<u64>>, seed: u64) -> World {
    let n = columns[0].len();
    let attrs: Vec<String> = (0..columns.len()).map(|i| format!("a{i}")).collect();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let schema = Schema::new("t", &attr_refs);
    let plain = PlainTable::from_columns(schema, columns).expect("rectangular");
    let owner = DataOwner::with_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A7);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm_a = owner.trusted_machine(TmConfig::default());
    let tm_b = owner.trusted_machine(TmConfig::default());
    World {
        owner,
        table,
        tm_a,
        tm_b,
        n,
    }
}

fn trapdoor(w: &World, p: &Predicate, seed: u64) -> EncryptedPredicate {
    let mut rng = StdRng::seed_from_u64(seed);
    w.owner.trapdoor("t", p, &mut rng).expect("valid predicate")
}

fn engine_pair(
    w: &World,
) -> (
    PrkbEngine<EncryptedPredicate>,
    PrkbEngine<EncryptedPredicate>,
) {
    let mut a: PrkbEngine<EncryptedPredicate> = PrkbEngine::new(EngineConfig::default());
    let mut b: PrkbEngine<EncryptedPredicate> = PrkbEngine::new(EngineConfig::default());
    for attr in 0..2u32 {
        a.init_attr(attr, w.n);
        b.init_attr(attr, w.n);
    }
    (a, b)
}

/// One query stream shared by both tests: comparisons, a BETWEEN, an MD
/// rectangle, and a conjunction — every stat-producing pipeline. The last
/// two are BETWEENs no sample can find (one value wide; beyond the data), so
/// the escalating fallback is under the same equalities.
fn queries(domain: u64) -> Vec<Predicate> {
    vec![
        Predicate::cmp(0, ComparisonOp::Lt, domain / 2),
        Predicate::cmp(0, ComparisonOp::Gt, domain / 4),
        Predicate::between(1, domain / 8, domain / 3),
        Predicate::cmp(1, ComparisonOp::Le, domain / 5),
        Predicate::cmp(0, ComparisonOp::Ge, domain / 3),
        Predicate::between(0, domain / 7, domain / 7),
        Predicate::between(1, domain + 1, domain + 9),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full `QueryStats` equality (not just qpf_uses — every breakdown
    /// field) between an engine over the per-tuple loop and one over
    /// `SpOracle`'s batches fed the identical stream, and `qpf_uses` always
    /// equals the oracle-counter delta on both sides.
    #[test]
    fn query_stats_identical_batched_vs_per_tuple(
        col0 in proptest::collection::vec(0u64..700, 250),
        col1 in proptest::collection::vec(0u64..700, 250),
        seed in any::<u64>(),
    ) {
        let w = world(vec![col0, col1], seed);
        let per_tuple = PerTuple(SpOracle::new(&w.table, &w.tm_a));
        let batched = SpOracle::new(&w.table, &w.tm_b);
        let (mut engine_tuple, mut engine_batch) = engine_pair(&w);
        let mut rng_tuple = StdRng::seed_from_u64(seed ^ 0x11);
        let mut rng_batch = StdRng::seed_from_u64(seed ^ 0x11);

        for (qi, p) in queries(700).iter().enumerate() {
            let ep = trapdoor(&w, p, seed.wrapping_add(qi as u64));
            let before_tuple = per_tuple.qpf_uses();
            let before_batch = batched.qpf_uses();
            let a = engine_tuple.select(&per_tuple, &ep, &mut rng_tuple);
            let b = engine_batch.select(&batched, &ep, &mut rng_batch);
            prop_assert_eq!(a.sorted(), b.sorted(), "query {}", qi);
            prop_assert_eq!(a.stats, b.stats, "stats breakdown drifted at query {}", qi);
            prop_assert_eq!(
                a.stats.qpf_uses, per_tuple.qpf_uses() - before_tuple,
                "per-tuple stats must equal the oracle-counter delta at query {}", qi
            );
            prop_assert_eq!(
                b.stats.qpf_uses, batched.qpf_uses() - before_batch,
                "batched stats must equal the oracle-counter delta at query {}", qi
            );
        }

        // MD rectangle + conjunction round out the per-pipeline coverage.
        let dims = [
            [
                trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Gt, 100), seed ^ 21),
                trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Lt, 500), seed ^ 22),
            ],
            [
                trapdoor(&w, &Predicate::cmp(1, ComparisonOp::Gt, 150), seed ^ 23),
                trapdoor(&w, &Predicate::cmp(1, ComparisonOp::Lt, 600), seed ^ 24),
            ],
        ];
        let a = engine_tuple.select_range_md(&per_tuple, &dims, &mut rng_tuple);
        let b = engine_batch.select_range_md(&batched, &dims, &mut rng_batch);
        prop_assert_eq!(a.sorted(), b.sorted());
        prop_assert_eq!(a.stats, b.stats, "MD stats drifted");

        let preds = vec![
            trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Ge, 50), seed ^ 31),
            trapdoor(&w, &Predicate::between(1, 100, 400), seed ^ 32),
        ];
        let a = engine_tuple.select_conjunction(&per_tuple, &preds, &mut rng_tuple);
        let b = engine_batch.select_conjunction(&batched, &preds, &mut rng_batch);
        prop_assert_eq!(a.sorted(), b.sorted());
        prop_assert_eq!(a.stats, b.stats, "conjunction stats drifted");
    }

    /// A transient fault aborts its query, and the query re-issued with the
    /// same seed until it gets through produces byte-identical `QueryStats`
    /// to the fault-free run, with `qpf_uses` equal to the oracle-counter
    /// delta of the attempt that got through.
    #[test]
    fn query_stats_identical_fault_free_vs_transient_retry(
        col0 in proptest::collection::vec(0u64..700, 220),
        col1 in proptest::collection::vec(0u64..700, 220),
        seed in any::<u64>(),
    ) {
        let w = world(vec![col0, col1], seed);
        let clean = SpOracle::new(&w.table, &w.tm_a);
        // Transient-only schedule (a request lost before the TM spends no
        // QPF), at a rate a whole query gets through within a few attempts.
        let faulty = FaultInjector::new(
            SpOracle::new(&w.table, &w.tm_b),
            FaultConfig {
                seed: seed ^ 0xFA017,
                transient_per_mille: 5,
                timeout_per_mille: 0,
                corruption_per_mille: 0,
                max_consecutive: 2,
            },
        );
        let (mut engine_clean, mut engine_faulty) = engine_pair(&w);

        for (qi, p) in queries(700).iter().enumerate() {
            let ep = trapdoor(&w, p, seed.wrapping_add(1000 + qi as u64));
            let rng = || StdRng::seed_from_u64(seed ^ 0x77 ^ qi as u64);
            let a = engine_clean.select(&clean, &ep, &mut rng());
            let (b, delta) = reissue(64, || {
                let before = faulty.qpf_uses();
                engine_faulty
                    .try_select(&faulty, &ep, &mut rng())
                    .map(|sel| (sel, faulty.qpf_uses() - before))
            });
            prop_assert_eq!(a.sorted(), b.sorted(), "query {}", qi);
            prop_assert_eq!(a.stats, b.stats, "re-issue changed the stats at query {}", qi);
            prop_assert_eq!(
                b.stats.qpf_uses, delta,
                "stats must equal the oracle-counter delta of the attempt at query {}", qi
            );
        }
        prop_assert!(
            faulty.injected() > 0,
            "the schedule must actually inject faults for this test to mean anything"
        );
    }
}
