//! Batched evaluation must be a pure wall-clock optimization: for arbitrary
//! tables and predicates, `eval_batch` agrees element-wise with per-tuple
//! `eval`, and end-to-end engine runs spend byte-identical QPF-use deltas
//! whether the oracle batches or evaluates tuple by tuple (the paper's
//! primary metric must not drift).

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::edbms::{
    ComparisonOp, DataOwner, EncryptedPredicate, EncryptedTable, OracleError, PlainTable,
    Predicate, PredicateKind, Schema, SelectionOracle, SpOracle, TmConfig, TrustedMachine, TupleId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An encrypted two-column pipeline with two independent TMs (separate
/// QPF counters) over the same table.
struct World {
    owner: DataOwner,
    table: EncryptedTable,
    tm_tuple: TrustedMachine,
    tm_batch: TrustedMachine,
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
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm_tuple = owner.trusted_machine(TmConfig::default());
    let tm_batch = owner.trusted_machine(TmConfig::default());
    World {
        owner,
        table,
        tm_tuple,
        tm_batch,
        n,
    }
}

fn trapdoor(w: &World, p: &Predicate, seed: u64) -> EncryptedPredicate {
    let mut rng = StdRng::seed_from_u64(seed);
    w.owner.trapdoor("t", p, &mut rng).expect("valid predicate")
}

/// One end-to-end query shape.
#[derive(Debug, Clone)]
enum Query {
    Cmp(u8, u64),
    Between(u64, u64),
    Rect((u64, u64), (u64, u64)),
    Conjunction(u64, u64, u64),
}

fn query_strategy(domain: u64) -> impl Strategy<Value = Query> {
    prop_oneof![
        (0u8..4, 0..=domain).prop_map(|(o, c)| Query::Cmp(o, c)),
        (0..=domain, 0..=domain).prop_map(|(a, b)| Query::Between(a.min(b), a.max(b))),
        ((0..=domain, 0..=domain), (0..=domain, 0..=domain)).prop_map(|(x, y)| Query::Rect(
            (x.0.min(x.1), x.0.max(x.1)),
            (y.0.min(y.1), y.0.max(y.1))
        )),
        (0..=domain, 0..=domain, 0..=domain).prop_map(|(a, b, c)| Query::Conjunction(a, b, c)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `eval_batch` is element-wise identical to per-tuple `eval`, clears
    /// the output buffer, and costs exactly one QPF use per tuple settled in
    /// one add.
    #[test]
    fn eval_batch_agrees_with_eval_elementwise(
        values in proptest::collection::vec(0u64..1_000, 260..420),
        op in 0u8..4,
        bound in 0u64..1_100,
        seed in any::<u64>(),
    ) {
        let w = world(vec![values], seed);
        let p = trapdoor(&w, &Predicate::cmp(0, ComparisonOp::ALL[op as usize], bound), seed ^ 1);
        let per_tuple = SpOracle::new(&w.table, &w.tm_tuple);
        let batched = SpOracle::new(&w.table, &w.tm_batch);
        let tuples: Vec<u32> = (0..w.n as u32).collect();

        let expected: Vec<bool> = tuples.iter().map(|&t| per_tuple.eval(&p, t)).collect();
        prop_assert_eq!(w.tm_tuple.qpf_uses(), w.n as u64);

        let mut out = vec![true; 7]; // pre-dirtied: eval_batch must clear it
        batched.eval_batch(&p, &tuples, &mut out);
        prop_assert_eq!(w.tm_batch.qpf_uses(), w.n as u64, "one use per tuple, settled once");
        prop_assert_eq!(out, expected);
    }

    /// End-to-end batch-invariance: an engine over `SpOracle`'s batches and
    /// one over the per-tuple loop, fed the identical query stream, return
    /// the same tuples and spend the identical QPF-use delta on every query,
    /// across `select`, `select_range_md`, and `select_conjunction`.
    #[test]
    fn engine_qpf_deltas_are_batch_invariant(
        col0 in proptest::collection::vec(0u64..800, 300),
        col1 in proptest::collection::vec(0u64..800, 300),
        queries in proptest::collection::vec(query_strategy(900), 1..6),
        seed in any::<u64>(),
    ) {
        let w = world(vec![col0, col1], seed);
        let per_tuple = PerTuple(SpOracle::new(&w.table, &w.tm_tuple));
        let batched = SpOracle::new(&w.table, &w.tm_batch);

        let mut engine_tuple: PrkbEngine<EncryptedPredicate> =
            PrkbEngine::new(EngineConfig::default());
        let mut engine_batch: PrkbEngine<EncryptedPredicate> =
            PrkbEngine::new(EngineConfig::default());
        for a in 0..2u32 {
            engine_tuple.init_attr(a, w.n);
            engine_batch.init_attr(a, w.n);
        }
        // Identical rng streams: engines make the same sampling decisions.
        let mut rng_tuple = StdRng::seed_from_u64(seed ^ 0x51);
        let mut rng_batch = StdRng::seed_from_u64(seed ^ 0x51);

        for (qi, q) in queries.into_iter().enumerate() {
            let tseed = seed.wrapping_add(qi as u64);
            let (sel_tuple, sel_batch) = match q {
                Query::Cmp(o, c) => {
                    let p = trapdoor(&w, &Predicate::cmp(0, ComparisonOp::ALL[o as usize], c), tseed);
                    (
                        engine_tuple.select(&per_tuple, &p, &mut rng_tuple),
                        engine_batch.select(&batched, &p, &mut rng_batch),
                    )
                }
                Query::Between(lo, hi) => {
                    let p = trapdoor(&w, &Predicate::between(1, lo, hi), tseed);
                    (
                        engine_tuple.select(&per_tuple, &p, &mut rng_tuple),
                        engine_batch.select(&batched, &p, &mut rng_batch),
                    )
                }
                Query::Rect((xl, xh), (yl, yh)) => {
                    let dims = [
                        [
                            trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Gt, xl), tseed),
                            trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Lt, xh), tseed ^ 2),
                        ],
                        [
                            trapdoor(&w, &Predicate::cmp(1, ComparisonOp::Gt, yl), tseed ^ 3),
                            trapdoor(&w, &Predicate::cmp(1, ComparisonOp::Lt, yh), tseed ^ 4),
                        ],
                    ];
                    (
                        engine_tuple.select_where(&per_tuple, dims.as_flattened(), &mut rng_tuple),
                        engine_batch.select_where(&batched, dims.as_flattened(), &mut rng_batch),
                    )
                }
                Query::Conjunction(a, b, c) => {
                    let preds = vec![
                        trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Ge, a.min(b)), tseed),
                        trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Le, a.max(b)), tseed ^ 5),
                        trapdoor(&w, &Predicate::between(1, c / 2, c), tseed ^ 6),
                    ];
                    (
                        engine_tuple.select_where(&per_tuple, &preds, &mut rng_tuple),
                        engine_batch.select_where(&batched, &preds, &mut rng_batch),
                    )
                }
            };
            prop_assert_eq!(sel_tuple.sorted(), sel_batch.sorted(), "query {}", qi);
            prop_assert_eq!(
                sel_tuple.stats.qpf_uses, sel_batch.stats.qpf_uses,
                "QPF delta drifted at query {}", qi
            );
            prop_assert_eq!(sel_tuple.stats.splits, sel_batch.stats.splits);
            prop_assert_eq!(w.tm_tuple.qpf_uses(), w.tm_batch.qpf_uses(), "cumulative counters");
        }
    }
}
