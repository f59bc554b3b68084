//! Batched evaluation must be a pure wall-clock optimization: for arbitrary
//! tables and predicates, `eval_batch` agrees element-wise with per-tuple
//! `eval`, and end-to-end engine runs spend byte-identical QPF-use deltas at
//! every thread count (the paper's primary metric must not drift).

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::edbms::{
    ComparisonOp, DataOwner, EncryptedPredicate, EncryptedTable, PlainTable, Predicate, Schema,
    SelectionOracle, SpOracle, TmConfig, TrustedMachine,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An encrypted two-column pipeline with two independent TMs (separate
/// QPF counters) over the same table.
struct World {
    owner: DataOwner,
    table: EncryptedTable,
    tm_seq: TrustedMachine,
    tm_par: TrustedMachine,
    n: usize,
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
    let tm_seq = owner.trusted_machine(TmConfig::default());
    let tm_par = owner.trusted_machine(TmConfig::default());
    World { owner, table, tm_seq, tm_par, n }
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
        ((0..=domain, 0..=domain), (0..=domain, 0..=domain))
            .prop_map(|(x, y)| Query::Rect((x.0.min(x.1), x.0.max(x.1)), (y.0.min(y.1), y.0.max(y.1)))),
        (0..=domain, 0..=domain, 0..=domain).prop_map(|(a, b, c)| Query::Conjunction(a, b, c)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `eval_batch` (threaded) is element-wise identical to per-tuple
    /// `eval`, clears the output buffer, and costs exactly one QPF use per
    /// tuple settled in one add.
    #[test]
    fn eval_batch_agrees_with_eval_elementwise(
        values in proptest::collection::vec(0u64..1_000, 260..420),
        op in 0u8..4,
        bound in 0u64..1_100,
        seed in any::<u64>(),
    ) {
        let w = world(vec![values], seed);
        let p = trapdoor(&w, &Predicate::cmp(0, ComparisonOp::ALL[op as usize], bound), seed ^ 1);
        let seq = SpOracle::new(&w.table, &w.tm_seq).with_threads(1);
        let par = SpOracle::new(&w.table, &w.tm_par).with_threads(4);
        let tuples: Vec<u32> = (0..w.n as u32).collect();

        let expected: Vec<bool> = tuples.iter().map(|&t| seq.eval(&p, t)).collect();
        prop_assert_eq!(w.tm_seq.qpf_uses(), w.n as u64);

        let mut out = vec![true; 7]; // pre-dirtied: eval_batch must clear it
        par.eval_batch(&p, &tuples, &mut out);
        prop_assert_eq!(w.tm_par.qpf_uses(), w.n as u64, "one use per tuple, settled once");
        prop_assert_eq!(out, expected);
    }

    /// End-to-end thread-invariance: a sequential engine and an 8-worker
    /// engine fed the identical query stream return the same tuples and
    /// spend the identical QPF-use delta on every query, across `select`,
    /// `select_range_md`, and `select_conjunction`.
    #[test]
    fn engine_qpf_deltas_are_thread_invariant(
        col0 in proptest::collection::vec(0u64..800, 300),
        col1 in proptest::collection::vec(0u64..800, 300),
        queries in proptest::collection::vec(query_strategy(900), 1..6),
        seed in any::<u64>(),
    ) {
        let w = world(vec![col0, col1], seed);
        let seq = SpOracle::new(&w.table, &w.tm_seq).with_threads(1);
        let par = SpOracle::new(&w.table, &w.tm_par).with_threads(8);

        let mut engine_seq: PrkbEngine<EncryptedPredicate> =
            PrkbEngine::new(EngineConfig::default());
        let mut engine_par: PrkbEngine<EncryptedPredicate> =
            PrkbEngine::new(EngineConfig::default());
        for a in 0..2u32 {
            engine_seq.init_attr(a, w.n);
            engine_par.init_attr(a, w.n);
        }
        // Identical rng streams: engines make the same sampling decisions.
        let mut rng_seq = StdRng::seed_from_u64(seed ^ 0x51);
        let mut rng_par = StdRng::seed_from_u64(seed ^ 0x51);

        for (qi, q) in queries.into_iter().enumerate() {
            let tseed = seed.wrapping_add(qi as u64);
            let (sel_seq, sel_par) = match q {
                Query::Cmp(o, c) => {
                    let p = trapdoor(&w, &Predicate::cmp(0, ComparisonOp::ALL[o as usize], c), tseed);
                    (
                        engine_seq.select(&seq, &p, &mut rng_seq),
                        engine_par.select(&par, &p, &mut rng_par),
                    )
                }
                Query::Between(lo, hi) => {
                    let p = trapdoor(&w, &Predicate::between(1, lo, hi), tseed);
                    (
                        engine_seq.select(&seq, &p, &mut rng_seq),
                        engine_par.select(&par, &p, &mut rng_par),
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
                        engine_seq.select_range_md(&seq, &dims, &mut rng_seq),
                        engine_par.select_range_md(&par, &dims, &mut rng_par),
                    )
                }
                Query::Conjunction(a, b, c) => {
                    let preds = vec![
                        trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Ge, a.min(b)), tseed),
                        trapdoor(&w, &Predicate::cmp(0, ComparisonOp::Le, a.max(b)), tseed ^ 5),
                        trapdoor(&w, &Predicate::between(1, c / 2, c), tseed ^ 6),
                    ];
                    (
                        engine_seq.select_conjunction(&seq, &preds, &mut rng_seq),
                        engine_par.select_conjunction(&par, &preds, &mut rng_par),
                    )
                }
            };
            prop_assert_eq!(sel_seq.sorted(), sel_par.sorted(), "query {}", qi);
            prop_assert_eq!(
                sel_seq.stats.qpf_uses, sel_par.stats.qpf_uses,
                "QPF delta drifted at query {}", qi
            );
            prop_assert_eq!(sel_seq.stats.splits, sel_par.stats.splits);
            prop_assert_eq!(w.tm_seq.qpf_uses(), w.tm_par.qpf_uses(), "cumulative counters");
        }
    }
}
