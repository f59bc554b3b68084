//! A single trapdoor is a dimension with one trapdoor: §6.2's PRKB(MD)
//! with d = 1 is §5's pipeline — QFilter, the NS-pair scan with early stop,
//! `updatePRKB` — for a comparison, and App. A's for a BETWEEN, whose
//! locator is the hunt. So `PrkbEngine::try_select` is one `md::run` of the
//! MD executor; this module holds the tests that pin §5's pipeline through
//! it, and the reference twin it must match.

#[cfg(test)]
pub(crate) mod tests {
    //! The tests that pin §5's pipeline, run through the engine, and the
    //! reference twin the one executor must match.
    //!
    //! The twin is the pipeline comparisons ran on before they joined the
    //! MD executor — QFilter, QScan over the NS pair (P_a whole; P_b whole
    //! unless P_a split), `T_W ∪ T_WNS`, one batch over the overflow, then
    //! the split ordered against the labels this query established and the
    //! overflow refined by it — kept as the reference it was.

    use crate::between::twin::{scan_partition, try_process_between};
    use crate::engine::{EngineConfig, PrkbEngine};
    use crate::insert::tests::try_insert_tuple;
    use crate::knowledge::tests::split as split_kb;
    use crate::knowledge::Knowledge;
    use crate::knowledge::Separator;
    use crate::md::exec::order_halves;
    use crate::md::{run, MdDim, MdUpdatePolicy};
    use crate::qfilter::{try_qfilter, FilterResult};
    use crate::selection::QueryStats;
    use crate::selection::Selection;
    use crate::snapshot;
    use crate::traits::SpPredicate;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate, TupleId};
    use prkb_edbms::{OracleError, SelectionOracle};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Processes one trapdoor on `knowledge` as the engine does: [`run`]
    /// over one dimension with one trapdoor, refining when `update` is set
    /// (a lone trapdoor's partitions are tested whole, so the policy does
    /// not matter).
    pub(crate) fn select_one<O, R>(
        knowledge: &mut Knowledge<O::Pred>,
        oracle: &O,
        pred: &O::Pred,
        rng: &mut R,
        update: bool,
    ) -> Result<Selection, OracleError>
    where
        O: SelectionOracle,
        O::Pred: SpPredicate,
        R: Rng,
    {
        let preds = std::slice::from_ref(&pred);
        let refine = update.then_some(MdUpdatePolicy::PartialOnly);
        run(&mut [MdDim { knowledge, preds }], oracle, rng, refine)
    }

    /// The reference twin (see the module docs).
    fn twin(
        kb: &mut Knowledge<Predicate>,
        oracle: &PlainOracle,
        pred: &Predicate,
        rng: &mut StdRng,
        update: bool,
    ) -> Selection {
        let qpf_before = oracle.qpf_uses();
        let k_before = kb.k();
        let filter = try_qfilter(kb.pop(), oracle, pred, rng).unwrap();
        let filter_probes = oracle.qpf_uses() - qpf_before;
        let pop = kb.pop();
        let f = &filter;
        let labelled = |label| (0..pop.k()).filter(move |&r| f.known_label(r) == Some(label));
        let (pruned_true, pruned_false) = (labelled(true).count(), labelled(false).count());
        let mut tuples: Vec<TupleId> = Vec::new();
        for r in labelled(true) {
            tuples.extend_from_slice(pop.members_at(r));
        }

        // QScan, with the full-scan (or inferred) label of each NS partition.
        let (mut split, mut labels) = (None, [None, None]);
        let (mut ns_width, mut scan_batches) = (0, 0);
        let mut verdicts = Vec::new();
        if let Some((a, b)) = filter.ns {
            let scan_a = scan_partition(pop, oracle, pred, a, &mut verdicts).unwrap();
            (ns_width, scan_batches) = (pop.members_at(a).len(), 1);
            tuples.extend_from_slice(&scan_a.true_half);
            if scan_a.is_mixed() {
                split = Some(scan_a);
            } else {
                labels[0] = Some(!scan_a.true_half.is_empty());
            }
            if b != a {
                ns_width += pop.members_at(b).len();
                if split.is_some() {
                    // Early stop: P_b is implied homogeneous, with its sample's label.
                    labels[1] = Some(filter.label_b);
                    if filter.label_b {
                        tuples.extend_from_slice(pop.members_at(b));
                    }
                } else {
                    let scan_b = scan_partition(pop, oracle, pred, b, &mut verdicts).unwrap();
                    scan_batches += 1;
                    tuples.extend_from_slice(&scan_b.true_half);
                    if scan_b.is_mixed() {
                        split = Some(scan_b);
                    } else {
                        labels[1] = Some(!scan_b.true_half.is_empty());
                    }
                }
            }
        }

        // The overflow, unconditionally one batch — an empty one too.
        let overflow: Vec<TupleId> = kb.overflow().iter().map(|e| e.tuple).collect();
        oracle
            .try_eval_batch(pred, &overflow, &mut verdicts)
            .unwrap();
        let out: HashMap<TupleId, bool> = overflow.iter().copied().zip(verdicts).collect();
        tuples.extend(overflow.iter().copied().filter(|t| out[t]));

        let mut splits = 0;
        if let Some(s) = split.filter(|_| update) {
            let (cut, ns) = (s.rank, filter.ns.expect("a split has a pair"));
            let label_of = |r: usize| match r {
                _ if r == ns.0 => labels[0],
                _ if r == ns.1 => labels[1],
                _ => filter.known_label(r),
            };
            let left_label = order_halves(kb.k(), cut, label_of);
            let left = if left_label {
                s.true_half
            } else {
                s.false_half
            };
            let sep = Separator::Cmp {
                pred: *pred,
                left_label,
            };
            split_kb(kb, cut, &left, Some(sep));
            kb.refine_overflow(cut, left_label, |t| out.get(&t).copied());
            splits = 1;
        }
        Selection {
            tuples,
            stats: QueryStats {
                qpf_uses: oracle.qpf_uses() - qpf_before,
                k_before,
                k_after: kb.k(),
                splits,
                filter_probes,
                ns_width: ns_width as u64,
                oracle_batches: scan_batches + 1,
                pruned_true,
                pruned_false,
                overflow_scanned: overflow.len(),
            },
        }
    }

    const DOMAIN: u64 = 300;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The one executor answers every comparison as the twin does — same
        /// tuple set, same QPF count, same stats but one oracle call fewer when
        /// the overflow is empty, byte-identical knowledge — over a stream
        /// that interleaves comparisons (all four operators, refining or
        /// static) with BETWEENs, whose cuts make inserts park, inserts,
        /// deletes and 1-D ranges.
        #[test]
        fn comparisons_match_the_reference_twin(
            seed in proptest::prelude::any::<u64>(),
            n in 40usize..2_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..DOMAIN)).collect();
            let mut oracle = PlainOracle::single_column(values);
            let mut kb: Knowledge<Predicate> = Knowledge::init(n);
            let mut kb_twin = kb.clone();
            for step in 0..40 {
                let query_seed = rng.gen();
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let op = ComparisonOp::ALL[rng.gen_range(0..4)];
                        let p = Predicate::cmp(0, op, rng.gen_range(0..DOMAIN + 2));
                        let update = rng.gen_range(0..5) > 0;
                        let empty_overflow = kb.overflow().is_empty();
                        let mut r = StdRng::seed_from_u64(query_seed);
                        let new = select_one(&mut kb, &oracle, &p, &mut r, update).unwrap();
                        let mut r = StdRng::seed_from_u64(query_seed);
                        let reference = twin(&mut kb_twin, &oracle, &p, &mut r, update);
                        proptest::prop_assert_eq!(new.sorted(), reference.sorted(), "step {}", step);
                        proptest::prop_assert_eq!(new.sorted(), oracle.expected_select(&p));
                        let batches = reference.stats.oracle_batches - u64::from(empty_overflow);
                        let expected = QueryStats { oracle_batches: batches, ..reference.stats };
                        proptest::prop_assert_eq!(new.stats, expected, "step {}", step);
                    }
                    5 => {
                        let lo = rng.gen_range(0..DOMAIN);
                        let p = Predicate::between(0, lo, lo + rng.gen_range(0..DOMAIN / 4));
                        let mut r = StdRng::seed_from_u64(query_seed);
                        let new = select_one(&mut kb, &oracle, &p, &mut r, true).unwrap();
                        let mut r = StdRng::seed_from_u64(query_seed);
                        let reference =
                            try_process_between(&mut kb_twin, &oracle, &p, &mut r, true).unwrap();
                        proptest::prop_assert_eq!(new.sorted(), reference.sorted());
                        proptest::prop_assert_eq!(new.stats, reference.stats);
                    }
                    6 | 7 => {
                        let t = oracle.insert(&[rng.gen_range(0..DOMAIN)]);
                        try_insert_tuple(&mut kb, &oracle, t).unwrap();
                        try_insert_tuple(&mut kb_twin, &oracle, t).unwrap();
                    }
                    8 => {
                        let t = rng.gen_range(0..oracle.n_slots() as TupleId);
                        oracle.delete(t);
                        kb.delete(t);
                        kb_twin.delete(t);
                    }
                    _ => {
                        let lo = rng.gen_range(0..DOMAIN);
                        let preds = [
                            Predicate::cmp(0, ComparisonOp::Ge, lo),
                            Predicate::cmp(0, ComparisonOp::Lt, lo + rng.gen_range(1..DOMAIN / 3)),
                        ];
                        let refine = Some(MdUpdatePolicy::PartialOnly);
                        let mut answers = Vec::new();
                        for knowledge in [&mut kb, &mut kb_twin] {
                            let [lo, hi] = &preds;
                            let mut dims = [MdDim { knowledge, preds: &[lo, hi] }];
                            let mut r = StdRng::seed_from_u64(query_seed);
                            answers.push(run(&mut dims, &oracle, &mut r, refine).unwrap());
                        }
                        proptest::prop_assert_eq!(answers[0].sorted(), answers[1].sorted());
                        proptest::prop_assert_eq!(answers[0].stats, answers[1].stats);
                    }
                }
                proptest::prop_assert_eq!(
                    snapshot::save(&kb),
                    snapshot::save(&kb_twin),
                    "KB after step {}",
                    step
                );
                kb.check_invariants();
            }
        }
    }

    /// An engine over one column of `values`, attribute 0 indexed.
    fn engine(values: Vec<u64>) -> (PrkbEngine<Predicate>, PlainOracle) {
        let mut engine = PrkbEngine::new(EngineConfig::default());
        engine.init_attr(0, values.len());
        (engine, PlainOracle::single_column(values))
    }

    fn select(
        engine: &mut PrkbEngine<Predicate>,
        oracle: &PlainOracle,
        p: Predicate,
        seed: u64,
    ) -> Selection {
        engine.select(oracle, &p, &mut StdRng::seed_from_u64(seed))
    }

    /// Values 0..n in `parts` partitions of `n / parts` consecutive values
    /// each, cut by `X < i·n/parts` (the POP's direction is its own).
    fn partitioned(n: u64, parts: u64) -> (PrkbEngine<Predicate>, PlainOracle) {
        let (mut engine, oracle) = engine((0..n).collect());
        for i in 1..parts {
            select(
                &mut engine,
                &oracle,
                Predicate::cmp(0, ComparisonOp::Lt, i * n / parts),
                i,
            );
        }
        assert_eq!(engine.knowledge(0).unwrap().k(), parts as usize);
        (engine, oracle)
    }

    fn kb(engine: &PrkbEngine<Predicate>) -> &Knowledge<Predicate> {
        engine.knowledge(0).expect("attribute 0 is indexed")
    }

    #[test]
    fn first_query_scans_everything_and_splits() {
        let (mut engine, oracle) = engine((0..100).collect());
        let sel = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Lt, 40),
            1,
        );
        assert_eq!(sel.sorted(), (0..40).collect::<Vec<_>>());
        assert_eq!(sel.stats.k_before, 1);
        assert_eq!(sel.stats.k_after, 2);
        assert_eq!(sel.stats.qpf_uses, 100);
        kb(&engine).check_invariants();
    }

    #[test]
    fn repeated_queries_refine_and_get_cheaper() {
        let (mut engine, oracle) = engine((0..1000).collect());
        let mut costs = Vec::new();
        for i in 0..50u64 {
            let p = Predicate::cmp(0, ComparisonOp::Lt, (i * 37 + 13) % 1000);
            let sel = select(&mut engine, &oracle, p, 7 + i);
            assert_eq!(sel.sorted(), oracle.expected_select(&p), "query {i}");
            costs.push(sel.stats.qpf_uses);
            kb(&engine).check_invariants();
        }
        // Knowledge accumulates: late queries are far cheaper than the first.
        let late_avg: u64 = costs[40..].iter().sum::<u64>() / 10;
        assert_eq!(costs[0], 1000);
        assert!(late_avg < 200, "late avg {late_avg}");
        assert!(kb(&engine).k() > 30, "k = {}", kb(&engine).k());
    }

    /// The reply is in band order: the partitions in rank order, each one's
    /// satisfying members in member order, then the overflow's.
    #[test]
    fn reply_is_in_band_order() {
        let n = 400u64;
        let mut rng = StdRng::seed_from_u64(17);
        let mut values: Vec<u64> = (0..n).collect();
        for i in (1..values.len()).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        let (mut engine, mut oracle) = engine(values);
        let late = oracle.insert(&[n / 2]);
        engine.knowledge_mut(0).unwrap().park(late, 0, 0);
        for q in 0..60u64 {
            let p = Predicate::cmp(0, ComparisonOp::ALL[q as usize % 4], rng.gen_range(0..n));
            let passing = |ts: &mut dyn Iterator<Item = TupleId>| -> Vec<TupleId> {
                ts.filter(|&t| p.eval(oracle.value(0, t))).collect()
            };
            let (pop, overflow) = (kb(&engine).pop(), kb(&engine).overflow());
            let mut ranks = (0..pop.k()).flat_map(|r| pop.members_at(r).iter().copied());
            let mut expected = passing(&mut ranks);
            expected.extend(passing(&mut overflow.iter().map(|e| e.tuple)));
            let sel = select(&mut engine, &oracle, p, q);
            assert_eq!(sel.tuples, expected, "query {q}");
        }
        kb(&engine).check_invariants();
    }

    #[test]
    fn all_four_operators_supported() {
        for op in ComparisonOp::ALL {
            let (mut engine, oracle) = engine((0..200).collect());
            // Warm up with a couple of cuts.
            select(
                &mut engine,
                &oracle,
                Predicate::cmp(0, ComparisonOp::Lt, 50),
                1,
            );
            select(
                &mut engine,
                &oracle,
                Predicate::cmp(0, ComparisonOp::Lt, 150),
                2,
            );
            let p = Predicate::cmp(0, op, 99);
            let sel = select(&mut engine, &oracle, p, 3);
            assert_eq!(sel.sorted(), oracle.expected_select(&p), "{op:?}");
            kb(&engine).check_invariants();
        }
    }

    #[test]
    fn equivalent_predicate_does_not_split() {
        let (mut engine, oracle) = engine((0..100).collect());
        select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Lt, 40),
            1,
        );
        // `X < 40` and `X <= 39` induce identical partitions (integers).
        let sel = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Le, 39),
            2,
        );
        assert_eq!(sel.sorted(), (0..40).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 0);
        assert_eq!(kb(&engine).k(), 2);
        // Opposite side of the same cut is also equivalent.
        let sel = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Ge, 40),
            3,
        );
        assert_eq!(sel.sorted(), (40..100).collect::<Vec<_>>());
        assert_eq!(kb(&engine).k(), 2);
        kb(&engine).check_invariants();
    }

    #[test]
    fn static_mode_answers_but_never_updates() {
        let (mut engine, oracle) = engine((0..100).collect());
        select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Lt, 50),
            1,
        );
        let k = kb(&engine).k();
        engine.config.refine = None;
        let p = Predicate::cmp(0, ComparisonOp::Lt, 23);
        let sel = select(&mut engine, &oracle, p, 9);
        assert_eq!(sel.sorted(), oracle.expected_select(&p));
        assert_eq!(kb(&engine).k(), k, "static PRKB must not grow");
    }

    #[test]
    fn select_none_and_select_all() {
        let (mut engine, oracle) = engine((0..50).collect());
        let none = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Gt, 1000),
            1,
        );
        assert!(none.tuples.is_empty());
        let all = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Le, 1000),
            2,
        );
        assert_eq!(all.tuples.len(), 50);
        // Neither predicate separates anything: k stays 1.
        assert_eq!(kb(&engine).k(), 1);
    }

    #[test]
    fn update_order_is_consistent_with_plain_order() {
        // After many random updates, partitions must be contiguous runs of
        // the (secretly ascending or descending) plain order.
        let (mut engine, oracle) = engine((0..500).collect());
        for i in 0..40u64 {
            let bound = (i * 97 + 31) % 500;
            select(
                &mut engine,
                &oracle,
                Predicate::cmp(0, ComparisonOp::Lt, bound),
                11 + i,
            );
        }
        kb(&engine).check_invariants();
        // Per-rank (min, max) plain values must be disjoint and monotone in
        // one direction.
        let pop = kb(&engine).pop();
        let ranges: Vec<(u64, u64)> = (0..pop.k())
            .map(|r| {
                let m = pop.members_at(r);
                let lo = m.iter().map(|&t| oracle.value(0, t)).min().unwrap();
                let hi = m.iter().map(|&t| oracle.value(0, t)).max().unwrap();
                (lo, hi)
            })
            .collect();
        let ascending = ranges.windows(2).all(|w| w[0].1 < w[1].0);
        let descending = ranges.windows(2).all(|w| w[0].0 > w[1].1);
        assert!(
            ascending || descending,
            "partitions must be value-contiguous and ordered: {ranges:?}"
        );
    }

    #[test]
    fn duplicate_values_grouped() {
        // Heavy duplicates: cuts between duplicate groups only.
        let values = [vec![5u64; 30], vec![10; 30], vec![20; 40]].concat();
        let (mut engine, oracle) = engine(values);
        for (i, bound) in [7u64, 15, 3, 25, 10, 5, 20].into_iter().enumerate() {
            let p = Predicate::cmp(0, ComparisonOp::Lt, bound);
            let sel = select(&mut engine, &oracle, p, 13 + i as u64);
            assert_eq!(sel.sorted(), oracle.expected_select(&p), "bound {bound}");
            kb(&engine).check_invariants();
        }
        // Only 3 distinct values: k can never exceed 3.
        assert!(kb(&engine).k() <= 3, "k = {}", kb(&engine).k());
    }

    #[test]
    fn inequivalent_predicate_splits_and_selects() {
        let (mut engine, oracle) = partitioned(100, 10);
        let sel = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Lt, 37),
            1,
        );
        assert_eq!(sel.sorted(), (0..37).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 1, "the cut at 37 is inside 30..40");
        let pop = kb(&engine).pop();
        assert_eq!(pop.k(), 11);
        let rank = |v: TupleId| pop.rank_of_tuple(v).unwrap();
        assert_eq!(rank(30), rank(36));
        assert_eq!(rank(37), rank(39));
        assert_ne!(rank(36), rank(37));
        assert_eq!(pop.members_at(rank(30)).len(), 7);
    }

    /// Early stop: when P_a proves mixed, P_b costs nothing — the scan
    /// spends |P_a| alone, else |P_a| + |P_b|.
    #[test]
    fn early_stop_spends_no_qpf_on_second_partition() {
        let (mut engine, oracle) = partitioned(100, 10);
        engine.config.refine = None;
        let p = Predicate::cmp(0, ComparisonOp::Lt, 37);
        let mut stopped = false;
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let f: FilterResult = try_qfilter(kb(&engine).pop(), &oracle, &p, &mut rng).unwrap();
            let (a, b) = f.ns.unwrap();
            let pop = kb(&engine).pop();
            let a_mixed = pop.members_at(a).iter().any(|&t| t < 37)
                && pop.members_at(a).iter().any(|&t| t >= 37);
            let sel = select(&mut engine, &oracle, p, seed);
            assert_eq!(sel.sorted(), oracle.expected_select(&p));
            let scanned = sel.stats.qpf_uses - sel.stats.filter_probes;
            let pop = kb(&engine).pop();
            if a_mixed && a != b {
                stopped = true;
                assert_eq!(scanned as usize, pop.members_at(a).len());
            } else {
                assert_eq!(
                    scanned as usize,
                    pop.members_at(a).len() + pop.members_at(b).len()
                );
            }
        }
        assert!(stopped, "some seed finds P_a mixed");
    }

    #[test]
    fn equivalent_predicate_no_split() {
        let (mut engine, oracle) = partitioned(100, 10);
        // Cut exactly on an existing partition boundary (value 30): both NS
        // partitions scan homogeneous.
        let sel = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Lt, 30),
            2,
        );
        assert_eq!(sel.stats.splits, 0, "a boundary-aligned cut must not split");
        assert_eq!(kb(&engine).k(), 10);
        assert_eq!(sel.sorted(), (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn boundary_case_select_all() {
        let (mut engine, oracle) = partitioned(100, 10);
        let sel = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Ge, 0),
            3,
        );
        assert_eq!(sel.stats.splits, 0);
        assert_eq!(
            sel.stats.pruned_true, 8,
            "every middle rank passes by label"
        );
        assert_eq!(sel.sorted(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn boundary_case_select_none() {
        let (mut engine, oracle) = partitioned(100, 10);
        let sel = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Gt, 1000),
            4,
        );
        assert_eq!(sel.stats.splits, 0);
        assert_eq!(
            sel.stats.pruned_false, 8,
            "every middle rank fails by label"
        );
        assert!(sel.tuples.is_empty());
    }

    #[test]
    fn single_partition_full_scan() {
        let (mut engine, oracle) = engine((0..20).collect());
        let sel = select(
            &mut engine,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Lt, 7),
            5,
        );
        assert_eq!(
            sel.stats.splits, 1,
            "an interior cut splits the only partition"
        );
        assert_eq!(sel.stats.qpf_uses, 20);
        assert_eq!(sel.stats.oracle_batches, 1, "one batch, no overflow call");
        let pop = kb(&engine).pop();
        let sizes: Vec<usize> = (0..2).map(|r| pop.members_at(r).len()).collect();
        assert!(sizes == [7, 13] || sizes == [13, 7], "{sizes:?}");
        assert_eq!(sel.sorted(), (0..7).collect::<Vec<_>>());
    }
}
