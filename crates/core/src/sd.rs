//! Single-comparison-predicate processing (paper §5) and `updatePRKB`
//! (§5.3).
//!
//! The pipeline is exactly Fig. 2b: `QFilter` narrows the work to the
//! NS-pair, `QScan` confirms it (with early stop), the selection result is
//! `T_W ∪ T_WNS`, and — when the trapdoor proved inequivalent — the
//! discovered split refines the POP at zero additional QPF cost.

use crate::knowledge::{Knowledge, Separator};
use crate::qfilter::{try_qfilter, FilterResult};
use crate::qscan::{try_qscan, ScanResult, Split};
use crate::selection::{QueryStats, Selection};
use crate::traits::SpPredicate;
use prkb_edbms::{OracleError, SelectionOracle, TupleId};
use rand::Rng;
use std::collections::HashMap;

/// Processes one comparison trapdoor against the knowledge base.
///
/// When `update` is true (the normal mode), an inequivalent trapdoor splits
/// the non-homogeneous partition and is retained as a separator; overflow
/// tuples are refined and possibly promoted. With `update` false the PRKB is
/// static (the paper's "static PRKB with 250 partitions" experiments).
///
/// # Errors
/// Propagates the first oracle failure. **Abort-safe:** every oracle
/// evaluation (filter, scan, overflow batch) happens before any knowledge
/// mutation, so on error `kb` is byte-identical to its pre-query state.
pub fn try_process_comparison<O, R>(
    kb: &mut Knowledge<O::Pred>,
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
    let qpf_before = oracle.qpf_uses();
    let k_before = kb.k();

    // ---- Evaluation phase: fallible, reads only. ----
    let filter = try_qfilter(kb.pop(), oracle, pred, rng)?;
    let filter_probes = oracle.qpf_uses().saturating_sub(qpf_before);
    let mut scan = try_qscan(kb.pop(), oracle, pred, &filter)?;

    // Cost breakdown: NS-pair width and batches actually issued. P_b costs
    // a batch only when P_a scanned homogeneous (no early stop).
    let (ns_width, scan_batches) = match filter.ns {
        None => (0u64, 0u64),
        Some((a, b)) if a == b => (kb.pop().members_at(a).len() as u64, 1),
        Some((a, b)) => (
            (kb.pop().members_at(a).len() + kb.pop().members_at(b).len()) as u64,
            if scan.label_a_full.is_none() { 1 } else { 2 },
        ),
    };

    // T_W ∪ T_WNS, T_WNS in scan order: the split's true half is not in
    // the scan's winners, and leads them when P_a split. It is appended
    // here, before the commit moves the split into the knowledge.
    let mut tuples = filter.winner_tuples(kb.pop());
    let split_true = scan.split.as_ref().map_or(&[][..], |s| &s.true_half[..]);
    let a_split = scan.label_a_full.is_none();
    if a_split {
        tuples.extend_from_slice(split_true);
    }
    tuples.extend_from_slice(&scan.winners);
    if !a_split {
        tuples.extend_from_slice(split_true);
    }

    // Overflow tuples are always examined, unconditionally — one batch.
    let overflow: Vec<TupleId> = kb.overflow().iter().map(|e| e.tuple).collect();
    let overflow_scanned = overflow.len();
    let mut verdicts = Vec::new();
    oracle.try_eval_batch(pred, &overflow, &mut verdicts)?;
    let mut overflow_out: HashMap<TupleId, bool> = HashMap::new();
    for (t, out) in overflow.into_iter().zip(verdicts) {
        overflow_out.insert(t, out);
        if out {
            tuples.push(t);
        }
    }

    // ---- Commit phase: infallible, no oracle calls past this point. ----
    let mut splits = 0usize;
    if update {
        if let Some(split) = scan.split.take() {
            let cut = split.rank;
            let (left, right, left_label) = order_split(kb, &filter, &scan, split);
            let sep = Separator::Cmp {
                pred: pred.clone(),
                left_label,
            };
            kb.apply_split(cut, left, right, Some(sep));
            splits = 1;
            kb.refine_overflow(cut, left_label, |t| overflow_out.get(&t).copied());
        }
        // Equivalent trapdoors (Case 1) must NOT refine overflow intervals:
        // their cut coincides with a retained boundary only as a *tuple*
        // partitioning — the value thresholds can differ inside a gap left
        // by deletions, and a parked tuple whose value lies between the two
        // thresholds would receive contradictory index-space claims.
        // Intervals therefore reference retained separator thresholds only.
    }

    Ok(Selection {
        tuples,
        stats: QueryStats {
            qpf_uses: oracle.qpf_uses().saturating_sub(qpf_before),
            k_before,
            k_after: kb.k(),
            splits,
            filter_probes,
            ns_width,
            oracle_batches: scan_batches + 1, // + unconditional overflow batch
            pruned_true: filter.winner_ranks.len(),
            pruned_false: filter.false_ranks.len(),
            overflow_scanned,
        },
    })
}

/// Decides the order of the two halves of a split (paper §5.3): the half
/// whose QPF label matches a known-labelled neighbour is placed adjacent to
/// that neighbour. Returns `(left_members, right_members, left_label)`.
fn order_split<P: SpPredicate>(
    kb: &Knowledge<P>,
    filter: &FilterResult,
    scan: &ScanResult,
    split: Split,
) -> (Vec<TupleId>, Vec<TupleId>, bool) {
    let Split {
        rank,
        true_half,
        false_half,
    } = split;
    crate::update::order_halves(kb.k(), rank, true_half, false_half, |rank| {
        neighbor_label(filter, scan, rank)
    })
}

/// The QPF label of the partition at `rank`, as established by this query
/// (sampled group label, or the NS partition's full-scan label).
fn neighbor_label(filter: &FilterResult, scan: &ScanResult, rank: usize) -> Option<bool> {
    if let Some((a, b)) = filter.ns {
        if rank == a {
            return scan.label_a_full;
        }
        if rank == b {
            return scan.label_b_full;
        }
    }
    filter.known_label(rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (Knowledge<Predicate>, PlainOracle) {
        let values: Vec<u64> = (0..n as u64).collect();
        (Knowledge::init(n), PlainOracle::single_column(values))
    }

    fn run(
        kb: &mut Knowledge<Predicate>,
        oracle: &PlainOracle,
        pred: Predicate,
        seed: u64,
    ) -> Selection {
        let mut rng = StdRng::seed_from_u64(seed);
        try_process_comparison(kb, oracle, &pred, &mut rng, true).unwrap()
    }

    #[test]
    fn first_query_scans_everything_and_splits() {
        let (mut kb, oracle) = setup(100);
        let sel = run(&mut kb, &oracle, Predicate::cmp(0, ComparisonOp::Lt, 40), 1);
        assert_eq!(sel.sorted(), (0..40).collect::<Vec<_>>());
        assert_eq!(sel.stats.k_before, 1);
        assert_eq!(sel.stats.k_after, 2);
        assert_eq!(sel.stats.qpf_uses, 100);
        kb.check_invariants();
    }

    #[test]
    fn repeated_queries_refine_and_get_cheaper() {
        let (mut kb, oracle) = setup(1000);
        let mut rng = StdRng::seed_from_u64(7);
        let mut costs = Vec::new();
        for i in 0..50u64 {
            let bound = (i * 37 + 13) % 1000;
            let sel = try_process_comparison(
                &mut kb,
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, bound),
                &mut rng,
                true,
            )
            .unwrap();
            assert_eq!(
                sel.sorted(),
                oracle.expected_select(&Predicate::cmp(0, ComparisonOp::Lt, bound)),
                "query {i} (bound {bound})"
            );
            costs.push(sel.stats.qpf_uses);
            kb.check_invariants();
        }
        // Knowledge accumulates: late queries are far cheaper than the first.
        let late_avg: u64 = costs[40..].iter().sum::<u64>() / 10;
        assert_eq!(costs[0], 1000);
        assert!(late_avg < 200, "late avg {late_avg}");
        assert!(kb.k() > 30, "k = {}", kb.k());
    }

    /// The reply is `T_W`, then P_a's satisfying members and P_b's, each in
    /// member order, then the overflow's — whichever NS partition split.
    #[test]
    fn reply_is_in_scan_order() {
        let n = 400u64;
        let mut rng = StdRng::seed_from_u64(17);
        let mut values: Vec<u64> = (0..n).collect();
        for i in (1..values.len()).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        let mut oracle = PlainOracle::single_column(values);
        let mut kb: Knowledge<Predicate> = Knowledge::init(n as usize);
        let late = oracle.insert(&[n / 2]);
        kb.park(late, 0, 0);
        for q in 0..60u64 {
            let p = Predicate::cmp(0, ComparisonOp::ALL[q as usize % 4], rng.gen_range(0..n));
            let seed = rng.gen();
            let f = try_qfilter(kb.pop(), &oracle, &p, &mut StdRng::seed_from_u64(seed)).unwrap();
            let pop = kb.pop();
            let passing = |ts: &[TupleId]| -> Vec<TupleId> {
                ts.iter()
                    .copied()
                    .filter(|&t| p.eval(oracle.value(0, t)))
                    .collect()
            };
            let mut expected = f.winner_tuples(pop);
            if let Some((a, b)) = f.ns {
                expected.extend(passing(pop.members_at(a)));
                if b != a {
                    expected.extend(passing(pop.members_at(b)));
                }
            }
            let overflow: Vec<TupleId> = kb.overflow().iter().map(|e| e.tuple).collect();
            expected.extend(passing(&overflow));
            let mut rng = StdRng::seed_from_u64(seed);
            let sel = try_process_comparison(&mut kb, &oracle, &p, &mut rng, true).unwrap();
            assert_eq!(sel.tuples, expected, "query {q}");
        }
        kb.check_invariants();
    }

    #[test]
    fn all_four_operators_supported() {
        for op in ComparisonOp::ALL {
            let (mut kb, oracle) = setup(200);
            // Warm up with a couple of cuts.
            run(&mut kb, &oracle, Predicate::cmp(0, ComparisonOp::Lt, 50), 1);
            run(
                &mut kb,
                &oracle,
                Predicate::cmp(0, ComparisonOp::Lt, 150),
                2,
            );
            let p = Predicate::cmp(0, op, 99);
            let sel = run(&mut kb, &oracle, p, 3);
            assert_eq!(sel.sorted(), oracle.expected_select(&p), "{op:?}");
            kb.check_invariants();
        }
    }

    #[test]
    fn equivalent_predicate_does_not_split() {
        let (mut kb, oracle) = setup(100);
        run(&mut kb, &oracle, Predicate::cmp(0, ComparisonOp::Lt, 40), 1);
        // `X < 40` and `X <= 39` induce identical partitions (integers).
        let sel = run(&mut kb, &oracle, Predicate::cmp(0, ComparisonOp::Le, 39), 2);
        assert_eq!(sel.sorted(), (0..40).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 0);
        assert_eq!(kb.k(), 2);
        // Opposite side of the same cut is also equivalent.
        let sel = run(&mut kb, &oracle, Predicate::cmp(0, ComparisonOp::Ge, 40), 3);
        assert_eq!(sel.sorted(), (40..100).collect::<Vec<_>>());
        assert_eq!(kb.k(), 2);
        kb.check_invariants();
    }

    #[test]
    fn static_mode_answers_but_never_updates() {
        let (mut kb, oracle) = setup(100);
        run(&mut kb, &oracle, Predicate::cmp(0, ComparisonOp::Lt, 50), 1);
        let k = kb.k();
        let mut rng = StdRng::seed_from_u64(9);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 23);
        let sel = try_process_comparison(&mut kb, &oracle, &p, &mut rng, false).unwrap();
        assert_eq!(sel.sorted(), oracle.expected_select(&p));
        assert_eq!(kb.k(), k, "static PRKB must not grow");
    }

    #[test]
    fn select_none_and_select_all() {
        let (mut kb, oracle) = setup(50);
        let none = run(
            &mut kb,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Gt, 1000),
            1,
        );
        assert!(none.tuples.is_empty());
        let all = run(
            &mut kb,
            &oracle,
            Predicate::cmp(0, ComparisonOp::Le, 1000),
            2,
        );
        assert_eq!(all.tuples.len(), 50);
        // Neither predicate separates anything: k stays 1.
        assert_eq!(kb.k(), 1);
    }

    #[test]
    fn update_order_is_consistent_with_plain_order() {
        // After many random updates, partitions must be contiguous runs of
        // the (secretly ascending or descending) plain order.
        let (mut kb, oracle) = setup(500);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..40u64 {
            let bound = (i * 97 + 31) % 500;
            try_process_comparison(
                &mut kb,
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, bound),
                &mut rng,
                true,
            )
            .unwrap();
        }
        kb.check_invariants();
        // Collect per-rank (min, max) plain values; ranges must be disjoint
        // and monotone in one direction.
        let pop = kb.pop();
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
        let values = vec![5u64; 30]
            .into_iter()
            .chain(vec![10u64; 30])
            .chain(vec![20u64; 40])
            .collect::<Vec<_>>();
        let oracle = PlainOracle::single_column(values);
        let mut kb: Knowledge<Predicate> = Knowledge::init(100);
        let mut rng = StdRng::seed_from_u64(13);
        for bound in [7u64, 15, 3, 25, 10, 5, 20] {
            let p = Predicate::cmp(0, ComparisonOp::Lt, bound);
            let sel = try_process_comparison(&mut kb, &oracle, &p, &mut rng, true).unwrap();
            assert_eq!(sel.sorted(), oracle.expected_select(&p), "bound {bound}");
            kb.check_invariants();
        }
        // Only 3 distinct values: k can never exceed 3.
        assert!(kb.k() <= 3, "k = {}", kb.k());
    }
}
