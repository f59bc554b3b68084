//! BETWEEN operator processing (paper Appendix A).
//!
//! A BETWEEN trapdoor answers 1 exactly inside `[lo, hi]`, so — unlike a
//! comparison — the *direction* of a positive answer is known, but a
//! negative answer does not say which side of the range the tuple is on.
//!
//! Processing mirrors `QFilter`/`QScan`: hunt for a partition whose sample
//! answers 1, binary-search the two transitions, scan the (up to four)
//! boundary partitions, and take everything strictly between as winners.
//! Each boundary partition that proves mixed splits exactly like a
//! comparison split, with the interior half adjacent to the proven-true
//! side. The paper's exceptional case — both cuts inside one partition, so
//! the outside half is not value-contiguous — is detected and skipped
//! (no sound refinement exists there).

use crate::knowledge::{BetweenEdge, Knowledge, Separator};
use crate::selection::{QueryStats, Selection};
use crate::traits::SpPredicate;
use prkb_edbms::{OracleError, SelectionOracle, TupleId};
use rand::Rng;

/// Per-rank full-scan outcome.
struct RankScan {
    rank: usize,
    true_half: Vec<TupleId>,
    false_half: Vec<TupleId>,
}

/// Processes one BETWEEN trapdoor against the knowledge base.
///
/// # Errors
/// Propagates the first oracle failure. **Abort-safe:** the transition hunt,
/// boundary scans, and overflow batch are all evaluated before
/// `apply_between_updates` commits any split, so on error `kb` is
/// byte-identical to its pre-query state.
pub(crate) fn try_process_between<O, R>(
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
    let k = kb.k();

    let mut tuples: Vec<TupleId> = Vec::new();
    let mut scans: Vec<RankScan> = Vec::new();
    let mut middle_true: Vec<usize> = Vec::new();
    // Per-sample probes (hunt + binary search) — the BETWEEN analogue of
    // QFilter's O(lg k) location cost.
    let mut filter_probes = 0u64;
    // Verdict scratch shared by every batch of this query.
    let mut verdicts: Vec<bool> = Vec::new();

    if k > 0 {
        // Phase 1: hunt for a positive sample, rank by rank.
        let mut first_true: Option<usize> = None;
        for rank in 0..k {
            filter_probes += 1;
            if oracle.try_eval(pred, kb.pop().sample_at(rank, rng))? {
                first_true = Some(rank);
                break;
            }
        }

        match first_true {
            Some(r) => {
                // Phase 2: the low transition is (r-1, r) — every earlier
                // sample answered 0. Find the high transition by binary
                // search on samples (monotone up to the boundary partition).
                let mut scan_set: Vec<usize> = Vec::new();
                if r > 0 {
                    scan_set.push(r - 1);
                }
                scan_set.push(r);

                let high_lo = if r == k - 1 {
                    k - 1
                } else {
                    filter_probes += 1;
                    if oracle.try_eval(pred, kb.pop().sample_at(k - 1, rng))? {
                        // Range reaches the top partition.
                        scan_set.push(k - 1);
                        k - 1
                    } else {
                        let mut lo = r;
                        let mut hi = k - 1;
                        while hi - lo > 1 {
                            let m = (lo + hi) / 2;
                            filter_probes += 1;
                            if oracle.try_eval(pred, kb.pop().sample_at(m, rng))? {
                                lo = m;
                            } else {
                                hi = m;
                            }
                        }
                        scan_set.push(lo);
                        scan_set.push(hi);
                        lo
                    }
                };

                scan_set.sort_unstable();
                scan_set.dedup();

                // Ranks strictly between the low and high scans are fully
                // inside the range.
                middle_true.extend((r + 1..high_lo).filter(|q| !scan_set.contains(q)));

                for &rank in &scan_set {
                    scans.push(scan_rank(kb, oracle, pred, rank, &mut verdicts)?);
                }
            }
            None => {
                // No positive sample anywhere: the range may still hide
                // inside one partition — fall back to a full scan.
                for rank in 0..k {
                    scans.push(scan_rank(kb, oracle, pred, rank, &mut verdicts)?);
                }
            }
        }

        for &rank in &middle_true {
            tuples.extend_from_slice(kb.pop().members_at(rank));
        }
        for s in &scans {
            tuples.extend_from_slice(&s.true_half);
        }
    }

    // Overflow tuples are always examined, unconditionally — one batch.
    let overflow: Vec<TupleId> = kb.overflow().iter().map(|e| e.tuple).collect();
    let overflow_scanned = overflow.len();
    let mut overflow_batches = 0u64;
    if !overflow.is_empty() {
        oracle.try_eval_batch(pred, &overflow, &mut verdicts)?;
        overflow_batches = 1;
        tuples.extend(
            overflow
                .into_iter()
                .zip(verdicts)
                .filter_map(|(t, v)| v.then_some(t)),
        );
    }

    // ---- Commit phase: infallible, no oracle calls past this point. ----
    let mut splits = 0usize;
    if update && !scans.is_empty() {
        splits = apply_between_updates(kb, pred, &scans, &middle_true);
    }

    // Breakdown: scanned boundary partitions are the BETWEEN "NS width";
    // middle ranks pass by label (pruned true), the remaining unscanned
    // ranks were excluded by their negative samples (pruned false).
    let ns_width: u64 = scans
        .iter()
        .map(|s| (s.true_half.len() + s.false_half.len()) as u64)
        .sum();
    Ok(Selection {
        tuples,
        stats: QueryStats {
            qpf_uses: oracle.qpf_uses().saturating_sub(qpf_before),
            k_before,
            k_after: kb.k(),
            splits,
            filter_probes,
            ns_width,
            oracle_batches: scans.len() as u64 + overflow_batches,
            pruned_true: middle_true.len(),
            pruned_false: k.saturating_sub(scans.len() + middle_true.len()),
            overflow_scanned,
        },
    })
}

fn scan_rank<O: SelectionOracle>(
    kb: &Knowledge<O::Pred>,
    oracle: &O,
    pred: &O::Pred,
    rank: usize,
    verdicts: &mut Vec<bool>,
) -> Result<RankScan, OracleError>
where
    O::Pred: SpPredicate,
{
    // Full partition scan: every member is evaluated unconditionally, so a
    // single batch gives the exact per-tuple QPF count.
    let members = kb.pop().members_at(rank);
    oracle.try_eval_batch(pred, members, verdicts)?;
    let mut true_half = Vec::new();
    let mut false_half = Vec::new();
    for (&t, &v) in members.iter().zip(verdicts.iter()) {
        if v {
            true_half.push(t);
        } else {
            false_half.push(t);
        }
    }
    Ok(RankScan {
        rank,
        true_half,
        false_half,
    })
}

/// Splits the (≤ 2) mixed boundary partitions. Returns the number of splits.
fn apply_between_updates<P: SpPredicate>(
    kb: &mut Knowledge<P>,
    pred: &P,
    scans: &[RankScan],
    middle_true: &[usize],
) -> usize {
    // The true span: every rank with at least one positive tuple.
    let mut true_ranks: Vec<usize> = middle_true.to_vec();
    true_ranks.extend(
        scans
            .iter()
            .filter(|s| !s.true_half.is_empty())
            .map(|s| s.rank),
    );
    let (Some(&min_true), Some(&max_true)) = (true_ranks.iter().min(), true_ranks.iter().max())
    else {
        return 0; // nothing satisfied: no refinement possible
    };

    // Collect splittable mixed partitions; apply in descending rank order so
    // earlier splits do not shift later ranks.
    let mut pending: Vec<(usize, Vec<TupleId>, Vec<TupleId>, BetweenEdge)> = Vec::new();
    for s in scans {
        if s.true_half.is_empty() || s.false_half.is_empty() {
            continue; // homogeneous: nothing to refine
        }
        if s.rank == min_true && s.rank == max_true {
            // Paper's exceptional case: both cuts may lie inside this one
            // partition, so its false half is not value-contiguous — skip.
            continue;
        }
        if s.rank == min_true {
            // Low boundary: interior continues to the right.
            pending.push((
                s.rank,
                s.false_half.clone(),
                s.true_half.clone(),
                BetweenEdge::InteriorRight,
            ));
        } else if s.rank == max_true {
            // High boundary: interior continues to the left.
            pending.push((
                s.rank,
                s.true_half.clone(),
                s.false_half.clone(),
                BetweenEdge::InteriorLeft,
            ));
        } else {
            debug_assert!(false, "mixed partition strictly inside the true span");
        }
    }

    pending.sort_by_key(|e| std::cmp::Reverse(e.0));
    let n = pending.len();
    for (rank, left, right, edge) in pending {
        let sep = Separator::Between {
            pred: pred.clone(),
            edge,
        };
        kb.apply_split(rank, left, right, Some(sep));
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sd::try_process_comparison;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, cuts: &[u64]) -> (Knowledge<Predicate>, PlainOracle) {
        let values: Vec<u64> = (0..n as u64).collect();
        let oracle = PlainOracle::single_column(values);
        let mut kb: Knowledge<Predicate> = Knowledge::init(n);
        let mut rng = StdRng::seed_from_u64(1);
        for &c in cuts {
            try_process_comparison(
                &mut kb,
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, c),
                &mut rng,
                true,
            )
            .unwrap();
        }
        oracle.reset_uses();
        (kb, oracle)
    }

    fn run(
        kb: &mut Knowledge<Predicate>,
        oracle: &PlainOracle,
        lo: u64,
        hi: u64,
        seed: u64,
    ) -> Selection {
        let mut rng = StdRng::seed_from_u64(seed);
        try_process_between(kb, oracle, &Predicate::between(0, lo, hi), &mut rng, true).unwrap()
    }

    #[test]
    fn between_on_fresh_knowledge() {
        let (mut kb, oracle) = setup(100, &[]);
        let sel = run(&mut kb, &oracle, 30, 60, 2);
        assert_eq!(sel.sorted(), (30..=60).collect::<Vec<_>>());
        // k == 1: both cuts inside the only partition → no sound update.
        assert_eq!(kb.k(), 1);
        kb.check_invariants();
    }

    #[test]
    fn between_spanning_partitions_selects_and_splits() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        assert_eq!(kb.k(), 4);
        let sel = run(&mut kb, &oracle, 30, 60, 3);
        assert_eq!(sel.sorted(), (30..=60).collect::<Vec<_>>());
        // Both cuts fall in different partitions → two splits (k: 4 → 6),
        // "equivalent to two separate comparisons" per Appendix A.
        assert_eq!(sel.stats.splits, 2);
        assert_eq!(kb.k(), 6);
        kb.check_invariants();
    }

    #[test]
    fn between_refinement_speeds_up_future_queries() {
        let (mut kb, oracle) = setup(1000, &[250, 500, 750]);
        run(&mut kb, &oracle, 300, 600, 4);
        oracle.reset_uses();
        // The cuts at 300/600 now exist: an aligned comparison is equivalent.
        let mut rng = StdRng::seed_from_u64(5);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 300);
        let sel = try_process_comparison(&mut kb, &oracle, &p, &mut rng, true).unwrap();
        assert_eq!(sel.sorted(), oracle.expected_select(&p));
        assert_eq!(
            sel.stats.splits, 0,
            "cut at 300 aligns with BETWEEN's low cut"
        );
        kb.check_invariants();
    }

    #[test]
    fn between_aligned_with_existing_cuts_no_split() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        let sel = run(&mut kb, &oracle, 25, 49, 6);
        assert_eq!(sel.sorted(), (25..=49).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 0);
        assert_eq!(kb.k(), 4);
        kb.check_invariants();
    }

    #[test]
    fn tiny_range_inside_one_partition_skips_update() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        let sel = run(&mut kb, &oracle, 30, 33, 7);
        assert_eq!(sel.sorted(), (30..=33).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 0, "non-contiguous complement: no update");
        assert_eq!(kb.k(), 4);
        kb.check_invariants();
    }

    #[test]
    fn range_reaching_the_data_extremes() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        let sel = run(&mut kb, &oracle, 0, 99, 8);
        assert_eq!(sel.tuples.len(), 100);
        assert_eq!(sel.stats.splits, 0);
        // Range reaching above the top only (one interior cut at 60).
        let sel = run(&mut kb, &oracle, 60, 2000, 9);
        assert_eq!(sel.sorted(), (60..100).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 1);
        kb.check_invariants();
    }

    #[test]
    fn empty_result_range() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        let sel = run(&mut kb, &oracle, 500, 600, 10);
        assert!(sel.tuples.is_empty());
        assert_eq!(sel.stats.splits, 0);
        kb.check_invariants();
    }

    #[test]
    fn many_random_betweens_stay_correct() {
        let (mut kb, oracle) = setup(500, &[100, 400]);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..30u64 {
            let lo = (i * 53) % 450;
            let hi = lo + 20 + (i * 7) % 60;
            let p = Predicate::between(0, lo, hi);
            let sel = try_process_between(&mut kb, &oracle, &p, &mut rng, true).unwrap();
            assert_eq!(
                sel.sorted(),
                oracle.expected_select(&p),
                "range [{lo},{hi}]"
            );
            kb.check_invariants();
        }
        assert!(kb.k() > 5, "k = {}", kb.k());
    }

    #[test]
    fn empty_knowledge_base() {
        let oracle = PlainOracle::single_column(vec![]);
        let mut kb: Knowledge<Predicate> = Knowledge::init(0);
        let sel = run(&mut kb, &oracle, 1, 5, 12);
        assert!(sel.tuples.is_empty());
    }
}
