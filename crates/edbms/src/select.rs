//! Baseline selection executors (no PRKB).
//!
//! These are the paper's "Baseline": apply the QPF to every live tuple, one
//! by one. For conjunctions (multi-dimensional range queries processed as 2d
//! comparison trapdoors) the scan short-circuits per tuple as soon as one
//! predicate fails — the paper's footnote 5 behaviour, so the measured QPF
//! count matches "up to 2dn".

use crate::oracle::SelectionOracle;
use crate::schema::TupleId;

/// Linear scan: evaluates `pred` on every live tuple.
///
/// Every live tuple is evaluated unconditionally, so the whole scan is a
/// single [`SelectionOracle::eval_batch`] — same answers and QPF count as
/// the per-tuple loop, minus the per-tuple lock traffic.
///
/// # Panics
/// Panics on oracle failure: the baseline has no knowledge to protect, so
/// it has no fallible form.
pub fn linear_scan<O: SelectionOracle>(oracle: &O, pred: &O::Pred) -> Vec<TupleId> {
    let live: Vec<TupleId> = (0..oracle.n_slots() as TupleId)
        .filter(|&t| oracle.is_live(t))
        .collect();
    let mut verdicts = Vec::new();
    oracle.eval_batch(pred, &live, &mut verdicts);
    live.into_iter()
        .zip(verdicts)
        .filter_map(|(t, v)| v.then_some(t))
        .collect()
}

/// Conjunctive scan, batched predicate-by-predicate over survivors: a tuple
/// is in the result iff it satisfies *all* predicates, and a tuple stops
/// being evaluated at the first failing predicate.
///
/// This is the batched form of the per-tuple short-circuit loop: predicate
/// `p_i` is evaluated on exactly the tuples that passed `p_0..p_{i-1}`, so
/// the QPF count matches the paper's footnote-5 "up to 2dn" accounting
/// use for use.
///
/// # Panics
/// Panics on oracle failure, like [`linear_scan`].
pub fn conjunctive_scan<O: SelectionOracle>(oracle: &O, preds: &[O::Pred]) -> Vec<TupleId> {
    let mut survivors: Vec<TupleId> = (0..oracle.n_slots() as TupleId)
        .filter(|&t| oracle.is_live(t))
        .collect();
    let mut verdicts = Vec::new();
    for p in preds {
        if survivors.is_empty() {
            break;
        }
        oracle.eval_batch(p, &survivors, &mut verdicts);
        debug_assert_eq!(verdicts.len(), survivors.len());
        let mut keep = verdicts.iter().copied();
        survivors.retain(|_| keep.next().expect("one verdict per survivor"));
    }
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{ComparisonOp, Predicate};
    use crate::testing::PlainOracle;

    #[test]
    fn linear_scan_selects_exactly() {
        let oracle = PlainOracle::single_column(vec![1, 5, 9, 3]);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 5);
        assert_eq!(linear_scan(&oracle, &p), vec![0, 3]);
        assert_eq!(oracle.qpf_uses(), 4);
    }

    #[test]
    fn linear_scan_skips_tombstones() {
        let mut oracle = PlainOracle::single_column(vec![1, 5, 9, 3]);
        oracle.delete(0);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 5);
        assert_eq!(linear_scan(&oracle, &p), vec![3]);
        assert_eq!(oracle.qpf_uses(), 3, "no QPF spent on tombstones");
    }

    #[test]
    fn conjunctive_scan_short_circuits() {
        let oracle = PlainOracle::from_columns(vec![vec![1, 5, 9], vec![10, 20, 30]]);
        let p1 = Predicate::cmp(0, ComparisonOp::Gt, 4); // fails for t0
        let p2 = Predicate::cmp(1, ComparisonOp::Lt, 25); // fails for t2
        assert_eq!(conjunctive_scan(&oracle, &[p1, p2]), vec![1]);
        // t0: 1 use (fails p1); t1: 2 uses; t2: 2 uses (fails p2) = 5.
        assert_eq!(oracle.qpf_uses(), 5);
    }

    #[test]
    fn empty_predicate_list_selects_all_live() {
        let oracle = PlainOracle::single_column(vec![1, 2]);
        assert_eq!(conjunctive_scan(&oracle, &[]), vec![0, 1]);
        assert_eq!(oracle.qpf_uses(), 0);
    }
}
