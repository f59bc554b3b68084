//! `QScan` — Algorithm 2 of the paper.
//!
//! Confirms the exact selection result inside the NS-pair found by
//! [`crate::qfilter`], with the paper's *early stop* strategy: the first
//! partition is scanned fully; if it turns out non-homogeneous, the second
//! partition's tuples are all implied by its QFilter sample and cost zero
//! further QPF uses.

use crate::pop::Pop;
use crate::qfilter::FilterResult;
use prkb_edbms::{OracleError, SelectionOracle, TupleId};

/// Every member of the partition at `rank`, separated by QPF verdict, both
/// halves in member order. With both halves non-empty the partition is
/// non-homogeneous and this is its discovered split (Lemma 4.5, Case 2).
#[derive(Debug, Clone)]
pub struct Split {
    /// Rank of the scanned partition.
    pub rank: usize,
    /// Members with QPF output 1 (`P_sT`).
    pub true_half: Vec<TupleId>,
    /// Members with QPF output 0 (`P_sF`).
    pub false_half: Vec<TupleId>,
}

impl Split {
    pub(crate) fn is_mixed(&self) -> bool {
        !self.true_half.is_empty() && !self.false_half.is_empty()
    }
}

/// Outcome of `QScan`.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// Satisfying tuples among the NS partitions (`T_WNS`) *except* the
    /// split's true half, which is not repeated here. In scan order (P_a,
    /// then P_b) that half comes before these winners when P_a split
    /// (`label_a_full` is `None`), after them when P_b did.
    pub winners: Vec<TupleId>,
    /// The split, when the trapdoor was inequivalent to all retained ones.
    pub split: Option<Split>,
    /// Full-scan label of the partition at rank `a` when it proved
    /// homogeneous (`None` if it split).
    pub label_a_full: Option<bool>,
    /// Full-scan / inferred label of the partition at rank `b`
    /// (`None` if it split, or if `a == b`).
    pub label_b_full: Option<bool>,
}

/// Runs `QScan` over the NS pair in `filter`.
///
/// Returns an empty result if the POP was empty (no NS pair).
///
/// # Errors
/// Propagates the first oracle failure. `QScan` only reads the POP — the
/// split it discovers is *returned*, not applied, so a failed scan leaves
/// no knowledge to roll back.
pub fn try_qscan<O: SelectionOracle>(
    pop: &Pop,
    oracle: &O,
    pred: &O::Pred,
    filter: &FilterResult,
) -> Result<ScanResult, OracleError> {
    let Some((a, b)) = filter.ns else {
        return Ok(ScanResult {
            winners: Vec::new(),
            split: None,
            label_a_full: None,
            label_b_full: None,
        });
    };

    // Scan P_a fully.
    let mut verdicts = Vec::new();
    let scan_a = scan_partition(pop, oracle, pred, a, &[], &mut verdicts)?;

    if scan_a.is_mixed() {
        // P_a is non-homogeneous: s = a; early stop. P_b is implied
        // homogeneous with its sampled label.
        let mut winners = Vec::new();
        let mut label_b_full = None;
        if b != a {
            if filter.label_b {
                winners.extend_from_slice(pop.members_at(b));
            }
            label_b_full = Some(filter.label_b);
        }
        return Ok(ScanResult {
            winners,
            split: Some(scan_a),
            label_a_full: None,
            label_b_full,
        });
    }

    // P_a homogeneous: its true half is consumed only as winners, so move
    // it rather than clone.
    let label_a_full = Some(!scan_a.true_half.is_empty());
    let mut winners = scan_a.true_half;
    if a == b {
        // Single-partition POP scanned homogeneous: nothing further.
        return Ok(ScanResult {
            winners,
            split: None,
            label_a_full,
            label_b_full: None,
        });
    }

    // P_a homogeneous: scan P_b as well.
    let scan_b = scan_partition(pop, oracle, pred, b, &[], &mut verdicts)?;
    let (split, label_b_full) = if scan_b.is_mixed() {
        (Some(scan_b), None)
    } else {
        let label = !scan_b.true_half.is_empty();
        winners.extend(scan_b.true_half);
        (None, Some(label))
    };
    Ok(ScanResult {
        winners,
        split,
        label_a_full,
        label_b_full,
    })
}

/// Evaluates the members of the partition at `rank` past the `known`
/// verdicts of its first members — one oracle batch (every such member is
/// evaluated unconditionally, so batching cannot change the QPF count),
/// none when `known` already covers the partition — and separates all of
/// them by verdict. `verdicts` is scratch shared by the scans of one query.
pub(crate) fn scan_partition<O: SelectionOracle>(
    pop: &Pop,
    oracle: &O,
    pred: &O::Pred,
    rank: usize,
    known: &[bool],
    verdicts: &mut Vec<bool>,
) -> Result<Split, OracleError> {
    let members = pop.members_at(rank);
    let rest = &members[known.len()..];
    verdicts.clear();
    if !rest.is_empty() {
        oracle.try_eval_batch(pred, rest, verdicts)?;
    }
    let (mut true_half, mut false_half) = (Vec::new(), Vec::new());
    for (&t, &v) in members.iter().zip(known.iter().chain(verdicts.iter())) {
        if v {
            true_half.push(t);
        } else {
            false_half.push(t);
        }
    }
    Ok(Split {
        rank,
        true_half,
        false_half,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qfilter::try_qfilter;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ascending_pop(n: usize, parts: usize) -> (Pop, PlainOracle) {
        let values: Vec<u64> = (0..n as u64).collect();
        let oracle = PlainOracle::single_column(values);
        let mut pop = Pop::init(n);
        let width = n / parts;
        for i in 1..parts {
            let members = pop.members_at(i - 1).to_vec();
            let (first, second): (Vec<_>, Vec<_>) =
                members.into_iter().partition(|&t| (t as usize) < i * width);
            pop.split_at(i - 1, first, second);
        }
        (pop, oracle)
    }

    #[test]
    fn inequivalent_predicate_splits_and_selects() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 37);
        let f = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        let s = try_qscan(&pop, &oracle, &pred, &f).unwrap();
        let split = s.split.expect("cut at 37 is inside partition 3");
        assert_eq!(split.rank, 3);
        let mut th = split.true_half.clone();
        th.sort_unstable();
        assert_eq!(th, (30..37).collect::<Vec<_>>());
        let mut fh = split.false_half.clone();
        fh.sort_unstable();
        assert_eq!(fh, (37..40).collect::<Vec<_>>());
        // Full selection = winners(filter) + winners(scan) + the true half,
        // which the scan's winners do not repeat.
        assert!(s.winners.iter().all(|t| !split.true_half.contains(t)));
        let mut result = f.winner_tuples(&pop);
        result.extend_from_slice(&s.winners);
        result.extend_from_slice(&split.true_half);
        result.sort_unstable();
        assert_eq!(result, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn early_stop_spends_no_qpf_on_second_partition() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(1);
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 37);
        let f = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        let (a, b) = f.ns.unwrap();
        oracle.reset_uses();
        let s = try_qscan(&pop, &oracle, &pred, &f).unwrap();
        if s.split.as_ref().map(|sp| sp.rank) == Some(a) && a != b {
            // Early stop: only P_a scanned.
            assert_eq!(oracle.qpf_uses() as usize, pop.members_at(a).len());
        } else {
            // P_a was homogeneous: both scanned.
            assert_eq!(
                oracle.qpf_uses() as usize,
                pop.members_at(a).len() + pop.members_at(b).len()
            );
        }
    }

    #[test]
    fn equivalent_predicate_no_split() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(2);
        // Cut exactly on an existing partition boundary (value 30): both NS
        // partitions scan homogeneous.
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 30);
        let f = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        let s = try_qscan(&pop, &oracle, &pred, &f).unwrap();
        assert!(s.split.is_none(), "boundary-aligned cut must not split");
        assert!(s.label_a_full.is_some());
        let mut result = f.winner_tuples(&pop);
        result.extend_from_slice(&s.winners);
        result.sort_unstable();
        assert_eq!(result, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn boundary_case_select_all() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let pred = Predicate::cmp(0, ComparisonOp::Ge, 0);
        let f = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        assert!(f.boundary);
        let s = try_qscan(&pop, &oracle, &pred, &f).unwrap();
        assert!(s.split.is_none());
        let mut result = f.winner_tuples(&pop);
        result.extend_from_slice(&s.winners);
        result.sort_unstable();
        assert_eq!(result.len(), 100);
    }

    #[test]
    fn boundary_case_select_none() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(4);
        let pred = Predicate::cmp(0, ComparisonOp::Gt, 1000);
        let f = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        let s = try_qscan(&pop, &oracle, &pred, &f).unwrap();
        assert!(s.split.is_none());
        assert!(s.winners.is_empty());
        assert!(f.winner_tuples(&pop).is_empty());
    }

    #[test]
    fn single_partition_full_scan() {
        let (pop, oracle) = ascending_pop(20, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 7);
        let f = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        let s = try_qscan(&pop, &oracle, &pred, &f).unwrap();
        let split = s.split.expect("interior cut splits the only partition");
        assert_eq!(split.rank, 0);
        assert_eq!(split.true_half.len(), 7);
        assert_eq!(split.false_half.len(), 13);
        assert!(s.winners.is_empty(), "the true half is the split's alone");
        assert_eq!(oracle.qpf_uses(), 20);
    }
}
