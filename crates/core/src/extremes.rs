//! Extreme-value queries from POP knowledge — the paper's §9 future-work
//! item: *"The partial order information in PRKB can also be used in
//! optimizing queries like Min, Max …"*.
//!
//! The POP orders partitions by value but hides the direction, so the
//! minimum (or maximum) tuple must live in one of the two **end**
//! partitions. The service provider therefore returns `P₁ ∪ P_k` as the
//! certified candidate set — `O(n/k)` tuples instead of `n` — and the data
//! owner (or trusted machine) resolves the winner after decryption. The same
//! argument gives top-m candidates by peeling partitions from both ends.

use crate::knowledge::Knowledge;
use crate::traits::SpPredicate;
use prkb_edbms::TupleId;

/// Candidates guaranteed to contain the minimum *and* the maximum tuple.
///
/// Returns all tuples of the two end partitions plus every overflow tuple
/// (whose position is not pinned). With `k == 1` this degenerates to the
/// whole table, with `k == 0` to just the overflow.
pub fn extreme_candidates<P: SpPredicate>(kb: &Knowledge<P>) -> Vec<TupleId> {
    let pop = kb.pop();
    let mut out = Vec::new();
    match pop.k() {
        0 => {}
        1 => out.extend_from_slice(pop.members_at(0)),
        k => {
            out.extend_from_slice(pop.members_at(0));
            out.extend_from_slice(pop.members_at(k - 1));
        }
    }
    out.extend(kb.overflow().iter().map(|e| e.tuple));
    out
}

/// Candidates guaranteed to contain the `m` smallest *and* the `m` largest
/// tuples: partitions are peeled from both ends until each side holds at
/// least `m` placed tuples (or the POP is exhausted). Overflow tuples are
/// always included.
///
/// The caller resolves which side is which (and the exact order) after
/// decryption; the guarantee here is set containment.
pub fn top_m_candidates<P: SpPredicate>(kb: &Knowledge<P>, m: usize) -> Vec<TupleId> {
    let pop = kb.pop();
    let k = pop.k();
    let mut out: Vec<TupleId> = Vec::new();
    if k > 0 {
        let mut lo_rank = 0usize;
        let mut hi_rank = k - 1;
        let mut lo_count = 0usize;
        let mut hi_count = 0usize;
        loop {
            let exhausted = lo_rank > hi_rank;
            if exhausted || (lo_count >= m && hi_count >= m) {
                break;
            }
            if lo_count < m && lo_rank <= hi_rank {
                let members = pop.members_at(lo_rank);
                out.extend_from_slice(members);
                lo_count += members.len();
                lo_rank += 1;
            }
            if hi_count < m && hi_rank + 1 > lo_rank {
                let members = pop.members_at(hi_rank);
                out.extend_from_slice(members);
                hi_count += members.len();
                if hi_rank == 0 {
                    break;
                }
                hi_rank -= 1;
            }
        }
    }
    out.extend(kb.overflow().iter().map(|e| e.tuple));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::select_one;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn warmed(n: usize, cuts: usize, seed: u64) -> (Knowledge<Predicate>, PlainOracle, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let oracle = PlainOracle::single_column(values.clone());
        let mut kb: Knowledge<Predicate> = Knowledge::init(n);
        for _ in 0..cuts {
            let c = rng.gen_range(0..1_000_000u64);
            select_one(
                &mut kb,
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, c),
                &mut rng,
                true,
            )
            .unwrap();
        }
        (kb, oracle, values)
    }

    #[test]
    fn extremes_always_in_candidates() {
        let (kb, _oracle, values) = warmed(5_000, 100, 1);
        let cands = extreme_candidates(&kb);
        let min_t = (0..values.len()).min_by_key(|&i| values[i]).unwrap() as TupleId;
        let max_t = (0..values.len()).max_by_key(|&i| values[i]).unwrap() as TupleId;
        assert!(cands.contains(&min_t), "min tuple missing");
        assert!(cands.contains(&max_t), "max tuple missing");
        // The win: far fewer candidates than tuples.
        assert!(
            cands.len() * 10 < values.len(),
            "{} candidates of {}",
            cands.len(),
            values.len()
        );
    }

    #[test]
    fn top_m_contains_both_tails() {
        let (kb, _oracle, values) = warmed(5_000, 150, 2);
        let m = 25usize;
        let cands: std::collections::HashSet<TupleId> =
            top_m_candidates(&kb, m).into_iter().collect();
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by_key(|&i| values[i]);
        for &i in order.iter().take(m) {
            assert!(
                cands.contains(&(i as TupleId)),
                "bottom-{m} tuple {i} missing"
            );
        }
        for &i in order.iter().rev().take(m) {
            assert!(cands.contains(&(i as TupleId)), "top-{m} tuple {i} missing");
        }
        assert!(cands.len() * 5 < values.len());
    }

    #[test]
    fn degenerate_knowledge_returns_everything() {
        let (kb, _oracle, values) = warmed(100, 0, 3);
        assert_eq!(extreme_candidates(&kb).len(), values.len());
        assert_eq!(top_m_candidates(&kb, 5).len(), values.len());
    }

    #[test]
    fn empty_knowledge() {
        let kb: Knowledge<Predicate> = Knowledge::init(0);
        assert!(extreme_candidates(&kb).is_empty());
        assert!(top_m_candidates(&kb, 3).is_empty());
    }

    #[test]
    fn top_m_larger_than_table() {
        let (kb, _oracle, values) = warmed(50, 10, 4);
        let cands = top_m_candidates(&kb, 1000);
        assert_eq!(cands.len(), values.len(), "must fall back to all tuples");
    }

    #[test]
    fn candidates_never_duplicate() {
        let (kb, _oracle, _values) = warmed(500, 60, 5);
        for m in [1usize, 10, 100] {
            let cands = top_m_candidates(&kb, m);
            let set: std::collections::HashSet<_> = cands.iter().collect();
            assert_eq!(set.len(), cands.len(), "duplicates at m={m}");
        }
    }
}
