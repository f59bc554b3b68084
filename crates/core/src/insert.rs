//! Insertion handling (paper §7.1).
//!
//! The service provider routes a freshly inserted encrypted tuple into the
//! correct partition by binary-searching the retained separator trapdoors:
//! O(lg k) QPF uses per indexed attribute. Boundaries whose separator came
//! from a BETWEEN trapdoor may answer `Unknown` (output 0 does not
//! lateralize); if the search window cannot be fully resolved the tuple is
//! parked in the overflow set with its candidate interval (DESIGN.md §7).

use crate::knowledge::{Knowledge, Side};
use crate::traits::SpPredicate;
use prkb_edbms::{OracleError, SelectionOracle, TupleId};

/// Where an inserted tuple ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Placed into the partition at this rank.
    Placed {
        /// Rank of the receiving partition.
        rank: usize,
    },
    /// Parked in overflow with candidate rank interval `[lo, hi]`.
    Parked {
        /// Lowest candidate rank.
        lo: usize,
        /// Highest candidate rank.
        hi: usize,
    },
}

/// Read-only decision phase of an insert: binary-searches the separator
/// trapdoors and reports where `t` belongs — rank 0 of an empty knowledge
/// base, which [`apply_insert`] opens — spending all the QPF uses of the
/// insert but mutating nothing. `t` must not be indexed yet
/// (`PrkbEngine::try_insert` refuses a tuple that is).
///
/// # Errors
/// Propagates the first oracle failure.
pub(crate) fn decide_insert<O>(
    kb: &Knowledge<O::Pred>,
    oracle: &O,
    t: TupleId,
) -> Result<InsertOutcome, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
{
    let k = kb.k();
    if k == 0 {
        return Ok(InsertOutcome::Placed { rank: 0 });
    }

    let mut lo = 0usize;
    let mut hi = k - 1;
    'narrow: while lo < hi {
        // Probe boundaries near the midpoint first, widening outward, so a
        // resolvable window still costs O(lg k) on pure comparison PRKBs.
        let mid = (lo + hi) / 2;
        for i in probe_order(mid, lo, hi) {
            let Some(sep) = kb.sep(i) else { continue };
            match sep.side_of(oracle.try_eval(sep.pred(), t)?) {
                Side::Left => hi = i,
                Side::Right => lo = i + 1,
                Side::Unknown => continue,
            }
            continue 'narrow;
        }
        // No boundary left in the window places `t`.
        break;
    }

    Ok(if lo == hi {
        InsertOutcome::Placed { rank: lo }
    } else {
        InsertOutcome::Parked { lo, hi }
    })
}

/// Commit phase of an insert: applies what [`decide_insert`] decided on
/// the same knowledge base, opening the solo partition of an empty one.
/// Infallible — no oracle calls.
pub(crate) fn apply_insert<P: SpPredicate>(
    kb: &mut Knowledge<P>,
    t: TupleId,
    outcome: InsertOutcome,
) {
    match outcome {
        InsertOutcome::Placed { .. } if kb.k() == 0 => kb.apply_solo(t),
        InsertOutcome::Placed { rank } => kb.place(t, rank),
        InsertOutcome::Parked { lo, hi } => kb.park(t, lo, hi),
    }
}

/// Boundary indices `lo..=hi-1` ordered by distance from `mid`, the lower
/// one first at equal distance: `mid`, `mid + 1`, `mid - 1`, `mid + 2`, …
fn probe_order(mid: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
    let mid = mid.min(hi - 1);
    let (mut below, mut above) = ((lo..=mid).rev(), mid + 1..hi);
    let mut low_turn = false;
    std::iter::from_fn(move || {
        low_turn = !low_turn;
        match low_turn {
            true => below.next().or_else(|| above.next()),
            false => above.next().or_else(|| below.next()),
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::md::select_one;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Routes tuple `t` into one knowledge base: decide, then apply. The
    /// engine runs the two phases itself (every attribute decides before
    /// any applies); this is the single-attribute form unit tests drive.
    pub(crate) fn try_insert_tuple<O>(
        kb: &mut Knowledge<O::Pred>,
        oracle: &O,
        t: TupleId,
    ) -> Result<InsertOutcome, OracleError>
    where
        O: SelectionOracle,
        O::Pred: SpPredicate,
    {
        let outcome = decide_insert(kb, oracle, t)?;
        apply_insert(kb, t, outcome);
        Ok(outcome)
    }

    /// Builds a PRKB over 0..n with cuts at the given bounds.
    fn warmed(n: usize, cuts: &[u64]) -> (Knowledge<Predicate>, PlainOracle) {
        let values: Vec<u64> = (0..n as u64).collect();
        let oracle = PlainOracle::single_column(values);
        let mut kb: Knowledge<Predicate> = Knowledge::init(n);
        let mut rng = StdRng::seed_from_u64(1);
        for &c in cuts {
            select_one(
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

    #[test]
    fn probe_order_visits_all_boundaries() {
        let seen: Vec<usize> = probe_order(5, 2, 9).collect();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (2..9).collect::<Vec<_>>());
        assert_eq!(seen[0], 5);
    }

    /// Nearest first, the lower side first at equal distance, and the
    /// longer side's rest in order once the shorter one runs out.
    #[test]
    fn probe_order_alternates_outward_from_mid() {
        let order = |mid, lo, hi| probe_order(mid, lo, hi).collect::<Vec<usize>>();
        assert_eq!(order(5, 2, 9), [5, 6, 4, 7, 3, 8, 2]);
        assert_eq!(order(3, 2, 9), [3, 4, 2, 5, 6, 7, 8]);
        assert_eq!(order(8, 0, 10), [8, 9, 7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(order(12, 0, 10), [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn probe_order_single_boundary() {
        let seen: Vec<usize> = probe_order(0, 0, 1).collect();
        assert_eq!(seen, vec![0]);
    }

    #[test]
    fn insert_places_correctly_with_log_cost() {
        let (mut kb, mut oracle) = warmed(1000, &[100, 300, 500, 700, 900, 200, 400, 600, 800]);
        assert_eq!(kb.k(), 10);
        // Insert values in every band and verify placement consistency.
        for v in [50u64, 150, 250, 350, 450, 550, 650, 750, 850, 950] {
            let t = oracle.insert(&[v]);
            oracle.reset_uses();
            let outcome = try_insert_tuple(&mut kb, &oracle, t).unwrap();
            let InsertOutcome::Placed { rank } = outcome else {
                panic!("pure comparison PRKB must always place, got {outcome:?}");
            };
            // The receiving partition's value band must contain v.
            let members = kb.pop().members_at(rank);
            let lo = members.iter().map(|&x| oracle.value(0, x)).min().unwrap();
            let hi = members.iter().map(|&x| oracle.value(0, x)).max().unwrap();
            assert!(lo <= v && v <= hi, "v={v} placed in band [{lo},{hi}]");
            assert!(
                oracle.qpf_uses() <= 4,
                "O(lg 10) expected, spent {}",
                oracle.qpf_uses()
            );
            kb.check_invariants();
        }
    }

    #[test]
    fn insert_into_empty_knowledge() {
        let mut oracle = PlainOracle::single_column(vec![]);
        let mut kb: Knowledge<Predicate> = Knowledge::init(0);
        let t = oracle.insert(&[42]);
        assert_eq!(
            try_insert_tuple(&mut kb, &oracle, t).unwrap(),
            InsertOutcome::Placed { rank: 0 }
        );
        assert_eq!(kb.k(), 1);
        kb.check_invariants();
    }

    #[test]
    fn insert_into_single_partition_costs_nothing() {
        let (mut kb, mut oracle) = warmed(10, &[]);
        let t = oracle.insert(&[5]);
        oracle.reset_uses();
        try_insert_tuple(&mut kb, &oracle, t).unwrap();
        assert_eq!(oracle.qpf_uses(), 0);
        assert_eq!(kb.pop().rank_of_tuple(t), Some(0));
    }

    #[test]
    fn inserted_tuples_answer_future_queries() {
        let (mut kb, mut oracle) = warmed(500, &[100, 250, 400]);
        let mut rng = StdRng::seed_from_u64(2);
        for v in [10u64, 120, 260, 410, 499] {
            let t = oracle.insert(&[v]);
            try_insert_tuple(&mut kb, &oracle, t).unwrap();
        }
        for bound in [50u64, 150, 300, 450] {
            let p = Predicate::cmp(0, ComparisonOp::Lt, bound);
            let sel = select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
            assert_eq!(sel.sorted(), oracle.expected_select(&p), "bound {bound}");
            kb.check_invariants();
        }
    }

    #[test]
    fn bulk_insert_then_query_consistency() {
        let (mut kb, mut oracle) = warmed(200, &[40, 80, 120, 160]);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..100u64 {
            let v = (i * 37) % 200;
            let t = oracle.insert(&[v]);
            try_insert_tuple(&mut kb, &oracle, t).unwrap();
        }
        kb.check_invariants();
        for bound in [30u64, 90, 150, 199] {
            let p = Predicate::cmp(0, ComparisonOp::Lt, bound);
            let sel = select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
            assert_eq!(sel.sorted(), oracle.expected_select(&p), "bound {bound}");
        }
    }
}
