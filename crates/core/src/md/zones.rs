//! Per-rank zone classification for multi-dimensional processing
//! (the paper's Fig. 6/7 grid reasoning, computed without any QPF use).
//!
//! For each dimension, `QFilter`'s outcome classifies every *partition* as
//! T-homogeneous, F-homogeneous, or not-sure per trapdoor. Classification
//! is per rank — O(k) space — and tuples are classified on the fly through
//! their partition rank, so the executor never has to touch tuples outside
//! the candidate band.

use crate::qfilter::FilterResult;

/// Classification of one rank for one dimension's trapdoors:
/// `Some(label)` when QFilter proved the rank homogeneous, `None` for the
/// not-sure partitions. A dimension with one trapdoor (a comparison) has
/// no second one to fail, so its `p1` is `Some(true)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RankClass {
    /// Known label for predicate 0, if proven.
    pub p0: Option<bool>,
    /// Known label for predicate 1, if proven.
    pub p1: Option<bool>,
}

impl RankClass {
    /// The rank provably fails this dimension (some predicate known false).
    #[inline]
    pub(crate) fn known_false(self) -> bool {
        self.p0 == Some(false) || self.p1 == Some(false)
    }

    /// The rank provably passes this dimension (both predicates true).
    #[inline]
    pub(crate) fn known_true(self) -> bool {
        self.p0 == Some(true) && self.p1 == Some(true)
    }

    /// Known label of predicate `j`.
    #[inline]
    pub(crate) fn pred(self, j: usize) -> Option<bool> {
        if j == 0 {
            self.p0
        } else {
            self.p1
        }
    }
}

/// Builds the per-rank classes for one dimension (`k` entries) from its one
/// or two trapdoors' filters; an absent second trapdoor is known true.
pub(crate) fn rank_classes(k: usize, filters: &[&FilterResult]) -> Vec<RankClass> {
    (0..k)
        .map(|r| RankClass {
            p0: filters[0].known_label(r),
            p1: filters.get(1).map_or(Some(true), |f| f.known_label(r)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop::Pop;
    use crate::qfilter::try_qfilter;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn class_semantics() {
        let t = RankClass {
            p0: Some(true),
            p1: Some(true),
        };
        assert!(t.known_true() && !t.known_false());
        let f = RankClass {
            p0: Some(true),
            p1: Some(false),
        };
        assert!(f.known_false() && !f.known_true());
        let ns = RankClass {
            p0: None,
            p1: Some(true),
        };
        assert!(!ns.known_false() && !ns.known_true());
        assert_eq!(ns.pred(0), None);
        assert_eq!(ns.pred(1), Some(true));
    }

    #[test]
    fn classes_from_filters() {
        // 100 values in 10 ascending partitions; range 25 < X < 65.
        let values: Vec<u64> = (0..100).collect();
        let oracle = PlainOracle::single_column(values);
        let mut pop = Pop::init(100);
        for i in 1..10usize {
            let members = pop.members_at(i - 1).to_vec();
            let (a, b): (Vec<_>, Vec<_>) =
                members.into_iter().partition(|&t| (t as usize) < i * 10);
            pop.split_at(i - 1, a, b);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let p_lo = Predicate::cmp(0, ComparisonOp::Gt, 25);
        let p_hi = Predicate::cmp(0, ComparisonOp::Lt, 65);
        let f = [
            try_qfilter(&pop, &oracle, &p_lo, &mut rng).unwrap(),
            try_qfilter(&pop, &oracle, &p_hi, &mut rng).unwrap(),
        ];
        let classes = rank_classes(pop.k(), &[&f[0], &f[1]]);
        // Rank 4 (values 40..49) is proven true for both predicates.
        assert!(classes[4].known_true(), "{:?}", classes[4]);
        // Rank 0 fails p_lo; rank 9 fails p_hi.
        assert!(classes[0].known_false());
        assert!(classes[9].known_false());
        // Straddling partitions (20s and 60s) are not fully known.
        assert!(!classes[2].known_true() && !classes[2].known_false());
        assert!(!classes[6].known_true() && !classes[6].known_false());
        // One trapdoor: its label alone decides the class.
        let lone = rank_classes(pop.k(), &[&f[1]]);
        assert!(lone[0].known_true(), "{:?}", lone[0]);
        assert!(lone[9].known_false(), "{:?}", lone[9]);
    }
}
