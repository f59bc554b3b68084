//! Zone classification for multi-dimensional processing (the paper's
//! Fig. 6/7 grid reasoning, computed without any QPF use).
//!
//! For each dimension, every trapdoor's location phase — `QFilter` for a
//! comparison, the hunt for a BETWEEN — labels each *partition* true, false
//! or not-sure, and each label is constant between a few ranks (its
//! partitions to test and the ends of their span). So a dimension's classes
//! are kept as maximal runs of ranks — O(trapdoors) space and time, never
//! O(k). The executor reads tuples through the runs, never through their
//! ranks: the driver's runs not known false are its candidate band, and
//! every other dimension's are walked once into bitmaps over tuple slots
//! (its runs not known false, its all-true runs), so deciding a candidate
//! there is a bit test, and no rank or tuple outside the bands is touched.

use std::ops::Range;

/// Classification of one rank for one dimension's trapdoors together:
/// `Some(false)` when some trapdoor proved it false (it fails the
/// dimension), `Some(true)` when every trapdoor proved it true (it passes),
/// `None` when some trapdoor must test its members.
pub(crate) type RankClass = Option<bool>;

/// The class of a rank its trapdoors label `labels`.
pub(crate) fn rank_class(labels: impl IntoIterator<Item = Option<bool>>) -> RankClass {
    let mut class = Some(true);
    for label in labels {
        match label {
            Some(false) => return Some(false),
            label => class = class.and(label),
        }
    }
    class
}

/// A dimension's `k` ranks as maximal runs of one class, in rank order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Zones(Vec<(Range<usize>, RankClass)>);

impl Zones {
    /// The runs of `k` ranks, given every rank at which some label may
    /// change (`bounds`, in any order; past k is ignored) and the class of
    /// a run's first rank.
    pub(crate) fn new(
        k: usize,
        mut bounds: Vec<usize>,
        class_at: impl Fn(usize) -> RankClass,
    ) -> Self {
        bounds.extend([0, k]);
        bounds.retain(|&b| b <= k);
        bounds.sort_unstable();
        bounds.dedup();
        let mut runs: Vec<(Range<usize>, RankClass)> = Vec::new();
        for w in bounds.windows(2) {
            let class = class_at(w[0]);
            match runs.last_mut() {
                Some((ranks, last)) if *last == class => ranks.end = w[1],
                _ => runs.push((w[0]..w[1], class)),
            }
        }
        Zones(runs)
    }

    /// The runs, in rank order.
    pub(crate) fn runs(&self) -> &[(Range<usize>, RankClass)] {
        &self.0
    }

    /// The class of `rank` (the tests' per-tuple reference asks it).
    #[cfg(test)]
    pub(crate) fn class_of(&self, rank: usize) -> RankClass {
        self.0[self.0.partition_point(|(ranks, _)| ranks.end <= rank)].1
    }
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
        let (t, f) = (Some(true), Some(false));
        // One false label fails the rank, else one unsure label leaves it
        // unsure; no label at all passes it.
        assert_eq!(rank_class([t, None, f]), f);
        assert_eq!(rank_class([t, None, t]), None);
        assert_eq!(rank_class([t, t]), t);
        assert_eq!(rank_class([]), t);
    }

    #[test]
    fn zones_are_maximal_runs_of_one_class() {
        let (t, f) = (Some(true), Some(false));
        // Labels change at 2, 3 and 7 of 10 ranks; 7 and 20 add nothing.
        let class = |r: usize| match r {
            0..=1 => f,
            2 => None,
            3..=6 => t,
            _ => t,
        };
        let zones = Zones::new(10, vec![7, 3, 2, 20, 3], class);
        assert_eq!(zones.runs(), [(0..2, f), (2..3, None), (3..10, t)]);
        assert_eq!(
            (0..10).map(|r| zones.class_of(r)).collect::<Vec<_>>(),
            (0..10).map(class).collect::<Vec<_>>()
        );
        assert_eq!(Zones::new(0, vec![0, 1], class).runs(), []);
    }

    #[test]
    fn classes_from_filters() {
        // 100 values in 10 ascending partitions; range 25 < X < 65.
        let values: Vec<u64> = (0..100).collect();
        let oracle = PlainOracle::single_column(values);
        let mut pop = Pop::init(100);
        for i in 1..10usize {
            let left = pop.members_at(i - 1).iter().map(|&t| (t as usize) < i * 10);
            pop.split_at(i - 1, &left.collect());
        }
        let mut rng = StdRng::seed_from_u64(1);
        let p_lo = Predicate::cmp(0, ComparisonOp::Gt, 25);
        let p_hi = Predicate::cmp(0, ComparisonOp::Lt, 65);
        let f = [
            try_qfilter(&pop, &oracle, &p_lo, &mut rng).unwrap(),
            try_qfilter(&pop, &oracle, &p_hi, &mut rng).unwrap(),
        ];
        let classes: Vec<RankClass> = (0..pop.k())
            .map(|r| rank_class(f.iter().map(|f| f.known_label(r))))
            .collect();
        // Rank 4 (values 40..49) is proven true for both predicates.
        assert_eq!(classes[4], Some(true));
        // Rank 0 fails p_lo; rank 9 fails p_hi.
        assert_eq!(classes[0], Some(false));
        assert_eq!(classes[9], Some(false));
        // Straddling partitions (20s and 60s) are not fully known.
        assert_eq!(classes[2], None);
        assert_eq!(classes[6], None);
        // One trapdoor: its label alone decides the class.
        let lone: Vec<RankClass> = (0..pop.k())
            .map(|r| rank_class([f[1].known_label(r)]))
            .collect();
        assert_eq!(lone[0], Some(true));
        assert_eq!(lone[9], Some(false));
    }
}
