//! `QFilter` — Algorithm 1 of the paper.
//!
//! Locates the *NS-pair* (the only two partitions whose tuples may need
//! individual QPF evaluation) by sampling one random tuple per probed
//! partition: the two ends, and — unless they agree, the boundary case,
//! where every middle partition shares their label — a binary search for
//! the separating point (Lemma 5.1). That search, `bisect`, is the one
//! BETWEEN's two transitions run too. Costs O(lg k) QPF uses.

use crate::pop::Pop;
use prkb_edbms::{OracleError, SelectionOracle};
use rand::Rng;

/// Outcome of `QFilter`.
#[derive(Debug, Clone)]
pub struct FilterResult {
    /// NS-pair ranks `(a, b)` with `a <= b`; `None` only for an empty POP.
    pub ns: Option<(usize, usize)>,
    /// Sampled QPF label of the partition at rank `a`.
    pub label_a: bool,
    /// Sampled QPF label of the partition at rank `b`.
    pub label_b: bool,
}

impl FilterResult {
    /// The sampled label of a rank outside the NS pair (`None` for NS
    /// ranks): true ranks are the "Winner" group `T_W`. Ranks above `b` have
    /// `b`'s label and every other rank `a`'s — the boundary case's middle
    /// ranks share it, and otherwise `a` and `b` are adjacent.
    pub fn known_label(&self, rank: usize) -> Option<bool> {
        let (a, b) = self.ns?;
        match rank {
            _ if rank == a || rank == b => None,
            _ if rank > b => Some(self.label_b),
            _ => Some(self.label_a),
        }
    }
}

/// Runs `QFilter` over the POP for trapdoor `pred`.
///
/// Matches Algorithm 1, with the degenerate cases the pseudo-code leaves
/// implicit: an empty POP yields no NS pair; a single partition is its own
/// NS pair with no sampling spent (everything must be scanned anyway).
///
/// # Errors
/// Propagates the first oracle failure. `QFilter` only reads the POP, so a
/// failed filter has no state to roll back (the RNG stream is the only
/// thing consumed).
pub fn try_qfilter<O: SelectionOracle, R: Rng>(
    pop: &Pop,
    oracle: &O,
    pred: &O::Pred,
    rng: &mut R,
) -> Result<FilterResult, OracleError> {
    let k = pop.k();
    if k <= 1 {
        return Ok(FilterResult {
            ns: (k == 1).then_some((0, 0)),
            label_a: false,
            label_b: false,
        });
    }

    let label_a = oracle.try_eval(pred, pop.sample_at(0, rng))?;
    let label_b = oracle.try_eval(pred, pop.sample_at(k - 1, rng))?;
    // Boundary case (lines 4–10): s = 1 or s = k. Otherwise the recursive
    // case, whose probes the executor counts from the oracle.
    let ns = if label_a == label_b {
        (0, k - 1)
    } else {
        bisect(pop, oracle, pred, (0, k - 1), label_a, rng, &mut 0)?
    };
    Ok(FilterResult {
        ns: Some(ns),
        label_a,
        label_b,
    })
}

/// The one binary search over partition samples, QFilter's recursive case
/// and each BETWEEN transition's: narrows `(x, y)` — `x` a rank whose
/// sample answered `label`, `y` one whose did not (or the virtual rank k)
/// — to adjacent ranks by sampling `(x + y) / 2`, counting into `probes`.
///
/// # Errors
/// Propagates the first oracle failure.
pub(crate) fn bisect<O: SelectionOracle, R: Rng>(
    pop: &Pop,
    oracle: &O,
    pred: &O::Pred,
    (mut x, mut y): (usize, usize),
    label: bool,
    rng: &mut R,
    probes: &mut u64,
) -> Result<(usize, usize), OracleError> {
    while x.abs_diff(y) > 1 {
        let mid = (x + y) / 2;
        *probes += 1;
        if oracle.try_eval(pred, pop.sample_at(mid, rng))? == label {
            x = mid;
        } else {
            y = mid;
        }
    }
    Ok((x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop::Pop;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate, TupleId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// POP over values 0..n where partition i = tuples with value in
    /// [i*width, (i+1)*width) — an ascending ground-truth POP.
    /// The ranks of `0..k` the filter labels `label`, in rank order.
    fn labelled(r: &FilterResult, k: usize, label: bool) -> Vec<usize> {
        (0..k)
            .filter(|&rk| r.known_label(rk) == Some(label))
            .collect()
    }

    fn ascending_pop(n: usize, parts: usize) -> (Pop, PlainOracle) {
        let values: Vec<u64> = (0..n as u64).collect();
        let oracle = PlainOracle::single_column(values);
        let mut pop = Pop::init(n);
        let width = n / parts;
        for i in 1..parts {
            let rank = i - 1;
            let left = pop
                .members_at(rank)
                .iter()
                .map(|&t| (t as usize) < i * width);
            pop.split_at(rank, &left.collect());
        }
        assert_eq!(pop.k(), parts);
        (pop, oracle)
    }

    #[test]
    fn recursive_case_finds_the_straddling_pair() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(1);
        // Cut at 37: partitions 0..=2 fully below, partition 3 straddles.
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 37);
        let r = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        assert_ne!(r.label_a, r.label_b, "the recursive case");
        let (a, b) = r.ns.unwrap();
        assert_eq!(b, a + 1);
        assert!((3..=4).contains(&a) || (3..=4).contains(&b), "ns=({a},{b})");
        assert!(
            a == 3 || b == 3,
            "true separating partition 3 must be in the pair"
        );
        // Winners: everything proven below the cut.
        for w in labelled(&r, 10, true) {
            assert!(w < a);
        }
        for f in labelled(&r, 10, false) {
            assert!(f > b);
        }
        // Cost: 2 end samples + O(lg k) probes.
        assert!(oracle.qpf_uses() <= 2 + 4);
    }

    #[test]
    fn boundary_case_all_true() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(2);
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 1000);
        let r = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        assert_eq!(r.label_a, r.label_b, "the boundary case");
        assert_eq!(r.ns, Some((0, 9)));
        assert_eq!(labelled(&r, 10, true), (1..9).collect::<Vec<_>>());
        assert!(labelled(&r, 10, false).is_empty());
        assert_eq!(oracle.qpf_uses(), 2);
    }

    #[test]
    fn boundary_case_all_false() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let pred = Predicate::cmp(0, ComparisonOp::Gt, 1000);
        let r = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        assert_eq!(r.label_a, r.label_b, "the boundary case");
        assert!(labelled(&r, 10, true).is_empty());
        assert_eq!(labelled(&r, 10, false), (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn single_partition() {
        let (pop, oracle) = ascending_pop(10, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 5);
        let r = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        assert_eq!(r.ns, Some((0, 0)));
        assert_eq!(oracle.qpf_uses(), 0, "nothing to learn from samples");
    }

    #[test]
    fn empty_pop() {
        let pop = Pop::init(0);
        let oracle = PlainOracle::single_column(vec![]);
        let mut rng = StdRng::seed_from_u64(5);
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 5);
        let r = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        assert_eq!(r.ns, None);
    }

    #[test]
    fn descending_pop_direction_agnostic() {
        // Build a POP whose rank order is DESCENDING in value: QFilter must
        // still isolate the straddling partition.
        let values: Vec<u64> = (0..100).collect();
        let oracle = PlainOracle::single_column(values);
        let mut pop = Pop::init(100);
        for i in 1..10usize {
            let rank = i - 1;
            let cut = 100 - (i * 10) as u64;
            let left = pop.members_at(rank).iter().map(|&t| t as u64 >= cut);
            pop.split_at(rank, &left.collect());
        }
        assert_eq!(pop.k(), 10);
        let mut rng = StdRng::seed_from_u64(6);
        // Cut at 55: straddles rank 4 (values 50..60).
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 55);
        let r = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        let (a, b) = r.ns.unwrap();
        assert!(a == 4 || b == 4, "ns=({a},{b})");
    }

    #[test]
    fn winner_tuples_flatten() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(7);
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 1000);
        let r = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        let ranks = labelled(&r, pop.k(), true).into_iter();
        let mut w: Vec<TupleId> = ranks.flat_map(|rk| pop.members_at(rk).to_vec()).collect();
        w.sort_unstable();
        assert_eq!(w, (10..90).collect::<Vec<_>>());
    }

    /// A POP of `k` partitions of one to three members each, values
    /// ascending with rank, and a comparison true on exactly the ranks
    /// below `cut` (`polarity`) or on exactly the others (`!polarity`).
    fn cut_pop(k: usize, cut: usize, polarity: bool, seed: u64) -> (Pop, PlainOracle, Predicate) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ranks: Vec<u32> = (0..k as u32)
            .flat_map(|r| std::iter::repeat_n(r, rng.gen_range(1..4)))
            .collect();
        let start = ranks.partition_point(|&r| (r as usize) < cut) as u64;
        let oracle = PlainOracle::single_column((0..ranks.len() as u64).collect());
        let op = if polarity {
            ComparisonOp::Lt
        } else {
            ComparisonOp::Ge
        };
        let pop = Pop::from_ranks(&ranks, k).expect("every rank has a member");
        (pop, oracle, Predicate::cmp(0, op, start))
    }

    /// QFilter as written before its recursive case became the shared
    /// search, frozen as a reference: the two end samples, then Alg. 1's
    /// loop.
    fn reference_qfilter<R: Rng>(
        pop: &Pop,
        oracle: &PlainOracle,
        pred: &Predicate,
        rng: &mut R,
    ) -> Option<(usize, usize)> {
        let k = pop.k();
        if k <= 1 {
            return (k == 1).then_some((0, 0));
        }
        let label_1 = oracle.eval(pred, pop.sample_at(0, rng));
        let label_k = oracle.eval(pred, pop.sample_at(k - 1, rng));
        if label_1 == label_k {
            return Some((0, k - 1));
        }
        let mut a = 0usize;
        let mut b = k - 1;
        while b - a > 1 {
            let m = (a + b) / 2;
            let label_m = oracle.eval(pred, pop.sample_at(m, rng));
            if label_m == label_1 {
                a = m;
            } else {
                b = m;
            }
        }
        Some((a, b))
    }

    /// A BETWEEN transition's bisection as written before it became the
    /// shared search, frozen as a reference: `neg` answered 0 (or is the
    /// virtual rank k), `pos` answered 1.
    fn reference_bisect<R: Rng>(
        pop: &Pop,
        oracle: &PlainOracle,
        pred: &Predicate,
        mut neg: usize,
        mut pos: usize,
        rng: &mut R,
    ) -> ((usize, usize), u64) {
        let mut probes = 0;
        while neg.abs_diff(pos) > 1 {
            let mid = (neg + pos) / 2;
            probes += 1;
            if oracle.eval(pred, pop.sample_at(mid, rng)) {
                pos = mid;
            } else {
                neg = mid;
            }
        }
        ((neg, pos), probes)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// QFilter and a BETWEEN transition draw what the loops they ran
        /// before drew: the same pair, the same number of probes, and the
        /// RNG left in the same state.
        #[test]
        fn the_binary_search_probes_like_the_frozen_loops(
            k in 1usize..300,
            cut in proptest::prelude::any::<u64>(),
            polarity in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
            pick in proptest::prelude::any::<u64>(),
        ) {
            let cut = (cut % (k as u64 + 1)) as usize;
            let (pop, oracle, pred) = cut_pop(k, cut, polarity, seed);
            let (mut rng, mut twin) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));

            let got = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
            let spent = oracle.qpf_uses();
            oracle.reset_uses();
            proptest::prop_assert_eq!(got.ns, reference_qfilter(&pop, &oracle, &pred, &mut twin));
            proptest::prop_assert_eq!(spent, oracle.qpf_uses());
            proptest::prop_assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());

            // A transition: a positive rank and a negative one, the
            // virtual rank k standing above the top.
            let (pos, neg) = if polarity { (0..cut, cut..k + 1) } else { (cut..k, 0..cut) };
            if !pos.is_empty() && !neg.is_empty() {
                let p = pos.start + (pick % pos.len() as u64) as usize;
                let n = neg.start + ((pick >> 32) % neg.len() as u64) as usize;
                oracle.reset_uses();
                let mut probes = 0;
                let got = bisect(&pop, &oracle, &pred, (n, p), false, &mut rng, &mut probes).unwrap();
                let spent = oracle.qpf_uses();
                let (want, reference_probes) = reference_bisect(&pop, &oracle, &pred, n, p, &mut twin);
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(probes, reference_probes);
                proptest::prop_assert_eq!(spent, probes);
                proptest::prop_assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());
            }
        }
    }

    #[test]
    fn known_label_classification() {
        let (pop, oracle) = ascending_pop(100, 10);
        let mut rng = StdRng::seed_from_u64(8);
        let pred = Predicate::cmp(0, ComparisonOp::Lt, 37);
        let r = try_qfilter(&pop, &oracle, &pred, &mut rng).unwrap();
        let (a, b) = r.ns.unwrap();
        assert_eq!(r.known_label(a), None);
        assert_eq!(r.known_label(b), None);
        if a > 0 {
            assert_eq!(r.known_label(0), Some(r.label_a));
        }
        if b < 9 {
            assert_eq!(r.known_label(9), Some(r.label_b));
        }
    }
}
