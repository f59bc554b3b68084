//! `QFilter` — Algorithm 1 of the paper.
//!
//! Locates the *NS-pair* (the only two partitions whose tuples may need
//! individual QPF evaluation) by sampling one random tuple per probed
//! partition and binary-searching for the separating point (Lemma 5.1).
//! Costs O(lg k) QPF uses.

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
    /// Boundary case (paper lines 4–10): both end samples agreed, so the
    /// separating point is at one of the two extremes.
    pub boundary: bool,
}

impl FilterResult {
    /// The sampled label of an arbitrary rank outside the NS pair, derived
    /// from the end samples' labels: true ranks are the "Winner" group
    /// `T_W`. `None` for NS ranks.
    pub fn known_label(&self, rank: usize) -> Option<bool> {
        let (a, b) = self.ns?;
        if rank == a || rank == b {
            return None;
        }
        if self.boundary {
            // Middle ranks share the common end label.
            Some(self.label_a)
        } else if rank < a {
            Some(self.label_a)
        } else if rank > b {
            Some(self.label_b)
        } else {
            None
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
            boundary: true,
        });
    }

    let label_1 = oracle.try_eval(pred, pop.sample_at(0, rng))?;
    let label_k = oracle.try_eval(pred, pop.sample_at(k - 1, rng))?;

    if label_1 == label_k {
        // Boundary case: s = 1 or s = k; all middle partitions share the
        // common label.
        return Ok(FilterResult {
            ns: Some((0, k - 1)),
            label_a: label_1,
            label_b: label_k,
            boundary: true,
        });
    }

    // Recursive case: binary search for the NS pair.
    let mut a = 0usize;
    let mut b = k - 1;
    while b - a > 1 {
        let m = (a + b) / 2;
        let label_m = oracle.try_eval(pred, pop.sample_at(m, rng))?;
        if label_m == label_1 {
            a = m;
        } else {
            b = m;
        }
    }

    Ok(FilterResult {
        ns: Some((a, b)),
        label_a: label_1,
        label_b: label_k,
        boundary: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop::Pop;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate, TupleId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            let members = pop.members_at(rank).to_vec();
            let (first, second): (Vec<_>, Vec<_>) =
                members.into_iter().partition(|&t| (t as usize) < i * width);
            pop.split_at(rank, first, second);
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
        assert!(!r.boundary);
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
        assert!(r.boundary);
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
        assert!(r.boundary);
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
            let members = pop.members_at(rank).to_vec();
            let cut = 100 - (i * 10) as u64;
            let (first, second): (Vec<_>, Vec<_>) =
                members.into_iter().partition(|&t| t as u64 >= cut);
            pop.split_at(rank, first, second);
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
