//! Multi-dimensional range query processing (paper §6), and with it every
//! select.
//!
//! A query is one dimension per attribute, each holding every trapdoor the
//! query names on it: a comparison is one dimension with one trapdoor, for
//! which this pipeline *is* §5's, since §6.2's PRKB(MD) with d = 1 reduces
//! to it; a d-dimensional hyper-rectangle is 2d comparison trapdoors, two
//! per dimension; a BETWEEN is a trapdoor whose locator is App. A's hunt;
//! a SQL conjunction is all of them at once. `PRKB(MD)` locates every
//! trapdoor, classifies every partition per dimension as runs of ranks,
//! takes its candidates from the narrowest dimension's band and sieves them
//! through a bitmap per other dimension — one bit test per tuple, no rank
//! lookup — and then tests only tuples in the *candidate region* — not
//! provably out in any dimension — evaluating only the trapdoors still
//! unknown for them, with the paper's two optimizations:
//!
//! * **early-stop inference** (§5.2's QScan, §6.2, App. A): once an NS
//!   partition proves non-homogeneous, its pair partner's tuples are
//!   implied and cost no QPF;
//! * **per-tuple short-circuit**: a failing trapdoor ends that tuple.
//!
//! Updates: a partition may be only *partially* tested here (tuples pruned
//! by other dimensions are skipped), and a partial split is unsound. The
//! default policy refines only partitions whose members were all decided;
//! [`MdUpdatePolicy::CompleteSplits`] instead pays the missing QPF to finish
//! every discovered split (ablation). A dimension of one trapdoor tests its
//! partitions whole, so there the policies coincide.

pub(crate) mod exec;
pub(crate) mod zones;

mod comparison;

use crate::knowledge::Knowledge;

/// What to do with partially-scanned NS partitions after an MD query (a
/// static PRKB is `EngineConfig::refine = None`, which refines nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MdUpdatePolicy {
    /// Refine only fully-decided partitions (no extra QPF). Default.
    #[default]
    PartialOnly,
    /// Spend extra QPF to finish every discovered split (ablation mode).
    CompleteSplits,
}

/// One dimension of a query: the attribute's knowledge base plus every
/// trapdoor the query names on it — one comparison, a range's two, a
/// BETWEEN, or a conjunction's mix — all borrowed, the trapdoors one by
/// one, so grouping a query's trapdoors into dimensions clones none.
pub(crate) struct MdDim<'a, P> {
    /// PRKB state of this attribute.
    pub knowledge: &'a mut Knowledge<P>,
    /// The trapdoors of this dimension.
    pub preds: &'a [&'a P],
}

pub(crate) use exec::run;

#[cfg(test)]
pub(crate) use comparison::tests::select_one;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::Selection;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// Builds a d-dim oracle + warmed knowledge bases over random data.
    fn setup(
        n: usize,
        d: usize,
        warm_cuts: usize,
        seed: u64,
    ) -> (Vec<Knowledge<Predicate>>, PlainOracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<u64>> = (0..d)
            .map(|_| (0..n).map(|_| rng.gen_range(0..10_000u64)).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let mut kbs: Vec<Knowledge<Predicate>> = (0..d).map(|_| Knowledge::init(n)).collect();
        for (a, kb) in kbs.iter_mut().enumerate() {
            for c in 0..warm_cuts {
                let bound = rng.gen_range(0..10_000u64);
                let p = Predicate::cmp(a as u32, ComparisonOp::Lt, bound);
                let _ = c;
                select_one(kb, &oracle, &p, &mut rng, true).unwrap();
            }
        }
        oracle.reset_uses();
        (kbs, oracle)
    }

    fn range_preds(attr: u32, lo: u64, hi: u64) -> [Predicate; 2] {
        [
            Predicate::cmp(attr, ComparisonOp::Gt, lo),
            Predicate::cmp(attr, ComparisonOp::Lt, hi),
        ]
    }

    fn run_md(
        mut kbs: Vec<Knowledge<Predicate>>,
        oracle: &PlainOracle,
        ranges: &[(u64, u64)],
        policy: Option<MdUpdatePolicy>,
        seed: u64,
    ) -> (Vec<Knowledge<Predicate>>, Selection) {
        let preds: Vec<[Predicate; 2]> = (0..kbs.len())
            .map(|a| range_preds(a as u32, ranges[a].0, ranges[a].1))
            .collect();
        let pairs: Vec<[&Predicate; 2]> = preds.iter().map(|[lo, hi]| [lo, hi]).collect();
        let mut dims: Vec<MdDim<Predicate>> = kbs
            .iter_mut()
            .zip(&pairs)
            .map(|(knowledge, preds)| MdDim { knowledge, preds })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let sel = run(&mut dims, oracle, &mut rng, policy).unwrap();
        (kbs, sel)
    }

    fn expected(oracle: &PlainOracle, ranges: &[(u64, u64)]) -> Vec<u32> {
        let preds: Vec<Predicate> = ranges
            .iter()
            .enumerate()
            .flat_map(|(a, &(lo, hi))| range_preds(a as u32, lo, hi))
            .collect();
        oracle.expected_conjunction(&preds)
    }

    #[test]
    fn md_2d_correctness_fresh() {
        let (kbs, oracle) = setup(2000, 2, 0, 1);
        let ranges = [(1000, 3000), (4000, 7000)];
        let (kbs, sel) = run_md(kbs, &oracle, &ranges, Some(MdUpdatePolicy::PartialOnly), 2);
        assert_eq!(sel.sorted(), expected(&oracle, &ranges));
        for kb in &kbs {
            kb.check_invariants();
        }
    }

    #[test]
    fn md_2d_correctness_warmed() {
        let (kbs, oracle) = setup(2000, 2, 20, 3);
        let ranges = [(1000, 3000), (4000, 7000)];
        let (kbs, sel) = run_md(kbs, &oracle, &ranges, Some(MdUpdatePolicy::PartialOnly), 4);
        assert_eq!(sel.sorted(), expected(&oracle, &ranges));
        for kb in &kbs {
            kb.check_invariants();
        }
    }

    #[test]
    fn md_3d_and_4d_correctness() {
        for d in [3usize, 4] {
            let (kbs, oracle) = setup(1500, d, 15, 5 + d as u64);
            let ranges: Vec<(u64, u64)> = (0..d as u64)
                .map(|i| (500 + i * 300, 5500 + i * 300))
                .collect();
            let (kbs, sel) = run_md(kbs, &oracle, &ranges, Some(MdUpdatePolicy::PartialOnly), 6);
            assert_eq!(sel.sorted(), expected(&oracle, &ranges), "d={d}");
            for kb in &kbs {
                kb.check_invariants();
            }
        }
    }

    #[test]
    fn md_is_cheaper_than_full_scan_when_warmed() {
        let (kbs, oracle) = setup(5000, 2, 40, 7);
        let ranges = [(2000, 2600), (4000, 4700)];
        oracle.reset_uses();
        let (_, sel) = run_md(kbs, &oracle, &ranges, Some(MdUpdatePolicy::PartialOnly), 8);
        assert_eq!(sel.sorted(), expected(&oracle, &ranges));
        // Baseline would spend up to 2dn = 20000; MD must be far below n.
        assert!(
            sel.stats.qpf_uses < 2500,
            "qpf = {} (baseline would be ~10000+)",
            sel.stats.qpf_uses
        );
    }

    #[test]
    fn md_complete_splits_policy_grows_k_more() {
        let (kbs1, oracle1) = setup(3000, 2, 10, 9);
        let ranges = [(2000, 4000), (5000, 8000)];
        let k_before: usize = kbs1.iter().map(Knowledge::k).sum();
        let (kbs_partial, sel_a) = run_md(
            kbs1,
            &oracle1,
            &ranges,
            Some(MdUpdatePolicy::PartialOnly),
            10,
        );
        let k_partial: usize = kbs_partial.iter().map(Knowledge::k).sum();

        let (kbs2, oracle2) = setup(3000, 2, 10, 9);
        let (kbs_complete, sel_b) = run_md(
            kbs2,
            &oracle2,
            &ranges,
            Some(MdUpdatePolicy::CompleteSplits),
            10,
        );
        let k_complete: usize = kbs_complete.iter().map(Knowledge::k).sum();

        assert_eq!(sel_a.sorted(), sel_b.sorted());
        assert!(k_complete >= k_partial, "{k_complete} vs {k_partial}");
        assert!(k_complete >= k_before);
        // Completing splits costs at least as much QPF.
        assert!(sel_b.stats.qpf_uses >= sel_a.stats.qpf_uses);
        for kb in kbs_partial.iter().chain(&kbs_complete) {
            kb.check_invariants();
        }
    }

    /// A static PRKB (`EngineConfig::refine = None`) passes no policy.
    #[test]
    fn md_frozen_policy_never_updates() {
        let (kbs, oracle) = setup(2000, 2, 10, 11);
        let k_before: Vec<usize> = kbs.iter().map(Knowledge::k).collect();
        let ranges = [(1000, 5000), (2000, 6000)];
        let (kbs, sel) = run_md(kbs, &oracle, &ranges, None, 12);
        assert_eq!(sel.sorted(), expected(&oracle, &ranges));
        let k_after: Vec<usize> = kbs.iter().map(Knowledge::k).collect();
        assert_eq!(k_before, k_after);
    }

    #[test]
    fn md_empty_result() {
        let (kbs, oracle) = setup(1000, 2, 10, 13);
        let ranges = [(20_000, 30_000), (0, 10_000)];
        let (_, sel) = run_md(kbs, &oracle, &ranges, Some(MdUpdatePolicy::PartialOnly), 14);
        assert!(sel.tuples.is_empty());
    }

    #[test]
    fn md_repeated_queries_converge_to_cheap() {
        let (mut kbs, oracle) = setup(4000, 2, 0, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let mut last_cost = u64::MAX;
        for round in 0..30 {
            let lo0 = rng.gen_range(0..8000u64);
            let lo1 = rng.gen_range(0..8000u64);
            let ranges = [(lo0, lo0 + 1500), (lo1, lo1 + 1500)];
            let (k2, sel) = run_md(
                kbs,
                &oracle,
                &ranges,
                Some(MdUpdatePolicy::PartialOnly),
                17 + round,
            );
            kbs = k2;
            assert_eq!(sel.sorted(), expected(&oracle, &ranges), "round {round}");
            last_cost = sel.stats.qpf_uses;
        }
        let total_k: usize = kbs.iter().map(Knowledge::k).sum();
        assert!(
            total_k > 10,
            "knowledge should accumulate, k sum = {total_k}"
        );
        assert!(
            last_cost < 2 * 4000,
            "after 30 rounds cost {last_cost} should be well under the 16000 baseline"
        );
    }
}
