//! PRKB(SD+) — the naive multi-dimensional baseline of paper §6.
//!
//! SD+ runs each of a range query's 2d comparison trapdoors on its own —
//! through the one executor, as a dimension with one trapdoor (§5) — and
//! intersects the answers. It is the only select that commits part by
//! part, so the only one that snapshots knowledge to stay abort-safe; a
//! conjunction is one run of the executor (`PrkbEngine::select_conjunction`).

use crate::engine::{PrkbEngine, QueryError};
use crate::knowledge::Knowledge;
use crate::selection::{QueryStats, Selection};
use crate::traits::SpPredicate;
use prkb_edbms::{AttrId, SelectionOracle, TupleId};
use rand::Rng;

impl<P: SpPredicate> PrkbEngine<P> {
    /// Runs every trapdoor of `parts` through the executor on its own, in
    /// order, and returns the tuples every part selected; no part answers
    /// every live row.
    ///
    /// The stats sum the parts' breakdowns; `qpf_uses` is measured across
    /// the whole query and `k_before`/`k_after` total the attributes the
    /// query names, so they read the same on a whole engine and on a
    /// checked-out sub-engine.
    ///
    /// # Errors
    /// [`QueryError::AttrNotInitialized`] before anything is spent;
    /// [`QueryError::Oracle`] from any part. **Abort-safe:** each part
    /// commits its own refinement as it finishes, so a failure in a later
    /// part would strand the earlier commits; when there are two or more
    /// parts and the configuration lets them refine, every named
    /// attribute's knowledge is cloned up front and restored wholesale on
    /// error.
    pub(crate) fn intersect_parts<O, R>(
        &mut self,
        oracle: &O,
        parts: &[&P],
        rng: &mut R,
    ) -> Result<Selection, QueryError>
    where
        O: SelectionOracle<Pred = P>,
        R: Rng,
    {
        if parts.is_empty() {
            return self.run_dims(oracle, &[], rng);
        }
        let qpf_before = oracle.qpf_uses();
        let mut attrs: Vec<AttrId> = parts.iter().map(|p| p.attr()).collect();
        attrs.sort_unstable();
        attrs.dedup();

        // A single part is abort-safe by itself: nothing earlier to strand.
        let snapshot = self.config.update && parts.len() > 1;
        let mut saved: Vec<(AttrId, Knowledge<P>)> = Vec::new();
        let mut k_before = 0usize;
        for &attr in &attrs {
            let kb = self
                .knowledge(attr)
                .ok_or(QueryError::AttrNotInitialized(attr))?;
            k_before += kb.k();
            if snapshot {
                saved.push((attr, kb.clone()));
            }
        }

        // The running intersection, ascending by id.
        let mut common: Vec<TupleId> = Vec::new();
        let mut stats = QueryStats::default();
        for (i, pred) in parts.iter().enumerate() {
            let one = [(pred.attr(), std::slice::from_ref(*pred))];
            let sel = match self.run_dims(oracle, &one, rng) {
                Ok(sel) => sel,
                Err(e) => {
                    for (attr, kb) in saved {
                        self.restore_attr(attr, kb);
                    }
                    return Err(e);
                }
            };
            stats.absorb(&sel.stats);
            let mut ids = sel.tuples;
            ids.sort_unstable();
            if i > 0 {
                ids.retain(|t| common.binary_search(t).is_ok());
            }
            common = ids;
        }

        stats.qpf_uses = oracle.qpf_uses().saturating_sub(qpf_before);
        stats.k_before = k_before;
        stats.k_after = attrs
            .iter()
            .filter_map(|&a| self.knowledge(a))
            .map(Knowledge::k)
            .sum();
        Ok(Selection {
            tuples: common,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, d: usize, seed: u64) -> (PrkbEngine<Predicate>, PlainOracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<u64>> = (0..d)
            .map(|_| (0..n).map(|_| rng.gen_range(0..10_000u64)).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for a in 0..d {
            engine.init_attr(a as AttrId, n);
        }
        (engine, oracle)
    }

    fn dims_for(ranges: &[(u64, u64)]) -> Vec<[Predicate; 2]> {
        ranges
            .iter()
            .enumerate()
            .map(|(a, &(lo, hi))| {
                [
                    Predicate::cmp(a as u32, ComparisonOp::Gt, lo),
                    Predicate::cmp(a as u32, ComparisonOp::Lt, hi),
                ]
            })
            .collect()
    }

    fn check_invariants(engine: &PrkbEngine<Predicate>) {
        for a in engine.attrs() {
            engine.knowledge(a).expect("listed").check_invariants();
        }
    }

    #[test]
    fn sdplus_matches_ground_truth() {
        let (mut engine, oracle) = setup(2000, 2, 1);
        let dims = dims_for(&[(1000, 4000), (3000, 7000)]);
        let mut rng = StdRng::seed_from_u64(2);
        let sel = engine.select_range_sdplus(&oracle, &dims, &mut rng);
        let preds: Vec<Predicate> = dims.iter().flatten().copied().collect();
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&preds));
        check_invariants(&engine);
    }

    #[test]
    fn sdplus_and_md_agree() {
        for d in [2usize, 3] {
            let (mut engine, oracle) = setup(1500, d, 3);
            let ranges: Vec<(u64, u64)> =
                (0..d as u64).map(|i| (i * 500, 5000 + i * 500)).collect();
            let dims = dims_for(&ranges);
            let mut rng = StdRng::seed_from_u64(4);
            let a = engine.select_range_sdplus(&oracle, &dims, &mut rng);
            let b = engine.select_range_md(&oracle, &dims, &mut rng);
            assert_eq!(a.sorted(), b.sorted(), "d={d}");
            check_invariants(&engine);
        }
    }

    #[test]
    fn md_beats_sdplus_on_warmed_knowledge() {
        // With warmed PRKBs, PRKB(MD) must use fewer QPF than PRKB(SD+)
        // because it only tests NS tuples inside the candidate band.
        let (mut engine, oracle) = setup(6000, 3, 5);
        let mut rng = StdRng::seed_from_u64(6);
        // Warm with random single-dim queries.
        for round in 0..25u64 {
            for a in 0..3u32 {
                let bound = (round * 397 + a as u64 * 131) % 10_000;
                engine.select(
                    &oracle,
                    &Predicate::cmp(a, ComparisonOp::Lt, bound),
                    &mut rng,
                );
            }
        }
        // Narrow query against the now-static index.
        engine.config.update = false;
        let ranges: Vec<(u64, u64)> = (0..3u64)
            .map(|a| (2000 + a * 700, 2600 + a * 700))
            .collect();
        let dims = dims_for(&ranges);
        let md = engine.select_range_md(&oracle, &dims, &mut rng);
        let sdp = engine.select_range_sdplus(&oracle, &dims, &mut rng);
        assert_eq!(md.sorted(), sdp.sorted());
        assert!(
            md.stats.qpf_uses < sdp.stats.qpf_uses,
            "MD {} vs SD+ {}",
            md.stats.qpf_uses,
            sdp.stats.qpf_uses
        );
    }

    #[test]
    fn sdplus_counts_past_255_parts() {
        // 128 dimensions are 256 parts: one more than a byte-wide hit
        // counter holds, so a tuple inside every range used to wrap to 0.
        let d = 128usize;
        let columns: Vec<Vec<u64>> = (0..d as u64)
            .map(|a| (0..8u64).map(|t| 1 + (t * 7 + a) % 8).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for a in 0..d {
            engine.init_attr(a as AttrId, 8);
        }
        // Values are 1..=8: everything but 8 in dimension 0, everything
        // elsewhere.
        let mut ranges = vec![(0u64, 9u64); d];
        ranges[0] = (0, 8);
        let dims = dims_for(&ranges);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = engine.select_range_sdplus(&oracle, &dims, &mut rng);
        let preds: Vec<Predicate> = dims.iter().flatten().copied().collect();
        let want = oracle.expected_conjunction(&preds);
        assert_eq!(want.len(), 7, "the test's ranges select all rows but one");
        assert_eq!(sel.sorted(), want);
    }
}
