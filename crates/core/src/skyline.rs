//! Skyline candidate pruning from POP knowledge — the paper's §9
//! future-work item: *"The partial order information in PRKB can also be
//! used in optimizing queries like … Skyline queries."*
//!
//! For a 2-D skyline the service provider knows each tuple's partition rank
//! in both attributes' POPs, but not the direction of either. A tuple is
//! **provably dominated** under one orientation if some tuple sits in a
//! strictly better partition in *both* dimensions (within-partition and
//! equal-rank comparisons cannot prove strict dominance). Since any of the
//! four orientation combinations may be the true one, the certified
//! candidate set is the union of the four non-dominated sets — typically a
//! thin band of cells around the grid's rim instead of all `n` tuples. The
//! data owner (or trusted machine) finishes the skyline after decryption.

use crate::knowledge::Knowledge;
use crate::traits::SpPredicate;
use prkb_edbms::TupleId;

/// Certified skyline candidates over two attributes' knowledge bases.
///
/// Tuples unplaced in either POP (overflow, or a POP with `k == 0`) are
/// always candidates. The returned set contains the true skyline for every
/// orientation of (min/max, min/max) preferences; order is unspecified.
pub fn skyline_candidates<P: SpPredicate>(
    kb_x: &Knowledge<P>,
    kb_y: &Knowledge<P>,
    n_slots: usize,
) -> Vec<TupleId> {
    let kx = kb_x.pop().k();
    let ky = kb_y.pop().k();

    // Per-tuple ranks; None = unplaced (always a candidate).
    let rank_of = |kb: &Knowledge<P>, t: TupleId| kb.pop().rank_of_tuple(t);

    // Occupied cells.
    let mut occupied = std::collections::HashSet::new();
    let mut placed: Vec<(TupleId, usize, usize)> = Vec::new();
    let mut unplaced: Vec<TupleId> = Vec::new();
    for t in 0..n_slots as TupleId {
        match (rank_of(kb_x, t), rank_of(kb_y, t)) {
            (Some(i), Some(j)) => {
                occupied.insert((i, j));
                placed.push((t, i, j));
            }
            (None, None) => {
                // Deleted tuples are in neither POP nor overflow sets;
                // genuinely parked tuples are.
                if kb_x.overflow().iter().any(|e| e.tuple == t)
                    || kb_y.overflow().iter().any(|e| e.tuple == t)
                {
                    unplaced.push(t);
                }
            }
            _ => unplaced.push(t),
        }
    }

    // For one orientation (given by coordinate transforms fx, fy mapping a
    // rank to "smaller is better" space), compute the per-x-rank strict
    // prefix minimum of y, then keep cells not strictly beaten in both.
    let dominated_for = |flip_x: bool, flip_y: bool| -> std::collections::HashSet<(usize, usize)> {
        let fx = |i: usize| if flip_x { kx - 1 - i } else { i };
        let fy = |j: usize| if flip_y { ky - 1 - j } else { j };
        // best_y[i] = min transformed-y among occupied cells with
        // transformed-x == i.
        let mut best_y = vec![usize::MAX; kx.max(1)];
        for &(i, j) in &occupied {
            let (ti, tj) = (fx(i), fy(j));
            if tj < best_y[ti] {
                best_y[ti] = tj;
            }
        }
        // prefix strict minimum: best y among all strictly smaller x.
        let mut prefix = vec![usize::MAX; kx.max(1) + 1];
        for i in 0..kx {
            prefix[i + 1] = prefix[i].min(best_y[i]);
        }
        let mut dominated = std::collections::HashSet::new();
        for &(i, j) in &occupied {
            let (ti, tj) = (fx(i), fy(j));
            if prefix[ti] < tj {
                dominated.insert((i, j));
            }
        }
        dominated
    };

    let mut out = unplaced;
    if kx == 0 || ky == 0 {
        // No grid: every placed tuple stays a candidate.
        out.extend(placed.iter().map(|&(t, _, _)| t));
        return out;
    }

    let d00 = dominated_for(false, false);
    let d01 = dominated_for(false, true);
    let d10 = dominated_for(true, false);
    let d11 = dominated_for(true, true);
    for (t, i, j) in placed {
        let cell = (i, j);
        // Candidate unless provably dominated under EVERY orientation.
        if !(d00.contains(&cell)
            && d01.contains(&cell)
            && d10.contains(&cell)
            && d11.contains(&cell))
        {
            out.push(t);
        }
    }
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

    fn plaintext_skyline(xs: &[u64], ys: &[u64], min_x: bool, min_y: bool) -> Vec<TupleId> {
        let better = |a: u64, b: u64, min: bool| if min { a <= b } else { a >= b };
        let strictly = |a: u64, b: u64, min: bool| if min { a < b } else { a > b };
        (0..xs.len())
            .filter(|&t| {
                !(0..xs.len()).any(|s| {
                    s != t
                        && better(xs[s], xs[t], min_x)
                        && better(ys[s], ys[t], min_y)
                        && (strictly(xs[s], xs[t], min_x) || strictly(ys[s], ys[t], min_y))
                })
            })
            .map(|t| t as TupleId)
            .collect()
    }

    fn warmed_2d(
        n: usize,
        cuts: usize,
        seed: u64,
    ) -> (
        Knowledge<Predicate>,
        Knowledge<Predicate>,
        Vec<u64>,
        Vec<u64>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100_000u64)).collect();
        let ys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100_000u64)).collect();
        let oracle = PlainOracle::from_columns(vec![xs.clone(), ys.clone()]);
        let mut kb_x: Knowledge<Predicate> = Knowledge::init(n);
        let mut kb_y: Knowledge<Predicate> = Knowledge::init(n);
        for _ in 0..cuts {
            let c = rng.gen_range(0..100_000u64);
            select_one(
                &mut kb_x,
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, c),
                &mut rng,
                true,
            )
            .unwrap();
            let c = rng.gen_range(0..100_000u64);
            select_one(
                &mut kb_y,
                &oracle,
                &Predicate::cmp(1, ComparisonOp::Lt, c),
                &mut rng,
                true,
            )
            .unwrap();
        }
        (kb_x, kb_y, xs, ys)
    }

    #[test]
    fn all_four_skylines_are_contained() {
        let (kb_x, kb_y, xs, ys) = warmed_2d(2_000, 60, 1);
        let cands: std::collections::HashSet<TupleId> = skyline_candidates(&kb_x, &kb_y, xs.len())
            .into_iter()
            .collect();
        for (mx, my) in [(true, true), (true, false), (false, true), (false, false)] {
            for t in plaintext_skyline(&xs, &ys, mx, my) {
                assert!(cands.contains(&t), "skyline({mx},{my}) tuple {t} missing");
            }
        }
    }

    #[test]
    fn pruning_is_substantial_when_warmed() {
        let (kb_x, kb_y, xs, _ys) = warmed_2d(5_000, 150, 2);
        let cands = skyline_candidates(&kb_x, &kb_y, xs.len());
        assert!(
            cands.len() * 3 < xs.len(),
            "{} candidates of {}",
            cands.len(),
            xs.len()
        );
    }

    #[test]
    fn cold_knowledge_returns_everything() {
        let (kb_x, kb_y, xs, _ys) = warmed_2d(200, 0, 3);
        assert_eq!(skyline_candidates(&kb_x, &kb_y, xs.len()).len(), xs.len());
    }

    #[test]
    fn empty_pops() {
        let kb_x: Knowledge<Predicate> = Knowledge::init(0);
        let kb_y: Knowledge<Predicate> = Knowledge::init(0);
        assert!(skyline_candidates(&kb_x, &kb_y, 0).is_empty());
    }
}
