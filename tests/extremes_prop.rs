//! Brute-force audit of `extremes::top_m_candidates` (ISSUE PR 4): for
//! random tables, warm-ups, overflow populations, and any `m` — including
//! m ≥ n/2 and m ≥ n — the candidate set must contain the true m smallest
//! and m largest tuples (checked against a plaintext sort) and must never
//! contain duplicates. Equal values can never be separated by comparison
//! refinements (they classify identically under every `< c` predicate), so
//! tuple-level containment is the right check even with heavy duplicates.

use prkb::core::{extremes, EngineConfig, Knowledge, PrkbEngine};
use prkb::edbms::testing::PlainOracle;
use prkb::edbms::{ComparisonOp, Predicate, TupleId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Builds a knowledge base over `values`, refined by `cuts` random
/// comparison queries through the engine, with `park` placed tuples moved
/// into overflow (spanning the full partition range, the least-pinned
/// interval).
fn build(
    values: &[u64],
    cuts: usize,
    park: usize,
    seed: u64,
) -> (Knowledge<Predicate>, PlainOracle) {
    let n = values.len();
    let oracle = PlainOracle::single_column(values.to_vec());
    let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, n);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cuts {
        let c = rng.gen_range(0..600u64);
        engine.select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, c), &mut rng);
    }
    let mut kb = engine.knowledge(0).expect("attribute 0 is indexed").clone();
    // Park up to `park` distinct tuples: delete from their partition, then
    // re-admit as overflow over the full rank range.
    let mut parked: HashSet<TupleId> = HashSet::new();
    for j in 0..park.min(n / 4) {
        let t = ((seed as usize).wrapping_add(j * 13) % n) as TupleId;
        if parked.insert(t) {
            kb.delete(t);
            kb.park(t, 0, kb.k() - 1);
        }
    }
    kb.check_invariants();
    (kb, oracle)
}

fn assert_top_m_sound(kb: &Knowledge<Predicate>, values: &[u64], m: usize) {
    let n = values.len();
    let cands = extremes::top_m_candidates(kb, m);

    // Regression pin (candidates_never_duplicate): the peeling loop must
    // never emit a partition — or an overflow tuple — twice.
    let set: HashSet<TupleId> = cands.iter().copied().collect();
    assert_eq!(set.len(), cands.len(), "duplicates at m={m}: {cands:?}");
    assert!(cands.iter().all(|&t| (t as usize) < n), "out-of-range id");

    // Brute-force plaintext oracle: both m-tails must be contained.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (values[i], i));
    for &i in order.iter().take(m.min(n)) {
        assert!(
            set.contains(&(i as TupleId)),
            "bottom-{m} tuple {i} (value {}) missing from {} candidates",
            values[i],
            cands.len()
        );
    }
    for &i in order.iter().rev().take(m.min(n)) {
        assert!(
            set.contains(&(i as TupleId)),
            "top-{m} tuple {i} (value {}) missing from {} candidates",
            values[i],
            cands.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random n, cuts, overflow population, and m — m ranges beyond n/2 and
    /// past n itself, covering the lo/hi-meeting and exhaustion paths.
    #[test]
    fn top_m_matches_brute_force(
        values in proptest::collection::vec(0u64..500, 30..110),
        cuts in 0usize..40,
        park in 0usize..8,
        m in 0usize..130,
        seed in any::<u64>(),
    ) {
        let (kb, _oracle) = build(&values, cuts, park, seed);
        assert_top_m_sound(&kb, &values, m);
    }

    /// The min/max specialization rides on the same partitions; pin it too.
    #[test]
    fn extreme_candidates_match_brute_force(
        values in proptest::collection::vec(0u64..500, 30..110),
        cuts in 0usize..40,
        park in 0usize..8,
        seed in any::<u64>(),
    ) {
        let (kb, _oracle) = build(&values, cuts, park, seed);
        let n = values.len();
        let cands: HashSet<TupleId> =
            extremes::extreme_candidates(&kb).into_iter().collect();
        let min_t = (0..n).min_by_key(|&i| (values[i], i)).unwrap() as TupleId;
        let max_t = (0..n).max_by_key(|&i| (values[i], i)).unwrap() as TupleId;
        prop_assert!(cands.contains(&min_t), "min tuple missing");
        prop_assert!(cands.contains(&max_t), "max tuple missing");
    }
}

/// Deterministic edge pins that proptest shrinkage would reach anyway, kept
/// explicit so a regression names the exact failing shape.
#[test]
fn top_m_edges() {
    let values: Vec<u64> = (0..60).map(|i| (i * 7) % 40).collect(); // heavy duplicates
    let (kb, _oracle) = build(&values, 25, 5, 99);
    // m == 0, m == 1, the lo/hi meeting band around n/2, m == n, m > n.
    for m in [0usize, 1, 29, 30, 31, 60, 200] {
        assert_top_m_sound(&kb, &values, m);
    }
    // m ≥ n must return every tuple exactly once.
    let all = extremes::top_m_candidates(&kb, values.len());
    assert_eq!(all.len(), values.len());
}
