//! Property-based integration tests (proptest): for arbitrary data and
//! arbitrary query streams, the PRKB engine must return exactly the
//! plaintext ground truth and keep its structural invariants, under every
//! combination of operators, BETWEENs, inserts, and deletes.

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::edbms::testing::PlainOracle;
use prkb::edbms::{ComparisonOp, Predicate};
use proptest::prelude::*;

/// A step in a random workload.
#[derive(Debug, Clone)]
enum Step {
    Cmp(u8, u64),
    Between(u64, u64),
    Insert(u64),
    Delete(u16),
}

fn step_strategy(domain: u64) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4, 0..=domain).prop_map(|(o, c)| Step::Cmp(o, c)),
        (0..=domain, 0..=domain).prop_map(|(a, b)| Step::Between(a.min(b), a.max(b))),
        (0..=domain).prop_map(Step::Insert),
        any::<u16>().prop_map(Step::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_oracle_under_arbitrary_workloads(
        values in proptest::collection::vec(0u64..1000, 1..300),
        steps in proptest::collection::vec(step_strategy(1100), 1..60),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);

        let mut oracle = PlainOracle::single_column(values.clone());
        let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
        engine.init_attr(0, values.len());
        let mut live: Vec<u32> = (0..values.len() as u32).collect();

        for step in steps {
            match step {
                Step::Cmp(o, c) => {
                    let p = Predicate::cmp(0, ComparisonOp::ALL[o as usize], c);
                    let sel = engine.select(&oracle, &p, &mut rng);
                    prop_assert_eq!(sel.sorted(), oracle.expected_select(&p));
                }
                Step::Between(lo, hi) => {
                    let p = Predicate::between(0, lo, hi);
                    let sel = engine.select(&oracle, &p, &mut rng);
                    prop_assert_eq!(sel.sorted(), oracle.expected_select(&p));
                }
                Step::Insert(v) => {
                    let t = oracle.insert(&[v]);
                    engine.insert(&oracle, t);
                    live.push(t);
                }
                Step::Delete(idx) => {
                    if !live.is_empty() {
                        let victim = live.swap_remove(idx as usize % live.len());
                        oracle.delete(victim);
                        engine.delete(victim);
                    }
                }
            }
            engine.knowledge(0).expect("attr 0").check_invariants();
        }
    }

    #[test]
    fn md_matches_oracle_for_arbitrary_rectangles(
        cols in proptest::collection::vec(
            proptest::collection::vec(0u64..500, 120), 2..4),
        rects in proptest::collection::vec(
            proptest::collection::vec((0u64..520, 0u64..520), 2..4), 1..8),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = cols.len();
        let oracle = PlainOracle::from_columns(cols);
        let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
        for a in 0..d {
            engine.init_attr(a as u32, 120);
        }
        for rect in rects {
            let dims: Vec<[Predicate; 2]> = (0..d)
                .map(|a| {
                    let (x, y) = rect[a % rect.len()];
                    let (lo, hi) = (x.min(y), x.max(y));
                    [
                        Predicate::cmp(a as u32, ComparisonOp::Gt, lo),
                        Predicate::cmp(a as u32, ComparisonOp::Lt, hi),
                    ]
                })
                .collect();
            let flat: Vec<Predicate> = dims.iter().flatten().cloned().collect();
            let md = engine.select_where(&oracle, &flat, &mut rng);
            prop_assert_eq!(md.sorted(), oracle.expected_conjunction(&flat));
            for a in 0..d {
                engine.knowledge(a as u32).expect("attr").check_invariants();
            }
        }
    }

    #[test]
    fn partitions_stay_value_contiguous(
        values in proptest::collection::vec(0u64..200, 2..200),
        cuts in proptest::collection::vec(0u64..220, 1..40),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = PlainOracle::single_column(values.clone());
        let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
        engine.init_attr(0, values.len());
        for c in cuts {
            engine.select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, c), &mut rng);
        }
        // POP invariant: per-rank value ranges are disjoint and monotone.
        let kb = engine.knowledge(0).expect("attr");
        let pop = kb.pop();
        let ranges: Vec<(u64, u64)> = (0..pop.k())
            .map(|r| {
                let m = pop.members_at(r);
                let lo = m.iter().map(|&t| values[t as usize]).min().expect("non-empty");
                let hi = m.iter().map(|&t| values[t as usize]).max().expect("non-empty");
                (lo, hi)
            })
            .collect();
        let asc = ranges.windows(2).all(|w| w[0].1 < w[1].0);
        let desc = ranges.windows(2).all(|w| w[0].0 > w[1].1);
        prop_assert!(pop.k() <= 1 || asc || desc, "ranges not contiguous: {:?}", ranges);
    }
}
