//! Regression: a parked (overflow) tuple whose value falls into a deletion
//! gap must not receive contradictory rank-interval claims when an
//! *equivalent* trapdoor's value threshold differs from the retained
//! separator threshold at the same boundary (found by proptest, seed
//! 11154505850078906009). The fix restricts overflow refinement to retained
//! separator cuts.

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::edbms::testing::PlainOracle;
use prkb::edbms::{ComparisonOp, Predicate};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone, Copy)]
enum Step {
    I(u64),
    D(u16),
    C(u8, u64),
    B(u64, u64),
}

#[test]
fn gap_dwelling_parked_tuple_survives_equivalent_cuts() {
    use Step::*;
    let values: Vec<u64> = vec![
        289, 289, 289, 289, 289, 0, 0, 0, 0, 0, 289, 365, 451, 329, 110, 722, 808, 18, 359, 704,
        34, 30, 102, 564, 992, 402, 925, 54, 775, 580, 379, 930, 993, 935, 1, 882, 741, 681, 901,
        814, 530,
    ];
    let steps = [
        I(944),
        D(30405),
        C(3, 791),
        D(31468),
        B(202, 461),
        D(37939),
        C(0, 159),
        D(33592),
        B(376, 646),
        B(511, 865),
        I(258),
        D(1863),
        D(27624),
        D(30445),
        B(379, 648),
        D(38869),
        B(102, 364),
        C(2, 175),
        I(1025),
        I(721),
        B(371, 463),
        I(892),
        D(47444),
        D(9037),
        I(507),
        C(0, 494),
        I(720),
        B(341, 998),
        C(0, 288),
        B(777, 830),
        C(2, 946),
        B(276, 1006),
        I(884),
        C(3, 45),
        B(411, 573),
        D(59092),
        B(824, 1071),
        I(955),
        I(970),
        I(536),
        C(1, 902),
        D(41147),
        C(2, 988),
        B(70, 573),
        I(751),
        D(1462),
        C(1, 839),
        I(152),
        B(393, 623),
    ];
    let mut rng = StdRng::seed_from_u64(11154505850078906009);

    let mut oracle = PlainOracle::single_column(values);
    let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(
        0,
        oracle
            .expected_select(&Predicate::cmp(0, ComparisonOp::Ge, 0))
            .len(),
    );
    let mut live: Vec<u32> = (0..41).collect();

    for (i, step) in steps.into_iter().enumerate() {
        match step {
            C(o, c) => {
                let p = Predicate::cmp(0, ComparisonOp::ALL[o as usize], c);
                let sel = engine.select(&oracle, &p, &mut rng);
                assert_eq!(sel.sorted(), oracle.expected_select(&p), "step {i}");
            }
            B(lo, hi) => {
                let p = Predicate::between(0, lo, hi);
                let sel = engine.select(&oracle, &p, &mut rng);
                assert_eq!(sel.sorted(), oracle.expected_select(&p), "step {i}");
            }
            I(v) => {
                let t = oracle.insert(&[v]);
                engine.insert(&oracle, t);
                live.push(t);
            }
            D(idx) => {
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
