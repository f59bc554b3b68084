//! End-to-end single-dimension integration: real crypto pipeline
//! (owner → ciphertext → trusted machine) cross-checked against plaintext
//! ground truth for every operator, across a long mixed query stream.

use prkb::core::{EngineConfig, PrkbEngine};
use prkb::datagen::Distribution;
use prkb::edbms::{ComparisonOp, DataOwner, PlainTable, Predicate, SpOracle, TmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ground_truth(values: &[u64], p: &Predicate) -> Vec<u32> {
    values
        .iter()
        .enumerate()
        .filter(|(_, &v)| p.eval(v))
        .map(|(i, _)| i as u32)
        .collect()
}

#[test]
fn encrypted_pipeline_matches_ground_truth_over_mixed_stream() {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 4_000usize;
    let values = Distribution::Uniform { lo: 0, hi: 100_000 }.sample_n(&mut rng, n);
    let plain = PlainTable::single_column("t", "x", values.clone());
    let owner = DataOwner::with_seed(9);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());
    let oracle = SpOracle::new(&table, &tm);

    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, n);

    for i in 0..120u64 {
        let p = match i % 6 {
            0 => Predicate::cmp(0, ComparisonOp::Lt, rng.gen_range(0..110_000)),
            1 => Predicate::cmp(0, ComparisonOp::Gt, rng.gen_range(0..110_000)),
            2 => Predicate::cmp(0, ComparisonOp::Le, rng.gen_range(0..110_000)),
            3 => Predicate::cmp(0, ComparisonOp::Ge, rng.gen_range(0..110_000)),
            _ => {
                let lo = rng.gen_range(0..100_000);
                Predicate::between(0, lo, lo + rng.gen_range(0..20_000))
            }
        };
        let trapdoor = owner.trapdoor("t", &p, &mut rng).expect("valid predicate");
        let sel = engine.select(&oracle, &trapdoor, &mut rng);
        assert_eq!(sel.sorted(), ground_truth(&values, &p), "query {i}: {p:?}");
        engine
            .knowledge(0)
            .expect("attr initialized")
            .check_invariants();
    }
    // Knowledge accumulated and queries got cheap.
    let k = engine.knowledge(0).unwrap().k();
    assert!(k > 50, "k = {k}");
}

#[test]
fn cost_drops_by_orders_of_magnitude() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 20_000usize;
    let values = Distribution::Uniform {
        lo: 0,
        hi: 30_000_000,
    }
    .sample_n(&mut rng, n);
    let plain = PlainTable::single_column("t", "x", values);
    let owner = DataOwner::with_seed(10);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());
    let oracle = SpOracle::new(&table, &tm);
    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, n);

    let mut first = 0u64;
    let mut last = 0u64;
    for i in 0..150u64 {
        let c = rng.gen_range(0..30_000_000u64);
        let trapdoor = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, c), &mut rng)
            .expect("valid predicate");
        let sel = engine.select(&oracle, &trapdoor, &mut rng);
        if i == 0 {
            first = sel.stats.qpf_uses;
        }
        if i == 149 {
            last = sel.stats.qpf_uses;
        }
    }
    assert_eq!(first, n as u64, "cold start = full scan");
    assert!(
        last * 20 < first,
        "after 150 queries: {last} vs cold {first}"
    );
}

#[test]
fn distinct_distributions_all_work() {
    for (name, dist) in [
        (
            "normal",
            Distribution::Normal {
                mean: 5e6,
                std_dev: 1e6,
                lo: 0,
                hi: 30_000_000,
            },
        ),
        (
            "lognormal",
            Distribution::LogNormal {
                mu: 13.0,
                sigma: 1.2,
                lo: 1,
                hi: 30_000_000,
            },
        ),
        (
            "zipf",
            Distribution::Zipf {
                n: 1000,
                s: 1.1,
                lo: 0,
                hi: 30_000_000,
            },
        ),
        (
            "clustered",
            Distribution::Clustered {
                k: 5,
                spread: 1e4,
                lo: 0,
                hi: 30_000_000,
                centers_seed: 3,
            },
        ),
    ] {
        let mut rng = StdRng::seed_from_u64(3);
        let values = dist.sample_n(&mut rng, 2_000);
        let plain = PlainTable::single_column("t", "x", values.clone());
        let owner = DataOwner::with_seed(11);
        let table = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let oracle = SpOracle::new(&table, &tm);
        let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
        engine.init_attr(0, 2_000);

        for _ in 0..30 {
            let c = rng.gen_range(0..30_000_000u64);
            let p = Predicate::cmp(0, ComparisonOp::Lt, c);
            let trapdoor = owner.trapdoor("t", &p, &mut rng).expect("valid predicate");
            let sel = engine.select(&oracle, &trapdoor, &mut rng);
            assert_eq!(sel.sorted(), ground_truth(&values, &p), "{name}");
        }
        engine.knowledge(0).unwrap().check_invariants();
    }
}
