//! End-to-end multi-dimensional integration over the real crypto pipeline:
//! PRKB(MD), the Baseline conjunctive scan, and Logarithmic-SRC-i must all
//! return the same answers, at their expected relative costs. (PRKB(SD+),
//! the paper's strawman, is `prkb-bench`'s, and tested there.)

use prkb::core::{EngineConfig, MdUpdatePolicy, PrkbEngine};
use prkb::edbms::select::conjunctive_scan;
use prkb::edbms::{
    ComparisonOp, DataOwner, EncryptedPredicate, PlainTable, Predicate, Schema, SelectionOracle,
    SpOracle, TmConfig,
};
use prkb::srci::{confirm, MultiDimSrci, SrciClient, SrciConfig, SrciIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DOMAIN: u64 = 1_000_000;

struct World {
    owner: DataOwner,
    table: prkb::edbms::EncryptedTable,
    tm: prkb::edbms::TrustedMachine,
    cols: Vec<Vec<u64>>,
}

fn world(n: usize, d: usize, seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let cols: Vec<Vec<u64>> = (0..d)
        .map(|_| (0..n).map(|_| rng.gen_range(0..=DOMAIN)).collect())
        .collect();
    let names: Vec<String> = (0..d).map(|i| format!("c{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let plain =
        PlainTable::from_columns(Schema::new("w", &name_refs), cols.clone()).expect("rectangular");
    let owner = DataOwner::with_seed(seed ^ 0xabc);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());
    World {
        owner,
        table,
        tm,
        cols,
    }
}

fn trapdoors(w: &World, ranges: &[(u64, u64)], rng: &mut StdRng) -> Vec<[EncryptedPredicate; 2]> {
    ranges
        .iter()
        .enumerate()
        .map(|(a, &(lo, hi))| {
            [
                w.owner
                    .trapdoor("w", &Predicate::cmp(a as u32, ComparisonOp::Gt, lo), rng)
                    .expect("valid"),
                w.owner
                    .trapdoor("w", &Predicate::cmp(a as u32, ComparisonOp::Lt, hi), rng)
                    .expect("valid"),
            ]
        })
        .collect()
}

fn ground_truth(cols: &[Vec<u64>], ranges: &[(u64, u64)]) -> Vec<u32> {
    (0..cols[0].len() as u32)
        .filter(|&t| {
            ranges.iter().enumerate().all(|(a, &(lo, hi))| {
                let v = cols[a][t as usize];
                lo < v && v < hi
            })
        })
        .collect()
}

#[test]
fn md_baseline_and_srci_agree_on_2d_queries() {
    let w = world(3_000, 2, 1);
    let oracle = SpOracle::new(&w.table, &w.tm);
    let mut rng = StdRng::seed_from_u64(2);

    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, 3_000);
    engine.init_attr(1, 3_000);

    let (tk, pk) = w.owner.search_keys("w", 0);
    let client = SrciClient::new(tk, pk);
    let mut srci = MultiDimSrci::new();
    for (a, col) in w.cols.iter().enumerate() {
        srci.add_dim(
            a as u32,
            SrciIndex::build(
                &client,
                SrciConfig {
                    domain: (0, DOMAIN),
                    bucket_bits: 12,
                },
                col,
            ),
        );
    }

    for round in 0..15 {
        let ranges: Vec<(u64, u64)> = (0..2)
            .map(|_| {
                let lo = rng.gen_range(0..DOMAIN - 200_000);
                (lo, lo + rng.gen_range(10_000..200_000))
            })
            .collect();
        let dims = trapdoors(&w, &ranges, &mut rng);
        let flat: Vec<EncryptedPredicate> = dims.iter().flatten().cloned().collect();
        let expected = ground_truth(&w.cols, &ranges);

        let md = engine.select_where(&oracle, &flat, &mut rng);
        assert_eq!(md.sorted(), expected, "MD round {round}");

        let mut base = conjunctive_scan(&oracle, &flat);
        base.sort_unstable();
        assert_eq!(base, expected, "baseline round {round}");

        let srci_ranges: Vec<(u32, u64, u64)> = ranges
            .iter()
            .enumerate()
            .map(|(a, &(lo, hi))| (a as u32, lo + 1, hi - 1))
            .collect();
        let mut got = confirm(&oracle, &flat, &srci.candidates(&client, &srci_ranges));
        got.sort_unstable();
        assert_eq!(got, expected, "SRC-i round {round}");
    }
}

#[test]
fn md_cheaper_than_baseline_once_warmed() {
    let w = world(8_000, 3, 3);
    let oracle = SpOracle::new(&w.table, &w.tm);
    let mut rng = StdRng::seed_from_u64(4);
    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    for a in 0..3 {
        engine.init_attr(a, 8_000);
    }

    // Warm with 25 random MD queries.
    for _ in 0..25 {
        let ranges: Vec<(u64, u64)> = (0..3)
            .map(|_| {
                let lo = rng.gen_range(0..DOMAIN - 100_000);
                (lo, lo + 100_000)
            })
            .collect();
        let dims = trapdoors(&w, &ranges, &mut rng);
        engine.select_where(&oracle, dims.as_flattened(), &mut rng);
    }

    engine.config.refine = None;
    let ranges: Vec<(u64, u64)> = (0..3)
        .map(|i| (200_000 + i * 50_000, 300_000 + i * 50_000))
        .collect();
    let dims = trapdoors(&w, &ranges, &mut rng);
    let before = oracle.qpf_uses();
    let md = engine.select_where(&oracle, dims.as_flattened(), &mut rng);
    let md_cost = oracle.qpf_uses().saturating_sub(before);
    assert_eq!(md.sorted(), ground_truth(&w.cols, &ranges));
    assert!(
        md_cost < 8_000,
        "MD cost {md_cost} should be far below the 3d-predicate scan (~24k)"
    );
}

#[test]
fn md_update_policies_stay_consistent_with_plaintext() {
    for policy in [MdUpdatePolicy::PartialOnly, MdUpdatePolicy::CompleteSplits] {
        let w = world(2_000, 2, 5);
        let oracle = SpOracle::new(&w.table, &w.tm);
        let mut rng = StdRng::seed_from_u64(6);
        let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig {
            refine: Some(policy),
            ..EngineConfig::default()
        });
        engine.init_attr(0, 2_000);
        engine.init_attr(1, 2_000);
        for round in 0..10 {
            let ranges: Vec<(u64, u64)> = (0..2)
                .map(|_| {
                    let lo = rng.gen_range(0..DOMAIN / 2);
                    (lo, lo + rng.gen_range(1..DOMAIN / 2))
                })
                .collect();
            let dims = trapdoors(&w, &ranges, &mut rng);
            let sel = engine.select_where(&oracle, dims.as_flattened(), &mut rng);
            assert_eq!(
                sel.sorted(),
                ground_truth(&w.cols, &ranges),
                "{policy:?} round {round}"
            );
            for a in 0..2 {
                engine.knowledge(a).unwrap().check_invariants();
            }
        }
    }
}
