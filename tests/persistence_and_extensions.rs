//! Integration: index snapshots across a simulated service-provider restart,
//! and the §9 extension queries (extremes, skyline) on the real pipeline.

use prkb::core::snapshot;
use prkb::core::{extremes, skyline, EngineConfig, PrkbEngine};
use prkb::edbms::{
    ComparisonOp, DataOwner, EncryptedPredicate, PlainTable, Predicate, Schema, SpOracle, TmConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn snapshot_survives_sp_restart_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 2_000usize;
    let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100_000u64)).collect();
    let plain = PlainTable::single_column("t", "x", values.clone());
    let owner = DataOwner::with_seed(2);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());

    // Session 1: warm the index.
    let mut engine: PrkbEngine<EncryptedPredicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, n);
    let oracle = SpOracle::new(&table, &tm);
    for _ in 0..40 {
        let c = rng.gen_range(0..100_000u64);
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, c), &mut rng)
            .expect("valid");
        engine.select(&oracle, &p, &mut rng);
    }
    let k_before = engine.knowledge(0).expect("attr").k();
    let snap = snapshot::save(engine.knowledge(0).expect("attr"));
    drop(engine); // "SP restarts"

    // Session 2: restore and verify identical answers at warmed cost.
    let kb = snapshot::load::<EncryptedPredicate>(&snap).expect("snapshot intact");
    assert_eq!(kb.k(), k_before);
    let mut engine: PrkbEngine<EncryptedPredicate> = PrkbEngine::new(EngineConfig::default());
    engine.restore_attr(0, kb);
    let before = tm.qpf_uses();
    let p = owner
        .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 50_000), &mut rng)
        .expect("valid");
    let sel = engine.select(&oracle, &p, &mut rng);
    let expected: Vec<u32> = (0..n as u32)
        .filter(|&t| values[t as usize] < 50_000)
        .collect();
    assert_eq!(sel.sorted(), expected);
    let spent = tm.qpf_uses().saturating_sub(before);
    assert!(
        spent < (n as u64) / 3,
        "restored index should answer warm ({spent} QPF for n={n}, k={k_before})"
    );
}

#[test]
fn extremes_and_skyline_on_encrypted_pipeline() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 3_000usize;
    let xs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();
    let ys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();
    let plain = PlainTable::from_columns(
        Schema::new("pts", &["x", "y"]),
        vec![xs.clone(), ys.clone()],
    )
    .expect("rectangular");
    let owner = DataOwner::with_seed(4);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());
    let oracle = SpOracle::new(&table, &tm);

    let mut engine: PrkbEngine<EncryptedPredicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, n);
    engine.init_attr(1, n);
    for _ in 0..60 {
        for attr in 0..2u32 {
            let c = rng.gen_range(0..1_000_000u64);
            let p = owner
                .trapdoor("pts", &Predicate::cmp(attr, ComparisonOp::Lt, c), &mut rng)
                .expect("valid");
            engine.select(&oracle, &p, &mut rng);
        }
    }

    // Min/Max candidates contain the true extremes, with heavy pruning.
    let kb_x = engine.knowledge(0).expect("x indexed");
    let cands = extremes::extreme_candidates(kb_x);
    let min_t = (0..n).min_by_key(|&i| xs[i]).expect("non-empty") as u32;
    let max_t = (0..n).max_by_key(|&i| xs[i]).expect("non-empty") as u32;
    assert!(cands.contains(&min_t) && cands.contains(&max_t));
    assert!(cands.len() * 5 < n, "{} candidates", cands.len());

    // Skyline candidates contain the (min, min) plaintext skyline.
    let kb_y = engine.knowledge(1).expect("y indexed");
    let sky: std::collections::HashSet<u32> = skyline::skyline_candidates(kb_x, kb_y, n)
        .into_iter()
        .collect();
    for t in 0..n {
        let dominated = (0..n).any(|s| {
            s != t && xs[s] <= xs[t] && ys[s] <= ys[t] && (xs[s] < xs[t] || ys[s] < ys[t])
        });
        if !dominated {
            assert!(sky.contains(&(t as u32)), "skyline point {t} missing");
        }
    }
    assert!(sky.len() * 2 < n, "{} skyline candidates", sky.len());
}
