//! Concurrency: the trusted machine is shared mutable state (cipher caches,
//! counters) behind locks; concurrent scans from multiple threads must stay
//! correct and count exactly.

use prkb::edbms::select::linear_scan;
use prkb::edbms::{
    ComparisonOp, DataOwner, PlainTable, Predicate, SelectionOracle, SpOracle, TmConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread;

#[test]
fn concurrent_scans_share_one_tm() {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 2_000usize;
    let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100_000u64)).collect();
    let plain = PlainTable::single_column("t", "x", values.clone());
    let owner = DataOwner::with_seed(2);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());

    let n_threads = 4;
    let per_thread_queries = 5;
    let preds: Vec<(Predicate, prkb::edbms::EncryptedPredicate)> = (0..n_threads
        * per_thread_queries)
        .map(|i| {
            let p = Predicate::cmp(0, ComparisonOp::Lt, (i as u64 + 1) * 4_000);
            let t = owner.trapdoor("t", &p, &mut rng).expect("valid");
            (p, t)
        })
        .collect();

    thread::scope(|s| {
        for chunk in preds.chunks(per_thread_queries) {
            let table = &table;
            let tm = &tm;
            let values = &values;
            s.spawn(move || {
                let oracle = SpOracle::new(table, tm);
                for (plain_p, trapdoor) in chunk {
                    let got = linear_scan(&oracle, trapdoor);
                    let expected: Vec<u32> = (0..values.len() as u32)
                        .filter(|&t| plain_p.eval(values[t as usize]))
                        .collect();
                    assert_eq!(got, expected);
                }
            });
        }
    });

    // Exact accounting: every scan touched every tuple exactly once.
    assert_eq!(tm.qpf_uses(), (n * n_threads * per_thread_queries) as u64);
}

#[test]
fn batched_parallel_scans_from_four_threads_count_exactly() {
    // Four threads drive batched scans against one shared TM: each linear
    // scan opens a session and settles the counter with a single fetch_add.
    // Under this contention the results must stay exact and no settle may
    // be lost.
    let mut rng = StdRng::seed_from_u64(5);
    let n = 4_000usize;
    let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100_000u64)).collect();
    let plain = PlainTable::single_column("t", "x", values.clone());
    let owner = DataOwner::with_seed(6);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());

    let n_threads = 4;
    let per_thread_queries = 3;
    let preds: Vec<(Predicate, prkb::edbms::EncryptedPredicate)> = (0..n_threads
        * per_thread_queries)
        .map(|i| {
            let p = Predicate::cmp(0, ComparisonOp::Ge, (i as u64 + 1) * 7_000);
            let t = owner.trapdoor("t", &p, &mut rng).expect("valid");
            (p, t)
        })
        .collect();

    thread::scope(|s| {
        for chunk in preds.chunks(per_thread_queries) {
            let table = &table;
            let tm = &tm;
            let values = &values;
            s.spawn(move || {
                let oracle = SpOracle::new(table, tm);
                let all: Vec<u32> = (0..values.len() as u32).collect();
                let mut verdicts = Vec::new();
                for (plain_p, trapdoor) in chunk {
                    // Through the scan wrapper…
                    let got = linear_scan(&oracle, trapdoor);
                    let expected: Vec<u32> = (0..values.len() as u32)
                        .filter(|&t| plain_p.eval(values[t as usize]))
                        .collect();
                    assert_eq!(got, expected);
                    // …and through the raw batch API.
                    oracle.eval_batch(trapdoor, &all, &mut verdicts);
                    assert_eq!(verdicts.len(), values.len());
                    for (t, &v) in verdicts.iter().enumerate() {
                        assert_eq!(v, plain_p.eval(values[t]));
                    }
                }
            });
        }
    });

    // Exact accounting: every query evaluated every tuple exactly twice
    // (one scan + one raw batch); no settle was lost to a race.
    assert_eq!(
        tm.qpf_uses(),
        2 * (n * n_threads * per_thread_queries) as u64
    );
}

#[test]
fn concurrent_mixed_tables_derive_distinct_keys() {
    // Two tables served by one TM concurrently: per-table key derivation
    // must never cross-talk under racing lazy initialization.
    let mut rng = StdRng::seed_from_u64(3);
    let owner = DataOwner::with_seed(4);
    let t1 = owner.encrypt_table(
        &PlainTable::single_column("alpha", "x", (0..500).collect()),
        &mut rng,
    );
    let t2 = owner.encrypt_table(
        &PlainTable::single_column("beta", "x", (500..1000).collect()),
        &mut rng,
    );
    let tm = owner.trusted_machine(TmConfig::default());

    let p1 = owner
        .trapdoor("alpha", &Predicate::cmp(0, ComparisonOp::Lt, 250), &mut rng)
        .expect("valid");
    let p2 = owner
        .trapdoor("beta", &Predicate::cmp(0, ComparisonOp::Ge, 750), &mut rng)
        .expect("valid");

    thread::scope(|s| {
        let h1 = s.spawn(|| linear_scan(&SpOracle::new(&t1, &tm), &p1).len());
        let h2 = s.spawn(|| linear_scan(&SpOracle::new(&t2, &tm), &p2).len());
        assert_eq!(h1.join().expect("thread 1"), 250);
        assert_eq!(h2.join().expect("thread 2"), 250);
    });
}
