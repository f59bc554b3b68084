//! What one checkout leaves on disk: a committed operation journals one
//! WAL record on the pool's one log, however many attributes its
//! footprint spans; one that changed nothing draws its number and journals nothing;
//! an operation that fails commits nothing at all; and an insert's ack
//! carries every earlier refinement to disk with it.

mod common;

use common::{kb_bytes, reopen_pool, Pool, TmpDir};
use prkb_core::{EngineConfig, SessionScheduler};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use prkb_sim::{FaultConfig, FaultInjector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

const ROWS: usize = 50;

fn open_pool(dir: &Path) -> Pool {
    reopen_pool(dir, EngineConfig::default()).expect("open")
}

/// WAL records, as a reopen replays them: one count, for the pool's log.
fn records(dir: &Path) -> Vec<u64> {
    let pool = open_pool(dir);
    pool.reports().iter().map(|r| r.records_replayed).collect()
}

#[test]
fn failed_insert_draws_no_sequence_number_and_journals_nothing() {
    let dir = TmpDir::new("failed-insert");
    let mut oracle = PlainOracle::single_column((0..ROWS as u64).collect());
    let uploaded = oracle.insert(&[17]);
    let mut pool = open_pool(&dir.0);
    pool.init_attr(0, ROWS).expect("init");
    let sched = SessionScheduler::durable(pool);

    // Two partitions, so routing an insert has a boundary to ask about.
    let pred = Predicate::cmp(0, ComparisonOp::Lt, 25);
    let (_, seq) = sched
        .select_where(&oracle, &[pred], None, &mut StdRng::seed_from_u64(1))
        .expect("select");
    assert_eq!(seq, 1);

    let always_down = FaultConfig {
        seed: 5,
        transient_per_mille: 1000,
        timeout_per_mille: 0,
        corruption_per_mille: 0,
        max_consecutive: 0,
    };
    let down = FaultInjector::new(oracle, always_down);
    sched
        .insert(&down, uploaded, None)
        .expect_err("the trusted machine is unreachable");
    assert!(down.injected() > 0, "the insert did reach the oracle");

    assert_eq!(
        sched.delete(3, None).expect("delete"),
        2,
        "next dense number"
    );
    drop(sched.into_engine());
    assert_eq!(records(&dir.0), [3], "init + select + delete, no insert");
}

#[test]
fn whole_table_commit_journals_one_record_across_its_shards() {
    let dir = TmpDir::new("footprint-attrs");
    let mut oracle = PlainOracle::from_columns(vec![(0..ROWS as u64).collect(); 2]);
    let uploaded = oracle.insert(&[7, 31]);
    let mut pool = open_pool(&dir.0);
    for attr in 0..2 {
        pool.init_attr(attr, ROWS).expect("init");
    }
    let sched = SessionScheduler::durable(pool);
    sched.insert(&oracle, uploaded, None).expect("insert");
    let live = sched.inspect(kb_bytes);
    drop(sched.into_engine());

    // One init record per attribute, then one for the insert, which holds
    // both attributes' entries.
    assert_eq!(records(&dir.0), [3]);

    let reopened = SessionScheduler::durable(open_pool(&dir.0));
    assert_eq!(reopened.inspect(kb_bytes), live, "reopen ≡ live");
}

#[test]
fn empty_commit_draws_a_number_and_journals_nothing() {
    let dir = TmpDir::new("empty-commit");
    let oracle = PlainOracle::single_column((0..ROWS as u64).collect());
    let mut pool = open_pool(&dir.0);
    pool.init_attr(0, ROWS).expect("init");
    let sched = SessionScheduler::durable(pool);
    let wal_len = || {
        sched.flush_durable().expect("flush");
        let wal = dir.0.join("wal.0.log");
        std::fs::metadata(wal).expect("epoch-0 WAL").len()
    };

    // Converge: the first time, the cut and the BETWEEN both refine.
    let cut = Predicate::cmp(0, ComparisonOp::Lt, 25);
    let between = Predicate::between(0, 10, 30);
    let mut rng = StdRng::seed_from_u64(1);
    for (pred, number) in [(&cut, 1), (&between, 2)] {
        let (_, seq) = sched
            .select_where(&oracle, &[*pred], None, &mut rng)
            .expect("select");
        assert_eq!(seq, number);
    }
    let converged = wal_len();

    // The same two again: answered, numbered, not journaled.
    for (pred, number) in [(&cut, 3), (&between, 4)] {
        let (sel, seq) = sched
            .select_where(&oracle, &[*pred], None, &mut rng)
            .expect("select");
        assert_eq!(sel.sorted(), oracle.expected_select(pred));
        assert_eq!(seq, number, "next dense number");
    }
    assert_eq!(wal_len(), converged, "an empty commit appends nothing");

    drop(sched.into_engine());
    assert_eq!(records(&dir.0), [3], "init + the two refining selects");
}

#[test]
fn deleting_an_unindexed_tuple_appends_to_no_shard() {
    let dir = TmpDir::new("repeat-delete");
    let mut pool = open_pool(&dir.0);
    for attr in 0..4 {
        pool.init_attr(attr, ROWS).expect("init");
    }
    let sched = SessionScheduler::durable(pool);
    let wal_len = || {
        sched.flush_durable().expect("flush");
        let wal = dir.0.join("wal.0.log");
        std::fs::metadata(wal).expect("epoch-0 WAL").len()
    };
    let before = wal_len();
    assert_eq!(sched.delete(5, None).expect("delete"), 1);
    let deleted = wal_len();
    assert!(
        deleted > before,
        "the first delete journals: {before} -> {deleted}"
    );

    // Already deleted, then never uploaded: numbered, not journaled.
    for (tuple, number) in [(5, 2), (ROWS as u32 + 100, 3)] {
        assert_eq!(sched.delete(tuple, None).expect("delete"), number);
        assert_eq!(wal_len(), deleted, "delete({tuple}) appends nothing");
    }
}

#[test]
fn insert_ack_carries_every_earlier_refinement_of_its_shards() {
    let dir = TmpDir::new("insert-carries");
    let mut oracle = PlainOracle::from_columns(vec![(0..ROWS as u64).collect(); 2]);
    let uploaded = oracle.insert(&[7, 31]);
    let mut pool = open_pool(&dir.0);
    for attr in 0..2 {
        pool.init_attr(attr, ROWS).expect("init");
    }
    let sched = SessionScheduler::durable(pool);
    let mut rng = StdRng::seed_from_u64(2);
    for (attr, bound) in [(0, 20), (1, 35), (0, 40), (1, 10)] {
        let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound);
        sched
            .select_where(&oracle, &[pred], None, &mut rng)
            .expect("select");
    }
    sched.insert(&oracle, uploaded, None).expect("insert");
    let served = sched.inspect(kb_bytes);
    // A crash right after the ack — no flush, no shutdown.
    drop(sched);

    let recovered = SessionScheduler::durable(open_pool(&dir.0));
    assert_eq!(
        recovered.inspect(kb_bytes),
        served,
        "the insert's fsync made the deferred refinements before it durable"
    );
}
