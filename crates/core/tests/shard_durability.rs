//! Durability properties of the sharded engine pool (DESIGN.md §8), every
//! commit made through its `SessionScheduler`.
//!
//! Pinned guarantees:
//!
//! 1. **Per-shard replay equivalence** — for a crash at any storage op
//!    (the group flush's first append included), reopening the pool
//!    recovers, on
//!    *every* shard independently, a state that validates and is
//!    byte-identical to a prefix of that shard's commit order containing
//!    every acknowledged delete and init (the single in-flight operation
//!    at most on top); a clean shutdown recovers the whole order. One
//!    shard's loss never bleeds into another's history.
//! 2. **Manifest pinning** — the shard count chosen at creation survives
//!    reopens under a different requested count, and a corrupt manifest
//!    refuses to open rather than silently re-partitioning.
//! 3. **Group commit under concurrency** — concurrent writers funneling
//!    through one shard's committer are all acknowledged, and after the
//!    drain the WAL holds exactly one record per committed operation that
//!    refined.
//!
//! 4. **A crashed drain** — a crash at the shutdown drain's first append
//!    loses the un-awaited refinements and nothing else.
//!
//! (Drain semantics, the bound on the un-synced tail and the checkpoint
//! byte threshold are pinned beside the committer, in
//! `src/durability.rs`, where the tail can be looked at.)

mod common;

use common::{
    assert_recovered, clean_ops, cut_name, grouped_cuts, kb_bytes, open_pool, pool_bytes,
    reopen_pool, rotate_every, Ack, Run, TmpDir,
};
use prkb_core::{DurableError, EngineConfig};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, ComparisonOp, Predicate, StorageFs};
use prkb_sim::{FaultFs, IoOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const ATTRS: u32 = 5;
const N: usize = 160;

fn oracle() -> PlainOracle {
    common::oracle(ATTRS as usize, N, 0xC0FFEE)
}

/// Drives a deterministic mixed workload (per-attribute selects and
/// BETWEENs, periodic whole-table deletes, policy-driven checkpoints)
/// through the scheduler of a pool on `fs`, stopping at the first
/// durability error (a failed open included).
fn drive_pool(dir: &Path, config: EngineConfig, fs: Arc<dyn StorageFs>, shards: usize) -> Run {
    let oracle = oracle();
    let Ok(pool) = open_pool(dir, config, shards, fs) else {
        return common::crashed_open(shards);
    };
    common::drive(pool, ATTRS, N, |sched, ack| {
        for round in 0..24u64 {
            let attr = (round % u64::from(ATTRS)) as u32;
            let mut rng = StdRng::seed_from_u64(round.wrapping_mul(0x9E37_79B9) + 1);
            let lo = (round * 37) % 700;
            let hi = lo + 120;
            let pred = if round % 3 == 0 {
                Predicate::between(attr, lo, hi)
            } else {
                Predicate::cmp(attr, ComparisonOp::Lt, hi)
            };
            sched.select_where(&oracle, &[pred], None, &mut rng)?;
            ack(Ack::Derived);
            // Whole-pool footprint every few rounds: a delete journals on
            // every attribute-holding shard, and waits for each fsync.
            if round % 6 == 5 {
                sched.delete((round % 40) as u32, None)?;
                ack(Ack::Fact);
            }
        }
        Ok(())
    })
}

/// Reopens the pool on the real filesystem; every shard must validate.
fn recover_pool(
    dir: &TmpDir,
    config: EngineConfig,
    requested: usize,
    tag: &str,
) -> Vec<Vec<Vec<u8>>> {
    let pool = reopen_pool(&dir.0, config, requested)
        .unwrap_or_else(|e| panic!("{tag}: recovery must open after a crash: {e}"));
    pool_bytes(&pool)
}

// ---------------------------------------------------------------------------
// 1. Per-shard replay equivalence across every crash point
// ---------------------------------------------------------------------------

/// Pools of 1, 4 and 8 shards rotating every four records, and a pool of
/// 4 rotating every five, each crashed at the 1st, 2nd and 5th op of every
/// (class, file kind) of its own clean run, pool creation included: one
/// shard's crash — in its WAL, its segment flush, its manifest swap or its
/// segment retirement — never bleeds into another's history. (The
/// one-shard workload of `durability.rs` is crashed at every op.)
#[test]
fn sharded_crash_sweep_recovers_committed_prefix_per_shard() {
    for (shards, rotate) in [(1usize, 4), (4, 4), (8, 4), (4, 5)] {
        let config = rotate_every(rotate);
        let ops = clean_ops("sweep-ops", |dir, fs| {
            assert!(!drive_pool(dir, config, fs.handle(), shards).failed);
        });
        for cut in grouped_cuts(&ops, &[1, 2, 5]) {
            let dir = TmpDir::new("sweep");
            let fs = FaultFs::crash_at(real_fs(), cut).handle();
            let run = drive_pool(&dir.0, config, fs, shards);
            let tag = format!("{shards} shards / {rotate}, {}", cut_name(&ops, cut));
            let recovered = recover_pool(&dir, config, shards, &tag);
            assert_recovered(&run, &recovered, &tag);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Manifest pinning
// ---------------------------------------------------------------------------

#[test]
fn manifest_pins_shard_count_across_reopens() {
    let dir = TmpDir::new("manifest");
    let config = EngineConfig::default();
    {
        let mut pool = reopen_pool(&dir.0, config, 4).expect("create");
        for a in 0..ATTRS {
            pool.init_attr(a, N).expect("init");
        }
    }
    // Reopen under a different requested count: the manifest wins, so
    // every attribute still routes to the WAL holding its history.
    let pool = reopen_pool(&dir.0, config, 1).expect("reopen");
    assert_eq!(pool.map().shards(), 4, "manifest shard count wins");
    let recovered_attrs: usize = (0..4).map(|s| pool.shard_engine(s).attrs().count()).sum();
    assert_eq!(recovered_attrs, ATTRS as usize, "every attribute recovered");
    drop(pool);

    // A corrupt manifest must refuse to open, not re-partition.
    let path = dir.0.join("manifest.bin");
    let mut bytes = std::fs::read(&path).expect("manifest exists");
    bytes[6] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("corrupt");
    let err = reopen_pool(&dir.0, config, 4).expect_err("corrupt manifest must not open");
    assert!(
        matches!(err, DurableError::CorruptManifest(_)),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// 3. Group commit under concurrency
// ---------------------------------------------------------------------------

#[test]
fn concurrent_writers_all_get_durable_acks_and_one_record_per_commit() {
    let dir = TmpDir::new("writers");
    let config = EngineConfig {
        group_commit_records: 8,
        ..rotate_every(0)
    };
    let oracle = Arc::new(oracle());
    let sched =
        Arc::new(common::create_single(&dir.0, config, real_fs(), ATTRS, N).expect("create"));

    const WRITERS: u32 = 4;
    const OPS: u64 = 10;
    let refined = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let sched = Arc::clone(&sched);
        let oracle = Arc::clone(&oracle);
        let refined = Arc::clone(&refined);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(u64::from(w) + 77);
            for i in 0..OPS {
                let attr = (u64::from(w) + i) % u64::from(ATTRS);
                let bound = rng.gen_range(0..1_000u64);
                let pred = Predicate::cmp(attr as u32, ComparisonOp::Lt, bound);
                // Returns once the commit's record is enqueued; the one
                // that fills the tail (8 records) leads its flush.
                let (sel, _) = sched
                    .select_where(&*oracle, &[pred], None, &mut rng)
                    .expect("ack");
                if sel.stats.splits > 0 {
                    refined.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("writer");
    }
    sched.flush_durable().expect("drain");
    let live = sched.inspect(|engine| vec![kb_bytes(engine)]);
    drop(sched);

    let pool = reopen_pool(&dir.0, config, 1).expect("reopen");
    let refined = refined.load(std::sync::atomic::Ordering::Relaxed);
    assert!(refined > 8, "the writers must fill the tail at least once");
    assert_eq!(
        pool.reports()[0].records_replayed,
        u64::from(ATTRS) + refined,
        "exactly one WAL record per committed operation that refined"
    );
    assert_eq!(
        pool_bytes(&pool),
        live,
        "reopen recovers the concurrent run"
    );
}

// ---------------------------------------------------------------------------
// 4. A crashed drain
// ---------------------------------------------------------------------------

/// Two refinements on different shards are acknowledged without waiting —
/// the deferred tail — and the shutdown drain that flushes them crashes at
/// its first append: the recovered pool is exactly the acknowledged inits.
/// No fact is missing, and the refinements are lost, not mangled.
#[test]
fn drain_crash_at_flush_boundary_loses_only_unacked_records() {
    // Nothing flushes on its own: the record bound is out of reach.
    let config = EngineConfig {
        group_commit_records: 1_000,
        ..rotate_every(0)
    };
    let oracle = oracle();
    // Returns the state after the inits, the op index where the drain
    // starts, and whether the drain failed.
    let script = |dir: &Path, fs: &FaultFs| {
        let mut pool = open_pool(dir, config, 2, fs.handle()).expect("open");
        for a in 0..ATTRS {
            pool.init_attr(a, N).expect("inits are acknowledged");
        }
        let post_init = pool_bytes(&pool);
        let map = pool.map();
        assert_ne!(map.shard_of(0), map.shard_of(1), "two shards refine");
        let sched = common::Sched::durable(pool);
        let mut rng = StdRng::seed_from_u64(9);
        for attr in [0u32, 1] {
            let pred = Predicate::cmp(attr, ComparisonOp::Lt, 500);
            sched
                .select_where(&oracle, &[pred], None, &mut rng)
                .expect("deferred");
        }
        let drain_at = fs.log().len();
        (post_init, drain_at, sched.flush_durable().is_err())
    };
    let drain_at = std::cell::Cell::new(0);
    let ops = clean_ops("drain-ops", |dir, fs| {
        let (_, at, failed) = script(dir, fs);
        assert!(!failed, "a healthy drain flushes cleanly");
        drain_at.set(at);
    });
    let cut = drain_at.get();
    assert!(
        ops[cut].0 == IoOp::Write && common::file_kind(&ops[cut].1) == "wal",
        "{}: the drain starts with an append",
        cut_name(&ops, cut)
    );
    let dir = TmpDir::new("drain-crash");
    let (post_init, _, failed) = script(&dir.0, &FaultFs::crash_at(real_fs(), cut));
    assert!(failed, "the crashed drain reports the failure");
    assert_eq!(
        recover_pool(&dir, config, 2, "drain"),
        post_init,
        "a crash at the drain recovers the prefix up to the last fact"
    );
}
