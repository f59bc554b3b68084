//! Durability properties of the engine pool under concurrent, multi-
//! attribute commits (DESIGN.md §8), every commit made through its
//! `SessionScheduler`. A pool is one engine directory with one log.
//!
//! Pinned guarantees:
//!
//! 1. **Pool replay equivalence** — for a crash at any storage op (the
//!    group flush's first append included), reopening the pool recovers a
//!    state that validates and is byte-identical, across all its attributes
//!    at once, to a prefix of the *pool's* commit order containing every
//!    acknowledged insert, delete and init (the single in-flight operation
//!    at most on top); a clean shutdown recovers the whole order. So a
//!    recovered insert or delete is on every attribute or on none.
//! 2. **One log** — every reopen serves every attribute from the one log,
//!    and a corrupt root segment manifest refuses to open.
//! 3. **Group commit under concurrency** — concurrent writers on one
//!    pool are all acknowledged, and after the drain the pool's
//!    WAL holds exactly one record per committed operation that refined;
//!    an insert or a delete costs exactly one fsync, and so does the select
//!    that fills the un-synced tail.
//! 4. **A crashed drain** — a crash at the shutdown drain's first append
//!    loses the un-awaited refinements and nothing else.
//! 5. **The conversion** — the open of a previous-layout pool, cut at
//!    every storage op, reopens to the images that layout served: unchanged
//!    or converted, never a mix, and scrub agrees with the open.
//!
//! (Drain semantics, the bound on the un-synced tail and the checkpoint
//! byte threshold are pinned beside the committer, in
//! `src/durability.rs`, where the tail can be looked at.)

mod common;

use common::{
    assert_recovered, clean_ops, copy_tree, cut_name, fixture, grouped_cuts, kb_bytes, open_pool,
    pool_bytes, reopen_pool, rotate_every, Ack, Run, Sched, TmpDir,
};
use prkb_core::lsm::SEGMENT_MANIFEST_FILE;
use prkb_core::scrub::scrub_dir;
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

/// [`oracle`] with `extra` more rows uploaded, for inserts to route; their
/// tuple ids, in upload order.
fn oracle_with_uploads(extra: usize) -> (PlainOracle, Vec<u32>) {
    let columns = common::columns(ATTRS as usize, N, extra, 0xC0FFEE);
    let mut oracle = PlainOracle::from_columns(columns.iter().map(|c| c[..N].to_vec()).collect());
    let uploads = (N..N + extra)
        .map(|i| oracle.insert(&columns.iter().map(|c| c[i]).collect::<Vec<_>>()))
        .collect();
    (oracle, uploads)
}

/// Drives a deterministic mixed workload (per-attribute selects and
/// BETWEENs, periodic whole-table inserts and deletes, policy-driven
/// checkpoints) through the scheduler of a pool on `fs`, stopping at the
/// first durability error (a failed open included).
fn drive_pool(dir: &Path, config: EngineConfig, fs: Arc<dyn StorageFs>) -> Run {
    let (oracle, uploads) = oracle_with_uploads(4);
    let Ok(pool) = open_pool(dir, config, fs) else {
        return common::crashed_open();
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
            // Whole-pool footprints every few rounds: an insert or a
            // delete journals one record holding every attribute's
            // entries, and waits for its one fsync.
            if round % 6 == 5 {
                sched.delete((round % 40) as u32, None)?;
                ack(Ack::Fact);
            }
            if round % 6 == 2 {
                sched.insert(&oracle, uploads[(round / 6) as usize], None)?;
                ack(Ack::Fact);
            }
        }
        Ok(())
    })
}

/// Reopens the pool on the real filesystem; every knowledge base must
/// validate.
fn recover_pool(dir: &TmpDir, config: EngineConfig, tag: &str) -> Vec<Vec<u8>> {
    let pool = reopen_pool(&dir.0, config)
        .unwrap_or_else(|e| panic!("{tag}: recovery must open after a crash: {e}"));
    pool_bytes(&pool)
}

// ---------------------------------------------------------------------------
// 1. Pool replay equivalence across every crash point
// ---------------------------------------------------------------------------

/// A pool rotating every four records and one rotating every five, each
/// crashed at the 1st, 2nd and 5th op of every (class, file kind) of its
/// own clean run, pool creation included: a crash — in the WAL, the
/// segment flush, the manifest swap or the segment retirement — recovers
/// one prefix of the pool's commit order, the same on every attribute, so
/// an insert or a delete is on all its attributes or on none. (The
/// one-attribute workload of `durability.rs` is crashed at every op.)
#[test]
fn sharded_crash_sweep_recovers_committed_prefix_per_shard() {
    for rotate in [4, 5] {
        let config = rotate_every(rotate);
        let ops = clean_ops("sweep-ops", |dir, fs| {
            assert!(!drive_pool(dir, config, fs.handle()).failed);
        });
        for cut in grouped_cuts(&ops, &[1, 2, 5]) {
            let dir = TmpDir::new("sweep");
            let fs = FaultFs::crash_at(real_fs(), cut).handle();
            let run = drive_pool(&dir.0, config, fs);
            let tag = format!("rotate every {rotate}, {}", cut_name(&ops, cut));
            // The survivor opens, so scrub finds no corruption in it.
            let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, false);
            assert!(!report.has_corruption(), "{tag}: {}", report.to_json());
            let recovered = recover_pool(&dir, config, &tag);
            assert_recovered(&run, &recovered, &tag);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. One log
// ---------------------------------------------------------------------------

/// Every reopen serves every attribute from the root segment manifest and
/// the one log, and a corrupt root segment manifest refuses.
#[test]
fn manifest_pins_shard_count_across_reopens() {
    let dir = TmpDir::new("manifest");
    let config = EngineConfig::default();
    let live = {
        let mut pool = reopen_pool(&dir.0, config).expect("create");
        for a in 0..ATTRS {
            pool.init_attr(a, N).expect("init");
        }
        let sched = Sched::durable(pool);
        sched.checkpoint().expect("a root segment manifest");
        sched.delete(7, None).expect("a fact in the log");
        sched.inspect(kb_bytes)
    };
    for reopen in 0..2 {
        let pool = reopen_pool(&dir.0, config).expect("reopen");
        let recovered_attrs = pool.engine().attrs().count();
        assert_eq!(recovered_attrs, ATTRS as usize, "every attribute recovered");
        assert_eq!(
            Sched::durable(pool).inspect(kb_bytes),
            live,
            "reopen {reopen}"
        );
    }

    // A corrupt manifest must refuse to open.
    let path = dir.0.join(SEGMENT_MANIFEST_FILE);
    let mut bytes = std::fs::read(&path).expect("manifest exists");
    bytes[6] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("corrupt");
    let err = reopen_pool(&dir.0, config).expect_err("corrupt manifest must not open");
    assert!(
        matches!(err, DurableError::CorruptSegment(_)),
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
    let mut pool = open_pool(&dir.0, config, real_fs()).expect("create");
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("init");
    }
    let sched = Arc::new(Sched::durable(pool));

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
    let live = sched.inspect(kb_bytes);
    drop(sched);

    let pool = reopen_pool(&dir.0, config).expect("reopen");
    let refined = refined.load(std::sync::atomic::Ordering::Relaxed);
    assert!(refined > 8, "the writers must fill the tail at least once");
    let [report] = pool.reports() else {
        panic!("one report, for the pool's one log")
    };
    assert_eq!(
        report.records_replayed,
        u64::from(ATTRS) + refined,
        "exactly one WAL record per committed operation that refined, pool-wide"
    );
    assert_eq!(
        Sched::durable(pool).inspect(kb_bytes),
        live,
        "reopen recovers the concurrent run"
    );
}

/// The fsyncs an operation pays, counted through the storage seam: an
/// insert or a delete — a footprint of every attribute — pays exactly one,
/// and so does the select whose record fills the un-synced tail; the
/// selects before it pay none.
#[test]
fn a_fact_costs_one_fsync_however_many_shards_it_spans() {
    let dir = TmpDir::new("one-fsync");
    let config = EngineConfig {
        group_commit_records: 4,
        ..rotate_every(0)
    };
    let (oracle, uploads) = oracle_with_uploads(1);
    let fs = FaultFs::scripted(real_fs(), Vec::new());
    let mut pool = open_pool(&dir.0, config, fs.handle()).expect("create");
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("init");
    }
    let sched = Sched::durable(pool);
    let syncs = || {
        (fs.log().iter())
            .filter(|(op, _)| *op == IoOp::SyncData)
            .count()
    };
    let cost = |op: &mut dyn FnMut()| {
        let before = syncs();
        op();
        syncs() - before
    };
    let insert = cost(&mut || drop(sched.insert(&oracle, uploads[0], None).expect("insert")));
    assert_eq!(insert, 1, "an insert");
    let delete = cost(&mut || {
        sched.delete(3, None).expect("delete");
    });
    assert_eq!(delete, 1, "a delete");
    let mut rng = StdRng::seed_from_u64(5);
    let selects: Vec<usize> = (0..8u64)
        .map(|i| {
            let pred = Predicate::cmp(
                (i % u64::from(ATTRS)) as u32,
                ComparisonOp::Lt,
                150 + 90 * i,
            );
            cost(&mut || {
                let (sel, _) = (sched.select_where(&oracle, &[pred], None, &mut rng)).expect("ack");
                assert!(
                    sel.stats.splits > 0,
                    "select {i} refines: it journals a record"
                );
            })
        })
        .collect();
    assert_eq!(
        selects,
        [0, 0, 0, 1, 0, 0, 0, 1],
        "the 4th record fills the tail"
    );
}

// ---------------------------------------------------------------------------
// 4. A crashed drain
// ---------------------------------------------------------------------------

/// Two refinements on different attributes are acknowledged without waiting —
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
        let mut pool = open_pool(dir, config, fs.handle()).expect("open");
        for a in 0..ATTRS {
            pool.init_attr(a, N).expect("inits are acknowledged");
        }
        let post_init = pool_bytes(&pool);
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
        recover_pool(&dir, config, "drain"),
        post_init,
        "a crash at the drain recovers the prefix up to the last fact"
    );
}

// ---------------------------------------------------------------------------
// 5. The conversion of a previous-layout pool
// ---------------------------------------------------------------------------

/// Every file under `dir` with its bytes, paths relative to `dir`.
fn tree(dir: &Path) -> std::collections::BTreeMap<std::path::PathBuf, Vec<u8>> {
    let mut files = std::collections::BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        for entry in std::fs::read_dir(&at).expect("list dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
                files.insert(rel, std::fs::read(&path).expect("read"));
            }
        }
    }
    files
}

/// `parent_pool_seg` (2 shards, 4 attributes, written by an earlier
/// commit) opened with a crash at every storage op of its conversion: the
/// previous layout is byte-for-byte as it was until the root segment
/// manifest is published, and converted from then on; scrub finds no
/// corruption either way, and the reopen serves the images that commit
/// served.
#[test]
fn conversion_crash_sweep_recovers_the_parent_images_at_every_op() {
    let parent = fixture("parent_pool_seg");
    let served: Vec<Vec<u8>> = (0..4)
        .map(|a| std::fs::read(parent.join(format!("attr.{a}.snap"))).expect("served image"))
        .collect();
    let config = EngineConfig::default();
    let ops = clean_ops("convert-ops", |dir, fs| {
        copy_tree(&parent, dir);
        open_pool(dir, config, fs.handle()).expect("converts");
    });
    let mut before_manifest = 0;
    for cut in 0..ops.len() {
        let tag = cut_name(&ops, cut);
        let dir = TmpDir::new("convert-cut");
        copy_tree(&parent, &dir.0);
        let previous = tree(&dir.0);
        let crashed = open_pool(&dir.0, config, FaultFs::crash_at(real_fs(), cut).handle());
        assert!(crashed.is_err(), "{tag}: never fired");
        if !dir.0.join(SEGMENT_MANIFEST_FILE).exists() {
            // Before the commit point: the previous layout is untouched,
            // beside at most the conversion's unlisted root files.
            before_manifest += 1;
            let now = tree(&dir.0);
            let kept: std::collections::BTreeMap<_, _> = (now.into_iter())
                .filter(|(path, _)| previous.contains_key(path))
                .collect();
            assert_eq!(kept, previous, "{tag}: the previous layout changed");
        }
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, false);
        assert!(!report.has_corruption(), "{tag}: {}", report.to_json());
        let pool = reopen_pool(&dir.0, config)
            .unwrap_or_else(|e| panic!("{tag}: a crashed conversion reopens: {e}"));
        assert_eq!(pool_bytes(&pool), served, "{tag}");
        assert!(!dir.0.join("manifest.bin").exists(), "{tag}: converted");
    }
    assert!(
        before_manifest > 0 && before_manifest < ops.len(),
        "the sweep cuts on both sides of the commit point"
    );
}
