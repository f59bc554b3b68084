//! Checkpoint segment storage properties (DESIGN.md §17).
//!
//! Pinned guarantees (the crash, fault and rotation sweeps over this
//! storage live in `durability.rs`, `shard_durability.rs` and
//! `storage_faults.rs` — every durable engine checkpoints into segments):
//!
//! 1. **O(delta) flush** — a checkpoint after touching `k` of `N`
//!    partitions writes a segment holding exactly those `k` blocks, not
//!    the whole KB.
//! 2. **Compaction correctness** — folding the live set down races
//!    concurrent queries and group commits without disturbing either, and
//!    the folded store recovers the same bytes.
//! 3. **Upgrade path** — a pool directory written by the commit before
//!    segments became the only checkpoint format (monolithic v1
//!    `checkpoint.bin` per shard) migrates each shard into segment 0 at
//!    the same epoch, replays its WAL tail and recovers the images that
//!    commit served — also when the migration itself is interrupted; a
//!    segmented directory written by that commit opens unchanged.

use prkb_core::durability::DurableEngine;
use prkb_core::lsm::manifest::read_segment_manifest;
use prkb_core::lsm::{segment_file_name, SegmentMeta, SEGMENT_MANIFEST_FILE};
use prkb_core::snapshot::{self, WireCodec};
use prkb_core::{EngineConfig, PrkbEngine, ShardMap, ShardedDurablePool, SpPredicate};
use prkb_edbms::durability::{CrashInjector, CrashPoint};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, ComparisonOp, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "prkb-lsm-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn kb_bytes<P: SpPredicate + WireCodec>(engine: &PrkbEngine<P>) -> Vec<Vec<u8>> {
    let mut attrs: Vec<_> = engine.attrs().collect();
    attrs.sort_unstable();
    attrs
        .iter()
        .map(|&a| snapshot::save(engine.knowledge(a).expect("attr indexed")))
        .collect()
}

fn columns(cols: usize, n: usize, extra: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cols)
        .map(|_| (0..n + extra).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect()
}

/// Explicit checkpoints and explicit compaction only.
fn manual() -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        compact_segment_threshold: 0,
        ..EngineConfig::default()
    }
}

// ---------------------------------------------------------------------------
// 1. O(delta) flush: only dirtied partitions reach the segment
// ---------------------------------------------------------------------------

/// Checkpointing after touching `k` of `N` partitions writes a segment
/// holding exactly those `k` blocks — verified against the published
/// segment's own index, and against the `segment_flush_bytes` counter.
#[test]
fn checkpoint_flushes_only_the_dirty_partitions() {
    const ATTRS: u32 = 8;
    let dir = TmpDir::new("odelta");
    let config = manual();
    let oracle = PlainOracle::from_columns(columns(ATTRS as usize, 160, 0, 5));
    let (mut durable, _) =
        DurableEngine::<Predicate>::open_with_crash(&dir.0, config, CrashInjector::disabled())
            .expect("open");
    for a in 0..ATTRS {
        durable.init_attr(a, 160).expect("init");
    }
    durable.checkpoint().expect("full first flush");

    // Touch exactly two partitions, then flush.
    let mut rng = StdRng::seed_from_u64(1);
    for a in [0u32, 1] {
        durable
            .try_select(&oracle, &Predicate::cmp(a, ComparisonOp::Lt, 400), &mut rng)
            .expect("select");
    }
    let flushed_before = prkb_core::metrics::global()
        .snapshot()
        .counter("segment_flush_bytes")
        .unwrap_or(0);
    durable.checkpoint().expect("delta flush");
    let flushed_after = prkb_core::metrics::global()
        .snapshot()
        .counter("segment_flush_bytes")
        .unwrap_or(0);

    let fs = real_fs();
    let manifest = read_segment_manifest(fs.as_ref(), &dir.0)
        .expect("manifest reads")
        .expect("manifest exists after checkpoints");
    assert_eq!(manifest.segments, vec![0, 1], "two flushes, two segments");
    let full = SegmentMeta::open(fs.as_ref(), &dir.0, 0).expect("segment 0 opens");
    let delta = SegmentMeta::open(fs.as_ref(), &dir.0, 1).expect("segment 1 opens");
    assert_eq!(
        full.index.iter().map(|e| e.attr).collect::<Vec<_>>(),
        (0..ATTRS).collect::<Vec<_>>(),
        "first flush covers every initialized partition"
    );
    assert_eq!(
        delta.index.iter().map(|e| e.attr).collect::<Vec<_>>(),
        vec![0, 1],
        "delta flush must hold exactly the touched partitions"
    );
    assert!(
        delta.file_len < full.file_len / 2,
        "O(k) flush wrote {} bytes vs {} for the full KB",
        delta.file_len,
        full.file_len
    );
    // The registry is process-global (other tests may add to it
    // concurrently), so the counter check is a lower bound only.
    assert!(
        flushed_after - flushed_before >= delta.file_len,
        "segment_flush_bytes must account for the delta segment"
    );
}

/// A dirty set larger than the group-commit batch cap still flushes in one
/// segment: the checkpoint path iterates the dirty *set*, which is
/// unrelated to the WAL batching knob.
#[test]
fn dirty_set_larger_than_group_commit_batch_flushes_whole_delta() {
    const ATTRS: u32 = 8;
    const N: usize = 120;
    let dir = TmpDir::new("bigdirty");
    let config = EngineConfig {
        group_commit_records: 3, // far smaller than the 8-partition dirty set
        ..manual()
    };
    let mut pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(1),
        CrashInjector::disabled(),
    )
    .expect("create");
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("init");
    }
    let (_, mut parts) = pool.into_parts();
    let (engine, committer) = &mut parts[0];
    assert!(
        engine.dirty_attrs().len() as u64 > config.group_commit_records,
        "precondition: dirty set exceeds the batch cap"
    );
    committer.checkpoint(engine).expect("checkpoint");
    let live = kb_bytes(engine);

    let fs = real_fs();
    let shard_dir = dir.0.join("shard.0");
    let manifest = read_segment_manifest(fs.as_ref(), &shard_dir)
        .expect("manifest reads")
        .expect("manifest exists");
    let newest = *manifest.segments.last().expect("one segment");
    let meta = SegmentMeta::open(fs.as_ref(), &shard_dir, newest).expect("segment opens");
    assert_eq!(
        meta.index.iter().map(|e| e.attr).collect::<Vec<_>>(),
        (0..ATTRS).collect::<Vec<_>>(),
        "every dirty partition must reach the segment in one flush"
    );
    drop(parts);
    let pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(1),
        CrashInjector::disabled(),
    )
    .expect("reopen");
    assert_eq!(kb_bytes(pool.shard_engine(0)), live);
}

// ---------------------------------------------------------------------------
// 2. Compaction
// ---------------------------------------------------------------------------

/// Compaction racing live queries and group commits on every shard: each
/// select still answers exactly, and the folded store recovers the same
/// bytes the engines held. `PRKB_SHARDS` sizes the pool (CI sweeps 1, 8).
#[test]
fn compaction_races_concurrent_queries_without_divergence() {
    let shards: usize = std::env::var("PRKB_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(8);
    const ATTRS: u32 = 8;
    const N: usize = 140;
    let dir = TmpDir::new("race");
    let config = manual();
    let oracle = Arc::new(PlainOracle::from_columns(columns(ATTRS as usize, N, 0, 31)));
    let mut pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(shards),
        CrashInjector::disabled(),
    )
    .expect("create");
    let map = pool.map();
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("init");
    }
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); map.shards()];
    for a in 0..ATTRS {
        owned[map.shard_of(a)].push(a);
    }
    let (_, parts) = pool.into_parts();
    let (engines, committers): (Vec<_>, Vec<_>) = parts
        .into_iter()
        .map(|(e, c)| (Arc::new(Mutex::new(e)), Arc::new(c)))
        .unzip();

    let mut handles = Vec::new();
    for (sid, attrs) in owned.iter().enumerate() {
        if attrs.is_empty() {
            continue;
        }
        let engine = Arc::clone(&engines[sid]);
        let committer = Arc::clone(&committers[sid]);
        let oracle = Arc::clone(&oracle);
        let attrs = attrs.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(sid as u64 + 17);
            for i in 0..12u64 {
                let attr = attrs[(i as usize) % attrs.len()];
                let bound = rng.gen_range(100..900u64);
                let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound);
                let ticket = {
                    let mut engine = engine.lock().expect("engine lock");
                    let sel = engine
                        .try_select(&*oracle, &pred, &mut rng)
                        .expect("select");
                    assert_eq!(
                        sel.sorted(),
                        oracle.expected_select(&pred),
                        "query diverged while compaction raced"
                    );
                    committer.enqueue_journal(engine.take_ops())
                };
                committer.wait_durable(ticket).expect("durable ack");
                if i % 3 == 2 {
                    let mut engine = engine.lock().expect("engine lock");
                    committer.checkpoint(&mut engine).expect("checkpoint");
                }
            }
        }));
    }
    // The racing folder: repeatedly compacts every shard while the query
    // threads checkpoint fresh segments into the live sets.
    let compactors: Vec<_> = committers.iter().map(Arc::clone).collect();
    let folder = std::thread::spawn(move || {
        for _ in 0..24 {
            for c in &compactors {
                c.compact().expect("compaction must not fail mid-race");
            }
            std::thread::yield_now();
        }
    });
    for h in handles {
        h.join().expect("query thread");
    }
    folder.join().expect("folder thread");
    for c in &committers {
        c.flush().expect("drain");
    }
    let live: Vec<Vec<Vec<u8>>> = engines
        .iter()
        .map(|e| kb_bytes(&e.lock().expect("engine lock")))
        .collect();
    drop(committers);
    drop(engines);

    let pool = ShardedDurablePool::<Predicate>::open_with_crash(
        &dir.0,
        config,
        ShardMap::new(shards),
        CrashInjector::disabled(),
    )
    .expect("reopen after race");
    for (sid, want) in live.iter().enumerate() {
        let engine = pool.shard_engine(sid);
        for attr in engine.attrs().collect::<Vec<_>>() {
            engine
                .knowledge(attr)
                .expect("attr indexed")
                .check_invariants();
        }
        assert_eq!(&kb_bytes(engine), want, "shard {sid} diverged after race");
    }
}

// ---------------------------------------------------------------------------
// 3. Upgrade path from parent-written bytes
// ---------------------------------------------------------------------------

/// Pool directories written by the parent commit (the last one with a
/// monolithic writer): 2 shards, 4 attributes of 48 tuples, every shard
/// rotated once (epoch 1) and then given a non-empty WAL tail.
/// `parent_pool_v1` under its default config (`shard.<i>/checkpoint.bin`),
/// `parent_pool_seg` under its opt-in segmented flag. `attr.<a>.snap` is
/// `snapshot::save` of what that commit held in memory for attribute `a`
/// (identical for both runs).
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

const FIXTURE_ATTRS: u32 = 4;
const FIXTURE_TAILS: [u64; 2] = [7, 3];

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create dir");
    for entry in std::fs::read_dir(from).expect("list fixture") {
        let path = entry.expect("entry").path();
        let dest = to.join(path.file_name().expect("named entry"));
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else if path.extension().and_then(|e| e.to_str()) != Some("snap") {
            std::fs::copy(&path, &dest).expect("copy fixture file");
        }
    }
}

fn served_images() -> Vec<Vec<u8>> {
    (0..FIXTURE_ATTRS)
        .map(|a| {
            std::fs::read(fixture("parent_pool_v1").join(format!("attr.{a}.snap")))
                .expect("served image")
        })
        .collect()
}

fn open_pool(dir: &Path, crash: CrashInjector) -> ShardedDurablePool<Predicate> {
    // Requesting one shard: the parent-written manifest must win.
    ShardedDurablePool::open_with_crash(dir, EngineConfig::default(), ShardMap::new(1), crash)
        .expect("a parent-written pool opens")
}

/// Attribute-ordered images across every shard of the pool.
fn pool_images(pool: &ShardedDurablePool<Predicate>) -> Vec<Vec<u8>> {
    let mut images: Vec<(u32, Vec<u8>)> = (0..pool.map().shards())
        .flat_map(|sid| {
            let engine = pool.shard_engine(sid);
            engine
                .attrs()
                .collect::<Vec<_>>()
                .into_iter()
                .map(move |a| {
                    let kb = engine.knowledge(a).expect("attr indexed");
                    kb.check_invariants();
                    (a, snapshot::save(kb))
                })
        })
        .collect();
    images.sort();
    images.into_iter().map(|(_, bytes)| bytes).collect()
}

#[test]
fn parent_written_v1_pool_migrates_and_recovers_the_served_images() {
    let dir = TmpDir::new("upgrade");
    copy_tree(&fixture("parent_pool_v1"), &dir.0);

    let pool = open_pool(&dir.0, CrashInjector::disabled());
    assert_eq!(pool.map().shards(), 2);
    for (sid, report) in pool.reports().iter().enumerate() {
        assert!(report.checkpoint_loaded, "shard {sid}");
        assert_eq!(report.epoch, 1, "shard {sid}: migration keeps the epoch");
        assert_eq!(report.segments_live, 1, "shard {sid}: segment 0");
        assert_eq!(report.records_replayed, FIXTURE_TAILS[sid], "shard {sid}");
        let shard = dir.0.join(format!("shard.{sid}"));
        assert!(!shard.join("checkpoint.bin").exists(), "shard {sid}");
        assert!(shard.join(SEGMENT_MANIFEST_FILE).exists(), "shard {sid}");
        assert!(shard.join(segment_file_name(0)).exists(), "shard {sid}");
    }
    assert_eq!(pool_images(&pool), served_images());
    let scrub = pool.scrub(false);
    assert!(scrub.is_clean(), "{}", scrub.to_json());
    let before: Vec<_> = pool.reports().to_vec();
    drop(pool);

    // A second reopen finds nothing left to migrate.
    let pool = open_pool(&dir.0, CrashInjector::disabled());
    assert_eq!(pool.reports(), before.as_slice());
    assert_eq!(pool_images(&pool), served_images());

    // The upgraded pool keeps working: a delta on top of segment 0.
    let (_, mut parts) = pool.into_parts();
    for (engine, committer) in &mut parts {
        engine.delete(9);
        let ticket = committer.enqueue_journal(engine.take_ops());
        committer.wait_durable(ticket).expect("durable ack");
        committer
            .checkpoint(engine)
            .expect("post-migration checkpoint");
        assert_eq!(committer.epoch(), 2);
    }
}

/// A crash at any segment or manifest hook *during* the migration reopens
/// to the same state: `checkpoint.bin` stays authoritative until the
/// manifest swap, and is only swept once the manifest has won.
#[test]
fn interrupted_migration_reopens_to_the_same_state() {
    for point in CrashPoint::SEGMENT_HOOKS {
        // Shard 0 migrates at the first firing, shard 1 at the second.
        for nth in [1u64, 2] {
            let dir = TmpDir::new("upgrade-crash");
            copy_tree(&fixture("parent_pool_v1"), &dir.0);
            let crashed = ShardedDurablePool::<Predicate>::open_with_crash(
                &dir.0,
                EngineConfig::default(),
                ShardMap::new(2),
                CrashInjector::at_nth(point, nth),
            );
            // Only compaction reaches the retire hook; a migration never does.
            assert_eq!(
                crashed.is_err(),
                point != CrashPoint::AfterSegmentRetire,
                "{point}:{nth}"
            );
            drop(crashed);
            let pool = open_pool(&dir.0, CrashInjector::disabled());
            assert_eq!(pool_images(&pool), served_images(), "{point}:{nth}");
            for (sid, report) in pool.reports().iter().enumerate() {
                assert_eq!(report.epoch, 1, "{point}:{nth} shard {sid}");
                assert_eq!(
                    report.records_replayed, FIXTURE_TAILS[sid],
                    "{point}:{nth} shard {sid}"
                );
            }
            let scrub = pool.scrub(false);
            assert!(
                !scrub.has_corruption(),
                "{point}:{nth}: {}",
                scrub.to_json()
            );
        }
    }
}

#[test]
fn parent_written_segmented_pool_opens_unchanged() {
    let dir = TmpDir::new("parent-seg");
    copy_tree(&fixture("parent_pool_seg"), &dir.0);
    let listing = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list shard")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let before: Vec<_> = (0..2)
        .map(|sid| listing(&dir.0.join(format!("shard.{sid}"))))
        .collect();
    let pool = open_pool(&dir.0, CrashInjector::disabled());
    for (sid, report) in pool.reports().iter().enumerate() {
        assert_eq!(report.epoch, 1, "shard {sid}");
        assert_eq!(report.segments_live, 1, "shard {sid}");
        assert_eq!(report.records_replayed, FIXTURE_TAILS[sid], "shard {sid}");
        assert_eq!(
            listing(&dir.0.join(format!("shard.{sid}"))),
            before[sid],
            "shard {sid}: nothing to migrate, nothing rewritten"
        );
    }
    assert_eq!(pool_images(&pool), served_images());
    assert!(pool.scrub(false).is_clean());
}
