//! Checkpoint segment storage properties (DESIGN.md §9).
//!
//! Pinned guarantees (the crash, fault and rotation sweeps over this
//! storage live in `durability.rs`, `shard_durability.rs` and
//! `storage_faults.rs` — every durable engine checkpoints into segments):
//!
//! 1. **O(delta) flush** — a checkpoint after touching `k` of `N`
//!    partitions writes a segment holding exactly those `k` blocks, not
//!    the whole KB.
//! 2. **Supersede, don't accumulate** — after every rotation the
//!    manifest lists exactly the segments that are the newest holder of at
//!    least one partition (so never more than there are attributes), no
//!    other segment file survives a rotation or a reopen, an all-clean
//!    rotation writes no segment, and a crash at any storage op of a
//!    rotation reopens to the live state.
//! 3. **The old file or the whole new one** — a crash at any of the five
//!    storage ops of a publish leaves the previous segment manifest or the
//!    complete new one, and a torn segment temp file never opens.
//! 4. **Previous generation** — a segmented directory written by an
//!    earlier commit (version-1 segments) opens unchanged and recovers the
//!    images that commit served, and its first rotation supersedes them
//!    with version-2 files. A directory of the generation before that (a
//!    monolithic `checkpoint.bin` per shard) is refused and left as found.

mod common;

use common::{
    clean_ops, columns, copy_tree, cut_name, fixture, kb_bytes, pool_bytes, reopen_pool,
    rotate_every, select_lt, Pool, Sched, TmpDir,
};
use prkb_core::lsm::manifest::read_segment_manifest;
use prkb_core::lsm::{
    parse_segment_name, segment_file_name, SegmentManifest, SegmentMeta, SEGMENT_MANIFEST_FILE,
    SEGMENT_VERSION,
};
use prkb_core::{snapshot, DurableError, EngineConfig, SessionScheduler};
use prkb_edbms::codec::publish;
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, Predicate, StorageFs};
use prkb_sim::{FaultFs, IoOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Explicit checkpoints only.
fn manual() -> EngineConfig {
    rotate_every(0)
}

/// A fresh pool under [`manual`] with attributes `0..attrs`
/// initialized, behind the scheduler.
fn create_manual(dir: &Path, fs: Arc<dyn StorageFs>, attrs: u32, n: usize) -> Sched {
    common::create_single(dir, manual(), fs, attrs, n).expect("open + init")
}

fn reopen_manual(dir: &TmpDir) -> Sched {
    common::open_single(&dir.0, manual(), real_fs()).expect("reopen")
}

/// The supersede invariant of one engine directory: every live segment is
/// the newest holder of at least one attribute (so the live set is no
/// larger than the attribute count), and the directory holds no other
/// `segment.<id>.seg`. Returns the manifest (empty before any rotation).
fn assert_live_set(dir: &Path, tag: &str) -> SegmentManifest {
    let fs = real_fs();
    let manifest = read_segment_manifest(fs.as_ref(), dir)
        .expect("manifest reads")
        .unwrap_or_else(SegmentManifest::empty);
    let mut seen = BTreeSet::new();
    for &id in manifest.segments.iter().rev() {
        let meta = SegmentMeta::open(fs.as_ref(), dir, id).expect("live segment opens");
        let newest_of = meta.index.iter().filter(|e| seen.insert(e.attr)).count();
        assert!(
            newest_of > 0,
            "{tag}: live segment {id} holds nothing newest"
        );
    }
    assert!(manifest.segments.len() <= seen.len(), "{tag}: live > attrs");
    let mut on_disk: Vec<u64> = std::fs::read_dir(dir)
        .expect("list dir")
        .filter_map(|e| parse_segment_name(e.expect("entry").file_name().to_str()?))
        .collect();
    on_disk.sort_unstable();
    assert_eq!(on_disk, manifest.segments, "{tag}: unlisted segment file");
    manifest
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
    let oracle = PlainOracle::from_columns(columns(ATTRS as usize, 160, 0, 5));
    let durable = create_manual(&dir.0, real_fs(), ATTRS, 160);
    durable.checkpoint().expect("full first flush");

    // Touch exactly two partitions, then flush.
    let mut rng = StdRng::seed_from_u64(1);
    for a in [0u32, 1] {
        select_lt(&durable, &oracle, a, 400, &mut rng);
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
    let shard = dir.0.clone();
    let manifest = read_segment_manifest(fs.as_ref(), &shard)
        .expect("manifest reads")
        .expect("manifest exists after checkpoints");
    assert_eq!(manifest.segments, vec![0, 1], "two flushes, two segments");
    let full = SegmentMeta::open(fs.as_ref(), &shard, 0).expect("segment 0 opens");
    let delta = SegmentMeta::open(fs.as_ref(), &shard, 1).expect("segment 1 opens");
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
    // Every init dirties its attribute and nothing has rotated yet.
    assert!(
        u64::from(ATTRS) > config.group_commit_records,
        "precondition: dirty set exceeds the batch cap"
    );
    let durable = common::create_single(&dir.0, config, real_fs(), ATTRS, N).expect("create");
    durable.checkpoint().expect("checkpoint");
    let live = durable.inspect(kb_bytes);

    let fs = real_fs();
    let shard_dir = dir.0.clone();
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
    drop(durable);
    let pool = reopen_pool(&dir.0, config).expect("reopen");
    assert_eq!(kb_bytes(pool.engine()), live);
}

// ---------------------------------------------------------------------------
// 2. Supersede at flush: the live set is the newest holders, nothing else
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random sequences of {refine a subset of the attributes, checkpoint,
    /// reopen}, always ending in two checkpoints (the second all-clean):
    /// the invariant holds after every rotation and every reopen, a reopen
    /// recovers the live bytes, and a rotation with nothing dirty — the
    /// knowledge is byte for byte what the last rotation stored — writes
    /// no segment yet still moves the epoch and the WAL.
    #[test]
    fn live_set_is_exactly_the_newest_holders(
        attrs in 1u32..=8,
        steps in proptest::collection::vec((0u8..4, any::<u8>(), 0u64..1_000), 1..20),
    ) {
        const N: usize = 60;
        let dir = TmpDir::new("supersede");
        let shard = dir.0.clone();
        let oracle = PlainOracle::from_columns(columns(attrs as usize, N, 0, 3));
        let mut durable = create_manual(&dir.0, real_fs(), attrs, N);
        // What the last rotation stored; the inits have not been stored yet.
        let mut stored: Option<Vec<Vec<u8>>> = None;
        let mut rng = StdRng::seed_from_u64(7);
        for (kind, mask, bound) in steps.into_iter().chain([(2, 0, 0), (2, 0, 0)]) {
            match kind {
                0 | 1 => {
                    for a in (0..attrs).filter(|a| mask >> a & 1 == 1) {
                        select_lt(&durable, &oracle, a, bound, &mut rng);
                    }
                }
                2 => {
                    let live = durable.inspect(kb_bytes);
                    let clean = stored.as_ref() == Some(&live);
                    let before = assert_live_set(&shard, "before checkpoint");
                    durable.checkpoint().expect("checkpoint");
                    let after = assert_live_set(&shard, "after checkpoint");
                    prop_assert_eq!(after.epoch, before.epoch + 1);
                    prop_assert!(shard.join(format!("wal.{}.log", after.epoch)).exists());
                    prop_assert!(!shard.join(format!("wal.{}.log", before.epoch)).exists());
                    if clean {
                        prop_assert_eq!(after.segments, before.segments);
                        prop_assert_eq!(after.next_segment_id, before.next_segment_id);
                    } else {
                        prop_assert_eq!(after.segments.last(), Some(&before.next_segment_id));
                    }
                    stored = Some(live);
                }
                _ => {
                    let live = durable.inspect(kb_bytes);
                    // A clean shutdown: a bare drop would be a crash, free
                    // to lose the refinements since the last rotation.
                    durable.flush_durable().expect("clean shutdown");
                    drop(durable);
                    durable = reopen_manual(&dir);
                    prop_assert_eq!(durable.inspect(kb_bytes), live);
                    assert_live_set(&shard, "after reopen");
                }
            }
        }
    }
}

/// A crash at every storage op of a plain rotation — the third here,
/// which keeps one older segment and supersedes another — reopens to the
/// live state, and the reopen leaves no file the manifest does not list.
#[test]
fn rotation_crash_at_every_segment_hook_recovers_live_and_leaves_no_stray() {
    const N: usize = 90;
    let oracle = PlainOracle::from_columns(columns(3, N, 0, 13));
    // Segment 0 = {0, 1, 2}, segment 1 = {0, 1}; the third rotation
    // writes {2}, which keeps segment 1 and supersedes segment 0. Its
    // refinement is flushed first, so the rotation's ops are its own.
    // Returns the op range of the third rotation, whether it failed, and
    // the live state.
    let script = |dir: &Path, fs: &FaultFs| {
        let durable = create_manual(dir, fs.handle(), 3, N);
        let mut rng = StdRng::seed_from_u64(5);
        let (mut third, mut failed) = (0..0, false);
        for (round, touched) in [&[][..], &[0, 1], &[2]].into_iter().enumerate() {
            for &a in touched {
                select_lt(&durable, &oracle, a, 500, &mut rng);
            }
            durable
                .flush_durable()
                .expect("healthy before the rotation");
            let start = fs.log().len();
            let rotated = durable.checkpoint();
            assert!(
                round == 2 || rotated.is_ok(),
                "the first two rotations are healthy"
            );
            (third, failed) = (start..fs.log().len(), rotated.is_err());
        }
        (third, failed, durable.inspect(kb_bytes))
    };
    let third = std::cell::RefCell::new(0..0);
    let ops = clean_ops("rotation-ops", |dir, fs| {
        *third.borrow_mut() = script(dir, fs).0;
    });
    let third = third.into_inner();
    let rename = third
        .clone()
        .find(|&i| ops[i].0 == IoOp::Rename && ops[i].1.ends_with("segments.manifest.tmp"))
        .expect("the rotation swaps the manifest");
    for cut in third {
        let tag = cut_name(&ops, cut);
        let dir = TmpDir::new("rotation-crash");
        let (_, failed, live) = script(&dir.0, &FaultFs::crash_at(real_fs(), cut));
        // Unlinking a superseded segment is best effort; any other cut
        // fails the rotation.
        let (op, path) = &ops[cut];
        let best_effort = *op == IoOp::Remove && common::file_kind(path) == "segment";
        assert_eq!(failed, !best_effort, "{tag}");
        let reopened = reopen_manual(&dir);
        assert_eq!(reopened.inspect(kb_bytes), live, "{tag}");
        let manifest = assert_live_set(&dir.0, &tag);
        // Before the manifest rename the old set stands; after it, the new.
        assert_eq!(
            manifest.segments,
            if cut > rename { vec![1, 2] } else { vec![0, 1] },
            "{tag}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Publishing: the old file or the whole new one
// ---------------------------------------------------------------------------

/// What rotations publish: the segment manifest after the first and after
/// the second explicit rotation of a small pool, and its first segment.
fn rotation_images() -> [Vec<u8>; 3] {
    let dir = TmpDir::new("images");
    let oracle = PlainOracle::from_columns(columns(2, 60, 0, 17));
    let durable = create_manual(&dir.0, real_fs(), 2, 60);
    durable.checkpoint().expect("first rotation");
    let read = |name: &str| std::fs::read(dir.0.join(name)).expect("published");
    let first = read(SEGMENT_MANIFEST_FILE);
    select_lt(&durable, &oracle, 0, 300, &mut StdRng::seed_from_u64(1));
    durable.checkpoint().expect("second rotation");
    [
        first,
        read(SEGMENT_MANIFEST_FILE),
        read(&segment_file_name(0)),
    ]
}

/// Publishing is five storage ops — create the temp file, write, fsync,
/// rename, directory fsync — and a crash at any of them leaves the old
/// segment manifest or the whole new one, never a mixture: before the
/// rename the old one stands, with the temp file left for the recovery
/// sweep; at the directory fsync the new one is already in place.
#[test]
fn crash_before_swap_keeps_old_manifest() {
    let [old, new, _] = rotation_images();
    let publish_new =
        |dir: &Path, fs: &dyn StorageFs| publish(fs, dir, SEGMENT_MANIFEST_FILE, &new);
    let ops = clean_ops("publish-ops", |dir, fs| {
        publish_new(dir, fs).expect("clean publish");
    });
    let kinds: Vec<IoOp> = ops.iter().map(|(op, _)| *op).collect();
    assert_eq!(
        kinds,
        [
            IoOp::Open,
            IoOp::Write,
            IoOp::SyncAll,
            IoOp::Rename,
            IoOp::SyncDir
        ]
    );
    for (cut, (op, _)) in ops.iter().enumerate() {
        let tag = cut_name(&ops, cut);
        let dir = TmpDir::new("publish-cut");
        let manifest = dir.0.join(SEGMENT_MANIFEST_FILE);
        std::fs::write(&manifest, &old).expect("the old manifest");
        let crashed = publish_new(&dir.0, &FaultFs::crash_at(real_fs(), cut));
        assert!(crashed.is_err(), "{tag}");
        let now = std::fs::read(&manifest).expect("a manifest stands");
        if *op == IoOp::SyncDir {
            assert_eq!(now, new, "{tag}");
        } else {
            assert_eq!(now, old, "{tag}");
            let tmp = dir.0.join(format!("{SEGMENT_MANIFEST_FILE}.tmp"));
            assert_eq!(tmp.exists(), cut > 0, "{tag}: the temp file is residue");
        }
    }
}

/// A crash mid-write of a segment leaves a torn temp file that never
/// opens as a segment — not even renamed into place by hand.
#[test]
fn torn_temp_from_mid_write_is_invalid() {
    let [.., segment] = rotation_images();
    let dir = TmpDir::new("torntemp");
    let name = segment_file_name(0);
    // Op 1 of a publish is the image write: a prefix reaches the temp file.
    let crashed = publish(&FaultFs::crash_at(real_fs(), 1), &dir.0, &name, &segment);
    assert!(crashed.is_err());
    let tmp = dir.0.join(format!("{name}.tmp"));
    let torn = std::fs::read(&tmp).expect("the torn temp file");
    assert!(!torn.is_empty() && torn.len() < segment.len());
    assert!(segment.starts_with(&torn));
    std::fs::rename(&tmp, dir.0.join(&name)).expect("rename by hand");
    assert!(matches!(
        SegmentMeta::open(real_fs().as_ref(), &dir.0, 0),
        Err(DurableError::CorruptSegment(_))
    ));
}

// ---------------------------------------------------------------------------
// 4. Previous-generation bytes
// ---------------------------------------------------------------------------

/// `parent_pool_seg`: a pool directory written by an earlier commit with
/// version-1 segments — 2 shards, 4 attributes of 48 tuples, every shard
/// rotated once (epoch 1) and then given a non-empty WAL tail. The
/// `attr.<a>.snap` beside its manifest is `snapshot::save` of what that
/// commit held in memory for attribute `a`.
const FIXTURE_ATTRS: u32 = 4;
const FIXTURE_TAILS: [u64; 2] = [7, 3];

fn served_images() -> Vec<Vec<u8>> {
    (0..FIXTURE_ATTRS)
        .map(|a| {
            std::fs::read(fixture("parent_pool_seg").join(format!("attr.{a}.snap")))
                .expect("served image")
        })
        .collect()
}

fn open_pool(dir: &Path) -> Pool {
    reopen_pool(dir, EngineConfig::default()).expect("a parent-written pool opens")
}

/// The first rotation of the converted pool, with every partition
/// dirtied: it publishes one version-2 segment and retires the converted
/// segment 0.
fn first_rotation_supersedes_segment_0(dir: &Path, pool: Pool) {
    let sched = SessionScheduler::durable(pool);
    sched.delete(9, None).expect("durable ack"); // touches, hence dirties, every attribute
    sched.checkpoint().expect("first checkpoint");
    let manifest = assert_live_set(dir, "converted pool");
    assert_eq!(manifest.epoch, 2);
    assert_eq!(manifest.segments, vec![1], "segment 0 superseded");
    assert_eq!(segment_version(dir, 1), SEGMENT_VERSION);
}

/// Sorted file names of one directory.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The format version in a segment file's header (bytes 4..6).
fn segment_version(dir: &Path, id: u64) -> u16 {
    let bytes = std::fs::read(dir.join(segment_file_name(id))).expect("segment file");
    u16::from_le_bytes([bytes[4], bytes[5]])
}

/// The parent-written pool opens to the images it served, and the open
/// converts it to one engine directory: one segment holding every
/// partition, under a root manifest at epoch 1, and none of the per-shard
/// files left.
#[test]
fn parent_written_segmented_pool_opens_unchanged() {
    let dir = TmpDir::new("parent-seg");
    copy_tree(&fixture("parent_pool_seg"), &dir.0);
    for sid in 0..2 {
        // The parent wrote version 1 (bloom block and all): every block
        // still reads back and loads.
        let shard = dir.shard(sid);
        assert_eq!(segment_version(&shard, 0), 1, "shard {sid}");
        let meta = SegmentMeta::open(real_fs().as_ref(), &shard, 0).expect("v1 segment opens");
        for entry in &meta.index {
            let block = meta.read_block(real_fs().as_ref(), entry).expect("block");
            snapshot::load::<Predicate>(&block).expect("stored image loads");
        }
    }
    let pool = open_pool(&dir.0);
    let [report] = pool.reports() else {
        panic!("one report, for the one log")
    };
    assert_eq!(report.epoch, 1);
    assert_eq!(report.segments_live, 1);
    assert_eq!(report.records_replayed, FIXTURE_TAILS.iter().sum::<u64>());
    assert_eq!(
        listing(&dir.0),
        ["segment.0.seg", "segments.manifest", "wal.1.log"],
        "converted: every per-shard file is gone"
    );
    assert_eq!(segment_version(&dir.0, 0), SEGMENT_VERSION);
    assert_eq!(pool_bytes(&pool), served_images());
    assert!(pool.scrub(false).is_clean());
    first_rotation_supersedes_segment_0(&dir.0, pool);
}

/// `parent_wal_lists`: a one-shard pool written by an earlier commit,
/// never rotated — its whole history is `shard.0/wal.0.log` (12 records),
/// in the previous, per-shard layout.
/// Its splits are the previous record generation: op tag 0, both member
/// lists. Four follow deletes, which that commit's swap-remove left out of
/// ascending order, so their lists are not ascending either. The
/// `attr.<a>.snap` beside it is `snapshot::save` of what that commit held
/// in memory. Replay sorts each split's lists into bits, so it recovers
/// those images with every partition ascending, and they survive a
/// rotation.
#[test]
fn parent_written_list_form_splits_recover_to_the_served_images() {
    let served: Vec<Vec<u8>> = (0..2)
        .map(|a| {
            std::fs::read(fixture("parent_wal_lists").join(format!("attr.{a}.snap")))
                .expect("served image")
        })
        .collect();
    let dir = TmpDir::new("parent-lists");
    copy_tree(&fixture("parent_wal_lists"), &dir.0);
    let pool = open_pool(&dir.0);
    assert_eq!(pool.reports()[0].records_replayed, 12);
    assert_eq!(pool_bytes(&pool), served, "checked ascending on the way");
    SessionScheduler::durable(pool)
        .checkpoint()
        .expect("rotates");
    assert_eq!(pool_bytes(&open_pool(&dir.0)), served);
}

/// `pool_v2`: a pool written in the current layout by the commit that
/// introduced it — one engine directory: segment 0 at epoch 1 holding four
/// attributes of 48 tuples, then a WAL of five records (two splits, a
/// delete and an insert that each hold all four attributes' entries, one
/// more split). It opens to the `attr.<a>.snap` images beside it, and
/// rewrites nothing.
#[test]
fn current_layout_pool_opens_to_its_served_images() {
    let served: Vec<Vec<u8>> = (0..4)
        .map(|a| {
            std::fs::read(fixture("pool_v2").join(format!("attr.{a}.snap"))).expect("served image")
        })
        .collect();
    let dir = TmpDir::new("pool-v2");
    copy_tree(&fixture("pool_v2"), &dir.0);
    let bytes = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        (listing(dir).into_iter())
            .map(|name| (name.clone(), std::fs::read(dir.join(&name)).expect("read")))
            .collect()
    };
    let before = bytes(&dir.0);
    let pool = reopen_pool(&dir.0, EngineConfig::default()).expect("the committed pool opens");
    let [report] = pool.reports() else {
        panic!("one report, for the one log")
    };
    let found = (report.epoch, report.segments_live, report.records_replayed);
    assert_eq!(found, (1, 1, 5));
    assert_eq!(pool_bytes(&pool), served);
    assert_eq!(bytes(&dir.0), before, "nothing rewritten");
}

/// A shard directory that holds a generation-1 `checkpoint.bin` — alone
/// under the pool manifest, as that generation left it, or beside a
/// segment manifest — is never opened: not migrated, not swept as stale,
/// not started fresh around. The open fails naming the file, and the shard
/// directory is as it was.
#[test]
fn generation_1_checkpoint_is_refused_and_left_untouched() {
    const OLD: &[u8] = b"PCKP\x01\x00 whatever a generation-1 writer left here";
    for beside_manifest in [false, true] {
        let dir = TmpDir::new("gen1-refused");
        if beside_manifest {
            copy_tree(&fixture("parent_pool_seg"), &dir.0);
        } else {
            // Shard directories without a pool manifest refuse on their
            // own; this case is about the file.
            let manifest = fixture("parent_pool_seg").join("manifest.bin");
            std::fs::copy(manifest, dir.0.join("manifest.bin")).expect("pool manifest");
        }
        let shard = dir.shard(0);
        std::fs::create_dir_all(&shard).expect("shard dir");
        std::fs::write(shard.join("checkpoint.bin"), OLD).expect("plant");
        assert_eq!(
            shard.join(SEGMENT_MANIFEST_FILE).exists(),
            beside_manifest,
            "precondition"
        );
        let before = listing(&shard);

        let err = reopen_pool(&dir.0, EngineConfig::default())
            .expect_err("a generation-1 directory must not open");
        assert!(
            matches!(err, DurableError::CorruptSegment(what) if what.contains("checkpoint.bin")
                && what.contains("generation-1")),
            "manifest beside it: {beside_manifest}: {err}"
        );
        assert_eq!(
            std::fs::read(shard.join("checkpoint.bin")).expect("still there"),
            OLD
        );
        // No `wal.*`, no `segment.*`, nothing removed.
        assert_eq!(listing(&shard), before, "manifest: {beside_manifest}");
    }
}
