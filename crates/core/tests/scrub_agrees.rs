//! Scrub agrees with the open (DESIGN.md §10). Scrub is the open's read
//! phase reported file by file, so over every directory below:
//!
//! * scrub reports a corruption — other than rot in a superseded block,
//!   which the open does not read — exactly when the open refuses;
//! * a scrub without quarantine issues no mutating storage op (the
//!   `FaultFs` op stream holds only opens and reads) and leaves every byte
//!   where it was;
//! * a refusal finding names its file, and for a WAL record its index;
//! * the open itself still reads each WAL once.
//!
//! The directories: the survivors of a crash at the 1st and 3rd op of every
//! (class, file kind) of a 2-shard pool's run, scrubbed at the pool root;
//! the survivors of seeded I/O faults; deliberate damage to every kind of
//! file; three CRC-valid WAL records that do not fit the knowledge base; a
//! CRC-valid segment block that is not a snapshot; and a previous-layout
//! pool whose manifest does not account for its shard directories.

mod common;

use common::{
    clean_ops, copy_tree, cut_name, fixture, grouped_cuts, open_pool, reopen_pool, rotate_every,
    TmpDir,
};
use prkb_core::durability::{encode_txn, TxnEntry};
use prkb_core::lsm::{segment_file_name, SegmentMeta, SEGMENT_MANIFEST_FILE};
use prkb_core::scrub::{scrub_dir, ScrubDamage, ScrubFinding, ScrubReport};
use prkb_core::{DurableError, EngineConfig, RefinementOp, SessionScheduler, SplitBits};
use prkb_edbms::codec::{publish, seal};
use prkb_edbms::durability::{scan_records, Wal};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, ComparisonOp, Predicate, StorageFs};
use prkb_sim::{FaultFs, IoOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ATTRS: u32 = 4;
const N: usize = 120;

fn oracle() -> PlainOracle {
    common::oracle(ATTRS as usize, N, 0x5C_2B)
}

/// Every file under `dir`, with its bytes.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("list dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read");
            files.insert(path, bytes);
        }
    }
    files
}

/// Rot the open never sees: a superseded block.
fn superseded_rot(f: &ScrubFinding) -> bool {
    f.damage == ScrubDamage::SegmentRot && f.detail.contains("the open does not read")
}

/// Scrubs the pool rooted at `root` over a logging filesystem — no
/// mutating op, no byte changed — then opens it, and checks that scrub
/// reports a corruption (superseded rot aside) exactly when the open
/// refuses. Returns the report and the open's error.
fn agree(root: &Path, tag: &str) -> (ScrubReport, Option<DurableError>) {
    let before = tree(root);
    let fs = FaultFs::scripted(real_fs(), Vec::new());
    let report = scrub_dir::<Predicate>(fs.handle().as_ref(), root, false);
    let mutating: Vec<_> = (fs.log().into_iter())
        .filter(|(op, _)| !matches!(op, IoOp::Open | IoOp::Read))
        .collect();
    assert!(mutating.is_empty(), "{tag}: scrub issued {mutating:?}");
    assert_eq!(tree(root), before, "{tag}: scrub changed the directory");
    let refused = reopen_pool(root, EngineConfig::default()).err();
    let corrupt = (report.findings.iter()).any(|f| f.damage.is_corruption() && !superseded_rot(f));
    assert_eq!(
        corrupt,
        refused.is_some(),
        "{tag}: the open says {refused:?}, scrub says {}",
        report.to_json()
    );
    (report, refused)
}

/// The one finding of `damage`, which must be at `path`.
fn finding<'a>(report: &'a ScrubReport, damage: ScrubDamage, path: &Path) -> &'a ScrubFinding {
    let found: Vec<&ScrubFinding> = (report.findings.iter())
        .filter(|f| f.damage == damage)
        .collect();
    assert_eq!(found.len(), 1, "{}", report.to_json());
    assert_eq!(found[0].path, path, "{}", report.to_json());
    found[0]
}

/// A 2-shard pool with every attribute initialized, then `rounds` selects
/// (a delete every fifth), rotating every three records; shut down cleanly
/// unless something fails first.
fn drive(dir: &Path, fs: Arc<dyn StorageFs>, rounds: u64) -> Result<(), DurableError> {
    let oracle = oracle();
    let mut rng = StdRng::seed_from_u64(11);
    let mut pool = open_pool(dir, rotate_every(3), fs)?;
    for a in 0..ATTRS {
        pool.init_attr(a, N)?;
    }
    let durable = SessionScheduler::durable(pool);
    for round in 0..rounds {
        let attr = (round % u64::from(ATTRS)) as u32;
        let pred = Predicate::cmp(attr, ComparisonOp::Lt, (round * 67) % 900 + 50);
        durable.select_where(&oracle, &[pred], None, &mut rng)?;
        if round % 5 == 4 {
            durable.delete(round as u32, None)?;
        }
    }
    durable.flush_durable()
}

#[test]
fn scrub_agrees_with_the_open_over_every_crash_survivor() {
    let ops = clean_ops("agree-ops", |dir, fs| {
        drive(dir, fs.handle(), 12).expect("clean run");
    });
    let cuts = grouped_cuts(&ops, &[1, 3]);
    assert!(
        cuts.len() >= 20,
        "{} cuts: the run no longer rotates",
        cuts.len()
    );
    for cut in cuts {
        let tag = cut_name(&ops, cut);
        let dir = TmpDir::new("agree-crash");
        let crashed = drive(&dir.0, FaultFs::crash_at(real_fs(), cut).handle(), 12);
        assert!(crashed.is_err(), "{tag}: never fired");
        let (report, refused) = agree(&dir.0, &tag);
        assert!(refused.is_none(), "{tag}: a crash survivor opens");
        assert!(!report.has_corruption(), "{tag}: {}", report.to_json());
    }
}

#[test]
fn scrub_agrees_with_the_open_after_seeded_io_faults() {
    for seed in 1..=8u64 {
        let dir = TmpDir::new("agree-seeded");
        let _ = drive(&dir.0, FaultFs::seeded(real_fs(), seed).handle(), 12);
        let (_, refused) = agree(&dir.0, &format!("seed {seed}"));
        assert!(
            refused.is_none(),
            "seed {seed}: a faulted run's directory opens"
        );
    }
}

/// A clean 2-shard run, its directory and the pool's files: the live WAL
/// and the live segments, oldest first.
fn clean_pool(tag: &str) -> (TmpDir, PathBuf, PathBuf, Vec<PathBuf>) {
    let dir = TmpDir::new(tag);
    drive(&dir.0, real_fs(), 12).expect("clean run");
    let shard = dir.0.clone();
    let files = |suffix: &str| -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = (tree(&shard).into_keys())
            .filter(|p| p.to_string_lossy().ends_with(suffix))
            .collect();
        files.sort_by_key(|p| p.to_string_lossy().len());
        files
    };
    let wal = files(".log").pop().expect("a live WAL");
    let segments = files(".seg");
    assert!(!segments.is_empty(), "the run rotated");
    (dir, shard, wal, segments)
}

fn flip(path: &Path, at: usize) {
    let mut bytes = std::fs::read(path).expect("read");
    bytes[at] ^= 0x40;
    std::fs::write(path, bytes).expect("write");
}

#[test]
fn scrub_agrees_with_the_open_over_deliberate_damage() {
    // A torn tail: residue the open truncates.
    let (dir, _, wal, _) = clean_pool("agree-torn");
    let mut bytes = std::fs::read(&wal).expect("read");
    bytes.extend_from_slice(&[0xAB; 5]);
    std::fs::write(&wal, bytes).expect("tear");
    let (report, refused) = agree(&dir.0, "torn tail");
    assert!(refused.is_none());
    finding(&report, ScrubDamage::TornTail, &wal);

    // A flipped byte inside the WAL's first record, valid records after it.
    let dir = TmpDir::new("agree-midlog");
    let mut pool = open_pool(&dir.0, rotate_every(0), real_fs()).expect("opens");
    for a in 0..3 {
        pool.init_attr(a, N).expect("init");
    }
    drop(pool);
    let wal = dir.0.join("wal.0.log");
    flip(&wal, 8 + 8 + 2);
    let (report, refused) = agree(&dir.0, "mid-log flip");
    assert!(refused.is_some());
    finding(&report, ScrubDamage::MidLogCorruption, &wal);

    // A generation-1 checkpoint beside the shard's files.
    let (dir, shard, _, _) = clean_pool("agree-gen1");
    std::fs::write(shard.join("checkpoint.bin"), b"PCKP\x01\x00 old").expect("plant");
    let (report, _) = agree(&dir.0, "checkpoint.bin");
    finding(
        &report,
        ScrubDamage::Unreadable,
        &shard.join("checkpoint.bin"),
    );

    // A rotted segment manifest.
    let (dir, shard, _, _) = clean_pool("agree-segment-manifest");
    flip(&shard.join(SEGMENT_MANIFEST_FILE), 6);
    let (report, _) = agree(&dir.0, "segment manifest");
    finding(
        &report,
        ScrubDamage::ManifestMismatch,
        &shard.join(SEGMENT_MANIFEST_FILE),
    );

    // A rotted previous-layout pool manifest.
    let dir = TmpDir::new("agree-pool-manifest");
    copy_tree(&fixture("parent_pool_seg"), &dir.0);
    flip(&dir.0.join("manifest.bin"), 6);
    let (report, _) = agree(&dir.0, "pool manifest");
    finding(
        &report,
        ScrubDamage::ManifestMismatch,
        &dir.0.join("manifest.bin"),
    );

    // A live segment removed: the manifest names a file that is not there.
    let (dir, _, _, segments) = clean_pool("agree-missing");
    std::fs::remove_file(&segments[0]).expect("remove");
    let (report, _) = agree(&dir.0, "missing segment");
    finding(&report, ScrubDamage::ManifestMismatch, &segments[0]);

    // A segment cut short.
    let (dir, _, _, segments) = clean_pool("agree-torn-segment");
    let bytes = std::fs::read(&segments[0]).expect("read");
    std::fs::write(&segments[0], &bytes[..bytes.len() - 9]).expect("cut");
    let (report, _) = agree(&dir.0, "torn segment");
    finding(&report, ScrubDamage::TornSegment, &segments[0]);
}

/// Rot in a block the open reads refuses it; rot in a superseded block —
/// one whose attribute a newer segment holds — is reported, and the
/// directory still opens, and a quarantining scrub moves nothing of it.
#[test]
fn scrub_checks_superseded_blocks_the_open_does_not_read() {
    let build = |tag: &str| {
        let dir = TmpDir::new(tag);
        let oracle = oracle();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pool = open_pool(&dir.0, rotate_every(0), real_fs()).expect("opens");
        for a in 0..2 {
            pool.init_attr(a, N).expect("init");
        }
        let durable = SessionScheduler::durable(pool);
        for attr in [0, 1] {
            let pred = Predicate::cmp(attr, ComparisonOp::Lt, 400);
            durable
                .select_where(&oracle, &[pred], None, &mut rng)
                .expect("select");
            durable.checkpoint().expect("rotate");
        }
        durable.flush_durable().expect("shut down");
        // Segment 0 holds attributes 0 and 1; segment 1 attribute 1 only.
        let shard = dir.0.clone();
        let meta = |id| SegmentMeta::open(real_fs().as_ref(), &shard, id).expect("opens");
        let (old, new) = (meta(0), meta(1));
        assert_eq!(old.index.len(), 2, "attributes 0 and 1");
        assert_eq!(new.index.len(), 1, "attribute 1");
        (dir, old, new)
    };
    let (dir, old, _) = build("agree-superseded");
    let block = old.index.iter().find(|e| e.attr == 1).expect("attribute 1");
    flip(&old.path, block.offset as usize + 3);
    let (report, refused) = agree(&dir.0, "superseded block");
    assert!(refused.is_none(), "the open does not read the block");
    let rot = finding(&report, ScrubDamage::SegmentRot, &old.path);
    assert!(superseded_rot(rot), "{}", rot.detail);
    let quarantined = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, true);
    assert_eq!(quarantined.quarantined, 0, "{}", quarantined.to_json());
    assert!(old.path.exists());

    let (dir, _, new) = build("agree-newest");
    flip(&new.path, new.index[0].offset as usize + 3);
    let (report, refused) = agree(&dir.0, "newest block");
    assert!(refused.is_some());
    let rot = finding(&report, ScrubDamage::SegmentRot, &new.path);
    assert!(!superseded_rot(rot), "{}", rot.detail);
}

/// A pool whose attribute 1 is one partition of tuples `0..8`,
/// with `payload` appended to its WAL as one CRC-valid record. Returns the
/// directory, the WAL and the new record's index.
fn with_record(tag: &str, payload: &[u8]) -> (TmpDir, PathBuf, u64) {
    let dir = TmpDir::new(tag);
    let mut pool = open_pool(&dir.0, rotate_every(0), real_fs()).expect("opens");
    pool.init_attr(1, 8).expect("init");
    drop(pool);
    let path = dir.0.join("wal.0.log");
    let (records, len, tail) = scan_records(&std::fs::read(&path).expect("read")).expect("scans");
    let index = records.len() as u64;
    let fs = real_fs();
    let mut wal = Wal::resume_on(fs.as_ref(), &path, len, index, tail).expect("resumes");
    wal.append_unsynced(payload).expect("append");
    wal.sync().expect("sync");
    (dir, path, index)
}

#[test]
fn scrub_agrees_with_the_open_over_records_that_do_not_fit() {
    let op = |op| encode_txn::<Predicate>(&[TxnEntry::Op { attr: 1, op }]);
    let cases = [
        (
            "place of an indexed tuple",
            op(RefinementOp::Place { tuple: 3, rank: 0 }),
        ),
        (
            "solo on a non-empty knowledge base",
            op(RefinementOp::Solo { tuple: 3 }),
        ),
        (
            "split rank out of range",
            op(RefinementOp::Split {
                rank: 999,
                left: (0..8).map(|i| i < 4).collect::<SplitBits>(),
                sep: None,
            }),
        ),
    ];
    for (what, payload) in cases {
        let (dir, wal, index) = with_record("agree-misfit", &payload);
        let (report, refused) = agree(&dir.0, what);
        assert!(
            matches!(refused, Some(DurableError::CorruptWal(_))),
            "{what}"
        );
        let f = finding(&report, ScrubDamage::MidLogCorruption, &wal);
        assert_eq!(f.detail, format!("record {index}: {what}"));
        assert_eq!(f.frames_valid, Some(index + 1), "{what}");
        assert_eq!(f.frame_lines.len() as u64, index + 1, "{what}");
    }
}

/// A segment whose every checksum verifies but whose blocks are not
/// partition snapshots (this encoder's pinned `segment_v2.bin`: id 7,
/// blocks such as `b"block zero!"`), listed by a manifest at epoch 0.
#[test]
fn scrub_agrees_with_the_open_over_a_block_that_is_not_a_snapshot() {
    let dir = TmpDir::new("agree-not-snapshot");
    drop(open_pool(&dir.0, rotate_every(0), real_fs()).expect("creates"));
    let shard = dir.0.clone();
    let golden: &[u8] = include_bytes!("fixtures/segment_v2.bin");
    std::fs::write(shard.join(segment_file_name(7)), golden).expect("plant");
    // `epoch u64 | next_segment_id u64 | n u32 | id u64`.
    let body = [
        &0u64.to_le_bytes()[..],
        &8u64.to_le_bytes(),
        &1u32.to_le_bytes(),
        &7u64.to_le_bytes(),
    ]
    .concat();
    let manifest = seal(b"PSGM", 1, &body);
    publish(real_fs().as_ref(), &shard, SEGMENT_MANIFEST_FILE, &manifest).expect("publish");
    let (report, refused) = agree(&dir.0, "not a snapshot");
    assert!(matches!(refused, Some(DurableError::CorruptSegment(_))));
    let f = finding(
        &report,
        ScrubDamage::TornSegment,
        &shard.join(segment_file_name(7)),
    );
    assert!(
        f.detail.contains("stored partition snapshot"),
        "{}",
        f.detail
    );
}

/// In a previous-layout pool, shard directories its manifest does not
/// account for refuse the open — converting would drop their history — and
/// scrub calls that a manifest mismatch; fewer directories than declared
/// (what a crash during that layout's creation left) open, and scrub
/// reports them clean.
#[test]
fn scrub_agrees_with_the_open_over_unaccounted_shard_directories() {
    let parent = |tag: &str| {
        let dir = TmpDir::new(tag);
        copy_tree(&fixture("parent_pool_seg"), &dir.0);
        dir
    };
    // No manifest: converting would keep whatever directories the
    // requested count names, and drop the others.
    let dir = parent("agree-no-manifest");
    let manifest = dir.0.join("manifest.bin");
    std::fs::remove_file(&manifest).expect("remove");
    let (report, refused) = agree(&dir.0, "no manifest");
    assert!(matches!(refused, Some(DurableError::CorruptManifest(_))));
    let f = finding(&report, ScrubDamage::ManifestMismatch, &manifest);
    assert!(f.detail.contains("shard.0, shard.1"), "{}", f.detail);
    assert!(!manifest.exists(), "the refused open writes no manifest");
    assert!(!dir.0.join(SEGMENT_MANIFEST_FILE).exists(), "nor converts");

    // A directory past the declared count.
    let dir = parent("agree-extra-shard");
    std::fs::create_dir(dir.shard(5)).expect("mkdir");
    let (report, refused) = agree(&dir.0, "extra shard");
    assert!(matches!(refused, Some(DurableError::CorruptManifest(_))));
    let f = finding(
        &report,
        ScrubDamage::ManifestMismatch,
        &dir.0.join("manifest.bin"),
    );
    assert!(f.detail.contains("shard.5"), "{}", f.detail);

    // Fewer directories than declared.
    let dir = parent("agree-fewer");
    std::fs::remove_dir_all(dir.shard(1)).expect("remove");
    let (report, refused) = agree(&dir.0, "fewer shards");
    assert!(
        refused.is_none() && report.is_clean(),
        "{}",
        report.to_json()
    );
    assert!(
        dir.0.join(SEGMENT_MANIFEST_FILE).exists() && !dir.shard(0).exists(),
        "the open converts what there is"
    );
}

/// The open reads each live WAL once: the apply phase resumes the log at
/// the valid length the read phase's scan found, without reading it again.
/// A pool has one; a previous-layout pool one per shard, each read once
/// before its conversion.
#[test]
fn an_open_reads_each_wal_once() {
    let dir = TmpDir::new("agree-wal-reads");
    drive(&dir.0, real_fs(), 12).expect("clean run");
    let previous = TmpDir::new("agree-wal-reads-parent");
    copy_tree(&fixture("parent_pool_seg"), &previous.0);
    for (dir, wals) in [(&dir, 1), (&previous, 2)] {
        let fs = FaultFs::scripted(real_fs(), Vec::new());
        drop(open_pool(&dir.0, rotate_every(3), fs.handle()).expect("opens"));
        let mut reads: Vec<PathBuf> = (fs.log().into_iter())
            .filter(|(op, path)| *op == IoOp::Read && path.extension().is_some_and(|e| e == "log"))
            .map(|(_, path)| path)
            .collect();
        assert_eq!(reads.len(), wals, "{reads:?}");
        reads.sort();
        reads.dedup();
        assert_eq!(reads.len(), wals, "each read once");
    }
}
