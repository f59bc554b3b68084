//! Storage-fault semantics and KB integrity scrubbing (DESIGN.md §12),
//! every commit made through the `SessionScheduler`.
//!
//! Pinned guarantees:
//!
//! 1. **No lost durable ack** — for every seeded I/O fault (EIO / ENOSPC /
//!    short write on any storage operation), the durability layer yields
//!    either a clean error with a commit-order prefix recoverable that
//!    holds every acknowledged delete and init, or a poisoned handle —
//!    never a wrong answer, a lost acknowledged fact, or a panic.
//! 2. **fsync-failure poison** — a failed durability barrier, the deferred
//!    flush of a tail of refinements included, permanently poisons the
//!    pool: no retry-and-assume-durable, every later commit attempt
//!    surfaces `SyncFailed`, and only a reopen resumes.
//! 3. **ENOSPC-safe rotation** — a full disk mid-checkpoint aborts the
//!    rotation with the previous segment set + manifest + WAL intact;
//!    reopen recovers the exact committed prefix and leaves no stray
//!    `*.tmp`. A failed barrier of a pool's creation is `SyncFailed` too.
//! 4. **Scrub verdicts** — the scrubber classifies deliberate rot
//!    (torn tail / mid-log / manifest mismatch) exactly, quarantines
//!    rather than deletes — a generation-1 `checkpoint.bin` is corruption
//!    it leaves in place, and after a rotted segment manifest only the
//!    manifest moves, so the reopen refuses instead of opening empty — and
//!    over every crash survivor state (a cut in the storage op stream)
//!    reports no corruption, and as residue exactly the files the reopen
//!    removes.
//! 5. **Blast radius** — the pool has one log, so poison is pool-wide: a
//!    failed fsync rejects new commits on every attribute with `SyncFailed`.

mod common;

use common::{
    assert_recovered, clean_ops, copy_tree, cut_name, fixture, grouped_cuts, kb_bytes, open_pool,
    open_single, pool_bytes, reopen_pool, rotate_every, select_lt, Ack, Run, Sched, TmpDir,
};
use prkb_core::lsm::SEGMENT_MANIFEST_FILE;
use prkb_core::scrub::{scrub_dir, ScrubDamage, QUARANTINE_DIR};
use prkb_core::{DurableError, EngineConfig, SessionScheduler};
use prkb_edbms::durability::{DurabilityError, WAL_HEADER_LEN};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, StorageFs};
use prkb_edbms::{ComparisonOp, Predicate};
use prkb_sim::{FaultFs, IoFaultKind, IoFaultRule, IoOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const ATTRS: u32 = 3;
const N: usize = 140;

fn oracle() -> PlainOracle {
    common::oracle(ATTRS as usize, N, 0xFA_11)
}

/// A fresh pool with every attribute initialized, behind the scheduler.
fn create(dir: &Path, config: EngineConfig, fs: Arc<dyn StorageFs>) -> Sched {
    common::create_single(dir, config, fs, ATTRS, N).expect("open + init")
}

/// Drives a deterministic select/BETWEEN/delete workload through the
/// scheduler of a pool opened over `fs`, stopping cleanly at the
/// first storage error. `None` when the fault killed the open itself (a
/// clean error — nothing was acknowledged).
fn drive_engine(dir: &Path, fs: Arc<dyn StorageFs>) -> Option<Run> {
    let oracle = oracle();
    let pool = open_pool(dir, rotate_every(4), fs).ok()?;
    Some(common::drive(pool, ATTRS, N, |durable, ack| {
        for round in 0..20u64 {
            let attr = (round % u64::from(ATTRS)) as u32;
            let mut rng = StdRng::seed_from_u64(round.wrapping_mul(0x9E37_79B9) + 7);
            let lo = (round * 41) % 700;
            let pred = if round % 3 == 0 {
                Predicate::between(attr, lo, lo + 150)
            } else {
                Predicate::cmp(attr, ComparisonOp::Lt, lo + 150)
            };
            if round % 7 == 6 {
                durable.delete((round % 60) as u32, None)?;
                ack(Ack::Fact);
            } else {
                durable.select_where(&oracle, &[pred], None, &mut rng)?;
                ack(Ack::Derived);
            }
        }
        Ok(())
    }))
}

/// Reopens over the real filesystem; recovery must validate.
fn recover_engine(dir: &Path, config: EngineConfig) -> Vec<Vec<u8>> {
    let pool = reopen_pool(dir, config)
        .expect("recovery over the real fs must open after an injected fault");
    pool_bytes(&pool)
}

fn no_stray_tmp(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("list dir") {
        let path = entry.expect("entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            !name.ends_with(".tmp"),
            "stray temp file {name} survived reopen"
        );
        if path.is_dir() && name != QUARANTINE_DIR {
            no_stray_tmp(&path);
        }
    }
}

/// A disk that fails the `nth` operation of class `op` on a path containing
/// `path_contains` — once, with EIO.
fn eio_on(op: IoOp, path_contains: Option<&str>, nth: u64) -> FaultFs {
    let rule = IoFaultRule {
        op: Some(op),
        path_contains: path_contains.map(String::from),
        nth,
        kind: IoFaultKind::Eio,
        sticky: false,
    };
    FaultFs::scripted(real_fs(), vec![rule])
}

// ---------------------------------------------------------------------------
// 1. Seeded fault sweep: engine path
// ---------------------------------------------------------------------------

#[test]
fn seeded_fault_sweep_engine_never_loses_a_durable_ack() {
    for seed in 1..=16u64 {
        let dir = TmpDir::new("sweep-engine");
        let faults = FaultFs::seeded(real_fs(), seed);
        let run = drive_engine(&dir.0, faults.handle());
        let recovered = recover_pool(&dir.0);
        match run {
            // The fault killed the open; nothing was ever acknowledged, so
            // an empty recovery is the only acceptable state.
            None => assert!(
                faults.injected() >= 1,
                "seed {seed}: open failed without an injected fault"
            ),
            Some(run) => assert_recovered(&run, &recovered, &format!("seed {seed}")),
        }
        no_stray_tmp(&dir.0);
    }
}

// ---------------------------------------------------------------------------
// 2. Seeded fault sweep: group-commit path
// ---------------------------------------------------------------------------

fn drive_pool(dir: &Path, fs: Arc<dyn StorageFs>) -> Option<Run> {
    let oracle = oracle();
    let pool = open_pool(dir, rotate_every(4), fs).ok()?;
    Some(common::drive(pool, ATTRS, N, |sched, ack| {
        for round in 0..16u64 {
            let attr = (round % u64::from(ATTRS)) as u32;
            let mut rng = StdRng::seed_from_u64(round.wrapping_mul(0xA5A5) + 3);
            let lo = (round * 53) % 650;
            let pred = Predicate::cmp(attr, ComparisonOp::Lt, lo + 120);
            sched.select_where(&oracle, &[pred], None, &mut rng)?;
            ack(Ack::Derived);
        }
        Ok(())
    }))
}

fn recover_pool(dir: &Path) -> Vec<Vec<u8>> {
    let pool = reopen_pool(dir, rotate_every(4)).expect("recovery over the real fs must open");
    pool_bytes(&pool)
}

/// Seed 0 is the healthy disk: nothing fails, and the recovery assertion
/// pins plain replay equivalence.
#[test]
fn seeded_fault_sweep_pool_never_loses_a_durable_ack() {
    for seed in 0..=10u64 {
        let dir = TmpDir::new("sweep-pool");
        let faults = match seed {
            0 => FaultFs::scripted(real_fs(), Vec::new()),
            _ => FaultFs::seeded(real_fs(), seed),
        };
        let run = drive_pool(&dir.0, faults.handle());
        let recovered = recover_pool(&dir.0);
        // A fault at pool creation is a clean error: nothing acknowledged.
        if let Some(run) = &run {
            assert_recovered(run, &recovered, &format!("seed {seed}"));
        }
        if seed == 0 {
            assert!(run.is_some_and(|run| !run.failed), "nothing was injected");
        }
        no_stray_tmp(&dir.0);
    }
}

// ---------------------------------------------------------------------------
// 3. fsync-failure semantics: poison, no durable ack, SyncFailed class
// ---------------------------------------------------------------------------

fn is_sync_failed<T>(res: &Result<T, DurableError>) -> bool {
    matches!(
        res,
        Err(DurableError::Storage(DurabilityError::SyncFailed(_)))
    )
}

#[test]
fn failed_wal_sync_poisons_engine_and_every_later_commit_says_sync_failed() {
    let dir = TmpDir::new("sync-poison");
    let oracle = oracle();
    // Let engine creation and init through, then fail the WAL's data sync.
    let faults = eio_on(IoOp::SyncData, None, u64::from(ATTRS) + 1);
    // Inits precede the armed sync.
    let durable = create(&dir.0, EngineConfig::default(), faults.handle());
    let acked = durable.inspect(kb_bytes);
    let mut rng = StdRng::seed_from_u64(1);
    // A refinement replies before its fsync; the barrier that syncs the
    // tail it sits in is the one that meets the armed failure.
    select_lt(&durable, &oracle, 0, 500, &mut rng);
    let failed = durable.flush_durable();
    assert!(
        is_sync_failed(&failed),
        "failed fsync must surface as SyncFailed, got {:?}",
        failed.err()
    );
    // The non-sticky rule is spent: the disk "works" again. The failed
    // fsync poisoned the pool, and a poisoned pool must still refuse —
    // no retry-and-assume-durable, ever.
    let err = durable
        .select_where(
            &oracle,
            &[Predicate::cmp(1, ComparisonOp::Lt, 400)],
            None,
            &mut rng,
        )
        .expect_err("poisoned handle must refuse new work");
    assert!(
        format!("{err}").contains("no durable ack"),
        "poison error must carry the sync-failure reason, got: {err}"
    );
    // A failed fsync means durability is *unknown*: the record was written
    // but never reported durable, so recovery may land on either side of
    // it — just never lose the acknowledged facts or invent a third state.
    let live = durable.inspect(kb_bytes);
    drop(durable);
    let recovered = recover_engine(&dir.0, EngineConfig::default());
    assert!(
        recovered == acked || recovered == live,
        "recovery must be the synced prefix or that plus the refinement"
    );
    assert!(faults.injected() >= 1);
}

// ---------------------------------------------------------------------------
// 4. ENOSPC-safe checkpoint rotation (fill-quota schedule)
// ---------------------------------------------------------------------------

#[test]
fn enospc_mid_rotation_keeps_old_checkpoint_and_recovers_committed_prefix() {
    let dir = TmpDir::new("enospc");
    let root = dir.0.clone();
    let oracle = oracle();
    let config = rotate_every(0);
    // Phase 1: a clean first checkpoint over the real fs.
    {
        let durable = create(&dir.0, config, real_fs());
        select_lt(&durable, &oracle, 0, 300, &mut StdRng::seed_from_u64(2));
        durable.checkpoint().expect("clean rotation");
    }
    // The previous checkpoint: segment 0 behind the manifest.
    let checkpoint_files = ["segments.manifest", "segment.0.seg"];
    let old_checkpoint: Vec<Vec<u8>> = checkpoint_files
        .iter()
        .map(|f| std::fs::read(root.join(f)).expect("checkpoint exists"))
        .collect();

    // Phase 2: reopen over a disk that fills up exactly when the *next*
    // rotation tries to sync its temp file — sticky, like real ENOSPC.
    let faults = FaultFs::scripted(
        real_fs(),
        vec![IoFaultRule {
            op: Some(IoOp::SyncAll),
            path_contains: Some("segment.1.seg.tmp".into()),
            nth: 1,
            kind: IoFaultKind::Enospc,
            sticky: true,
        }],
    );
    let durable = open_single(&dir.0, config, faults.handle()).expect("reopen");
    // A commit before the armed rotation.
    select_lt(&durable, &oracle, 1, 600, &mut StdRng::seed_from_u64(3));
    let acked = durable.inspect(kb_bytes);
    let aborted = durable.checkpoint();
    assert!(
        is_sync_failed(&aborted),
        "ENOSPC at the checkpoint barrier is a sync failure, got {:?}",
        aborted.err()
    );
    // …which poisons the pool: new work is refused before it runs.
    assert!(is_sync_failed(&durable.delete(0, None)));
    drop(durable);

    // The previous checkpoint + WAL must be byte-identical and still live…
    for (f, old) in checkpoint_files.iter().zip(&old_checkpoint) {
        assert_eq!(
            &std::fs::read(root.join(f)).expect("still there"),
            old,
            "aborted rotation must leave {f} untouched"
        );
    }
    assert!(
        !root.join("segment.1.seg").exists(),
        "the aborted segment must never be published"
    );
    // …recovery must be exactly the committed prefix…
    let recovered = recover_engine(&dir.0, config);
    assert_eq!(recovered, acked, "committed prefix lost to ENOSPC");
    // …and the reopen must have cleaned the stray temp file.
    no_stray_tmp(&dir.0);
}

/// Every barrier of a pool creation is load-bearing, and a failed one is
/// `SyncFailed` (the disk lied), not a plain I/O error: the fresh
/// `wal.0.log`'s fsync, then the root's directory fsync for its entry.
/// There is no second directory fsync.
#[test]
fn failed_pool_creation_sync_is_sync_failed() {
    let barriers = [(IoOp::SyncAll, Some("wal.0.log"), 1)]
        .into_iter()
        .chain((1..=2).map(|nth| (IoOp::SyncDir, None, nth)));
    for (op, path, nth) in barriers {
        let dir = TmpDir::new("creation-sync");
        let faults = eio_on(op, path, nth);
        let config = EngineConfig::default();
        let created = open_pool(&dir.0, config, faults.handle());
        if op == IoOp::SyncDir && nth == 2 {
            created.expect("a creation fsyncs one directory");
        } else {
            assert!(
                is_sync_failed(&created),
                "{op:?} {nth}: {:?}",
                created.err()
            );
        }
    }
}

/// A rotation's fresh WAL has a durable directory entry before any commit
/// is acknowledged into it: a failed directory fsync poisons the rotation.
#[test]
fn failed_wal_directory_fsync_poisons_the_rotation() {
    let dir = TmpDir::new("dir-sync-rotate");
    let oracle = oracle();
    let config = rotate_every(0);
    // One fsync for the open's `wal.0.log`, then the rotation's for the
    // segment, the manifest swap and `wal.1.log`.
    let faults = eio_on(IoOp::SyncDir, None, 4);
    let durable = create(&dir.0, config, faults.handle());
    select_lt(&durable, &oracle, 0, 300, &mut StdRng::seed_from_u64(2));
    let acked = durable.inspect(kb_bytes);
    let rotated = durable.checkpoint();
    assert!(is_sync_failed(&rotated), "got {:?}", rotated.err());
    assert!(is_sync_failed(&durable.delete(0, None)), "poisoned");
    drop(durable);
    assert_eq!(recover_engine(&dir.0, config), acked);
}

// ---------------------------------------------------------------------------
// 5. Scrub verdicts over deliberately rotted artifacts
// ---------------------------------------------------------------------------

/// Builds a real engine directory — `dir.0` of a pool —
/// with a non-trivial checkpoint (one segment behind the manifest) and a
/// WAL holding several frames, returning its committed byte state.
fn build_engine_dir(dir: &TmpDir) -> Vec<Vec<u8>> {
    let oracle = oracle();
    let durable = create(&dir.0, rotate_every(0), real_fs());
    let mut rng = StdRng::seed_from_u64(5);
    select_lt(&durable, &oracle, 0, 400, &mut rng);
    durable.checkpoint().expect("rotate");
    for bound in [200u64, 500, 800] {
        select_lt(&durable, &oracle, 1, bound, &mut rng);
    }
    durable.flush_durable().expect("clean shutdown");
    durable.inspect(kb_bytes)
}

/// Opens `dir` as recovery would: the default config over the real fs.
fn try_open(dir: &TmpDir) -> Result<common::Pool, DurableError> {
    reopen_pool(&dir.0, EngineConfig::default())
}

fn wal_path(dir: &Path) -> PathBuf {
    let mut wals: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            let n = p.file_name().unwrap().to_string_lossy().into_owned();
            n.starts_with("wal.") && n.ends_with(".log")
        })
        .collect();
    assert_eq!(wals.len(), 1, "exactly one live WAL");
    wals.pop().unwrap()
}

#[test]
fn scrub_reports_clean_on_an_intact_directory() {
    let dir = TmpDir::new("scrub-clean");
    build_engine_dir(&dir);
    let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, false);
    assert!(report.is_clean(), "{}", report.to_json());
    assert!(
        report.files_scanned >= 3,
        "segment manifest + segment + WAL scanned"
    );
    assert_eq!(report.quarantined, 0);
}

#[test]
fn scrub_classifies_torn_tail_and_leaves_it_alone() {
    let dir = TmpDir::new("scrub-torn");
    let committed = build_engine_dir(&dir);
    let wal = wal_path(&dir.0);
    // Append a partial frame: the torn-write shape a crash leaves behind.
    let mut bytes = std::fs::read(&wal).expect("read wal");
    bytes.extend_from_slice(&[0xAB; 7]);
    std::fs::write(&wal, &bytes).expect("tear");

    let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, true);
    let f = report
        .findings
        .iter()
        .find(|f| f.path == wal)
        .expect("wal finding");
    assert_eq!(f.damage, ScrubDamage::TornTail);
    assert_eq!(f.frames_valid, Some(3), "three committed frames intact");
    assert!(f.quarantined_to.is_none(), "torn tails are recovery's job");
    assert!(!report.has_corruption());
    assert!(!report.is_clean());

    // Recovery truncates the tear: nothing committed is lost.
    let recovered = recover_engine(&dir.0, EngineConfig::default());
    assert_eq!(recovered, committed);
}

#[test]
fn scrub_classifies_mid_log_corruption_and_quarantine_unblocks_reopen() {
    let dir = TmpDir::new("scrub-midlog");
    build_engine_dir(&dir);
    let wal = wal_path(&dir.0);
    let mut bytes = std::fs::read(&wal).expect("read wal");
    // Flip one payload byte inside the *first* frame: valid frames follow,
    // so this is damage inside the committed prefix.
    let idx = WAL_HEADER_LEN as usize + 8 + 2;
    bytes[idx] ^= 0x01;
    std::fs::write(&wal, &bytes).expect("rot");

    // Recovery must refuse the damaged log outright.
    try_open(&dir).expect_err("mid-log corruption must refuse to open");

    let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, true);
    let f = report
        .findings
        .iter()
        .find(|f| f.damage == ScrubDamage::MidLogCorruption)
        .expect("mid-log finding");
    assert!(report.has_corruption());
    let moved = f.quarantined_to.as_ref().expect("quarantined");
    assert!(moved.starts_with(dir.0.join(QUARANTINE_DIR)));
    assert_eq!(
        std::fs::read(moved).expect("evidence preserved"),
        bytes,
        "quarantine must move, never truncate or delete"
    );
    assert!(!wal.exists());

    // With the rotted WAL out of the way the checkpoint still opens.
    try_open(&dir).expect("quarantine unblocks reopen");
}

/// A generation-1 `checkpoint.bin` has no reader: scrub counts it as
/// corruption but never moves it, so `--quarantine` followed by a reopen
/// cannot start an empty pool over an old directory.
#[test]
fn scrub_reports_generation_1_checkpoint_unreadable_and_leaves_it() {
    const OLD: &[u8] = b"PCKP\x01\x00 a generation-1 checkpoint";
    let dir = TmpDir::new("scrub-gen1");
    build_engine_dir(&dir);
    let ckpt = dir.0.join("checkpoint.bin");
    std::fs::write(&ckpt, OLD).expect("plant");

    for quarantine in [false, true] {
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, quarantine);
        let f = report
            .findings
            .iter()
            .find(|f| f.path == ckpt)
            .expect("checkpoint finding");
        assert_eq!(f.damage, ScrubDamage::Unreadable, "{}", report.to_json());
        assert!(f.quarantined_to.is_none());
        // The CLI's exit code 2.
        assert!(report.has_corruption());
        assert_eq!(report.quarantined, 0, "everything else is clean");
        assert_eq!(std::fs::read(&ckpt).expect("left in place"), OLD);
        try_open(&dir).expect_err("still refused after the scrub");
    }
    assert!(!dir.0.join(QUARANTINE_DIR).exists());
}

/// A rotted segment manifest is the one file scrub moves: with it unread,
/// the segments are live (never stray). The reopen after the
/// quarantine finds a WAL newer than any manifest and refuses — it neither
/// opens empty nor removes the WAL or the segment that hold the data — and
/// a second quarantining scrub of that refused directory moves nothing.
#[test]
fn lost_segment_manifest_refuses_to_open_and_keeps_the_data() {
    let dir = TmpDir::new("scrub-lost-manifest");
    build_engine_dir(&dir);
    let root = dir.0.clone();
    let manifest = root.join(SEGMENT_MANIFEST_FILE);
    let mut bytes = std::fs::read(&manifest).expect("read");
    bytes[6] ^= 0xFF;
    std::fs::write(&manifest, &bytes).expect("rot");
    let data = ["segment.0.seg", "wal.1.log"];
    let before: Vec<Vec<u8>> = data
        .iter()
        .map(|f| std::fs::read(root.join(f)).expect("written by the run"))
        .collect();

    let report = scrub_dir::<Predicate>(real_fs().as_ref(), &root, true);
    let moved: Vec<&Path> = report
        .findings
        .iter()
        .filter(|f| f.quarantined_to.is_some())
        .map(|f| f.path.as_path())
        .collect();
    assert_eq!(moved, [manifest.as_path()], "{}", report.to_json());

    let err = try_open(&dir).expect_err("a lost segment manifest must refuse to open");
    assert!(
        matches!(err, DurableError::CorruptSegment(why) if why.contains("segment manifest is missing")),
        "{err}"
    );
    // Now the WAL is refused and the segment unlisted: residue of a
    // directory no reopen sweeps, so it stays where it is.
    let again = scrub_dir::<Predicate>(real_fs().as_ref(), &root, true);
    assert!(again.has_corruption(), "{}", again.to_json());
    assert_eq!(again.quarantined, 0, "{}", again.to_json());
    for (f, old) in data.iter().zip(&before) {
        let now = std::fs::read(root.join(f)).expect("still on disk");
        assert_eq!(&now, old, "{f} changed");
    }
}

/// A fresh pool with every attribute initialized.
fn create_pool(dir: &TmpDir) -> common::Pool {
    let mut pool = reopen_pool(&dir.0, EngineConfig::default()).expect("create");
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("init");
    }
    pool
}

/// The previous layout's pool manifest: rot in it is a manifest mismatch,
/// and the open refuses the shard directories it leaves unaccounted.
#[test]
fn scrub_classifies_manifest_rot_on_pools() {
    let dir = TmpDir::new("scrub-manifest");
    copy_tree(&fixture("parent_pool_seg"), &dir.0);
    let clean = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, false);
    assert!(clean.is_clean(), "{}", clean.to_json());

    let manifest = dir.0.join("manifest.bin");
    let mut bytes = std::fs::read(&manifest).expect("read");
    bytes[6] ^= 0xFF;
    std::fs::write(&manifest, &bytes).expect("rot");

    let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir.0, true);
    let f = report
        .findings
        .iter()
        .find(|f| f.path == manifest)
        .expect("manifest finding");
    assert_eq!(f.damage, ScrubDamage::ManifestMismatch);
    assert!(f.quarantined_to.is_some());

    // With the rotted manifest quarantined the shard directories are left
    // without one: the open refuses rather than convert without them.
    let err = reopen_pool(&dir.0, EngineConfig::default())
        .expect_err("shard directories without a manifest must not open");
    assert!(matches!(err, DurableError::CorruptManifest(_)), "{err}");
    assert!(!manifest.exists(), "the refused open publishes no manifest");
    assert!(!dir.0.join(SEGMENT_MANIFEST_FILE).exists(), "nor converts");
}

/// Every attribute of a pool journals to the one log at its root, and the
/// scrub through the pool's handle reads it.
#[test]
fn pool_scrub_via_handle_walks_every_shard() {
    let dir = TmpDir::new("scrub-pool-handle");
    let report = create_pool(&dir).scrub(false);
    assert!(report.is_clean(), "{}", report.to_json());
    let [wal] = report.findings.as_slice() else {
        panic!("one log for every attribute: {}", report.to_json())
    };
    assert_eq!(wal.path, dir.0.join("wal.0.log"));
    assert_eq!(wal.frames_valid, Some(u64::from(ATTRS)), "one init each");
}

// ---------------------------------------------------------------------------
// 6. Scrub over every crash survivor state
// ---------------------------------------------------------------------------

/// Sorted entry paths of one directory.
fn listing(dir: &Path) -> BTreeSet<PathBuf> {
    std::fs::read_dir(dir)
        .expect("list dir")
        .map(|e| e.expect("entry").path())
        .collect()
}

/// Whatever state a crash leaves behind is, by the recovery contract
/// (DESIGN.md §10), openable — so the scrubber must classify it as clean,
/// a torn tail or residue, never as corruption; and the residue it names is
/// exactly what the reopen removes. The crashes are the 1st and 3rd op of
/// every (class, file kind) of the clean run.
#[test]
fn scrub_classifies_every_crash_survivor_as_residue_not_corruption() {
    let oracle = oracle();
    // Runs to the end, or until the crash kills it; then drops the pool
    // as a dying process would.
    let script = |dir: &Path, fs: Arc<dyn StorageFs>| -> Result<(), DurableError> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut pool = open_pool(dir, rotate_every(3), fs)?;
        for a in 0..ATTRS {
            pool.init_attr(a, N)?;
        }
        let durable = SessionScheduler::durable(pool);
        for round in 0..14u64 {
            let attr = (round % u64::from(ATTRS)) as u32;
            let pred = Predicate::cmp(attr, ComparisonOp::Lt, (round * 67) % 900);
            durable.select_where(&oracle, &[pred], None, &mut rng)?;
        }
        Ok(())
    };
    let ops = clean_ops("survivor-ops", |dir, fs| {
        script(dir, fs.handle()).expect("clean run");
    });
    for cut in grouped_cuts(&ops, &[1, 3]) {
        let tag = cut_name(&ops, cut);
        let dir = TmpDir::new("crash-survivor");
        let crashed = script(&dir.0, FaultFs::crash_at(real_fs(), cut).handle());
        assert!(crashed.is_err(), "{tag}: never fired");
        let root = dir.0.clone();
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &root, false);
        for f in &report.findings {
            assert!(
                matches!(f.damage, ScrubDamage::Clean | ScrubDamage::TornTail)
                    || f.damage.is_residue(),
                "{tag}: crash residue misclassified as {} at {} ({})",
                f.damage.name(),
                f.path.display(),
                f.detail
            );
        }
        assert!(!report.has_corruption(), "{tag}: {}", report.to_json());
        let residue: BTreeSet<PathBuf> = report
            .findings
            .iter()
            .filter(|f| f.damage.is_residue())
            .map(|f| f.path.clone())
            .collect();
        let before = listing(&root);
        try_open(&dir).expect("a crash survivor opens");
        let removed: BTreeSet<PathBuf> = before.difference(&listing(&root)).cloned().collect();
        assert_eq!(
            residue, removed,
            "{tag}: scrub's residue is what a reopen removes"
        );
    }
}

// ---------------------------------------------------------------------------
// 7. Pool-wide poison
// ---------------------------------------------------------------------------

/// The pool has one log, so a failed fsync of it leaves every attribute's
/// memory possibly ahead of the disk: every later commit, on any attribute, is
/// refused with `SyncFailed` — never a durable ack — and the reopen
/// recovers a commit-order prefix holding every acknowledged fact.
#[test]
fn poisoned_pool_rejects_every_later_commit_with_sync_failed() {
    let dir = TmpDir::new("pool-poison");
    let oracle = oracle();
    // One awaited flush per init, then the armed one.
    let faults = eio_on(IoOp::SyncData, None, u64::from(ATTRS) + 1);
    let mut pool = open_pool(&dir.0, EngineConfig::default(), faults.handle()).expect("open");
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("inits precede the armed sync");
    }
    let inits = pool_bytes(&pool);
    let sched = SessionScheduler::durable(pool);
    let mut rng = StdRng::seed_from_u64(21);
    let mut commit = |attr: u32, op: ComparisonOp, bound: u64| {
        sched
            .select_where(&oracle, &[Predicate::cmp(attr, op, bound)], None, &mut rng)
            .map(drop)
    };

    // The first refinement replies before its fsync; the barrier that
    // syncs it trips the armed failure.
    commit(0, ComparisonOp::Lt, 500).expect("deferred");
    let refined = sched.inspect(kb_bytes);
    let failed = sched.flush_durable();
    assert!(is_sync_failed(&failed), "got {:?}", failed.err());
    // Retry (the rule is spent, the disk "works"): the poison class is
    // remembered as SyncFailed — never a durable ack — on every attribute.
    for a in 0..ATTRS {
        let refused = commit(a, ComparisonOp::Gt, 100);
        assert!(
            is_sync_failed(&refused),
            "attr {a}: got {:?}",
            refused.err()
        );
    }
    assert!(is_sync_failed(&sched.delete(0, None)), "whole-table");
    assert!(
        is_sync_failed(&sched.flush_durable()),
        "the shutdown barrier"
    );
    drop(sched);

    // The refused commits left no trace; the failed flush's record may or
    // may not have reached the file.
    let pool = reopen_pool(&dir.0, EngineConfig::default()).expect("reopen");
    let recovered = pool_bytes(&pool); // checks every knowledge base's invariants
    assert!(
        recovered == inits || recovered == refined,
        "a commit-order prefix holding every acknowledged init"
    );
}
