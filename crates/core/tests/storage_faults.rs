//! Storage-fault semantics and KB integrity scrubbing (DESIGN.md §15).
//!
//! Pinned guarantees:
//!
//! 1. **No lost durable ack** — for every seeded I/O fault (EIO / ENOSPC /
//!    short write on any storage operation), the durability layer yields
//!    either a clean error with the committed prefix recoverable, or a
//!    poisoned handle — never a wrong answer, a lost acknowledged record,
//!    or a panic.
//! 2. **fsync-failure poison** — a failed durability barrier permanently
//!    poisons the WAL/shard: no retry-and-assume-durable, every later
//!    commit attempt surfaces `SyncFailed`, and only a reopen resumes.
//! 3. **ENOSPC-safe rotation** — a full disk mid-checkpoint aborts the
//!    rotation with the previous segment set + manifest + WAL intact;
//!    reopen recovers the exact committed prefix and leaves no stray
//!    `*.tmp`. A failed sync of the pool manifest is `SyncFailed` too.
//! 4. **Scrub verdicts** — the scrubber classifies deliberate rot
//!    (torn tail / mid-log / v1 checkpoint rot / manifest mismatch) exactly,
//!    quarantines rather than deletes, and over every `CrashInjector`
//!    survivor state reports only crash residue, never corruption.
//! 5. **Blast radius** — a poisoned shard rejects new commits with
//!    `SyncFailed` while sibling shards keep serving and committing.

use prkb_core::durability::{DurableEngine, DurableError};
use prkb_core::scrub::{scrub_engine_dir, scrub_pool_dir, ScrubDamage, QUARANTINE_DIR};
use prkb_core::snapshot::{self, WireCodec};
use prkb_core::storage::{real_fs, FaultFs, IoFaultKind, IoFaultRule, IoOp, StorageFs};
use prkb_core::{EngineConfig, PrkbEngine, ShardMap, ShardedDurablePool, SpPredicate};
use prkb_edbms::durability::{CrashInjector, CrashPoint, DurabilityError, WAL_HEADER_LEN};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "prkb-storage-faults-{}-{}-{tag}",
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

const ATTRS: u32 = 3;
const N: usize = 140;

fn oracle() -> PlainOracle {
    let mut rng = StdRng::seed_from_u64(0xFA_11);
    PlainOracle::from_columns(
        (0..ATTRS)
            .map(|_| (0..N).map(|_| rng.gen_range(0..1_000u64)).collect())
            .collect(),
    )
}

fn kb_bytes<P: SpPredicate + WireCodec>(engine: &PrkbEngine<P>) -> Vec<Vec<u8>> {
    let mut attrs: Vec<_> = engine.attrs().collect();
    attrs.sort_unstable();
    attrs
        .iter()
        .map(|&a| snapshot::save(engine.knowledge(a).expect("attr indexed")))
        .collect()
}

/// Rotates every `records` WAL records; every rotation retires what it
/// supersedes, so unlinks are on the faulted path too.
fn rotate_every(records: u64) -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: records,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    }
}

/// How many shards the sweeps use; CI fans `PRKB_SHARDS` over 1 and 8.
fn shards_from_env() -> usize {
    std::env::var("PRKB_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(2)
}

/// Outcome of a fault-armed engine run. `None` when the fault killed the
/// open itself (a clean error — nothing was acknowledged).
struct EngineRun {
    /// State at the last acknowledged (durable) commit.
    acked: Vec<Vec<u8>>,
    /// In-memory state when the run stopped (ahead of `acked` only when
    /// the fault hit after the in-memory commit).
    live: Vec<Vec<u8>>,
    /// Whether an operation failed (the run stopped early).
    failed: bool,
}

/// Drives a deterministic select/BETWEEN/delete workload against a durable
/// engine opened over `fs`, stopping cleanly at the first storage error.
fn drive_engine(dir: &Path, fs: Arc<dyn StorageFs>, config: EngineConfig) -> Option<EngineRun> {
    let oracle = oracle();
    let (mut durable, _) = match DurableEngine::<Predicate>::open_with_storage(
        dir,
        config,
        CrashInjector::disabled(),
        fs,
    ) {
        Ok(v) => v,
        Err(_) => return None,
    };
    let mut acked = kb_bytes(durable.engine());
    let run = |durable: &DurableEngine<Predicate>, acked: Vec<Vec<u8>>, failed| EngineRun {
        live: kb_bytes(durable.engine()),
        acked,
        failed,
    };
    for attr in 0..ATTRS {
        if durable.init_attr(attr, N).is_err() {
            return Some(run(&durable, acked, true));
        }
        acked = kb_bytes(durable.engine());
    }
    for round in 0..20u64 {
        let attr = (round % u64::from(ATTRS)) as u32;
        let mut rng = StdRng::seed_from_u64(round.wrapping_mul(0x9E37_79B9) + 7);
        let lo = (round * 41) % 700;
        let pred = if round % 3 == 0 {
            Predicate::between(attr, lo, lo + 150)
        } else {
            Predicate::cmp(attr, ComparisonOp::Lt, lo + 150)
        };
        let res = if round % 7 == 6 {
            durable.delete((round % 60) as u32).map(|_| ())
        } else {
            durable.try_select(&oracle, &pred, &mut rng).map(|_| ())
        };
        if res.is_err() {
            return Some(run(&durable, acked, true));
        }
        acked = kb_bytes(durable.engine());
    }
    Some(run(&durable, acked, false))
}

/// Reopens over the real filesystem; recovery must validate.
fn recover_engine(dir: &Path, config: EngineConfig) -> Vec<Vec<u8>> {
    let (engine, _) = DurableEngine::<Predicate>::open_with_storage(
        dir,
        config,
        CrashInjector::disabled(),
        real_fs(),
    )
    .expect("recovery over the real fs must open after an injected fault");
    for attr in engine.engine().attrs().collect::<Vec<_>>() {
        engine
            .engine()
            .knowledge(attr)
            .expect("attr indexed")
            .check_invariants();
    }
    kb_bytes(engine.engine())
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

// ---------------------------------------------------------------------------
// 1. Seeded fault sweep: engine path
// ---------------------------------------------------------------------------

#[test]
fn seeded_fault_sweep_engine_never_loses_a_durable_ack() {
    for seed in 1..=16u64 {
        let dir = TmpDir::new("sweep-engine");
        let faults = FaultFs::seeded(real_fs(), seed);
        let config = rotate_every(4);
        let run = drive_engine(&dir.0, faults.handle(), config);
        let recovered = recover_engine(&dir.0, config);
        match run {
            None => {
                // The fault killed the open; nothing was ever acknowledged,
                // so an empty recovery is the only acceptable state.
                assert!(
                    faults.injected() >= 1,
                    "seed {seed}: open failed without an injected fault"
                );
            }
            Some(run) if run.failed => {
                assert!(
                    recovered == run.acked || recovered == run.live,
                    "seed {seed}: recovered state is neither the acknowledged \
                     prefix nor the in-flight state"
                );
            }
            Some(run) => {
                assert_eq!(
                    recovered, run.live,
                    "seed {seed}: clean run must recover its final state"
                );
            }
        }
        no_stray_tmp(&dir.0);
    }
}

// ---------------------------------------------------------------------------
// 2. Seeded fault sweep: sharded group-commit path
// ---------------------------------------------------------------------------

struct PoolRun {
    acked: Vec<Vec<Vec<u8>>>,
    live: Vec<Vec<Vec<u8>>>,
    failed: bool,
}

fn commit_shard(
    committer: &prkb_core::ShardCommitter<Predicate>,
    engine: &mut PrkbEngine<Predicate>,
) -> Result<(), DurableError> {
    let ticket = committer.enqueue_journal(engine.take_ops());
    committer.wait_durable(ticket).map(|_| ())
}

fn drive_pool(dir: &Path, fs: Arc<dyn StorageFs>, shards: usize) -> Option<PoolRun> {
    let oracle = oracle();
    let config = rotate_every(4);
    let mut pool = match ShardedDurablePool::<Predicate>::open_with_storage(
        dir,
        config,
        ShardMap::new(shards),
        CrashInjector::disabled(),
        fs,
    ) {
        Ok(p) => p,
        Err(_) => return None,
    };
    let map = pool.map();
    let mut acked: Vec<Vec<Vec<u8>>> = (0..map.shards())
        .map(|s| kb_bytes(pool.shard_engine(s)))
        .collect();
    for a in 0..ATTRS {
        let sid = map.shard_of(a);
        if pool.init_attr(a, N).is_err() {
            let (_, parts) = pool.into_parts();
            return Some(PoolRun {
                live: parts.iter().map(|(e, _)| kb_bytes(e)).collect(),
                acked,
                failed: true,
            });
        }
        acked[sid] = kb_bytes(pool.shard_engine(sid));
    }
    let (_, mut parts) = pool.into_parts();
    let finish = |parts: &[(PrkbEngine<Predicate>, prkb_core::ShardCommitter<Predicate>)],
                  acked: Vec<Vec<Vec<u8>>>,
                  failed: bool| PoolRun {
        live: parts.iter().map(|(e, _)| kb_bytes(e)).collect(),
        acked,
        failed,
    };
    for round in 0..16u64 {
        let attr = (round % u64::from(ATTRS)) as u32;
        let sid = map.shard_of(attr);
        let mut rng = StdRng::seed_from_u64(round.wrapping_mul(0xA5A5) + 3);
        let lo = (round * 53) % 650;
        let (engine, committer) = &mut parts[sid];
        engine
            .try_select(
                &oracle,
                &Predicate::cmp(attr, ComparisonOp::Lt, lo + 120),
                &mut rng,
            )
            .expect("plain selects cannot hit storage");
        if commit_shard(committer, engine).is_err() {
            return Some(finish(&parts, acked, true));
        }
        acked[sid] = kb_bytes(engine);
        if committer.wants_checkpoint(&config) && committer.checkpoint(engine).is_err() {
            return Some(finish(&parts, acked, true));
        }
    }
    Some(finish(&parts, acked, false))
}

fn recover_pool(dir: &Path, shards: usize) -> Vec<Vec<Vec<u8>>> {
    let pool = ShardedDurablePool::<Predicate>::open_with_storage(
        dir,
        rotate_every(4),
        ShardMap::new(shards),
        CrashInjector::disabled(),
        real_fs(),
    )
    .expect("recovery over the real fs must open");
    (0..pool.map().shards())
        .map(|s| {
            let engine = pool.shard_engine(s);
            for attr in engine.attrs().collect::<Vec<_>>() {
                engine
                    .knowledge(attr)
                    .expect("attr indexed")
                    .check_invariants();
            }
            kb_bytes(engine)
        })
        .collect()
}

fn assert_pool_run(run: Option<PoolRun>, recovered: &[Vec<Vec<u8>>], tag: &str) {
    let Some(run) = run else {
        // Fault at pool creation: clean error, nothing acknowledged.
        return;
    };
    assert_eq!(recovered.len(), run.live.len(), "{tag}: shard count");
    for (sid, rec) in recovered.iter().enumerate() {
        if run.failed {
            assert!(
                *rec == run.acked[sid] || *rec == run.live[sid],
                "{tag} shard {sid}: recovered state is neither the acknowledged \
                 prefix nor the in-flight state"
            );
        } else {
            assert_eq!(
                *rec, run.live[sid],
                "{tag} shard {sid}: clean run must recover final state"
            );
        }
    }
}

#[test]
fn seeded_fault_sweep_pool_never_loses_a_durable_ack() {
    let shards = shards_from_env();
    for seed in 1..=10u64 {
        let dir = TmpDir::new("sweep-pool");
        let faults = FaultFs::seeded(real_fs(), seed);
        let run = drive_pool(&dir.0, faults.handle(), shards);
        let recovered = recover_pool(&dir.0, shards);
        assert_pool_run(run, &recovered, &format!("seed {seed}"));
        no_stray_tmp(&dir.0);
    }
}

/// CI hook: `PRKB_IO_FAULT_SEED=<n>` arms the injector exactly like the
/// seeded sweep; unset, the run is clean and the recovery assertion still
/// pins replay equivalence.
#[test]
fn env_driven_storage_fault_recovers() {
    let shards = shards_from_env();
    let dir = TmpDir::new("env");
    let fs: Arc<dyn StorageFs> = match FaultFs::from_env(real_fs()) {
        Some(faults) => faults.handle(),
        None => real_fs(),
    };
    let run = drive_pool(&dir.0, fs, shards);
    let recovered = recover_pool(&dir.0, shards);
    assert_pool_run(run, &recovered, "env");
    no_stray_tmp(&dir.0);
}

// ---------------------------------------------------------------------------
// 3. fsync-failure semantics: poison, no durable ack, SyncFailed class
// ---------------------------------------------------------------------------

#[test]
fn failed_wal_sync_poisons_engine_and_every_later_commit_says_sync_failed() {
    let dir = TmpDir::new("sync-poison");
    let oracle = oracle();
    // Let engine creation and init through, then fail the WAL's data sync.
    let faults = FaultFs::scripted(
        real_fs(),
        vec![IoFaultRule {
            op: Some(IoOp::SyncData),
            path_contains: None,
            nth: u64::from(ATTRS) + 1,
            kind: IoFaultKind::Eio,
            sticky: false,
        }],
    );
    let (mut durable, _) = DurableEngine::<Predicate>::open_with_storage(
        &dir.0,
        EngineConfig::default(),
        CrashInjector::disabled(),
        faults.handle(),
    )
    .expect("open");
    for a in 0..ATTRS {
        durable
            .init_attr(a, N)
            .expect("inits precede the armed sync");
    }
    let acked = kb_bytes(durable.engine());
    let mut rng = StdRng::seed_from_u64(1);
    let err = durable
        .try_select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, 500), &mut rng)
        .expect_err("the armed sync must fail the commit");
    assert!(
        matches!(err, DurableError::Storage(DurabilityError::SyncFailed(_))),
        "failed fsync must surface as SyncFailed, got {err:?}"
    );
    assert!(durable.is_poisoned(), "failed fsync must poison the handle");
    // The non-sticky rule is spent: the disk "works" again. A poisoned
    // handle must still refuse — no retry-and-assume-durable, ever.
    let err = durable
        .try_select(&oracle, &Predicate::cmp(1, ComparisonOp::Lt, 400), &mut rng)
        .expect_err("poisoned handle must refuse new work");
    assert!(
        format!("{err}").contains("no durable ack"),
        "poison error must carry the sync-failure reason, got: {err}"
    );
    // A failed fsync means durability is *unknown*: the record was written
    // but never acknowledged, so recovery may land on either side of it —
    // just never lose the acked prefix or invent a third state.
    let live = kb_bytes(durable.engine());
    drop(durable);
    let recovered = recover_engine(&dir.0, EngineConfig::default());
    assert!(
        recovered == acked || recovered == live,
        "recovery must be the acked prefix or the unacknowledged in-flight state"
    );
    assert!(faults.injected() >= 1);
}

// ---------------------------------------------------------------------------
// 4. ENOSPC-safe checkpoint rotation (fill-quota schedule)
// ---------------------------------------------------------------------------

#[test]
fn enospc_mid_rotation_keeps_old_checkpoint_and_recovers_committed_prefix() {
    let dir = TmpDir::new("enospc");
    let oracle = oracle();
    let config = EngineConfig {
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    };
    // Phase 1: a clean first checkpoint over the real fs.
    {
        let (mut durable, _) = DurableEngine::<Predicate>::open_with_storage(
            &dir.0,
            config,
            CrashInjector::disabled(),
            real_fs(),
        )
        .expect("open");
        for a in 0..ATTRS {
            durable.init_attr(a, N).expect("init");
        }
        let mut rng = StdRng::seed_from_u64(2);
        durable
            .try_select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, 300), &mut rng)
            .expect("select");
        durable.checkpoint().expect("clean rotation");
    }
    // The previous checkpoint: segment 0 behind the manifest.
    let checkpoint_files = ["segments.manifest", "segment.0.seg"];
    let old_checkpoint: Vec<Vec<u8>> = checkpoint_files
        .iter()
        .map(|f| std::fs::read(dir.0.join(f)).expect("checkpoint exists"))
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
    let (mut durable, _) = DurableEngine::<Predicate>::open_with_storage(
        &dir.0,
        config,
        CrashInjector::disabled(),
        faults.handle(),
    )
    .expect("reopen");
    let mut rng = StdRng::seed_from_u64(3);
    durable
        .try_select(&oracle, &Predicate::cmp(1, ComparisonOp::Lt, 600), &mut rng)
        .expect("commit before the armed rotation");
    let acked = kb_bytes(durable.engine());
    let err = durable.checkpoint().expect_err("rotation must abort");
    assert!(
        matches!(err, DurableError::Storage(DurabilityError::SyncFailed(_))),
        "ENOSPC at the checkpoint barrier is a sync failure, got {err:?}"
    );
    assert!(durable.is_poisoned());
    drop(durable);

    // The previous checkpoint + WAL must be byte-identical and still live…
    for (f, old) in checkpoint_files.iter().zip(&old_checkpoint) {
        assert_eq!(
            &std::fs::read(dir.0.join(f)).expect("still there"),
            old,
            "aborted rotation must leave {f} untouched"
        );
    }
    assert!(
        !dir.0.join("segment.1.seg").exists(),
        "the aborted segment must never be published"
    );
    // …recovery must be exactly the committed prefix…
    let recovered = recover_engine(&dir.0, config);
    assert_eq!(recovered, acked, "committed prefix lost to ENOSPC");
    // …and the reopen must have cleaned the stray temp file.
    no_stray_tmp(&dir.0);
}

/// The pool manifest is published like every other durable file: a failed
/// barrier is `SyncFailed` (the disk lied), not a plain I/O error.
#[test]
fn failed_pool_manifest_sync_is_sync_failed() {
    for (op, path) in [
        (IoOp::SyncAll, Some("manifest.bin.tmp".to_string())),
        (IoOp::SyncDir, None),
    ] {
        let dir = TmpDir::new("manifest-sync");
        let faults = FaultFs::scripted(
            real_fs(),
            vec![IoFaultRule {
                op: Some(op),
                path_contains: path,
                nth: 1,
                kind: IoFaultKind::Eio,
                sticky: false,
            }],
        );
        let err = ShardedDurablePool::<Predicate>::open_with_storage(
            &dir.0,
            EngineConfig::default(),
            ShardMap::new(2),
            CrashInjector::disabled(),
            faults.handle(),
        )
        .expect_err("the armed manifest barrier must fail pool creation");
        assert!(
            matches!(err, DurableError::Storage(DurabilityError::SyncFailed(_))),
            "{op:?}: got {err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// 5. Scrub verdicts over deliberately rotted artifacts
// ---------------------------------------------------------------------------

/// Builds a real engine directory with a non-trivial checkpoint (one
/// segment behind the manifest) and a WAL holding several frames, returning
/// its committed byte state.
fn build_engine_dir(dir: &Path) -> Vec<Vec<u8>> {
    let oracle = oracle();
    let config = EngineConfig {
        checkpoint_wal_records: 0,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    };
    let (mut durable, _) = DurableEngine::<Predicate>::open(dir, config).expect("open");
    for a in 0..ATTRS {
        durable.init_attr(a, N).expect("init");
    }
    let mut rng = StdRng::seed_from_u64(5);
    durable
        .try_select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, 400), &mut rng)
        .expect("select");
    durable.checkpoint().expect("rotate");
    for bound in [200u64, 500, 800] {
        durable
            .try_select(
                &oracle,
                &Predicate::cmp(1, ComparisonOp::Lt, bound),
                &mut rng,
            )
            .expect("select");
    }
    kb_bytes(durable.engine())
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
    build_engine_dir(&dir.0);
    let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir.0, false);
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
    let committed = build_engine_dir(&dir.0);
    let wal = wal_path(&dir.0);
    // Append a partial frame: the torn-write shape a crash leaves behind.
    let mut bytes = std::fs::read(&wal).expect("read wal");
    bytes.extend_from_slice(&[0xAB; 7]);
    std::fs::write(&wal, &bytes).expect("tear");

    let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir.0, true);
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
    build_engine_dir(&dir.0);
    let wal = wal_path(&dir.0);
    let mut bytes = std::fs::read(&wal).expect("read wal");
    // Flip one payload byte inside the *first* frame: valid frames follow,
    // so this is damage inside the committed prefix.
    let idx = WAL_HEADER_LEN as usize + 8 + 2;
    bytes[idx] ^= 0x01;
    std::fs::write(&wal, &bytes).expect("rot");

    // Recovery must refuse the damaged log outright.
    DurableEngine::<Predicate>::open(&dir.0, EngineConfig::default())
        .expect_err("mid-log corruption must refuse to open");

    let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir.0, true);
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
    DurableEngine::<Predicate>::open(&dir.0, EngineConfig::default())
        .expect("quarantine unblocks reopen");
}

/// A v1 `checkpoint.bin` is never written any more, but a directory that
/// still holds one (not yet migrated, or stray) is classified all the same.
#[test]
fn scrub_classifies_v1_checkpoint_rot() {
    let dir = TmpDir::new("scrub-ckpt");
    // One shard of the parent-written default-config pool.
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_pool_v1/shard.0");
    for file in ["checkpoint.bin", "wal.1.log"] {
        std::fs::copy(fixture.join(file), dir.0.join(file)).expect("copy fixture");
    }
    let clean = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir.0, false);
    assert!(clean.is_clean(), "{}", clean.to_json());

    let ckpt = dir.0.join("checkpoint.bin");
    let mut bytes = std::fs::read(&ckpt).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&ckpt, &bytes).expect("rot");

    let err = DurableEngine::<Predicate>::open(&dir.0, EngineConfig::default())
        .expect_err("rotted checkpoint must refuse to migrate");
    assert!(
        matches!(err, DurableError::CorruptCheckpoint(_)),
        "got {err:?}"
    );

    let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir.0, true);
    let f = report
        .findings
        .iter()
        .find(|f| f.path == ckpt)
        .expect("checkpoint finding");
    assert_eq!(f.damage, ScrubDamage::CheckpointRot);
    assert!(f.quarantined_to.is_some());
    assert!(report.has_corruption());

    DurableEngine::<Predicate>::open(&dir.0, EngineConfig::default())
        .expect("quarantine unblocks reopen");
}

#[test]
fn scrub_classifies_manifest_rot_on_pools() {
    let dir = TmpDir::new("scrub-manifest");
    {
        let mut pool = ShardedDurablePool::<Predicate>::open(
            &dir.0,
            EngineConfig::default(),
            ShardMap::new(2),
        )
        .expect("create");
        for a in 0..ATTRS {
            pool.init_attr(a, N).expect("init");
        }
    }
    let clean = scrub_pool_dir::<Predicate>(real_fs().as_ref(), &dir.0, false);
    assert!(clean.is_clean(), "{}", clean.to_json());

    let manifest = dir.0.join("manifest.bin");
    let mut bytes = std::fs::read(&manifest).expect("read");
    bytes[6] ^= 0xFF;
    std::fs::write(&manifest, &bytes).expect("rot");

    let report = scrub_pool_dir::<Predicate>(real_fs().as_ref(), &dir.0, true);
    let f = report
        .findings
        .iter()
        .find(|f| f.path == manifest)
        .expect("manifest finding");
    assert_eq!(f.damage, ScrubDamage::ManifestMismatch);
    assert!(f.quarantined_to.is_some());

    // With the rotted manifest quarantined the pool re-creates one; the
    // shard count is the caller's requested count again.
    let pool =
        ShardedDurablePool::<Predicate>::open(&dir.0, EngineConfig::default(), ShardMap::new(2))
            .expect("reopen after quarantine");
    assert_eq!(pool.map().shards(), 2);
}

#[test]
fn pool_scrub_via_handle_walks_every_shard() {
    let dir = TmpDir::new("scrub-pool-handle");
    let mut pool =
        ShardedDurablePool::<Predicate>::open(&dir.0, EngineConfig::default(), ShardMap::new(4))
            .expect("create");
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("init");
    }
    let report = pool.scrub(false);
    assert!(report.is_clean(), "{}", report.to_json());
    // Manifest + one WAL per shard that owns at least one attribute... at
    // minimum every shard directory contributes its WAL.
    assert!(
        report.files_scanned >= 5,
        "manifest + 4 shard WALs, got {}",
        report.files_scanned
    );
}

// ---------------------------------------------------------------------------
// 6. Scrub over every CrashInjector survivor state
// ---------------------------------------------------------------------------

/// Whatever state a crash leaves behind is, by the §10 recovery contract,
/// openable — so the scrubber must classify it as crash residue (clean,
/// torn tail, a stray temp, or a published segment the manifest swap never
/// reached), never as corruption.
#[test]
fn scrub_classifies_every_crash_survivor_as_residue_not_corruption() {
    let oracle = oracle();
    for point in CrashPoint::ALL {
        for nth in [1u64, 3] {
            let dir = TmpDir::new("crash-survivor");
            let config = rotate_every(3);
            let (mut durable, _) = DurableEngine::<Predicate>::open_with_crash(
                &dir.0,
                config,
                CrashInjector::at_nth(point, nth),
            )
            .expect("fresh dir opens");
            let mut rng = StdRng::seed_from_u64(11);
            'run: {
                for a in 0..ATTRS {
                    if durable.init_attr(a, N).is_err() {
                        break 'run;
                    }
                }
                for round in 0..14u64 {
                    let attr = (round % u64::from(ATTRS)) as u32;
                    let bound = (round * 67) % 900;
                    if durable
                        .try_select(
                            &oracle,
                            &Predicate::cmp(attr, ComparisonOp::Lt, bound),
                            &mut rng,
                        )
                        .is_err()
                    {
                        break 'run;
                    }
                }
            }
            drop(durable);
            let report = scrub_engine_dir::<Predicate>(real_fs().as_ref(), &dir.0, false);
            for f in &report.findings {
                assert!(
                    matches!(
                        f.damage,
                        ScrubDamage::Clean
                            | ScrubDamage::TornTail
                            | ScrubDamage::StrayTemp
                            | ScrubDamage::StraySegment
                    ),
                    "{point}:{nth}: crash residue misclassified as {} at {} ({})",
                    f.damage.name(),
                    f.path.display(),
                    f.detail
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 7. Poisoned shard isolation
// ---------------------------------------------------------------------------

#[test]
fn poisoned_shard_rejects_with_sync_failed_while_siblings_serve() {
    let dir = TmpDir::new("shard-isolation");
    let oracle = oracle();
    let shards = 4usize;
    let map = ShardMap::new(shards);
    // The shard map is a pure function, so the init flush count per shard
    // is known before the pool exists: one awaited flush per owned attr.
    let poisoned_sid = map.shard_of(0);
    let inits_on_poisoned = (0..ATTRS)
        .filter(|&a| map.shard_of(a) == poisoned_sid)
        .count() as u64;
    let faults = FaultFs::scripted(
        real_fs(),
        vec![IoFaultRule {
            op: Some(IoOp::SyncData),
            path_contains: Some(format!("shard.{poisoned_sid}/")),
            nth: inits_on_poisoned + 1,
            kind: IoFaultKind::Eio,
            sticky: false,
        }],
    );
    let mut pool = ShardedDurablePool::<Predicate>::open_with_storage(
        &dir.0,
        EngineConfig::default(),
        map,
        CrashInjector::disabled(),
        faults.handle(),
    )
    .expect("open");
    for a in 0..ATTRS {
        pool.init_attr(a, N).expect("inits precede the armed sync");
    }
    let (map, mut parts) = pool.into_parts();
    let mut rng = StdRng::seed_from_u64(21);

    // First commit on the doomed shard trips the armed fsync.
    let (engine, committer) = &mut parts[poisoned_sid];
    engine
        .try_select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, 500), &mut rng)
        .expect("select");
    let err = commit_shard(committer, engine).expect_err("armed fsync fails the commit");
    assert!(
        matches!(err, DurableError::Storage(DurabilityError::SyncFailed(_))),
        "got {err:?}"
    );
    assert!(committer.is_poisoned());
    assert!(
        matches!(
            committer.poison_error(),
            Some(DurableError::Storage(DurabilityError::SyncFailed(_)))
        ),
        "poison class must be remembered as SyncFailed"
    );
    // Retry on the poisoned shard: still SyncFailed, never a durable ack.
    engine
        .try_select(&oracle, &Predicate::cmp(0, ComparisonOp::Gt, 100), &mut rng)
        .expect("in-memory select still works");
    let err = commit_shard(committer, engine).expect_err("poisoned shard refuses");
    assert!(
        matches!(err, DurableError::Storage(DurabilityError::SyncFailed(_))),
        "got {err:?}"
    );

    // Every *other* shard keeps committing durably.
    for a in 1..ATTRS {
        let sid = map.shard_of(a);
        if sid == poisoned_sid {
            continue;
        }
        let (engine, committer) = &mut parts[sid];
        engine
            .try_select(&oracle, &Predicate::cmp(a, ComparisonOp::Lt, 700), &mut rng)
            .expect("select");
        commit_shard(committer, engine).expect("healthy shards keep serving");
        assert!(!committer.is_poisoned());
    }

    // Reopen over the real fs: the poisoned shard recovers its committed
    // prefix; healthy shards recover everything they acknowledged.
    drop(parts);
    let pool = ShardedDurablePool::<Predicate>::open_with_storage(
        &dir.0,
        EngineConfig::default(),
        ShardMap::new(shards),
        CrashInjector::disabled(),
        real_fs(),
    )
    .expect("reopen");
    for sid in 0..shards {
        for attr in pool.shard_engine(sid).attrs().collect::<Vec<_>>() {
            pool.shard_engine(sid)
                .knowledge(attr)
                .expect("attr indexed")
                .check_invariants();
        }
    }
}
