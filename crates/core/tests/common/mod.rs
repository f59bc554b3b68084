//! What the durability suites share: scratch directories, byte images of
//! an engine, seeded datasets, rotation configs, the one way a test
//! opens a durable engine — a pool behind its [`SessionScheduler`], the
//! driver production runs — and the op logs the crash sweeps cut.
//! `prkb-server`'s suites include this file too.

// Every test binary compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use prkb_core::snapshot::{self, WireCodec};
use prkb_core::{
    DurableError, EngineConfig, PrkbEngine, SessionScheduler, ShardedDurablePool, SpPredicate,
};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, ComparisonOp, Predicate, StorageFs};
use prkb_sim::{FaultFs, IoOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory (unique per test invocation, removed by the
/// guard on drop so repeated `cargo test` runs don't accrete state).
pub struct TmpDir(pub PathBuf);

impl TmpDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "prkb-test-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TmpDir(dir)
    }

    /// The engine directory of shard `sid` of a previous-layout pool
    /// rooted here — where that layout kept the shard's manifest, segments
    /// and WAL.
    pub fn shard(&self, sid: usize) -> PathBuf {
        self.0.join(format!("shard.{sid}"))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A committed fixture under `tests/fixtures/`: bytes an earlier commit
/// wrote, which nothing regenerates.
pub fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Copies a pool directory tree — a fixture into a scratch directory, or a
/// live pool as a crash would leave it. The `attr.<a>.snap` images that sit
/// beside the parent-written fixtures are not pool files and stay behind.
pub fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create dir");
    for entry in std::fs::read_dir(from).expect("list dir") {
        let path = entry.expect("entry").path();
        let dest = to.join(path.file_name().expect("named entry"));
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else if path.extension().and_then(|e| e.to_str()) != Some("snap") {
            std::fs::copy(&path, &dest).expect("copy file");
        }
    }
}

/// `snapshot::save` of every attribute, in attribute order: the byte state
/// two engines must share to count as equal.
pub fn kb_bytes<P: SpPredicate + WireCodec>(engine: &PrkbEngine<P>) -> Vec<Vec<u8>> {
    let mut attrs: Vec<_> = engine.attrs().collect();
    attrs.sort_unstable();
    attrs
        .iter()
        .map(|&a| snapshot::save(engine.knowledge(a).expect("attr indexed")))
        .collect()
}

/// The byte state of a whole pool: its [`kb_bytes`].
pub type PoolBytes = Vec<Vec<u8>>;

/// `cols` seeded columns of `n + extra` values in `0..1000` (`extra` rows
/// are there to be inserted later).
pub fn columns(cols: usize, n: usize, extra: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..cols)
        .map(|_| (0..n + extra).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect()
}

/// Two columns that are permutations of `0..rows` (strides 37 and 101):
/// the fixed table the wire-level suites serve.
pub fn strided_columns(rows: usize) -> Vec<Vec<u64>> {
    let rows = rows as u64;
    [37, 101]
        .iter()
        .map(|stride| (0..rows).map(|i| (i * stride) % rows).collect())
        .collect()
}

/// A plaintext oracle over [`columns`]`(cols, n, 0, seed)`.
pub fn oracle(cols: usize, n: usize, seed: u64) -> PlainOracle {
    PlainOracle::from_columns(columns(cols, n, 0, seed))
}

/// Rotates every `records` WAL records — every rotation writes a segment,
/// swaps the manifest and retires the old WAL. `0`: explicit checkpoints
/// only.
pub fn rotate_every(records: u64) -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: records,
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    }
}

pub type Pool = ShardedDurablePool<Predicate>;
pub type Sched = SessionScheduler<Predicate>;

pub fn open_pool(
    dir: &Path,
    config: EngineConfig,
    fs: Arc<dyn StorageFs>,
) -> Result<Pool, DurableError> {
    ShardedDurablePool::open_on(dir, config, fs)
}

/// [`open_pool`] the way recovery does: the real filesystem, no faults.
pub fn reopen_pool(dir: &Path, config: EngineConfig) -> Result<Pool, DurableError> {
    open_pool(dir, config, real_fs())
}

/// A single-owner durable engine: the scheduler over the pool rooted at
/// `dir`.
pub fn open_single(
    dir: &Path,
    config: EngineConfig,
    fs: Arc<dyn StorageFs>,
) -> Result<Sched, DurableError> {
    open_pool(dir, config, fs).map(SessionScheduler::durable)
}

/// [`open_single`] on a fresh directory, with attributes `0..attrs` of `n`
/// tuples durably initialized first (the attribute set is fixed once the
/// scheduler is built).
pub fn create_single(
    dir: &Path,
    config: EngineConfig,
    fs: Arc<dyn StorageFs>,
    attrs: u32,
    n: usize,
) -> Result<Sched, DurableError> {
    let mut pool = open_pool(dir, config, fs)?;
    for attr in 0..attrs {
        pool.init_attr(attr, n)?;
    }
    Ok(SessionScheduler::durable(pool))
}

/// One committed `attr < bound` selection through the scheduler.
pub fn select_lt(sched: &Sched, oracle: &PlainOracle, attr: u32, bound: u64, rng: &mut StdRng) {
    let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound);
    sched
        .select_where(oracle, &[pred], None, rng)
        .expect("select");
}

/// The byte state of a reopened pool, every knowledge base checked against
/// its invariants on the way.
pub fn pool_bytes(pool: &Pool) -> PoolBytes {
    let engine = pool.engine();
    for attr in engine.attrs() {
        engine
            .knowledge(attr)
            .expect("attr indexed")
            .check_invariants();
    }
    kb_bytes(engine)
}

/// What an acknowledged operation was, as far as recovery is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    /// An insert or a delete: its ack waited for the fsync, which carried
    /// every earlier record of the pool with it.
    Fact,
    /// A select: its refinements were journaled, not yet synced.
    Derived,
}

/// The byte states of a crash- or fault-armed run.
pub struct Run {
    /// The pool's state after every acknowledged operation, in commit
    /// order; `history[0]` is the pool as opened.
    pub history: Vec<PoolBytes>,
    /// Index into `history` of the last acknowledged fact (init, insert,
    /// delete): the least a crash may recover.
    pub fact: usize,
    /// The in-memory state when the run stopped (ahead of `history`'s last
    /// entry only where the failure hit after the in-memory commit).
    pub live: PoolBytes,
    /// Whether an operation, or the closing flush, failed: the run ended
    /// in a crash rather than a clean shutdown.
    pub failed: bool,
}

/// Drives an armed pool the way a deployment does: attributes `0..attrs`
/// initialized on the pool, then `ops` through its scheduler, then — if
/// everything was acknowledged — the clean-shutdown barrier
/// (`flush_durable`, itself part of the armed run). `ops` calls its second
/// argument after every operation that was acknowledged and returns at the
/// first error. Dropping the scheduler afterwards is the crash (or, after
/// a successful flush, the exit).
pub fn drive(
    mut pool: Pool,
    attrs: u32,
    n: usize,
    ops: impl FnOnce(&Sched, &mut dyn FnMut(Ack)) -> Result<(), DurableError>,
) -> Run {
    let mut history = vec![pool_bytes(&pool)];
    for attr in 0..attrs {
        if pool.init_attr(attr, n).is_err() {
            return Run {
                fact: history.len() - 1,
                history,
                live: pool_bytes(&pool),
                failed: true,
            };
        }
        history.push(pool_bytes(&pool));
    }
    let mut fact = history.len() - 1;
    let sched = SessionScheduler::durable(pool);
    let mut ack = |kind| {
        history.push(sched.inspect(kb_bytes));
        if kind == Ack::Fact {
            fact = history.len() - 1;
        }
    };
    let failed = ops(&sched, &mut ack).is_err() || sched.flush_durable().is_err();
    Run {
        live: sched.inspect(kb_bytes),
        history,
        fact,
        failed,
    }
}

/// The recovery contract, for the pool as a whole: a clean shutdown
/// recovers the final state; a crash recovers one prefix of the pool's
/// commit order that contains every acknowledged fact — some `history[j]`,
/// `j ≥ fact`, on every attribute at once, or the in-flight state — never
/// less, never a state off the history, and never one attribute ahead of
/// another.
pub fn assert_recovered(run: &Run, recovered: &PoolBytes, tag: &str) {
    if run.failed {
        let on_history = run.history[run.fact..].iter().any(|h| h == recovered);
        assert!(
            on_history || *recovered == run.live,
            "{tag}: the recovered pool is not one commit-order prefix holding every \
             acknowledged fact (nor the in-flight state)"
        );
    } else {
        assert_eq!(
            *recovered, run.live,
            "{tag}: clean shutdown must recover final state"
        );
    }
}

/// The run of a pool whose open itself crashed: nothing was acknowledged,
/// so the least recovery may find is the empty pool.
pub fn crashed_open() -> Run {
    Run {
        history: vec![Vec::new()],
        fact: 0,
        live: Vec::new(),
        failed: true,
    }
}

// ---------------------------------------------------------------------------
// Op logs: the index space of the crash sweeps
// ---------------------------------------------------------------------------

/// One storage op of a run: its class, and its path relative to the run's
/// directory (empty for the directory itself).
pub type Op = (IoOp, PathBuf);

/// Runs `script` twice, each time on a fresh directory over a logging
/// [`FaultFs`], and returns the op sequence it made. Asserts both runs made
/// the same one: a cut at op `n` names the same op in every run of the
/// script, or an index sweep means nothing.
pub fn clean_ops(tag: &str, script: impl Fn(&Path, &FaultFs)) -> Vec<Op> {
    let run = || {
        let dir = TmpDir::new(tag);
        let fs = FaultFs::scripted(real_fs(), Vec::new());
        script(&dir.0, &fs);
        fs.log()
            .into_iter()
            .map(|(op, path)| {
                let rel = path.strip_prefix(&dir.0).map(Path::to_path_buf);
                (op, rel.unwrap_or(path))
            })
            .collect::<Vec<Op>>()
    };
    let first = run();
    assert_eq!(
        first,
        run(),
        "{tag}: two clean runs made different op sequences"
    );
    first
}

/// What a failing case prints: `cut 57: Rename shard.0/segment.3.seg.tmp`.
pub fn cut_name(ops: &[Op], cut: usize) -> String {
    let (op, path) = &ops[cut];
    format!("cut {cut}: {op:?} {}", path.display())
}

/// The kind of file an op touches, by its name: `wal`, `segment`,
/// `manifest` (the pool's or a shard's segment manifest), `tmp` (a publish
/// in flight), or `dir` (a directory: create or fsync).
pub fn file_kind(path: &Path) -> &'static str {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.ends_with(".tmp") {
        "tmp"
    } else if name.starts_with("wal.") {
        "wal"
    } else if name.starts_with("segment.") {
        "segment"
    } else if name.contains("manifest") {
        "manifest"
    } else {
        "dir"
    }
}

/// Whether op `cut` is a write into a WAL — a cut there tears the frame.
pub fn is_wal_write(ops: &[Op], cut: usize) -> bool {
    ops[cut].0 == IoOp::Write && file_kind(&ops[cut].1) == "wal"
}

/// The cuts of a sweep too long to cut at every index: ops grouped by
/// (class, file kind), and in each group the `nths` (1-based) occurrences
/// that exist, as ascending op indices.
pub fn grouped_cuts(ops: &[Op], nths: &[usize]) -> Vec<usize> {
    let key = |i: usize| (ops[i].0, file_kind(&ops[i].1));
    (0..ops.len())
        .filter(|&i| nths.contains(&(0..=i).filter(|&j| key(j) == key(i)).count()))
        .collect()
}
