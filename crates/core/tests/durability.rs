//! Durability properties of the PRKB (DESIGN.md §8), driven the way a
//! server drives them: a pool behind its `SessionScheduler`.
//!
//! Pinned guarantees:
//!
//! 1. **Replay equivalence** — for a crash at every storage op of the run
//!    (a cut in the filesystem's op stream: the op tears or fails, and so
//!    does every op after it), reopening the
//!    directory recovers an engine that passes `validate()` and is
//!    byte-identical to a reference engine rebuilt from a prefix of the
//!    commit order, and that prefix contains every acknowledged insert,
//!    delete and init: refinements are a cache and a crash may lose a
//!    bounded tail of them, facts are never lost. A clean shutdown
//!    (`flush_durable`) recovers the whole order.
//! 2. **Torn tail vs mid-log corruption** — a partial/checksum-failing
//!    *final* WAL record is silently discarded and the engine opens; a bad
//!    record with valid data after it refuses to open, as does a damaged
//!    checkpoint segment.
//! 3. **Atomic checkpoint rotation** — a crash at any op of the rotation
//!    (segment temp write, fsync, rename, manifest swap, fresh WAL, WAL
//!    retirement) still recovers exactly the live committed state, and
//!    after the reopen the directory holds exactly the segments the
//!    manifest lists.
//! 4. **Crash during recovery** — a reopen of a crashed directory cut at
//!    any of its own ops leaves a directory the next open recovers, on the
//!    same history and at or past the last acknowledged fact.

mod common;

use common::{
    clean_ops, cut_name, grouped_cuts, is_wal_write, kb_bytes, open_pool, open_single, pool_bytes,
    reopen_pool, rotate_every, Ack, Op, Sched, TmpDir,
};
use prkb_core::lsm::manifest::read_segment_manifest;
use prkb_core::lsm::segment_file_name;
use prkb_core::{DurableError, EngineConfig, MdUpdatePolicy, PrkbEngine, SessionScheduler};
use prkb_edbms::durability::{scan_records, DurabilityError, TailStatus, Wal, WAL_HEADER_LEN};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, ComparisonOp, Predicate, StorageFs};
use prkb_sim::{FaultFs, IoOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Two columns of `n + extra` values: the table every test here indexes.
fn columns(n: usize, extra: usize, seed: u64) -> Vec<Vec<u64>> {
    common::columns(2, n, extra, seed)
}

/// A fresh pool with both attributes initialized, behind the
/// scheduler.
fn create(dir: &Path, config: EngineConfig, fs: Arc<dyn StorageFs>, n: usize) -> Sched {
    common::create_single(dir, config, fs, 2, n).expect("open + init")
}

fn reopen(dir: &TmpDir, config: EngineConfig) -> Sched {
    open_single(&dir.0, config, real_fs()).expect("reopen")
}

/// Mixed workload over everything that can mutate knowledge: one trapdoor
/// (comparison or BETWEEN), a list of them (a 2-D box, a mixed
/// conjunction), inserts, deletes.
#[derive(Debug, Clone)]
enum Step {
    Cmp(Predicate),
    Where(Vec<Predicate>),
    Insert(u32),
    Delete(u32),
}

fn workload(n: usize, extra: usize, seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    let mut next_insert = n as u32;
    for round in 0..16 {
        let lo = rng.gen_range(0..800u64);
        let hi = lo + rng.gen_range(50..200u64);
        let attr = (round % 2) as u32;
        let step = match round % 7 {
            0 => Step::Cmp(Predicate::cmp(attr, ComparisonOp::Lt, hi)),
            1 => Step::Cmp(Predicate::between(attr, lo, hi)),
            2 => Step::Where(vec![
                Predicate::cmp(0, ComparisonOp::Gt, lo),
                Predicate::cmp(0, ComparisonOp::Lt, hi),
                Predicate::cmp(1, ComparisonOp::Gt, lo / 2),
                Predicate::cmp(1, ComparisonOp::Lt, hi + 100),
            ]),
            3 => Step::Cmp(Predicate::cmp(attr, ComparisonOp::Gt, lo)),
            4 => Step::Where(vec![
                Predicate::cmp(0, ComparisonOp::Gt, lo),
                Predicate::cmp(0, ComparisonOp::Lt, hi),
                Predicate::cmp(1, ComparisonOp::Gt, lo / 2),
                Predicate::cmp(1, ComparisonOp::Lt, hi + 100),
                Predicate::between(0, lo, hi),
            ]),
            5 => Step::Delete(rng.gen_range(0..n as u32 / 2)),
            _ => {
                let t = next_insert;
                next_insert += 1;
                if (t as usize) < n + extra {
                    Step::Insert(t)
                } else {
                    Step::Cmp(Predicate::cmp(attr, ComparisonOp::Ge, lo))
                }
            }
        };
        steps.push(step);
    }
    steps
}

/// Per-step RNG seed: both the reference and the durable engine derive the
/// exact same stream for step `i`, so their committed histories are
/// byte-identical by construction.
fn step_rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn no_rotation() -> EngineConfig {
    rotate_every(0)
}

/// Applies one step to a plain (reference) engine. Infallible.
fn apply_ref(
    engine: &mut PrkbEngine<Predicate>,
    oracle: &PlainOracle,
    step: &Step,
    rng: &mut StdRng,
) {
    match step {
        Step::Cmp(p) => {
            engine.select(oracle, p, rng);
        }
        Step::Where(ps) => {
            engine.select_where(oracle, ps, rng);
        }
        Step::Insert(t) => {
            engine.insert(oracle, *t);
        }
        Step::Delete(t) => {
            engine.delete(*t);
        }
    }
}

/// Applies one step through the scheduler, with the footprint a server
/// would name for it. Returns a select's answer, sorted.
fn apply_durable(
    sched: &Sched,
    oracle: &PlainOracle,
    step: &Step,
    rng: &mut StdRng,
) -> Result<Option<Vec<u32>>, DurableError> {
    let answer = |(sel, _): (prkb_core::Selection, u64)| Some(sel.sorted());
    match step {
        Step::Cmp(p) => sched
            .with_detached(&[p.attr()], |e| e.try_select(oracle, p, rng))
            .map(answer),
        Step::Where(ps) => sched.select_where(oracle, ps, None, rng).map(answer),
        Step::Insert(t) => sched.insert(oracle, *t, None).map(|_| None),
        Step::Delete(t) => sched.delete(*t, None).map(|_| None),
    }
}

impl Step {
    /// Whether the step's ack waits for its fsync (an insert or a delete).
    fn ack(&self) -> Ack {
        match self {
            Step::Insert(_) | Step::Delete(_) => Ack::Fact,
            _ => Ack::Derived,
        }
    }

    /// A select's predicates, as one conjunction (none for a fact).
    fn conjuncts(&self) -> Vec<Predicate> {
        match self {
            Step::Cmp(p) => vec![*p],
            Step::Where(ps) => ps.clone(),
            Step::Insert(_) | Step::Delete(_) => Vec::new(),
        }
    }
}

/// Outcome of driving the crash-armed workload.
struct CrashRun {
    /// `history[i]` = reference state after the first `i` committed
    /// operations (counting from wherever the caller started recording), up
    /// to and including the operation the run stopped in.
    history: Vec<Vec<Vec<u8>>>,
    /// Index into `history` of the last acknowledged fact (init, insert or
    /// delete): the least a crash may recover.
    fact: usize,
    /// In-memory state when the run stopped (always valid).
    live: Vec<Vec<u8>>,
    /// Whether the run ended in a failure (the crash) rather than a clean
    /// shutdown.
    crashed: bool,
}

impl CrashRun {
    /// The recovery contract against the reference history: a clean
    /// shutdown recovers the final state; a crash recovers `history[j]` for
    /// some `j ≥ fact` — a prefix of the commit order holding every
    /// acknowledged fact. Returns that `j` (the latest, where consecutive
    /// states are equal).
    fn assert_recovered(&self, recovered: &[Vec<u8>], tag: &str) -> usize {
        if !self.crashed {
            assert_eq!(
                recovered, self.live,
                "{tag}: clean shutdown must recover the final state"
            );
        }
        let j = self
            .history
            .iter()
            .rposition(|h| h == recovered)
            .unwrap_or_else(|| panic!("{tag}: recovered state is not on the commit-order history"));
        assert!(
            j >= self.fact,
            "{tag}: recovered history[{j}], but a fact was acknowledged at {}",
            self.fact
        );
        j
    }
}

/// Drives the workload against a pool on `fs` — inits on the
/// pool, everything after through its scheduler, a closing
/// `flush_durable` if nothing failed — and a plain reference engine in
/// lockstep, stopping at the first storage error (a failed open included).
fn drive(dir: &Path, seed: u64, config: EngineConfig, fs: Arc<dyn StorageFs>) -> CrashRun {
    let (n, extra) = (180usize, 3usize);
    let oracle = PlainOracle::from_columns(columns(n, extra, seed));
    let mut reference = PrkbEngine::new(config);
    let mut history = vec![kb_bytes(&reference)];
    for attr in 0..2u32 {
        reference.init_attr(attr, n);
        history.push(kb_bytes(&reference));
    }
    let run = match open_pool(dir, config, fs) {
        Ok(pool) => common::drive(pool, 2, n, |durable, ack| {
            for (i, step) in workload(n, extra, seed ^ 0x77).iter().enumerate() {
                apply_ref(&mut reference, &oracle, step, &mut step_rng(seed, i));
                history.push(kb_bytes(&reference));
                apply_durable(durable, &oracle, step, &mut step_rng(seed, i))?;
                ack(step.ack());
            }
            Ok(())
        }),
        Err(_) => common::crashed_open(),
    };
    CrashRun {
        history,
        fact: run.fact,
        live: run.live,
        crashed: run.failed,
    }
}

/// The op sequence of a clean [`drive`]: the index space its sweeps cut.
fn drive_ops(seed: u64, config: EngineConfig) -> Vec<Op> {
    clean_ops("drive-ops", |dir, fs| {
        assert!(
            !drive(dir, seed, config, fs.handle()).crashed,
            "the clean run fails"
        );
    })
}

/// [`drive`] on a filesystem that crashes at op `cut`.
fn drive_cut(dir: &TmpDir, seed: u64, config: EngineConfig, cut: usize) -> CrashRun {
    drive(
        &dir.0,
        seed,
        config,
        FaultFs::crash_at(real_fs(), cut).handle(),
    )
}

/// Reopens on the real filesystem and returns the recovered byte state
/// (every knowledge base checked against its invariants), the number of
/// records replayed and the tail verdict. `tag` names the crash.
fn recover(dir: &TmpDir, config: EngineConfig, tag: &str) -> (Vec<Vec<u8>>, u64, TailStatus) {
    let pool = try_open(dir, config)
        .unwrap_or_else(|e| panic!("{tag}: recovery must open after a crash: {e}"));
    let report = pool.reports()[0];
    (pool_bytes(&pool), report.records_replayed, report.tail)
}

/// A cut at a WAL write tears that frame (or the header of a fresh log):
/// the reopen must report the discarded tail.
fn assert_torn_if_wal_write(ops: &[Op], cut: usize, tail: TailStatus) {
    if is_wal_write(ops, cut) {
        assert_eq!(
            tail,
            TailStatus::TornDiscarded,
            "{}: a torn WAL write must leave a discarded tail",
            cut_name(ops, cut)
        );
    }
}

// ---------------------------------------------------------------------------
// 1. Replay equivalence across crash points
// ---------------------------------------------------------------------------

/// WAL-path sweep with rotation disabled, at the 1st, 2nd, 7th and 13th
/// WAL write (the first is the header's) and the 1st, 2nd, 4th and 6th WAL
/// fsync — each cut at the op itself and at the op after it: whichever
/// append or sync the crash lands in (a fact's own flush, a full tail's,
/// the closing drain's), the recovered state is byte-identical to the
/// reference history at some index at or past the last acknowledged fact,
/// and replay never invents a record.
#[test]
fn wal_crash_sweep_recovers_exact_committed_prefix() {
    let ops = drive_ops(42, no_rotation());
    let wal_op = |c: &usize, op| ops[*c].0 == op && common::file_kind(&ops[*c].1) == "wal";
    let writes = grouped_cuts(&ops, &[1, 2, 7, 13]);
    let syncs = grouped_cuts(&ops, &[1, 2, 4, 6]);
    let at: Vec<usize> = writes
        .iter()
        .filter(|c| wal_op(c, IoOp::Write))
        .chain(syncs.iter().filter(|c| wal_op(c, IoOp::SyncData)))
        .copied()
        .collect();
    assert_eq!(at.len(), 8, "the clean run has 13 WAL writes and 6 fsyncs");
    let last = at.iter().max().expect("eight cuts");
    assert!(
        last + 1 < ops.len(),
        "the clean run is too short for the sweep: it ends at op {}, and the sweep \
         also cuts at the op after op {last}",
        ops.len() - 1
    );
    for cut in at.iter().flat_map(|&c| [c, c + 1]) {
        let tag = cut_name(&ops, cut);
        let dir = TmpDir::new("walsweep");
        let run = drive_cut(&dir, 42, no_rotation(), cut);
        assert!(run.crashed, "{tag}: never fired");
        let (recovered, replayed, tail) = recover(&dir, no_rotation(), &tag);
        let j = run.assert_recovered(&recovered, &tag);
        // An operation journals at most one record (none when it
        // refined nothing), so the prefix is at least as long as the
        // log that produced it.
        assert!(
            replayed as usize <= j,
            "{tag}: {replayed} records replayed for a {j}-operation prefix"
        );
        assert_torn_if_wal_write(&ops, cut, tail);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized cuts with checkpoint rotation live: wherever the crash
    /// lands (past the run's last op, nowhere), the recovered engine
    /// validates and is byte-identical to a commit-order prefix holding
    /// every acknowledged fact (the in-flight operation at most on top).
    #[test]
    fn randomized_crash_recovery_equivalence(
        seed in 0u64..1_000_000,
        cut in 0usize..128,
    ) {
        let dir = TmpDir::new("prop");
        let config = rotate_every(5);
        let run = drive_cut(&dir, seed, config, cut);
        let tag = format!("cut {cut}");
        let (recovered, _, _) = recover(&dir, config, &tag);
        run.assert_recovered(&recovered, &tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lost refinements cost QPF, never answers. Crash (a bare drop, no
    /// flush) after `stop` acknowledged steps of the mixed workload: the
    /// recovered KB validates and is the uninterrupted run's state after
    /// some `j ≤ stop` steps, `j` at or past the last acknowledged insert
    /// or delete; every select of the run, re-asked against a copy of it,
    /// returns the ground-truth answer over exactly the tuples present at
    /// the crash; and replaying the lost steps `j..stop` — then the rest —
    /// with the same per-step RNG lands byte-identical to the
    /// uninterrupted run.
    #[test]
    fn lost_refinements_cost_qpf_never_answers(
        seed in 0u64..1_000_000,
        stop in 1usize..=16,
        rotate in prop_oneof![Just(0u64), Just(5)],
    ) {
        let (n, extra) = (180usize, 3usize);
        let config = rotate_every(rotate);
        let oracle = PlainOracle::from_columns(columns(n, extra, seed));
        let steps = workload(n, extra, seed ^ 0x77);
        let dir = TmpDir::new("lost");

        // `history[i]` = the uninterrupted run after `i` steps.
        let mut reference = PrkbEngine::new(config);
        reference.init_attr(0, n);
        reference.init_attr(1, n);
        let mut history = vec![kb_bytes(&reference)];
        let mut present: BTreeSet<u32> = (0..n as u32).collect();
        let mut fact = 0usize;
        let durable = create(&dir.0, config, real_fs(), n);
        for (i, step) in steps[..stop].iter().enumerate() {
            apply_ref(&mut reference, &oracle, step, &mut step_rng(seed, i));
            history.push(kb_bytes(&reference));
            apply_durable(&durable, &oracle, step, &mut step_rng(seed, i)).expect("healthy disk");
            match step {
                Step::Insert(t) => present.insert(*t),
                Step::Delete(t) => present.remove(t),
                _ => continue,
            };
            fact = i + 1;
        }
        drop(durable); // the crash

        let probe_dir = TmpDir::new("lost-probe");
        common::copy_tree(&dir.0, &probe_dir.0);

        // The recovered state is a commit-order prefix holding every fact.
        let recovered = pool_bytes(&try_open(&dir, config).expect("recovery opens"));
        let run = CrashRun { live: history[stop].clone(), history, fact, crashed: true };
        let j = run.assert_recovered(&recovered, &format!("crash after {stop} steps"));

        // Answers do not depend on how much of the cache survived.
        let probe = reopen(&probe_dir, config);
        let whole_table = (0..2).map(|attr| Step::Cmp(Predicate::cmp(attr, ComparisonOp::Ge, 0)));
        for (i, step) in steps[..stop].iter().cloned().chain(whole_table).enumerate() {
            let conjuncts = step.conjuncts();
            if conjuncts.is_empty() {
                continue;
            }
            let mut truth = oracle.expected_conjunction(&conjuncts);
            truth.retain(|t| present.contains(t));
            let answer = apply_durable(&probe, &oracle, &step, &mut step_rng(!seed, i));
            prop_assert_eq!(answer.expect("healthy disk"), Some(truth), "step {}", i);
        }

        // Re-deriving what was lost lands where the uninterrupted run is.
        let resumed = reopen(&dir, config);
        for (i, step) in steps.iter().enumerate() {
            if i >= stop {
                apply_ref(&mut reference, &oracle, step, &mut step_rng(seed, i));
            }
            if i >= j {
                apply_durable(&resumed, &oracle, step, &mut step_rng(seed, i)).expect("healthy disk");
            }
            if i + 1 == stop {
                prop_assert_eq!(&resumed.inspect(kb_bytes), &run.live, "after the lost suffix");
            }
        }
        prop_assert_eq!(resumed.inspect(kb_bytes), kb_bytes(&reference));
    }
}

/// A crash at every storage op of the mixed workload on a pool that rotates
/// every six records — WAL appends and fsyncs, segment and manifest
/// publishes, fresh WALs, retirements, the pool's creation: the workload
/// crash-recovers every time.
#[test]
fn every_crash_hook_recovers_under_rotation() {
    let config = rotate_every(6);
    let ops = drive_ops(7, config);
    assert!(
        ops.len() > 60,
        "{} ops: the run no longer rotates",
        ops.len()
    );
    for cut in 0..ops.len() {
        let tag = cut_name(&ops, cut);
        let dir = TmpDir::new("every-cut");
        let run = drive_cut(&dir, 7, config, cut);
        let (recovered, _, tail) = recover(&dir, config, &tag);
        run.assert_recovered(&recovered, &tag);
        assert_torn_if_wal_write(&ops, cut, tail);
    }
}

// ---------------------------------------------------------------------------
// 2. Torn tail vs mid-log corruption
// ---------------------------------------------------------------------------

fn wal_path(dir: &TmpDir, epoch: u64) -> PathBuf {
    dir.0.join(format!("wal.{epoch}.log"))
}

/// Opens the directory as recovery would, on the real filesystem.
fn try_open(dir: &TmpDir, config: EngineConfig) -> Result<common::Pool, DurableError> {
    reopen_pool(&dir.0, config)
}

/// Runs a short clean workload with rotation disabled and returns the WAL
/// byte image (epoch 0).
fn clean_run(dir: &TmpDir, seed: u64) -> Vec<u8> {
    let run = drive(&dir.0, seed, no_rotation(), real_fs());
    assert!(!run.crashed);
    std::fs::read(wal_path(dir, 0)).expect("wal exists")
}

#[test]
fn torn_tail_is_discarded_and_engine_opens() {
    let dir = TmpDir::new("torn");
    let bytes = clean_run(&dir, 11);
    // Chop mid-way into the final record.
    std::fs::write(wal_path(&dir, 0), &bytes[..bytes.len() - 3]).expect("write");
    let pool = try_open(&dir, no_rotation()).expect("torn tail must not prevent opening");
    assert_eq!(pool.reports()[0].tail, TailStatus::TornDiscarded);
    pool_bytes(&pool); // checks every knowledge base's invariants
}

#[test]
fn tail_bit_flip_is_discarded_but_mid_log_flip_refuses_to_open() {
    let dir = TmpDir::new("flip");
    let good = clean_run(&dir, 13);

    // Bit-flip inside the final record's payload: torn-tail semantics.
    let mut tail_flip = good.clone();
    let at = good.len() - 2;
    tail_flip[at] ^= 0x40;
    std::fs::write(wal_path(&dir, 0), &tail_flip).expect("write");
    let pool = try_open(&dir, no_rotation()).expect("tail corruption is discarded");
    assert_eq!(pool.reports()[0].tail, TailStatus::TornDiscarded);
    drop(pool);

    // Bit-flip early in the log (valid records follow): hard error.
    let mut mid_flip = good.clone();
    mid_flip[40] ^= 0x01; // inside the first records, far from the tail
    std::fs::write(wal_path(&dir, 0), &mid_flip).expect("write");
    let err = try_open(&dir, no_rotation()).expect_err("mid-log corruption must refuse to open");
    assert!(
        matches!(
            err,
            DurableError::Storage(DurabilityError::CorruptRecord { .. })
                | DurableError::CorruptWal(_)
        ),
        "unexpected error class: {err}"
    );
}

/// A WAL record whose checksum verifies but whose op does not fit the
/// knowledge base it replays onto refuses the open with `CorruptWal`,
/// never a panic: a placement of a placed tuple, a split of a rank past
/// `k` (in either split record form), a bitmap that is not one bit per
/// member, cut short or leaving a half empty, member lists that miss a
/// member. Attribute 0 holds one partition of tuples `0..8`.
#[test]
fn a_checksummed_record_that_does_not_fit_refuses_to_open() {
    // `count u32 | kind u8 (1: op) | attr u32 | op`.
    let txn = |op: &[u8]| [&1u32.to_le_bytes()[..], &[1], &0u32.to_le_bytes(), op].concat();
    // `tag u8 | rank u64 | separator (0: none) | …`.
    let split = |tag: u8, rank: u64, tail: &[u8]| {
        txn(&[&[tag][..], &rank.to_le_bytes(), &[0], tail].concat())
    };
    let bits = |n: u32, bytes: &[u8]| [&n.to_le_bytes()[..], bytes].concat();
    let list = |ids: &[u32]| {
        let n = ids.len() as u32;
        let ids = ids.iter().flat_map(|t| t.to_le_bytes());
        n.to_le_bytes().into_iter().chain(ids).collect::<Vec<u8>>()
    };
    let lists = |left: &[u32], right: &[u32]| [list(left), list(right)].concat();
    let place = [&[3u8][..], &3u32.to_le_bytes(), &0u64.to_le_bytes()].concat();
    let cases = [
        ("a place of a placed tuple", txn(&place)),
        (
            "a list-form split at rank 999",
            split(0, 999, &lists(&[0, 1, 2, 3], &[4, 5, 6, 7])),
        ),
        (
            "a list-form split missing a member",
            split(0, 0, &lists(&[0, 1, 2], &[4, 5, 6, 7])),
        ),
        ("a split at rank 999", split(6, 999, &bits(8, &[0x0f]))),
        (
            "a 7-bit bitmap for 8 members",
            split(6, 0, &bits(7, &[0x0f])),
        ),
        ("a bitmap cut short", split(6, 0, &bits(8, &[]))),
        (
            "a split leaving the right half empty",
            split(6, 0, &bits(8, &[0xff])),
        ),
    ];
    for (what, payload) in cases {
        let dir = TmpDir::new("misfit");
        let mut pool = open_pool(&dir.0, no_rotation(), real_fs()).expect("opens");
        pool.init_attr(0, 8).expect("durable init");
        drop(pool);
        let fs = real_fs();
        let path = wal_path(&dir, 0);
        let (records, len, tail) =
            scan_records(&std::fs::read(&path).expect("read")).expect("scans");
        let records = records.len() as u64;
        let mut wal = Wal::resume_on(fs.as_ref(), &path, len, records, tail).expect("wal opens");
        wal.append_unsynced(&payload).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        let err = try_open(&dir, no_rotation()).expect_err(what);
        assert!(matches!(err, DurableError::CorruptWal(_)), "{what}: {err}");
    }
}

#[test]
fn corrupt_checkpoint_refuses_to_open() {
    let dir = TmpDir::new("ckptflip");
    let config = rotate_every(3);
    let run = drive(&dir.0, 17, config, real_fs());
    assert!(!run.crashed);
    let manifest = read_segment_manifest(real_fs().as_ref(), &dir.0)
        .expect("manifest reads")
        .expect("manifest exists after rotation");
    let newest = *manifest.segments.last().expect("non-empty live set");
    let seg = dir.0.join(segment_file_name(newest));
    let mut bytes = std::fs::read(&seg).expect("segment exists after rotation");
    // Inside the first partition block (payload starts after the 16-byte
    // header): framing stays valid, the block's CRC does not.
    bytes[20] ^= 0x10;
    std::fs::write(&seg, &bytes).expect("write");
    let err = try_open(&dir, config).expect_err("damaged checkpoint must refuse to open");
    assert!(
        matches!(err, DurableError::CorruptSegment(_)),
        "unexpected error class: {err}"
    );
}

// ---------------------------------------------------------------------------
// 3. Checkpoint rotation
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_rotation_bumps_epoch_and_prunes_wals() {
    let dir = TmpDir::new("rotate");
    let config = rotate_every(4);
    let run = drive(&dir.0, 19, config, real_fs());
    assert!(!run.crashed);
    let pool = try_open(&dir, config).expect("reopen");
    let report = pool.reports()[0];
    assert!(report.checkpoint_loaded, "rotation must have checkpointed");
    assert!(report.epoch > 0, "rotation must bump the epoch");
    assert!(
        report.records_replayed < 4,
        "rotation must keep the replayed suffix short, got {}",
        report.records_replayed
    );
    assert_eq!(kb_bytes(pool.engine()), run.live);
    // Exactly one WAL file — the active epoch's — survives rotation.
    let wals: Vec<String> = std::fs::read_dir(&dir.0)
        .expect("dir")
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|n| n.starts_with("wal."))
        .collect();
    assert_eq!(
        wals,
        vec![format!("wal.{}.log", report.epoch)],
        "stale WALs linger"
    );
}

/// Op indices of the ops inside a checkpoint rotation: from its first
/// segment or segment-manifest op to the unlink of the WAL it retires. The
/// unlinks of superseded segments after that are best effort — a failure
/// there does not stop the run — so they are not rotation boundaries.
fn rotation_ops(ops: &[Op]) -> Vec<usize> {
    let mut inside = false;
    let mut at = Vec::new();
    for (i, (op, path)) in ops.iter().enumerate() {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        inside |= *op != IoOp::Remove && name.starts_with("segment");
        if inside {
            at.push(i);
        }
        if *op == IoOp::Remove && name.starts_with("wal.") {
            inside = false;
        }
    }
    at
}

/// A crash at every kind of rotation op — the 1st, 2nd and 5th time the
/// rotations of the run make it — still recovers the exact live state: a
/// rotation drains the pool's whole un-synced tail before any segment
/// byte moves, so the full committed history is durable at every such cut.
/// Before the manifest rename the old segment set + WAL replay reproduce
/// it; from the rename on the new segment subsumes the old WAL.
#[test]
fn checkpoint_crash_sweep_recovers_live_state() {
    let config = rotate_every(4);
    let ops = drive_ops(23, config);
    let rotation = rotation_ops(&ops);
    let sub: Vec<Op> = rotation.iter().map(|&i| ops[i].clone()).collect();
    let cuts: Vec<usize> = grouped_cuts(&sub, &[1, 2, 5])
        .into_iter()
        .map(|k| rotation[k])
        .collect();
    assert!(cuts.len() >= 24, "{} rotation cuts", cuts.len());
    for cut in cuts {
        let tag = cut_name(&ops, cut);
        let dir = TmpDir::new("ckptsweep");
        let run = drive_cut(&dir, 23, config, cut);
        assert!(run.crashed, "{tag}: a rotation crash must fail the run");
        let pool = try_open(&dir, config)
            .unwrap_or_else(|e| panic!("{tag}: recovery must open after a crash: {e}"));
        let report = pool.reports()[0];
        assert_eq!(
            kb_bytes(pool.engine()),
            run.live,
            "{tag}: rotation crash lost committed state"
        );
        assert!(
            report.epoch > 0 || report.segments_live == 0,
            "{tag}: a crash after any flush must leave a manifest epoch"
        );
        // Whatever the crash left unlinked, the reopen swept: once a
        // manifest exists, a segment id is on disk iff it is live.
        if let Some(manifest) =
            read_segment_manifest(real_fs().as_ref(), &dir.0).expect("manifest reads")
        {
            assert!(manifest.segments.len() <= 2, "{tag}: live > attrs");
            for id in 0..=manifest.next_segment_id {
                assert_eq!(
                    dir.0.join(segment_file_name(id)).exists(),
                    manifest.segments.contains(&id),
                    "{tag}: segment {id}: disk presence must match the manifest"
                );
            }
        }
    }
}

#[test]
fn poisoned_handle_refuses_work_and_reopen_resumes() {
    let config = no_rotation();
    let oracle = PlainOracle::from_columns(columns(64, 0, 29));
    let p = Predicate::cmp(0, ComparisonOp::Lt, 500);
    // The select's record is the third append (after the two inits), but a
    // refinement replies before it is appended; the delete's flush carries
    // it, and that write tears.
    let script = |dir: &Path, fs: Arc<dyn StorageFs>| {
        let durable = create(dir, config, fs, 64);
        let mut rng = StdRng::seed_from_u64(1);
        durable
            .select_where(&oracle, &[p], None, &mut rng)
            .expect("deferred: nothing appended yet");
        let deleted = durable.delete(5, None);
        (durable, deleted, rng)
    };
    let ops = clean_ops("poison-ops", |dir, fs| {
        script(dir, fs.handle()).1.expect("clean run");
    });
    let third_append = (0..ops.len())
        .filter(|&i| is_wal_write(&ops, i))
        .nth(3)
        .expect("header + three appends");
    let dir = TmpDir::new("poison");
    let (durable, deleted, mut rng) =
        script(&dir.0, FaultFs::crash_at(real_fs(), third_append).handle());
    let err = deleted.expect_err("the third append tears");
    assert!(
        matches!(err, DurableError::Storage(DurabilityError::Io(_))),
        "{err}"
    );
    // The pool is poisoned: new work is refused before it runs.
    assert!(matches!(
        durable.select_where(&oracle, &[p], None, &mut rng),
        Err(DurableError::Poisoned)
    ));
    drop(durable);
    // Reopening resumes from the durable prefix and accepts work again.
    let durable = reopen(&dir, config);
    let (sel, _) = durable
        .select_where(&oracle, &[p], None, &mut rng)
        .expect("works again");
    let expected = oracle.expected_select(&p);
    assert_eq!(sel.sorted(), expected);
}

/// Crashed directories whose reopen has work to do — a torn WAL tail to
/// truncate, a segment published with no manifest listing it, a WAL the
/// manifest swap made stale, a torn segment temp file — are reopened with a
/// crash at every op of that reopen, then opened a third time: the result
/// is on the run's history, at or past the last acknowledged fact.
#[test]
fn a_crash_during_recovery_recovers_on_the_next_open() {
    let config = rotate_every(4);
    let ops = drive_ops(23, config);
    let nth = |op: IoOp, file: &str, nth: usize| {
        (0..ops.len())
            .filter(|&i| ops[i].0 == op && ops[i].1.ends_with(file))
            .nth(nth - 1)
            .expect("the run makes this op")
    };
    for crash in [
        nth(IoOp::Write, "wal.1.log", 3),
        nth(IoOp::Open, "segments.manifest.tmp", 1),
        nth(IoOp::Remove, "wal.0.log", 1),
        nth(IoOp::Write, "segment.1.seg.tmp", 1),
    ] {
        let crashed = TmpDir::new("recovery-crashed");
        let run = drive_cut(&crashed, 23, config, crash);
        let reopen = |dir: &Path, fs: Arc<dyn StorageFs>| {
            common::copy_tree(&crashed.0, dir);
            open_pool(dir, config, fs)
        };
        let reopen_ops = clean_ops("recovery-ops", |dir, fs| {
            reopen(dir, fs.handle()).expect("a crashed directory reopens");
        });
        for cut in 0..reopen_ops.len() {
            let tag = format!(
                "{} then {}",
                cut_name(&ops, crash),
                cut_name(&reopen_ops, cut)
            );
            let dir = TmpDir::new("recovery-cut");
            drop(reopen(&dir.0, FaultFs::crash_at(real_fs(), cut).handle()));
            let pool = try_open(&dir, config).unwrap_or_else(|e| panic!("{tag}: {e}"));
            run.assert_recovered(&pool_bytes(&pool), &tag);
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Restart continuity and snapshot edge cases (satellite)
// ---------------------------------------------------------------------------

/// Close/reopen mid-history (twice) and keep querying: the durable engine
/// must track a continuously-running reference engine byte for byte.
#[test]
fn restart_continuity_matches_uninterrupted_reference() {
    let (n, extra) = (150usize, 2usize);
    let seed = 31u64;
    let oracle = PlainOracle::from_columns(columns(n, extra, seed));
    let steps = workload(n, extra, seed ^ 0x77);
    let config = rotate_every(5);
    let dir = TmpDir::new("restart");

    let mut reference = PrkbEngine::new(config);
    reference.init_attr(0, n);
    reference.init_attr(1, n);
    // Dropped at once: inits are facts, durable when acknowledged.
    drop(create(&dir.0, config, real_fs(), n));

    let mut at = 0usize;
    for stop in [5usize, 11, steps.len()] {
        let d = reopen(&dir, config);
        assert_eq!(
            d.inspect(kb_bytes),
            kb_bytes(&reference),
            "state diverged on reopen at step {at}"
        );
        while at < stop {
            apply_ref(&mut reference, &oracle, &steps[at], &mut step_rng(seed, at));
            apply_durable(&d, &oracle, &steps[at], &mut step_rng(seed, at)).expect("clean run");
            at += 1;
        }
        assert_eq!(d.inspect(kb_bytes), kb_bytes(&reference));
        // A clean shutdown, not a crash: the tail of refinements goes too.
        d.flush_durable().expect("clean shutdown");
    }
}

#[test]
fn empty_and_single_partition_kbs_roundtrip_through_wal_and_checkpoint() {
    let dir = TmpDir::new("edge");
    let config = no_rotation();
    {
        let mut pool = try_open(&dir, config).expect("open");
        pool.init_attr(0, 0).expect("empty attr"); // zero tuples: k == 0
        pool.init_attr(1, 40).expect("single-partition attr"); // k == 1, never split
        let d = SessionScheduler::durable(pool);
        d.checkpoint().expect("explicit checkpoint");
        // Add post-checkpoint WAL records on top: the first tuple of the
        // empty attribute opens a solo partition (the Solo op).
        let oracle = PlainOracle::from_columns(vec![
            (0..41u64).collect(),
            (0..41u64).map(|v| v * 3).collect(),
        ]);
        d.insert(&oracle, 40, None).expect("solo insert");
        let manifest = read_segment_manifest(real_fs().as_ref(), &dir.0)
            .expect("manifest reads")
            .expect("manifest exists after the checkpoint");
        assert_eq!(manifest.epoch, 1);
        let wal_len = std::fs::metadata(wal_path(&dir, 1))
            .expect("epoch-1 WAL")
            .len();
        assert!(wal_len > WAL_HEADER_LEN, "insert must land in the new WAL");
    }
    let pool = try_open(&dir, config).expect("reopen");
    let report = pool.reports()[0];
    assert!(report.checkpoint_loaded);
    assert_eq!(report.epoch, 1);
    let kb0 = pool.engine().knowledge(0).expect("indexed");
    let kb1 = pool.engine().knowledge(1).expect("indexed");
    kb0.check_invariants();
    kb1.check_invariants();
    assert_eq!(kb0.k(), 1, "solo partition must survive recovery");
    assert_eq!(kb1.k(), 1);
    assert_eq!(kb0.pop().rank_of_tuple(40), Some(0));
}

/// A max-fanout MD grid (CompleteSplits policy: every dimension splits on
/// both bounds of every range) through checkpoint + WAL replay.
#[test]
fn max_fanout_md_grid_roundtrips_through_checkpoint_and_wal() {
    let n = 400usize;
    let mut rng = StdRng::seed_from_u64(37);
    let cols: Vec<Vec<u64>> = (0..2)
        .map(|_| (0..n).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect();
    let oracle = PlainOracle::from_columns(cols);
    let config = EngineConfig {
        refine: Some(MdUpdatePolicy::CompleteSplits),
        ..no_rotation()
    };
    let dir = TmpDir::new("mdgrid");
    let live = {
        let d = create(&dir.0, config, real_fs(), n);
        let select_md = |dims: &[[Predicate; 2]; 2], rng: &mut StdRng| {
            d.with_detached(&[0, 1], |e| {
                e.try_select_where(&oracle, dims.as_flattened(), rng)
            })
            .expect("clean");
        };
        let mut qrng = StdRng::seed_from_u64(38);
        for i in 0..8u64 {
            let lo = i * 100;
            let dims = [
                [
                    Predicate::cmp(0, ComparisonOp::Gt, lo),
                    Predicate::cmp(0, ComparisonOp::Lt, lo + 250),
                ],
                [
                    Predicate::cmp(1, ComparisonOp::Gt, lo / 2),
                    Predicate::cmp(1, ComparisonOp::Lt, lo + 400),
                ],
            ];
            select_md(&dims, &mut qrng);
        }
        // Split state across a checkpoint AND trailing WAL records.
        d.checkpoint().expect("rotate");
        let mut qrng2 = StdRng::seed_from_u64(39);
        let dims = [
            [
                Predicate::cmp(0, ComparisonOp::Gt, 111),
                Predicate::cmp(0, ComparisonOp::Lt, 777),
            ],
            [
                Predicate::cmp(1, ComparisonOp::Gt, 222),
                Predicate::cmp(1, ComparisonOp::Lt, 888),
            ],
        ];
        select_md(&dims, &mut qrng2);
        assert!(
            d.inspect(|e| e.knowledge(0).expect("indexed").k()) > 8,
            "grid too coarse to be a fan-out test"
        );
        d.flush_durable().expect("clean shutdown");
        d.inspect(kb_bytes)
    };
    let pool = try_open(&dir, config).expect("reopen");
    assert!(pool.reports()[0].checkpoint_loaded);
    assert_eq!(kb_bytes(pool.engine()), live, "fan-out grid diverged");
}
