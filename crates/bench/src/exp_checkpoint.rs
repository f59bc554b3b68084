//! **checkpoint** — checkpoint and recovery cost of the segment store
//! (DESIGN.md §9). Not a paper figure — this gates the repo's own
//! storage layer.
//!
//! One warmed knowledge base, one deterministic workload:
//!
//! * `seg_flush` — the steady state the paper's ever-growing KB reaches:
//!   every round touches 2 of the 12 attributes and forces a rotation,
//!   which writes one small segment holding only the two dirtied
//!   partitions and retires the segments that one supersedes — the live
//!   set stays at or below the attribute count.
//! * `seg_recover` — reopen cost after the run: manifest, segment
//!   indexes, the newest block of every partition, the WAL tail.
//!
//! The workload is seed-deterministic, so the QPF column is stable and
//! safe to gate in CI; the bytes-per-checkpoint column carries the
//! O(delta) story against the whole-KB size printed beside it.

use crate::harness::TmpDir;
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_core::lsm::manifest::read_segment_manifest;
use prkb_core::lsm::segment_file_name;
use prkb_core::{snapshot, EngineConfig, PrkbEngine, SessionScheduler, ShardedDurablePool};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{real_fs, AttrId, ComparisonOp, Predicate, SelectionOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

const ATTRS: u32 = 12;
const TOUCH_PER_ROUND: usize = 2;
const WARM_QUERIES: usize = 24;
const VALUE_DOMAIN: u64 = 1_000_000;

/// One measured variant.
#[derive(Debug, Clone)]
pub struct CheckpointPoint {
    /// Row id (`seg_flush`, `seg_recover`).
    pub id: String,
    /// Wall-clock of the measured phase (ms).
    pub ms: f64,
    /// QPF uses spent in the measured phase (seed-deterministic; 0 for
    /// the recovery rows, which run no queries).
    pub qpf: u64,
    /// Checkpoints forced in the flush phase (0 for recovery rows).
    pub checkpoints: u64,
    /// Bytes written by those checkpoints (flush row) or partitions
    /// loaded at open (recovery row).
    pub volume: u64,
    /// Total partitions across all attributes at the end of the phase.
    pub k: u64,
}

/// Raw measurement output.
pub struct CheckpointData {
    /// The flush row, then the recovery row.
    pub points: Vec<CheckpointPoint>,
    /// `snapshot::save` bytes of the whole KB at the end of the run — what
    /// a rotation that rewrote everything would write each time.
    pub kb_bytes: u64,
    /// Dataset rows per attribute.
    pub n: usize,
    /// Forced rotations in the flush phase.
    pub rounds: usize,
    /// Live segments in the manifest when the flush phase ended.
    segments_live: usize,
    /// Bytes of every file in the directory when the flush phase ended.
    dir_bytes: u64,
}

fn dataset(n: usize) -> PlainOracle {
    let mut rng = StdRng::seed_from_u64(0xC4EC_401E);
    PlainOracle::from_columns(
        (0..ATTRS)
            .map(|_| (0..n).map(|_| rng.gen_range(0..VALUE_DOMAIN)).collect())
            .collect(),
    )
}

fn warm_preds(attr: AttrId) -> Vec<Predicate> {
    (1..=WARM_QUERIES)
        .map(|i| {
            Predicate::cmp(
                attr,
                ComparisonOp::Lt,
                (i as u64 * VALUE_DOMAIN) / (WARM_QUERIES as u64 + 1),
            )
        })
        .collect()
}

/// The two attributes round `r` touches, and the deterministic predicate
/// each gets — identical across backends.
fn touch_preds(r: usize) -> Vec<(AttrId, Predicate)> {
    let mut rng = StdRng::seed_from_u64(0xD117 ^ r as u64);
    (0..TOUCH_PER_ROUND)
        .map(|j| {
            let attr = ((r * TOUCH_PER_ROUND + j) % ATTRS as usize) as AttrId;
            let bound = rng.gen_range(1..VALUE_DOMAIN);
            (attr, Predicate::cmp(attr, ComparisonOp::Lt, bound))
        })
        .collect()
}

fn total_k(engine: &PrkbEngine<Predicate>) -> u64 {
    engine
        .attrs()
        .map(|a| engine.knowledge(a).expect("attr indexed").k() as u64)
        .sum()
}

fn live_segments(dir: &Path) -> Vec<u64> {
    read_segment_manifest(real_fs().as_ref(), dir)
        .expect("manifest reads")
        .expect("manifest exists after a checkpoint")
        .segments
}

/// Bytes the last rotation left on disk: the newest published segment.
fn last_flush_bytes(dir: &Path) -> u64 {
    let newest = *live_segments(dir).last().expect("non-empty live set");
    std::fs::metadata(dir.join(segment_file_name(newest)))
        .map(|m| m.len())
        .unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("list bench dir")
        .map(|e| e.expect("entry").metadata().expect("metadata").len())
        .sum()
}

fn config() -> EngineConfig {
    EngineConfig {
        checkpoint_wal_records: 0, // rotations are forced explicitly
        checkpoint_wal_bytes: 0,
        ..EngineConfig::default()
    }
}

/// A pool rooted at `dir`: the single-owner durable engine.
fn open_pool(dir: &TmpDir) -> ShardedDurablePool<Predicate> {
    ShardedDurablePool::open(&dir.0, config()).expect("open")
}

/// Warm + flush phase; leaves the directory populated for the recovery
/// measurement and returns the flush row plus the whole-KB size.
fn run_flush(
    dir: &TmpDir,
    oracle: &PlainOracle,
    n: usize,
    rounds: usize,
) -> (CheckpointPoint, u64) {
    let mut pool = open_pool(dir);
    for a in 0..ATTRS {
        pool.init_attr(a, n).expect("init");
    }
    let durable = SessionScheduler::durable(pool);
    let select = |pred: &Predicate, seed: u64| {
        durable
            .select_where(oracle, &[*pred], None, &mut StdRng::seed_from_u64(seed))
            .expect("select");
    };
    for a in 0..ATTRS {
        for p in warm_preds(a) {
            select(&p, u64::from(a));
        }
    }
    durable.checkpoint().expect("baseline rotation");

    let qpf_before = oracle.qpf_uses();
    let mut volume = 0u64;
    let start = Instant::now();
    for r in 0..rounds {
        for (_, pred) in touch_preds(r) {
            select(&pred, r as u64);
        }
        durable.checkpoint().expect("forced rotation");
        volume += last_flush_bytes(&dir.0);
    }
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    let (kb_bytes, k) = durable.inspect(|engine| {
        let kb_bytes = engine
            .attrs()
            .map(|a| snapshot::save(engine.knowledge(a).expect("attr indexed")).len() as u64)
            .sum();
        (kb_bytes, total_k(engine))
    });
    let point = CheckpointPoint {
        id: "seg_flush".into(),
        ms,
        qpf: oracle.qpf_uses() - qpf_before,
        checkpoints: rounds as u64,
        volume,
        k,
    };
    (point, kb_bytes)
}

/// Reopen cost over the directory `run_flush` left behind.
fn run_recover(dir: &TmpDir) -> CheckpointPoint {
    let start = Instant::now();
    let pool = open_pool(dir);
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    let engine = pool.engine();
    CheckpointPoint {
        id: "seg_recover".into(),
        ms,
        qpf: 0,
        checkpoints: 0,
        volume: engine.attrs().count() as u64,
        k: total_k(engine),
    }
}

/// Runs the flush and recovery phases.
pub fn measure(scale: Scale) -> CheckpointData {
    let n = match scale {
        Scale::Ci => 1_500,
        Scale::Default => 5_000,
        Scale::Paper => 20_000,
    };
    let rounds = scale.queries(60);
    let oracle = dataset(n);

    let dir = TmpDir::new("checkpoint");
    let (flush, kb_bytes) = run_flush(&dir, &oracle, n, rounds);
    let (segments_live, dir_bytes) = (live_segments(&dir.0).len(), dir_bytes(&dir.0));
    let recover = run_recover(&dir);
    assert_eq!(flush.k, recover.k, "reopen must recover the same KB");
    CheckpointData {
        points: vec![flush, recover],
        kb_bytes,
        n,
        rounds,
        segments_live,
        dir_bytes,
    }
}

/// Renders the report and the trajectory rows.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let data = measure(scale);
    let mut out = String::new();
    out.push_str(&format!(
        "## checkpoint — segment rotation, {} rounds × {TOUCH_PER_ROUND} of \
         {ATTRS} attrs touched, n = {}\n\n",
        data.rounds, data.n
    ));
    out.push_str(
        "| variant | checkpoints | bytes written | bytes/ckpt | wall ms | loaded at open | QPF |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for p in &data.points {
        let (bytes, per, loaded) = if p.id.ends_with("_flush") {
            (
                p.volume.to_string(),
                format!("{:.0}", p.volume as f64 / p.checkpoints.max(1) as f64),
                "-".to_string(),
            )
        } else {
            ("-".to_string(), "-".to_string(), p.volume.to_string())
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.1} | {} | {} |\n",
            p.id, p.checkpoints, bytes, per, p.ms, loaded, p.qpf
        ));
    }
    let flush = &data.points[0];
    out.push_str(&format!(
        "\nwhole KB: {} bytes — {:.1}x one checkpoint's delta\n\
         flush phase ended with {} live segment(s) (bound: {ATTRS} attrs), \
         {} bytes in the directory\n",
        data.kb_bytes,
        data.kb_bytes as f64 * flush.checkpoints as f64 / flush.volume.max(1) as f64,
        data.segments_live,
        data.dir_bytes
    ));

    let rows = data
        .points
        .iter()
        .map(|p| BenchRow {
            id: p.id.clone(),
            qpf_uses: p.qpf,
            ms: p.ms,
            k: p.k,
            n: data.n as u64,
            threads: 1,
        })
        .collect();
    (out, rows)
}
