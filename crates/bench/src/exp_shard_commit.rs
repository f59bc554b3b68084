//! **shard_commit** — durable commit throughput under write contention
//! through the pool's per-attribute locks and its one group-committed log
//! (DESIGN.md §8). Not a paper figure — this gates the repo's own
//! durability layer.
//!
//! Eight writer threads hammer eight distinct attributes with refining
//! selects, so their footprints are disjoint and check out in parallel;
//! only the log is shared. A select's commit is journaled before it is
//! acknowledged and fsync'd with the pool's next flush (the one that fills
//! the bounded un-synced tail leads it), so the timed window runs from the
//! first select to the end of the closing `flush_durable()`: `wall ms`,
//! `fsyncs` and `commits/fsync` cover making *every* commit durable, the
//! tail included. The pool's one committer amortizes each fsync over every
//! writer's commits.
//!
//! The one row, `w8`, is seed-deterministic per writer, so total QPF is
//! seed-stable (safe to gate in CI); the wall-clock columns carry the
//! throughput story.

use crate::harness::TmpDir;
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_core::metrics::{self, Metric};
use prkb_core::{EngineConfig, PrkbEngine, SessionOracle, SessionScheduler, ShardedDurablePool};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{AttrId, ComparisonOp, Predicate, SelectionOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const WRITERS: usize = 8;
/// One attribute per writer. These ids are the workload the QPF gate
/// pins (7 827 at CI scale); nothing about them is special.
const ATTRS: [AttrId; WRITERS] = [0, 1, 2, 3, 4, 5, 8, 10];
const WARM_QUERIES: usize = 30;
const VALUE_DOMAIN: u64 = 1_000_000;

/// The measured run.
#[derive(Debug, Clone)]
pub struct ShardCommitPoint {
    /// Row id (`w8`).
    pub id: String,
    /// Operations committed in the timed phase, all durable by its end.
    pub commits: u64,
    /// Wall-clock for the timed phase, closing flush included (ms).
    pub ms: f64,
    /// Commits per second.
    pub throughput: f64,
    /// QPF uses spent in the timed phase (seed-deterministic).
    pub qpf: u64,
    /// WAL fsyncs paid during the timed phase.
    pub fsyncs: u64,
    /// Total partitions across all attributes after the run.
    pub k: u64,
}

/// Raw measurement output.
pub struct ShardCommitData {
    /// The measurement.
    pub point: ShardCommitPoint,
    /// Dataset rows per attribute.
    pub n: usize,
    /// Committed operations per writer.
    pub ops_per_writer: usize,
}

fn dataset(n: usize) -> PlainOracle {
    let mut rng = StdRng::seed_from_u64(0x5AD_C0DE);
    let max = ATTRS.iter().copied().max().unwrap_or(0) as usize + 1;
    PlainOracle::from_columns(
        (0..max)
            .map(|_| (0..n).map(|_| rng.gen_range(0..VALUE_DOMAIN)).collect())
            .collect(),
    )
}

/// Per-writer predicate stream: deterministic.
fn bound(writer: usize, i: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64((writer as u64) << 32 | i as u64);
    rng.gen_range(1..VALUE_DOMAIN)
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

fn total_k(engine: &PrkbEngine<Predicate>) -> u64 {
    engine
        .attrs()
        .map(|a| engine.knowledge(a).expect("attr indexed").k() as u64)
        .sum()
}

fn run(oracle: &Arc<PlainOracle>, n: usize, ops: usize) -> ShardCommitPoint {
    let dir = TmpDir::new("shard-commit");
    let mut pool =
        ShardedDurablePool::<Predicate>::open(&dir.0, EngineConfig::default()).expect("open pool");
    for &a in &ATTRS {
        pool.init_attr(a, n).expect("init");
    }
    let sched = Arc::new(SessionScheduler::durable(pool));
    for &a in &ATTRS {
        for p in warm_preds(a) {
            let session = SessionOracle::new(&**oracle);
            sched
                .with_detached(&[a], |sub| {
                    sub.try_select(&session, &p, &mut StdRng::seed_from_u64(u64::from(a)))
                })
                .expect("warm select");
        }
    }

    let qpf_before = oracle.qpf_uses();
    let fsyncs_before = metrics::global().get(Metric::GroupCommitFsyncs);
    let start = Instant::now();
    let mut handles = Vec::new();
    for (w, &attr) in ATTRS.iter().enumerate() {
        let sched = Arc::clone(&sched);
        let oracle = Arc::clone(oracle);
        handles.push(std::thread::spawn(move || {
            for i in 0..ops {
                let pred = Predicate::cmp(attr, ComparisonOp::Lt, bound(w, i));
                let mut rng = StdRng::seed_from_u64((w * ops + i) as u64);
                let session = SessionOracle::new(&*oracle);
                sched
                    .with_detached(&[attr], |sub| sub.try_select(&session, &pred, &mut rng))
                    .expect("select commits");
            }
        }));
    }
    for h in handles {
        h.join().expect("writer");
    }
    sched.flush_durable().expect("closing flush");
    let ms = start.elapsed().as_secs_f64() * 1_000.0;
    let commits = (WRITERS * ops) as u64;
    let sched = Arc::try_unwrap(sched).unwrap_or_else(|_| panic!("writers joined"));
    let engine = sched.into_engine();
    ShardCommitPoint {
        id: format!("w{WRITERS}"),
        commits,
        ms,
        throughput: commits as f64 / (ms / 1_000.0),
        qpf: oracle.qpf_uses() - qpf_before,
        fsyncs: metrics::global().get(Metric::GroupCommitFsyncs) - fsyncs_before,
        k: total_k(&engine),
    }
}

/// Runs the workload.
pub fn measure(scale: Scale) -> ShardCommitData {
    // Commit-throughput benchmark: n stays modest so per-op evaluation is
    // cheap and the durable commit path (WAL append + fsync) dominates —
    // that is the cost group commit exists to amortize.
    let n = match scale {
        Scale::Ci => 1_000,
        Scale::Default => 2_000,
        Scale::Paper => 8_000,
    };
    let ops_per_writer = scale.queries(160);
    let oracle = Arc::new(dataset(n));
    ShardCommitData {
        point: run(&oracle, n, ops_per_writer),
        n,
        ops_per_writer,
    }
}

/// Renders the report and the trajectory rows.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let data = measure(scale);
    let mut out = String::new();
    out.push_str(&format!(
        "## shard_commit — durable commit throughput, {WRITERS} writers × {} commits, n = {}\n\n",
        data.ops_per_writer, data.n
    ));
    out.push_str(
        "| variant | commits | wall ms (incl. closing flush) | commits/s | fsyncs | commits/fsync | QPF |\n\
         |---|---|---|---|---|---|---|\n",
    );
    let p = &data.point;
    out.push_str(&format!(
        "| {} | {} | {:.1} | {:.0} | {} | {:.1} | {} |\n",
        p.id,
        p.commits,
        p.ms,
        p.throughput,
        p.fsyncs,
        p.commits as f64 / (p.fsyncs.max(1)) as f64,
        p.qpf
    ));
    let row = BenchRow {
        id: p.id.clone(),
        qpf_uses: p.qpf,
        ms: p.ms,
        k: p.k,
        n: data.n as u64,
        threads: WRITERS as u64,
    };
    (out, vec![row])
}
