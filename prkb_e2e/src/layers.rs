//! Per-layer attribution, measured from outside the program. Three
//! sources, none of them an edit to the program:
//!
//! (a) decorators on public seams, traced run only — the oracle's busy
//!     time and the storage seam's writes and syncs (`sut::BenchOracle`,
//!     `sut::TracedFs`);
//! (b) counts the program already returns — `QueryStats` on every reply,
//!     the drained server's report, the metrics registry before and after;
//! (c) replay and probes — client 0's request stream replayed at three
//!     depths (wire, in-process durable, in-process in-memory) with
//!     identical per-request `QueryStats` asserted at each, so that the
//!     time between adjacent depths is a layer's own; and micro-probes that
//!     call one public function in a loop.

use crate::gen::ATTRS;
use crate::report::Metric;
use crate::stats::{fastest, highest_supported_percentile, log2_histogram_p50, percentile};
use crate::sut::{self, Depth, QueryStats, Tracing};
use crate::trace::{self, Span};
use crate::workloads::{self, ClientLog, Inputs, Outcome, Round, Table, Verdict, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Client 0's stream, driven alone at each depth.
pub struct Replays {
    pub ops: usize,
    pub wire_s: f64,
    pub durable_s: f64,
    pub memory_s: f64,
    /// Oracle busy seconds of the same requests (a fourth, traced pass at
    /// the in-memory depth, so the timing wrapper is in none of the three).
    pub oracle_busy_s: f64,
    /// Median round trip of a `Ping` on the idle server, microseconds.
    pub ping_rtt_p50_us: f64,
    pub verdict: Verdict,
}

fn call_seconds(log: &ClientLog) -> f64 {
    log.ops.iter().map(|o| o.latency_ns as f64 / 1e9).sum()
}

fn stats_of(log: &ClientLog) -> Vec<Option<QueryStats>> {
    log.ops
        .iter()
        .map(|o| match &o.outcome {
            Outcome::Read { stats, .. } => Some(*stats),
            _ => None,
        })
        .collect()
}

/// Warms the attributes the replayed prefix touches, then drives it.
fn run_depth(
    depth: &mut dyn Depth,
    inputs: &Inputs,
    tracing: Option<&Tracing>,
    verdict: &mut Verdict,
) -> ClientLog {
    let ops = inputs.table.plan.replay_ops;
    let mut attrs: Vec<u32> = inputs.requests[0][..ops]
        .iter()
        .flat_map(|r| r.op.attrs())
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    let warmed = workloads::warm_up(depth, inputs, attrs.iter().copied());
    workloads::check_warm_up(inputs, attrs.iter().copied(), &warmed, verdict);
    if let Some(t) = tracing {
        t.discard();
    }
    let log = workloads::drive(depth, inputs, 0, ops, tracing);
    verdict.merge(workloads::verify(inputs, &[&log]));
    log
}

pub fn replay_depths(inputs: &Inputs, scratch: &Path, pings: usize) -> Replays {
    let mut verdict = Verdict::default();
    let (rows, keys) = (inputs.table.plan.rows, &inputs.table.keys);
    let table = || inputs.table.encrypt();

    // Depth 1: the wire.
    let dir = scratch.join("replay-wire");
    let served = sut::serve(
        sut::create_pool(&dir, rows, None),
        keys.oracle(table(), None),
    );
    let mut wire = served.connect();
    let wire_log = run_depth(&mut wire, inputs, None, &mut verdict);
    let mut rtt_us: Vec<f64> = (0..pings)
        .map(|_| {
            let start = Instant::now();
            verdict.check(wire.ping().is_ok(), || "ping failed".into());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    rtt_us.sort_by(f64::total_cmp);
    drop(wire);
    drop(served.drain());

    // Depth 2: the scheduler over the durable pool, in process.
    let dir = scratch.join("replay-durable");
    let mut durable = sut::InProcess::durable(
        sut::create_pool(&dir, rows, None),
        keys.oracle(table(), None),
    );
    let durable_log = run_depth(&mut durable, inputs, None, &mut verdict);
    durable.close();

    // Depth 3: the scheduler over an in-memory engine; then once more with
    // the oracle timed.
    let mut memory = sut::InProcess::in_memory(rows, keys.oracle(table(), None));
    let memory_log = run_depth(&mut memory, inputs, None, &mut verdict);
    drop(memory);
    let tracing = Tracing::new(2 * inputs.table.plan.replay_ops + 16);
    let oracle = keys.oracle(table(), Some(Arc::clone(&tracing.oracle)));
    let mut traced = sut::InProcess::in_memory(rows, oracle);
    let traced_log = run_depth(&mut traced, inputs, Some(&tracing), &mut verdict);

    // DESIGN §11: what a request costs does not depend on how the engine
    // is driven.
    let reference = stats_of(&wire_log);
    for (name, log) in [
        ("durable", &durable_log),
        ("memory", &memory_log),
        ("traced", &traced_log),
    ] {
        let got = stats_of(log);
        for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
            verdict.check(a == b, || {
                format!("op {i}: wire {a:?} but in-process {name} {b:?}")
            });
        }
    }

    Replays {
        ops: inputs.table.plan.replay_ops,
        wire_s: call_seconds(&wire_log),
        durable_s: call_seconds(&durable_log),
        memory_s: call_seconds(&memory_log),
        oracle_busy_s: traced_log.oracle.busy_ns as f64 / 1e9,
        ping_rtt_p50_us: percentile(&rtt_us, 50.0),
        verdict,
    }
}

/// One public function in a loop, at the sizes the workloads use.
pub struct Probes {
    pub decrypt_ns: f64,
    pub session_open_ns: f64,
    pub eval_ns: f64,
    pub trapdoor_us: f64,
    pub encrypt_row_us: f64,
    pub encode_ns_per_tuple: f64,
    pub decode_ns_per_tuple: f64,
    pub frame_ns_per_byte: f64,
}

/// `iters` calls per probe (a tenth of that for the microsecond-sized ones).
pub fn probes(table: &Table, iters: usize) -> Probes {
    let (session_open_ns, eval_ns) = sut::probe_trusted_ns(&table.keys, table.seed, iters);
    let (trapdoor_us, encrypt_row_us) = sut::probe_owner_us(&table.keys, table.seed, iters / 10);
    // A reply of the workload's typical size: half the table on
    // `wide_result`, 1 % of it elsewhere.
    let ids = match table.workload {
        Workload::WideResult => table.plan.rows / 2,
        _ => table.plan.rows / 100,
    };
    let (encode_ns_per_tuple, decode_ns_per_tuple, frame_ns_per_byte) =
        sut::probe_proto_ns(ids, iters * 10);
    Probes {
        decrypt_ns: sut::probe_decrypt_ns(table.seed, iters),
        session_open_ns,
        eval_ns,
        trapdoor_us,
        encrypt_row_us,
        encode_ns_per_tuple,
        decode_ns_per_tuple,
        frame_ns_per_byte,
    }
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    d.sort_by(f64::total_cmp);
    d
}

fn p(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, pct)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. A metric that a
/// workload has no use for (insert latency on a read workload) reads 0.
pub fn per_layer(
    inputs: &Inputs,
    untraced: &Round,
    traced: &Round,
    replays: &Replays,
    probes: &Probes,
    verify_s: f64,
) -> Vec<Metric> {
    let ops: Vec<&workloads::OpRecord> = traced.logs.iter().flat_map(|l| &l.ops).collect();
    let n_ops = ops.len() as f64;
    let reads: Vec<&QueryStats> = ops
        .iter()
        .filter_map(|o| match &o.outcome {
            Outcome::Read { stats, .. } => Some(stats),
            _ => None,
        })
        .collect();
    let n_reads = reads.len() as f64;
    let inserts = ops
        .iter()
        .filter(|o| matches!(o.outcome, Outcome::Inserted { .. }))
        .count();
    let sum = |f: fn(&QueryStats) -> u64| reads.iter().map(|s| f(s)).sum::<u64>() as f64;
    let read_qpf = sum(|s| s.qpf_uses);

    let call_s: f64 = traced.logs.iter().map(call_seconds).sum();
    let oracle = traced
        .logs
        .iter()
        .fold(trace::BusyTotals::default(), |mut acc, l| {
            acc.absorb(l.oracle);
            acc
        });
    let oracle_busy_s = oracle.busy_ns as f64 / 1e9;
    let client_self_s = trace::self_seconds(&traced.spans, "client.");

    let syncs_ms = durations_ms(&traced.spans, "fs.sync");
    let writes_ms = durations_ms(&traced.spans, "fs.write");
    let written: u64 = traced
        .spans
        .iter()
        .filter(|s| s.name == "fs.write")
        .map(|s| s.count)
        .sum();
    let recovery_read: u64 = traced
        .reopen_spans
        .iter()
        .filter(|s| s.name == "fs.read")
        .map(|s| s.count)
        .sum();
    let reopens = traced.reopen_ms.len() as f64;

    let (before, after) = (&traced.counts.0, &traced.counts.1);
    let count = |name: &str| after.counter_since(before, name) as f64;
    let hist_p50 = |name: &str| log2_histogram_p50(&after.histogram_since(before, name));

    let k_final = traced.shape.iter().map(|s| s.1 as f64).sum::<f64>() / ATTRS as f64;
    let kb_bytes: usize = traced.shape.iter().map(|s| s.2).sum();

    let per_op = |total_s: f64| total_s * 1e3 / replays.ops as f64;
    let rate = |r: &Round| r.logs.iter().map(|l| l.ops.len()).sum::<usize>() as f64 / r.wall_s;
    let inserts_ms = durations_ms(&traced.spans, "client.insert");
    let mut reads_ms: Vec<f64> = ["between", "range1d", "range2d", "cmp"]
        .iter()
        .flat_map(|kind| durations_ms(&traced.spans, &format!("client.{kind}")))
        .collect();
    reads_ms.sort_by(f64::total_cmp);
    // The highest percentile, up to p99, with ten samples beyond it: with
    // fewer, a tail percentile is one outlier's opinion.
    let tail = highest_supported_percentile(reads_ms.len()).map_or(50.0, |p| p.min(99.0));
    println!(
        "   server.client.select_tail_ms is p{tail} of {} reads",
        reads_ms.len()
    );

    let m = Metric::new;
    vec![
        m("edbms.oracle.busy_s", "s", oracle_busy_s),
        m(
            "edbms.oracle.busy_share",
            "ratio",
            ratio(oracle_busy_s, call_s),
        ),
        m(
            "edbms.oracle.calls_per_op",
            "count",
            ratio(oracle.calls as f64, n_ops),
        ),
        m(
            "edbms.oracle.tuples_per_call",
            "count",
            ratio(oracle.count as f64, oracle.calls as f64),
        ),
        m(
            "edbms.oracle.ns_per_qpf",
            "ns",
            ratio(oracle.busy_ns as f64, oracle.count as f64),
        ),
        m("crypto.cipher.decrypt_ns", "ns", probes.decrypt_ns),
        m(
            "edbms.trusted.session_open_ns",
            "ns",
            probes.session_open_ns,
        ),
        m("edbms.trusted.eval_ns", "ns", probes.eval_ns),
        m("edbms.owner.trapdoor_us", "us", probes.trapdoor_us),
        m("edbms.owner.encrypt_row_us", "us", probes.encrypt_row_us),
        m(
            "core.qfilter.probes_per_op",
            "count",
            ratio(sum(|s| s.filter_probes), n_reads),
        ),
        m(
            "core.qscan.ns_width_per_op",
            "count",
            ratio(sum(|s| s.ns_width), n_reads),
        ),
        m(
            "core.engine.oracle_batches_per_op",
            "count",
            ratio(sum(|s| s.oracle_batches), n_reads),
        ),
        m(
            "core.update.splits_per_op",
            "count",
            ratio(sum(|s| s.splits as u64), n_reads),
        ),
        m(
            "core.engine.pruned_per_op",
            "count",
            ratio(sum(|s| (s.pruned_true + s.pruned_false) as u64), n_reads),
        ),
        m(
            "core.insert.qpf_per_insert",
            "count",
            ratio(traced.qpf as f64 - read_qpf, inserts as f64),
        ),
        m("core.knowledge.k_final", "count", k_final),
        m(
            "core.knowledge.kb_bytes_per_tuple",
            "B",
            ratio(kb_bytes as f64, inputs.table.plan.rows as f64),
        ),
        m(
            "core.engine.self_ms_per_op",
            "ms",
            per_op(replays.memory_s - replays.oracle_busy_s),
        ),
        m(
            "core.durability.self_ms_per_op",
            "ms",
            per_op(replays.durable_s - replays.memory_s),
        ),
        m(
            "server.net.self_ms_per_op",
            "ms",
            per_op(replays.wire_s - replays.durable_s),
        ),
        m(
            "edbms.storage.syncs_per_op",
            "count",
            ratio(syncs_ms.len() as f64, n_ops),
        ),
        m(
            "edbms.storage.sync_s",
            "s",
            syncs_ms.iter().sum::<f64>() / 1e3,
        ),
        m("edbms.storage.sync_p50_us", "us", p(&syncs_ms, 50.0) * 1e3),
        m(
            "edbms.storage.write_s",
            "s",
            writes_ms.iter().sum::<f64>() / 1e3,
        ),
        m(
            "edbms.storage.bytes_per_op",
            "B",
            ratio(written as f64, n_ops),
        ),
        m(
            "edbms.storage.checkpoint_rotations",
            "count",
            count("checkpoints"),
        ),
        m(
            "edbms.storage.recovery_bytes_read",
            "B",
            ratio(recovery_read as f64, reopens),
        ),
        m(
            "core.durability.commits_per_fsync",
            "count",
            ratio(count("group_commit_records"), count("group_commit_fsyncs")),
        ),
        m("core.durability.dir_bytes", "B", traced.dir_bytes as f64),
        m(
            "core.durability.reopen_ms",
            "ms",
            fastest(traced.reopen_ms.iter().copied()),
        ),
        m(
            "core.durability.reopen_records_replayed",
            "count",
            traced.records_replayed as f64,
        ),
        m(
            "core.shard.lock_wait_p50_us",
            "us",
            hist_p50("shard_lock_wait_us"),
        ),
        m(
            "server.reactor.ping_rtt_p50_us",
            "us",
            replays.ping_rtt_p50_us,
        ),
        m(
            "server.reactor.queue_wait_p50_us",
            "us",
            hist_p50("reactor_queue_wait_us"),
        ),
        m(
            "server.reactor.epoll_wakeups_per_op",
            "count",
            ratio(count("epoll_wakeups"), n_ops),
        ),
        m(
            "server.proto.encode_ns_per_tuple",
            "ns",
            probes.encode_ns_per_tuple,
        ),
        m(
            "server.proto.decode_ns_per_tuple",
            "ns",
            probes.decode_ns_per_tuple,
        ),
        m(
            "server.wire.frame_ns_per_byte",
            "ns",
            probes.frame_ns_per_byte,
        ),
        m(
            "server.wire.bytes_per_op",
            "B",
            ratio(count("server_bytes"), n_ops),
        ),
        m("server.client.call_s", "s", call_s),
        m("server.client.self_s", "s", client_self_s),
        m("server.client.select_tail_ms", "ms", p(&reads_ms, tail)),
        m(
            "server.client.between_p50_ms",
            "ms",
            p(&durations_ms(&traced.spans, "client.between"), 50.0),
        ),
        m(
            "server.client.range1d_p50_ms",
            "ms",
            p(&durations_ms(&traced.spans, "client.range1d"), 50.0),
        ),
        m(
            "server.client.range2d_p50_ms",
            "ms",
            p(&durations_ms(&traced.spans, "client.range2d"), 50.0),
        ),
        m(
            "server.client.cmp_p50_ms",
            "ms",
            p(&durations_ms(&traced.spans, "client.cmp"), 50.0),
        ),
        m("server.client.insert_p50_ms", "ms", p(&inserts_ms, 50.0)),
        m("server.client.insert_p99_ms", "ms", p(&inserts_ms, 99.0)),
        m(
            "server.client.delete_p50_ms",
            "ms",
            p(&durations_ms(&traced.spans, "client.delete"), 50.0),
        ),
        m("server.client.retries", "count", traced.retries as f64),
        m(
            "server.admission.busy_rejections",
            "count",
            traced.server.busy_rejections as f64,
        ),
        m(
            "server.admission.dedup_hits",
            "count",
            traced.server.dedup_hits as f64,
        ),
        m(
            "server.scheduler.deadline_timeouts",
            "count",
            traced.server.deadline_timeouts as f64,
        ),
        m(
            "bench.trace_overhead",
            "ratio",
            1.0 - ratio(rate(traced), rate(untraced)),
        ),
        m("bench.verify_s", "s", verify_s),
        m("bench.peak_rss_mb", "MB", crate::report::peak_rss_mb()),
    ]
}
