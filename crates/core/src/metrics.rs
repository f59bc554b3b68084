//! Process-wide cost observability: atomic counters and log-scale
//! histograms for every expensive thing the PRKB pipeline does.
//!
//! The paper's entire argument is a cost claim (QFilter/QScan answer a
//! selection in O(lg k) + NS-pair QPF uses instead of n), so costs must be
//! first-class data, not log lines. This module is deliberately
//! zero-dependency and cheap: every counter is a relaxed [`AtomicU64`]
//! increment (~1 ns, no locks, no allocation), so leaving the registry
//! unread costs nothing measurable. Snapshots ([`MetricsSnapshot`]) render
//! to a stable, hand-rolled JSON schema (`prkb-metrics/v7`) suitable for
//! dashboards and CI artifacts.
//!
//! Schema history: **v7** removed three v6 counters whose code is gone
//! (listed once in DESIGN.md §11) — the only version that shrank the key
//! set; **v6** added the segmented-checkpoint
//! counters (`segments_live`, `segment_flush_bytes`, `recovery_ms`);
//! **v5** added the reactor counters (`epoll_wakeups`) and
//! histograms (`pipelined_depth`, `reactor_queue_wait_us`) for the
//! epoll-based server front end; **v4** added the storage-robustness counters
//! (`io_faults_injected`, `sync_failures`, `wal_poisoned`, `scrub_runs`,
//! `scrub_corruptions`, `quarantined_files`); **v3** added the
//! service-resilience counters
//! (`busy_rejections`, `deadline_timeouts`, `net_retries`, `dedup_hits`,
//! `net_faults_injected`); **v2** added the `shards` header field (the
//! sharded engine-pool topology, see [`MetricsRegistry::set_shards`]), the
//! `group_commit_*` counters, and the `shard_lock_wait_us` histogram; v1
//! counter and histogram names are unchanged — names never change meaning,
//! new names only append.
//!
//! ```
//! use prkb_core::metrics;
//!
//! let reg = metrics::global();
//! reg.add(metrics::Metric::QueriesComparison, 1);
//! let snap = reg.snapshot();
//! assert!(snap.counter("queries_comparison").unwrap() >= 1);
//! assert!(snap.to_json().starts_with("{\"schema\":\"prkb-metrics/v7\""));
//! ```

use crate::selection::QueryStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of counter metrics (length of [`Metric::ALL`]).
const COUNTER_COUNT: usize = 45;

/// Every counter the registry tracks. Names (via [`Metric::name`]) are part
/// of the `prkb-metrics/v7` JSON schema: never rename, only append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Single-comparison selections processed by the engine.
    QueriesComparison,
    /// BETWEEN selections processed by the engine.
    QueriesBetween,
    /// Multi-dimensional (MD grid) range selections.
    QueriesMd,
    /// SD+ (per-dimension intersection) range selections.
    QueriesSdplus,
    /// Conjunction selections (mixed predicate lists).
    QueriesConjunction,
    /// Total QPF uses spent by engine queries (sum of per-query deltas).
    QueryQpfUses,
    /// QPF uses spent locating NS-pairs (QFilter probes + BETWEEN hunts).
    FilterProbes,
    /// Tuples inside NS-pair partitions handed to QScan (the paper's
    /// "not-sure" width — the irreducible per-query work).
    NsWidth,
    /// `try_eval_batch` calls issued by the core pipelines.
    OracleBatches,
    /// Partitions resolved by label to *true* without scanning.
    PartitionsPrunedTrue,
    /// Partitions resolved by label to *false* without scanning.
    PartitionsPrunedFalse,
    /// Overflow (parked) tuples scanned per query.
    OverflowScanned,
    /// Partition splits applied by `updatePRKB`.
    Splits,
    /// Tuples inserted through the engine.
    Inserts,
    /// Inserts that could not be pinned to a partition and were parked.
    InsertsParked,
    /// QPF uses spent deciding insert positions.
    InsertQpfUses,
    /// Transactions appended to the durability WAL.
    WalTxns,
    /// Bytes appended to the durability WAL.
    WalBytes,
    /// Checkpoints written by the durable engine.
    Checkpoints,
    /// Oracle calls retried by a `RetryOracle`-style wrapper.
    OracleRetries,
    /// Circuit-breaker trips observed at the oracle boundary.
    CircuitTrips,
    /// Calls rejected fast by an open circuit.
    FastFails,
    /// Faults injected by a `FaultInjector` (test/chaos runs).
    FaultsInjected,
    /// Warm-up runs that hit their query cap below the target k.
    WarmupUnderTarget,
    /// Requests served by `prkb-server` (every decoded wire request).
    ServerRequests,
    /// Bytes moved across the server's wire protocol (frames in + out,
    /// headers included).
    ServerBytes,
    /// Malformed wire frames rejected by the server (bad CRC, oversized,
    /// truncated, or undecodable payloads).
    FrameErrors,
    /// Group-commit batches flushed by shard committers (one fsync each
    /// unless retried).
    GroupCommitBatches,
    /// Refinement records made durable through group-commit batches.
    GroupCommitRecords,
    /// fsyncs issued by group-commit flushes (`records / fsyncs` is the
    /// amortization factor the sharded pool exists for).
    GroupCommitFsyncs,
    /// Connections shed with `BUSY` by the server's admission gate instead
    /// of queueing beyond its bound.
    BusyRejections,
    /// Requests that exceeded their `deadline_ms` budget and were answered
    /// with `DEADLINE` (checked at scheduler checkout and between oracle
    /// batches).
    DeadlineTimeouts,
    /// Wire-level attempts retried by a `PrkbClient` retry policy
    /// (reconnects after transport faults, `BUSY`, or frame damage).
    NetRetries,
    /// Requests answered by replaying a committed response from the
    /// server's idempotency window instead of re-executing.
    DedupHits,
    /// Network faults injected by the chaos harness (test/chaos runs).
    NetFaultsInjected,
    /// Storage I/O faults injected by `FaultFs` (test/fault-sweep runs).
    IoFaultsInjected,
    /// Failed `sync_data`/`sync_all` barriers surfaced as
    /// `DurabilityError::SyncFailed` (never acknowledged as durable).
    SyncFailures,
    /// WAL / shard-committer handles permanently poisoned by an I/O or
    /// injected-crash failure (each transition counted once).
    WalPoisoned,
    /// Integrity-scrub passes started (`scrub()` or `examples/scrub`).
    ScrubRuns,
    /// Hard damage found by scrub passes: mid-log corruption, checkpoint
    /// rot, manifest mismatch, or unreadable files (torn tails are normal
    /// crash residue and not counted).
    ScrubCorruptions,
    /// Files moved into a `quarantine/` subdirectory by scrub passes.
    QuarantinedFiles,
    /// Times the server reactor's `epoll_wait` returned with events (each
    /// return may carry many connections' readiness — the whole point of
    /// retiring per-connection poll ticks).
    EpollWakeups,
    /// Live segment files across open durable engines — a gauge kept
    /// current via [`MetricsRegistry::set`] after every rotation.
    SegmentsLive,
    /// Bytes written into published segment files by O(delta) flushes.
    SegmentFlushBytes,
    /// Milliseconds spent in recovery (`recover_dir`), cumulative.
    RecoveryMs,
}

impl Metric {
    /// All counters, in schema order.
    pub const ALL: [Metric; COUNTER_COUNT] = [
        Metric::QueriesComparison,
        Metric::QueriesBetween,
        Metric::QueriesMd,
        Metric::QueriesSdplus,
        Metric::QueriesConjunction,
        Metric::QueryQpfUses,
        Metric::FilterProbes,
        Metric::NsWidth,
        Metric::OracleBatches,
        Metric::PartitionsPrunedTrue,
        Metric::PartitionsPrunedFalse,
        Metric::OverflowScanned,
        Metric::Splits,
        Metric::Inserts,
        Metric::InsertsParked,
        Metric::InsertQpfUses,
        Metric::WalTxns,
        Metric::WalBytes,
        Metric::Checkpoints,
        Metric::OracleRetries,
        Metric::CircuitTrips,
        Metric::FastFails,
        Metric::FaultsInjected,
        Metric::WarmupUnderTarget,
        Metric::ServerRequests,
        Metric::ServerBytes,
        Metric::FrameErrors,
        Metric::GroupCommitBatches,
        Metric::GroupCommitRecords,
        Metric::GroupCommitFsyncs,
        Metric::BusyRejections,
        Metric::DeadlineTimeouts,
        Metric::NetRetries,
        Metric::DedupHits,
        Metric::NetFaultsInjected,
        Metric::IoFaultsInjected,
        Metric::SyncFailures,
        Metric::WalPoisoned,
        Metric::ScrubRuns,
        Metric::ScrubCorruptions,
        Metric::QuarantinedFiles,
        Metric::EpollWakeups,
        Metric::SegmentsLive,
        Metric::SegmentFlushBytes,
        Metric::RecoveryMs,
    ];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Metric::QueriesComparison => "queries_comparison",
            Metric::QueriesBetween => "queries_between",
            Metric::QueriesMd => "queries_md",
            Metric::QueriesSdplus => "queries_sdplus",
            Metric::QueriesConjunction => "queries_conjunction",
            Metric::QueryQpfUses => "query_qpf_uses",
            Metric::FilterProbes => "filter_probes",
            Metric::NsWidth => "ns_width",
            Metric::OracleBatches => "oracle_batches",
            Metric::PartitionsPrunedTrue => "partitions_pruned_true",
            Metric::PartitionsPrunedFalse => "partitions_pruned_false",
            Metric::OverflowScanned => "overflow_scanned",
            Metric::Splits => "splits",
            Metric::Inserts => "inserts",
            Metric::InsertsParked => "inserts_parked",
            Metric::InsertQpfUses => "insert_qpf_uses",
            Metric::WalTxns => "wal_txns",
            Metric::WalBytes => "wal_bytes",
            Metric::Checkpoints => "checkpoints",
            Metric::OracleRetries => "oracle_retries",
            Metric::CircuitTrips => "circuit_trips",
            Metric::FastFails => "fast_fails",
            Metric::FaultsInjected => "faults_injected",
            Metric::WarmupUnderTarget => "warmup_under_target",
            Metric::ServerRequests => "server_requests",
            Metric::ServerBytes => "server_bytes",
            Metric::FrameErrors => "frame_errors",
            Metric::GroupCommitBatches => "group_commit_batches",
            Metric::GroupCommitRecords => "group_commit_records",
            Metric::GroupCommitFsyncs => "group_commit_fsyncs",
            Metric::BusyRejections => "busy_rejections",
            Metric::DeadlineTimeouts => "deadline_timeouts",
            Metric::NetRetries => "net_retries",
            Metric::DedupHits => "dedup_hits",
            Metric::NetFaultsInjected => "net_faults_injected",
            Metric::IoFaultsInjected => "io_faults_injected",
            Metric::SyncFailures => "sync_failures",
            Metric::WalPoisoned => "wal_poisoned",
            Metric::ScrubRuns => "scrub_runs",
            Metric::ScrubCorruptions => "scrub_corruptions",
            Metric::QuarantinedFiles => "quarantined_files",
            Metric::EpollWakeups => "epoll_wakeups",
            Metric::SegmentsLive => "segments_live",
            Metric::SegmentFlushBytes => "segment_flush_bytes",
            Metric::RecoveryMs => "recovery_ms",
        }
    }

    fn index(self) -> usize {
        Metric::ALL
            .iter()
            .position(|&m| m == self)
            .expect("metric listed in ALL")
    }
}

/// The log-scale histograms the registry tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramId {
    /// QPF uses per engine query.
    QpfPerQuery,
    /// NS-pair tuple count per engine query.
    NsWidthPerQuery,
    /// Bytes per WAL transaction.
    WalTxnBytes,
    /// Microseconds a session spent waiting to check out its shard locks
    /// (summed over the shards of one checkout).
    ShardLockWaitUs,
    /// Pipelined requests already queued on a connection when one more
    /// frame arrived (0 = strictly request/response clients).
    PipelinedDepth,
    /// Microseconds a decoded request waited in the reactor's bounded work
    /// queue before a worker picked it up.
    ReactorQueueWaitUs,
}

/// Number of histograms (length of [`HistogramId::ALL`]).
const HISTOGRAM_COUNT: usize = 6;

impl HistogramId {
    /// All histograms, in schema order.
    pub const ALL: [HistogramId; HISTOGRAM_COUNT] = [
        HistogramId::QpfPerQuery,
        HistogramId::NsWidthPerQuery,
        HistogramId::WalTxnBytes,
        HistogramId::ShardLockWaitUs,
        HistogramId::PipelinedDepth,
        HistogramId::ReactorQueueWaitUs,
    ];

    /// Stable snake_case name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::QpfPerQuery => "qpf_per_query",
            HistogramId::NsWidthPerQuery => "ns_width_per_query",
            HistogramId::WalTxnBytes => "wal_txn_bytes",
            HistogramId::ShardLockWaitUs => "shard_lock_wait_us",
            HistogramId::PipelinedDepth => "pipelined_depth",
            HistogramId::ReactorQueueWaitUs => "reactor_queue_wait_us",
        }
    }

    fn index(self) -> usize {
        HistogramId::ALL
            .iter()
            .position(|&h| h == self)
            .expect("histogram listed in ALL")
    }
}

/// Number of log₂ buckets per histogram. Bucket `i > 0` counts values `v`
/// with `2^(i-1) <= v < 2^i`; bucket 0 counts `v == 0`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Maps a value to its log₂ bucket index.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A fixed-size log₂ histogram over `u64` values.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn load(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while out.len() > 1 && *out.last().unwrap() == 0 {
            out.pop();
        }
        out
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// What kind of query a [`QueryStats`] breakdown came from; selects the
/// `queries_*` counter bumped by [`MetricsRegistry::record_query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Single comparison (`<`, `<=`, `>`, `>=`).
    Comparison,
    /// BETWEEN range on one attribute.
    Between,
    /// Multi-dimensional grid (MD) range.
    Md,
    /// SD+ per-dimension intersection range.
    Sdplus,
    /// Conjunction of mixed predicates.
    Conjunction,
}

impl QueryKind {
    fn counter(self) -> Metric {
        match self {
            QueryKind::Comparison => Metric::QueriesComparison,
            QueryKind::Between => Metric::QueriesBetween,
            QueryKind::Md => Metric::QueriesMd,
            QueryKind::Sdplus => Metric::QueriesSdplus,
            QueryKind::Conjunction => Metric::QueriesConjunction,
        }
    }
}

/// The registry: a fixed array of atomic counters plus log₂ histograms.
///
/// Use [`global`] for the process-wide instance, or construct a private one
/// for isolated tests.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; COUNTER_COUNT],
    histograms: [Histogram; HISTOGRAM_COUNT],
    /// Engine-pool shard count gauge (0 = no pool registered yet).
    shards: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| Histogram::new()),
            shards: AtomicU64::new(0),
        }
    }

    /// Publishes the engine-pool shard count into the snapshot header
    /// (`"shards"` in `prkb-metrics/v7`). A gauge, not a counter: set at
    /// pool construction, untouched by [`reset`](Self::reset).
    pub fn set_shards(&self, n: u64) {
        self.shards.store(n, Ordering::Relaxed);
    }

    /// The published engine-pool shard count (0 = none registered).
    pub fn shards(&self) -> u64 {
        self.shards.load(Ordering::Relaxed)
    }

    /// Adds `delta` to a counter (relaxed; safe from any thread).
    pub fn add(&self, m: Metric, delta: u64) {
        if delta != 0 {
            self.counters[m.index()].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value of a counter.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m.index()].load(Ordering::Relaxed)
    }

    /// Stores an absolute value — for the few metrics that are gauges
    /// (e.g. [`Metric::SegmentsLive`]) rather than monotonic counters.
    pub fn set(&self, m: Metric, v: u64) {
        self.counters[m.index()].store(v, Ordering::Relaxed);
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, h: HistogramId, v: u64) {
        self.histograms[h.index()].observe(v);
    }

    /// Records a finished engine query: bumps the per-kind counter, the
    /// cost breakdown counters, and the per-query histograms.
    pub fn record_query(&self, kind: QueryKind, stats: &QueryStats) {
        self.add(kind.counter(), 1);
        self.add(Metric::QueryQpfUses, stats.qpf_uses);
        self.add(Metric::FilterProbes, stats.filter_probes);
        self.add(Metric::NsWidth, stats.ns_width);
        self.add(Metric::OracleBatches, stats.oracle_batches);
        self.add(Metric::PartitionsPrunedTrue, stats.pruned_true as u64);
        self.add(Metric::PartitionsPrunedFalse, stats.pruned_false as u64);
        self.add(Metric::OverflowScanned, stats.overflow_scanned as u64);
        self.add(Metric::Splits, stats.splits as u64);
        self.observe(HistogramId::QpfPerQuery, stats.qpf_uses);
        self.observe(HistogramId::NsWidthPerQuery, stats.ns_width);
    }

    /// Records a finished engine insert.
    pub fn record_insert(&self, qpf_uses: u64, parked: bool) {
        self.add(Metric::Inserts, 1);
        self.add(Metric::InsertQpfUses, qpf_uses);
        if parked {
            self.add(Metric::InsertsParked, 1);
        }
    }

    /// Records one WAL transaction append of `bytes` bytes.
    pub fn record_wal_txn(&self, bytes: u64) {
        self.add(Metric::WalTxns, 1);
        self.add(Metric::WalBytes, bytes);
        self.observe(HistogramId::WalTxnBytes, bytes);
    }

    /// Records oracle-boundary fault events (cumulative deltas from a
    /// `RetryOracle` / `FaultInjector` pair).
    pub fn record_fault_events(&self, retries: u64, trips: u64, fast_fails: u64, injected: u64) {
        self.add(Metric::OracleRetries, retries);
        self.add(Metric::CircuitTrips, trips);
        self.add(Metric::FastFails, fast_fails);
        self.add(Metric::FaultsInjected, injected);
    }

    /// Takes a point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            shards: self.shards(),
            counters: Metric::ALL
                .iter()
                .map(|&m| (m.name(), self.get(m)))
                .collect(),
            histograms: HistogramId::ALL
                .iter()
                .map(|&h| (h.name(), self.histograms[h.index()].load()))
                .collect(),
        }
    }

    /// Zeroes every counter and histogram. Not linearizable against
    /// concurrent writers — intended for test isolation and between
    /// benchmark phases.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for h in &self.histograms {
            h.reset();
        }
    }
}

/// The process-wide registry the engine and durability layer record into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A point-in-time copy of the registry, renderable as `prkb-metrics/v7`
/// JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Engine-pool shard count at snapshot time (0 = none registered).
    pub shards: u64,
    /// `(name, value)` for every counter, in schema order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, buckets)` for every histogram; trailing zero buckets are
    /// trimmed (a fresh histogram keeps one zero bucket).
    pub histograms: Vec<(&'static str, Vec<u64>)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by schema name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram's buckets by schema name.
    pub fn histogram(&self, name: &str) -> Option<&[u64]> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Renders the stable `prkb-metrics/v7` JSON document:
    ///
    /// ```json
    /// {"schema":"prkb-metrics/v7",
    ///  "shards":8,
    ///  "counters":{"queries_comparison":3,...},
    ///  "histograms":{"qpf_per_query":[0,1,2],...}}
    /// ```
    ///
    /// Counter names never change meaning; new names may be appended.
    /// Histogram arrays are log₂ buckets (index 0 = value 0, index i =
    /// values in `[2^(i-1), 2^i)`), trailing zeros trimmed. v7 removed
    /// three v6 counters; v6 added the segmented-checkpoint counters; v5
    /// the server-reactor metrics; v4 the storage-robustness counters; v3 the service-resilience
    /// counters; v2 added the `shards` header field and the
    /// group-commit/shard-wait metrics; v1 documents differ only by
    /// schema tag and the absent header field.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"prkb-metrics/v7\",\"shards\":");
        s.push_str(&self.shards.to_string());
        s.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(name);
            s.push_str("\":");
            s.push_str(&v.to_string());
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, buckets)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(name);
            s.push_str("\":[");
            for (j, b) in buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&b.to_string());
            }
            s.push(']');
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let reg = MetricsRegistry::new();
        reg.add(Metric::QueriesComparison, 2);
        reg.add(Metric::QueriesComparison, 3);
        assert_eq!(reg.get(Metric::QueriesComparison), 5);
        reg.reset();
        assert_eq!(reg.get(Metric::QueriesComparison), 0);
    }

    #[test]
    fn set_overwrites_gauge_value() {
        let reg = MetricsRegistry::new();
        reg.set(Metric::SegmentsLive, 7);
        assert_eq!(reg.get(Metric::SegmentsLive), 7);
        reg.set(Metric::SegmentsLive, 2);
        assert_eq!(reg.get(Metric::SegmentsLive), 2);
    }

    #[test]
    fn record_query_bumps_breakdown() {
        let reg = MetricsRegistry::new();
        let stats = QueryStats {
            qpf_uses: 10,
            k_before: 4,
            k_after: 5,
            splits: 1,
            filter_probes: 3,
            ns_width: 7,
            oracle_batches: 2,
            pruned_true: 2,
            pruned_false: 1,
            overflow_scanned: 4,
        };
        reg.record_query(QueryKind::Between, &stats);
        assert_eq!(reg.get(Metric::QueriesBetween), 1);
        assert_eq!(reg.get(Metric::QueryQpfUses), 10);
        assert_eq!(reg.get(Metric::FilterProbes), 3);
        assert_eq!(reg.get(Metric::NsWidth), 7);
        assert_eq!(reg.get(Metric::OracleBatches), 2);
        assert_eq!(reg.get(Metric::PartitionsPrunedTrue), 2);
        assert_eq!(reg.get(Metric::PartitionsPrunedFalse), 1);
        assert_eq!(reg.get(Metric::OverflowScanned), 4);
        assert_eq!(reg.get(Metric::Splits), 1);
        let snap = reg.snapshot();
        // qpf=10 lands in bucket 4 ([8,16)); ns=7 in bucket 3 ([4,8)).
        assert_eq!(snap.histogram("qpf_per_query").unwrap()[4], 1);
        assert_eq!(snap.histogram("ns_width_per_query").unwrap()[3], 1);
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let reg = MetricsRegistry::new();
        reg.record_insert(6, true);
        reg.record_wal_txn(100);
        reg.record_fault_events(1, 0, 2, 3);
        reg.set_shards(8);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"prkb-metrics/v7\",\"shards\":8,\"counters\":{"));
        assert!(json.contains("\"segments_live\":0"));
        assert!(json.contains("\"segment_flush_bytes\":0"));
        assert!(json.contains("\"recovery_ms\":0"));
        assert!(json.contains("\"inserts\":1"));
        assert!(json.contains("\"inserts_parked\":1"));
        assert!(json.contains("\"insert_qpf_uses\":6"));
        assert!(json.contains("\"wal_txns\":1"));
        assert!(json.contains("\"wal_bytes\":100"));
        assert!(json.contains("\"oracle_retries\":1"));
        assert!(json.contains("\"fast_fails\":2"));
        assert!(json.contains("\"faults_injected\":3"));
        assert!(json.contains("\"busy_rejections\":0"));
        assert!(json.contains("\"deadline_timeouts\":0"));
        assert!(json.contains("\"net_retries\":0"));
        assert!(json.contains("\"dedup_hits\":0"));
        assert!(json.contains("\"net_faults_injected\":0"));
        assert!(json.contains("\"wal_txn_bytes\":[0,0,0,0,0,0,0,1]"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn every_metric_has_unique_name() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|&m| m.name()).collect();
        names.extend(HistogramId::ALL.iter().map(|&h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }

    #[test]
    fn trailing_zero_buckets_trimmed() {
        let reg = MetricsRegistry::new();
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("qpf_per_query").unwrap(), &[0]);
        reg.observe(HistogramId::QpfPerQuery, 5);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("qpf_per_query").unwrap(), &[0, 0, 0, 1]);
    }
}
