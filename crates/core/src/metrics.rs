//! Process-wide cost observability: atomic counters and log-scale
//! histograms for every expensive thing the PRKB pipeline does.
//!
//! The paper's entire argument is a cost claim (QFilter/QScan answer a
//! selection in O(lg k) + NS-pair QPF uses instead of n), so costs must be
//! first-class data, not log lines. This module is deliberately
//! zero-dependency and cheap: every counter is a relaxed [`AtomicU64`]
//! increment (~1 ns, no locks, no allocation), so leaving the registry
//! unread costs nothing measurable. Snapshots ([`MetricsSnapshot`]) render
//! to a stable, hand-rolled JSON schema (`prkb-metrics/v8`) suitable for
//! dashboards and CI artifacts.
//!
//! Names never change meaning; the schema version moves when the key set
//! does (CHANGES.md, PR 19, lists what each version added or removed).
//!
//! ```
//! use prkb_core::metrics;
//!
//! let reg = metrics::global();
//! reg.add(metrics::Metric::QueriesComparison, 1);
//! let snap = reg.snapshot();
//! assert!(snap.counter("queries_comparison").unwrap() >= 1);
//! assert!(snap.to_json().starts_with("{\"schema\":\"prkb-metrics/v8\""));
//! ```

use crate::selection::QueryStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Declares a schema enum from one table of `/// doc  Variant => "name"`
/// rows: the enum itself (a variant's discriminant is its row number, so
/// it indexes the registry's arrays directly), `ALL` in table order, and
/// the stable snake_case `name()` the JSON schema uses. A metric is stated
/// here once; nothing else lists them.
macro_rules! schema_enum {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident { $($(#[$doc:meta])* $variant:ident => $name:literal,)+ }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty { $($(#[$doc])* $variant,)+ }

        impl $ty {
            /// Every variant, in schema order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$variant),+];

            /// Stable snake_case name used in the JSON schema.
            pub fn name(self) -> &'static str {
                match self { $($ty::$variant => $name,)+ }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

schema_enum! {
    /// Every counter the registry tracks. Names (via [`Metric::name`]) are
    /// part of the `prkb-metrics/v8` JSON schema: never rename, only append.
    pub enum Metric {
        /// Selects of one comparison trapdoor.
        QueriesComparison => "queries_comparison",
        /// Selects of one BETWEEN trapdoor.
        QueriesBetween => "queries_between",
        /// Box selects: exactly two comparison trapdoors per attribute.
        QueriesMd => "queries_md",
        /// Retired, always 0 (SD+ runs in `prkb-bench`, one select per
        /// trapdoor); kept so that `prkb-metrics/v8` readers still parse.
        QueriesSdplus => "queries_sdplus",
        /// Every other select (mixed trapdoor lists).
        QueriesConjunction => "queries_conjunction",
        /// Total QPF uses spent by engine queries (sum of per-query deltas).
        QueryQpfUses => "query_qpf_uses",
        /// QPF uses spent locating NS-pairs (QFilter probes + BETWEEN hunts).
        FilterProbes => "filter_probes",
        /// Tuples inside NS-pair partitions handed to QScan (the paper's
        /// "not-sure" width — the irreducible per-query work).
        NsWidth => "ns_width",
        /// `try_eval_batch` calls issued by the core pipelines.
        OracleBatches => "oracle_batches",
        /// Partitions resolved by label to *true* without scanning.
        PartitionsPrunedTrue => "partitions_pruned_true",
        /// Partitions resolved by label to *false* without scanning.
        PartitionsPrunedFalse => "partitions_pruned_false",
        /// Overflow (parked) tuples scanned per query.
        OverflowScanned => "overflow_scanned",
        /// Partition splits applied by `updatePRKB`.
        Splits => "splits",
        /// Tuples inserted through the engine.
        Inserts => "inserts",
        /// Inserts that could not be pinned to a partition and were parked.
        InsertsParked => "inserts_parked",
        /// QPF uses spent deciding insert positions.
        InsertQpfUses => "insert_qpf_uses",
        /// Transactions appended to the durability WAL.
        WalTxns => "wal_txns",
        /// Bytes appended to the durability WAL.
        WalBytes => "wal_bytes",
        /// Checkpoints written by the durable engine.
        Checkpoints => "checkpoints",
        /// Requests served by `prkb-server` (every decoded wire request).
        ServerRequests => "server_requests",
        /// Bytes moved across the server's wire protocol (frames in + out,
        /// headers included).
        ServerBytes => "server_bytes",
        /// Malformed wire frames rejected by the server (bad CRC, oversized,
        /// truncated, or undecodable payloads).
        FrameErrors => "frame_errors",
        /// Group-commit batches flushed by pool committers (one fsync each
        /// unless retried).
        GroupCommitBatches => "group_commit_batches",
        /// Refinement records made durable through group-commit batches.
        GroupCommitRecords => "group_commit_records",
        /// fsyncs issued by group-commit flushes (`records / fsyncs` is the
        /// amortization factor group commit exists for).
        GroupCommitFsyncs => "group_commit_fsyncs",
        /// Connections shed with `BUSY` by the server's admission gate instead
        /// of queueing beyond its bound.
        BusyRejections => "busy_rejections",
        /// Requests that exceeded their `deadline_ms` budget and were answered
        /// with `DEADLINE` (checked at scheduler checkout and between oracle
        /// batches).
        DeadlineTimeouts => "deadline_timeouts",
        /// Requests answered by replaying a committed response from the
        /// server's idempotency window instead of re-executing.
        DedupHits => "dedup_hits",
        /// Failed `sync_data`/`sync_all` barriers surfaced as
        /// `DurabilityError::SyncFailed` (never acknowledged as durable).
        SyncFailures => "sync_failures",
        /// WAL / pool-committer handles permanently poisoned by an I/O or
        /// injected-crash failure (each transition counted once).
        WalPoisoned => "wal_poisoned",
        /// Integrity-scrub passes started (`scrub()` or `examples/scrub`).
        ScrubRuns => "scrub_runs",
        /// Hard damage found by scrub passes: mid-log corruption, manifest
        /// mismatch, torn or rotted segments, stray temp files, or unreadable
        /// files (torn tails and stray segments are normal crash residue and
        /// not counted).
        ScrubCorruptions => "scrub_corruptions",
        /// Files moved into a `quarantine/` subdirectory by scrub passes.
        QuarantinedFiles => "quarantined_files",
        /// Readiness events the server threads' waits returned: a wait hands
        /// out at most one, so this is the waits that ended with an event
        /// (a served connection, an accept, or the shutdown wake).
        EpollWakeups => "epoll_wakeups",
        /// Live segment files across open durable engines — a gauge kept
        /// current via `MetricsRegistry::set` after every rotation.
        SegmentsLive => "segments_live",
        /// Bytes written into published segment files by O(delta) flushes.
        SegmentFlushBytes => "segment_flush_bytes",
        /// Milliseconds spent opening pools (read and apply phases), cumulative.
        RecoveryMs => "recovery_ms",
    }
}

schema_enum! {
    /// The log-scale histograms the registry tracks.
    pub enum HistogramId {
        /// QPF uses per engine query.
        QpfPerQuery => "qpf_per_query",
        /// NS-pair tuple count per engine query.
        NsWidthPerQuery => "ns_width_per_query",
        /// Bytes per WAL transaction.
        WalTxnBytes => "wal_txn_bytes",
        /// Microseconds a session spent waiting to lock its checkout's
        /// footprint (summed over the attributes of one checkout).
        LockWaitUs => "shard_lock_wait_us",
        /// Frames of the same connection a server thread had already answered
        /// in one turn when it decoded one more — the requests pipelined
        /// ahead of it (0 = strictly request/response clients).
        PipelinedDepth => "pipelined_depth",
        /// Retired, observed by nothing: a request runs on the thread that
        /// read it, with no work queue to wait in. Kept because
        /// `prkb_e2e` reads it (`server.reactor.queue_wait_p50_us`); it
        /// retires with that reader at ROADMAP item 8(b)'s schema bump.
        ReactorQueueWaitUs => "reactor_queue_wait_us",
    }
}

/// Number of log₂ buckets per histogram. Bucket `i > 0` counts values `v`
/// with `2^(i-1) <= v < 2^i`; bucket 0 counts `v == 0`.
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

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
pub(crate) struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation.
    pub(crate) fn observe(&self, v: u64) {
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
pub(crate) enum QueryKind {
    /// One comparison trapdoor (`<`, `<=`, `>`, `>=`).
    Comparison,
    /// One BETWEEN trapdoor.
    Between,
    /// A box: exactly two comparison trapdoors on every attribute named.
    Md,
    /// Any other list of trapdoors, the empty one included.
    Conjunction,
}

impl QueryKind {
    fn counter(self) -> Metric {
        match self {
            QueryKind::Comparison => Metric::QueriesComparison,
            QueryKind::Between => Metric::QueriesBetween,
            QueryKind::Md => Metric::QueriesMd,
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
    counters: [AtomicU64; Metric::ALL.len()],
    histograms: [Histogram; HistogramId::ALL.len()],
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
        }
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
    pub(crate) fn set(&self, m: Metric, v: u64) {
        self.counters[m.index()].store(v, Ordering::Relaxed);
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, h: HistogramId, v: u64) {
        self.histograms[h.index()].observe(v);
    }

    /// Records a finished engine query: bumps the per-kind counter, the
    /// cost breakdown counters, and the per-query histograms.
    pub(crate) fn record_query(&self, kind: QueryKind, stats: &QueryStats) {
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
    pub(crate) fn record_insert(&self, qpf_uses: u64, parked: bool) {
        self.add(Metric::Inserts, 1);
        self.add(Metric::InsertQpfUses, qpf_uses);
        if parked {
            self.add(Metric::InsertsParked, 1);
        }
    }

    /// Records one WAL transaction append of `bytes` bytes.
    pub(crate) fn record_wal_txn(&self, bytes: u64) {
        self.add(Metric::WalTxns, 1);
        self.add(Metric::WalBytes, bytes);
        self.observe(HistogramId::WalTxnBytes, bytes);
    }

    /// Takes a point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
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

/// A point-in-time copy of the registry, renderable as `prkb-metrics/v8`
/// JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
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

    /// Renders the stable `prkb-metrics/v8` JSON document:
    ///
    /// ```json
    /// {"schema":"prkb-metrics/v8",
    ///  "shards":1,
    ///  "counters":{"queries_comparison":3,...},
    ///  "histograms":{"qpf_per_query":[0,1,2],...}}
    /// ```
    ///
    /// Counter names never change meaning; new names may be appended.
    /// Histogram arrays are log₂ buckets (index 0 = value 0, index i =
    /// values in `[2^(i-1), 2^i)`), trailing zeros trimmed. v8 removed
    /// eight v7 counters no product code incremented; v7 removed three v6
    /// counters; v6 added the segmented-checkpoint counters; v5
    /// the server-reactor metrics; v4 the storage-robustness counters; v3 the service-resilience
    /// counters; v2 added the `shards` header field and the
    /// group-commit/shard-wait metrics; v1 documents differ only by
    /// schema tag and the absent header field. The `shards` header is
    /// retired: it always reads 1 (one lock per attribute, no stripes) and
    /// is kept so that v8 readers still parse.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"prkb-metrics/v8\",\"shards\":1,\"counters\":{");
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
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"prkb-metrics/v8\",\"shards\":1,\"counters\":{"));
        assert!(json.contains("\"segments_live\":0"));
        assert!(json.contains("\"segment_flush_bytes\":0"));
        assert!(json.contains("\"recovery_ms\":0"));
        assert!(json.contains("\"inserts\":1"));
        assert!(json.contains("\"inserts_parked\":1"));
        assert!(json.contains("\"insert_qpf_uses\":6"));
        assert!(json.contains("\"wal_txns\":1"));
        assert!(json.contains("\"wal_bytes\":100"));
        assert!(json.contains("\"busy_rejections\":0"));
        assert!(json.contains("\"deadline_timeouts\":0"));
        assert!(json.contains("\"dedup_hits\":0"));
        assert!(json.contains("\"wal_txn_bytes\":[0,0,0,0,0,0,0,1]"));
        assert!(json.ends_with("}}"));
    }

    /// The whole `prkb-metrics/v8` document: every name, in schema order,
    /// once — v7's order with its eight dead counters gone.
    #[test]
    fn v8_document_is_pinned_byte_for_byte() {
        let reg = MetricsRegistry::new();
        for (i, &m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "a variant's discriminant is its row");
            reg.add(m, i as u64 + 1);
        }
        for (i, &h) in HistogramId::ALL.iter().enumerate() {
            assert_eq!(h.index(), i, "a variant's discriminant is its row");
            reg.observe(h, 1 << i);
        }
        let expected = concat!(
            r#"{"schema":"prkb-metrics/v8","shards":1,"counters":{"queries_comparison":1"#,
            r#","queries_between":2,"queries_md":3,"queries_sdplus":4,"queries_conjunction":5"#,
            r#","query_qpf_uses":6,"filter_probes":7,"ns_width":8,"oracle_batches":9"#,
            r#","partitions_pruned_true":10,"partitions_pruned_false":11,"overflow_scanned":12"#,
            r#","splits":13,"inserts":14,"inserts_parked":15,"insert_qpf_uses":16,"wal_txns":17"#,
            r#","wal_bytes":18,"checkpoints":19,"server_requests":20,"server_bytes":21"#,
            r#","frame_errors":22,"group_commit_batches":23,"group_commit_records":24"#,
            r#","group_commit_fsyncs":25,"busy_rejections":26,"deadline_timeouts":27"#,
            r#","dedup_hits":28,"sync_failures":29,"wal_poisoned":30,"scrub_runs":31"#,
            r#","scrub_corruptions":32,"quarantined_files":33,"epoll_wakeups":34,"segments_live":35"#,
            r#","segment_flush_bytes":36,"recovery_ms":37},"histograms":{"qpf_per_query":[0,1]"#,
            r#","ns_width_per_query":[0,0,1],"wal_txn_bytes":[0,0,0,1]"#,
            r#","shard_lock_wait_us":[0,0,0,0,1],"pipelined_depth":[0,0,0,0,0,1]"#,
            r#","reactor_queue_wait_us":[0,0,0,0,0,0,1]}}"#,
        );
        assert_eq!(reg.snapshot().to_json(), expected);
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
