//! The four workloads: what a round sets up, what it times, and how every
//! reply is checked against the plaintext table.
//!
//! A run is a sequence of *rounds*. Each round builds the served system
//! from nothing (that is `setup_s`), then two closed-loop clients — callers
//! of an EDBMS wait for their reply — each send a fixed, seeded list of
//! requests over their own connection, then the server drains and the
//! directory is reopened. The request count is fixed, not the duration:
//! with client `c` owning attributes `a(2c), a(2c+1)`, per-request
//! `QueryStats` then repeat exactly from run to run at the same seed, which
//! is what lets a QPF count be compared between two commits. A run repeats
//! its round as often as `--seconds` buys: the repetitions do identical
//! work, so the report can keep, window by window, the one the box
//! disturbed least.

use crate::gen::{self, label, Op, Request, Rng64, Truth, ATTRS, CLIENTS};
use crate::stats::SetSum;
use crate::sut::{self, Counts, Depth, Keys, Prepared, QueryStats, Tracing};
use crate::trace::{BusyTotals, Span};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmSelect,
    ColdStart,
    WideResult,
    Churn,
}

/// Rounds a run makes at least: a window of the request stream that the
/// box disturbed in one round is measured again in another.
const MIN_ROUNDS: usize = 2;

/// Sizes of one round. Frozen: changing one changes what every number in
/// `baselines/` means.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub rows: usize,
    /// 1-D 1 % ranges per attribute before the timed phase.
    pub warmup_per_attr: usize,
    pub ops_per_client: usize,
    /// Prefix of client 0's stream replayed at the three depths.
    pub replay_ops: usize,
    /// What one round (set-up, timed phase, drain, reopens, checks) took
    /// on the box the sizes were frozen on. `--seconds` buys
    /// `seconds / round_s` rounds — a fixed count, so that a run at a given
    /// seed always does the same work.
    pub round_s: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmSelect,
        Workload::ColdStart,
        Workload::WideResult,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSelect => "warm_select",
            Workload::ColdStart => "cold_start",
            Workload::WideResult => "wide_result",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn plan(self, smoke: bool) -> Plan {
        if smoke {
            let warmup_per_attr = if self == Workload::ColdStart { 0 } else { 20 };
            return Plan {
                rows: 2_000,
                warmup_per_attr,
                ops_per_client: 50,
                replay_ops: 25,
                round_s: f64::INFINITY, // the fewest rounds
            };
        }
        match self {
            Workload::WarmSelect => Plan {
                rows: 60_000,
                warmup_per_attr: 150,
                ops_per_client: 1_800,
                replay_ops: 600,
                round_s: 4.0,
            },
            Workload::ColdStart => Plan {
                rows: 200_000,
                warmup_per_attr: 0,
                ops_per_client: 170,
                replay_ops: 60,
                round_s: 4.7,
            },
            // Mean reply is rows/2 ids, the largest rows - 1: one frame
            // holds `sut::MAX_REPLY_IDS` (262 112), so rows stays below.
            Workload::WideResult => Plan {
                rows: 60_000,
                warmup_per_attr: 150,
                ops_per_client: 1_000,
                replay_ops: 300,
                round_s: 4.1,
            },
            Workload::Churn => Plan {
                rows: 60_000,
                warmup_per_attr: 150,
                ops_per_client: 3_000,
                replay_ops: 1_000,
                round_s: 4.5,
            },
        }
    }

    /// Rounds a run of `seconds` makes: as many as fit at `round_s` each,
    /// and at least `MIN_ROUNDS`.
    pub fn rounds(self, seconds: u64, smoke: bool) -> usize {
        let rounds = seconds as f64 / self.plan(smoke).round_s;
        (rounds.round() as usize).max(MIN_ROUNDS)
    }

    fn stream(self, seed: u64, client: usize, ops: usize) -> Vec<Request> {
        match self {
            Workload::WarmSelect => gen::warm_select_stream(seed, client, ops),
            Workload::ColdStart => gen::cold_start_stream(seed, client, ops),
            Workload::WideResult => gen::wide_result_stream(seed, client, ops),
            Workload::Churn => gen::churn_stream(seed, client, ops),
        }
    }
}

/// What a run derives from `--seed` once: the plaintext table and the
/// owner's keys. Every round of the run serves this table.
pub struct Table {
    pub workload: Workload,
    pub seed: u64,
    pub plan: Plan,
    pub truth: Truth,
    pub keys: Keys,
}

impl Table {
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Self {
        let plan = workload.plan(smoke);
        assert!(
            plan.rows <= sut::MAX_REPLY_IDS,
            "a reply must fit one frame"
        );
        Table {
            workload,
            seed,
            plan,
            truth: Truth::new(gen::columns(seed, plan.rows)),
            keys: Keys::new(Rng64::derive(seed, label::KEYS).next()),
        }
    }

    /// The owner's upload: the table, encrypted (same ciphertexts every
    /// time).
    pub fn encrypt(&self) -> sut::EncryptedTable {
        let mut rng = Rng64::derive(self.seed, label::ENCRYPT);
        self.keys.encrypt_table(self.truth.columns(), &mut rng)
    }
}

/// A run's requests (a warm-up list per attribute and a timed list per
/// client), drawn from `--seed`, with their trapdoors issued and the
/// warm-up's answers worked out. Every round of the run sends exactly
/// these. None of this is set-up of the system under test, so none of it
/// is in `setup_s`.
pub struct Inputs<'a> {
    pub table: &'a Table,
    /// Seed of the request lists.
    pub stream_seed: u64,
    /// Per attribute: warm-up requests with their expected answers.
    warmup: Vec<Vec<(Prepared, SetSum)>>,
    /// Per client: the timed requests, plain and with trapdoors issued.
    pub requests: Vec<Vec<Request>>,
    pub prepared: Vec<Vec<Prepared>>,
    /// Seconds spent here (part of `bench.verify_s`).
    pub prepare_s: f64,
}

impl<'a> Inputs<'a> {
    pub fn new(table: &'a Table) -> Self {
        let start = Instant::now();
        let (plan, keys) = (table.plan, &table.keys);
        let stream_seed = Rng64::derive(table.seed, label::STREAM).next();
        // One generator issues every trapdoor, in a fixed order, so that
        // trapdoor ids and nonces do not depend on thread timing.
        let mut rng = Rng64::derive(stream_seed, label::KEYS);
        let warmup = (0..ATTRS as u32)
            .map(|attr| {
                gen::warmup_stream(stream_seed, attr, plan.warmup_per_attr)
                    .iter()
                    .map(|r| (keys.prepare(r, &mut rng), table.truth.expected(&r.op)))
                    .collect()
            })
            .collect();
        let requests: Vec<Vec<Request>> = (0..CLIENTS)
            .map(|c| table.workload.stream(stream_seed, c, plan.ops_per_client))
            .collect();
        let prepared = requests
            .iter()
            .map(|reqs| reqs.iter().map(|r| keys.prepare(r, &mut rng)).collect())
            .collect();
        Inputs {
            table,
            stream_seed,
            warmup,
            requests,
            prepared,
            prepare_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// What one request came back with.
#[derive(Debug)]
pub enum Outcome {
    /// `base` fingerprints the returned ids below the base row count;
    /// `extra` lists the others (rows inserted during `churn`).
    Read {
        base: SetSum,
        extra: Vec<u32>,
        stats: QueryStats,
    },
    Inserted {
        tuple: u32,
    },
    Deleted,
    Failed(String),
}

#[derive(Debug)]
pub struct OpRecord {
    pub latency_ns: u64,
    /// From the client's start to when it was ready for its next request
    /// (reply fingerprinted): what a window of the stream took is the
    /// difference of two of these.
    pub end_ns: u64,
    pub outcome: Outcome,
}

/// One client's record of a phase.
#[derive(Debug)]
pub struct ClientLog {
    pub ops: Vec<OpRecord>,
    /// Oracle work a traced client drained after its own requests.
    pub oracle: BusyTotals,
    pub started: Instant,
    pub ended: Instant,
}

fn span_name(req: &Prepared) -> &'static str {
    match req {
        Prepared::Select { .. } => "client.cmp",
        Prepared::Between { .. } => "client.between",
        Prepared::RangeMd { dims, .. } if dims.len() == 1 => "client.range1d",
        Prepared::RangeMd { .. } => "client.range2d",
        Prepared::Insert { .. } => "client.insert",
        Prepared::Delete { .. } => "client.delete",
    }
}

enum Done {
    Read(sut::Reply),
    Inserted(u32),
    Deleted,
}

/// Sends the first `ops` requests of `client` one after the other through
/// `depth`, timing each call.
/// A reply is fingerprinted right after its call returns, outside the
/// call's latency; the next request waits for that, as it would for a
/// caller that reads its result.
pub fn drive(
    depth: &mut dyn Depth,
    inputs: &Inputs,
    client: usize,
    ops: usize,
    tracing: Option<&Tracing>,
) -> ClientLog {
    let (requests, prepared) = (
        &inputs.requests[client][..ops],
        &inputs.prepared[client][..ops],
    );
    let rows = inputs.table.plan.rows as u32;
    let mut row_rng = Rng64::derive(inputs.stream_seed, label::CLIENT_ROWS + client as u64);
    let mut own_tuples: Vec<u32> = Vec::new();
    let mut ops = Vec::with_capacity(prepared.len());
    let mut oracle = BusyTotals::default();
    let started = Instant::now();
    for (i, (req, plain)) in prepared.iter().zip(requests).enumerate() {
        let span_start = tracing.map(|t| t.log.now_ns());
        let start = Instant::now();
        let done = match req {
            Prepared::Insert { row } => {
                // The client's share of an insert: encrypt the row.
                let cells = inputs.table.keys.encrypt_row(row, &mut row_rng);
                depth.insert(&cells).map(Done::Inserted)
            }
            Prepared::Delete { nth } => depth.delete(own_tuples[*nth]).map(|()| Done::Deleted),
            read => depth.read(read).map(Done::Read),
        };
        let latency_ns = start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(span_start)) = (tracing, span_start) {
            let ids = match &done {
                Ok(Done::Read(reply)) => reply.tuples.len() as u64,
                _ => 0,
            };
            let call = t.log.record(
                0,
                span_name(req),
                span_start,
                span_start + latency_ns,
                i as u32,
                ids,
            );
            // The oracle work this request caused, as one child span. (In
            // `churn` a concurrent insert can drain a read's share first:
            // totals stay exact, the split between two requests may not.)
            let mut busy = BusyTotals::default();
            for attr in plain.op.attrs() {
                busy.absorb(t.oracle.per_attr[attr as usize].drain());
            }
            if busy.calls > 0 {
                let first = busy.first_ns.max(span_start);
                t.log.record(
                    call,
                    "oracle",
                    first,
                    first + busy.busy_ns,
                    client as u32,
                    busy.count,
                );
                oracle.absorb(busy);
            }
        }
        let outcome = match done {
            Ok(Done::Read(reply)) => {
                let mut base = SetSum::default();
                let mut extra = Vec::new();
                for id in reply.tuples {
                    if id < rows {
                        base.add(id);
                    } else {
                        extra.push(id);
                    }
                }
                Outcome::Read {
                    base,
                    extra,
                    stats: reply.stats,
                }
            }
            Ok(Done::Inserted(tuple)) => {
                own_tuples.push(tuple);
                Outcome::Inserted { tuple }
            }
            Ok(Done::Deleted) => Outcome::Deleted,
            Err(e) => Outcome::Failed(e),
        };
        ops.push(OpRecord {
            latency_ns,
            end_ns: started.elapsed().as_nanos() as u64,
            outcome,
        });
    }
    ClientLog {
        ops,
        oracle,
        started,
        ended: Instant::now(),
    }
}

// ---------------------------------------------------------------------------
// Checking replies against the plaintext table
// ---------------------------------------------------------------------------

/// Failed checks, with the first few explained.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// A row one client inserted, and between which of its ops it was live.
struct OwnRow {
    tuple: u32,
    row: [u64; ATTRS],
    inserted_at: usize,
    deleted_at: usize,
}

/// Checks every op of a phase. A read must return exactly the base rows
/// that satisfy it (count and order-free checksum; base rows are never
/// deleted). On `churn`, every other returned id must be an inserted row
/// that satisfies the read (precision), every row this client inserted and
/// had not deleted by then must be there if it satisfies it, and none this
/// client had deleted may be.
///
/// `logs[c]` is client `c`'s record of the first requests of its stream.
pub fn verify(inputs: &Inputs, logs: &[&ClientLog]) -> Verdict {
    let mut verdict = Verdict::default();
    let requests: Vec<&[Request]> = logs
        .iter()
        .enumerate()
        .map(|(c, log)| &inputs.requests[c][..log.ops.len()])
        .collect();
    // Rows by tuple id, for precision on ids other clients inserted.
    let mut inserted: HashMap<u32, [u64; ATTRS]> = HashMap::new();
    let mut own: Vec<Vec<OwnRow>> = Vec::new();
    for (reqs, log) in requests.iter().zip(logs) {
        let mut mine: Vec<OwnRow> = Vec::new();
        for (i, (req, rec)) in reqs.iter().zip(&log.ops).enumerate() {
            match (&req.op, &rec.outcome) {
                (Op::Insert { row }, Outcome::Inserted { tuple }) => {
                    inserted.insert(*tuple, *row);
                    mine.push(OwnRow {
                        tuple: *tuple,
                        row: *row,
                        inserted_at: i,
                        deleted_at: usize::MAX,
                    });
                }
                (Op::Delete { nth }, Outcome::Deleted) => mine[*nth].deleted_at = i,
                _ => {}
            }
        }
        own.push(mine);
    }
    for (c, (reqs, log)) in requests.iter().zip(logs).enumerate() {
        for (i, (req, rec)) in reqs.iter().zip(&log.ops).enumerate() {
            let what = || format!("client {c} op {i} {:?}", req.op);
            match &rec.outcome {
                Outcome::Failed(e) => verdict.check(false, || format!("{}: {e}", what())),
                Outcome::Inserted { .. } | Outcome::Deleted => verdict.check(true, String::new),
                Outcome::Read { base, extra, .. } => {
                    let want = inputs.table.truth.expected(&req.op);
                    let mut ok = *base == want;
                    let extra_set: std::collections::HashSet<u32> = extra.iter().copied().collect();
                    ok &= extra_set.len() == extra.len();
                    ok &= extra.iter().all(|t| {
                        inserted
                            .get(t)
                            .is_some_and(|row| gen::row_matches(&req.op, row))
                    });
                    for r in &own[c] {
                        let live = r.inserted_at < i && i < r.deleted_at;
                        let gone = r.deleted_at < i;
                        let there = extra_set.contains(&r.tuple);
                        ok &= !(live && gen::row_matches(&req.op, &r.row) && !there);
                        ok &= !(gone && there);
                    }
                    verdict.check(ok, || {
                        format!(
                            "{}: got {base:?} + {} inserted, want {want:?}",
                            what(),
                            extra.len()
                        )
                    });
                }
            }
        }
    }
    verdict
}

// ---------------------------------------------------------------------------
// One round
// ---------------------------------------------------------------------------

/// Everything one round measured.
pub struct Round {
    pub setup_s: f64,
    /// Resident memory of the process once the system is served and warm.
    pub served_rss_mb: f64,
    /// First client start to last client end of the timed phase.
    pub wall_s: f64,
    pub logs: Vec<ClientLog>,
    /// `TrustedMachine::qpf_uses` across the timed phase.
    pub qpf: u64,
    pub reopen_ms: Vec<f64>,
    pub verdict: Verdict,
    pub verify_s: f64,
    pub retries: u64,
    pub server: ServerTotals,
    /// `(attr, k, bytes)` of the served knowledge base at drain.
    pub shape: Vec<(u32, usize, usize)>,
    pub records_replayed: u64,
    pub dir_bytes: u64,
    /// The program's own counters before and after the timed phase.
    pub counts: (Counts, Counts),
    /// Traced rounds: spans of the timed phase (through the drain), and of
    /// the reopens after it.
    pub spans: Vec<Span>,
    pub reopen_spans: Vec<Span>,
}

/// What the drained server reported.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerTotals {
    pub frame_errors: u64,
    pub busy_rejections: u64,
    pub deadline_timeouts: u64,
    pub dedup_hits: u64,
}

/// Reopens per round, each checked against the served knowledge base.
const REOPENS: usize = 3;

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let meta = entry.metadata().expect("scratch entry metadata");
        total += if meta.is_dir() {
            dir_bytes(&entry.path())
        } else {
            meta.len()
        };
    }
    total
}

/// Builds the served system in `dir` (which must not exist), warms it,
/// runs the timed phase, drains, reopens and checks.
pub fn run_round(inputs: &Inputs, dir: &Path, tracing: Option<&Tracing>) -> Round {
    let mut verdict = Verdict::default();
    let mut verify_s = 0.0;

    // --- set-up: what `setup_s` covers -----------------------------------
    let setup_start = Instant::now();
    let table = inputs.table.encrypt();
    let oracle = inputs
        .table
        .keys
        .oracle(table, tracing.map(|t| Arc::clone(&t.oracle)));
    let pool = sut::create_pool(
        dir,
        inputs.table.plan.rows,
        tracing.map(|t| Arc::clone(&t.fs)),
    );
    let served = sut::serve(pool, oracle);
    let mut wires: Vec<sut::Wire> = (0..CLIENTS).map(|_| served.connect()).collect();
    let warm_logs: Vec<Vec<SetSum>> = std::thread::scope(|s| {
        let handles: Vec<_> = wires
            .iter_mut()
            .enumerate()
            .map(|(c, wire)| s.spawn(move || warm_up(wire, inputs, gen::own_attrs(c))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    let setup_s = setup_start.elapsed().as_secs_f64();
    let served_rss_mb = crate::report::rss_mb();

    let check_start = Instant::now();
    for (c, got) in warm_logs.iter().enumerate() {
        check_warm_up(inputs, gen::own_attrs(c), got, &mut verdict);
    }
    verify_s += check_start.elapsed().as_secs_f64();
    if let Some(t) = tracing {
        // Warm-up is set-up: its spans and oracle work are not the timed
        // phase's.
        t.discard();
    }

    // --- timed phase ---------------------------------------------------------
    let qpf_before = served
        .oracle()
        .read()
        .expect("oracle lock poisoned")
        .qpf_uses();
    let counts_before = Counts::now();
    let barrier = Barrier::new(CLIENTS);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = wires
            .iter_mut()
            .enumerate()
            .map(|(c, wire)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    drive(wire, inputs, c, inputs.table.plan.ops_per_client, tracing)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let qpf = served
        .oracle()
        .read()
        .expect("oracle lock poisoned")
        .qpf_uses()
        - qpf_before;
    let first = logs.iter().map(|l| l.started).min().expect("two clients");
    let last = logs.iter().map(|l| l.ended).max().expect("two clients");
    let wall_s = (last - first).as_secs_f64();
    let retries = wires.iter().map(sut::Wire::retries).sum();
    drop(wires);

    // --- drain, reopen, check ------------------------------------------------
    let drained = served.drain();
    let counts = (counts_before, Counts::now());
    let spans = tracing.map(|t| t.log.take()).unwrap_or_default();
    let served_images = drained.images();
    let mut reopen_ms = Vec::with_capacity(REOPENS);
    let mut records_replayed = 0;
    for _ in 0..REOPENS {
        let start = Instant::now();
        let recovered = sut::reopen(dir, tracing.map(|t| Arc::clone(&t.fs)));
        reopen_ms.push(start.elapsed().as_secs_f64() * 1e3);
        records_replayed = recovered.records_replayed;
        verdict.check(recovered.images == served_images, || {
            "recovered knowledge base differs from the served one".into()
        });
    }

    let check_start = Instant::now();
    verdict.merge(verify(inputs, &logs.iter().collect::<Vec<_>>()));
    let read_qpf: u64 = logs
        .iter()
        .flat_map(|l| &l.ops)
        .filter_map(|r| match &r.outcome {
            Outcome::Read { stats, .. } => Some(stats.qpf_uses),
            _ => None,
        })
        .sum();
    // The trusted machine's own count must account for every reply's.
    let qpf_ok = if inputs.table.workload == Workload::Churn {
        qpf >= read_qpf
    } else {
        qpf == read_qpf
    };
    verdict.check(qpf_ok, || {
        format!("QPF: replies sum to {read_qpf}, trusted machine counted {qpf}")
    });
    // Nothing may have been shed, timed out, replayed or retried: the
    // workloads are sized so that no operation fails.
    let server = ServerTotals {
        frame_errors: drained.frame_errors(),
        busy_rejections: drained.busy_rejections(),
        deadline_timeouts: drained.deadline_timeouts(),
        dedup_hits: drained.dedup_hits(),
    };
    let quiet = retries == 0
        && [
            server.frame_errors,
            server.busy_rejections,
            server.deadline_timeouts,
            server.dedup_hits,
        ] == [0; 4];
    verdict.check(quiet, || {
        format!("{retries} client retries, server reported {server:?}")
    });
    verify_s += check_start.elapsed().as_secs_f64();

    Round {
        setup_s,
        served_rss_mb,
        wall_s,
        logs,
        qpf,
        reopen_ms,
        verdict,
        verify_s,
        retries,
        server,
        shape: drained.shape(),
        records_replayed,
        dir_bytes: dir_bytes(dir),
        counts,
        spans,
        reopen_spans: tracing.map(|t| t.log.take()).unwrap_or_default(),
    }
}

/// The warm-up ranges on `attrs`, one attribute after the other. Returns
/// each reply's fingerprint; checking them is not part of set-up.
pub fn warm_up(
    depth: &mut dyn Depth,
    inputs: &Inputs,
    attrs: impl IntoIterator<Item = u32>,
) -> Vec<SetSum> {
    attrs
        .into_iter()
        .flat_map(|a| &inputs.warmup[a as usize])
        .map(|(req, _)| match depth.read(req) {
            Ok(reply) => SetSum::of(&reply.tuples),
            Err(_) => SetSum {
                count: u64::MAX,
                sum: 0,
            },
        })
        .collect()
}

pub fn check_warm_up(
    inputs: &Inputs,
    attrs: impl IntoIterator<Item = u32>,
    got: &[SetSum],
    verdict: &mut Verdict,
) {
    let want = attrs
        .into_iter()
        .flat_map(|a| inputs.warmup[a as usize].iter().map(|(_, sum)| *sum));
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        verdict.check(*g == w, || format!("warm-up op {i}: got {g:?}, want {w:?}"));
    }
}
