//! **layers** — what one unit of work costs in each layer under a query.
//! Not a paper figure: it prices the paper's premise and what shipping a
//! result costs once PRKB has made finding it cheap.
//!
//! **Oracle rows** substantiate §3.2 ("a comparison can be done extremely
//! fast … QPF evaluation is relatively more expensive"), which is why
//! saving QPF uses saves query time:
//!
//! * `plain_compare_ns` — `x < y` on two `u64`s;
//! * `qpf_ns` / `qpf_wf16_ns` — [`TrustedMachine::qpf`] (decrypt inside the
//!   TM + compare) as built, and with `work_factor` 16 emulating an
//!   enclave round trip;
//! * `qpf_batch_ns` — [`SpOracle::try_eval_batch`] at 1 000 scattered
//!   tuples per call, per tuple: the same QPF with the keystream and the
//!   tag computed 16 or 8 cells per pass, by CPU (verdicts equal `qpf`'s
//!   and the QPF delta equals the batch length, both asserted). Every call
//!   asks for the same 1 000 ids, so their cells stay cached: this prices
//!   a cache-warm gather. The report names the widest kernel that ran;
//! * `qpf_batch_ns_cold` / `qpf_batch_ns_contig` — the same call, per
//!   tuple, on a 200 000-row column, where each call asks for 2 000 ids it
//!   did not ask for last time: a fresh ascending random set (`cold_start`'s
//!   QScan shape; the calls cycle through [`COLD_SETS`] sets, whose cells
//!   together exceed L2), or the next contiguous run of the column (the
//!   floor a gather in storage order sets). Each carries its QPF, calls ×
//!   2 000 per sample (asserted), and the report prints cold ÷ contig —
//!   a ratio from one run, which is what compares across builds;
//! * `oracle_call_ns_{1,4,12,16,1000}` — one call, in ns, through the
//!   served stack [`SessionOracle`] → [`DeadlineOracle`] (with a deadline,
//!   so its clock read is priced) → [`SpOracle`], at 1 (the scalar cell),
//!   4 (a short pass), 12 (`warm_select`'s batch size), 16 (one full
//!   widest pass) and 1 000 tuples. The report fits the per-call term from
//!   the 12- and 1 000-tuple rows;
//! * `scan_ns_per_tuple_wf{0,8}_t1` — [`linear_scan`] over the whole
//!   table, at work factor 0 and 8. The QPF count is the table size by
//!   construction (asserted). The `_t1` suffix is kept so the row ids stay
//!   comparable with earlier runs.
//!
//! **Seal rows** price the data owner's upload (paper §3.1), per cell of a
//! fresh 200 000-row column (`cold_start`'s table size):
//!
//! * `seal_ns_per_cell` — [`DataOwner::encrypt_table`] of a one-column
//!   table, which seals the column in one [`ValueCipher::seal_into`],
//!   through the lane kernels where the CPU has them;
//! * `seal_ns_per_cell_scalar` — the [`ValueCipher::encrypt_into`] loop,
//!   the reference, over the same values from the same RNG seed.
//!
//! The report prints scalar ÷ batched and the kernel that ran.
//!
//! **Round-trip rows** price the served path's floor, each the p50 of
//! [`ROUND_TRIPS`] round trips over loopback, in µs:
//!
//! * `loopback_echo_rtt_us` — a std-only probe: 64-byte messages with
//!   `TCP_NODELAY`, each answered on the thread that read it, the floor any
//!   server on this host sets;
//! * `served_ping_rtt_us` — [`PrkbClient::ping`] against an idle
//!   [`PrkbServer`] with two server threads (the served benchmark's
//!   count).
//!
//! The report prints the gap between them.
//!
//! **Engine rows** price what PRKB itself does per tuple once the oracle is
//! out of the way: a [`PrkbEngine`] over a [`PlainOracle`] wrapped in a
//! clock, each row the replay's wall time minus the oracle's busy time,
//! divided by the replay's Σ `ns_width` (the NS-pair tuples it scanned).
//! Each sample replays from fresh knowledge, so the QPF count is the
//! replay's (deterministic, and carried in the row):
//!
//! * `engine_ns_per_scanned_tuple_md1` — `cold_start`'s shape: n =
//!   200 000 over two attributes at k = 1, then 170 1-D 1 % ranges
//!   alternating between them through the MD executor;
//! * `engine_ns_per_scanned_tuple_cmp` — `wide_result`'s: n = 60 000,
//!   150 warming cuts per attribute, then 300 single comparisons with a
//!   uniform bound, each through the same executor as a one-trapdoor
//!   dimension.
//!
//! The report prints each as a multiple of `qpf_batch_ns`.
//!
//! **Warm-select rows** price a select on a warm knowledge base, where PRKB
//! has made the QPF few: µs of engine time per select — the replay's wall
//! time less the clocked oracle's busy time, over its selects — on four
//! uniform attributes, each warmed by 1-D 1 % ranges that refine it. Every
//! sample replays the same selects, with refinement on, from a copy of the
//! same warmed engine (the copy outside the clock), so the QPF count is the
//! replay's and the row's `k` is the partitions per attribute it starts
//! from:
//!
//! * `engine_us_per_warm_select_{1d,2d}_n{15k,60k,240k}` — 15 000, 60 000
//!   and 240 000 rows, 600 warm-up ranges per attribute; 1 500 1-D 1 %
//!   ranges, or 1 000 2-D ones (a 1 % range on each of two attributes);
//! * `engine_us_per_warm_select_2d_box10_n60k` — `warm_select`'s 2-D
//!   shape: 60 000 rows, 150 warm-up ranges per attribute, 300 boxes of
//!   10 % x 10 %.
//!
//! **Checksum-and-framing rows** are the layer the wire, the WAL and the
//! checkpoint codecs share. Each is a public function in a loop over a
//! buffer of the size the served workloads use — 64 B (a request), 1.3 KB
//! (a narrow selection's reply), 120 KB (half the table, and a cold-start
//! WAL record):
//!
//! * `crc32_ns_per_byte_{64,1300,120k}` — [`crc32`];
//! * `copy_ns_per_byte_120k` — `to_vec`, the floor one copy sets;
//! * `frame_encode_ns_per_byte` / `frame_decode_ns_per_byte` —
//!   [`encode_frame`] / [`decode_frame`] on a 120 KB payload. Each is one
//!   checksum pass plus one copy, so `crc32 + copy` is its stated floor;
//! * `wal_append_ns_per_byte` — [`Wal::append_unsynced`] of 120 KB
//!   records (no fsync): floor plus the `write` into the page cache.
//!
//! **Journal row.** `split_journal_ns_per_member` — one split of a
//! 50 000-member partition through the journal, per member: [`encode_txn`]
//! of its record (one bit per member), [`decode_txn`], and
//! [`Knowledge::try_apply_op`] on a copy of a fresh one-partition knowledge
//! base (the copy is inside the clock).
//!
//! **Id-set rows** price a Selection reply's ids on the wire:
//! [`Response::encode`] and [`Response::decode`] of a reply over a
//! 60 000-row table, per id, at the two shapes the served workloads ship:
//!
//! * `idset_{encode,decode}_ns_per_id_dense` — 30 000 ids, one of each
//!   adjacent pair (`wide_result`'s half-table reply): the bitmap form,
//!   about 7.5 KB;
//! * `idset_{encode,decode}_ns_per_id_sparse` — 600 ids, one in each run
//!   of 100 (a 1 % range, as `warm_select` ships): the list form, 4 B per
//!   id.
//!
//! A trajectory row carries `ms` per `n` = 1 000 000 units (bytes,
//! evaluations or scanned tuples), which reads as ns per unit — or, on a
//! warm-select row, per `n` = 1 000 selects, which reads as µs per select;
//! it is the fastest of [`SAMPLES`] samples, since the interest is the
//! code's cost, not the box's noise. A round-trip row carries its p50 in
//! ns per `n` = 1 000, which reads as µs. `qpf_uses` is 0 except on the cold
//! gather, engine and warm-select rows, whose QPF CI compares exactly.

use crate::harness::{EncSetup, Report, TmpDir};
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_core::durability::{decode_txn, encode_txn, TxnEntry};
use prkb_core::{
    DeadlineOracle, EngineConfig, Knowledge, PrkbEngine, QueryStats, RefinementOp, Separator,
    SessionOracle, SplitBits,
};
use prkb_crypto::cipher::CIPHERTEXT_LEN;
use prkb_crypto::{KeyPurpose, MasterKey, ValueCipher};
use prkb_edbms::durability::{crc32, Wal};
use prkb_edbms::select::linear_scan;
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{
    real_fs, ComparisonOp, DataOwner, OracleError, PlainTable, Predicate, PredicateKind, Schema,
    SelectionOracle, SpOracle, TmConfig, TrustedMachine, TupleId,
};
use prkb_server::wire::{decode_frame, encode_frame, DEFAULT_MAX_FRAME_LEN};
use prkb_server::{PrkbClient, PrkbServer, Response, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Samples per row; the fastest is reported.
pub const SAMPLES: usize = 5;

/// Bytes per 120 KB buffer: 30 000 tuple ids plus a reply's fixed fields.
const WIDE: usize = 120_094;

/// One measured row.
#[derive(Debug, Clone)]
pub struct LayerPoint {
    /// Metric name (row id).
    pub id: String,
    /// Units per call: bytes, one evaluation, or a scan's tuples.
    pub len: usize,
    /// Nanoseconds per unit, fastest sample.
    pub ns_per_unit: f64,
    /// QPF uses of one sample (engine rows; 0 elsewhere).
    pub qpf_uses: u64,
    /// Units the trajectory row's `ms` is per: 1 000 000, so it reads as
    /// ns per unit, or 1 000 on a warm-select row, so it reads as µs per
    /// select.
    pub per: usize,
    /// Partitions per attribute the replay started from (warm-select
    /// rows; 0 elsewhere).
    pub k: usize,
}

/// Fastest-sample ns/unit of `f` over `len`-unit calls, each sample
/// covering at least `sample_units`.
fn ns_per_unit<T>(len: usize, sample_units: usize, mut f: impl FnMut() -> T) -> f64 {
    let iters = (sample_units / len).max(1);
    (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / (iters * len) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The oracle rows: one comparison, one QPF use, one whole-table scan.
fn oracle_rows(scale: Scale, sample_units: usize, push: &mut impl FnMut(&str, usize, f64)) {
    // At least 100 000 tuples, so one scan is long enough to time.
    let n = scale.tuples(2_000_000).max(100_000);
    let setup = EncSetup::new("layers", vec![(0..n as u64).collect()], 41);
    let mut rng = StdRng::seed_from_u64(42);
    let pred = setup.cmp_trapdoor(0, ComparisonOp::Lt, n as u64 / 2, &mut rng);
    let cell = setup.table.cell(0, 1234).expect("cell in range");
    let tm_with =
        |work_factor| -> TrustedMachine { setup.owner.trusted_machine(TmConfig { work_factor }) };

    // An evaluation is ~200 ns where a checksummed byte is ~0.1: fewer
    // iterations fill a sample.
    let (x, y) = (black_box(1234u64), black_box(5000u64));
    let compare = ns_per_unit(1, sample_units, || black_box(x) < black_box(y));
    push("plain_compare_ns", 1, compare);
    for (id, work_factor, sample) in [
        ("qpf_ns", 0, sample_units / 16),
        ("qpf_wf16_ns", 16, sample_units / 128),
    ] {
        let tm = tm_with(work_factor);
        let qpf = || tm.qpf(black_box(&pred), black_box(cell)).expect("own cell");
        push(id, 1, ns_per_unit(1, sample, qpf));
    }

    // Scattered ids, as a QScan partition's members are.
    let batch: Vec<TupleId> = (0..1000).map(|i| (i * 7919 % n) as TupleId).collect();
    let oracle = setup.oracle();
    let mut verdicts = Vec::new();
    oracle.eval_batch(&pred, &batch, &mut verdicts);
    for (&t, &v) in batch.iter().zip(&verdicts) {
        let cell = setup.table.cell(0, t).expect("cell in range");
        assert_eq!(v, setup.tm.qpf(&pred, cell).expect("own cell"), "tuple {t}");
    }
    let batched = ns_per_unit(batch.len(), sample_units / 16, || {
        let before = oracle.qpf_uses();
        oracle.eval_batch(black_box(&pred), black_box(&batch), &mut verdicts);
        assert_eq!(
            oracle.qpf_uses() - before,
            batch.len() as u64,
            "one use per tuple"
        );
    });
    push("qpf_batch_ns", batch.len(), batched);

    let session = SessionOracle::new(&oracle);
    let served = DeadlineOracle::new(&session, Some(Instant::now() + Duration::from_secs(3600)));
    for (len, calls) in [
        (1, sample_units / 32),
        (4, sample_units / 64),
        (12, sample_units / 256),
        (16, sample_units / 256),
        (1000, sample_units / 8192),
    ] {
        let tuples = &batch[..len];
        let call = ns_per_unit(1, calls, || {
            served
                .try_eval_batch(black_box(&pred), black_box(tuples), &mut verdicts)
                .expect("own cells, far deadline")
        });
        push(&format!("oracle_call_ns_{len}"), 1, call);
    }
    for work_factor in [0u32, 8] {
        let tm = tm_with(work_factor);
        let oracle = SpOracle::new(&setup.table, &tm);
        let scan = || {
            let before = oracle.qpf_uses();
            assert_eq!(linear_scan(&oracle, &pred).len(), n / 2);
            assert_eq!(oracle.qpf_uses() - before, n as u64, "one use per tuple");
        };
        let id = format!("scan_ns_per_tuple_wf{work_factor}_t1");
        push(&id, n, ns_per_unit(n, n, scan));
    }
}

/// Rows of the cold-gather column: `cold_start`'s table size.
const GATHER_ROWS: usize = 200_000;
/// Tuples per cold-gather call: about `cold_start`'s tuples per call.
const GATHER_LEN: usize = 2_000;
/// Random id sets `qpf_batch_ns_cold` cycles through: 64 × 2 000 cells
/// touch most of the column's 5.6 MB, more than an L2 holds.
pub const COLD_SETS: usize = 64;

/// `GATHER_LEN` ascending ids drawn uniformly from `0..GATHER_ROWS`
/// (selection sampling, so they come out in order).
fn ascending_set(rng: &mut StdRng) -> Vec<TupleId> {
    let mut ids = Vec::with_capacity(GATHER_LEN);
    for t in 0..GATHER_ROWS {
        let (need, left) = (GATHER_LEN - ids.len(), GATHER_ROWS - t);
        if rng.gen_range(0..left) < need {
            ids.push(t as TupleId);
        }
    }
    ids
}

/// The cold-gather rows: `qpf_batch_ns_cold` and `qpf_batch_ns_contig`,
/// each with one sample's QPF.
fn gather_rows(sample_units: usize) -> Vec<LayerPoint> {
    let setup = EncSetup::new("gather", vec![(0..GATHER_ROWS as u64).collect()], 43);
    let mut rng = StdRng::seed_from_u64(44);
    let pred = setup.cmp_trapdoor(0, ComparisonOp::Lt, GATHER_ROWS as u64 / 2, &mut rng);
    let oracle = setup.oracle();
    let cold: Vec<Vec<TupleId>> = (0..COLD_SETS).map(|_| ascending_set(&mut rng)).collect();
    let contig: Vec<Vec<TupleId>> = (0..GATHER_ROWS / GATHER_LEN)
        .map(|run| {
            (0..GATHER_LEN)
                .map(|i| (run * GATHER_LEN + i) as TupleId)
                .collect()
        })
        .collect();
    let calls = (sample_units / GATHER_LEN).max(1);
    let mut verdicts = Vec::new();
    [("qpf_batch_ns_cold", cold), ("qpf_batch_ns_contig", contig)]
        .into_iter()
        .map(|(id, sets)| {
            let mut next = sets.iter().cycle();
            let before = oracle.qpf_uses();
            let ns = ns_per_unit(GATHER_LEN, calls * GATHER_LEN, || {
                let ids = next.next().expect("a cycle never ends");
                oracle.eval_batch(black_box(&pred), black_box(ids), &mut verdicts);
            });
            let qpf_uses = (calls * GATHER_LEN) as u64;
            assert_eq!(
                oracle.qpf_uses() - before,
                SAMPLES as u64 * qpf_uses,
                "{id}: one use per tuple"
            );
            LayerPoint {
                id: id.to_string(),
                len: GATHER_LEN,
                ns_per_unit: ns,
                qpf_uses,
                per: 1_000_000,
                k: 0,
            }
        })
        .collect()
}

/// The seal rows (see the module docs), through `push`.
fn seal_rows(push: &mut impl FnMut(&str, usize, f64)) {
    let mut rng = StdRng::seed_from_u64(47);
    let values: Vec<u64> = (0..GATHER_ROWS).map(|_| rng.gen_range(0..DOMAIN)).collect();
    let schema = Schema::new("seal", &["a0"]);
    let plain = PlainTable::from_columns(schema, vec![values.clone()]).expect("one column");
    let owner = DataOwner::with_seed(47);
    let sealed = ns_per_unit(GATHER_ROWS, GATHER_ROWS, || {
        let table = owner.encrypt_table(&plain, &mut StdRng::seed_from_u64(48));
        assert_eq!(table.len(), GATHER_ROWS);
        table
    });
    push("seal_ns_per_cell", GATHER_ROWS, sealed);
    let key = MasterKey::from_bytes([47; 32]).derive(KeyPurpose::ValueEncryption, "seal", 0);
    let cipher = ValueCipher::new(key);
    let scalar = ns_per_unit(GATHER_ROWS, GATHER_ROWS, || {
        let mut rng = StdRng::seed_from_u64(48);
        let mut column = Vec::with_capacity(GATHER_ROWS * CIPHERTEXT_LEN);
        for &v in &values {
            cipher.encrypt_into(&mut rng, v, &mut column);
        }
        column
    });
    push("seal_ns_per_cell_scalar", GATHER_ROWS, scalar);
}

/// Round trips per round-trip row.
pub const ROUND_TRIPS: usize = 20_000;
/// Bytes of one echoed message: a small request's frame.
const ECHO_BYTES: usize = 64;

/// The p50 of `samples`, in ns.
fn p50_ns(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// `loopback_echo_rtt_us` (see the module docs), in ns.
fn loopback_echo_rtt_ns() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let echo = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_nodelay(true).expect("TCP_NODELAY");
        let mut buf = [0u8; ECHO_BYTES];
        // Until the client hangs up.
        while conn.read_exact(&mut buf).is_ok() {
            conn.write_all(&buf).expect("echo");
        }
    });
    let mut client = TcpStream::connect(addr).expect("connect");
    client.set_nodelay(true).expect("TCP_NODELAY");
    let mut buf = [0u8; ECHO_BYTES];
    let rtts = (0..ROUND_TRIPS)
        .map(|i| {
            buf[0] = i as u8;
            let start = Instant::now();
            client.write_all(&buf).expect("send");
            client.read_exact(&mut buf).expect("echoed");
            let ns = start.elapsed().as_nanos() as u64;
            assert_eq!(buf[0], i as u8, "the echo of this round trip");
            ns
        })
        .collect();
    drop(client);
    echo.join().expect("echo thread");
    p50_ns(rtts)
}

/// `served_ping_rtt_us` (see the module docs), in ns.
fn served_ping_rtt_ns() -> f64 {
    const ROWS: usize = 64;
    let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, ROWS);
    let oracle = PlainOracle::single_column((0..ROWS as u64).collect());
    let config = ServerConfig {
        threads: Some(2),
        ..ServerConfig::default()
    };
    let server = PrkbServer::bind("127.0.0.1:0", engine, oracle, config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.spawn().expect("spawn server");
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    let rtts = (0..ROUND_TRIPS)
        .map(|_| {
            let start = Instant::now();
            client.ping().expect("ping");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    drop(client);
    handle.shutdown();
    handle.join().expect("drain");
    p50_ns(rtts)
}

/// The round-trip rows, taken one after the other in this run.
fn rtt_rows() -> Vec<LayerPoint> {
    [
        ("loopback_echo_rtt_us", loopback_echo_rtt_ns()),
        ("served_ping_rtt_us", served_ping_rtt_ns()),
    ]
    .into_iter()
    .map(|(id, ns_per_unit)| LayerPoint {
        id: id.to_string(),
        len: 1,
        ns_per_unit,
        qpf_uses: 0,
        per: 1_000,
        k: 0,
    })
    .collect()
}

/// Values of the engine rows' columns are uniform in `[0, DOMAIN)`, and a
/// narrow range is 1 % of it, as in the served workloads.
const DOMAIN: u64 = 1_000_000;

/// A [`PlainOracle`] that clocks its own evaluations, so a query's wall
/// time minus `busy_ns` is the engine's.
struct Clocked<'a> {
    inner: &'a PlainOracle,
    busy_ns: AtomicU64,
}

impl Clocked<'_> {
    fn clock<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl SelectionOracle for Clocked<'_> {
    type Pred = Predicate;

    fn try_eval(&self, pred: &Predicate, t: TupleId) -> Result<bool, OracleError> {
        self.clock(|| self.inner.try_eval(pred, t))
    }

    fn try_eval_batch(
        &self,
        pred: &Predicate,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        self.clock(|| self.inner.try_eval_batch(pred, tuples, out))
    }

    fn kind_of(&self, pred: &Predicate) -> PredicateKind {
        self.inner.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.inner.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.inner.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.inner.qpf_uses()
    }
}

/// An engine indexing attributes 0 and 1 of `oracle`, each at k = 1.
fn cold_engine(oracle: &PlainOracle) -> PrkbEngine<Predicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    for attr in 0..2 {
        engine.init_attr(attr, oracle.n_slots());
    }
    engine
}

/// The fastest of [`SAMPLES`] replays, each on a fresh engine from `fresh`,
/// as engine ns per scanned NS-pair tuple — (wall − oracle busy) / Σ
/// `ns_width`, the sum `replay` returns — with one replay's QPF uses.
fn engine_row(
    oracle: &PlainOracle,
    fresh: impl Fn() -> PrkbEngine<Predicate>,
    replay: impl Fn(&mut PrkbEngine<Predicate>, &Clocked, &mut StdRng) -> u64,
) -> (f64, u64) {
    let mut qpf = None;
    let fastest = (0..SAMPLES)
        .map(|_| {
            let mut engine = fresh();
            let clocked = Clocked {
                inner: oracle,
                busy_ns: AtomicU64::new(0),
            };
            let (before, mut rng) = (oracle.qpf_uses(), StdRng::seed_from_u64(44));
            let start = Instant::now();
            let width = replay(&mut engine, &clocked, &mut rng);
            let wall = start.elapsed().as_nanos() as f64;
            let uses = oracle.qpf_uses() - before;
            assert_eq!(*qpf.get_or_insert(uses), uses, "a replay is deterministic");
            let busy = clocked.busy_ns.load(Ordering::Relaxed) as f64;
            (wall - busy) / width.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min);
    (fastest, qpf.unwrap_or(0))
}

/// The engine rows (see the module docs).
fn engine_rows() -> Vec<LayerPoint> {
    let mut rng = StdRng::seed_from_u64(43);
    let mut columns = |n: usize| -> Vec<Vec<u64>> {
        let column = |_| (0..n).map(|_| rng.gen_range(0..DOMAIN)).collect();
        (0..2).map(column).collect()
    };
    let cold = PlainOracle::from_columns(columns(200_000));
    let warm = PlainOracle::from_columns(columns(60_000));

    let narrow = DOMAIN / 100;
    let ranges: Vec<[Predicate; 2]> = (0..170u32)
        .map(|i| {
            let lo = rng.gen_range(0..DOMAIN - narrow);
            [
                Predicate::cmp(i % 2, ComparisonOp::Ge, lo),
                Predicate::cmp(i % 2, ComparisonOp::Lt, lo + narrow),
            ]
        })
        .collect();
    let md1 = engine_row(
        &cold,
        || cold_engine(&cold),
        |engine, oracle, rng| {
            let select = |dims: &[Predicate; 2]| {
                let sel = engine.select_where(oracle, dims, rng);
                sel.stats.ns_width
            };
            ranges.iter().map(select).sum()
        },
    );

    let cut = |rng: &mut StdRng, attr: u32, op: ComparisonOp| {
        Predicate::cmp(attr, op, rng.gen_range(0..DOMAIN))
    };
    let warming: Vec<Predicate> = (0..300u32)
        .map(|i| cut(&mut rng, i % 2, ComparisonOp::Lt))
        .collect();
    let compares: Vec<Predicate> = (0..300)
        .map(|_| {
            let (attr, op) = (rng.gen_range(0..2), ComparisonOp::ALL[rng.gen_range(0..4)]);
            cut(&mut rng, attr, op)
        })
        .collect();
    let warmed = || {
        let mut engine = cold_engine(&warm);
        let mut rng = StdRng::seed_from_u64(45);
        for p in &warming {
            engine.select(&warm, p, &mut rng);
        }
        engine
    };
    let cmp = engine_row(&warm, warmed, |engine, oracle, rng| {
        let select = |p| engine.select(oracle, p, rng).stats.ns_width;
        compares.iter().map(select).sum()
    });

    [("md1", md1), ("cmp", cmp)]
        .into_iter()
        .map(|(shape, (ns_per_unit, qpf_uses))| LayerPoint {
            id: format!("engine_ns_per_scanned_tuple_{shape}"),
            len: 1,
            ns_per_unit,
            qpf_uses,
            per: 1_000_000,
            k: 0,
        })
        .collect()
}

/// Attributes of a warm-select row's table.
const WARM_ATTRS: u32 = 4;

/// `count` selects, each a range `width` wide (`Ge lo`, `Lt lo + width`)
/// on each of `d` distinct attributes drawn uniformly from `attrs`.
fn range_selects(
    rng: &mut StdRng,
    attrs: &[u32],
    count: usize,
    d: usize,
    width: u64,
) -> Vec<Vec<Predicate>> {
    (0..count)
        .map(|_| {
            let mut on: Vec<u32> = Vec::with_capacity(d);
            while on.len() < d {
                let attr = attrs[rng.gen_range(0..attrs.len())];
                if !on.contains(&attr) {
                    on.push(attr);
                }
            }
            on.iter()
                .flat_map(|&attr| {
                    let lo = rng.gen_range(0..DOMAIN - width);
                    [
                        Predicate::cmp(attr, ComparisonOp::Ge, lo),
                        Predicate::cmp(attr, ComparisonOp::Lt, lo + width),
                    ]
                })
                .collect()
        })
        .collect()
}

/// An engine over every attribute of `oracle`, each warmed by `per_attr`
/// 1-D 1 % ranges that refine it.
fn warmed_engine(oracle: &PlainOracle, per_attr: usize, rng: &mut StdRng) -> PrkbEngine<Predicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    let attrs: Vec<u32> = (0..WARM_ATTRS).collect();
    for &attr in &attrs {
        engine.init_attr(attr, oracle.n_slots());
        for select in range_selects(rng, &[attr], per_attr, 1, DOMAIN / 100) {
            engine.select_where(oracle, &select, rng);
        }
    }
    engine
}

/// The warm-select rows (see the module docs): µs of engine time per
/// select, each sample replaying the selects from the same warmed
/// knowledge.
fn warm_select_rows() -> Vec<LayerPoint> {
    let mut rng = StdRng::seed_from_u64(46);
    let attrs: Vec<u32> = (0..WARM_ATTRS).collect();
    let (narrow, side) = (DOMAIN / 100, DOMAIN / 10);
    // Per table: its rows, its warm-up ranges per attribute, and per row
    // the id's suffix, the select's dimensions, count and range width; the
    // last is `warm_select`'s 2-D shape.
    let ranges = |n: &str| {
        vec![
            (format!("1d_{n}"), 1, 1_500, narrow),
            (format!("2d_{n}"), 2, 1_000, narrow),
        ]
    };
    let box10 = ("2d_box10_n60k".to_string(), 2, 300, side);
    let tables = [
        (15_000, 600, ranges("n15k")),
        (60_000, 600, ranges("n60k")),
        (240_000, 600, ranges("n240k")),
        (60_000, 150, vec![box10]),
    ];
    let mut points = Vec::new();
    for (n, warm_up, rows) in tables {
        let columns = (0..WARM_ATTRS)
            .map(|_| (0..n).map(|_| rng.gen_range(0..DOMAIN)).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let warmed = warmed_engine(&oracle, warm_up, &mut rng);
        let k = attrs
            .iter()
            .map(|&a| warmed.knowledge(a).map_or(0, |kb| kb.k()));
        let k = k.sum::<usize>() / attrs.len();
        for (suffix, d, count, width) in rows {
            let selects = range_selects(&mut rng, &attrs, count, d, width);
            let (ns_per_unit, qpf_uses) = engine_row(
                &oracle,
                || warmed.clone(),
                |engine, oracle, rng| {
                    for select in &selects {
                        black_box(engine.select_where(oracle, select, rng));
                    }
                    selects.len() as u64
                },
            );
            points.push(LayerPoint {
                id: format!("engine_us_per_warm_select_{suffix}"),
                len: 1,
                ns_per_unit,
                qpf_uses,
                per: 1_000,
                k,
            });
        }
    }
    points
}

/// Members of the split the journal row prices.
const SPLIT_MEMBERS: usize = 50_000;

/// The journal row (see the module docs): ns per member of one split's
/// encode, decode and replay.
fn split_journal_ns_per_member(sample_units: usize) -> f64 {
    // Scattered verdicts, as a split's are in tuple-id order.
    let scatter = |i: u32| {
        let x = i.wrapping_mul(0x9E37_79B9);
        (x ^ x >> 15).wrapping_mul(0x85EB_CA6B) >> 31 == 1
    };
    let left: SplitBits = (0..SPLIT_MEMBERS as u32).map(scatter).collect();
    let op = RefinementOp::Split {
        rank: 0,
        left,
        sep: Some(Separator::Cmp {
            pred: Predicate::cmp(0, ComparisonOp::Lt, 1),
            left_label: true,
        }),
    };
    let record = [TxnEntry::Op { attr: 0, op }];
    let fresh: Knowledge<Predicate> = Knowledge::init(SPLIT_MEMBERS);
    ns_per_unit(SPLIT_MEMBERS, sample_units, || {
        let mut kb = fresh.clone();
        for entry in decode_txn::<Predicate>(&encode_txn(&record)).expect("own record") {
            if let TxnEntry::Op { op, .. } = entry {
                kb.try_apply_op(op).expect("fits a fresh partition");
            }
        }
        kb
    })
}

/// Rows of the table the id-set rows' replies select from.
const IDSET_TABLE: u32 = 60_000;

/// The id-set rows (see the module docs): ns per id to encode and to
/// decode a Selection carrying one id in each run of `run` rows,
/// scattered within the run.
fn idset_ns_per_id(run: u32, sample_units: usize) -> (usize, f64, f64) {
    let tuples: Vec<TupleId> = (0..IDSET_TABLE / run)
        .map(|j| j * run + (j.wrapping_mul(0x9E37_79B9) >> 7) % run)
        .collect();
    let ids = tuples.len();
    let resp = Response::Selection {
        seq: 1,
        tuples,
        stats: QueryStats::default(),
    };
    let encode = ns_per_unit(ids, sample_units, || black_box(&resp).encode());
    let payload = resp.encode();
    let decode = ns_per_unit(ids, sample_units, || {
        Response::decode(black_box(&payload)).expect("own payload")
    });
    (ids, encode, decode)
}

/// Runs every row.
pub fn measure(scale: Scale) -> Vec<LayerPoint> {
    let sample_bytes = match scale {
        Scale::Ci => 4 << 20,
        Scale::Default => 32 << 20,
        Scale::Paper => 128 << 20,
    };
    let buf: Vec<u8> = (0..WIDE as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let mut points = Vec::new();
    let mut push = |id: &str, len, ns_per_unit| {
        points.push(LayerPoint {
            id: id.to_string(),
            len,
            ns_per_unit,
            qpf_uses: 0,
            per: 1_000_000,
            k: 0,
        });
    };
    oracle_rows(scale, sample_bytes, &mut push);
    seal_rows(&mut push);

    for (id, len) in [
        ("crc32_ns_per_byte_64", 64),
        ("crc32_ns_per_byte_1300", 1300),
        ("crc32_ns_per_byte_120k", WIDE),
    ] {
        let bytes = &buf[..len];
        let crc = ns_per_unit(len, sample_bytes, || crc32(black_box(bytes)));
        push(id, len, crc);
    }
    let copy = ns_per_unit(WIDE, sample_bytes, || black_box(&buf).to_vec());
    push("copy_ns_per_byte_120k", WIDE, copy);
    let encode = ns_per_unit(WIDE, sample_bytes, || encode_frame(black_box(&buf)));
    push("frame_encode_ns_per_byte", WIDE, encode);
    let frame = encode_frame(&buf);
    let decode = ns_per_unit(WIDE, sample_bytes, || {
        decode_frame(black_box(&frame), DEFAULT_MAX_FRAME_LEN).expect("own frame")
    });
    push("frame_decode_ns_per_byte", WIDE, decode);

    let dir = TmpDir::new("layers");
    let path = dir.0.join("wal.0.log");
    let mut wal = Wal::create_on(real_fs().as_ref(), &path).expect("create");
    // Capped: the log only grows, and the row prices the append, not the
    // page cache's writeback.
    let append = ns_per_unit(WIDE, sample_bytes.min(8 << 20), || {
        wal.append_unsynced(black_box(&buf)).expect("append")
    });
    push("wal_append_ns_per_byte", WIDE, append);
    let journal = split_journal_ns_per_member(sample_bytes);
    push("split_journal_ns_per_member", SPLIT_MEMBERS, journal);
    for (shape, run) in [("dense", 2), ("sparse", 100)] {
        // Per id, not per byte: a tenth of the byte rows' sample.
        let (ids, encode, decode) = idset_ns_per_id(run, sample_bytes / 10);
        push(&format!("idset_encode_ns_per_id_{shape}"), ids, encode);
        push(&format!("idset_decode_ns_per_id_{shape}"), ids, decode);
    }
    points.extend(gather_rows(sample_bytes / 16));
    points.extend(engine_rows());
    points.extend(warm_select_rows());
    points.extend(rtt_rows());
    points
}

/// Renders the report and the trajectory rows.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let points = measure(scale);
    let of = |id: &str| {
        let row = points.iter().find(|p| p.id == id);
        row.expect("row measured").ns_per_unit
    };
    let floor = of("crc32_ns_per_byte_120k") + of("copy_ns_per_byte_120k");
    let mut report = Report::new(&format!(
        "layers — the oracle, checksum and framing: ns per unit (fastest of {SAMPLES} samples)"
    ));
    report.line(format!(
        "{:>40}{:>12}{:>14}",
        "row", "units/call", "ns/unit"
    ));
    for p in &points {
        report.line(format!("{:>40}{:>12}{:>14.3}", p.id, p.len, p.ns_per_unit));
    }
    report.line(format!(
        "a QPF use is {:.0}x a plain comparison ({:.0}x at work factor 16)",
        of("qpf_ns") / of("plain_compare_ns"),
        of("qpf_wf16_ns") / of("plain_compare_ns"),
    ));
    let (call_12, call_1000) = (of("oracle_call_ns_12"), of("oracle_call_ns_1000"));
    let per_tuple = (call_1000 - call_12) / (1000.0 - 12.0);
    report.line(format!(
        "batch kernel {}: a batched QPF is {:.2}x a single one; a served oracle call costs \
         {:.0} ns + {per_tuple:.1} ns per tuple (fit from 12 and 1000), the fixed term {:.0} % \
         of a 12-tuple call",
        prkb_crypto::batch_kernel(),
        of("qpf_batch_ns") / of("qpf_ns"),
        call_12 - 12.0 * per_tuple,
        100.0 * (call_12 - 12.0 * per_tuple) / call_12,
    ));
    report.line(format!(
        "seal kernel {}: encrypt_table seals a fresh {GATHER_ROWS}-row column at {:.1} ns per \
         cell, the encrypt_into loop at {:.1} — {:.2}x",
        prkb_crypto::batch_kernel(),
        of("seal_ns_per_cell"),
        of("seal_ns_per_cell_scalar"),
        of("seal_ns_per_cell_scalar") / of("seal_ns_per_cell"),
    ));
    report.line(format!(
        "cold gather: a batched QPF over fresh ascending ids costs {:.1} ns, over a fresh \
         contiguous run {:.1} ns — cold ÷ contig {:.2}x",
        of("qpf_batch_ns_cold"),
        of("qpf_batch_ns_contig"),
        of("qpf_batch_ns_cold") / of("qpf_batch_ns_contig"),
    ));
    report.line(format!(
        "engine per scanned NS-pair tuple: {:.1} ns for a 1-D range, {:.1} ns for a \
         comparison — {:.2}x and {:.2}x a batched QPF",
        of("engine_ns_per_scanned_tuple_md1"),
        of("engine_ns_per_scanned_tuple_cmp"),
        of("engine_ns_per_scanned_tuple_md1") / of("qpf_batch_ns"),
        of("engine_ns_per_scanned_tuple_cmp") / of("qpf_batch_ns"),
    ));
    let warm: Vec<String> = points
        .iter()
        .filter_map(|p| {
            let shape = p.id.strip_prefix("engine_us_per_warm_select_")?;
            let us = p.ns_per_unit / 1e3;
            Some(format!("{shape} {us:.1} µs / {} QPF", p.qpf_uses))
        })
        .collect();
    report.line(format!(
        "engine per warm select, replay total QPF: {}",
        warm.join(", ")
    ));
    report.line(format!(
        "floor for a framed 120 KB buffer (one checksum pass + one copy): {floor:.3} ns/byte; \
         encode {:.2}x, decode {:.2}x, WAL append {:.2}x of it",
        of("frame_encode_ns_per_byte") / floor,
        of("frame_decode_ns_per_byte") / floor,
        of("wal_append_ns_per_byte") / floor,
    ));
    report.line(format!(
        "a reply's ids: {:.2} / {:.2} ns per id to encode / decode as a bitmap (30 000 of \
         60 000), {:.2} / {:.2} as a list (600 of 60 000)",
        of("idset_encode_ns_per_id_dense"),
        of("idset_decode_ns_per_id_dense"),
        of("idset_encode_ns_per_id_sparse"),
        of("idset_decode_ns_per_id_sparse"),
    ));
    let (echo, ping) = (of("loopback_echo_rtt_us"), of("served_ping_rtt_us"));
    report.line(format!(
        "round trips over loopback (p50 of {ROUND_TRIPS}): a std-only echo {:.1} µs, an idle \
         server's Ping {:.1} µs — {:.1} µs above the floor",
        echo / 1e3,
        ping / 1e3,
        (ping - echo) / 1e3,
    ));
    report.line(format!(
        "journal: a split of {SPLIT_MEMBERS} members costs {:.2} ns per member to encode, decode \
         and replay",
        of("split_journal_ns_per_member"),
    ));
    let rows = points
        .iter()
        .map(|p| BenchRow {
            id: p.id.clone(),
            qpf_uses: p.qpf_uses,
            ms: p.ns_per_unit * p.per as f64 / 1e6,
            k: p.k as u64,
            n: p.per as u64,
            threads: 1,
        })
        .collect();
    (report.finish(), rows)
}
