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
//!   and the QPF delta equals the batch length, both asserted). The report
//!   names the widest kernel that ran;
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
//! A trajectory row carries `ms` per `n` = 1 000 000 units (bytes,
//! evaluations or scanned tuples), which reads as ns per unit; it is the
//! fastest of [`SAMPLES`] samples, since the interest is the code's cost,
//! not the box's noise. `qpf_uses` is 0.

use crate::harness::{EncSetup, Report, TmpDir};
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_core::{DeadlineOracle, SessionOracle};
use prkb_edbms::durability::{crc32, CrashInjector, Wal};
use prkb_edbms::select::linear_scan;
use prkb_edbms::{
    real_fs, ComparisonOp, SelectionOracle, SpOracle, TmConfig, TrustedMachine, TupleId,
};
use prkb_server::wire::{decode_frame, encode_frame, DEFAULT_MAX_FRAME_LEN};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
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
        });
    };
    oracle_rows(scale, sample_bytes, &mut push);

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
    let mut wal =
        Wal::create_on(real_fs().as_ref(), &path, CrashInjector::disabled()).expect("create");
    // Capped: the log only grows, and the row prices the append, not the
    // page cache's writeback.
    let append = ns_per_unit(WIDE, sample_bytes.min(8 << 20), || {
        wal.append_unsynced(black_box(&buf)).expect("append")
    });
    push("wal_append_ns_per_byte", WIDE, append);
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
        "{:>30}{:>12}{:>10}",
        "row", "units/call", "ns/unit"
    ));
    for p in &points {
        report.line(format!("{:>30}{:>12}{:>10.3}", p.id, p.len, p.ns_per_unit));
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
        "floor for a framed 120 KB buffer (one checksum pass + one copy): {floor:.3} ns/byte; \
         encode {:.2}x, decode {:.2}x, WAL append {:.2}x of it",
        of("frame_encode_ns_per_byte") / floor,
        of("frame_decode_ns_per_byte") / floor,
        of("wal_append_ns_per_byte") / floor,
    ));
    let rows = points
        .iter()
        .map(|p| BenchRow {
            id: p.id.clone(),
            qpf_uses: 0,
            ms: p.ns_per_unit,
            k: 0,
            n: 1_000_000,
            threads: 1,
        })
        .collect();
    (report.finish(), rows)
}
