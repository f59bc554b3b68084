//! **layers** — per-byte cost of the checksum-and-framing layer that the
//! wire, the WAL and the checkpoint codecs share (ROADMAP item 2's layer
//! microbench). Not a paper figure: it prices what shipping a result
//! costs once PRKB has made finding it cheap.
//!
//! Every row is a public function in a loop over a buffer of the size the
//! served workloads use — 64 B (a request), 1.3 KB (a narrow selection's
//! reply), 120 KB (half the table, and a cold-start WAL record):
//!
//! * `crc32_ns_per_byte_{64,1300,120k}` — [`crc32`];
//! * `copy_ns_per_byte_120k` — `to_vec`, the floor one copy sets;
//! * `frame_encode_ns_per_byte` / `frame_decode_ns_per_byte` —
//!   [`encode_frame`] / [`decode_frame`] on a 120 KB payload. Each is one
//!   checksum pass plus one copy, so `crc32 + copy` is its stated floor;
//! * `wal_append_ns_per_byte` — [`Wal::append_unsynced`] of 120 KB
//!   records (no fsync): floor plus the `write` into the page cache.
//!
//! A trajectory row carries `ms` per `n` = 1 000 000 bytes, which reads
//! as ns/byte; it is the fastest of [`SAMPLES`] samples, since the
//! interest is the code's cost, not the box's noise. `qpf_uses` is 0.

use crate::harness::Report;
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_edbms::durability::{crc32, CrashInjector, Wal};
use prkb_server::wire::{decode_frame, encode_frame, DEFAULT_MAX_FRAME_LEN};
use std::hint::black_box;
use std::time::Instant;

/// Samples per row; the fastest is reported.
pub const SAMPLES: usize = 5;

/// Bytes per 120 KB buffer: 30 000 tuple ids plus a reply's fixed fields.
const WIDE: usize = 120_094;

/// One measured row.
#[derive(Debug, Clone)]
pub struct LayerPoint {
    /// Metric name (row id).
    pub id: &'static str,
    /// Bytes per call.
    pub len: usize,
    /// Nanoseconds per byte, fastest sample.
    pub ns_per_byte: f64,
}

/// Fastest-sample ns/byte of `f` over `len`-byte calls, each sample
/// covering at least `sample_bytes`.
fn ns_per_byte<T>(len: usize, sample_bytes: usize, mut f: impl FnMut() -> T) -> f64 {
    let iters = (sample_bytes / len).max(1);
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
    let mut push = |id, len, ns_per_byte| {
        points.push(LayerPoint {
            id,
            len,
            ns_per_byte,
        });
    };

    for (id, len) in [
        ("crc32_ns_per_byte_64", 64),
        ("crc32_ns_per_byte_1300", 1300),
        ("crc32_ns_per_byte_120k", WIDE),
    ] {
        let bytes = &buf[..len];
        push(
            id,
            len,
            ns_per_byte(len, sample_bytes, || crc32(black_box(bytes))),
        );
    }
    push(
        "copy_ns_per_byte_120k",
        WIDE,
        ns_per_byte(WIDE, sample_bytes, || black_box(&buf).to_vec()),
    );
    push(
        "frame_encode_ns_per_byte",
        WIDE,
        ns_per_byte(WIDE, sample_bytes, || encode_frame(black_box(&buf))),
    );
    let frame = encode_frame(&buf);
    push(
        "frame_decode_ns_per_byte",
        WIDE,
        ns_per_byte(WIDE, sample_bytes, || {
            decode_frame(black_box(&frame), DEFAULT_MAX_FRAME_LEN).expect("own frame")
        }),
    );

    let dir = std::env::temp_dir().join(format!("prkb-bench-layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let mut wal = Wal::create(&dir.join("wal.0.log"), CrashInjector::disabled()).expect("create");
    push(
        "wal_append_ns_per_byte",
        WIDE,
        // Capped: the log only grows, and the row prices the append, not
        // the page cache's writeback.
        ns_per_byte(WIDE, sample_bytes.min(8 << 20), || {
            wal.append_unsynced(black_box(&buf)).expect("append")
        }),
    );
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    points
}

/// Renders the report and the trajectory rows.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let points = measure(scale);
    let of = |id: &str| {
        points
            .iter()
            .find(|p| p.id == id)
            .expect("row measured")
            .ns_per_byte
    };
    let floor = of("crc32_ns_per_byte_120k") + of("copy_ns_per_byte_120k");
    let mut report = Report::new(&format!(
        "layers — checksum and framing, ns/byte (fastest of {SAMPLES} samples)"
    ));
    report.line(format!(
        "{:>28}{:>12}{:>10}",
        "row", "bytes/call", "ns/byte"
    ));
    for p in &points {
        report.line(format!("{:>28}{:>12}{:>10.3}", p.id, p.len, p.ns_per_byte));
    }
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
            id: p.id.to_string(),
            qpf_uses: 0,
            ms: p.ns_per_byte,
            k: 0,
            n: 1_000_000,
            threads: 1,
        })
        .collect();
    (report.finish(), rows)
}
