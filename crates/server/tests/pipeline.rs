//! Pipelining equivalence: N requests pipelined on ONE connection must
//! produce responses byte-identical, and in submission order, to the same
//! N requests issued sequentially over N fresh connections against a twin
//! server.
//!
//! This is the reactor's FIFO contract under test: a connection is held
//! by one server thread at a time, which answers its frames in the order
//! they were read, so pipelined execution order equals submission order
//! equals the sequential replay's order — and with both servers
//! seeded identically, every commit draws the same sequence number and
//! every selection spends the same QPF. The comparison is on raw frame
//! payloads, not decoded structs: equality down to the byte.
//!
//! The chaos variant re-runs the pipelined side through a [`ChaosProxy`]
//! that trickles some frames one byte at a time (non-destructive frame
//! splitting): mid-pipeline stalls between TCP segments must not reorder,
//! drop, or alter a single response byte.

use prkb_core::{EngineConfig, PrkbEngine, SessionScheduler};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use prkb_server::proto::{Request, RequestHeader};
use prkb_server::wire::{encode_frame, ReadStep, DEFAULT_MAX_FRAME_LEN};
use prkb_server::{FrameReader, PrkbServer, ServerConfig, ServerHandle};
use prkb_sim::{ChaosProxy, FaultAction, FaultPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 96;
const ATTRS: u32 = 4;

/// Four deterministic columns, so footprints spread across attribute
/// locks.
fn columns() -> Vec<Vec<u64>> {
    (0..ATTRS as u64)
        .map(|a| {
            (0..ROWS as u64)
                .map(|i| (i * (17 + a * 7)) % ROWS as u64)
                .collect()
        })
        .collect()
}

fn fresh_engine() -> PrkbEngine<Predicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    for a in 0..ATTRS {
        engine.init_attr(a, ROWS);
    }
    engine
}

fn spawn_twin() -> (SocketAddr, ServerHandle<Predicate, PlainOracle>) {
    let server = PrkbServer::bind_scheduler(
        "127.0.0.1:0",
        SessionScheduler::new(fresh_engine()),
        PlainOracle::from_columns(columns()),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    (addr, handle)
}

/// Builds a deterministic script of engine ops (and the odd ping) from a
/// seed. Request ids are distinct and identical across both runs, so the
/// dedup window sees the same keys on both twins.
fn build_script(seed: u64, n: usize) -> Vec<(RequestHeader, Request<Predicate>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Every tuple starts placed; the engine asserts on double insert, so
    // Insert only re-routes a tuple the script already deleted.
    let mut alive: Vec<u32> = (0..ROWS as u32).collect();
    let mut deleted: Vec<u32> = Vec::new();
    (0..n)
        .map(|i| {
            let hdr = RequestHeader {
                request_id: 1_000 + i as u64,
                deadline_ms: None,
            };
            let attr = rng.gen_range(0..ATTRS);
            let req = match rng.gen_range(0u8..10) {
                0..=3 => Request::Select {
                    seed: rng.gen(),
                    preds: vec![Predicate::cmp(
                        attr,
                        if rng.gen() {
                            ComparisonOp::Lt
                        } else {
                            ComparisonOp::Gt
                        },
                        rng.gen_range(0..ROWS as u64),
                    )],
                },
                4..=5 => {
                    let lo = rng.gen_range(0..ROWS as u64 / 2);
                    let hi = rng.gen_range(lo..ROWS as u64);
                    Request::Select {
                        seed: rng.gen(),
                        preds: vec![Predicate::between(attr, lo, hi)],
                    }
                }
                6..=7 if !alive.is_empty() => {
                    let tuple = alive.swap_remove(rng.gen_range(0..alive.len()));
                    deleted.push(tuple);
                    Request::Delete { tuple }
                }
                8 if !deleted.is_empty() => {
                    let tuple = deleted.swap_remove(rng.gen_range(0..deleted.len()));
                    alive.push(tuple);
                    Request::Insert { tuple }
                }
                _ => Request::Ping,
            };
            (hdr, req)
        })
        .collect()
}

/// Read exactly `n` response frame payloads off one socket.
fn read_n_frames(stream: &mut TcpStream, n: usize) -> Vec<Vec<u8>> {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("timeout");
    let mut reader = FrameReader::new();
    let mut out = Vec::with_capacity(n);
    let deadline = Instant::now() + Duration::from_secs(30);
    while out.len() < n {
        match reader.poll(stream, DEFAULT_MAX_FRAME_LEN) {
            Ok(ReadStep::Frame { payload, .. }) => out.push(payload.to_vec()),
            Ok(ReadStep::Closed) => {
                panic!("server closed with {} of {n} responses read", out.len())
            }
            Ok(_) => {}
            Err(_) => {}
        }
        assert!(
            Instant::now() < deadline,
            "timed out with {} of {n} responses read",
            out.len()
        );
    }
    out
}

/// Pipelined run: every request frame written up front on one
/// connection, then all responses read back in order.
fn run_pipelined(addr: SocketAddr, script: &[(RequestHeader, Request<Predicate>)]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    for (hdr, req) in script {
        stream
            .write_all(&encode_frame(&req.encode_with(*hdr)))
            .expect("write frame");
    }
    read_n_frames(&mut stream, script.len())
}

/// Sequential run: one fresh connection per request.
fn run_sequential(
    addr: SocketAddr,
    script: &[(RequestHeader, Request<Predicate>)],
) -> Vec<Vec<u8>> {
    script
        .iter()
        .map(|(hdr, req)| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream
                .write_all(&encode_frame(&req.encode_with(*hdr)))
                .expect("write frame");
            read_n_frames(&mut stream, 1).remove(0)
        })
        .collect()
}

fn assert_byte_identical(pipelined: &[Vec<u8>], sequential: &[Vec<u8>]) {
    assert_eq!(pipelined.len(), sequential.len());
    for (i, (p, s)) in pipelined.iter().zip(sequential).enumerate() {
        assert_eq!(
            p, s,
            "response {i} differs between pipelined and sequential execution"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core equivalence: one pipelined connection vs N sequential
    /// connections on a twin server, byte-for-byte.
    fn pipelined_equals_sequential_replay(
        seed in any::<u64>(),
        n in 4usize..16,
    ) {
        let script = build_script(seed, n);
        let (addr_a, handle_a) = spawn_twin();
        let pipelined = run_pipelined(addr_a, &script);
        handle_a.shutdown();
        let report_a = handle_a.join().expect("join A");

        let (addr_b, handle_b) = spawn_twin();
        let sequential = run_sequential(addr_b, &script);
        handle_b.shutdown();
        let report_b = handle_b.join().expect("join B");

        assert_byte_identical(&pipelined, &sequential);
        prop_assert_eq!(report_a.requests(), n as u64);
        prop_assert_eq!(report_a.requests(), report_b.requests());
        prop_assert_eq!(report_a.frame_errors(), 0);
        prop_assert_eq!(report_b.frame_errors(), 0);
    }

    /// Same equivalence with the pipelined side squeezed through a chaos
    /// proxy that trickles two frames byte-by-byte mid-pipeline. The
    /// faults are non-destructive (every frame arrives intact), so the
    /// responses must still match the clean sequential replay exactly.
    fn pipelined_equals_sequential_under_frame_splits(
        seed in any::<u64>(),
        n in 4usize..10,
    ) {
        let script = build_script(seed, n);
        let (addr_a, handle_a) = spawn_twin();
        let plan = Arc::new(FaultPlan::scripted([
            FaultAction::Forward,
            FaultAction::Trickle,
            FaultAction::Forward,
            FaultAction::Trickle,
        ]));
        let proxy = ChaosProxy::spawn(addr_a, plan).expect("proxy");
        let pipelined = run_pipelined(proxy.addr(), &script);
        proxy.stop();
        handle_a.shutdown();
        handle_a.join().expect("join A");

        let (addr_b, handle_b) = spawn_twin();
        let sequential = run_sequential(addr_b, &script);
        handle_b.shutdown();
        handle_b.join().expect("join B");

        assert_byte_identical(&pipelined, &sequential);
    }
}
