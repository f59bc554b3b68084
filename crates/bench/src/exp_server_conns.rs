//! **server_conns** — reactor connection-scaling: a large resident crowd
//! of idle connections plus 64 active pipelined clients, with ping
//! latency percentiles. Not a paper figure — this gates the repo's own
//! epoll reactor (DESIGN.md §5).
//!
//! The old thread-per-connection server held a worker hostage per open
//! socket and its accept loop slept 10 ms between polls, so (a) idle
//! connections beyond the worker pool were impossible and (b)
//! connect-to-first-response latency had a hard 10–50 ms floor. The
//! reactor admits an idle connection for the price of a slab slot and an
//! epoll registration, and accepts on readiness:
//!
//! * `connect_ping_p99` — fresh-connection connect→ping→response p99
//!   (ms) measured *through* the resident idle crowd; the in-bench gate
//!   asserts it stays strictly below the old 50 ms floor;
//! * `pipelined_ping_p99` — per-ping p99 (ms) across 64 concurrent
//!   clients each keeping 8 requests in flight on one connection;
//! * `pipelined_total` — wall-clock for the whole active phase (ms),
//!   with the ping volume in `qpf_uses`' place kept at 0 (pings spend
//!   no QPF, so the CI qpf gate is vacuous here by construction; the
//!   latency assertions are the gate).

use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_core::{EngineConfig, PrkbEngine};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::Predicate;
use prkb_server::{PrkbClient, PrkbServer, Request, RequestHeader, ServerConfig};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const ACTIVE_CLIENTS: usize = 64;
const PIPELINE_DEPTH: usize = 8;
const ROWS: usize = 64;

/// Raw measurement output.
pub struct ServerConnsData {
    /// Idle connections actually held open (after the fd-limit clamp).
    pub idle_conns: usize,
    /// Fresh-connection connect→ping p50/p99 (ms), crowd resident.
    pub connect_p50_ms: f64,
    /// p99 of the same.
    pub connect_p99_ms: f64,
    /// Per-ping p50/p99 (ms) across the pipelined active phase.
    pub pipelined_p50_ms: f64,
    /// p99 of the same.
    pub pipelined_p99_ms: f64,
    /// Total pings answered in the active phase.
    pub pings: u64,
    /// Wall-clock of the active phase (ms).
    pub active_ms: f64,
}

/// Soft `RLIMIT_NOFILE` read from `/proc/self/limits`; `None` when the
/// file is absent or unparseable (non-Linux, exotic procfs).
fn fd_soft_limit() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Idle-crowd size for the scale, clamped so the bench (server + client
/// fds, two per connection on loopback) stays well inside the fd limit.
fn idle_target(scale: Scale) -> usize {
    let want = match scale {
        Scale::Ci => 256,
        Scale::Default => 10_000,
        Scale::Paper => 20_000,
    };
    match fd_soft_limit() {
        // Two fds per loopback connection plus the active clients,
        // server threads, and slack.
        Some(limit) => want.min(limit.saturating_sub(512) / 2),
        None => want.min(1_000),
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx] as f64 / 1_000.0
}

/// Runs the bench.
///
/// # Panics
/// Panics when latency regresses past the old accept-sleep floor: the
/// fresh-connection p99 must stay strictly below 50 ms.
pub fn measure(scale: Scale) -> ServerConnsData {
    let idle_n = idle_target(scale);

    let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, ROWS);
    let config = ServerConfig {
        threads: Some(4),
        // Admission slots for the whole idle crowd plus every active and
        // probe connection.
        queue: Some(idle_n + ACTIVE_CLIENTS + 128),
        idle_deadline: Duration::from_secs(300),
        ..ServerConfig::default()
    };
    let server = PrkbServer::bind(
        "127.0.0.1:0",
        engine,
        PlainOracle::single_column((0..ROWS as u64).collect()),
        config,
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    // Resident idle crowd: admitted, registered, then silent.
    let idle: Vec<TcpStream> = (0..idle_n)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();

    // Phase 1: fresh-connection connect→ping through the crowd.
    let probes = match scale {
        Scale::Ci => 100,
        _ => 400,
    };
    let mut connect_us: Vec<u64> = Vec::with_capacity(probes);
    for _ in 0..probes {
        let start = Instant::now();
        let mut c: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("probe connect");
        c.ping().expect("probe ping");
        connect_us.push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    connect_us.sort_unstable();

    // Phase 2: 64 pipelined clients, 8 in flight each.
    let bursts_per_client = match scale {
        Scale::Ci => 20,
        Scale::Default => 100,
        Scale::Paper => 250,
    };
    let active_start = Instant::now();
    let mut workers = Vec::with_capacity(ACTIVE_CLIENTS);
    for _ in 0..ACTIVE_CLIENTS {
        workers.push(std::thread::spawn(move || {
            let mut client: PrkbClient<Predicate> =
                PrkbClient::connect(addr).expect("pipelined connect");
            let mut per_ping_us = Vec::with_capacity(bursts_per_client);
            for _ in 0..bursts_per_client {
                let start = Instant::now();
                for _ in 0..PIPELINE_DEPTH {
                    client
                        .submit(RequestHeader::default(), &Request::Ping)
                        .expect("submit");
                }
                let responses = client.drain().expect("drain");
                assert_eq!(responses.len(), PIPELINE_DEPTH);
                let burst = start.elapsed().as_micros() as u64;
                per_ping_us.push(burst / PIPELINE_DEPTH as u64);
            }
            per_ping_us
        }));
    }
    let mut pipelined_us: Vec<u64> = Vec::new();
    for w in workers {
        pipelined_us.extend(w.join().expect("pipelined client"));
    }
    let active_ms = active_start.elapsed().as_secs_f64() * 1_000.0;
    pipelined_us.sort_unstable();

    drop(idle);
    handle.shutdown();
    handle.join().expect("drain");

    let data = ServerConnsData {
        idle_conns: idle_n,
        connect_p50_ms: percentile(&connect_us, 0.50),
        connect_p99_ms: percentile(&connect_us, 0.99),
        pipelined_p50_ms: percentile(&pipelined_us, 0.50),
        pipelined_p99_ms: percentile(&pipelined_us, 0.99),
        pings: (ACTIVE_CLIENTS * bursts_per_client * PIPELINE_DEPTH) as u64,
        active_ms,
    };

    // The regression gate: the old accept loop's 10 ms sleep put fresh
    // connections at a 10–50 ms floor. The reactor must beat it outright.
    assert!(
        data.connect_p99_ms < 50.0,
        "connect→ping p99 {:.2} ms breaches the old 50 ms accept floor",
        data.connect_p99_ms
    );

    data
}

/// Renders the report and the trajectory rows.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let data = measure(scale);
    let mut out = String::new();
    out.push_str(&format!(
        "## server_conns — {} idle conns resident, {ACTIVE_CLIENTS} pipelined clients × depth {PIPELINE_DEPTH}\n\n",
        data.idle_conns
    ));
    out.push_str("| metric | p50 ms | p99 ms |\n|---|---|---|\n");
    out.push_str(&format!(
        "| connect→ping (fresh conn) | {:.3} | {:.3} |\n",
        data.connect_p50_ms, data.connect_p99_ms
    ));
    out.push_str(&format!(
        "| pipelined ping | {:.3} | {:.3} |\n",
        data.pipelined_p50_ms, data.pipelined_p99_ms
    ));
    out.push_str(&format!(
        "\nactive phase: {} pings in {:.1} ms ({:.0} pings/s)\n",
        data.pings,
        data.active_ms,
        data.pings as f64 / (data.active_ms / 1_000.0)
    ));

    let n = data.idle_conns as u64;
    let rows = vec![
        BenchRow {
            id: "connect_ping_p99".into(),
            qpf_uses: 0,
            ms: data.connect_p99_ms,
            k: 0,
            n,
            threads: ACTIVE_CLIENTS as u64,
        },
        BenchRow {
            id: "pipelined_ping_p99".into(),
            qpf_uses: 0,
            ms: data.pipelined_p99_ms,
            k: 0,
            n,
            threads: ACTIVE_CLIENTS as u64,
        },
        BenchRow {
            id: "pipelined_total".into(),
            qpf_uses: 0,
            ms: data.active_ms,
            k: 0,
            n,
            threads: ACTIVE_CLIENTS as u64,
        },
    ];
    (out, rows)
}
