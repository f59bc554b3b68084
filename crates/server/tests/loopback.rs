//! Loopback equivalence: the networked engine must be indistinguishable
//! from the in-process one.
//!
//! * sequentially, every reply (results *and* stats, QPF uses included)
//!   must be byte-identical to driving a twin engine in process;
//! * concurrently, replaying the committed queries in commit-sequence
//!   order on a fresh engine must reproduce every reply exactly — which
//!   also proves total QPF spend never exceeds the sequential cost;
//! * shutdown must drain without losing committed refinements (durable
//!   mode survives a full server restart), and an idle server syncs the
//!   refinements its selects deferred without being shut down;
//! * failures (unknown attributes, hostile ids) surface as stable wire
//!   codes, never as dead workers;
//! * a SQL conjunction is served: one select carries any list of
//!   trapdoors.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{copy_tree, kb_bytes, strided_columns, TmpDir};
use prkb_core::{snapshot, EngineConfig, PrkbEngine, ShardedDurablePool};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate, TupleId};
use prkb_server::{proto, ClientError, PrkbClient, PrkbServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

const ROWS: usize = 240;

fn fresh_engine(n: usize, attrs: u32) -> PrkbEngine<Predicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    for a in 0..attrs {
        engine.init_attr(a, n);
    }
    engine
}

fn start_server() -> (
    std::net::SocketAddr,
    prkb_server::ServerHandle<Predicate, PlainOracle>,
) {
    let oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let server = PrkbServer::bind(
        "127.0.0.1:0",
        fresh_engine(ROWS, 2),
        oracle,
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    (addr, handle)
}

/// One recorded query — its seed and trapdoors — everything needed to
/// replay it in process.
#[derive(Debug, Clone)]
struct Spec(u64, Vec<Predicate>);

impl Spec {
    fn send(&self, client: &mut PrkbClient<Predicate>) -> prkb_server::SelectionReply {
        client.select_where(self.0, self.1.clone()).expect("select")
    }
}

fn replay(
    engine: &mut PrkbEngine<Predicate>,
    oracle: &PlainOracle,
    Spec(seed, preds): &Spec,
) -> (Vec<TupleId>, prkb_core::QueryStats) {
    let sel = engine
        .try_select_where(oracle, preds, &mut StdRng::seed_from_u64(*seed))
        .expect("replay select");
    (sel.sorted(), sel.stats)
}

// ---------------------------------------------------------------------------
// Sequential equivalence
// ---------------------------------------------------------------------------

#[test]
fn single_client_matches_in_process_engine() {
    let (addr, handle) = start_server();
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    client.ping().expect("ping");

    let mut inline_oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let mut inline = fresh_engine(ROWS, 2);

    let queries: Vec<Spec> = vec![
        Spec(11, vec![Predicate::cmp(0, ComparisonOp::Lt, 120)]),
        Spec(12, vec![Predicate::cmp(0, ComparisonOp::Ge, 40)]),
        Spec(13, vec![Predicate::between(1, 30, 180)]),
        Spec(14, vec![Predicate::cmp(1, ComparisonOp::Le, 77)]),
        Spec(
            15,
            vec![
                Predicate::cmp(0, ComparisonOp::Gt, 20),
                Predicate::cmp(0, ComparisonOp::Lt, 200),
                Predicate::cmp(1, ComparisonOp::Ge, 10),
                Predicate::cmp(1, ComparisonOp::Le, 150),
            ],
        ),
        Spec(16, vec![Predicate::cmp(0, ComparisonOp::Lt, 119)]),
        Spec(17, vec![Predicate::between(0, 60, 90)]),
    ];

    for (i, spec) in queries.iter().enumerate() {
        let reply = spec.send(&mut client);
        let (expected_tuples, expected_stats) = replay(&mut inline, &inline_oracle, spec);
        assert_eq!(reply.sorted(), expected_tuples, "query {i}: result set");
        assert_eq!(reply.stats, expected_stats, "query {i}: full stats");
        assert_eq!(
            reply.stats.qpf_uses, expected_stats.qpf_uses,
            "query {i}: QPF spend"
        );
        assert_eq!(reply.seq, i as u64 + 1, "dense commit sequence");
    }

    // Insert: upload the row out of band (owner→SP data path), then route
    // its id over the wire.
    let new_row = [55u64, 200u64];
    let t = {
        let oracle = handle.oracle();
        let mut oracle = oracle.write().expect("oracle write");
        oracle.insert(&new_row)
    };
    assert_eq!(t as usize, ROWS);
    let t_inline = inline_oracle.insert(&new_row);
    assert_eq!(t, t_inline);
    let (_, outcomes) = client.insert(t).expect("insert");
    let inline_outcomes = inline.try_insert(&inline_oracle, t).expect("inline insert");
    assert_eq!(outcomes, inline_outcomes, "insert routing outcomes");

    // Delete the freshly inserted tuple again, both sides.
    client.delete(t).expect("delete");
    inline.delete(t);

    // After identical histories the knowledge bases must be byte-identical.
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert_eq!(report.frame_errors(), 0);
    let server_kb = report.inspect(kb_bytes);
    assert_eq!(server_kb, kb_bytes(&inline), "knowledge byte-identical");
    report.inspect(|engine| {
        for a in engine.attrs().collect::<Vec<_>>() {
            engine
                .knowledge(a)
                .expect("attr")
                .validate()
                .expect("knowledge invariants after wire history");
        }
    });
}

// ---------------------------------------------------------------------------
// Concurrent equivalence
// ---------------------------------------------------------------------------

#[test]
fn four_clients_match_sequential_replay() {
    let (addr, handle) = start_server();
    type Record = (u64, Spec, Vec<TupleId>, prkb_core::QueryStats);
    let records: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));

    let mut workers = Vec::new();
    for w in 0..4u64 {
        let records = Arc::clone(&records);
        workers.push(std::thread::spawn(move || {
            let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
            for round in 0..10u64 {
                let seed = w * 1000 + round;
                let attr = ((w + round) % 2) as u32;
                let lo = (w * 23 + round * 17) % 200;
                let preds = match round % 4 {
                    3 => vec![
                        Predicate::cmp(0, ComparisonOp::Gt, lo),
                        Predicate::cmp(0, ComparisonOp::Lt, lo + 40),
                        Predicate::cmp(1, ComparisonOp::Ge, lo / 2),
                        Predicate::cmp(1, ComparisonOp::Le, lo / 2 + 80),
                    ],
                    2 => vec![Predicate::between(attr, lo, lo + 30)],
                    _ => vec![Predicate::cmp(attr, ComparisonOp::Lt, lo + 20)],
                };
                let spec = Spec(seed, preds);
                let reply = spec.send(&mut client);
                records.lock().expect("records lock").push((
                    reply.seq,
                    spec,
                    reply.sorted(),
                    reply.stats,
                ));
            }
        }));
    }
    for w in workers {
        w.join().expect("client worker");
    }

    let client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");

    // Commit sequence numbers are a total order: dense and unique.
    let mut records = Arc::try_unwrap(records)
        .expect("workers joined")
        .into_inner()
        .expect("records lock");
    records.sort_by_key(|(seq, ..)| *seq);
    let seqs: Vec<u64> = records.iter().map(|(seq, ..)| *seq).collect();
    assert_eq!(seqs, (1..=40u64).collect::<Vec<_>>(), "dense total order");

    // Replaying in commit order on a fresh engine reproduces every reply —
    // results and per-query QPF spend — so the concurrent total equals the
    // sequential total (and in particular never exceeds it).
    let inline_oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let mut inline = fresh_engine(ROWS, 2);
    let mut concurrent_total = 0u64;
    for (seq, spec, tuples, stats) in &records {
        let (expected_tuples, expected_stats) = replay(&mut inline, &inline_oracle, spec);
        assert_eq!(tuples, &expected_tuples, "seq {seq}: result set");
        assert_eq!(stats, &expected_stats, "seq {seq}: stats");
        concurrent_total += stats.qpf_uses;
    }
    let sequential_total: u64 = records.iter().map(|(_, _, _, s)| s.qpf_uses).sum();
    assert!(concurrent_total <= sequential_total);

    // The concurrently-built knowledge passes its structural invariants
    // and matches the sequential replay byte for byte.
    let server_kb = report.inspect(kb_bytes);
    assert_eq!(server_kb, kb_bytes(&inline));
    report.inspect(|engine| {
        for a in 0..2u32 {
            engine
                .knowledge(a)
                .expect("attr")
                .validate()
                .expect("valid knowledge after concurrent serving");
        }
    });
}

// ---------------------------------------------------------------------------
// Durable pool: shutdown loses nothing
// ---------------------------------------------------------------------------

#[test]
fn durable_pool_backend_survives_restart() {
    let dir = TmpDir::new("durable-pool");
    let oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let mut pool = ShardedDurablePool::open(&dir.0, EngineConfig::default()).expect("open pool");
    pool.init_attr(0, ROWS).expect("init");
    pool.init_attr(1, ROWS).expect("init");

    let server =
        PrkbServer::bind_durable_pool("127.0.0.1:0", pool, oracle, ServerConfig::default())
            .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    for (i, bound) in [100u64, 40, 170, 90].into_iter().enumerate() {
        let attr = (i % 2) as u32;
        let reply = client
            .select_where(
                i as u64,
                vec![Predicate::cmp(attr, ComparisonOp::Lt, bound)],
            )
            .expect("select");
        assert_eq!(reply.tuples.len(), bound as usize);
    }
    // A two-attribute footprint too: PRKB(MD) over both attributes
    // commits one WAL record holding both attributes' entries.
    let preds = vec![
        Predicate::cmp(0, ComparisonOp::Gt, 30),
        Predicate::cmp(0, ComparisonOp::Lt, 120),
        Predicate::cmp(1, ComparisonOp::Gt, 10),
        Predicate::cmp(1, ComparisonOp::Lt, 200),
    ];
    client.select_where(9, preds).expect("md select");
    client.shutdown().expect("shutdown (drains the pool)");
    let report = handle.join().expect("join");
    let (k0_live, k1_live) = report.inspect(|e| {
        (
            e.knowledge(0).expect("attr 0").k(),
            e.knowledge(1).expect("attr 1").k(),
        )
    });
    assert!(k0_live > 1, "queries refined attr 0 (k = {k0_live})");
    drop(report);

    // Reopen: the pool's one log replays its whole committed history.
    let pool = ShardedDurablePool::<Predicate>::open(&dir.0, EngineConfig::default())
        .expect("reopen pool");
    let engine = pool.engine();
    let k_disk = (
        engine.knowledge(0).expect("attr 0").k(),
        engine.knowledge(1).expect("attr 1").k(),
    );
    assert_eq!(
        k_disk,
        (k0_live, k1_live),
        "no committed refinement lost to restart"
    );
}

/// A select replies before its refinements are fsync'd, so a server that
/// goes quiet must sync them on its own: after a burst of refining selects
/// and a tick of silence, a *copy* of the pool directory — taken with the
/// server still up, as a crash would leave it — reopens byte-equal to what
/// the server holds in memory.
#[test]
fn idle_server_syncs_its_deferred_tail() {
    let dir = TmpDir::new("idle-sync");
    let oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let mut pool = ShardedDurablePool::open(&dir.0, EngineConfig::default()).expect("open pool");
    pool.init_attr(0, ROWS).expect("init");
    pool.init_attr(1, ROWS).expect("init");
    let server =
        PrkbServer::bind_durable_pool("127.0.0.1:0", pool, oracle, ServerConfig::default())
            .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    // The burst, mirrored on an in-process twin: what the server now holds.
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    let twin_oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let mut twin = fresh_engine(ROWS, 2);
    for (i, bound) in [100u64, 40, 170, 90, 20, 130].into_iter().enumerate() {
        let pred = Predicate::cmp((i % 2) as u32, ComparisonOp::Lt, bound);
        let spec = Spec(i as u64, vec![pred]);
        let reply = spec.send(&mut client);
        let (expected, _) = replay(&mut twin, &twin_oracle, &spec);
        assert_eq!(reply.sorted(), expected);
    }
    let served = kb_bytes(&twin);

    // Silence. No request, no shutdown: only the idle tick can sync the
    // tail, so poll copies of the directory until one recovers it all.
    let recovered_copy = || {
        let copy = TmpDir::new("idle-sync-copy");
        copy_tree(&dir.0, &copy.0);
        let pool = ShardedDurablePool::<Predicate>::open(&copy.0, EngineConfig::default())
            .expect("a copy of a live pool reopens");
        let image = |attr| snapshot::save(pool.engine().knowledge(attr).expect("attr indexed"));
        vec![image(0), image(1)]
    };
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while recovered_copy() != served {
        assert!(
            std::time::Instant::now() < give_up,
            "an idle server never synced its deferred refinements"
        );
        std::thread::yield_now();
    }

    handle.shutdown();
    let report = handle.join().expect("join");
    assert_eq!(
        report.inspect(kb_bytes),
        served,
        "the twin is what was served"
    );
}

// ---------------------------------------------------------------------------
// Error paths and metrics
// ---------------------------------------------------------------------------

#[test]
fn failures_map_to_stable_wire_codes() {
    let (addr, handle) = start_server();
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");

    // Unknown attribute.
    let err = client
        .select_where(1, vec![Predicate::cmp(9, ComparisonOp::Lt, 5)])
        .expect_err("attr 9 unknown");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::ATTR_NOT_INITIALIZED),
        "got {err:?}"
    );

    // Hostile tuple id on insert.
    let err = client.insert(999_999).expect_err("tuple beyond table");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::MALFORMED),
        "got {err:?}"
    );

    // A repeated attribute is one dimension: two pairs on attribute 0, or
    // one pair split over two attributes, are answered, not refused.
    let oracle = PlainOracle::from_columns(strided_columns(ROWS));
    for preds in [
        vec![
            Predicate::cmp(0, ComparisonOp::Gt, 1),
            Predicate::cmp(0, ComparisonOp::Lt, 90),
            Predicate::cmp(0, ComparisonOp::Ge, 2),
            Predicate::cmp(0, ComparisonOp::Le, 80),
        ],
        vec![
            Predicate::cmp(0, ComparisonOp::Gt, 1),
            Predicate::cmp(1, ComparisonOp::Lt, 90),
        ],
    ] {
        let reply = client.select_where(1, preds.clone()).expect("answered");
        assert_eq!(reply.sorted(), oracle.expected_conjunction(&preds));
    }

    // The connection survived all of that.
    client.ping().expect("still alive");
    let reply = client
        .select_where(2, vec![Predicate::cmp(0, ComparisonOp::Lt, 50)])
        .expect("healthy query");
    assert_eq!(reply.tuples.len(), 50);

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn metrics_snapshot_travels_the_wire() {
    let (addr, handle) = start_server();
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    client.ping().expect("ping");
    client
        .select_where(3, vec![Predicate::cmp(0, ComparisonOp::Lt, 10)])
        .expect("select");

    let json = client.metrics().expect("metrics");
    assert!(json.contains("\"schema\":\"prkb-metrics/v8\""), "{json}");
    assert!(json.contains("\"shards\":"), "{json}");
    assert!(json.contains("\"group_commit_fsyncs\""), "{json}");
    assert!(json.contains("\"shard_lock_wait_us\""), "{json}");
    assert!(json.contains("\"server_requests\""), "{json}");
    assert!(json.contains("\"server_bytes\""), "{json}");
    assert!(json.contains("\"frame_errors\""), "{json}");

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    // Ping + select + metrics + shutdown, at least (the registry is
    // process-global and other tests share it, so assert on the report).
    assert!(
        report.requests() >= 4,
        "served {} requests",
        report.requests()
    );
    assert_eq!(report.frame_errors(), 0);
}

/// A whole-table select over 270 000 rows: as a list its reply is
/// 1.08 MB, over the 1 MiB frame cap a client reads; as the bitmap it is
/// about 34 KB, and it answers.
#[test]
fn a_whole_table_select_over_270_000_rows_answers() {
    const N: u32 = 270_000;
    let oracle = PlainOracle::single_column((0..u64::from(N)).collect());
    let server = PrkbServer::bind(
        "127.0.0.1:0",
        fresh_engine(N as usize, 1),
        oracle,
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    let reply = client
        .select_where(1, vec![Predicate::cmp(0, ComparisonOp::Lt, u64::from(N))])
        .expect("the whole table fits a frame");
    assert_eq!(reply.sorted(), (0..N).collect::<Vec<_>>());
    assert_eq!(client.retries(), 0);
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}
