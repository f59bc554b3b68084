//! Service-resilience boundary: BUSY shedding under saturation, deadline
//! budgets under contention, oracle faults behind the one retry layer.
//!
//! * **Saturation.** A 1-worker, queue-1 server flooded with connections
//!   must shed the excess with the stable BUSY code — fast, explicit
//!   rejections, never hung connections — and, once the flood ebbs, serve
//!   the queued and retried work to results identical to a sequential
//!   in-process replay.
//! * **Deadlines.** A query whose budget burns down while it waits for a
//!   contended attribute must come back with the DEADLINE code *without*
//!   leaking its attribute checkout: the next query on the same attribute
//!   succeeds and draws the next dense sequence number.
//! * **Oracle faults.** Nothing retries an oracle call: a fault aborts the
//!   served query with the KB untouched, and the client — the one retry
//!   layer — re-issues the request with the same id and seed, so replies,
//!   commit numbers and the final KB equal a fault-free twin's.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::kb_bytes;
use prkb_core::{EngineConfig, InsertOutcome, PrkbEngine};
use prkb_edbms::resilience::RetryPolicy;
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::trapdoor::PredicateKind;
use prkb_edbms::{AttrId, ComparisonOp, OracleError, Predicate, SelectionOracle, TupleId};
use prkb_server::proto::{code, Request, Response};
use prkb_server::wire::{encode_frame, ReadStep, DEFAULT_MAX_FRAME_LEN};
use prkb_server::{
    ClientConfig, ClientError, FrameReader, PrkbClient, PrkbServer, SelectionReply, ServerConfig,
};
use prkb_sim::{FaultConfig, FaultInjector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const ROWS: usize = 200;

fn values() -> Vec<u64> {
    (0..ROWS as u64).map(|i| (i * 37) % ROWS as u64).collect()
}

fn fresh_engine() -> PrkbEngine<Predicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, ROWS);
    engine
}

/// A client that never retries and never sleeps: errors must surface,
/// not be absorbed. `rid_seed` stays 0 so independent clients draw
/// disjoint request-id streams and never collide in the dedup window.
fn no_retry_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        retry: RetryPolicy::fast(1),
        ..ClientConfig::default()
    }
}

/// Read exactly one framed response off a raw socket.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = FrameReader::new();
    loop {
        match reader
            .poll(stream, DEFAULT_MAX_FRAME_LEN)
            .expect("framed answer")
        {
            ReadStep::Frame { payload, .. } => return payload.to_vec(),
            ReadStep::Closed => panic!("connection closed instead of answering"),
            _ => continue,
        }
    }
}

// ---------------------------------------------------------------------------
// Saturation → BUSY shedding
// ---------------------------------------------------------------------------

#[test]
fn saturated_server_sheds_busy_then_drains_to_replay_equivalence() {
    let config = ServerConfig {
        threads: Some(1),
        queue: Some(1),
        ..ServerConfig::default()
    };
    let server = PrkbServer::bind(
        "127.0.0.1:0",
        fresh_engine(),
        PlainOracle::single_column(values()),
        config,
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    // Admit the holder: the ping round trip proves it holds a connection
    // slot, not that it is still waiting to be accepted.
    let mut holder: PrkbClient<Predicate> =
        PrkbClient::connect_with(addr, no_retry_config()).expect("connect holder");
    holder.ping().expect("holder served");

    // Fill the queue's single slot with a raw connection, and give the
    // accept loop a moment to move it into the queue.
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    std::thread::sleep(Duration::from_millis(100));

    // Flood: every further connection must get an answer — the BUSY
    // frame, pushed by the accept loop itself — never a silent hang.
    // (The sheds are read without writing: the server half-closes the
    // socket right after the BUSY frame, so a write could race an RST
    // and clobber the buffered response.)
    for i in 0..5 {
        let mut flood = TcpStream::connect(addr).expect("tcp connect still works");
        match Response::decode(&read_frame(&mut flood)).expect("decode shed frame") {
            Response::Error { code: c, message } => {
                assert_eq!(c, code::BUSY, "shed connection {i} answers BUSY");
                assert!(!message.is_empty());
            }
            other => panic!("expected BUSY error, got {other:?}"),
        }
    }

    // The flood never displaced admitted work: the held connection still
    // serves, and commits the first refinement.
    let first = holder
        .select_where(21, vec![Predicate::cmp(0, ComparisonOp::Lt, 120)])
        .expect("holder query");
    assert_eq!(first.seq, 1);

    // Drop the holder; the queued connection is served to completion
    // (ping round trip on the raw socket).
    drop(holder);
    queued
        .write_all(&encode_frame(&Request::<Predicate>::Ping.encode()))
        .expect("queued ping");
    assert!(matches!(
        Response::decode(&read_frame(&mut queued)).expect("decode"),
        Response::Ok
    ));
    drop(queued);

    // A retrying client — the recovery path a BUSY victim is expected to
    // take — now gets through and commits the second refinement.
    let retry_config = ClientConfig {
        retry: RetryPolicy::fast(8),
        ..no_retry_config()
    };
    let mut retry: PrkbClient<Predicate> =
        PrkbClient::connect_with(addr, retry_config).expect("connect retry");
    let second = retry
        .select_where(22, vec![Predicate::cmp(0, ComparisonOp::Ge, 60)])
        .expect("post-flood query");
    assert_eq!(second.seq, 2);
    retry.shutdown().expect("shutdown");

    let report = handle.join().expect("join");
    assert_eq!(
        report.busy_rejections(),
        5,
        "every flood connection counted"
    );

    // Replay equivalence: the committed queries, replayed sequentially in
    // commit order on a twin engine, reproduce results and stats exactly.
    let oracle = PlainOracle::single_column(values());
    let mut twin = fresh_engine();
    let r1 = twin
        .try_select(
            &oracle,
            &Predicate::cmp(0, ComparisonOp::Lt, 120),
            &mut StdRng::seed_from_u64(21),
        )
        .expect("replay 1");
    assert_eq!(r1.sorted(), first.sorted());
    assert_eq!(r1.stats, first.stats);
    let r2 = twin
        .try_select(
            &oracle,
            &Predicate::cmp(0, ComparisonOp::Ge, 60),
            &mut StdRng::seed_from_u64(22),
        )
        .expect("replay 2");
    assert_eq!(r2.sorted(), second.sorted());
    assert_eq!(r2.stats, second.stats);

    report.inspect(|engine| {
        engine
            .knowledge(0)
            .expect("attr 0")
            .validate()
            .expect("KB valid after saturation");
    });
}

// ---------------------------------------------------------------------------
// Deadline budgets under contention
// ---------------------------------------------------------------------------

/// Delegates to [`PlainOracle`] but sleeps per evaluation batch, so one
/// query holds its attribute checkout long enough for a second query's
/// budget to burn down while parked behind it.
struct SlowOracle {
    inner: PlainOracle,
    delay: Duration,
}

impl SelectionOracle for SlowOracle {
    type Pred = Predicate;

    fn try_eval(&self, pred: &Predicate, t: TupleId) -> Result<bool, OracleError> {
        std::thread::sleep(self.delay);
        self.inner.try_eval(pred, t)
    }

    fn try_eval_batch(
        &self,
        pred: &Predicate,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        std::thread::sleep(self.delay);
        self.inner.try_eval_batch(pred, tuples, out)
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

#[test]
fn expired_deadline_returns_deadline_code_without_leaking_the_attribute() {
    let oracle = SlowOracle {
        inner: PlainOracle::single_column(values()),
        delay: Duration::from_millis(400),
    };
    let server = PrkbServer::bind(
        "127.0.0.1:0",
        fresh_engine(),
        oracle,
        ServerConfig {
            threads: Some(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    // Query A holds attribute 0's checkout for ≥400 ms (every oracle
    // batch sleeps). The channel handshake plus a 100 ms grace period
    // guarantees A's select is in flight before B is even connected.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let slow = std::thread::spawn(move || {
        let mut a: PrkbClient<Predicate> =
            PrkbClient::connect_with(addr, no_retry_config()).expect("connect A");
        a.ping().expect("A live");
        ready_tx.send(()).expect("signal");
        a.select_where(31, vec![Predicate::cmp(0, ComparisonOp::Lt, 150)])
            .expect("slow select commits")
    });
    ready_rx.recv().expect("A ready");
    std::thread::sleep(Duration::from_millis(100));

    // Query B arrives with a 5 ms budget while A is mid-evaluation. It
    // parks on the busy attribute; by the time the checkout frees, the
    // budget is long gone → DEADLINE, and the checkout B briefly acquired
    // is rolled back before any oracle work or sequence-number draw.
    let mut b: PrkbClient<Predicate> = PrkbClient::connect_with(
        addr,
        ClientConfig {
            deadline_ms: 5,
            ..no_retry_config()
        },
    )
    .expect("connect B");
    match b.select_where(32, vec![Predicate::cmp(0, ComparisonOp::Ge, 50)]) {
        Err(ClientError::Server { code: c, .. }) => {
            assert_eq!(c, code::DEADLINE, "expired budget answers DEADLINE");
        }
        other => panic!("expected DEADLINE, got {other:?}"),
    }
    drop(b);

    let first = slow.join().expect("A thread");
    assert_eq!(first.seq, 1, "A committed normally");

    // No leak: the same attribute serves a fresh un-deadlined client, and
    // the aborted query drew no sequence number.
    let mut c: PrkbClient<Predicate> =
        PrkbClient::connect_with(addr, no_retry_config()).expect("connect C");
    let recovered = c
        .select_where(33, vec![Predicate::cmp(0, ComparisonOp::Ge, 50)])
        .expect("attribute not leaked");
    assert_eq!(recovered.seq, 2, "dense sequence across the abort");

    c.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert!(
        report.deadline_timeouts() >= 1,
        "deadline expiry was counted ({} events)",
        report.deadline_timeouts()
    );
    report.inspect(|engine| {
        engine
            .knowledge(0)
            .expect("attr 0")
            .validate()
            .expect("KB valid after deadline abort");
    });
}

// ---------------------------------------------------------------------------
// Oracle faults → the client re-issues the query
// ---------------------------------------------------------------------------

/// One reply of [`serve_workload`], tuple ids sorted.
#[derive(Debug, PartialEq)]
enum Reply {
    Selection(SelectionReply),
    Inserted(u64, Vec<(AttrId, InsertOutcome)>),
    Deleted(u64),
}

/// Serves a fixed workload — comparisons, a BETWEEN, an MD range, the
/// insert of a row uploaded beyond the indexed ones, a delete — over
/// `oracle` to one retrying client with a pinned request-id stream.
/// Returns every reply, the final KB bytes and the client's retry count.
fn serve_workload<O>(oracle: O) -> (Vec<Reply>, Vec<Vec<u8>>, u64)
where
    O: SelectionOracle<Pred = Predicate> + Send + Sync + 'static,
{
    let mut engine = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, ROWS);
    engine.init_attr(1, ROWS);
    let server =
        PrkbServer::bind("127.0.0.1:0", engine, oracle, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let mut client: PrkbClient<Predicate> = PrkbClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Duration::from_secs(10),
            retry: RetryPolicy::fast(32),
            rid_seed: 0x0AC1E,
            ..ClientConfig::default()
        },
    )
    .expect("connect");

    let selection = |r: SelectionReply| {
        Reply::Selection(SelectionReply {
            tuples: r.sorted(),
            ..r
        })
    };
    let mut replies = Vec::new();
    for (seed, pred) in [
        (51, Predicate::cmp(0, ComparisonOp::Lt, 600)),
        (52, Predicate::cmp(1, ComparisonOp::Ge, 250)),
        (53, Predicate::cmp(0, ComparisonOp::Gt, 300)),
    ] {
        replies.push(selection(
            client.select_where(seed, vec![pred]).expect("select"),
        ));
    }
    let between = client
        .select_where(54, vec![Predicate::between(1, 100, 700)])
        .expect("between");
    replies.push(selection(between));
    let preds = vec![
        Predicate::cmp(0, ComparisonOp::Gt, 200),
        Predicate::cmp(0, ComparisonOp::Lt, 800),
        Predicate::cmp(1, ComparisonOp::Ge, 150),
        Predicate::cmp(1, ComparisonOp::Le, 650),
    ];
    replies.push(selection(client.select_where(55, preds).expect("md")));
    let (seq, outcomes) = client.insert(ROWS as TupleId).expect("insert");
    replies.push(Reply::Inserted(seq, outcomes));
    replies.push(Reply::Deleted(client.delete(7).expect("delete")));

    let retries = client.retries();
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    (replies, report.inspect(kb_bytes), retries)
}

#[test]
fn oracle_faults_are_reissued_by_the_client_to_fault_free_equivalence() {
    let columns = || common::columns(2, ROWS, 1, 0x0AC1E);
    let (want, want_kb, clean_retries) = serve_workload(PlainOracle::from_columns(columns()));
    assert_eq!(clean_retries, 0, "a fault-free server forced a retry");

    // Transient and timeout faults at 1‰ each: each one aborts a whole
    // query, which a per-query re-issue gets through within a few attempts.
    let mut retries = 0;
    for seed in 0..8 {
        let faulty = FaultInjector::new(
            PlainOracle::from_columns(columns()),
            FaultConfig::retryable(seed),
        );
        let (got, got_kb, seed_retries) = serve_workload(faulty);
        assert_eq!(got, want, "seed {seed}: tuples, stats and commit numbers");
        assert_eq!(got_kb, want_kb, "seed {seed}: final knowledge");
        retries += seed_retries;
    }
    assert!(retries > 0, "no oracle fault reached the client");
}
