//! Network-chaos convergence: a retrying client talking through a
//! deterministic fault-injecting proxy must end up byte-identical to a
//! clean sequential run.
//!
//! * per-seed schedules drop, corrupt, truncate, partially write and
//!   stall frames at the proxy; the idempotent client retries through all
//!   of it and every reply (results, stats, dense commit sequence) equals
//!   an in-process twin replay, and the final knowledge base is
//!   byte-identical — retried inserts/deletes applied exactly once;
//! * a scripted response-drop proves the dedup window replays the stored
//!   response instead of re-executing the commit.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{kb_bytes, strided_columns};
use prkb_core::{EngineConfig, PrkbEngine, QueryStats};
use prkb_edbms::resilience::RetryPolicy;
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate, TupleId};
use prkb_server::{ClientConfig, PrkbClient, PrkbServer, ServerConfig, ServerHandle};
use prkb_sim::{ChaosConfig, ChaosProxy, FaultAction, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Harness (mirrors tests/loopback.rs)
// ---------------------------------------------------------------------------

const ROWS: usize = 240;

fn fresh_engine() -> PrkbEngine<Predicate> {
    let mut engine = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, ROWS);
    engine.init_attr(1, ROWS);
    engine
}

fn start_server() -> (std::net::SocketAddr, ServerHandle<Predicate, PlainOracle>) {
    let server = PrkbServer::bind(
        "127.0.0.1:0",
        fresh_engine(),
        PlainOracle::from_columns(strided_columns(ROWS)),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    (addr, handle)
}

/// Generous retries, no sleep between attempts, short response budget:
/// chaos disconnects should cost milliseconds, not timeouts.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(2),
        retry: RetryPolicy::fast(10),
        rid_seed: 0xC4A05,
        ..ClientConfig::default()
    }
}

/// One query — its seed and trapdoors — as it is sent and replayed.
#[derive(Debug, Clone)]
struct Spec(u64, Vec<Predicate>);

fn replay(
    engine: &mut PrkbEngine<Predicate>,
    oracle: &PlainOracle,
    Spec(seed, preds): &Spec,
) -> (Vec<TupleId>, QueryStats) {
    let sel = engine
        .try_select_where(oracle, preds, &mut StdRng::seed_from_u64(*seed))
        .expect("replay select");
    (sel.sorted(), sel.stats)
}

fn workload() -> Vec<Spec> {
    vec![
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
        Spec(18, vec![Predicate::cmp(1, ComparisonOp::Gt, 33)]),
    ]
}

/// Drive the full mixed workload through a chaos proxy running `config`'s
/// schedule, asserting byte-equivalence with a clean in-process twin.
fn converges_under(config: ChaosConfig) {
    let expect_faults = config.drop_per_mille > 0;
    let (addr, handle) = start_server();
    let plan = Arc::new(FaultPlan::seeded(config));
    let proxy = ChaosProxy::spawn(addr, Arc::clone(&plan)).expect("spawn proxy");

    let mut inline_oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let mut inline = fresh_engine();
    let mut client: PrkbClient<Predicate> =
        PrkbClient::connect_with(proxy.addr(), chaos_client_config()).expect("connect via proxy");

    for (i, spec) in workload().iter().enumerate() {
        let reply = client
            .select_where(spec.0, spec.1.clone())
            .expect("select via chaos");
        let (expected_tuples, expected_stats) = replay(&mut inline, &inline_oracle, spec);
        assert_eq!(reply.sorted(), expected_tuples, "query {i}: result set");
        assert_eq!(reply.stats, expected_stats, "query {i}: full stats");
        assert_eq!(reply.seq, i as u64 + 1, "query {i}: dense commit sequence");
    }

    // Insert + delete ride the same retry/dedup machinery: a replayed
    // retry must not double-apply either mutation.
    let new_row = [55u64, 200u64];
    let t = {
        let oracle = handle.oracle();
        let mut oracle = oracle.write().expect("oracle write");
        oracle.insert(&new_row)
    };
    assert_eq!(t, inline_oracle.insert(&new_row));
    let (_, outcomes) = client.insert(t).expect("insert via chaos");
    let inline_outcomes = inline.try_insert(&inline_oracle, t).expect("inline insert");
    assert_eq!(outcomes, inline_outcomes, "insert routing outcomes");
    client.delete(t).expect("delete via chaos");
    inline.delete(t);

    let retries = client.retries();
    drop(client);

    // Shutdown goes through a direct connection: draining the server must
    // not depend on the proxy's mood.
    let direct: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("direct connect");
    direct.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    proxy.stop();

    if expect_faults {
        assert!(
            plan.injected() >= 1,
            "the schedule was supposed to inject faults"
        );
        assert!(
            retries >= 1,
            "faults were injected but the client never retried"
        );
    } else {
        assert_eq!(plan.injected(), 0, "clean schedule injected a fault");
        assert_eq!(retries, 0, "clean schedule forced a retry");
    }

    // Identical history ⇒ byte-identical knowledge, valid invariants.
    let server_kb = report.inspect(kb_bytes);
    assert_eq!(server_kb, kb_bytes(&inline), "knowledge byte-identical");
    report.inspect(|engine| {
        for a in engine.attrs().collect::<Vec<_>>() {
            engine
                .knowledge(a)
                .expect("attr")
                .validate()
                .expect("knowledge invariants after chaos history");
        }
    });
}

// ---------------------------------------------------------------------------
// Seeded convergence
// ---------------------------------------------------------------------------

#[test]
fn clean_schedule_is_the_loopback_baseline() {
    converges_under(ChaosConfig::clean(0));
}

#[test]
fn chaos_seed_1_converges() {
    converges_under(ChaosConfig::retryable(1));
}

#[test]
fn chaos_seed_2_converges() {
    converges_under(ChaosConfig::retryable(2));
}

#[test]
fn chaos_seed_3_converges() {
    converges_under(ChaosConfig::retryable(3));
}

#[test]
fn chaos_seed_4_converges() {
    converges_under(ChaosConfig::retryable(4));
}

#[test]
fn chaos_seed_9_converges() {
    converges_under(ChaosConfig::retryable(9));
}

// ---------------------------------------------------------------------------
// Scripted exactly-once replay
// ---------------------------------------------------------------------------

#[test]
fn dropped_response_is_replayed_not_reexecuted() {
    let (addr, handle) = start_server();
    // Event 0: the select request forwards upstream (the server commits
    // seq 1 and stores the response). Event 1: the response is dropped
    // with the connection. The retry carries the same request id, so the
    // dedup window must answer from the stored bytes without touching the
    // engine again.
    let plan = Arc::new(FaultPlan::scripted([
        FaultAction::Forward,
        FaultAction::Drop,
    ]));
    let proxy = ChaosProxy::spawn(addr, Arc::clone(&plan)).expect("spawn proxy");

    let mut client: PrkbClient<Predicate> =
        PrkbClient::connect_with(proxy.addr(), chaos_client_config()).expect("connect via proxy");
    let pred = Predicate::cmp(0, ComparisonOp::Lt, 100);
    let first = client
        .select_where(41, vec![pred])
        .expect("replayed select");
    assert_eq!(first.seq, 1);
    assert!(client.retries() >= 1, "the drop forced a retry");

    // The replay really was the committed result, not a re-execution: a
    // second query draws seq 2, and the twin replay matches both.
    let second = client
        .select_where(42, vec![Predicate::cmp(1, ComparisonOp::Ge, 10)])
        .expect("follow-up select");
    assert_eq!(second.seq, 2, "exactly one commit for the retried query");
    drop(client);

    let direct: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("direct connect");
    direct.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    proxy.stop();

    assert!(report.dedup_hits() >= 1, "the retry hit the dedup window");
    assert_eq!(plan.injected(), 1, "exactly the scripted drop fired");

    let inline_oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let mut inline = fresh_engine();
    let (t1, s1) = replay(&mut inline, &inline_oracle, &Spec(41, vec![pred]));
    assert_eq!(first.sorted(), t1);
    assert_eq!(first.stats, s1);
    let (t2, s2) = replay(
        &mut inline,
        &inline_oracle,
        &Spec(42, vec![Predicate::cmp(1, ComparisonOp::Ge, 10)]),
    );
    assert_eq!(second.sorted(), t2);
    assert_eq!(second.stats, s2);
}
