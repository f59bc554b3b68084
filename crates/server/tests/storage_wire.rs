//! Wire-level fsync-failure semantics: a poisoned pool must surface as a
//! stable error code on the connection — never a connection drop. The pool
//! has one log, so the poison is pool-wide: after the failed barrier every
//! select and fact on the same socket, on any attribute, gets the code.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{open_pool, strided_columns, TmpDir};
use prkb_core::{EngineConfig, ShardedDurablePool};
use prkb_edbms::real_fs;
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use prkb_server::{proto, ClientError, PrkbClient, PrkbServer, ServerConfig};
use prkb_sim::{FaultFs, IoFaultKind, IoFaultRule, IoOp};

const ROWS: usize = 200;

/// Whether `result` is a structured `SYNC_FAILED` reply.
fn sync_failed<T: std::fmt::Debug>(result: Result<T, ClientError>) -> bool {
    matches!(result, Err(ClientError::Server { code, .. }) if code == proto::code::SYNC_FAILED)
}

#[test]
fn poisoned_shard_is_a_stable_wire_error_not_a_connection_drop() {
    let dir = TmpDir::new("poison");
    let oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let (sick_attr, healthy_attr) = (0u32, 1u32);
    // Let the two init commits through, then fail the next durability
    // barrier the pool's one log crosses.
    let faults = FaultFs::scripted(
        real_fs(),
        vec![IoFaultRule {
            op: Some(IoOp::SyncData),
            path_contains: None,
            nth: 3,
            kind: IoFaultKind::Eio,
            sticky: false,
        }],
    );
    let mut pool = open_pool(&dir.0, EngineConfig::default(), faults.handle()).expect("open pool");
    pool.init_attr(sick_attr, ROWS).expect("init");
    pool.init_attr(healthy_attr, ROWS).expect("init");

    let server =
        PrkbServer::bind_durable_pool("127.0.0.1:0", pool, oracle, ServerConfig::default())
            .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");

    // A select replies once its refinements are journaled; the fsync that
    // carries them — the delete's here, or an idle tick's if the server got
    // one first — meets the armed failure. Whichever it was, the fact that
    // needed the barrier gets a structured SYNC_FAILED reply, never a
    // durable ack, and the socket stays up.
    let reply = client
        .select_where(1, vec![Predicate::cmp(sick_attr, ComparisonOp::Lt, 120)])
        .expect("deferred: the reply does not wait for the sick disk");
    assert_eq!(reply.tuples.len(), 120);
    let err = client
        .delete(7)
        .expect_err("a fact must not be acknowledged over a failed fsync");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::SYNC_FAILED),
        "expected SYNC_FAILED wire code, got {err:?}"
    );

    // Same connection, the other attribute: refused with the same code, for the
    // log it would journal to is the one that failed.
    let refused = client.select_where(2, vec![Predicate::cmp(healthy_attr, ComparisonOp::Lt, 90)]);
    assert!(sync_failed(refused), "poison is pool-wide");

    // The poison is permanent for this pool: the injected fault is spent
    // (non-sticky), yet every attribute still refuses with the same code — no
    // retry-and-assume-durable behind the wire — selects and facts alike.
    let refused = client.select_where(3, vec![Predicate::cmp(sick_attr, ComparisonOp::Gt, 150)]);
    assert!(sync_failed(refused), "poisoned pool must keep refusing");
    let refused = client.select_where(4, vec![Predicate::cmp(healthy_attr, ComparisonOp::Gt, 160)]);
    assert!(sync_failed(refused), "on every attribute");
    assert!(sync_failed(client.delete(8)), "and every fact");

    assert_eq!(faults.injected(), 1, "exactly the armed fault fired");

    // Shutdown's final flush honestly reports the poisoned pool instead of
    // acking a drain it cannot guarantee — but the server still drains and
    // exits.
    let err = client.shutdown().expect_err("drain over a poisoned pool");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::SYNC_FAILED),
        "expected SYNC_FAILED from the final flush, got {err:?}"
    );
    match handle.join() {
        Ok(_) => panic!("join must not claim a clean drain over a poisoned pool"),
        Err(e) => assert!(
            e.to_string().contains("drain flush failed"),
            "join error must name the failed drain, got: {e}"
        ),
    }

    // Reopen over the real filesystem: every attribute recovers a committed
    // prefix (the init at least).
    let pool =
        ShardedDurablePool::<Predicate>::open(&dir.0, EngineConfig::default()).expect("reopen");
    for attr in [sick_attr, healthy_attr] {
        pool.engine()
            .knowledge(attr)
            .expect("attr indexed")
            .check_invariants();
    }
}
