//! Wire-level fsync-failure semantics: a poisoned shard must surface as a
//! stable error code on the connection — never a connection drop — while
//! requests routed to healthy shards keep succeeding on the same socket.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{open_pool, strided_columns, TmpDir};
use prkb_core::{EngineConfig, ShardMap, ShardedDurablePool};
use prkb_edbms::real_fs;
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use prkb_server::{proto, ClientError, PrkbClient, PrkbServer, ServerConfig};
use prkb_sim::{FaultFs, IoFaultKind, IoFaultRule, IoOp};

const ROWS: usize = 200;

#[test]
fn poisoned_shard_is_a_stable_wire_error_not_a_connection_drop() {
    let dir = TmpDir::new("poison");
    let oracle = PlainOracle::from_columns(strided_columns(ROWS));
    let map = ShardMap::new(4);
    let (sick_attr, healthy_attr) = (0u32, 1u32);
    let sick_shard = map.shard_of(sick_attr);
    assert_ne!(
        sick_shard,
        map.shard_of(healthy_attr),
        "test needs the two attributes on different shards"
    );
    // Let the init commit on the doomed shard through, then fail the next
    // durability barrier it crosses.
    let inits_on_sick = [sick_attr, healthy_attr]
        .iter()
        .filter(|&&a| map.shard_of(a) == sick_shard)
        .count() as u64;
    let faults = FaultFs::scripted(
        real_fs(),
        vec![IoFaultRule {
            op: Some(IoOp::SyncData),
            path_contains: Some(format!("shard.{sick_shard}/")),
            nth: inits_on_sick + 1,
            kind: IoFaultKind::Eio,
            sticky: false,
        }],
    );
    let mut pool = open_pool(
        &dir.0,
        EngineConfig::default(),
        map.shards(),
        faults.handle(),
    )
    .expect("open pool");
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

    // Same connection, healthy shard: still serving and committing.
    let reply = client
        .select_where(2, vec![Predicate::cmp(healthy_attr, ComparisonOp::Lt, 90)])
        .expect("healthy shard keeps serving on the same connection");
    assert_eq!(reply.tuples.len(), 90);

    // The poison is permanent for this pool: the injected fault is spent
    // (non-sticky), yet the sick shard still refuses with the same code —
    // no retry-and-assume-durable behind the wire.
    let err = client
        .select_where(3, vec![Predicate::cmp(sick_attr, ComparisonOp::Gt, 150)])
        .expect_err("poisoned shard must keep refusing");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::SYNC_FAILED),
        "expected SYNC_FAILED wire code, got {err:?}"
    );

    // And the healthy shard is still unaffected afterwards.
    let reply = client
        .select_where(4, vec![Predicate::cmp(healthy_attr, ComparisonOp::Gt, 160)])
        .expect("healthy shard unaffected");
    assert_eq!(reply.tuples.len(), ROWS - 161);

    assert_eq!(faults.injected(), 1, "exactly the armed fault fired");

    // Shutdown's final flush honestly reports the poisoned shard instead
    // of acking a drain it cannot guarantee — but the server still drains
    // and exits, and the flush still syncs the healthy shards' tails.
    let err = client.shutdown().expect_err("drain over a poisoned shard");
    assert!(
        matches!(err, ClientError::Server { code, .. } if code == proto::code::SYNC_FAILED),
        "expected SYNC_FAILED from the final flush, got {err:?}"
    );
    match handle.join() {
        Ok(_) => panic!("join must not claim a clean drain over a poisoned shard"),
        Err(e) => assert!(
            e.to_string().contains("drain flush failed"),
            "join error must name the failed drain, got: {e}"
        ),
    }

    // Reopen over the real filesystem: the sick shard recovers a committed
    // prefix (the init at least), the healthy shard everything it served.
    let pool =
        ShardedDurablePool::<Predicate>::open(&dir.0, EngineConfig::default(), ShardMap::new(4))
            .expect("reopen");
    let sick_engine = pool.shard_engine(sick_shard);
    let kb = sick_engine.knowledge(sick_attr).expect("attr indexed");
    kb.check_invariants();
    let healthy_engine = pool.shard_engine(map.shard_of(healthy_attr));
    let kb = healthy_engine
        .knowledge(healthy_attr)
        .expect("attr indexed");
    kb.check_invariants();
    assert!(
        kb.k() > 1,
        "healthy shard must have durably committed its refinements"
    );
}
