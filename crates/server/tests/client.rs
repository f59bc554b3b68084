//! The client's own contract, apart from what it carries: the breaker is
//! wired to the call path, and pipelined submit/drain shares one
//! connection with the blocking calls without crossing their responses.

use prkb_core::{EngineConfig, PrkbEngine};
use prkb_edbms::resilience::RetryPolicy;
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use prkb_server::{
    ClientConfig, ClientError, PrkbClient, PrkbServer, Request, RequestHeader, Response,
    ServerConfig,
};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const ROWS: usize = 64;

fn lt(bound: u64) -> Predicate {
    Predicate::cmp(0, ComparisonOp::Lt, bound)
}

/// A dead server seen from the client: accepts, counts, closes.
#[test]
fn breaker_fast_fails_without_dialing_then_probes_once() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accepts = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let (accepts, stop) = (Arc::clone(&accepts), Arc::clone(&stop));
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                accepts.fetch_add(1, Ordering::SeqCst);
                drop(conn);
            }
        })
    };

    let (trip_after, cooldown_calls) = (2u32, 3u32);
    let config = ClientConfig {
        retry: RetryPolicy {
            trip_after,
            cooldown_calls,
            ..RetryPolicy::fast(1)
        },
        ..ClientConfig::default()
    };
    let mut client: PrkbClient<Predicate> = PrkbClient::connect_with(addr, config).expect("dial");

    // Every exhausted call saw its connection accepted and closed, so the
    // acceptor's count is exact by the time the call returns.
    for _ in 0..trip_after {
        let err = client.ping().expect_err("server answers nothing");
        assert!(!matches!(err, ClientError::CircuitOpen), "{err}");
    }
    let dials_at_trip = accepts.load(Ordering::SeqCst);
    for _ in 0..cooldown_calls {
        assert!(matches!(client.ping(), Err(ClientError::CircuitOpen)));
    }
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        dials_at_trip,
        "an open breaker never touches the network"
    );
    // Cooldown spent: exactly one half-open probe dials, fails, reopens.
    let err = client.ping().expect_err("probe reaches the dead server");
    assert!(!matches!(err, ClientError::CircuitOpen), "{err}");
    assert_eq!(accepts.load(Ordering::SeqCst), dials_at_trip + 1);
    assert!(matches!(client.ping(), Err(ClientError::CircuitOpen)));
    assert_eq!(client.retries(), 0, "max_attempts = 1 never retries");

    stop.store(true, Ordering::SeqCst);
    TcpStream::connect(addr).expect("wake the acceptor");
    acceptor.join().expect("acceptor");
}

#[test]
fn submitted_requests_drain_fifo_and_fence_blocking_calls() {
    let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, ROWS);
    let oracle = PlainOracle::single_column((0..ROWS as u64).collect());
    let server =
        PrkbServer::bind("127.0.0.1:0", engine, oracle, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");

    for _ in 0..8 {
        client
            .submit(RequestHeader::default(), &Request::Ping)
            .expect("submit");
    }
    assert_eq!(client.in_flight(), 8);
    let pongs = client.drain().expect("drain");
    assert_eq!(pongs.len(), 8);
    assert!(pongs.iter().all(|r| matches!(r, Response::Ok)));
    assert_eq!(client.in_flight(), 0);
    assert!(matches!(
        client.drain_one(),
        Err(ClientError::Unexpected(_))
    ));

    // Pongs all look alike; selections of distinct width show the order.
    let bounds = [40u64, 10, 25, 3];
    for (i, &bound) in bounds.iter().enumerate() {
        let req = Request::Select {
            seed: i as u64,
            preds: vec![lt(bound)],
        };
        client
            .submit(RequestHeader::default(), &req)
            .expect("submit");
    }
    for (i, &bound) in bounds.iter().enumerate() {
        match client.drain_one().expect("drain_one") {
            Response::Selection { seq, tuples, .. } => {
                assert_eq!((seq, tuples.len()), (i as u64 + 1, bound as usize));
            }
            other => panic!("response {i}: {other:?}"),
        }
    }

    // A blocking call would read the in-flight request's response as its
    // own: refused, and refusing costs the connection nothing.
    client
        .submit(RequestHeader::default(), &Request::Ping)
        .expect("submit");
    assert!(matches!(
        client.select_where(9, vec![lt(5)]),
        Err(ClientError::Unexpected(_))
    ));
    assert_eq!(client.in_flight(), 1);
    assert!(matches!(client.drain().expect("drain")[..], [Response::Ok]));
    assert_eq!(
        client
            .select_where(9, vec![lt(5)])
            .expect("select")
            .tuples
            .len(),
        5
    );
    assert_eq!(client.retries(), 0, "same connection throughout");

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}
