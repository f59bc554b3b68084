//! Wire-decode hardening: hostile bytes must never panic the server.
//!
//! Property layer: `decode_frame` and the payload decoders are total
//! functions over arbitrary bytes — truncated frames, bit-flipped frames,
//! length-lying frames, and oversized frames all land in clean protocol
//! errors (or "need more"), never in a panic or an absurd allocation.
//!
//! Live layer: a real server fed the same garbage answers with a framed
//! error (best effort) and keeps serving other clients; a malformed payload
//! inside a *valid* frame costs only that one request, not the connection.

#[path = "../../core/tests/common/hostile.rs"]
mod hostile;

use hostile::{assert_hostile_inputs_are_refused, Case};
use prkb_core::{EngineConfig, InsertOutcome, PrkbEngine, QueryStats};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{ComparisonOp, Predicate};
use prkb_server::proto::{code, Request, RequestHeader, Response};
use prkb_server::wire::{decode_frame, encode_frame, DEFAULT_MAX_FRAME_LEN};
use prkb_server::{ClientConfig, ClientError, PrkbClient, PrkbServer, ServerConfig};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Decoders are total over arbitrary bytes
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn random_bytes_never_panic_decoders(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Frame decoder: any result is fine, panicking is not.
        let _ = decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN);
        // Payload decoders likewise.
        let _ = Request::<Predicate>::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    fn corrupted_valid_frames_fail_cleanly(
        seed in any::<u64>(),
        flip_at in any::<usize>(),
        flip_mask in 1u8..=255,
    ) {
        // Build a genuine request frame, then flip one byte anywhere.
        let pred = Predicate::cmp((seed % 3) as u32, ComparisonOp::Lt, seed % 1000);
        let frame = encode_frame(&Request::Select { seed, preds: vec![pred] }.encode());
        let mut bad = frame.clone();
        let at = flip_at % bad.len();
        bad[at] ^= flip_mask;
        match decode_frame(&bad, DEFAULT_MAX_FRAME_LEN) {
            // CRC covers length and payload: any single corruption is either
            // caught, classified oversized, or leaves the frame incomplete.
            Err(_) | Ok(None) => {}
            Ok(Some((payload, _))) => {
                // A flip the CRC cannot see does not exist; reaching here
                // means the frame was *re*-flipped back to valid.
                prop_assert_eq!(payload, Request::Select {
                    seed,
                    preds: vec![Predicate::cmp((seed % 3) as u32, ComparisonOp::Lt, seed % 1000)],
                }.encode());
            }
        }
    }

    fn truncations_never_decode(cut_seed in any::<u64>()) {
        let pred = Predicate::between(1, cut_seed % 50, cut_seed % 50 + 10);
        let frame = encode_frame(&Request::Select { seed: cut_seed, preds: vec![pred] }.encode());
        let cut = (cut_seed as usize) % frame.len();
        // Every strict prefix is "need more", never a panic or a bogus frame.
        prop_assert!(decode_frame(&frame[..cut], DEFAULT_MAX_FRAME_LEN)
            .map(|o| o.is_none())
            .unwrap_or(true));
    }

    fn hostile_resilience_headers_never_panic(
        rid in any::<u64>(),
        deadline_ms in any::<u32>(),
        extra in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        // Any request id / deadline combination decodes (they are opaque
        // u64/u32 fields; absence vs presence is exercised via the
        // modulus) — but trailing bytes after a complete body are always
        // rejected, never silently swallowed.
        let deadline_ms = (!deadline_ms.is_multiple_of(5)).then_some(deadline_ms);
        let hdr = RequestHeader { request_id: rid, deadline_ms };
        let clean = Request::<Predicate>::Ping.encode_with(hdr);
        let decoded = Request::<Predicate>::decode(&clean);
        prop_assert!(matches!(decoded, Ok((h, Request::Ping)) if h == hdr));

        let mut padded = clean.clone();
        padded.extend_from_slice(&extra);
        let padded_result = Request::<Predicate>::decode(&padded);
        if extra.is_empty() {
            prop_assert!(padded_result.is_ok());
        } else {
            prop_assert!(padded_result.is_err(), "trailing bytes must be rejected");
        }

        // A header truncated mid-field is a clean error too.
        for cut in 0..clean.len() {
            prop_assert!(Request::<Predicate>::decode(&clean[..cut]).is_err());
        }
    }

    fn lying_length_fields_are_contained(claimed in any::<u32>()) {
        // A frame whose length field lies (with a matching CRC, so framing
        // itself is consistent) must either wait for more bytes or be
        // rejected by the cap — never allocate `claimed` bytes of payload.
        let mut frame = encode_frame(b"tiny");
        frame[..4].copy_from_slice(&claimed.to_le_bytes());
        match decode_frame(&frame, DEFAULT_MAX_FRAME_LEN) {
            Ok(None) | Err(_) => {}
            Ok(Some((payload, _))) => prop_assert!(payload.len() <= frame.len()),
        }
    }
}

/// The request/response table of the hostile-input driver (`prkb-core`'s
/// `codec_hardening` holds the seven on-disk decoders): one image per body
/// shape. Payloads carry no checksum of their own — the frame does — so a
/// flip only has to be handled; every strict prefix is refused.
#[test]
fn request_and_response_decoders_refuse_prefixes_without_panicking_or_over_allocating() {
    let deadline = RequestHeader {
        request_id: 7,
        deadline_ms: Some(1_500),
    };
    let requests = [
        Request::Select {
            seed: 7,
            preds: vec![Predicate::cmp(0, ComparisonOp::Lt, 500)],
        }
        .encode(),
        Request::Select {
            seed: 11,
            preds: [range(0), range(1), vec![Predicate::between(0, 2, 8)]].concat(),
        }
        .encode_with(deadline),
        Request::<Predicate>::Insert { tuple: 42 }.encode_with(deadline),
    ];
    let responses = [
        // A bitmap id set and a list one.
        Response::Selection {
            seq: 3,
            tuples: (0..40).collect(),
            stats: QueryStats::default(),
        },
        Response::Selection {
            seq: 3,
            tuples: vec![900, 5, 1],
            stats: QueryStats::default(),
        },
        Response::Inserted {
            seq: 4,
            outcomes: vec![
                (0, InsertOutcome::Placed { rank: 3 }),
                (1, InsertOutcome::Parked { lo: 1, hi: 5 }),
            ],
        },
        Response::Metrics { json: "{}".into() },
        Response::Error {
            code: code::BUSY,
            message: "later".into(),
        },
    ];
    let mut cases = Vec::new();
    for (i, image) in requests.into_iter().enumerate() {
        cases.push(Case::raw(&format!("request {i}"), image, |b| {
            Request::<Predicate>::decode(b).is_ok()
        }));
    }
    for (i, resp) in responses.iter().enumerate() {
        cases.push(Case::raw(&format!("response {i}"), resp.encode(), |b| {
            Response::decode(b).is_ok()
        }));
    }
    assert_hostile_inputs_are_refused(&cases);
}

fn range(attr: u32) -> Vec<Predicate> {
    vec![
        Predicate::cmp(attr, ComparisonOp::Gt, 1),
        Predicate::cmp(attr, ComparisonOp::Lt, 9),
    ]
}

/// An untracked, undeadlined select request's payload: `version 3 | tag |
/// request header | seed 9 | count u16` followed by `body` — `count` need
/// not be what the body holds.
fn select_payload(tag: u8, count: u16, body: &[u8]) -> Vec<u8> {
    let mut out = vec![3, tag];
    out.extend_from_slice(&0u64.to_le_bytes());
    out.push(0);
    out.extend_from_slice(&9u64.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The select body's refusals, one hostile field at a time (everything
/// else consistent): each is a structured error, refused before the count
/// sizes anything, and a retired per-kind tag is unknown.
#[test]
fn a_hostile_select_body_is_refused() {
    let trapdoors = |preds: &[Predicate]| {
        let mut body = Vec::new();
        for p in preds {
            prkb_core::WireCodec::encode_into(p, &mut body);
        }
        body
    };
    let five = [range(0), range(1), vec![Predicate::between(2, 3, 4)]].concat();
    let body = trapdoors(&five);
    let valid = select_payload(8, 5, &body);
    assert_eq!(
        Request::<Predicate>::decode(&valid),
        Ok((
            RequestHeader::default(),
            Request::Select {
                seed: 9,
                preds: five.clone()
            }
        ))
    );
    assert_eq!(
        valid,
        Request::Select {
            seed: 9,
            preds: five
        }
        .encode()
    );
    // Trapdoor 2 of 5 gets an unknown kind byte.
    let mut middle = body.clone();
    middle[2 * body.len() / 5] = 9;
    let max = trapdoors(&vec![Predicate::cmp(0, ComparisonOp::Lt, 1); 129]);
    let malformed = |what| Err(prkb_server::ProtoError::Malformed(what));
    let unknown = |tag| Err(prkb_server::ProtoError::UnknownTag(tag));
    let cases: [(&str, Vec<u8>, _); 8] = [
        (
            "no trapdoor",
            select_payload(8, 0, &[]),
            malformed("select with no trapdoor"),
        ),
        (
            "129 trapdoors",
            select_payload(8, 129, &max),
            malformed("trapdoor count over cap"),
        ),
        (
            "a count over what follows",
            select_payload(8, 6, &body),
            malformed("undecodable trapdoor"),
        ),
        (
            "u16::MAX trapdoors",
            select_payload(8, u16::MAX, &body),
            malformed("trapdoor count over cap"),
        ),
        (
            "an undecodable trapdoor in the middle",
            select_payload(8, 5, &middle),
            malformed("undecodable trapdoor"),
        ),
        ("retired tag 1", select_payload(1, 5, &body), unknown(1)),
        ("retired tag 2", select_payload(2, 5, &body), unknown(2)),
        ("retired tag 3", select_payload(3, 5, &body), unknown(3)),
    ];
    for (what, bytes, refusal) in cases {
        assert_eq!(Request::<Predicate>::decode(&bytes), refusal, "{what}");
    }
    // 128 trapdoors is the cap, and decodes.
    let at_cap = select_payload(8, 128, &max[..128 * max.len() / 129]);
    assert!(Request::<Predicate>::decode(&at_cap).is_ok());
}

/// A Selection whose ids are the bitmap `bits` from `first`, claiming
/// `count` ids, in the id-set form byte `form`: `version 3 | tag 1 | seq
/// u64 | form u8 | count u32 | first u32 | nbytes u32 | bits | stats`.
fn bitmap_selection(form: u8, count: u32, first: u32, nbytes: u32, bits: &[u8]) -> Vec<u8> {
    let mut out = vec![3, 1];
    out.extend_from_slice(&7u64.to_le_bytes());
    out.push(form);
    for field in [count, first, nbytes] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(bits);
    out.extend_from_slice(&[0; 80]);
    out
}

/// The bitmap's refusals, one hostile field at a time (everything else
/// consistent): each is a structural error, never a panic and never an
/// allocation sized by the lying field.
#[test]
fn a_hostile_id_bitmap_is_refused() {
    // {10, 12, 19, 27}: bits 0, 2, 9, 17 from 10.
    let bits = [0b101, 0b10, 0b10];
    let valid = bitmap_selection(1, 4, 10, 3, &bits);
    match Response::decode(&valid) {
        Ok(Response::Selection { tuples, .. }) => assert_eq!(tuples, [10, 12, 19, 27]),
        other => panic!("the valid bitmap: {other:?}"),
    }
    let malformed = |what| Err(prkb_server::ProtoError::Malformed(what));
    let cases: [(&str, Vec<u8>, _); 9] = [
        (
            "count above its popcount",
            bitmap_selection(1, 5, 10, 3, &bits),
            malformed("id bitmap count is not its popcount"),
        ),
        (
            "count below its popcount",
            bitmap_selection(1, 3, 10, 3, &bits),
            malformed("id bitmap count is not its popcount"),
        ),
        (
            "nbytes past the payload",
            bitmap_selection(1, 4, 10, u32::MAX, &bits),
            malformed("count exceeds the bytes that remain"),
        ),
        (
            "nbytes one short",
            bitmap_selection(1, 4, 10, 2, &bits[..2]),
            malformed("id bitmap count is not its popcount"),
        ),
        (
            "no bytes",
            bitmap_selection(1, 0, 10, 0, &[]),
            malformed("empty id bitmap"),
        ),
        (
            "bit 0 clear",
            bitmap_selection(1, 3, 10, 3, &[0b100, 0b10, 0b10]),
            malformed("id bitmap not canonical"),
        ),
        (
            "a zero last byte",
            bitmap_selection(1, 4, 10, 4, &[0b101, 0b10, 0b10, 0]),
            malformed("id bitmap not canonical"),
        ),
        (
            "an id past u32::MAX",
            bitmap_selection(1, 4, u32::MAX - 16, 3, &bits),
            malformed("id bitmap runs past u32::MAX"),
        ),
        (
            "an unknown form",
            bitmap_selection(2, 4, 10, 3, &bits),
            malformed("unknown id-set form"),
        ),
    ];
    for (what, bytes, refusal) in cases {
        assert_eq!(Response::decode(&bytes), refusal, "{what}");
    }
    // The largest id a bitmap may carry is u32::MAX itself.
    let top = bitmap_selection(1, 4, u32::MAX - 17, 3, &bits);
    match Response::decode(&top) {
        Ok(Response::Selection { tuples, .. }) => assert_eq!(tuples.last(), Some(&u32::MAX)),
        other => panic!("a bitmap ending at u32::MAX: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Stable wire codes are pinned forever
// ---------------------------------------------------------------------------

/// The `prkb-wire/v3` error codes are a compatibility contract: values are
/// never reused and never renumbered, only appended. This test is the pin —
/// if it fails, a wire-visible constant moved.
#[test]
fn error_codes_are_pinned() {
    assert_eq!(code::UNSUPPORTED_VERSION, 1);
    assert_eq!(code::MALFORMED, 2);
    assert_eq!(code::UNKNOWN_TAG, 3);
    assert_eq!(code::ATTR_NOT_INITIALIZED, 10);
    assert_eq!(code::ALREADY_INDEXED, 11);
    assert_eq!(code::REPLY_TOO_LARGE, 12);
    assert_eq!(code::ORACLE_BASE, 20);
    // 40 (a box naming one attribute in two dimensions) is retired: a
    // select makes each attribute one dimension. Never reused.
    assert_eq!(code::DURABILITY, 50);
    assert_eq!(code::DRAINING, 60);
    assert_eq!(code::FRAME, 70);
    assert_eq!(code::BUSY, 80);
    assert_eq!(code::DEADLINE, 81);
}

/// The request tags are as much the contract as the codes: each sits in a
/// payload's second byte. 1–3 (the per-kind selects) are retired and
/// never reused; a select is 8.
#[test]
fn request_tags_are_pinned() {
    let tag = |req: Request<Predicate>| req.encode()[1];
    assert_eq!(tag(Request::Ping), 0);
    assert_eq!(tag(Request::Insert { tuple: 1 }), 4);
    assert_eq!(tag(Request::Delete { tuple: 1 }), 5);
    assert_eq!(tag(Request::MetricsSnapshot), 6);
    assert_eq!(tag(Request::Shutdown), 7);
    let select = Request::Select {
        seed: 1,
        preds: range(0),
    };
    assert_eq!(tag(select), 8);
}

// ---------------------------------------------------------------------------
// A live server survives all of it
// ---------------------------------------------------------------------------

fn start_server() -> (
    std::net::SocketAddr,
    prkb_server::ServerHandle<Predicate, PlainOracle>,
) {
    let oracle = PlainOracle::single_column((0..100).collect());
    let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, 100);
    let server =
        PrkbServer::bind("127.0.0.1:0", engine, oracle, ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    (addr, handle)
}

/// Reads whatever the server sends until it closes the stream.
fn drain(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    out
}

/// Extreme-but-well-formed resilience headers (max request id, max or
/// tiny deadline) must be served or rejected with a structured error —
/// never panic the server thread or wedge the connection.
#[test]
fn hostile_headers_on_a_live_server_are_contained() {
    let (addr, handle) = start_server();

    for (rid, deadline_ms) in [
        (u64::MAX, Some(u32::MAX)),
        (7, Some(1)),
        (u64::MAX - 1, None),
        (u64::MAX - 2, Some(0)),
    ] {
        let hdr = RequestHeader {
            request_id: rid,
            deadline_ms,
        };
        let req = Request::Select {
            seed: 9,
            preds: vec![Predicate::cmp(0, ComparisonOp::Lt, 10)],
        };
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&encode_frame(&req.encode_with(hdr)))
            .expect("write hostile header");
        raw.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = prkb_server::FrameReader::new();
        let payload = loop {
            match reader
                .poll(&mut raw, DEFAULT_MAX_FRAME_LEN)
                .expect("framed answer")
            {
                prkb_server::wire::ReadStep::Frame { payload, .. } => break payload.to_vec(),
                prkb_server::wire::ReadStep::Closed => panic!("closed instead of answering"),
                _ => continue,
            }
        };
        match Response::decode(&payload).expect("decode") {
            Response::Selection { tuples, .. } => assert_eq!(tuples.len(), 10),
            // A 1 ms budget may legitimately expire before checkout.
            Response::Error { code: c, .. } => assert_eq!(c, code::DEADLINE),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    client.ping().expect("server alive after hostile headers");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

/// A tuple id with no uploaded row behind it is a malformed request, for a
/// delete as for an insert: answered before dispatch, so it takes no
/// checkout, journals nothing and consumes no commit sequence number.
#[test]
fn tuple_ids_beyond_the_table_are_malformed_before_dispatch() {
    let (addr, handle) = start_server();
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    for err in [
        client.delete(100).expect_err("delete beyond table"),
        client.insert(100).expect_err("insert beyond table"),
    ] {
        assert!(
            matches!(&err, ClientError::Server { code: c, .. } if *c == code::MALFORMED),
            "unexpected: {err}"
        );
    }
    // The last slot is a row; deleting it is the first commit.
    assert_eq!(client.delete(99).expect("delete in range"), 1);
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

/// Inserting a row the server already indexes (every uploaded row is) is
/// refused with its own code — not a worker panic that leaves the request
/// unanswered — and the connection, the server thread and the drain carry
/// on.
#[test]
fn an_indexed_row_is_refused_and_the_worker_serves_on() {
    let oracle = PlainOracle::single_column((0..100).collect());
    let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, 100);
    let config = ServerConfig {
        threads: Some(1),
        ..ServerConfig::default()
    };
    let server = PrkbServer::bind("127.0.0.1:0", engine, oracle, config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let config = ClientConfig {
        read_timeout: Duration::from_secs(5),
        ..ClientConfig::default()
    };
    let mut client: PrkbClient<Predicate> =
        PrkbClient::connect_with(addr, config).expect("connect");
    let err = client.insert(3).expect_err("row 3 is indexed");
    assert!(
        matches!(&err, ClientError::Server { code: c, .. } if *c == code::ALREADY_INDEXED),
        "unexpected: {err}"
    );
    let sel = client
        .select_where(1, vec![Predicate::cmp(0, ComparisonOp::Lt, 10)])
        .expect("select after the refusal");
    let mut tuples = sel.tuples;
    tuples.sort_unstable();
    assert_eq!(tuples, (0..10).collect::<Vec<_>>());
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

/// A query with no trapdoor would answer from the oracle's liveness, and
/// the server never tombstones its table, so deleted rows would come back:
/// the wire refuses it, and the connection serves on.
#[test]
fn an_empty_md_query_is_refused_and_the_connection_serves_on() {
    let (addr, handle) = start_server();
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    let err = client.select_where(1, Vec::new()).expect_err("no trapdoor");
    assert!(
        matches!(&err, ClientError::Server { code: c, .. } if *c == code::MALFORMED),
        "unexpected: {err}"
    );
    client.ping().expect("ping after the refusal");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn garbage_streams_get_error_frames_and_server_survives() {
    let (addr, handle) = start_server();

    // 1. Pure garbage: framing is unrecoverable, the server answers with a
    //    best-effort FRAME error and closes.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&[0xAB; 64]).expect("write garbage");
    let answer = drain(&mut raw);
    if let Ok(Some((payload, _))) = decode_frame(&answer, DEFAULT_MAX_FRAME_LEN) {
        match Response::decode(&payload).expect("server frames are valid") {
            Response::Error { code: c, .. } => assert_eq!(c, code::FRAME),
            other => panic!("expected FRAME error, got {other:?}"),
        }
    }
    drop(raw);

    // 2. A length field lying far beyond the cap: rejected before any
    //    allocation, connection closed.
    let mut raw = TcpStream::connect(addr).expect("connect");
    let mut huge = encode_frame(b"x");
    huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&huge).expect("write oversized");
    drain(&mut raw);
    drop(raw);

    // 3. Bit-flipped but otherwise valid frame: CRC catches it.
    let mut raw = TcpStream::connect(addr).expect("connect");
    let mut frame = encode_frame(&Request::<Predicate>::Ping.encode());
    let last = frame.len() - 1;
    frame[last] ^= 0x40;
    raw.write_all(&frame).expect("write flipped");
    drain(&mut raw);
    drop(raw);

    // 4. Well-framed garbage payload: costs one request, not the
    //    connection — the same socket then serves a healthy query.
    let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr).expect("connect");
    {
        // Reach under the client: send a valid frame with junk inside.
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&encode_frame(&[0xFF, 0xFF, 0x01, 0x02]))
            .expect("write junk payload");
        let mut reader = prkb_server::FrameReader::new();
        raw.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let payload = loop {
            match reader
                .poll(&mut raw, DEFAULT_MAX_FRAME_LEN)
                .expect("framed answer")
            {
                prkb_server::wire::ReadStep::Frame { payload, .. } => break payload.to_vec(),
                prkb_server::wire::ReadStep::Closed => panic!("closed instead of answering"),
                _ => continue,
            }
        };
        match Response::decode(&payload).expect("decode") {
            Response::Error { code: c, .. } => assert_eq!(c, code::UNSUPPORTED_VERSION),
            other => panic!("expected version error, got {other:?}"),
        }
        // Same socket, now a valid ping: the connection survived.
        raw.write_all(&encode_frame(&Request::<Predicate>::Ping.encode()))
            .expect("write ping");
        let payload = loop {
            match reader
                .poll(&mut raw, DEFAULT_MAX_FRAME_LEN)
                .expect("framed answer")
            {
                prkb_server::wire::ReadStep::Frame { payload, .. } => break payload.to_vec(),
                prkb_server::wire::ReadStep::Closed => panic!("connection should be alive"),
                _ => continue,
            }
        };
        assert!(matches!(
            Response::decode(&payload).expect("decode"),
            Response::Ok
        ));
    }

    // The server is still healthy end to end.
    client.ping().expect("server alive after hostile clients");
    let reply = client
        .select_where(1, vec![Predicate::cmp(0, ComparisonOp::Lt, 30)])
        .expect("healthy query");
    assert_eq!(reply.tuples.len(), 30);

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert!(
        report.frame_errors() >= 3,
        "framing damage was counted ({} events)",
        report.frame_errors()
    );
}
