//! `prkb-wire/v2` request/response payloads.
//!
//! Every frame payload starts with `version u8 | tag u8`; requests carry a
//! resilience header right after (`request_id u64 | deadline flag u8 |
//! [deadline_ms u32]`, see [`RequestHeader`]) so retries can be
//! deduplicated server-side and doomed work can be abandoned early. v2
//! changed the deadline encoding from a zero-sentinel `u32` to an explicit
//! presence flag: `None` is "no deadline" and `Some(0)` is an immediate
//! expiry the server answers with a DEADLINE error before dispatch.
//! Bodies are
//! little-endian, fixed-layout, and predicate-generic via
//! [`WireCodec`] — the same trapdoor encoding the snapshot and WAL layers
//! already speak, so a loopback deployment ([`prkb_edbms::Predicate`]) and a
//! real encrypted one ([`prkb_edbms::EncryptedPredicate`]) share one
//! protocol.
//!
//! Decoding is defensive end to end: every count field is bounds-checked
//! against the remaining bytes before allocation, unknown tags and versions
//! are structured errors (not panics), and trailing garbage after a valid
//! body is rejected — malformed input must never take the server down
//! (mirroring the snapshot/WAL hardening).

use crate::wire::{begin_frame, seal_frame};
use prkb_core::snapshot::WireCodec;
use prkb_core::{InsertOutcome, QueryStats};
use prkb_edbms::codec::{Reader, Truncated};
use prkb_edbms::{AttrId, TupleId};
use std::fmt;

/// Protocol version carried in every payload's first byte. v2 made the
/// request deadline an explicit optional (presence flag + `u32`) instead
/// of a zero-sentinel.
pub(crate) const PROTO_VERSION: u8 = 2;

/// Cap on the dimension count of one MD range request — a lying count
/// field must not become an allocation request.
pub(crate) const MAX_MD_DIMS: usize = 64;

/// Stable wire error codes (`prkb-wire/v2`). Never reused, only appended.
pub mod code {
    /// The payload's version byte is not `super::PROTO_VERSION`.
    pub const UNSUPPORTED_VERSION: u16 = 1;
    /// The payload failed structural decoding.
    pub const MALFORMED: u16 = 2;
    /// The request tag is unknown to this server.
    pub const UNKNOWN_TAG: u16 = 3;
    /// The queried attribute was never initialized
    /// ([`prkb_core::QueryError::AttrNotInitialized`]).
    pub const ATTR_NOT_INITIALIZED: u16 = 10;
    /// An insert named a row the knowledge base already indexes, placed or
    /// parked ([`prkb_core::QueryError::AlreadyIndexed`]). Nothing was
    /// spent or changed; not retryable.
    pub const ALREADY_INDEXED: u16 = 11;
    /// Base for oracle failures: the wire code is
    /// `ORACLE_BASE + OracleError::wire_code()` (21 transient, 22 timeout,
    /// 23 corruption, 25 fatal; 24 is retired and never reused).
    pub const ORACLE_BASE: u16 = 20;
    /// An MD range request listed the same attribute in two dimensions.
    pub const DUPLICATE_DIMENSION: u16 = 40;
    /// The durable backing store failed: the operation's record is not
    /// known to be on disk, and its shard refuses work until its pool is
    /// reopened.
    pub const DURABILITY: u16 = 50;
    /// A durability barrier (fsync) failed on a shard the request touches —
    /// this request's own, or an earlier one that synced the refinements
    /// selects had deferred. The shard is poisoned until its pool is
    /// reopened; no insert or delete was or will be acknowledged over the
    /// lost writes (a select is acknowledged before its refinements are
    /// synced; losing those costs QPF, never an answer). Requests routed to
    /// healthy shards keep succeeding on the same connection.
    pub const SYNC_FAILED: u16 = 51;
    /// The server is draining for shutdown and takes no new queries.
    pub const DRAINING: u16 = 60;
    /// Frame-level damage (reported back best-effort before closing).
    pub const FRAME: u16 = 70;
    /// The admission gate shed this connection: worker pool and queue are
    /// full. Retryable after backoff — nothing was executed.
    pub const BUSY: u16 = 80;
    /// The request's `deadline_ms` budget expired before it could commit.
    /// The attribute footprint was released and the knowledge base is
    /// untouched. Not retried automatically: the deadline was the caller's.
    pub const DEADLINE: u16 = 81;
}

/// Per-request resilience header carried by every `prkb-wire/v2` request
/// between the tag byte and the body: `request_id u64 | deadline flag u8 |
/// [deadline_ms u32]` (the `u32` present iff the flag is 1; any other
/// flag value is malformed).
///
/// * `request_id` — client-generated idempotency key. `0` means
///   "untracked"; any other value lets the server deduplicate a retried
///   request through its bounded idempotency window, replaying the
///   committed response instead of re-executing.
/// * `deadline_ms` — per-request budget in milliseconds, measured from the
///   moment the server decodes the request. `None` means no deadline;
///   `Some(0)` is an *explicit immediate expiry* answered with
///   [`code::DEADLINE`] before dispatch (v1 conflated the two with a zero
///   sentinel). Expired requests leave the knowledge base untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestHeader {
    /// Client-generated idempotency key (`0` = untracked).
    pub request_id: u64,
    /// Deadline budget in milliseconds (`None` = no deadline, `Some(0)` =
    /// expire immediately).
    pub deadline_ms: Option<u32>,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<P> {
    /// Liveness probe.
    Ping,
    /// Single-predicate selection (comparison trapdoor). `seed` drives the
    /// server-side sampling RNG so a client can reproduce a run exactly.
    Select {
        /// Per-query RNG seed.
        seed: u64,
        /// The trapdoor.
        pred: P,
    },
    /// Single-predicate BETWEEN selection. Dispatch is identical to
    /// [`Request::Select`] server-side (the engine routes on the trapdoor's
    /// SP-visible kind); the distinct tag keeps the wire self-describing.
    Between {
        /// Per-query RNG seed.
        seed: u64,
        /// The trapdoor.
        pred: P,
    },
    /// Multi-dimensional range selection (PRKB(MD), paper §6.2).
    SelectRangeMd {
        /// Per-query RNG seed.
        seed: u64,
        /// Two comparison trapdoors per dimension.
        dims: Vec<[P; 2]>,
    },
    /// Route an (out-of-band uploaded) tuple into every indexed attribute.
    Insert {
        /// The tuple to index.
        tuple: TupleId,
    },
    /// Remove a tuple from every indexed attribute.
    Delete {
        /// The tuple to forget.
        tuple: TupleId,
    },
    /// Fetch the `prkb-metrics/v8` JSON snapshot.
    MetricsSnapshot,
    /// Graceful shutdown: drain in-flight queries, then stop.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Acknowledgement without payload (ping, shutdown).
    Ok,
    /// A selection result.
    Selection {
        /// Global commit sequence number (total order of engine commits).
        seq: u64,
        /// Satisfying tuple ids (order unspecified).
        tuples: Vec<TupleId>,
        /// Cost accounting for this query.
        stats: QueryStats,
    },
    /// Insert routing outcomes, one per indexed attribute.
    Inserted {
        /// Global commit sequence number.
        seq: u64,
        /// Per-attribute routing outcome.
        outcomes: Vec<(AttrId, InsertOutcome)>,
    },
    /// Delete acknowledgement.
    Deleted {
        /// Global commit sequence number.
        seq: u64,
    },
    /// The `prkb-metrics/v8` JSON document.
    Metrics {
        /// The rendered snapshot.
        json: String,
    },
    /// A structured failure.
    Error {
        /// Stable [`code`] value.
        code: u16,
        /// Human-readable context (never parsed by clients).
        message: String,
    },
}

/// Structural decode failure (maps to [`code::MALFORMED`] & friends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Version byte mismatch.
    UnsupportedVersion(u8),
    /// Unknown request/response tag.
    UnknownTag(u8),
    /// Structural damage: truncated field, lying count, trailing bytes.
    Malformed(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (expected {PROTO_VERSION})"
                )
            }
            ProtoError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The stable wire code for this decode failure.
    pub(crate) fn wire_code(&self) -> u16 {
        match self {
            ProtoError::UnsupportedVersion(_) => code::UNSUPPORTED_VERSION,
            ProtoError::UnknownTag(_) => code::UNKNOWN_TAG,
            ProtoError::Malformed(_) => code::MALFORMED,
        }
    }
}

impl From<Truncated> for ProtoError {
    fn from(e: Truncated) -> Self {
        ProtoError::Malformed(e.0)
    }
}

/// Reads the `version u8 | tag u8` every payload starts with.
fn decode_preamble(r: &mut Reader<'_>) -> Result<u8, ProtoError> {
    let ver = r.u8()?;
    if ver != PROTO_VERSION {
        return Err(ProtoError::UnsupportedVersion(ver));
    }
    Ok(r.u8()?)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

impl<P: WireCodec> Request<P> {
    fn tag(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Select { .. } => 1,
            Request::Between { .. } => 2,
            Request::SelectRangeMd { .. } => 3,
            Request::Insert { .. } => 4,
            Request::Delete { .. } => 5,
            Request::MetricsSnapshot => 6,
            Request::Shutdown => 7,
        }
    }

    /// Encodes this request with a default (untracked, undeadlined) header.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(RequestHeader::default())
    }

    /// Encodes this request as one frame payload carrying `hdr`.
    pub fn encode_with(&self, hdr: RequestHeader) -> Vec<u8> {
        let mut out = vec![PROTO_VERSION, self.tag()];
        out.extend_from_slice(&hdr.request_id.to_le_bytes());
        match hdr.deadline_ms {
            None => out.push(0),
            Some(ms) => {
                out.push(1);
                out.extend_from_slice(&ms.to_le_bytes());
            }
        }
        match self {
            Request::Ping | Request::MetricsSnapshot | Request::Shutdown => {}
            Request::Select { seed, pred } | Request::Between { seed, pred } => {
                out.extend_from_slice(&seed.to_le_bytes());
                pred.encode_into(&mut out);
            }
            Request::SelectRangeMd { seed, dims } => {
                out.extend_from_slice(&seed.to_le_bytes());
                out.extend_from_slice(&(dims.len() as u16).to_le_bytes());
                for [lo, hi] in dims {
                    lo.encode_into(&mut out);
                    hi.encode_into(&mut out);
                }
            }
            Request::Insert { tuple } | Request::Delete { tuple } => {
                out.extend_from_slice(&tuple.to_le_bytes());
            }
        }
        out
    }

    /// Decodes one request payload into its resilience header and body.
    ///
    /// # Errors
    /// [`ProtoError`] on version mismatch, unknown tag, or structural
    /// damage. Never panics, never over-allocates on lying counts; hostile
    /// `request_id`/`deadline_ms` values are data, not errors.
    pub fn decode(bytes: &[u8]) -> Result<(RequestHeader, Self), ProtoError> {
        let mut r = Reader::new(bytes);
        let tag = decode_preamble(&mut r)?;
        let hdr = RequestHeader {
            request_id: r.u64()?,
            deadline_ms: match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                _ => return Err(ProtoError::Malformed("deadline flag")),
            },
        };
        let pred =
            |r: &mut Reader<'_>| P::decode(r).ok_or(ProtoError::Malformed("undecodable trapdoor"));
        let req = match tag {
            0 => Request::Ping,
            1 => Request::Select {
                seed: r.u64()?,
                pred: pred(&mut r)?,
            },
            2 => Request::Between {
                seed: r.u64()?,
                pred: pred(&mut r)?,
            },
            3 => {
                let seed = r.u64()?;
                let ndims = r.u16()? as usize;
                if ndims > MAX_MD_DIMS {
                    return Err(ProtoError::Malformed("dimension count over cap"));
                }
                let mut dims = Vec::with_capacity(ndims);
                for _ in 0..ndims {
                    dims.push([pred(&mut r)?, pred(&mut r)?]);
                }
                Request::SelectRangeMd { seed, dims }
            }
            4 => Request::Insert { tuple: r.u32()? },
            5 => Request::Delete { tuple: r.u32()? },
            6 => Request::MetricsSnapshot,
            7 => Request::Shutdown,
            t => return Err(ProtoError::UnknownTag(t)),
        };
        r.finish()?;
        Ok((hdr, req))
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encoded length of a [`QueryStats`]: ten `u64` fields.
const STATS_LEN: usize = 80;

fn encode_stats(stats: &QueryStats, out: &mut Vec<u8>) {
    for v in [
        stats.qpf_uses,
        stats.k_before as u64,
        stats.k_after as u64,
        stats.splits as u64,
        stats.filter_probes,
        stats.ns_width,
        stats.oracle_batches,
        stats.pruned_true as u64,
        stats.pruned_false as u64,
        stats.overflow_scanned as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<QueryStats, Truncated> {
    Ok(QueryStats {
        qpf_uses: r.u64()?,
        k_before: r.u64()? as usize,
        k_after: r.u64()? as usize,
        splits: r.u64()? as usize,
        filter_probes: r.u64()?,
        ns_width: r.u64()?,
        oracle_batches: r.u64()?,
        pruned_true: r.u64()? as usize,
        pruned_false: r.u64()? as usize,
        overflow_scanned: r.u64()? as usize,
    })
}

impl Response {
    /// Encodes this response as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Encodes this response in its final wire form: the payload written
    /// once, with exact capacity, behind a reserved frame header whose
    /// `len`/`crc` are then filled in place. The buffer a worker builds
    /// here is the buffer the dedup window keeps and the socket is written
    /// from.
    pub(crate) fn encode_framed(&self) -> Vec<u8> {
        let mut frame = begin_frame(self.encoded_len());
        self.encode_into(&mut frame);
        seal_frame(&mut frame);
        frame
    }

    /// Exact length of [`encode`](Self::encode)'s output.
    fn encoded_len(&self) -> usize {
        2 + match self {
            Response::Ok => 0,
            Response::Selection { tuples, .. } => 8 + 4 + 4 * tuples.len() + STATS_LEN,
            Response::Inserted { outcomes, .. } => {
                let body = |o: &InsertOutcome| match o {
                    InsertOutcome::Placed { .. } => 4 + 1 + 8,
                    InsertOutcome::Parked { .. } => 4 + 1 + 16,
                };
                8 + 4 + outcomes.iter().map(|(_, o)| body(o)).sum::<usize>()
            }
            Response::Deleted { .. } => 8,
            Response::Metrics { json } => 4 + json.len(),
            Response::Error { message, .. } => 2 + 4 + message.len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(PROTO_VERSION);
        match self {
            Response::Ok => out.push(0),
            Response::Selection { seq, tuples, stats } => {
                out.push(1);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
                for t in tuples {
                    out.extend_from_slice(&t.to_le_bytes());
                }
                encode_stats(stats, out);
            }
            Response::Inserted { seq, outcomes } => {
                out.push(2);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
                for (attr, outcome) in outcomes {
                    out.extend_from_slice(&attr.to_le_bytes());
                    match outcome {
                        InsertOutcome::Placed { rank } => {
                            out.push(0);
                            out.extend_from_slice(&(*rank as u64).to_le_bytes());
                        }
                        InsertOutcome::Parked { lo, hi } => {
                            out.push(1);
                            out.extend_from_slice(&(*lo as u64).to_le_bytes());
                            out.extend_from_slice(&(*hi as u64).to_le_bytes());
                        }
                    }
                }
            }
            Response::Deleted { seq } => {
                out.push(3);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Response::Metrics { json } => {
                out.push(4);
                out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Response::Error { code, message } => {
                out.push(5);
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(&(message.len() as u32).to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
        }
    }

    /// Decodes one response payload.
    ///
    /// # Errors
    /// As [`Request::decode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(bytes);
        let text = |r: &mut Reader<'_>, what| {
            let len = r.count(1)?;
            String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| ProtoError::Malformed(what))
        };
        let resp = match decode_preamble(&mut r)? {
            0 => Response::Ok,
            1 => {
                let seq = r.u64()?;
                let count = r.count(4)?;
                Response::Selection {
                    seq,
                    tuples: r.u32s(count)?,
                    stats: decode_stats(&mut r)?,
                }
            }
            2 => {
                let seq = r.u64()?;
                // Smallest outcome entry: attr u32 + tag u8 + rank u64.
                let count = r.count(13)?;
                let mut outcomes = Vec::with_capacity(count);
                for _ in 0..count {
                    let attr = r.u32()?;
                    let outcome = match r.u8()? {
                        0 => InsertOutcome::Placed {
                            rank: r.u64()? as usize,
                        },
                        1 => InsertOutcome::Parked {
                            lo: r.u64()? as usize,
                            hi: r.u64()? as usize,
                        },
                        _ => return Err(ProtoError::Malformed("unknown outcome tag")),
                    };
                    outcomes.push((attr, outcome));
                }
                Response::Inserted { seq, outcomes }
            }
            3 => Response::Deleted { seq: r.u64()? },
            4 => Response::Metrics {
                json: text(&mut r, "metrics not UTF-8")?,
            },
            5 => Response::Error {
                code: r.u16()?,
                message: text(&mut r, "message not UTF-8")?,
            },
            t => return Err(ProtoError::UnknownTag(t)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::{ComparisonOp, Predicate};

    fn roundtrip_req(req: Request<Predicate>) {
        let bytes = req.encode();
        let (hdr, decoded) = Request::decode(&bytes).expect("decode");
        assert_eq!(hdr, RequestHeader::default());
        assert_eq!(decoded, req);
        // And with every deadline-edge header: absent, immediate expiry,
        // ordinary, and the 49.7-day maximum.
        for deadline_ms in [None, Some(0), Some(1_500), Some(u32::MAX)] {
            let hdr = RequestHeader {
                request_id: 0xDEAD_BEEF_CAFE_F00D,
                deadline_ms,
            };
            let bytes = req.encode_with(hdr);
            let (got_hdr, decoded) = Request::decode(&bytes).expect("decode with header");
            assert_eq!(got_hdr, hdr);
            assert_eq!(decoded, req);
        }
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).expect("decode"), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Select {
            seed: 7,
            pred: Predicate::cmp(0, ComparisonOp::Lt, 500),
        });
        roundtrip_req(Request::Between {
            seed: 9,
            pred: Predicate::between(2, 10, 90),
        });
        roundtrip_req(Request::SelectRangeMd {
            seed: 11,
            dims: vec![
                [
                    Predicate::cmp(0, ComparisonOp::Gt, 1),
                    Predicate::cmp(0, ComparisonOp::Lt, 9),
                ],
                [
                    Predicate::cmp(1, ComparisonOp::Ge, 4),
                    Predicate::cmp(1, ComparisonOp::Le, 6),
                ],
            ],
        });
        roundtrip_req(Request::Insert { tuple: 42 });
        roundtrip_req(Request::Delete { tuple: 13 });
        roundtrip_req(Request::MetricsSnapshot);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Selection {
            seq: 3,
            tuples: vec![5, 1, 9],
            stats: QueryStats {
                qpf_uses: 100,
                k_before: 1,
                k_after: 2,
                splits: 1,
                filter_probes: 3,
                ns_width: 40,
                oracle_batches: 2,
                pruned_true: 1,
                pruned_false: 0,
                overflow_scanned: 2,
            },
        });
        roundtrip_resp(Response::Inserted {
            seq: 4,
            outcomes: vec![
                (0, InsertOutcome::Placed { rank: 3 }),
                (1, InsertOutcome::Parked { lo: 1, hi: 5 }),
            ],
        });
        roundtrip_resp(Response::Deleted { seq: 5 });
        roundtrip_resp(Response::Metrics {
            json: "{\"schema\":\"prkb-metrics/v8\"}".into(),
        });
        roundtrip_resp(Response::Error {
            code: code::MALFORMED,
            message: "nope".into(),
        });
    }

    #[test]
    fn framed_encoding_is_exact_and_wraps_the_payload() {
        let responses = [
            Response::Ok,
            Response::Selection {
                seq: 9,
                tuples: (0..1000).collect(),
                stats: QueryStats::default(),
            },
            Response::Inserted {
                seq: 4,
                outcomes: vec![
                    (0, InsertOutcome::Placed { rank: 3 }),
                    (1, InsertOutcome::Parked { lo: 1, hi: 5 }),
                ],
            },
            Response::Deleted { seq: 5 },
            Response::Metrics { json: "{}".into() },
            Response::Error {
                code: code::BUSY,
                message: "later".into(),
            },
        ];
        for resp in responses {
            let payload = resp.encode();
            assert_eq!(payload.len(), resp.encoded_len(), "{resp:?}");
            let frame = resp.encode_framed();
            assert_eq!(frame.capacity(), frame.len(), "one exact allocation");
            assert_eq!(frame, crate::wire::encode_frame(&payload));
        }
    }

    #[test]
    fn malformed_selection_errors() {
        let full = Response::Selection {
            seq: 1,
            tuples: vec![7, 8, 9],
            stats: QueryStats::default(),
        }
        .encode();
        // The count sits after ver, tag and seq. One id too many for the
        // bytes behind it still fits the length check, and runs into the
        // stats; far too many is refused before anything is allocated.
        let mut lying = full.clone();
        lying[10..14].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            Response::decode(&lying),
            Err(ProtoError::Malformed(
                "field runs past the end of the input"
            ))
        );
        lying[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Response::decode(&lying),
            Err(ProtoError::Malformed("count exceeds the bytes that remain"))
        );
    }

    #[test]
    fn version_and_tag_rejected() {
        let mut bytes = Request::<Predicate>::Ping.encode();
        bytes[0] = 99;
        assert!(matches!(
            Request::<Predicate>::decode(&bytes),
            Err(ProtoError::UnsupportedVersion(99))
        ));
        let mut bytes = Request::<Predicate>::Ping.encode();
        bytes[1] = 200;
        assert!(matches!(
            Request::<Predicate>::decode(&bytes),
            Err(ProtoError::UnknownTag(200))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::<Predicate>::Ping.encode();
        bytes.push(0);
        assert!(matches!(
            Request::<Predicate>::decode(&bytes),
            Err(ProtoError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn lying_dim_count_rejected() {
        let req = Request::SelectRangeMd {
            seed: 1,
            dims: vec![[
                Predicate::cmp(0, ComparisonOp::Gt, 1),
                Predicate::cmp(0, ComparisonOp::Lt, 9),
            ]],
        };
        let mut bytes = req.encode();
        // The u16 dim count sits after ver, tag, the 9-byte no-deadline
        // request header, and the seed.
        bytes[19] = 0xFF;
        bytes[20] = 0xFF;
        assert!(Request::<Predicate>::decode(&bytes).is_err());
    }

    #[test]
    fn bad_deadline_flag_rejected() {
        let mut bytes = Request::<Predicate>::Ping.encode();
        // The deadline presence flag sits after ver, tag, request_id.
        assert_eq!(bytes[10], 0, "no-deadline encoding uses flag 0");
        bytes[10] = 7;
        assert!(matches!(
            Request::<Predicate>::decode(&bytes),
            Err(ProtoError::Malformed("deadline flag"))
        ));
    }

    #[test]
    fn empty_and_truncated_payloads_are_errors() {
        assert!(Request::<Predicate>::decode(&[]).is_err());
        assert!(Request::<Predicate>::decode(&[PROTO_VERSION]).is_err());
        let full = Request::Select {
            seed: 3,
            pred: Predicate::cmp(0, ComparisonOp::Lt, 10),
        }
        .encode();
        for cut in 0..full.len() {
            assert!(
                Request::<Predicate>::decode(&full[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }
}
