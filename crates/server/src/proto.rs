//! `prkb-wire/v3` request/response payloads.
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
//! v3 changed how a [`Response::Selection`] carries its ids: an *id set*
//! `form u8 | …` in one of two forms,
//!
//! ```text
//! form 0 (list):   count u32 | count × id u32          (engine order)
//! form 1 (bitmap): count u32 | first u32 | nbytes u32 | nbytes bytes
//! ```
//!
//! where bit `i` of the bitmap (least significant first, as in a WAL
//! split record) means id `first + i` is in the set. The bitmap is written
//! only when it is strictly shorter, `8 + ⌈(last − first + 1)/8⌉ <
//! 4·count`, so the form is a function of `(count, first, last)` — of the
//! id set alone, which the reply's size already reveals. A bitmap is
//! canonical (bit 0 set, last byte non-zero) and decodes ascending; the
//! reply's order stays unspecified. [`Response::decode`] still reads a v2
//! Selection (a bare list, no form byte) for one generation; requests are
//! v3 only.
//!
//! A select is one request, [`Request::Select`] (tag 8): a list of
//! trapdoors read as a conjunction, whatever their shape — one comparison,
//! a BETWEEN, a box, a SQL `WHERE` clause —
//!
//! ```text
//! seed u64 | count u16 | count × trapdoor      (1 ≤ count ≤ 128)
//! ```
//!
//! Tags 1–3, the per-kind selects that came before it (comparison,
//! BETWEEN, box), are retired: refused as an unknown tag and never reused.
//!
//! Decoding is defensive end to end: every count field is bounds-checked
//! against the remaining bytes before allocation, unknown tags and versions
//! are structured errors (not panics), and trailing garbage after a valid
//! body is rejected — malformed input must never take the server down
//! (mirroring the snapshot/WAL hardening).

use crate::wire::{begin_frame, seal_frame, DEFAULT_MAX_FRAME_LEN};
use prkb_core::snapshot::WireCodec;
use prkb_core::{InsertOutcome, QueryStats};
use prkb_edbms::codec::{Reader, Truncated};
use prkb_edbms::{AttrId, TupleId};
use std::fmt;

/// Protocol version carried in every payload's first byte. v2 made the
/// request deadline an explicit optional (presence flag + `u32`) instead
/// of a zero-sentinel; v3 made a Selection's ids an id set (list or
/// bitmap, see the module docs).
pub(crate) const PROTO_VERSION: u8 = 3;

/// The previous version, still read for a response (its Selection is a
/// bare list) and never written.
const PROTO_V2: u8 = 2;

/// Cap on the trapdoor count of one select — a lying count field must not
/// become an allocation request.
pub(crate) const MAX_TRAPDOORS: usize = 128;

/// Stable wire error codes (`prkb-wire/v3`). Never reused, only appended;
/// retired and never reused: 24 (see [`ORACLE_BASE`](code::ORACLE_BASE))
/// and 40, once sent for a box that named one attribute in two dimensions
/// (a select now makes each attribute one dimension).
pub mod code {
    /// The payload's version byte is not `super::PROTO_VERSION`.
    pub const UNSUPPORTED_VERSION: u16 = 1;
    /// The payload failed structural decoding.
    pub const MALFORMED: u16 = 2;
    /// The request tag is unknown to this server, or retired (1–3, the
    /// per-kind selects before [`Request::Select`](super::Request::Select)).
    pub const UNKNOWN_TAG: u16 = 3;
    /// The queried attribute was never initialized
    /// ([`prkb_core::QueryError::AttrNotInitialized`]).
    pub const ATTR_NOT_INITIALIZED: u16 = 10;
    /// An insert named a row the knowledge base already indexes, placed or
    /// parked ([`prkb_core::QueryError::AlreadyIndexed`]). Nothing was
    /// spent or changed; not retryable.
    pub const ALREADY_INDEXED: u16 = 11;
    /// The response's payload would exceed the frame cap
    /// ([`crate::DEFAULT_MAX_FRAME_LEN`]) a client reads, so it was not
    /// sent. The query ran and committed; asking again gets the same
    /// answer, so it is not retryable.
    pub const REPLY_TOO_LARGE: u16 = 12;
    /// Base for oracle failures: the wire code is
    /// `ORACLE_BASE + OracleError::wire_code()` (21 transient, 22 timeout,
    /// 23 corruption, 25 fatal; 24 is retired and never reused).
    pub const ORACLE_BASE: u16 = 20;
    /// The durable backing store failed: the operation's record is not
    /// known to be on disk, and the pool refuses work until it is
    /// reopened.
    pub const DURABILITY: u16 = 50;
    /// A durability barrier (fsync) of the pool's log failed — this
    /// request's own, or an earlier one that synced the refinements
    /// selects had deferred. The pool is poisoned until it is reopened:
    /// every later select, insert and delete gets this code, on any
    /// attribute, and no insert or delete was or will be acknowledged over the
    /// lost writes (a select is acknowledged before its refinements are
    /// synced; losing those costs QPF, never an answer). The connection
    /// stays up.
    pub const SYNC_FAILED: u16 = 51;
    /// The server is draining for shutdown and takes no new queries.
    pub const DRAINING: u16 = 60;
    /// Frame-level damage (reported back best-effort before closing).
    pub const FRAME: u16 = 70;
    /// The admission gate shed this connection: every connection slot
    /// (`threads + queue`) is taken. Retryable after backoff — nothing was
    /// executed.
    pub const BUSY: u16 = 80;
    /// The request's `deadline_ms` budget expired before it could commit.
    /// The attribute footprint was released and the knowledge base is
    /// untouched. Not retried automatically: the deadline was the caller's.
    pub const DEADLINE: u16 = 81;
}

/// Per-request resilience header carried by every `prkb-wire/v3` request
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
    /// A selection: trapdoors read as a conjunction, one dimension per
    /// attribute (`PrkbEngine::try_select_where`). `seed` drives the
    /// server-side sampling RNG so a client can reproduce a run exactly.
    Select {
        /// Per-query RNG seed.
        seed: u64,
        /// The trapdoors, at least one and at most 128.
        preds: Vec<P>,
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

/// Reads the `version u8 | tag u8` every payload starts with, refusing a
/// version `readable` does not list.
fn decode_preamble(r: &mut Reader<'_>, readable: &[u8]) -> Result<(u8, u8), ProtoError> {
    let ver = r.u8()?;
    if !readable.contains(&ver) {
        return Err(ProtoError::UnsupportedVersion(ver));
    }
    Ok((ver, r.u8()?))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

impl<P: WireCodec> Request<P> {
    fn tag(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Insert { .. } => 4,
            Request::Delete { .. } => 5,
            Request::MetricsSnapshot => 6,
            Request::Shutdown => 7,
            Request::Select { .. } => 8,
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
            Request::Select { seed, preds } => {
                out.extend_from_slice(&seed.to_le_bytes());
                out.extend_from_slice(&(preds.len() as u16).to_le_bytes());
                for pred in preds {
                    pred.encode_into(&mut out);
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
    /// [`ProtoError`] on version mismatch, unknown tag (a retired one
    /// included), or structural damage — a select with no trapdoor or with
    /// more than 128. Never panics, never over-allocates on lying
    /// counts; hostile `request_id`/`deadline_ms` values are data, not
    /// errors.
    pub fn decode(bytes: &[u8]) -> Result<(RequestHeader, Self), ProtoError> {
        let mut r = Reader::new(bytes);
        let (_, tag) = decode_preamble(&mut r, &[PROTO_VERSION])?;
        let hdr = RequestHeader {
            request_id: r.u64()?,
            deadline_ms: match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                _ => return Err(ProtoError::Malformed("deadline flag")),
            },
        };
        let req = match tag {
            0 => Request::Ping,
            4 => Request::Insert { tuple: r.u32()? },
            5 => Request::Delete { tuple: r.u32()? },
            6 => Request::MetricsSnapshot,
            7 => Request::Shutdown,
            8 => {
                let seed = r.u64()?;
                // A select with no dimension would answer every row the
                // oracle calls live, deleted ones included: the server
                // never tombstones its table.
                let count = match r.u16()? as usize {
                    0 => return Err(ProtoError::Malformed("select with no trapdoor")),
                    n if n > MAX_TRAPDOORS => {
                        return Err(ProtoError::Malformed("trapdoor count over cap"))
                    }
                    n => n,
                };
                let mut preds = Vec::with_capacity(count);
                for _ in 0..count {
                    preds.push(
                        P::decode(&mut r).ok_or(ProtoError::Malformed("undecodable trapdoor"))?,
                    );
                }
                Request::Select { seed, preds }
            }
            t => return Err(ProtoError::UnknownTag(t)),
        };
        r.finish()?;
        Ok((hdr, req))
    }
}

// ---------------------------------------------------------------------------
// Id sets
// ---------------------------------------------------------------------------

/// The form byte of a list id set.
const FORM_LIST: u8 = 0;
/// The form byte of a bitmap id set.
const FORM_BITMAP: u8 = 1;

/// The form a Selection's ids take on the wire (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdSetForm {
    /// `count u32 | count × u32`.
    List,
    /// `count u32 | first u32 | nbytes u32 | nbytes bytes`.
    Bitmap {
        /// The least id: bit 0.
        first: TupleId,
        /// `⌈(last − first + 1)/8⌉`.
        nbytes: usize,
    },
}

impl IdSetForm {
    /// The shorter form for `ids`, from one pass for their least and
    /// greatest id: the bitmap only if it is strictly shorter.
    fn of(ids: &[TupleId]) -> Self {
        let Some(&head) = ids.first() else {
            return IdSetForm::List;
        };
        let (first, last) = ids
            .iter()
            .fold((head, head), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        let nbytes = (last - first) as usize / 8 + 1;
        if 8 + nbytes < 4 * ids.len() {
            IdSetForm::Bitmap { first, nbytes }
        } else {
            IdSetForm::List
        }
    }

    /// Encoded length of `count` ids in this form, form byte included.
    fn len(self, count: usize) -> usize {
        1 + 4
            + match self {
                IdSetForm::List => 4 * count,
                IdSetForm::Bitmap { nbytes, .. } => 4 + 4 + nbytes,
            }
    }

    /// Appends `ids` in this form, each id written straight into the bytes
    /// reserved for it: no sort, no second buffer.
    fn encode(self, ids: &[TupleId], out: &mut Vec<u8>) {
        let count = (ids.len() as u32).to_le_bytes();
        match self {
            IdSetForm::List => {
                out.push(FORM_LIST);
                out.extend_from_slice(&count);
                let start = out.len();
                out.resize(start + 4 * ids.len(), 0);
                for (slot, t) in out[start..].chunks_exact_mut(4).zip(ids) {
                    slot.copy_from_slice(&t.to_le_bytes());
                }
            }
            IdSetForm::Bitmap { first, nbytes } => {
                out.push(FORM_BITMAP);
                out.extend_from_slice(&count);
                out.extend_from_slice(&first.to_le_bytes());
                out.extend_from_slice(&(nbytes as u32).to_le_bytes());
                let start = out.len();
                out.resize(start + nbytes, 0);
                let bits = &mut out[start..];
                for &t in ids {
                    let i = (t - first) as usize;
                    bits[i / 8] |= 1 << (i % 8);
                }
                debug_assert_eq!(popcount(bits), ids.len(), "a Selection's ids are distinct");
            }
        }
    }
}

/// `bits` as little-endian `u64` words, the last one zero-padded.
fn words(bits: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let chunks = bits.chunks_exact(8);
    let tail = chunks.remainder();
    let padded = (!tail.is_empty()).then(|| {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        u64::from_le_bytes(word)
    });
    chunks
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .chain(padded)
}

fn popcount(bits: &[u8]) -> usize {
    words(bits).map(|w| w.count_ones() as usize).sum()
}

/// `count u32 | count × u32`: the list form's body, and a v2 Selection's.
fn decode_id_list(r: &mut Reader<'_>) -> Result<Vec<TupleId>, ProtoError> {
    let count = r.count(4)?;
    Ok(r.u32s(count)?)
}

/// Reads an id set. A bitmap is refused unless it is canonical, its ids
/// fit a `u32` and its popcount is its `count` — all checked before the
/// ids are allocated — and it decodes ascending.
fn decode_id_set(r: &mut Reader<'_>) -> Result<Vec<TupleId>, ProtoError> {
    match r.u8()? {
        FORM_LIST => decode_id_list(r),
        FORM_BITMAP => {
            let count = r.u32()? as usize;
            let first = r.u32()?;
            let nbytes = r.count(1)?;
            let bits = r.bytes(nbytes)?;
            let (Some(&low), Some(&high)) = (bits.first(), bits.last()) else {
                return Err(ProtoError::Malformed("empty id bitmap"));
            };
            if low & 1 == 0 || high == 0 {
                return Err(ProtoError::Malformed("id bitmap not canonical"));
            }
            let top = (nbytes - 1) * 8 + 7 - high.leading_zeros() as usize;
            if u64::from(first) + top as u64 > u64::from(u32::MAX) {
                return Err(ProtoError::Malformed("id bitmap runs past u32::MAX"));
            }
            if popcount(bits) != count {
                return Err(ProtoError::Malformed("id bitmap count is not its popcount"));
            }
            let mut ids = Vec::with_capacity(count);
            for (w, mut word) in words(bits).enumerate() {
                // No overflow: `64 * w <= top`, and `first + top` fits.
                let base = first + 64 * w as u32;
                while word != 0 {
                    ids.push(base + word.trailing_zeros());
                    word &= word - 1;
                }
            }
            Ok(ids)
        }
        _ => Err(ProtoError::Malformed("unknown id-set form")),
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
        let form = self.id_set_form();
        let mut out = Vec::with_capacity(self.encoded_len(form));
        self.encode_into(&mut out, form);
        out
    }

    /// Encodes this response in its final wire form: the payload written
    /// once, with exact capacity, behind a reserved frame header whose
    /// `len`/`crc` are then filled in place. The buffer built
    /// here is the buffer the dedup window keeps and the socket is written
    /// from. A payload over [`DEFAULT_MAX_FRAME_LEN`], which no client
    /// reads, is not built: the answer is [`code::REPLY_TOO_LARGE`].
    pub(crate) fn encode_framed(&self) -> Vec<u8> {
        let form = self.id_set_form();
        let len = self.encoded_len(form);
        if len > DEFAULT_MAX_FRAME_LEN as usize {
            return Response::Error {
                code: code::REPLY_TOO_LARGE,
                message: format!(
                    "a {len}-byte reply exceeds the {DEFAULT_MAX_FRAME_LEN}-byte frame cap"
                ),
            }
            .encode_framed();
        }
        let mut frame = begin_frame(len);
        self.encode_into(&mut frame, form);
        seal_frame(&mut frame);
        frame
    }

    /// The form a Selection's ids take; the list for every other response
    /// (it carries none).
    fn id_set_form(&self) -> IdSetForm {
        match self {
            Response::Selection { tuples, .. } => IdSetForm::of(tuples),
            _ => IdSetForm::List,
        }
    }

    /// Exact length of the payload, a Selection's ids in `form`.
    fn encoded_len(&self, form: IdSetForm) -> usize {
        2 + match self {
            Response::Ok => 0,
            Response::Selection { tuples, .. } => 8 + form.len(tuples.len()) + STATS_LEN,
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

    fn encode_into(&self, out: &mut Vec<u8>, form: IdSetForm) {
        out.push(PROTO_VERSION);
        match self {
            Response::Ok => out.push(0),
            Response::Selection { seq, tuples, stats } => {
                out.push(1);
                out.extend_from_slice(&seq.to_le_bytes());
                form.encode(tuples, out);
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

    /// Decodes one response payload, v3 or v2.
    ///
    /// # Errors
    /// As [`Request::decode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(bytes);
        let text = |r: &mut Reader<'_>, what| {
            let len = r.count(1)?;
            String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| ProtoError::Malformed(what))
        };
        let (ver, tag) = decode_preamble(&mut r, &[PROTO_VERSION, PROTO_V2])?;
        let resp = match tag {
            0 => Response::Ok,
            1 => {
                let seq = r.u64()?;
                let tuples = if ver == PROTO_V2 {
                    decode_id_list(&mut r)?
                } else {
                    decode_id_set(&mut r)?
                };
                Response::Selection {
                    seq,
                    tuples,
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

    /// `n` trapdoors over three attributes, comparisons and BETWEENs, an
    /// attribute named more than once from three on.
    fn trapdoors(n: usize) -> Vec<Predicate> {
        (0..n as u64)
            .map(|i| match i % 5 {
                4 => Predicate::between((i % 3) as u32, i, i + 40),
                op => Predicate::cmp((i % 3) as u32, ComparisonOp::ALL[op as usize], 7 * i),
            })
            .collect()
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        for n in [1, 2, 5, MAX_TRAPDOORS] {
            roundtrip_req(Request::Select {
                seed: n as u64,
                preds: trapdoors(n),
            });
        }
        roundtrip_req(Request::Insert { tuple: 42 });
        roundtrip_req(Request::Delete { tuple: 13 });
        roundtrip_req(Request::MetricsSnapshot);
        roundtrip_req(Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ok);
        // A list keeps the engine's order; a bitmap decodes ascending, so
        // an ascending set roundtrips exactly in either form.
        roundtrip_resp(Response::Selection {
            seq: 3,
            tuples: vec![5, 1, 900],
            stats: QueryStats::default(),
        });
        roundtrip_resp(Response::Selection {
            seq: 3,
            tuples: vec![],
            stats: QueryStats::default(),
        });
        roundtrip_resp(Response::Selection {
            seq: 3,
            tuples: vec![1, 5, 9],
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
            Response::Selection {
                seq: 9,
                tuples: (0..1000).map(|i| i * 64).collect(),
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
            assert_eq!(payload.len(), resp.encoded_len(resp.id_set_form()));
            let frame = resp.encode_framed();
            assert_eq!(frame.capacity(), frame.len(), "one exact allocation");
            assert_eq!(frame, crate::wire::encode_frame(&payload));
        }
    }

    #[test]
    fn a_reply_over_the_frame_cap_is_answered_reply_too_large() {
        // 270 000 ids 64 apart: a 1.08 MB list (the bitmap would be twice
        // that), over the 1 MiB cap a client reads.
        let resp = Response::Selection {
            seq: 1,
            tuples: (0..270_000).map(|i| i * 64).collect(),
            stats: QueryStats::default(),
        };
        assert_eq!(resp.id_set_form(), IdSetForm::List);
        assert!(resp.encoded_len(IdSetForm::List) > DEFAULT_MAX_FRAME_LEN as usize);
        let frame = resp.encode_framed();
        let (payload, _) = crate::wire::decode_frame(&frame, DEFAULT_MAX_FRAME_LEN)
            .expect("the answer fits the cap")
            .expect("complete");
        assert!(matches!(
            Response::decode(&payload),
            Ok(Response::Error {
                code: code::REPLY_TOO_LARGE,
                ..
            })
        ));
        // The same rows dense are a 34 KB bitmap, and are sent.
        let dense = Response::Selection {
            seq: 1,
            tuples: (0..270_000).collect(),
            stats: QueryStats::default(),
        };
        let frame = dense.encode_framed();
        assert!(frame.len() < 34_000, "{} bytes", frame.len());
        assert_eq!(frame, crate::wire::encode_frame(&dense.encode()));
    }

    #[test]
    fn malformed_selection_errors() {
        let full = Response::Selection {
            seq: 1,
            tuples: vec![7, 800, 9000],
            stats: QueryStats::default(),
        }
        .encode();
        // A list: the count sits after ver, tag, seq and the form byte. One
        // id too many for the bytes behind it still fits the length check,
        // and runs into the stats; far too many is refused before anything
        // is allocated.
        assert_eq!(full[10], FORM_LIST);
        let mut lying = full.clone();
        lying[11..15].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            Response::decode(&lying),
            Err(ProtoError::Malformed(
                "field runs past the end of the input"
            ))
        );
        lying[11..15].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Response::decode(&lying),
            Err(ProtoError::Malformed("count exceeds the bytes that remain"))
        );
    }

    #[test]
    fn a_request_must_be_v3_while_a_v2_response_still_decodes() {
        let mut req = Request::<Predicate>::Ping.encode();
        req[0] = PROTO_V2;
        assert_eq!(
            Request::<Predicate>::decode(&req),
            Err(ProtoError::UnsupportedVersion(PROTO_V2))
        );
        let mut resp = Response::Deleted { seq: 5 }.encode();
        resp[0] = PROTO_V2;
        assert_eq!(Response::decode(&resp), Ok(Response::Deleted { seq: 5 }));
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
        let req = Request::Select {
            seed: 1,
            preds: trapdoors(2),
        };
        let mut bytes = req.encode();
        // The u16 trapdoor count sits after ver, tag, the 9-byte
        // no-deadline request header, and the seed.
        assert_eq!(bytes[19..21], 2u16.to_le_bytes());
        for (count, refusal) in [
            (0xFFFF, "trapdoor count over cap"),
            (0, "select with no trapdoor"),
            (3, "undecodable trapdoor"),
            (1, "trailing bytes"),
        ] {
            bytes[19..21].copy_from_slice(&u16::to_le_bytes(count));
            assert_eq!(
                Request::<Predicate>::decode(&bytes),
                Err(ProtoError::Malformed(refusal)),
                "count {count}"
            );
        }
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
        for n in [1, 2, 5, MAX_TRAPDOORS] {
            let full = Request::Select {
                seed: 3,
                preds: trapdoors(n),
            }
            .encode();
            for cut in 0..full.len() {
                assert!(
                    Request::<Predicate>::decode(&full[..cut]).is_err(),
                    "{n} trapdoors, cut {cut}"
                );
            }
        }
    }

    /// Ids `[base, base + span)`, `span` clipped to the `u32` range, `len`
    /// of them (fewer if the span is smaller), distinct, in a shuffled
    /// order like the engine's.
    fn id_set(len: usize, span: u64, at_top: bool, seed: u64) -> Vec<TupleId> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let span = span.min(1 << 32);
        let base = if at_top {
            (1u64 << 32) - span
        } else {
            rng.gen_range(0..=(1u64 << 32) - span)
        };
        let mut ids: Vec<TupleId> = (0..len)
            .map(|_| (base + rng.gen_range(0..span)) as TupleId)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        ids
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn id_sets_roundtrip_in_the_shorter_form(
            len in 0usize..5_000,
            span_log2 in 0u32..=32,
            at_top in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let ids = id_set(len, 1 << span_log2, at_top, seed);
            let resp = Response::Selection { seq: 1, tuples: ids.clone(), stats: QueryStats::default() };
            let form = resp.id_set_form();
            let bytes = resp.encode();
            proptest::prop_assert_eq!(bytes.len(), resp.encoded_len(form));
            // The shorter form, priced from the set alone.
            let list = 4 + 4 * ids.len();
            let bitmap = match (ids.iter().min(), ids.iter().max()) {
                (Some(&lo), Some(&hi)) => 12 + (u64::from(hi - lo) / 8 + 1) as usize,
                _ => usize::MAX,
            };
            proptest::prop_assert_eq!(matches!(form, IdSetForm::Bitmap { .. }), bitmap < list);
            proptest::prop_assert_eq!(form.len(ids.len()), 1 + list.min(bitmap));
            let Ok(Response::Selection { tuples, .. }) = Response::decode(&bytes) else {
                panic!("own encoding refused");
            };
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            if bitmap < list {
                proptest::prop_assert_eq!(tuples, sorted);
            } else {
                proptest::prop_assert_eq!(tuples, ids);
            }
        }
    }
}
