//! Request processing: shared server state + the decode/dispatch path.
//!
//! I/O lives in [`crate::reactor`]; this module is the compute side. The
//! server thread that read a frame runs [`process`] on its payload, in the
//! reader's buffer, and gets the response back already framed. Failure
//! handling is two-tier, mirroring the WAL's trust model:
//!
//! * **frame damage** (bad CRC, oversized length, truncation) destroys
//!   framing — the reactor answers the frames before the damage, sends a
//!   best-effort error frame and closes the connection;
//! * **payload damage** (unknown tag, truncated body, hostile counts) is
//!   contained to one request — the server answers with a structured error
//!   and keeps the connection alive.
//!
//! Hostile-but-well-framed input must never panic a server thread: a select
//! with no trapdoor is refused by the decoder, and an out-of-range tuple id
//! here, before dispatch.
//!
//! The resilience header rides on every request: a present
//! `deadline_ms` becomes an absolute [`Instant`] budget threaded into the
//! scheduler (checkout waits and oracle batches both honour it — expiry
//! answers [`code::DEADLINE`] and leaves the KB untouched). A deadline of
//! `Some(0)` is an *explicit immediate expiry*: the request is answered
//! DEADLINE before dispatch, never touching the engine — useful as a
//! cancellation probe. "No deadline" is encoded as absence (`None`), not
//! as a zero sentinel. A non-zero `request_id` consults the server-global
//! [`DedupWindow`] so a retried mutation replays its original response
//! frame instead of committing twice.

use crate::admission::{DedupClaim, DedupWindow};
use crate::proto::{code, Request, Response};
use crate::scheduler::SessionScheduler;
use prkb_core::metrics::{self, Metric};
use prkb_core::snapshot::WireCodec;
use prkb_core::{DurableError, QueryError, SpPredicate};
use prkb_edbms::{DurabilityError, OracleError, SelectionOracle, TupleId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// State shared by every server thread.
pub(crate) struct Shared<P: SpPredicate + WireCodec, O> {
    /// The engine pool behind its checkout/checkin discipline.
    pub sched: SessionScheduler<P>,
    /// The shared oracle; `RwLock` so a deployment can upload rows (a
    /// `&mut` operation on test oracles) between queries.
    pub oracle: Arc<RwLock<O>>,
    /// Set once by a Shutdown request (or [`crate::ServerHandle`]): the
    /// server stops accepting, in-flight requests finish, responses
    /// flush, then everything closes.
    pub shutdown: AtomicBool,
    /// Close connections with no completed frame for this long (only
    /// consulted between frames — a mid-frame sender answers to
    /// `stall_deadline` instead).
    pub idle_deadline: Duration,
    /// Close connections that buffered a partial frame and then received
    /// no byte for this long.
    pub stall_deadline: Duration,
    /// Request-id → response memo for idempotent retries.
    pub dedup: DedupWindow,
    /// Served requests (every decoded frame counts, errors included).
    pub requests: AtomicU64,
    /// Wire bytes in + out.
    pub bytes: AtomicU64,
    /// Stream-fatal framing failures.
    pub frame_errors: AtomicU64,
    /// Connections shed with BUSY at the admission gate.
    pub busy_rejections: AtomicU64,
    /// Requests answered with [`code::DEADLINE`].
    pub deadline_timeouts: AtomicU64,
    /// Requests answered from the dedup window instead of re-executing.
    pub dedup_hits: AtomicU64,
    /// The eventfd the server threads wait on beside their sockets. Only
    /// shutdown bumps it.
    pub wake: crate::epoll::Waker,
}

impl<P: SpPredicate + WireCodec, O> Shared<P, O> {
    /// Flips the shutdown flag and bumps the eventfd, so that a waiting
    /// server thread observes the flag at once instead of on its next
    /// timeout.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.wake();
    }
}

/// Decodes one request payload, applies the resilience header (deadline
/// budget, idempotent-replay window), and dispatches. Returns the response
/// as a complete wire frame — built and checksummed once, here, and
/// shared with the dedup window — and whether the connection must close
/// afterwards.
pub(crate) fn process<P, O>(shared: &Shared<P, O>, payload: &[u8]) -> (Arc<Vec<u8>>, bool)
where
    P: SpPredicate + WireCodec,
    O: SelectionOracle<Pred = P>,
{
    let (hdr, req) = match Request::<P>::decode(payload) {
        Ok(decoded) => decoded,
        Err(e) => {
            let resp = Response::Error {
                code: e.wire_code(),
                message: e.to_string(),
            };
            return (Arc::new(resp.encode_framed()), false);
        }
    };
    let deadline = hdr
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(u64::from(ms)));
    // An already-expired budget — `Some(0)` in particular — is answered
    // before dispatch and before the dedup window: nothing committed, so
    // nothing to memoize, and a retry with the same id must re-execute.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        let resp = Response::Error {
            code: code::DEADLINE,
            message: "deadline expired before dispatch".into(),
        };
        observe_deadline(shared, &resp);
        return (Arc::new(resp.encode_framed()), false);
    }

    // Only engine operations are tracked: Ping/Metrics/Shutdown have no
    // commit to protect and their responses are not worth memoizing.
    let tracked = hdr.request_id != 0
        && matches!(
            req,
            Request::Select { .. } | Request::Insert { .. } | Request::Delete { .. }
        );
    if !tracked {
        let (resp, close) = handle(shared, req, deadline);
        observe_deadline(shared, &resp);
        return (Arc::new(resp.encode_framed()), close);
    }

    match shared.dedup.begin(hdr.request_id) {
        DedupClaim::Replay(bytes) => {
            shared.dedup_hits.fetch_add(1, Ordering::Relaxed);
            metrics::global().add(Metric::DedupHits, 1);
            (bytes, false)
        }
        DedupClaim::Execute(claim) => {
            let (resp, close) = handle(shared, req, deadline);
            observe_deadline(shared, &resp);
            let bytes = Arc::new(resp.encode_framed());
            // Memoize only committed outcomes. An error releases the id
            // (claim drops → abort) so the client's retry re-executes. A
            // selection over the frame cap committed too: its memo is the
            // REPLY_TOO_LARGE frame it was answered with.
            if matches!(
                resp,
                Response::Selection { .. } | Response::Inserted { .. } | Response::Deleted { .. }
            ) {
                claim.complete(Arc::clone(&bytes));
            }
            (bytes, close)
        }
        // begin() returns Untracked only for rid 0, excluded above.
        DedupClaim::Untracked => unreachable!("tracked path requires request_id != 0"),
    }
}

fn observe_deadline<P: SpPredicate + WireCodec, O>(shared: &Shared<P, O>, resp: &Response) {
    if matches!(
        resp,
        Response::Error {
            code: code::DEADLINE,
            ..
        }
    ) {
        shared.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
        metrics::global().add(Metric::DeadlineTimeouts, 1);
    }
}

/// Dispatches one decoded request. Returns the response and whether the
/// connection must close afterwards.
fn handle<P, O>(
    shared: &Shared<P, O>,
    req: Request<P>,
    deadline: Option<Instant>,
) -> (Response, bool)
where
    P: SpPredicate + WireCodec,
    O: SelectionOracle<Pred = P>,
{
    match req {
        Request::Ping => (Response::Ok, false),
        Request::Select { seed, preds } => {
            let oracle = read_oracle(&shared.oracle);
            let mut rng = StdRng::seed_from_u64(seed);
            match shared
                .sched
                .select_where(&*oracle, &preds, deadline, &mut rng)
            {
                Ok((sel, seq)) => (
                    Response::Selection {
                        seq,
                        tuples: sel.tuples,
                        stats: sel.stats,
                    },
                    false,
                ),
                Err(e) => (error_of(&e), false),
            }
        }
        Request::Insert { tuple } => {
            let oracle = read_oracle(&shared.oracle);
            if let Err(resp) = validate_tuple(tuple, oracle.n_slots()) {
                return (resp, false);
            }
            match shared.sched.insert(&*oracle, tuple, deadline) {
                Ok((outcomes, seq)) => (Response::Inserted { seq, outcomes }, false),
                Err(e) => (error_of(&e), false),
            }
        }
        Request::Delete { tuple } => {
            if let Err(resp) = validate_tuple(tuple, read_oracle(&shared.oracle).n_slots()) {
                return (resp, false);
            }
            match shared.sched.delete(tuple, deadline) {
                Ok(seq) => (Response::Deleted { seq }, false),
                Err(e) => (error_of(&e), false),
            }
        }
        Request::MetricsSnapshot => (
            Response::Metrics {
                json: metrics::global().snapshot().to_json(),
            },
            false,
        ),
        Request::Shutdown => {
            // Flush the pool's un-synced tail (the refinements selects
            // deferred) before the acknowledgement goes on the wire: once the client sees Ok,
            // the full commit history is on disk even if the process dies
            // right after. The server drains either way — a failed flush
            // is reported, not retried (the committer is poisoned; only a
            // reopen recovers it).
            let flush = shared.sched.flush_durable();
            shared.trigger_shutdown();
            match flush {
                Ok(()) => (Response::Ok, true),
                Err(e) => (error_of(&e), true),
            }
        }
    }
}

fn read_oracle<O>(oracle: &RwLock<O>) -> std::sync::RwLockReadGuard<'_, O> {
    match oracle.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn error_of(e: &DurableError) -> Response {
    Response::Error {
        code: wire_code(e),
        message: e.to_string(),
    }
}

/// Maps a scheduled operation's failure onto its stable `prkb-wire/v3`
/// error code.
fn wire_code(e: &DurableError) -> u16 {
    match e {
        DurableError::Query(QueryError::AttrNotInitialized(_)) => code::ATTR_NOT_INITIALIZED,
        DurableError::Query(QueryError::AlreadyIndexed(_)) => code::ALREADY_INDEXED,
        // The deadline budget is a wire-level concern, not an oracle
        // fault class: it gets its own top-level code.
        DurableError::Query(QueryError::Oracle(OracleError::DeadlineExceeded)) => code::DEADLINE,
        DurableError::Query(QueryError::Oracle(e)) => code::ORACLE_BASE + e.wire_code(),
        // fsyncgate class: the disk lied about a durability barrier.
        // Distinguished on the wire so clients know the pool is down
        // until reopen (vs. a one-off durability error).
        DurableError::Storage(DurabilityError::SyncFailed(_)) => code::SYNC_FAILED,
        DurableError::Storage(_)
        | DurableError::CorruptWal(_)
        | DurableError::CorruptManifest(_)
        | DurableError::CorruptSegment(_)
        | DurableError::Poisoned => code::DURABILITY,
    }
}

/// Rejects a tuple id beyond the oracle's slots: no uploaded row is behind
/// it, so routing it would evaluate trapdoors against nothing, and deleting
/// it would take a whole-table checkout to journal a no-op.
fn validate_tuple(tuple: TupleId, n_slots: usize) -> Result<(), Response> {
    if (tuple as usize) < n_slots {
        return Ok(());
    }
    Err(Response::Error {
        code: code::MALFORMED,
        message: format!("tuple {tuple} beyond table ({n_slots} slots)"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_failures_map_to_their_wire_codes() {
        let oracle = |e| DurableError::Query(QueryError::Oracle(e));
        assert_eq!(
            wire_code(&oracle(OracleError::DeadlineExceeded)),
            code::DEADLINE
        );
        let transient = OracleError::Transient("tm down".into());
        assert_eq!(
            wire_code(&oracle(transient.clone())),
            code::ORACLE_BASE + transient.wire_code()
        );
        assert_eq!(
            wire_code(&DurableError::Query(QueryError::AttrNotInitialized(9))),
            code::ATTR_NOT_INITIALIZED
        );
        assert_eq!(
            wire_code(&DurableError::Query(QueryError::AlreadyIndexed(3))),
            code::ALREADY_INDEXED
        );
        let sync = DurabilityError::SyncFailed("fsync lied".into());
        assert_eq!(wire_code(&DurableError::Storage(sync)), code::SYNC_FAILED);
        assert_eq!(wire_code(&DurableError::Poisoned), code::DURABILITY);
    }
}
