//! The blocking client for the `prkb-wire/v3` protocol.
//!
//! One [`PrkbClient`] wraps one TCP connection at a time and serves two
//! kinds of traffic over the same stream, frame reader and read-deadline
//! loop:
//!
//! * **Resilient calls** ([`select_where`](PrkbClient::select_where),
//!   [`insert`](PrkbClient::insert), …) send one request and block for its
//!   response. Every call carries a client-generated request id and an
//!   optional deadline budget ([`ClientConfig::deadline_ms`]); transport
//!   failures and transient server codes (BUSY, FRAME, oracle
//!   transient/timeout) are retried — reconnecting first, reusing the
//!   *same* request id so the server's dedup window makes the retry
//!   exactly-once — pausing [`RetryPolicy::backoff`] between attempts. An
//!   oracle fault aborts the server-side query with the KB untouched, so
//!   this is the one retry layer: the same request id and seed re-issue
//!   the whole query. A [`Breaker`] fast-fails with
//!   [`ClientError::CircuitOpen`] after repeated
//!   exhaustion. With a pinned [`ClientConfig::rid_seed`] the request path
//!   is fully deterministic, which is what lets the loopback suites compare
//!   the served engine with the in-process one byte for byte.
//! * **Pipelining.** [`submit`](PrkbClient::submit) writes a request frame
//!   without waiting and [`drain_one`](PrkbClient::drain_one) reads the
//!   oldest outstanding response; the reactor answers each connection
//!   strictly FIFO, so the k-th submitted request gets the k-th response,
//!   byte-identical to a sequential replay. Depth is how often the caller
//!   submits before draining. Submitted requests are the caller's: no
//!   retry, no breaker, the caller owns each [`RequestHeader`]. A resilient
//!   call is refused while requests are in flight (its response would be
//!   misattributed), and a transport failure drops the connection and
//!   forgets what was in flight.
//!
//! Sockets always carry read/connect/write timeouts (defaults in
//! [`ClientConfig`]): a dead or stalled server surfaces
//! [`ClientError::TimedOut`] instead of blocking a caller forever,
//! independent of whether retries are enabled.

use crate::proto::{code, ProtoError, Request, RequestHeader, Response};
use crate::wire::{write_frame, FrameError, FrameReader, ReadStep, DEFAULT_MAX_FRAME_LEN};
use prkb_core::snapshot::WireCodec;
use prkb_core::{InsertOutcome, QueryStats};
use prkb_edbms::resilience::{mix, Breaker, RetryPolicy};
use prkb_edbms::{AttrId, TupleId};
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Failures a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The response stream lost framing.
    Frame(FrameError),
    /// A well-framed response failed to decode.
    Proto(ProtoError),
    /// The server answered with a structured error.
    Server {
        /// Stable [`crate::proto::code`] value.
        code: u16,
        /// Server-side context.
        message: String,
    },
    /// The server answered with the wrong response kind for this request.
    Unexpected(&'static str),
    /// The server closed the connection instead of responding.
    ConnectionClosed,
    /// No response within [`ClientConfig::read_timeout`].
    TimedOut,
    /// The circuit breaker is open: recent calls exhausted their retries,
    /// so this one fast-failed without touching the network.
    CircuitOpen,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O failure: {e}"),
            ClientError::Frame(e) => write!(f, "response framing failure: {e}"),
            ClientError::Proto(e) => write!(f, "response protocol failure: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
            ClientError::ConnectionClosed => write!(f, "server closed the connection"),
            ClientError::TimedOut => write!(f, "no response within the read timeout"),
            ClientError::CircuitOpen => write!(f, "circuit breaker open: fast-failing"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// TCP connect budget per attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Per-frame write budget.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Client tunables: read budget, retry policy, request-id stream.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// End-to-end budget for one response (poll ticks re-check it).
    pub read_timeout: Duration,
    /// Retry/backoff/breaker discipline (reused from
    /// [`prkb_edbms::resilience`]). `max_attempts: 1` disables retrying.
    pub retry: RetryPolicy,
    /// `deadline_ms` stamped on every request header. 0 (the default)
    /// sends *no* deadline (`None` on the v2 wire); a non-zero value is
    /// sent as `Some(value)`. An explicit `Some(0)` immediate-expiry probe
    /// must be built through [`RequestHeader`] directly — this convenience
    /// knob cannot express it.
    pub deadline_ms: u32,
    /// Seed for the deterministic request-id stream. 0 (the default)
    /// draws a random seed per connection, so independent clients never
    /// collide in the server's dedup window; tests pin it for
    /// reproducibility.
    pub rid_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            deadline_ms: 0,
            rid_seed: 0,
        }
    }
}

/// A committed selection as seen over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionReply {
    /// Global commit sequence number assigned by the server.
    pub seq: u64,
    /// Satisfying tuple ids (order unspecified).
    pub tuples: Vec<TupleId>,
    /// Per-query cost accounting, exact even under server concurrency.
    pub stats: QueryStats,
}

impl SelectionReply {
    /// The tuple ids, sorted (result sets are order-free).
    pub fn sorted(&self) -> Vec<TupleId> {
        let mut t = self.tuples.clone();
        t.sort_unstable();
        t
    }
}

/// Blocking client over one connection at a time (see the module docs).
pub struct PrkbClient<P> {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    reader: FrameReader,
    config: ClientConfig,
    rid_seed: u64,
    rid_counter: u64,
    backoffs: u64,
    retries: u64,
    breaker: Breaker,
    in_flight: usize,
    _pred: PhantomData<P>,
}

impl<P: WireCodec> PrkbClient<P> {
    /// Connects with default timeouts and retry policy.
    ///
    /// # Errors
    /// Socket connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tunables. The TCP connection is established
    /// eagerly so configuration errors surface here, not on first use.
    ///
    /// # Errors
    /// Address resolution or socket connect failure.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(io::Error::other("address resolved to nothing")))?;
        let rid_seed = if config.rid_seed != 0 {
            config.rid_seed
        } else {
            // Unique per client: two clients must never share a request-id
            // stream, or the server's dedup window would cross their wires.
            entropy_seed()
        };
        let mut client = PrkbClient {
            addr,
            stream: None,
            reader: FrameReader::new(),
            config,
            rid_seed,
            rid_counter: 0,
            backoffs: 0,
            retries: 0,
            breaker: Breaker::default(),
            in_flight: 0,
            _pred: PhantomData,
        };
        client.establish()?;
        Ok(client)
    }

    /// Transport retries performed so far (reconnect + resend).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Ensures a live connection, dialing (with timeouts armed) if needed.
    fn establish(&mut self) -> Result<(), ClientError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true).ok();
        // Poll-tick reads: the overall read budget is enforced per call,
        // the short socket timeout just keeps the loop responsive.
        let tick = self
            .config
            .read_timeout
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        stream.set_read_timeout(Some(tick))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        self.stream = Some(stream);
        self.reader = FrameReader::new();
        Ok(())
    }

    /// Drops the connection — and with it whatever was in flight — so the
    /// next attempt redials from scratch.
    fn disconnect(&mut self) {
        self.stream = None;
        self.reader = FrameReader::new();
        self.in_flight = 0;
    }

    /// The next non-zero request id from this client's deterministic
    /// stream.
    fn next_rid(&mut self) -> u64 {
        loop {
            self.rid_counter += 1;
            let rid = mix(self.rid_seed ^ self.rid_counter);
            if rid != 0 {
                return rid;
            }
        }
    }

    /// Requests submitted but not yet drained.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Writes one request frame without waiting for its response, dialing
    /// first if the connection is down.
    ///
    /// # Errors
    /// Connect or socket write failure; the connection is dropped.
    pub fn submit(&mut self, hdr: RequestHeader, req: &Request<P>) -> Result<(), ClientError> {
        self.send(&req.encode_with(hdr))
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        self.establish()?;
        let stream = self.stream.as_mut().expect("established above");
        if let Err(e) = write_frame(stream, payload) {
            self.disconnect();
            return Err(e.into());
        }
        self.in_flight += 1;
        Ok(())
    }

    /// Reads the response to the oldest outstanding request.
    ///
    /// # Errors
    /// [`ClientError::Unexpected`] when nothing is in flight. On a
    /// transport, framing or timeout failure the connection is dropped and
    /// every outstanding response is lost.
    pub fn drain_one(&mut self) -> Result<Response, ClientError> {
        if self.in_flight == 0 {
            return Err(ClientError::Unexpected("no request in flight"));
        }
        let stream = self.stream.as_mut().expect("in flight implies connected");
        let deadline = Instant::now() + self.config.read_timeout;
        let failure = loop {
            match self.reader.poll(stream, DEFAULT_MAX_FRAME_LEN) {
                Ok(ReadStep::Frame { payload, .. }) => {
                    self.in_flight -= 1;
                    return Ok(Response::decode(payload)?);
                }
                Ok(ReadStep::Closed) => break ClientError::ConnectionClosed,
                Ok(ReadStep::Idle | ReadStep::Stalled) if Instant::now() >= deadline => {
                    break ClientError::TimedOut;
                }
                Ok(ReadStep::Idle | ReadStep::Stalled) => {}
                Err(e) => break e.into(),
            }
        };
        self.disconnect();
        Err(failure)
    }

    /// Drains every outstanding response, oldest first.
    ///
    /// # Errors
    /// As [`drain_one`](Self::drain_one); responses already read are lost
    /// on error.
    pub fn drain(&mut self) -> Result<Vec<Response>, ClientError> {
        let mut out = Vec::with_capacity(self.in_flight);
        while self.in_flight > 0 {
            out.push(self.drain_one()?);
        }
        Ok(out)
    }

    /// Refuses a blocking call while submitted requests are outstanding: the
    /// next response on the wire is theirs, not the call's.
    fn ensure_drained(&self) -> Result<(), ClientError> {
        if self.in_flight > 0 {
            return Err(ClientError::Unexpected("requests in flight: drain first"));
        }
        Ok(())
    }

    /// One wire round trip (callers have checked nothing is in flight).
    fn call_once(&mut self, payload: &[u8]) -> Result<Response, ClientError> {
        self.send(payload)?;
        self.drain_one()
    }

    /// Drops the connection, counts the retry and sleeps its backoff.
    fn prepare_retry(&mut self, attempt: u32) {
        self.disconnect();
        self.retries += 1;
        std::thread::sleep(self.config.retry.backoff(attempt, self.backoffs));
        self.backoffs += 1;
    }

    /// A server code worth retrying: overload shedding, lost framing, and
    /// the oracle's transient/timeout classes. DEADLINE is *not* here — the
    /// budget is spent; retrying on the same budget would spin.
    fn retryable_code(c: u16) -> bool {
        c == code::BUSY
            || c == code::FRAME
            || c == code::ORACLE_BASE + 1
            || c == code::ORACLE_BASE + 2
    }

    fn retryable_transport(e: &ClientError) -> bool {
        matches!(
            e,
            ClientError::Io(_)
                | ClientError::Frame(_)
                | ClientError::ConnectionClosed
                | ClientError::TimedOut
        )
    }

    /// Sends `req` under the retry discipline. `idempotent` requests get a
    /// tracked request id (reused verbatim across attempts, so the
    /// server's dedup window replays instead of re-committing); the header
    /// also carries [`ClientConfig::deadline_ms`].
    fn call(&mut self, req: &Request<P>, idempotent: bool) -> Result<Response, ClientError> {
        self.ensure_drained()?;
        if self.breaker.gate(&self.config.retry).is_err() {
            return Err(ClientError::CircuitOpen);
        }
        let hdr = RequestHeader {
            request_id: if idempotent { self.next_rid() } else { 0 },
            deadline_ms: (self.config.deadline_ms > 0).then_some(self.config.deadline_ms),
        };
        let payload = req.encode_with(hdr);
        let attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            match self.call_once(&payload) {
                Ok(Response::Error { code, message }) => {
                    if Self::retryable_code(code) && attempt < attempts {
                        // BUSY and FRAME closed the connection server-side;
                        // redial either way so the retry starts clean.
                        self.prepare_retry(attempt);
                        attempt += 1;
                        continue;
                    }
                    // A structured error still proves the server is alive.
                    self.breaker.record(&self.config.retry, true);
                    return Ok(Response::Error { code, message });
                }
                Ok(resp) => {
                    self.breaker.record(&self.config.retry, true);
                    return Ok(resp);
                }
                Err(e) if Self::retryable_transport(&e) && attempt < attempts => {
                    self.prepare_retry(attempt);
                    attempt += 1;
                }
                Err(e) => {
                    self.disconnect();
                    self.breaker.record(&self.config.retry, false);
                    return Err(e);
                }
            }
        }
    }

    fn expect_selection(resp: Response) -> Result<SelectionReply, ClientError> {
        match resp {
            Response::Selection { seq, tuples, stats } => Ok(SelectionReply { seq, tuples, stats }),
            other => Err(err_of(other, "selection")),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping, false)? {
            Response::Ok => Ok(()),
            other => Err(err_of(other, "pong")),
        }
    }

    /// A selection: `preds` read as a conjunction, one dimension per
    /// attribute — a comparison, a BETWEEN, a box or a parsed SQL `WHERE`
    /// clause alike. `seed` drives the server-side sampling RNG, making
    /// the run reproducible.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure; a list of
    /// no trapdoor or more than 128 is answered
    /// [`MALFORMED`](crate::proto::code::MALFORMED).
    pub fn select_where(
        &mut self,
        seed: u64,
        preds: Vec<P>,
    ) -> Result<SelectionReply, ClientError> {
        let resp = self.call(&Request::Select { seed, preds }, true)?;
        Self::expect_selection(resp)
    }

    /// [`select_where`](Self::select_where) over one trapdoor.
    ///
    /// # Errors
    /// As [`select_where`](Self::select_where).
    #[doc(hidden)]
    pub fn select(&mut self, seed: u64, pred: P) -> Result<SelectionReply, ClientError> {
        self.select_where(seed, vec![pred])
    }

    /// [`select_where`](Self::select_where) over one trapdoor.
    ///
    /// # Errors
    /// As [`select_where`](Self::select_where).
    #[doc(hidden)]
    pub fn between(&mut self, seed: u64, pred: P) -> Result<SelectionReply, ClientError> {
        self.select_where(seed, vec![pred])
    }

    /// [`select_where`](Self::select_where) over a box's trapdoor pairs.
    ///
    /// # Errors
    /// As [`select_where`](Self::select_where).
    #[doc(hidden)]
    pub fn select_range_md(
        &mut self,
        seed: u64,
        dims: Vec<[P; 2]>,
    ) -> Result<SelectionReply, ClientError> {
        self.select_where(seed, dims.into_flattened())
    }

    /// Routes an already-uploaded tuple into every indexed attribute.
    /// Retries are exactly-once: the request id makes a replayed commit a
    /// dedup-window hit, not a second commit.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn insert(
        &mut self,
        tuple: TupleId,
    ) -> Result<(u64, Vec<(AttrId, InsertOutcome)>), ClientError> {
        match self.call(&Request::Insert { tuple }, true)? {
            Response::Inserted { seq, outcomes } => Ok((seq, outcomes)),
            other => Err(err_of(other, "insert outcomes")),
        }
    }

    /// Removes a tuple from every indexed attribute (exactly-once under
    /// retry, like [`insert`](Self::insert)).
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn delete(&mut self, tuple: TupleId) -> Result<u64, ClientError> {
        match self.call(&Request::Delete { tuple }, true)? {
            Response::Deleted { seq } => Ok(seq),
            other => Err(err_of(other, "delete ack")),
        }
    }

    /// Fetches the server's `prkb-metrics/v8` JSON snapshot.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::MetricsSnapshot, false)? {
            Response::Metrics { json } => Ok(json),
            other => Err(err_of(other, "metrics")),
        }
    }

    /// Asks the server to drain and stop, consuming this connection.
    /// Never retried: a lost ack is indistinguishable from a server that
    /// drained and closed, and re-sending to a draining server only
    /// produces noise.
    ///
    /// # Errors
    /// [`ClientError`] on transport, protocol, or server failure.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.ensure_drained()?;
        let payload = Request::<P>::Shutdown.encode();
        match self.call_once(&payload)? {
            Response::Ok => Ok(()),
            other => Err(err_of(other, "shutdown ack")),
        }
    }
}

/// A process-unique, time-salted seed for the request-id stream. Not
/// cryptographic — it only has to keep independent clients' id streams
/// from colliding inside one server's bounded dedup window.
fn entropy_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = u64::from(std::process::id());
    mix(nanos ^ n.rotate_left(32) ^ pid.rotate_left(17)) | 1
}

fn err_of(resp: Response, wanted: &'static str) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        _ => ClientError::Unexpected(wanted),
    }
}
