//! The reactor: `threads` server threads sharing one epoll instance, each
//! serving a connection on the thread that saw it become ready
//! (Leader/Followers).
//!
//! All socket I/O is readiness-driven — no per-connection thread, no poll
//! tick:
//!
//! * the listener, an eventfd waker and every connection are registered
//!   with one [`Poller`]; each thread runs one loop: wait for **one**
//!   event, serve it, and go back to waiting;
//! * the listener and the connections are one-shot: a readiness report
//!   reaches exactly one thread and disarms its socket until that thread
//!   re-arms it, so a connection is never served by two threads at once;
//! * the thread that gets a connection's report takes the connection out
//!   of the slab, reads its bytes into a [`FrameReader`], and runs
//!   [`conn::process`] on each decoded frame in order, straight from the
//!   reader's buffer — pipelined frames are therefore answered FIFO and
//!   byte-identical to a sequential replay. Each reply is the finished wire
//!   frame `process` built; it is written as soon as it exists, and what
//!   the socket does not take waits for `EPOLLOUT`;
//! * the thread then puts the connection back and re-arms it — for reads
//!   while it is open, for writes while replies are unflushed.
//!
//! ## Connection state machine
//!
//! ```text
//!            readable                 frame decoded
//!   [open] ───────────▶ FrameReader ───────────────▶ process ─▶ reply
//!     ▲                     │                                     │
//!     │ re-armed            │ frame error / EOF / shutdown        ▼
//!     │                     ▼                                 write it
//!   [parked] ◀──────── [closing] ──── flushed ────▶ [closed]      │
//!     ▲                     ▲                                     │
//!     └──── WouldBlock: arm EPOLLOUT, flush on writable ◀─────────┘
//! ```
//!
//! Two deadlines are reset by different events: the **idle deadline**
//! starts at accept and resets on every
//! *completed* frame (and every response), and only applies between
//! frames; the **stall deadline** applies while a partial frame is
//! buffered and resets on every received *byte*. A slow-but-progressing
//! sender therefore answers to the (short-ish) stall budget, never to the
//! 30 s idle axe, and a silent connection cannot camp mid-frame forever.
//! Both, and the write budget, are checked by a sweep over the parked
//! connections, run by whichever thread's wait passes the next sweep time.
//!
//! Admission is connection-slot based: at most `threads + queue`
//! connections are admitted; beyond that, accepts are shed with a
//! best-effort BUSY frame. A connection is accepted (or shed) by a thread
//! that is not serving a request: when every thread is busy, it waits for
//! the next free one.
//!
//! The slab and the admission gate sit behind one lock, held only to take,
//! park, register or close a connection — never while a request runs or a
//! socket is read or written.

use crate::admission::{shed_busy, AdmissionGate, Admit, WRITE_TIMEOUT};
use crate::conn::{self, Shared};
use crate::epoll::{Event, Poller};
use crate::proto::{code, Response};
use crate::wire::{FrameReader, ReadStep, DEFAULT_MAX_FRAME_LEN};
use prkb_core::metrics::{self, HistogramId, Metric};
use prkb_core::snapshot::WireCodec;
use prkb_core::SpPredicate;
use prkb_edbms::SelectionOracle;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Token of the listening socket.
const TOK_LISTENER: u64 = u64::MAX;
/// Token of the eventfd waker.
const TOK_WAKER: u64 = u64::MAX - 1;

/// How long a thread waits for an event. A wait that ends with none
/// flushes the pool's un-synced tails: a select's refinements reply
/// before their fsync, so when traffic stops this bounds how long they
/// stay exposed to a crash.
const IDLE_FLUSH_TICK: Duration = Duration::from_millis(50);

/// Per-connection state. While a thread serves the connection it owns this
/// value; otherwise it is parked in the slab.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Unflushed response frames (already counted in the wire totals),
    /// oldest first; `out_pos` bytes of the front one are written.
    out: VecDeque<Arc<Vec<u8>>>,
    out_pos: usize,
    /// Reading is over (EOF, frame error, a closing reply or the drain):
    /// close as soon as `out` drains.
    closing: bool,
    /// Idle clock: reset at accept, on every completed frame, and on
    /// every response. Only consulted when no partial frame is buffered.
    last_frame: Instant,
    /// Stall clock: reset on every received byte. Only consulted while a
    /// partial frame is buffered.
    last_byte: Instant,
    /// When `out` first became non-empty-and-unflushable.
    write_since: Option<Instant>,
}

impl Conn {
    /// Queues one response frame for writing and counts its wire bytes.
    fn push_reply<P: SpPredicate + WireCodec, O>(
        &mut self,
        shared: &Shared<P, O>,
        frame: Arc<Vec<u8>>,
    ) {
        let wire_len = frame.len() as u64;
        shared.bytes.fetch_add(wire_len, Ordering::Relaxed);
        metrics::global().add(Metric::ServerBytes, wire_len);
        self.out.push_back(frame);
    }

    /// Writes as much of the queued frames as the socket accepts.
    ///
    /// # Errors
    /// The peer is gone: the connection is beyond use.
    fn flush(&mut self) -> io::Result<()> {
        while let Some(frame) = self.out.front() {
            match self.stream.write(&frame[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    if self.out_pos == frame.len() {
                        self.out.pop_front();
                        self.out_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out.is_empty() {
            self.write_since = None;
        } else {
            self.write_since.get_or_insert_with(Instant::now);
        }
        Ok(())
    }
}

/// One slab slot. `conn` is `None` while the slot is free or while a
/// thread has taken the connection out to serve it.
struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

/// What the server threads share behind one lock.
struct State {
    gate: AdmissionGate,
    slab: Vec<Slot>,
    free: Vec<usize>,
    /// Registered connections, taken ones included.
    live: usize,
    next_gen: u32,
    draining: bool,
    next_sweep: Instant,
}

/// Packs a slab index and its generation into an epoll token, so that a
/// report for a closed and recycled slot is recognised and dropped.
fn token(idx: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

struct Reactor<'a, P: SpPredicate + WireCodec, O> {
    poller: Poller,
    listener: TcpListener,
    shared: &'a Shared<P, O>,
    sweep_every: Duration,
    state: Mutex<State>,
}

/// Serves `listener` on `threads` threads — the calling one and
/// `threads - 1` more — until a graceful drain completes.
pub(crate) fn run<P, O>(
    listener: TcpListener,
    shared: &Shared<P, O>,
    threads: usize,
    conn_cap: usize,
) -> io::Result<()>
where
    P: SpPredicate + WireCodec + Send,
    O: SelectionOracle<Pred = P> + Send + Sync,
{
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), TOK_LISTENER, true, false)?;
    poller.add_waker(&shared.wake, TOK_WAKER)?;

    // Deadline sweeps are O(live connections); run them at a quarter of
    // the tightest deadline so expiry detection stays within 25% of the
    // configured budget (plus at most one idle tick, the longest a wait
    // lasts) without per-event scans.
    let sweep_every = (shared
        .idle_deadline
        .min(shared.stall_deadline)
        .min(WRITE_TIMEOUT)
        / 4)
    .clamp(Duration::from_millis(10), Duration::from_secs(1));
    let r = Reactor {
        poller,
        listener,
        shared,
        sweep_every,
        state: Mutex::new(State {
            gate: AdmissionGate::new(conn_cap),
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_gen: 0,
            draining: false,
            next_sweep: Instant::now() + sweep_every,
        }),
    };
    thread::scope(|s| {
        let others: Vec<_> = (1..threads)
            .map(|i| {
                thread::Builder::new()
                    .name(format!("prkb-server-{i}"))
                    .spawn_scoped(s, || r.serve())
            })
            .collect::<io::Result<_>>()?;
        let mut result = r.serve();
        for t in others {
            let joined = t.join().expect("server thread panicked");
            result = result.and(joined);
        }
        result
    })
}

impl<P, O> Reactor<'_, P, O>
where
    P: SpPredicate + WireCodec,
    O: SelectionOracle<Pred = P>,
{
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no server thread panics while it holds the slab")
    }

    /// One thread's loop: wait for one event, serve it, keep house.
    fn serve(&self) -> io::Result<()> {
        loop {
            let mut woken = false;
            match self.poller.wait(IDLE_FLUSH_TICK) {
                Err(e) => {
                    // Let the other threads drain and exit.
                    self.shared.trigger_shutdown();
                    return Err(e);
                }
                // Nothing to do for a tick: sync what the selects deferred
                // (a lock and an empty-check when nothing is pending). A
                // failure poisons the pool, whose next checkout reports it.
                Ok(None) => {
                    let _ = self.shared.sched.flush_durable();
                }
                Ok(Some(ev)) => {
                    metrics::global().add(Metric::EpollWakeups, 1);
                    match ev.token {
                        TOK_LISTENER => self.accept_ready(),
                        TOK_WAKER => woken = true,
                        tok => self.conn_ready(tok, ev),
                    }
                }
            }
            if !self.housekeep(woken) {
                return Ok(());
            }
        }
    }

    /// Starts the drain once shutdown is flagged and sweeps when due.
    /// Returns false once the drain is complete and this thread should
    /// exit.
    fn housekeep(&self, woken: bool) -> bool {
        let mut st = self.lock();
        if self.shared.shutdown.load(Ordering::SeqCst) && !st.draining {
            self.begin_drain(&mut st);
        }
        let now = Instant::now();
        if now >= st.next_sweep {
            self.sweep(&mut st, now);
            st.next_sweep = now + self.sweep_every;
        }
        if st.draining && st.live == 0 {
            // Left readable, the level-triggered waker reaches every
            // thread's next wait, and each exits here in turn.
            self.shared.wake.wake();
            return false;
        }
        if woken {
            // Drained while connections are live, or every waiting thread
            // would spin on it.
            self.shared.wake.drain();
        }
        true
    }

    fn accept_ready(&self) {
        loop {
            match self.listener.accept() {
                Ok((s, _)) => self.admit(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient (EMFILE, ECONNABORTED): back off one tick
                    // instead of spinning on a pending accept.
                    thread::sleep(Duration::from_millis(1));
                    break;
                }
            }
        }
        // Fails only once the drain has deregistered the listener.
        let _ = self
            .poller
            .rearm(self.listener.as_raw_fd(), TOK_LISTENER, true, false);
    }

    fn admit(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let mut st = self.lock();
        if st.draining || self.shared.shutdown.load(Ordering::SeqCst) {
            return; // drop: drain takes no new connections
        }
        if st.gate.offer() == Admit::Shed {
            drop(st);
            self.shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
            metrics::global().add(Metric::BusyRejections, 1);
            shed_busy(stream);
            return;
        }
        let idx = st.free.pop().unwrap_or_else(|| {
            st.slab.push(Slot { gen: 0, conn: None });
            st.slab.len() - 1
        });
        st.next_gen = st.next_gen.wrapping_add(1);
        let gen = st.next_gen;
        if self
            .poller
            .add(stream.as_raw_fd(), token(idx, gen), true, false)
            .is_err()
        {
            st.free.push(idx);
            st.gate.release();
            return;
        }
        let now = Instant::now();
        st.slab[idx] = Slot {
            gen,
            conn: Some(Conn {
                stream,
                reader: FrameReader::new(),
                out: VecDeque::new(),
                out_pos: 0,
                closing: false,
                last_frame: now,
                last_byte: now,
                write_since: None,
            }),
        };
        st.live += 1;
    }

    /// Deregisters and drops a connection and frees its slot and its
    /// admission slot.
    fn close(&self, st: &mut State, idx: usize, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        drop(conn);
        st.free.push(idx);
        st.live -= 1;
        st.gate.release();
    }

    /// Serves one readiness report: take the connection, read and answer
    /// its frames, flush, and park it again.
    fn conn_ready(&self, tok: u64, ev: Event) {
        let idx = (tok & u64::from(u32::MAX)) as usize;
        let taken = {
            let mut st = self.lock();
            st.slab
                .get_mut(idx)
                .filter(|slot| u64::from(slot.gen) == tok >> 32)
                .and_then(|slot| slot.conn.take())
        };
        let Some(mut conn) = taken else {
            return; // closed (and perhaps recycled) since the report
        };
        let mut alive = true;
        if ev.readable && !conn.closing {
            alive = self.read_and_answer(&mut conn);
        } else if ev.hangup {
            alive = false;
        }
        alive = alive && conn.flush().is_ok();
        self.park(&mut self.lock(), idx, conn, alive);
    }

    /// Reads until the socket would block, answering each complete frame
    /// in order and writing its reply at once. Returns false when the
    /// connection is beyond use.
    fn read_and_answer(&self, conn: &mut Conn) -> bool {
        let mut depth = 0;
        loop {
            let buffered_before = conn.reader.buffered();
            let (frame, close) = match conn.reader.poll(&mut conn.stream, DEFAULT_MAX_FRAME_LEN) {
                Ok(ReadStep::Frame {
                    payload,
                    bytes_consumed,
                }) => {
                    self.shared
                        .bytes
                        .fetch_add(bytes_consumed as u64, Ordering::Relaxed);
                    metrics::global().add(Metric::ServerBytes, bytes_consumed as u64);
                    self.shared.requests.fetch_add(1, Ordering::Relaxed);
                    metrics::global().add(Metric::ServerRequests, 1);
                    metrics::global().observe(HistogramId::PipelinedDepth, depth);
                    depth += 1;
                    conn::process(self.shared, payload)
                }
                Ok(ReadStep::Idle) | Ok(ReadStep::Stalled) => {
                    if conn.reader.buffered() != buffered_before {
                        conn.last_byte = Instant::now();
                    }
                    return true;
                }
                Ok(ReadStep::Closed) => {
                    conn.closing = true;
                    return true;
                }
                Err(e) => {
                    // Every frame before the damage is answered already.
                    self.shared.frame_errors.fetch_add(1, Ordering::Relaxed);
                    metrics::global().add(Metric::FrameErrors, 1);
                    let frame = Response::Error {
                        code: code::FRAME,
                        message: e.to_string(),
                    }
                    .encode_framed();
                    conn.push_reply(self.shared, Arc::new(frame));
                    conn.closing = true;
                    return true;
                }
            };
            let now = Instant::now();
            conn.last_frame = now;
            conn.last_byte = now;
            conn.push_reply(self.shared, frame);
            if conn.flush().is_err() {
                return false;
            }
            // During the drain, frames not yet answered are dropped.
            if close || self.shared.shutdown.load(Ordering::SeqCst) {
                conn.closing = true;
                return true;
            }
        }
    }

    /// Puts a connection back in its slot and re-arms it — for reads while
    /// it is open, for writes while replies are unflushed — or closes it
    /// when it is dead, or closing with nothing left to write.
    fn park(&self, st: &mut State, idx: usize, mut conn: Conn, alive: bool) {
        conn.closing |= st.draining;
        let write = !conn.out.is_empty();
        let tok = token(idx, st.slab[idx].gen);
        if !alive
            || (conn.closing && !write)
            || self
                .poller
                .rearm(conn.stream.as_raw_fd(), tok, !conn.closing, write)
                .is_err()
        {
            self.close(st, idx, conn);
        } else {
            st.slab[idx].conn = Some(conn);
        }
    }

    /// Periodic O(live) pass over the parked connections: write-timeout,
    /// stall and idle reaps. A taken connection is being served, so no
    /// clock applies to it.
    fn sweep(&self, st: &mut State, now: Instant) {
        for idx in 0..st.slab.len() {
            let expired = st.slab[idx].conn.as_ref().is_some_and(|conn| {
                if conn
                    .write_since
                    .is_some_and(|since| now.duration_since(since) >= WRITE_TIMEOUT)
                {
                    // A peer that stopped reading costs one write budget,
                    // then the connection.
                    true
                } else if conn.reader.mid_frame() {
                    now.duration_since(conn.last_byte) >= self.shared.stall_deadline
                } else {
                    !conn.closing
                        && now.duration_since(conn.last_frame) >= self.shared.idle_deadline
                }
            });
            if expired {
                let conn = st.slab[idx].conn.take().expect("checked above");
                self.close(st, idx, conn);
            }
        }
    }

    /// Starts the graceful drain: stop accepting and close every parked
    /// connection once its replies flush. A taken connection finishes its
    /// request, answers it, and closes when it is parked.
    fn begin_drain(&self, st: &mut State) {
        st.draining = true;
        let _ = self.poller.delete(self.listener.as_raw_fd());
        for idx in 0..st.slab.len() {
            if let Some(conn) = st.slab[idx].conn.take() {
                self.park(st, idx, conn, true);
            }
        }
    }
}
