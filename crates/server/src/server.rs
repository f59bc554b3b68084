//! The TCP server: `threads` server threads over one epoll instance,
//! graceful shutdown.
//!
//! [`PrkbServer::run`] runs the reactor ([`crate::reactor`]) on
//! [`ServerConfig::threads`] threads, the calling one included: each
//! accepts, reads, runs [`crate::conn::process`] and writes on whichever
//! connection it saw become ready. Shutdown — requested over the wire or
//! via [`ServerHandle::shutdown`] — is graceful: the flag flips, the
//! eventfd wakes a waiting thread, accepting stops, every in-flight request
//! finishes (commits included) and its response flushes before the
//! connection closes, and [`PrkbServer::run`] returns only after every
//! thread has exited and the pool's un-synced tail is flushed. Committed
//! refinements are never lost to shutdown; pipelined frames not yet
//! answered are dropped. An idle server syncs too: a thread whose wait
//! for an event ends with none flushes the durable tails before it waits
//! again.

use crate::admission::{DedupWindow, DEDUP_WINDOW};
use crate::conn::Shared;
use crate::epoll::Waker;
use crate::reactor;
use crate::scheduler::SessionScheduler;
use prkb_core::snapshot::WireCodec;
use prkb_core::{PrkbEngine, ShardedDurablePool, SpPredicate};
use prkb_edbms::SelectionOracle;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Server threads used when the config does not say.
const DEFAULT_THREADS: usize = 4;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server threads, each of which accepts, reads, runs requests and
    /// writes replies. `None` is 4. Clamped to at least 1.
    pub threads: Option<usize>,
    /// Connections with no *completed* frame for this long are closed.
    /// Only consulted between frames; a connection that has buffered a
    /// partial frame answers to [`stall_deadline`](Self::stall_deadline)
    /// instead.
    pub idle_deadline: Duration,
    /// Connections that buffered a partial frame and then went silent for
    /// this long are closed. Reset on every received byte, so a
    /// slow-but-progressing sender is never reaped mid-frame.
    pub stall_deadline: Duration,
    /// Admission slots beyond `threads`: the server admits up to
    /// `threads + queue` concurrent connections before the gate sheds new
    /// arrivals with BUSY. Nothing queues behind a slot — an admitted
    /// connection is served by whichever thread sees it ready. `None` is
    /// `threads * 2`. Clamped to at least 1.
    pub queue: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: None,
            idle_deadline: Duration::from_secs(30),
            stall_deadline: Duration::from_secs(5),
            queue: None,
        }
    }
}

impl ServerConfig {
    fn resolve_threads(&self) -> usize {
        self.threads.unwrap_or(DEFAULT_THREADS).max(1)
    }

    fn resolve_queue(&self, threads: usize) -> usize {
        self.queue.unwrap_or(threads * 2).max(1)
    }
}

/// Totals reported once a server has fully drained, plus access to the
/// engine — handed back so a caller can validate the knowledge the served
/// queries built up.
pub struct ServerReport<P: SpPredicate + WireCodec, O> {
    shared: Arc<Shared<P, O>>,
}

impl<P: SpPredicate + WireCodec, O> ServerReport<P, O> {
    /// Frames served (malformed ones included — they got error responses).
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Stream-fatal framing failures.
    pub fn frame_errors(&self) -> u64 {
        self.shared.frame_errors.load(Ordering::Relaxed)
    }

    /// Wire bytes in + out.
    pub fn bytes(&self) -> u64 {
        self.shared.bytes.load(Ordering::Relaxed)
    }

    /// Connections shed with BUSY at the admission gate.
    pub fn busy_rejections(&self) -> u64 {
        self.shared.busy_rejections.load(Ordering::Relaxed)
    }

    /// Requests answered with the DEADLINE code.
    pub fn deadline_timeouts(&self) -> u64 {
        self.shared.deadline_timeouts.load(Ordering::Relaxed)
    }

    /// Requests answered from the idempotent-replay window.
    pub fn dedup_hits(&self) -> u64 {
        self.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Read access to the drained engine (validation, snapshotting).
    pub fn inspect<T>(&self, f: impl FnOnce(&prkb_core::PrkbEngine<P>) -> T) -> T {
        self.shared.sched.inspect(f)
    }
}

/// A bound-but-not-yet-running PRKB service.
pub struct PrkbServer<P: SpPredicate + WireCodec, O> {
    listener: TcpListener,
    shared: Arc<Shared<P, O>>,
    threads: usize,
    /// Admitted connections at most: `threads + queue`.
    conn_cap: usize,
}

impl<P, O> PrkbServer<P, O>
where
    P: SpPredicate + WireCodec + Send + 'static,
    O: SelectionOracle<Pred = P> + Send + Sync + 'static,
{
    /// Binds `addr` and fronts an in-memory engine with the concurrent
    /// session scheduler.
    ///
    /// # Errors
    /// Socket bind failure, or the OS refused the shutdown eventfd.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: PrkbEngine<P>,
        oracle: O,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::bind_scheduler(addr, SessionScheduler::new(engine), oracle, config)
    }

    /// Binds `addr` and fronts a recovered [`ShardedDurablePool`]: the
    /// session scheduler locks each footprint per attribute, every commit is
    /// one record group-committed to the pool's one WAL, an insert's or
    /// delete's reply waits for that record's fsync, and a select's
    /// refinements are durable by the pool's next fsync — a later fact, a
    /// full tail, an idle tick or the shutdown drain.
    ///
    /// # Errors
    /// Socket bind failure, or the OS refused the shutdown eventfd.
    pub fn bind_durable_pool(
        addr: impl ToSocketAddrs,
        pool: ShardedDurablePool<P>,
        oracle: O,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::bind_scheduler(addr, SessionScheduler::durable(pool), oracle, config)
    }

    /// Binds `addr` and fronts `sched` as it stands — in-memory or durable,
    /// one lock per attribute. [`bind`](Self::bind) and
    /// [`bind_durable_pool`](Self::bind_durable_pool) build the scheduler
    /// and call this.
    ///
    /// # Errors
    /// Socket bind failure, or the OS refused the shutdown eventfd.
    pub fn bind_scheduler(
        addr: impl ToSocketAddrs,
        sched: SessionScheduler<P>,
        oracle: O,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let threads = config.resolve_threads();
        let shared = Arc::new(Shared {
            sched,
            oracle: Arc::new(RwLock::new(oracle)),
            shutdown: AtomicBool::new(false),
            idle_deadline: config.idle_deadline,
            stall_deadline: config.stall_deadline,
            dedup: DedupWindow::new(DEDUP_WINDOW),
            requests: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            frame_errors: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            deadline_timeouts: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            wake: Waker::new()?,
        });
        Ok(PrkbServer {
            listener,
            shared,
            threads,
            conn_cap: threads + config.resolve_queue(threads),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    /// Propagated from the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves on the current thread and `threads - 1` more until
    /// shutdown, then reports.
    ///
    /// # Errors
    /// Unrecoverable epoll/listener failure.
    ///
    /// # Panics
    /// Panics if a server thread panicked (a bug — request handling
    /// contains every per-request failure).
    pub fn run(self) -> io::Result<ServerReport<P, O>> {
        let PrkbServer {
            listener,
            shared,
            threads,
            conn_cap,
        } = self;
        reactor::run(listener, &shared, threads, conn_cap)?;

        // Drain barrier: acked inserts and deletes already waited for
        // durability; flush-and-fsync the tail of deferred refinements so
        // the on-disk state is complete before the report is handed back.
        if let Err(e) = shared.sched.flush_durable() {
            return Err(io::Error::other(format!("drain flush failed: {e}")));
        }

        Ok(ServerReport { shared })
    }

    /// Spawns [`run`](Self::run) on its own thread and returns a handle for
    /// out-of-band shutdown.
    ///
    /// # Errors
    /// The OS refused the thread.
    pub fn spawn(self) -> io::Result<ServerHandle<P, O>> {
        let shared = Arc::clone(&self.shared);
        let join = thread::Builder::new()
            .name("prkb-server-0".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle { shared, join })
    }
}

/// Handle on a running server (see [`PrkbServer::spawn`]).
pub struct ServerHandle<P: SpPredicate + WireCodec, O> {
    shared: Arc<Shared<P, O>>,
    join: JoinHandle<io::Result<ServerReport<P, O>>>,
}

impl<P: SpPredicate + WireCodec, O> ServerHandle<P, O> {
    /// Handle on the shared oracle, for uploading rows out of band (the
    /// owner→SP data path; the wire protocol only ever carries tuple ids).
    pub fn oracle(&self) -> Arc<RwLock<O>> {
        Arc::clone(&self.shared.oracle)
    }

    /// Triggers graceful shutdown without a wire request.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Waits for the server to drain and returns its report.
    ///
    /// # Errors
    /// Propagated from [`PrkbServer::run`].
    ///
    /// # Panics
    /// Panics if a server thread panicked.
    pub fn join(self) -> io::Result<ServerReport<P, O>> {
        let ServerHandle { join, shared, .. } = self;
        drop(shared);
        join.join().expect("server thread panicked")
    }
}
