//! # prkb-server — networked service-provider front end
//!
//! Exposes a [`prkb_core::PrkbEngine`] as a TCP service speaking
//! `prkb-wire/v3`: length-prefixed, CRC32-guarded binary frames
//! ([`wire`]) carrying versioned request/response payloads ([`proto`]). A
//! selection reply carries its ids as an id set: a `u32` list, or — when
//! `8 + ⌈(last − first + 1)/8⌉ < 4·count`, so it is strictly shorter — a
//! bitmap over `[first, last]`. The form depends on the id set alone.
//! The deployment picture matches the paper's: clients hold trapdoors
//! (issued by the data owner), the service provider holds the PRKB index
//! and the oracle boundary, and only tuple ids and trapdoors ever cross
//! the wire — never plaintext or keys.
//!
//! Layers, bottom up:
//!
//! * [`wire`] — framing, reusing the WAL's discipline (`len | crc | payload`);
//! * [`proto`] — requests, responses (a selection's id set), stable error
//!   codes;
//! * [`scheduler`] — re-export of [`prkb_core::scheduler`], the
//!   checkout/commit discipline the server dispatches into: the engine
//!   lock is held only to move knowledge, never while QPF is spent;
//! * `admission` (private) — the bounded admission gate (BUSY shedding)
//!   and the idempotent-replay dedup window;
//! * `epoll` (private) — the thin epoll/eventfd syscall wrapper, the
//!   crate's only unsafe module;
//! * `reactor` (private) — the readiness-driven event loop, run by every
//!   server thread over one epoll instance: non-blocking accept,
//!   per-connection state machines, request pipelining, write buffering
//!   with EPOLLOUT re-arm;
//! * `conn` (private) — request decode/dispatch, run on the thread that
//!   read the request;
//! * `server` (private; [`PrkbServer`] and its config, handle and report
//!   are re-exported here) — server wiring: `threads` server threads +
//!   graceful drain;
//! * `client` (private; [`PrkbClient`]) — the blocking client: timeouts,
//!   deterministic retries with exactly-once request ids, circuit breaker,
//!   and pipelined submit/drain on the same connection. It is the one
//!   retry layer: an oracle fault aborts its query, and the client
//!   re-issues the request.
//!
//! ```no_run
//! use prkb_core::{EngineConfig, PrkbEngine};
//! use prkb_edbms::testing::PlainOracle;
//! use prkb_edbms::{ComparisonOp, Predicate};
//! use prkb_server::{PrkbClient, PrkbServer, ServerConfig};
//!
//! let oracle = PlainOracle::single_column((0..1000).collect());
//! let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
//! engine.init_attr(0, 1000);
//! let server = PrkbServer::bind("127.0.0.1:0", engine, oracle, ServerConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.spawn()?;
//!
//! let mut client: PrkbClient<Predicate> = PrkbClient::connect(addr)?;
//! let reply = client.select_where(42, vec![Predicate::cmp(0, ComparisonOp::Lt, 500)])?;
//! assert_eq!(reply.tuples.len(), 500);
//! client.shutdown()?;
//! handle.join()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Unsafe is confined to the `epoll` syscall shim; every other module is
// checked by this deny (the shim opts in with an inner allow).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod admission;
pub(crate) mod client;
mod conn;
mod epoll;
pub mod proto;
mod reactor;
pub(crate) mod server;
pub mod wire;

/// The session scheduler lives in `prkb-core`, beside the pool it drives;
/// these are the names a deployment needs from it.
pub mod scheduler {
    pub use prkb_core::scheduler::{DeadlineOracle, SessionOracle, SessionScheduler};
}

pub use client::{ClientConfig, ClientError, PrkbClient, SelectionReply};
pub use proto::{ProtoError, Request, RequestHeader, Response};
pub use scheduler::{DeadlineOracle, SessionOracle, SessionScheduler};
pub use server::{PrkbServer, ServerConfig, ServerHandle, ServerReport};
pub use wire::{FrameError, FrameReader, DEFAULT_MAX_FRAME_LEN};
