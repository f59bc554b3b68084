//! # prkb — Past Result Knowledge Base for encrypted databases
//!
//! Umbrella crate re-exporting the whole workspace: a production-quality
//! Rust reproduction of *"Optimizing Selection Processing for Encrypted
//! Database using Past Result Knowledge Base"* (Wong, Wong & Yue, EDBT
//! 2018). See `README.md` for the tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! * [`core`] — the PRKB engine (the paper's contribution);
//! * [`edbms`] — the QPF-model encrypted DBMS substrate;
//! * [`crypto`] — from-scratch primitives (ChaCha20, SHA-256, HMAC, HKDF,
//!   SipHash) validated against published vectors;
//! * [`server`] — the networked service-provider front end (`prkb-wire/v3`
//!   framed TCP protocol, whose selection replies carry their ids as a list
//!   or, when shorter, a bitmap over `[first, last]`; concurrent session
//!   scheduler, loopback client);
//! * [`srci`] — the Logarithmic-SRC-i competitor on an SSE substrate;
//! * [`datagen`] — synthetic + simulated-real datasets and workloads;
//! * [`analysis`] — the §8.1 partial-order-recovery security study.
//!
//! [`SecureDb`] ties all of it together behind a SQL-string API — see the
//! crate examples for end-to-end usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod secure_db;

/// README.md's Rust blocks, compiled and run as doc-tests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use secure_db::{DbError, SecureDb};

pub use prkb_analysis as analysis;
pub use prkb_core as core;
pub use prkb_crypto as crypto;
pub use prkb_datagen as datagen;
pub use prkb_edbms as edbms;
pub use prkb_server as server;
pub use prkb_srci as srci;
