//! # prkb-sim — the fault injectors that drive the product's seams
//!
//! The product crates answer every fault class at a seam: the oracle
//! boundary ([`prkb_edbms::SelectionOracle`]), the filesystem
//! ([`prkb_edbms::StorageFs`]), the TCP stream, and crash points
//! ([`prkb_edbms::CrashInjector`], which stays in the product because the
//! durability code fires its hooks). This crate holds the code that
//! *drives* the first three in tests, and nothing in a product build
//! depends on it: only `[dev-dependencies]` name it.
//!
//! * [`FaultInjector`] — seeded transient / timeout / corruption faults
//!   around any oracle, with QPF accounting faithful to each class, and
//!   [`reissue`], the whole-query re-issue that follows such a fault;
//! * [`FaultFs`] — seeded or scripted EIO / ENOSPC / short writes over any
//!   [`prkb_edbms::StorageFs`];
//! * [`ChaosProxy`] — an in-process TCP proxy that drops, corrupts,
//!   truncates, stalls or trickles whole `prkb-wire/v2` frames under a
//!   [`FaultPlan`].
//!
//! Every schedule is a pure function of a seed and an event counter
//! ([`prkb_edbms::resilience::mix`]), so a failing case replays from its
//! seed, and sweeps are loops inside the suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod resilience;
mod storage;

pub use chaos::{ChaosConfig, ChaosProxy, FaultAction, FaultPlan};
pub use resilience::{reissue, FaultConfig, FaultInjector};
pub use storage::{FaultFs, IoFaultKind, IoFaultRule, IoOp};
