//! # prkb-sim — the fault injectors that drive the product's seams
//!
//! The product crates answer every fault class at a seam: the oracle
//! boundary ([`prkb_edbms::SelectionOracle`]), the filesystem
//! ([`prkb_edbms::StorageFs`]) and the TCP stream. A process crash is a
//! filesystem fault too — every crash boundary is a storage op — so it
//! needs no seam of its own. This crate holds the code that *drives* the
//! seams in tests, and nothing in a product build depends on it: only
//! `[dev-dependencies]` name it.
//!
//! * [`FaultInjector`] — seeded transient / timeout / corruption faults
//!   around any oracle, with QPF accounting faithful to each class, and
//!   [`reissue`], the whole-query re-issue that follows such a fault;
//! * [`FaultFs`] — seeded or scripted EIO / ENOSPC / short writes over any
//!   [`prkb_edbms::StorageFs`], a crash at op `n` of a run
//!   ([`FaultFs::crash_at`]), and the op log a sweep indexes
//!   ([`FaultFs::log`]);
//! * [`ChaosProxy`] — an in-process TCP proxy that drops, corrupts,
//!   truncates, stalls or trickles whole `prkb-wire/v3` frames under a
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
