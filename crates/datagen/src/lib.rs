//! # prkb-datagen
//!
//! Data and workload generation for the PRKB reproduction:
//!
//! * [`dist`] — value distributions (uniform, normal, lognormal, zipf,
//!   clustered) sampled into integer domains, implemented from first
//!   principles on top of `rand`'s uniform source.
//! * [`synthetic`] — the paper's synthetic datasets (§8.2.2): integer domain
//!   `[1, 30M]`, uniform by default, plus the footnote-10 variants
//!   (normal / correlated / anti-correlated).
//! * [`realsim`] — simulated stand-ins for the paper's real datasets
//!   (Hospital charges, Labor salaries, US-buildings lat/long). See
//!   DESIGN.md §2 for the substitution argument.
//! * [`workload`] — selectivity-controlled range queries and random
//!   comparison cuts (the query streams of §8.2.3–§8.2.6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod realsim;
pub mod synthetic;
pub mod workload;

pub use dist::Distribution;
pub use synthetic::{SYNTH_DOMAIN_MAX, SYNTH_DOMAIN_MIN};
pub use workload::WorkloadGen;
