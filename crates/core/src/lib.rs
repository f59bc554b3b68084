//! # prkb-core — Past Result Knowledge Base
//!
//! Server-side selection optimization for encrypted databases, reproducing
//! *"Optimizing Selection Processing for Encrypted Database using Past
//! Result Knowledge Base"* (Wong, Wong & Yue, EDBT 2018).
//!
//! The service provider (SP) of an encrypted DBMS observes, query after
//! query, *which* encrypted tuples satisfied each selection — never the
//! plaintext. Those observations induce **partial order partitions**
//! ([`pop::Pop`]): an ordered sequence of tuple groups whose relative plain
//! order is known, direction excepted. With that knowledge a new comparison
//! trapdoor needs expensive QPF evaluation only on the two *not-sure*
//! partitions straddling its cut, found with O(lg k) probes:
//!
//! * [`qfilter`] — Algorithm 1: binary search for the NS-pair, the one
//!   search over partition samples (BETWEEN's two transitions use it too);
//! * `md` (crate-private) — the one select executor: PRKB(MD)'s pipeline
//!   (§6.2), which with one dimension of one comparison trapdoor is §5's —
//!   QFilter, the NS-pair scan with Algorithm 2's early stop, and
//!   `updatePRKB` (§5.3) — and with one BETWEEN trapdoor Appendix A's; a
//!   SQL conjunction is one walk of it;
//! * `between`, `insert` (crate-private) — the BETWEEN locator (Appendix
//!   A's hunt) and database updates (§7: decide every attribute's
//!   [`InsertOutcome`], then apply); these and `md` are all reached through
//!   [`PrkbEngine`], the per-table façade, whose one select,
//!   [`PrkbEngine::select_where`], takes any list of trapdoors as a
//!   conjunction;
//! * [`durability`] / [`scheduler`] — the crash-recoverable engine pool and
//!   the one checkout/commit driver over it, one lock per attribute (in
//!   memory or durable);
//! * [`extremes`] / [`skyline`] — the §9 future-work extensions: Min/Max/
//!   Top-m and 2-D skyline candidate pruning from the same POP knowledge.
//!
//! Everything here runs **solely at the service provider**: no function in
//! this crate takes plaintext or key material, only the
//! [`prkb_edbms::SelectionOracle`] the underlying EDBMS already exposes.
//!
//! ```
//! use prkb_core::{EngineConfig, PrkbEngine};
//! use prkb_edbms::testing::PlainOracle;
//! use prkb_edbms::{ComparisonOp, Predicate};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A toy "encrypted" table with one attribute and a plaintext oracle.
//! let oracle = PlainOracle::single_column((0..1000).collect());
//! let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
//! engine.init_attr(0, 1000);
//! let mut rng = StdRng::seed_from_u64(1);
//!
//! // Early queries pay for scans; once PRKB has partitions, the NS-pair
//! // shrinks and queries get orders of magnitude cheaper.
//! let q1 = engine.select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, 500), &mut rng);
//! assert_eq!(q1.tuples.len(), 500);
//! assert_eq!(q1.stats.qpf_uses, 1000); // cold start: full scan
//! for bound in (50..1000).step_by(50) {
//!     engine.select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, bound), &mut rng);
//! }
//! let q2 = engine.select(&oracle, &Predicate::cmp(0, ComparisonOp::Lt, 510), &mut rng);
//! assert_eq!(q2.tuples.len(), 510);
//! assert!(q2.stats.qpf_uses < 150, "spent {}", q2.stats.qpf_uses);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod between;
pub mod durability;
pub(crate) mod engine;
pub mod extremes;
pub(crate) mod insert;
pub(crate) mod knowledge;
pub mod lsm;
pub(crate) mod md;
pub mod metrics;
pub(crate) mod pop;
pub mod qfilter;
pub mod scheduler;
pub mod scrub;
pub(crate) mod selection;
pub mod skyline;
pub mod snapshot;
pub(crate) mod traits;

pub use durability::{DurableError, RecoveryReport, ShardedDurablePool};
pub use engine::{EngineConfig, PrkbEngine, QueryError};
pub use extremes::{extreme_candidates, top_m_candidates};
pub use insert::InsertOutcome;
pub use knowledge::{Knowledge, RefinementOp, Separator};
pub use lsm::SegmentManifest;
pub use md::MdUpdatePolicy;
pub use metrics::{Metric, MetricsRegistry, MetricsSnapshot};
pub use pop::{Pop, SplitBits};
#[doc(hidden)]
pub use scheduler::ShardMap;
pub use scheduler::{SessionOracle, SessionScheduler};
pub use scrub::{ScrubDamage, ScrubFinding, ScrubReport};
pub use selection::{QueryStats, Selection};
pub use skyline::skyline_candidates;
pub use snapshot::{SnapshotError, WireCodec};
pub use traits::SpPredicate;
