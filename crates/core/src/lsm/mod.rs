//! LSM-style segment storage: the PRKB checkpoint format (DESIGN.md §17).
//!
//! The paper's knowledge base only grows — every answered query refines the
//! index forever — so a checkpoint that rewrites the whole KB is the
//! scaling wall. A checkpoint is instead a set of **immutable SST-like
//! segment files**:
//!
//! * [`segment`] — the on-disk segment format: attr-sorted partition
//!   blocks (each a [`snapshot`](crate::snapshot) image) with per-block
//!   CRC32, an index block for binary search, and a per-segment
//!   [`bloom`] filter for partition-membership probes, all behind a
//!   CRC'd fixed-size footer;
//! * [`manifest`] — the CRC'd `segments.manifest` recording the live
//!   segment set, the epoch, and the next segment id, swapped atomically
//!   (temp + fsync + rename + directory fsync);
//! * [`reader`] — [`SegmentStore`](reader::SegmentStore): opens the live
//!   set's indexes and blooms and reads the newest CRC-verified block of
//!   any one partition — what recovery and compaction load through;
//! * [`compaction`] — folds the newest version of every partition into one
//!   fresh segment and retires the superseded files, off the query path.
//!
//! Checkpointing is *flush only the partitions dirtied since the last
//! flush* (O(delta), see [`PrkbEngine::dirty_attrs`]); recovery is
//! manifest-load + newest block of every partition + short WAL replay. Every byte flows
//! through the [`StorageFs`](prkb_edbms::StorageFs) seam, and every
//! write/rename/fsync boundary fires a dedicated
//! [`CrashPoint`](prkb_edbms::durability::CrashPoint) segment hook.
//!
//! [`PrkbEngine::dirty_attrs`]: crate::engine::PrkbEngine::dirty_attrs

pub mod bloom;
pub mod compaction;
pub mod manifest;
pub mod reader;
pub mod segment;

pub use bloom::Bloom;
pub use compaction::{compact_dir, CompactionStats};
pub use manifest::{SegmentManifest, SEGMENT_MANIFEST_FILE};
pub use reader::SegmentStore;
pub use segment::{
    parse_segment_name, segment_file_name, BlockEntry, SegmentMeta, SEGMENT_VERSION,
};
