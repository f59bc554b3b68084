//! Segment storage: the PRKB checkpoint format (DESIGN.md §9).
//!
//! The paper's knowledge base only grows — every answered query refines the
//! index forever — so a checkpoint that rewrites the whole KB is the
//! scaling wall. A checkpoint is instead a set of **immutable segment
//! files**, and a rotation *supersedes* rather than accumulates:
//!
//! * `segment` — the on-disk segment format: attr-sorted partition
//!   blocks (each a [`snapshot`](crate::snapshot) image) with per-block
//!   CRC32 and an index block for binary search, behind a CRC'd
//!   fixed-size footer;
//! * [`manifest`] — the CRC'd `segments.manifest` recording the live
//!   segment set, the epoch, and the next segment id, swapped atomically
//!   (temp + fsync + rename + directory fsync);
//! * `reader` — `SegmentStore`: opens the live
//!   set's indexes, reads the newest CRC-verified block of any one
//!   partition, and applies the supersede rule that decides which
//!   segments a rotation keeps.
//!
//! Checkpointing is *flush only the partitions dirtied since the last
//! flush* (O(delta): the committer keeps a dirty-attribute set) and list, in the
//! swapped manifest, only the segments that are still the newest holder of
//! some partition; the rest are unlinked once the rotation is durable. The
//! live set therefore never exceeds the directory's attribute count and no
//! segment is ever rewritten. Recovery is manifest-load + newest block of
//! every partition + short WAL replay + a sweep of files the manifest does
//! not list. Every byte flows through the
//! [`StorageFs`](prkb_edbms::StorageFs) seam, so the crash sweeps cut a
//! rotation at every write, rename and fsync it makes.

pub mod manifest;
pub(crate) mod reader;
pub(crate) mod segment;

pub use manifest::{SegmentManifest, SEGMENT_MANIFEST_FILE};
pub use segment::{
    parse_segment_name, segment_file_name, BlockEntry, SegmentMeta, SEGMENT_VERSION,
};
