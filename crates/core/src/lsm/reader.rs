//! [`SegmentStore`]: the read path over a live segment set.
//!
//! A store is the opened form of one manifest: every live segment's index
//! and bloom filter in memory, zero partition payloads. Looking up a
//! partition scans segments **newest first** (a later flush supersedes an
//! earlier one), consults the bloom filter before touching the index, and
//! reads exactly one CRC-verified block from disk on a hit. Recovery and
//! compaction both go through [`load_attr`], so a superseded partition
//! version is never read.
//!
//! [`load_attr`]: SegmentStore::load_attr

use std::path::Path;
use std::sync::Arc;

use prkb_edbms::{AttrId, StorageFs};

use super::manifest::{read_segment_manifest, SegmentManifest};
use super::segment::{open_all, SegmentMeta};
use crate::durability::DurableError;
use crate::metrics::{global, Metric};

/// An opened live segment set: routing structures only, payloads on disk.
#[derive(Debug, Clone)]
pub struct SegmentStore {
    fs: Arc<dyn StorageFs>,
    manifest: SegmentManifest,
    /// Newest first — the probe order.
    segments: Vec<SegmentMeta>,
}

impl SegmentStore {
    /// Opens the manifest in `dir` and every segment it references.
    /// `None` if the directory has no manifest (fresh, or a v1 checkpoint
    /// not yet migrated).
    ///
    /// # Errors
    /// A manifest entry whose segment file is missing or damaged is
    /// [`DurableError::CorruptSegment`] — segments are published before
    /// the manifest references them, so this is never a crash artifact.
    pub fn open(fs: Arc<dyn StorageFs>, dir: &Path) -> Result<Option<SegmentStore>, DurableError> {
        let Some(manifest) = read_segment_manifest(fs.as_ref(), dir)? else {
            return Ok(None);
        };
        let mut segments = open_all(&fs, dir, &manifest.segments)?;
        segments.reverse();
        Ok(Some(SegmentStore {
            fs,
            manifest,
            segments,
        }))
    }

    /// The manifest this store was opened from.
    pub fn manifest(&self) -> &SegmentManifest {
        &self.manifest
    }

    /// Number of live segments.
    pub fn segments_live(&self) -> usize {
        self.segments.len()
    }

    /// The newest stored snapshot image for `attr`, or `None` if no live
    /// segment holds it. Bloom misses bump
    /// [`Metric::BloomNegativeProbes`] — the work the filter saved.
    pub fn load_attr(&self, attr: AttrId) -> Result<Option<Vec<u8>>, DurableError> {
        for seg in &self.segments {
            if !seg.bloom.maybe_contains(attr) {
                global().add(Metric::BloomNegativeProbes, 1);
                continue;
            }
            if let Some(entry) = seg.find(attr) {
                let entry = *entry;
                return seg.read_block(self.fs.as_ref(), &entry).map(Some);
            }
        }
        Ok(None)
    }

    /// Every attribute stored across the live set (deduplicated, sorted).
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut out: Vec<AttrId> = self
            .segments
            .iter()
            .flat_map(|s| s.index.iter().map(|e| e.attr))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total bytes across the live segment files (compaction accounting).
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.file_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::manifest::write_segment_manifest;
    use crate::lsm::segment::write_segment;
    use prkb_edbms::durability::CrashInjector;
    use prkb_edbms::real_fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-lsm-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn publish(fs: &dyn StorageFs, dir: &Path, manifest: &SegmentManifest) {
        write_segment_manifest(fs, dir, manifest, &CrashInjector::disabled()).unwrap();
    }

    #[test]
    fn newest_segment_wins() {
        let dir = tmpdir("newest");
        let fs = real_fs();
        let crash = CrashInjector::disabled();
        // Segment 0: attrs 1 and 2. Segment 1: attr 2 updated.
        write_segment(
            fs.as_ref(),
            &dir,
            0,
            &[(1, b"one-v0".to_vec()), (2, b"two-v0".to_vec())],
            &crash,
        )
        .unwrap();
        write_segment(fs.as_ref(), &dir, 1, &[(2, b"two-v1".to_vec())], &crash).unwrap();
        publish(
            fs.as_ref(),
            &dir,
            &SegmentManifest {
                epoch: 2,
                next_segment_id: 2,
                segments: vec![0, 1],
            },
        );
        let store = SegmentStore::open(fs.clone(), &dir).unwrap().unwrap();
        assert_eq!(store.segments_live(), 2);
        assert_eq!(store.load_attr(1).unwrap().unwrap(), b"one-v0");
        assert_eq!(store.load_attr(2).unwrap().unwrap(), b"two-v1");
        assert_eq!(store.load_attr(3).unwrap(), None);
        assert_eq!(store.attrs(), vec![1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_manifest_is_none() {
        let dir = tmpdir("nomanifest");
        assert!(SegmentStore::open(real_fs(), &dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_pointing_at_missing_segment_is_corruption() {
        let dir = tmpdir("missing");
        let fs = real_fs();
        publish(
            fs.as_ref(),
            &dir,
            &SegmentManifest {
                epoch: 1,
                next_segment_id: 1,
                segments: vec![0],
            },
        );
        assert!(SegmentStore::open(fs, &dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bloom_negative_probes_counted() {
        let dir = tmpdir("bloomneg");
        let fs = real_fs();
        let crash = CrashInjector::disabled();
        write_segment(fs.as_ref(), &dir, 0, &[(5, b"five".to_vec())], &crash).unwrap();
        publish(
            fs.as_ref(),
            &dir,
            &SegmentManifest {
                epoch: 1,
                next_segment_id: 1,
                segments: vec![0],
            },
        );
        let store = SegmentStore::open(fs, &dir).unwrap().unwrap();
        let before = global().get(Metric::BloomNegativeProbes);
        // A tight filter over one key rejects almost everything; at least
        // one of many absent probes must short-circuit through the bloom.
        for attr in 1_000..1_064 {
            assert_eq!(store.load_attr(attr).unwrap(), None);
        }
        assert!(global().get(Metric::BloomNegativeProbes) > before);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
