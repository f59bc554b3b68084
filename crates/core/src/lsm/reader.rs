//! [`SegmentStore`]: the read path over a live segment set.
//!
//! A store is the opened form of one manifest: every live segment's index
//! in memory, zero partition payloads. Looking up a partition scans
//! segments **newest first** (a later flush supersedes an earlier one),
//! binary-searches each index, and reads exactly one CRC-verified block
//! from disk on a hit. The same order decides which segments a rotation
//! keeps ([`supersede`]): a segment is live only while it is the newest
//! holder of some attribute, so the scan is over at most as many segments
//! as the directory has attributes.
//!
//! [`supersede`]: SegmentStore::supersede

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use prkb_edbms::{AttrId, StorageFs};

use super::manifest::SegmentManifest;
use super::segment::SegmentMeta;
use crate::durability::DurableError;

/// An opened live segment set: routing structures only, payloads on disk.
#[derive(Debug, Clone)]
pub(crate) struct SegmentStore {
    fs: Arc<dyn StorageFs>,
    manifest: SegmentManifest,
    /// Newest first — the probe order.
    segments: Vec<SegmentMeta>,
}

impl SegmentStore {
    /// Opens every segment `manifest` (read from `dir`) references.
    ///
    /// # Errors
    /// A manifest entry whose segment file is missing or damaged is
    /// [`DurableError::CorruptSegment`] — segments are published before
    /// the manifest references them, so this is never a crash artifact.
    pub(crate) fn open(
        fs: Arc<dyn StorageFs>,
        dir: &Path,
        manifest: SegmentManifest,
    ) -> Result<SegmentStore, DurableError> {
        let segments = manifest
            .segments
            .iter()
            .rev()
            .map(|&id| SegmentMeta::open(fs.as_ref(), dir, id))
            .collect::<Result<_, _>>()?;
        Ok(SegmentStore {
            fs,
            manifest,
            segments,
        })
    }

    /// The manifest this store was opened from.
    pub(crate) fn manifest(&self) -> &SegmentManifest {
        &self.manifest
    }

    /// Number of live segments.
    pub(crate) fn segments_live(&self) -> usize {
        self.segments.len()
    }

    /// The newest stored snapshot image for `attr`, or `None` if no live
    /// segment holds it.
    pub(crate) fn load_attr(&self, attr: AttrId) -> Result<Option<Vec<u8>>, DurableError> {
        for seg in &self.segments {
            if let Some(entry) = seg.find(attr) {
                return seg.read_block(self.fs.as_ref(), entry).map(Some);
            }
        }
        Ok(None)
    }

    /// Every attribute stored across the live set (deduplicated, sorted).
    pub(crate) fn attrs(&self) -> Vec<AttrId> {
        let mut out: Vec<AttrId> = self
            .segments
            .iter()
            .flat_map(|s| s.index.iter().map(|e| e.attr))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The supersede rule: splits the live set into the segments that stay
    /// live once a segment holding `fresh` is published on top of them and
    /// the ones it retires — `(kept, retired)`, ids oldest first. A segment
    /// stays iff it is the newest holder of at least one attribute, so
    /// `kept.len()` never exceeds the number of attributes stored.
    pub(crate) fn supersede(&self, fresh: &[AttrId]) -> (Vec<u64>, Vec<u64>) {
        let mut seen: BTreeSet<AttrId> = fresh.iter().copied().collect();
        let (mut kept, mut retired) = (Vec::new(), Vec::new());
        for seg in &self.segments {
            let mut newest_holder = false;
            for e in &seg.index {
                newest_holder |= seen.insert(e.attr);
            }
            if newest_holder {
                kept.push(seg.id);
            } else {
                retired.push(seg.id);
            }
        }
        kept.reverse();
        retired.reverse();
        (kept, retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::manifest::{read_segment_manifest, write_segment_manifest};
    use crate::lsm::segment::write_segment;
    use prkb_edbms::real_fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-lsm-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn publish(fs: &dyn StorageFs, dir: &Path, manifest: &SegmentManifest) {
        write_segment_manifest(fs, dir, manifest).unwrap();
    }

    #[test]
    fn newest_segment_wins() {
        let dir = tmpdir("newest");
        let fs = real_fs();
        // Segment 0: attrs 1 and 2. Segment 1: attr 2 updated.
        write_segment(
            fs.as_ref(),
            &dir,
            0,
            &[(1, b"one-v0".to_vec()), (2, b"two-v0".to_vec())],
        )
        .unwrap();
        write_segment(fs.as_ref(), &dir, 1, &[(2, b"two-v1".to_vec())]).unwrap();
        publish(
            fs.as_ref(),
            &dir,
            &SegmentManifest {
                epoch: 2,
                next_segment_id: 2,
                segments: vec![0, 1],
            },
        );
        let manifest = read_segment_manifest(fs.as_ref(), &dir).unwrap().unwrap();
        let store = SegmentStore::open(fs.clone(), &dir, manifest).unwrap();
        assert_eq!(store.segments_live(), 2);
        assert_eq!(store.load_attr(1).unwrap().unwrap(), b"one-v0");
        assert_eq!(store.load_attr(2).unwrap().unwrap(), b"two-v1");
        assert_eq!(store.load_attr(3).unwrap(), None);
        assert_eq!(store.attrs(), vec![1, 2]);
        // Supersede: a segment stays while it is some attribute's newest holder.
        assert_eq!(store.supersede(&[]), (vec![0, 1], vec![]));
        assert_eq!(store.supersede(&[1]), (vec![1], vec![0]));
        assert_eq!(store.supersede(&[2]), (vec![0], vec![1]));
        assert_eq!(store.supersede(&[1, 2]), (vec![], vec![0, 1]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_pointing_at_missing_segment_is_corruption() {
        let dir = tmpdir("missing");
        let manifest = SegmentManifest {
            epoch: 1,
            next_segment_id: 1,
            segments: vec![0],
        };
        assert!(SegmentStore::open(real_fs(), &dir, manifest).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
