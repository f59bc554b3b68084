//! [`SegmentStore`]: the read path over a live segment set.
//!
//! A store is the opened form of one manifest: every live segment's index
//! in memory, zero partition payloads. A partition's newest version is its
//! block in the **newest** segment that holds it (a later flush supersedes
//! an earlier one); an open reads exactly that one CRC-verified block of
//! it. The same order decides which segments a rotation
//! keeps ([`supersede`]): a segment is live only while it is the newest
//! holder of some attribute, so the scan is over at most as many segments
//! as the directory has attributes.
//!
//! [`supersede`]: SegmentStore::supersede

use std::collections::BTreeSet;
use std::path::Path;

use prkb_edbms::{AttrId, StorageFs};

use super::manifest::SegmentManifest;
use super::segment::{BlockEntry, SegmentMeta};
use crate::durability::DurableError;

/// An opened live segment set: routing structures only, payloads on disk.
#[derive(Debug, Clone)]
pub(crate) struct SegmentStore {
    manifest: SegmentManifest,
    /// Newest first — the probe order.
    segments: Vec<SegmentMeta>,
}

impl SegmentStore {
    /// Opens every segment `manifest` (read from `dir`) references.
    ///
    /// # Errors
    /// The id of the first segment that does not open, with its error: a
    /// manifest entry whose segment file is missing or damaged is
    /// [`DurableError::CorruptSegment`] — segments are published before
    /// the manifest references them, so this is never a crash artifact.
    pub(crate) fn open(
        fs: &dyn StorageFs,
        dir: &Path,
        manifest: SegmentManifest,
    ) -> Result<SegmentStore, (u64, DurableError)> {
        let segments = manifest
            .segments
            .iter()
            .rev()
            .map(|&id| SegmentMeta::open(fs, dir, id).map_err(|e| (id, e)))
            .collect::<Result<_, _>>()?;
        Ok(SegmentStore { manifest, segments })
    }

    /// The manifest this store was opened from.
    pub(crate) fn manifest(&self) -> &SegmentManifest {
        &self.manifest
    }

    /// The live segments, newest first.
    pub(crate) fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Every block of the live set, newest segment first, each with whether
    /// it is the newest version of its attribute — the one block of that
    /// attribute an open reads. The others are superseded.
    pub(crate) fn blocks(&self) -> Vec<(&SegmentMeta, &BlockEntry, bool)> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for seg in &self.segments {
            for entry in &seg.index {
                out.push((seg, entry, seen.insert(entry.attr)));
            }
        }
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
        let store = SegmentStore::open(fs.as_ref(), &dir, manifest).unwrap();
        assert_eq!(store.segments().len(), 2);
        let blocks: Vec<(u64, AttrId, Vec<u8>, bool)> = store
            .blocks()
            .into_iter()
            .map(|(seg, e, newest)| {
                (
                    seg.id,
                    e.attr,
                    seg.read_block(fs.as_ref(), e).unwrap(),
                    newest,
                )
            })
            .collect();
        assert_eq!(
            blocks,
            [
                (1, 2, b"two-v1".to_vec(), true),
                (0, 1, b"one-v0".to_vec(), true),
                (0, 2, b"two-v0".to_vec(), false),
            ]
        );
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
        assert!(matches!(
            SegmentStore::open(real_fs().as_ref(), &dir, manifest),
            Err((0, DurableError::CorruptSegment("segment file missing")))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
