//! The segment manifest: the single source of truth for an engine
//! directory's live segment set.
//!
//! `segments.manifest` is tiny and rewritten whole on every rotation — the
//! atomicity point of the subsystem.
//! Layout: `"PSGM" | version u16 | epoch u64 | next_segment_id u64 |
//! n u32 | (segment id u64)* | crc32 u32`.
//!
//! Invariants the swap protocol maintains:
//!
//! * A segment file is **published before** the manifest references it, so
//!   a manifest entry pointing at a missing segment is real corruption
//!   (or an externally deleted file) — never a crash artifact.
//! * A crash between a segment rename and the manifest swap leaves a
//!   *stray* segment: present on disk, referenced by nothing. Its id was
//!   never recorded in `next_segment_id`, so the next flush reuses the id
//!   and atomically overwrites the stray.
//! * A swap may also *drop* ids: segments no longer the newest holder of
//!   any partition. They are unlinked after the swap; a crash in between
//!   leaves them on disk, referenced by nothing. Recovery deletes every
//!   `segment.<id>.seg` the manifest does not list — each one, before the
//!   first swap (`durability::classify`).
//! * `epoch` in the manifest equals the live WAL epoch: a rotation bumps
//!   both together, also when nothing was dirty and no segment is written.

use std::path::Path;

use prkb_edbms::codec::{publish, seal, unseal};
use prkb_edbms::durability::DurabilityError;
use prkb_edbms::StorageFs;

use crate::durability::DurableError;

/// Manifest file name inside an engine directory.
pub const SEGMENT_MANIFEST_FILE: &str = "segments.manifest";
/// Manifest magic.
const MANIFEST_MAGIC: &[u8; 4] = b"PSGM";
/// Manifest format version.
const MANIFEST_VERSION: u16 = 1;

/// The decoded manifest: live segment ids (oldest → newest), the WAL epoch
/// they cover, and the next id to allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentManifest {
    /// WAL epoch the segment set corresponds to.
    pub epoch: u64,
    /// Next segment id a flush may allocate.
    pub next_segment_id: u64,
    /// Live segments, oldest first — the read path scans newest first.
    pub segments: Vec<u64>,
}

impl SegmentManifest {
    /// The empty manifest a fresh directory starts from.
    pub fn empty() -> SegmentManifest {
        SegmentManifest {
            epoch: 0,
            next_segment_id: 0,
            segments: Vec::new(),
        }
    }

    /// Serializes the manifest (CRC-trailed).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(20 + self.segments.len() * 8);
        body.extend_from_slice(&self.epoch.to_le_bytes());
        body.extend_from_slice(&self.next_segment_id.to_le_bytes());
        body.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for id in &self.segments {
            body.extend_from_slice(&id.to_le_bytes());
        }
        seal(MANIFEST_MAGIC, MANIFEST_VERSION, &body)
    }

    /// Parses and validates an [`encode`](Self::encode) image.
    ///
    /// # Errors
    /// [`DurableError::CorruptSegment`] describing the first failed check —
    /// the manifest is swapped atomically, so damage here is real.
    pub(crate) fn decode(bytes: &[u8]) -> Result<SegmentManifest, DurableError> {
        let decode = || -> Result<_, &'static str> {
            let (version, mut r) = unseal(bytes, MANIFEST_MAGIC)?;
            if version != MANIFEST_VERSION {
                return Err("manifest unknown version");
            }
            let (epoch, next_segment_id) = (r.u64()?, r.u64()?);
            let n = r.count(8)?;
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                let id = r.u64()?;
                if id >= next_segment_id {
                    return Err("manifest references unallocated id");
                }
                if segments.contains(&id) {
                    return Err("manifest duplicate segment");
                }
                segments.push(id);
            }
            r.finish()?;
            Ok(SegmentManifest {
                epoch,
                next_segment_id,
                segments,
            })
        };
        decode().map_err(DurableError::CorruptSegment)
    }
}

/// Atomically publishes `manifest` into `dir` (temp + fsync + rename +
/// directory fsync).
///
/// A crash *before* the rename leaves the previous manifest intact (the
/// temp file is swept on recovery); from the rename on the new segment set
/// is the durable truth.
pub(crate) fn write_segment_manifest(
    fs: &dyn StorageFs,
    dir: &Path,
    manifest: &SegmentManifest,
) -> Result<(), DurabilityError> {
    publish(fs, dir, SEGMENT_MANIFEST_FILE, &manifest.encode())
}

/// Reads the manifest from `dir`, `None` if the directory has none (a
/// fresh engine).
pub fn read_segment_manifest(
    fs: &dyn StorageFs,
    dir: &Path,
) -> Result<Option<SegmentManifest>, DurableError> {
    let path = dir.join(SEGMENT_MANIFEST_FILE);
    if !fs.exists(&path) {
        return Ok(None);
    }
    let bytes = fs.read(&path).map_err(DurabilityError::Io)?;
    SegmentManifest::decode(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::real_fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-lsm-man-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = SegmentManifest {
            epoch: 12,
            next_segment_id: 9,
            segments: vec![3, 7, 8],
        };
        assert_eq!(SegmentManifest::decode(&m.encode()).unwrap(), m);
        let e = SegmentManifest::empty();
        assert_eq!(SegmentManifest::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn decode_rejects_damage() {
        assert!(SegmentManifest::decode(&[]).is_err());
        // Unallocated id (id >= next_segment_id) with a fixed-up CRC.
        let bad = SegmentManifest {
            epoch: 1,
            next_segment_id: 1,
            segments: vec![1],
        };
        assert!(matches!(
            SegmentManifest::decode(&bad.encode()),
            Err(DurableError::CorruptSegment(
                "manifest references unallocated id"
            ))
        ));
        // Duplicate id.
        let dup = SegmentManifest {
            epoch: 1,
            next_segment_id: 5,
            segments: vec![2, 2],
        };
        assert!(SegmentManifest::decode(&dup.encode()).is_err());
    }

    #[test]
    fn write_read_and_missing() {
        let dir = tmpdir("rw");
        let fs = real_fs();
        assert!(read_segment_manifest(fs.as_ref(), &dir).unwrap().is_none());
        let m = SegmentManifest {
            epoch: 3,
            next_segment_id: 4,
            segments: vec![1, 3],
        };
        write_segment_manifest(fs.as_ref(), &dir, &m).unwrap();
        assert_eq!(read_segment_manifest(fs.as_ref(), &dir).unwrap(), Some(m));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
