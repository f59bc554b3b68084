//! Immutable segment files: the on-disk unit of a checkpoint.
//!
//! A segment holds the partitions (attributes) that were dirty at one flush,
//! each as a raw [`snapshot`](crate::snapshot) image. Layout:
//!
//! ```text
//! "PSEG" | version u16 | reserved u16 | segment_id u64        header, 16 B
//! block[0] .. block[n-1]                                      raw snapshots
//! n u32 | (attr u32 | offset u64 | len u64 | crc u32)*        index block
//! index_off u64 | index_len u64 | index_crc u32
//!   | aux_off u64 | aux_len u64 | aux_crc u32
//!   | footer_crc u32 (over the 40 bytes above) | "GESP"       footer, 48 B
//! ```
//!
//! The `aux` extent sits between the index block and the footer. Version 2
//! (what this code writes) requires it to be zero-length. Version 1 files
//! stored a per-segment bloom filter there; they still open — the extent
//! is bounds- and CRC-checked, its contents never decoded — and are
//! superseded by the directory's next rotations. Any other version is
//! refused, as a version-1 reader refuses a version-2 file.
//!
//! Everything a reader needs to *route* a partition probe — the index
//! entries — sits behind the fixed-size footer, so opening a segment reads
//! O(index) bytes via [`StorageFs::read_at`] and never touches a partition
//! payload. Per-block CRC32 lives in the index entry (the block itself is
//! a verbatim snapshot image), verified on every
//! [`read_block`](SegmentMeta::read_block).
//!
//! Segments are never modified after the publishing rename; the only
//! mutations in the subsystem are manifest swaps and whole-file removals.

use std::path::{Path, PathBuf};

use prkb_edbms::codec::{publish, Reader};
use prkb_edbms::durability::{crc32, DurabilityError};
use prkb_edbms::{AttrId, StorageFs};

use crate::durability::DurableError;

/// Segment format version written by `encode_segment`.
pub const SEGMENT_VERSION: u16 = 2;
/// The read-only legacy version (non-empty `aux` extent, ignored).
const SEGMENT_VERSION_V1: u16 = 1;
/// Segment header magic.
const SEG_MAGIC: &[u8; 4] = b"PSEG";
/// Footer trailer magic (reversed header magic, marks a complete file).
const SEG_TRAILER: &[u8; 4] = b"GESP";
/// Header length in bytes.
const HEADER_LEN: u64 = 16;
/// Footer length in bytes.
const FOOTER_LEN: u64 = 48;
/// Bytes per index entry: `attr u32 | offset u64 | len u64 | crc u32`.
const INDEX_ENTRY_LEN: usize = 24;

/// File name for segment `id` (`segment.<id>.seg`).
pub fn segment_file_name(id: u64) -> String {
    format!("segment.{id}.seg")
}

/// Parses `segment.<id>.seg`, returning the id. `None` for temp files
/// (`.seg.tmp`) and anything else.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("segment.")?;
    let id = rest.strip_suffix(".seg")?;
    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    id.parse().ok()
}

/// One partition block's location inside a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// The attribute whose snapshot the block holds.
    pub attr: AttrId,
    /// Absolute file offset of the block's first byte.
    pub offset: u64,
    /// Block length in bytes.
    pub len: u64,
    /// CRC32 of the block bytes.
    pub crc: u32,
}

/// An opened segment: identity, routing structures, nothing else. Payload
/// bytes stay on disk until [`read_block`](Self::read_block).
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Segment id (monotonic per engine directory).
    pub id: u64,
    /// Format version the file was written with (1 or 2).
    pub version: u16,
    /// Full path of the segment file.
    pub path: PathBuf,
    /// Attr-sorted index of partition blocks.
    pub index: Vec<BlockEntry>,
    /// Total file length in bytes.
    pub file_len: u64,
}

/// Builds the complete on-disk image of segment `id` from raw snapshot
/// blocks. Blocks are sorted by attribute; duplicate attributes are a
/// caller bug (the dirty set is a set).
pub(crate) fn encode_segment(id: u64, blocks: &[(AttrId, Vec<u8>)]) -> Vec<u8> {
    let mut sorted: Vec<&(AttrId, Vec<u8>)> = blocks.iter().collect();
    sorted.sort_by_key(|(attr, _)| *attr);
    debug_assert!(
        sorted.windows(2).all(|w| w[0].0 != w[1].0),
        "duplicate attribute in segment blocks"
    );

    let mut out = Vec::with_capacity(
        HEADER_LEN as usize
            + sorted.iter().map(|(_, b)| b.len()).sum::<usize>()
            + 4
            + sorted.len() * INDEX_ENTRY_LEN
            + FOOTER_LEN as usize,
    );
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());

    let mut index = Vec::with_capacity(sorted.len());
    for (attr, bytes) in sorted {
        index.push(BlockEntry {
            attr: *attr,
            offset: out.len() as u64,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        });
        out.extend_from_slice(bytes);
    }

    let index_off = out.len() as u64;
    out.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for e in &index {
        out.extend_from_slice(&e.attr.to_le_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
    }
    let index_len = out.len() as u64 - index_off;
    let index_crc = crc32(&out[index_off as usize..]);

    // Version 2: the aux extent is empty and starts where the footer does.
    let aux_off = out.len() as u64;

    let mut footer = Vec::with_capacity(FOOTER_LEN as usize);
    footer.extend_from_slice(&index_off.to_le_bytes());
    footer.extend_from_slice(&index_len.to_le_bytes());
    footer.extend_from_slice(&index_crc.to_le_bytes());
    footer.extend_from_slice(&aux_off.to_le_bytes());
    footer.extend_from_slice(&0u64.to_le_bytes());
    footer.extend_from_slice(&crc32(&[]).to_le_bytes());
    let fcrc = crc32(&footer);
    footer.extend_from_slice(&fcrc.to_le_bytes());
    footer.extend_from_slice(SEG_TRAILER);
    out.extend_from_slice(&footer);
    out
}

/// Writes segment `id` into `dir` with the atomic temp+rename protocol.
/// Returns the number of bytes written (the published file's length).
///
/// Boundary semantics: a crash mid-write leaves a torn *temp* file; a
/// failed `sync_all` or directory fsync surfaces as
/// [`DurabilityError::SyncFailed`] and leaves the previous manifest +
/// segment set untouched.
pub(crate) fn write_segment(
    fs: &dyn StorageFs,
    dir: &Path,
    id: u64,
    blocks: &[(AttrId, Vec<u8>)],
) -> Result<u64, DurabilityError> {
    let image = encode_segment(id, blocks);
    publish(fs, dir, &segment_file_name(id), &image)?;
    Ok(image.len() as u64)
}

/// A segment's decoded framing: the header and footer fields, validated
/// against each other and the file length.
struct Footer {
    /// Format version the file was written with (1 or 2).
    version: u16,
    /// Segment id recorded in the header.
    id: u64,
    index_off: u64,
    index_len: u64,
    index_crc: u32,
    /// The extent between index and footer: empty in version 2, the
    /// legacy bloom block in version 1.
    aux_off: u64,
    aux_len: u64,
    aux_crc: u32,
}

/// Decodes and cross-checks a segment's 16-byte header and 48-byte footer
/// for [`SegmentMeta::open`]. The version is checked before any extent.
fn parse_footer(header: &[u8], footer: &[u8], file_len: u64) -> Result<Footer, &'static str> {
    let mut h = Reader::new(header);
    if h.bytes(4)? != SEG_MAGIC {
        return Err("bad header magic");
    }
    let version = h.u16()?;
    if version != SEGMENT_VERSION && version != SEGMENT_VERSION_V1 {
        return Err("unknown version");
    }
    let (_reserved, id) = (h.u16()?, h.u64()?);
    let mut r = Reader::new(footer);
    let fields = r.bytes(FOOTER_LEN as usize - 8)?;
    let (footer_crc, trailer) = (r.u32()?, r.bytes(4)?);
    if trailer != SEG_TRAILER {
        return Err("missing trailer magic");
    }
    if crc32(fields) != footer_crc {
        return Err("footer checksum mismatch");
    }
    let mut r = Reader::new(fields);
    let f = Footer {
        version,
        id,
        index_off: r.u64()?,
        index_len: r.u64()?,
        index_crc: r.u32()?,
        aux_off: r.u64()?,
        aux_len: r.u64()?,
        aux_crc: r.u32()?,
    };
    if f.index_off < HEADER_LEN
        || f.index_off.checked_add(f.index_len) != Some(f.aux_off)
        || f.aux_off.checked_add(f.aux_len) != Some(file_len - FOOTER_LEN)
    {
        return Err("footer offsets inconsistent");
    }
    if version == SEGMENT_VERSION && f.aux_len != 0 {
        return Err("version 2 segment with a non-empty aux extent");
    }
    Ok(f)
}

impl SegmentMeta {
    /// Opens segment `id` in `dir`, reading only the header, footer and
    /// index block (plus a version-1 file's bloom block, to verify its
    /// checksum) through bounded [`read_at`](StorageFs::read_at) calls — no
    /// partition payload is touched.
    ///
    /// # Errors
    /// [`DurableError::CorruptSegment`] on any structural damage and on a
    /// missing file; other I/O errors pass through as
    /// [`DurableError::Storage`].
    pub fn open(fs: &dyn StorageFs, dir: &Path, id: u64) -> Result<SegmentMeta, DurableError> {
        let path = dir.join(segment_file_name(id));
        let file_len = fs.len(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => DurableError::CorruptSegment("segment file missing"),
            _ => DurabilityError::Io(e).into(),
        })?;
        if file_len < HEADER_LEN + FOOTER_LEN {
            return Err(DurableError::CorruptSegment("file shorter than framing"));
        }
        let read = |offset, len| fs.read_at(&path, offset, len).map_err(DurabilityError::Io);
        let footer = read(file_len - FOOTER_LEN, FOOTER_LEN)?;
        let f = parse_footer(&read(0, HEADER_LEN)?, &footer, file_len)
            .map_err(DurableError::CorruptSegment)?;
        if f.id != id {
            return Err(DurableError::CorruptSegment("id does not match file name"));
        }
        let index_bytes = read(f.index_off, f.index_len)?;
        if crc32(&index_bytes) != f.index_crc {
            return Err(DurableError::CorruptSegment("index checksum mismatch"));
        }
        let index =
            decode_index(&index_bytes, f.index_off).map_err(DurableError::CorruptSegment)?;
        if f.aux_len > 0 && crc32(&read(f.aux_off, f.aux_len)?) != f.aux_crc {
            return Err(DurableError::CorruptSegment("aux checksum mismatch"));
        }
        Ok(SegmentMeta {
            id,
            version: f.version,
            path,
            index,
            file_len,
        })
    }

    /// Reads and CRC-verifies one partition block — the only payload read
    /// in the whole subsystem, and it is bounded by the block length.
    pub fn read_block(
        &self,
        fs: &dyn StorageFs,
        entry: &BlockEntry,
    ) -> Result<Vec<u8>, DurableError> {
        let bytes = fs
            .read_at(&self.path, entry.offset, entry.len)
            .map_err(DurabilityError::Io)?;
        if crc32(&bytes) != entry.crc {
            return Err(DurableError::CorruptSegment("block checksum mismatch"));
        }
        Ok(bytes)
    }
}

/// Decodes and validates an index block (offsets must be sorted by attr,
/// in-bounds, and non-overlapping with the framing).
fn decode_index(bytes: &[u8], index_off: u64) -> Result<Vec<BlockEntry>, &'static str> {
    let mut r = Reader::new(bytes);
    let n = r.count(INDEX_ENTRY_LEN)?;
    let mut index: Vec<BlockEntry> = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = BlockEntry {
            attr: r.u32()?,
            offset: r.u64()?,
            len: r.u64()?,
            crc: r.u32()?,
        };
        if entry.offset < HEADER_LEN
            || entry
                .offset
                .checked_add(entry.len)
                .is_none_or(|end| end > index_off)
        {
            return Err("block extent out of bounds");
        }
        if index.last().is_some_and(|prev| prev.attr >= entry.attr) {
            return Err("index not attr-sorted");
        }
        index.push(entry);
    }
    r.finish()?;
    Ok(index)
}

/// Best-effort removal of superseded segment files: once the manifest no
/// longer lists them they are garbage, and a failed unlink must not fail
/// the rotation (the recovery sweep or the scrubber picks the file up).
pub(crate) fn retire_segments(fs: &dyn StorageFs, dir: &Path, ids: &[u64]) {
    for &id in ids {
        let _ = fs.remove_file(&dir.join(segment_file_name(id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prkb_edbms::real_fs;

    fn find(meta: &SegmentMeta, attr: AttrId) -> Option<&BlockEntry> {
        meta.index.iter().find(|e| e.attr == attr)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-lsm-seg-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn sample_blocks() -> Vec<(AttrId, Vec<u8>)> {
        vec![
            (2, b"beta-partition".to_vec()),
            (0, b"alpha".to_vec()),
            (7, vec![0xAB; 100]),
        ]
    }

    /// The blocks both golden files hold, as segment 7.
    fn golden_blocks() -> [(AttrId, Vec<u8>); 2] {
        [(2, b"block two".to_vec()), (0, b"block zero!".to_vec())]
    }

    /// Opens `bytes` as segment 7 and reads every block back: its format
    /// version and attr 0's block.
    fn open_golden(tag: &str, bytes: &[u8]) -> Result<(u16, Vec<u8>), DurableError> {
        let dir = tmpdir(tag);
        std::fs::write(dir.join(segment_file_name(7)), bytes).expect("write");
        let fs = real_fs();
        let block = SegmentMeta::open(fs.as_ref(), &dir, 7).and_then(|meta| {
            let mut blocks = meta.index.iter().map(|e| meta.read_block(fs.as_ref(), e));
            let first = blocks.next().expect("attr 0 indexed first")?;
            blocks.try_for_each(|b| b.map(drop))?;
            Ok((meta.version, first))
        });
        std::fs::remove_dir_all(&dir).ok();
        block
    }

    #[test]
    fn golden_v1_segment_still_validates_and_decodes() {
        // Written by the last commit whose segments carried a bloom block
        // (and before the slice-by-16 CRC kernel): its five stored
        // checksums verify, the bloom bytes are never decoded.
        let golden: &[u8] = include_bytes!("../../tests/fixtures/parent_segment.bin");
        let block = open_golden("golden-v1", golden).unwrap();
        assert_eq!(block, (1, b"block zero!".to_vec()));
        assert_ne!(encode_segment(7, &golden_blocks()), golden);

        // Its 16 bloom bytes (just before the footer) are still checksummed.
        let mut rotted = golden.to_vec();
        rotted[golden.len() - FOOTER_LEN as usize - 1] ^= 1;
        assert!(matches!(
            open_golden("golden-v1-rotted", &rotted),
            Err(DurableError::CorruptSegment("aux checksum mismatch"))
        ));

        // Relabelled version 2, the non-empty aux extent is refused.
        let mut relabelled = golden.to_vec();
        relabelled[4] = 2;
        assert!(matches!(
            open_golden("golden-v1-as-v2", &relabelled),
            Err(DurableError::CorruptSegment(
                "version 2 segment with a non-empty aux extent"
            ))
        ));
    }

    #[test]
    fn golden_v2_segment_encodes_byte_for_byte() {
        let golden: &[u8] = include_bytes!("../../tests/fixtures/segment_v2.bin");
        assert_eq!(encode_segment(7, &golden_blocks()), golden);
        let block = open_golden("golden-v2", golden).unwrap();
        assert_eq!(block, (SEGMENT_VERSION, b"block zero!".to_vec()));

        // A version this reader does not know is refused on sight — the
        // way a version-1 reader refuses this file.
        let mut v3 = golden.to_vec();
        v3[4] = 3;
        assert!(matches!(
            open_golden("golden-v3", &v3),
            Err(DurableError::CorruptSegment("unknown version"))
        ));
    }

    #[test]
    fn name_roundtrip_and_rejects() {
        assert_eq!(parse_segment_name(&segment_file_name(42)), Some(42));
        assert_eq!(parse_segment_name("segment.0.seg"), Some(0));
        assert_eq!(parse_segment_name("segment.3.seg.tmp"), None);
        assert_eq!(parse_segment_name("segment..seg"), None);
        assert_eq!(parse_segment_name("segment.1x.seg"), None);
        assert_eq!(parse_segment_name("wal.3.log"), None);
    }

    #[test]
    fn write_open_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let fs = real_fs();
        let blocks = sample_blocks();
        let written = write_segment(fs.as_ref(), &dir, 5, &blocks).unwrap();
        assert_eq!(
            written,
            std::fs::metadata(dir.join(segment_file_name(5)))
                .unwrap()
                .len()
        );
        let meta = SegmentMeta::open(fs.as_ref(), &dir, 5).unwrap();
        assert_eq!(meta.id, 5);
        // Attr-sorted index regardless of input order.
        let attrs: Vec<AttrId> = meta.index.iter().map(|e| e.attr).collect();
        assert_eq!(attrs, vec![0, 2, 7]);
        for (attr, bytes) in &blocks {
            let e = find(&meta, *attr).expect("indexed");
            assert_eq!(&meta.read_block(fs.as_ref(), e).unwrap(), bytes);
        }
        assert!(find(&meta, 99).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_segment_roundtrips() {
        let dir = tmpdir("empty");
        let fs = real_fs();
        write_segment(fs.as_ref(), &dir, 0, &[]).unwrap();
        let meta = SegmentMeta::open(fs.as_ref(), &dir, 0).unwrap();
        assert!(meta.index.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_image_refuses_to_open() {
        let dir = tmpdir("torn");
        let fs = real_fs();
        write_segment(fs.as_ref(), &dir, 1, &sample_blocks()).unwrap();
        let path = dir.join(segment_file_name(1));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            SegmentMeta::open(fs.as_ref(), &dir, 1),
            Err(DurableError::CorruptSegment(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_block_byte_fails_only_that_block() {
        let dir = tmpdir("bitrot");
        let fs = real_fs();
        let blocks = sample_blocks();
        write_segment(fs.as_ref(), &dir, 2, &blocks).unwrap();
        let path = dir.join(segment_file_name(2));
        let mut bytes = std::fs::read(&path).unwrap();
        let meta = SegmentMeta::open(fs.as_ref(), &dir, 2).unwrap();
        let victim = find(&meta, 2).unwrap();
        bytes[victim.offset as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Open still succeeds (framing intact)…
        let meta = SegmentMeta::open(fs.as_ref(), &dir, 2).unwrap();
        // …the damaged block fails its CRC…
        let victim = *find(&meta, 2).unwrap();
        assert!(matches!(
            meta.read_block(fs.as_ref(), &victim),
            Err(DurableError::CorruptSegment("block checksum mismatch"))
        ));
        // …and the untouched blocks still read.
        let ok = *find(&meta, 0).unwrap();
        assert_eq!(meta.read_block(fs.as_ref(), &ok).unwrap(), b"alpha");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn id_mismatch_is_corruption() {
        let dir = tmpdir("idmismatch");
        let fs = real_fs();
        write_segment(fs.as_ref(), &dir, 3, &[]).unwrap();
        std::fs::rename(
            dir.join(segment_file_name(3)),
            dir.join(segment_file_name(4)),
        )
        .unwrap();
        assert!(matches!(
            SegmentMeta::open(fs.as_ref(), &dir, 4),
            Err(DurableError::CorruptSegment("id does not match file name"))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
