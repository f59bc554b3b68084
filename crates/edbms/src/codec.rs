//! The three decisions every on-disk and wire format of the stack shares,
//! made once. Snapshots, WAL transactions, the pool and segment manifests,
//! segment framing, trapdoors and `prkb-wire` payloads all decode and
//! publish through this module; none of them re-derives a bounds check, an
//! allocation guard, a checksum envelope or a rename.
//!
//! 1. **Reading** — [`Reader`]: little-endian fields off a slice. No read
//!    can pass the end of the slice, and [`Reader::count`] is the one guard
//!    between a length-lying count field and an allocation.
//! 2. **The envelope** — [`seal`] / [`unseal`]:
//!    `magic | version u16 | body | crc32`, the checksum over everything
//!    before it.
//! 3. **Publishing** — [`publish`]: temp file → write → fsync → rename →
//!    directory fsync, so a reader sees the old file or the new one, never
//!    a mixture, and the rename itself survives a crash.
//!
//! There is deliberately no writer: `out.extend_from_slice(&x.to_le_bytes())`
//! is already one call.

use std::path::Path;

use crate::durability::{crc32, DurabilityError};
use crate::storage::StorageFs;

/// Why a [`Reader`] (or [`unseal`]) refused its input. Each codec maps it
/// into its own error type at its decode boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated(pub &'static str);

impl From<Truncated> for &'static str {
    fn from(e: Truncated) -> Self {
        e.0
    }
}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(Truncated("field runs past the end of the input"))?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) is N long"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// The next `n` little-endian `u32`s (tuple ids, ranks) in one bounds
    /// check.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, Truncated> {
        let len = n.checked_mul(4).ok_or(Truncated("length overflows"))?;
        Ok(self
            .bytes(len)?
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads a `u32` element count and refuses it unless that many
    /// elements of at least `elem_len` bytes each fit in what remains — so
    /// a caller may allocate for the count it gets back.
    pub fn count(&mut self, elem_len: usize) -> Result<usize, Truncated> {
        let n = self.u32()?;
        self.fits(u64::from(n), elem_len)
    }

    /// [`count`](Self::count) for a count stored as a `u64`.
    pub fn count64(&mut self, elem_len: usize) -> Result<usize, Truncated> {
        let n = self.u64()?;
        self.fits(n, elem_len)
    }

    fn fits(&self, n: u64, elem_len: usize) -> Result<usize, Truncated> {
        usize::try_from(n)
            .ok()
            .filter(|n| {
                n.checked_mul(elem_len)
                    .is_some_and(|need| need <= self.rest.len())
            })
            .ok_or(Truncated("count exceeds the bytes that remain"))
    }

    /// Succeeds only if every byte was read.
    pub fn finish(self) -> Result<(), Truncated> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(Truncated("trailing bytes"))
        }
    }
}

/// Wraps `body` in the checksummed envelope:
/// `magic | version u16 | body | crc32`.
pub fn seal(magic: &[u8; 4], version: u16, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 2 + body.len() + 4);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(body);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Opens a [`seal`]ed image: verifies the trailing checksum, then the
/// magic, and returns the version with a [`Reader`] over the body. The
/// caller decides which versions it reads.
pub fn unseal<'a>(bytes: &'a [u8], magic: &[u8; 4]) -> Result<(u16, Reader<'a>), Truncated> {
    let body_end = bytes
        .len()
        .checked_sub(4)
        .ok_or(Truncated("shorter than its checksum"))?;
    let (sealed, stored) = bytes.split_at(body_end);
    if crc32(sealed) != Reader::new(stored).u32()? {
        return Err(Truncated("checksum mismatch"));
    }
    let mut r = Reader::new(sealed);
    if r.bytes(4)? != magic {
        return Err(Truncated("bad magic"));
    }
    let version = r.u16()?;
    Ok((version, r))
}

/// Atomically publishes `image` as `dir/name`: written to `name.tmp`,
/// fsync'd, renamed over `name`, and the directory fsync'd — without that
/// last barrier the rename itself can be lost to a crash. A failed barrier
/// is [`DurabilityError::SyncFailed`] (the disk lied), never swallowed, and
/// leaves the previous `name` untouched; a leftover `name.tmp` is swept by
/// the next open.
pub fn publish(
    fs: &dyn StorageFs,
    dir: &Path,
    name: &str,
    image: &[u8],
) -> Result<(), DurabilityError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = fs.create_file(&tmp)?;
    file.write_all(image)?;
    file.sync_all()
        .map_err(|e| sync_failed("sync_all", &tmp, &e))?;
    drop(file);
    fs.rename(&tmp, &dir.join(name))?;
    sync_dir(fs, dir)
}

/// Fsyncs `dir`, making the creates and renames inside it durable.
pub fn sync_dir(fs: &dyn StorageFs, dir: &Path) -> Result<(), DurabilityError> {
    fs.sync_dir(dir)
        .map_err(|e| sync_failed("directory fsync", dir, &e))
}

fn sync_failed(what: &str, path: &Path, e: &std::io::Error) -> DurabilityError {
    DurabilityError::SyncFailed(format!("{what} on {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_little_endian_and_never_past_the_end() {
        let bytes = [1u8, 2, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 9, 8];
        let mut r = Reader::new(&bytes);
        assert_eq!(
            (r.u8(), r.u16(), r.u32(), r.u64()),
            (Ok(1), Ok(2), Ok(3), Ok(4))
        );
        assert!(r.u32().is_err() && r.bytes(usize::MAX).is_err());
        assert_eq!(
            r.bytes(2),
            Ok(&[9u8, 8][..]),
            "a refused read consumes nothing"
        );
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(Reader::new(&[0]).finish(), Err(Truncated("trailing bytes")));
    }

    #[test]
    fn count_is_refused_unless_the_elements_fit() {
        let mut image = 3u32.to_le_bytes().to_vec();
        image.extend_from_slice(&[0xAA; 12]);
        let mut r = Reader::new(&image);
        assert_eq!(r.count(4), Ok(3));
        assert_eq!(r.u32s(3), Ok(vec![0xAAAA_AAAA; 3]));
        assert!(Reader::new(&image).count(5).is_err(), "3 × 5 > 12");
        // A byte need that overflows `usize` is refused, not wrapped.
        let mut lying = u64::MAX.to_le_bytes().to_vec();
        lying.extend_from_slice(&[0; 16]);
        assert!(Reader::new(&lying).count64(1).is_err());
        assert!(Reader::new(&lying).count64(8).is_err());
        assert!(Reader::new(&lying).u32s(usize::MAX).is_err());
    }

    #[test]
    fn envelope_round_trips_and_names_what_it_refuses() {
        let image = seal(b"TEST", 7, b"body");
        let (version, mut body) = unseal(&image, b"TEST").expect("own image");
        assert_eq!((version, body.bytes(4)), (7, Ok(&b"body"[..])));
        let refused = |bytes: &[u8], magic| unseal(bytes, magic).unwrap_err().0;
        assert_eq!(refused(&image, b"NOPE"), "bad magic");
        assert_eq!(refused(&image[..3], b"TEST"), "shorter than its checksum");
        assert_eq!(refused(&image[1..], b"TEST"), "checksum mismatch");
    }
}
