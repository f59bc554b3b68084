//! Durable-storage primitives: write-ahead log, checksums and framing.
//!
//! The PRKB's whole value is *accumulated* state — every answered query
//! refines the index (paper §5.3) — so losing it on a crash silently resets
//! the system to worst-case QPF cost. This module provides the
//! payload-agnostic machinery a durable index needs (the PRKB-specific
//! encoding lives in `prkb-core::durability`):
//!
//! * [`Wal`] — an append-only, CRC32-framed, length-prefixed log. Each
//!   record is fsync'd before the caller releases the result it covers, so
//!   an acknowledged refinement is never lost. Recovery replays the longest
//!   valid prefix, distinguishing a **torn tail** (partial final record —
//!   the expected shape of a crash mid-append; silently truncated) from
//!   **mid-log corruption** (a bad record *followed by* valid ones — bitrot
//!   or tampering; a hard error, the log refuses to open).
//!
//! Every write, fsync and rename goes through the [`StorageFs`] seam, so a
//! crash is a storage fault: the crash sweeps cut a test filesystem's op
//! stream at op `n` (a torn write, then every later op fails) and reopen.
//! Checkpoints themselves (immutable segment files behind an atomically
//! swapped manifest) live in `prkb-core::lsm`.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::codec::sync_dir;
use crate::storage::{StorageFile, StorageFs};

/// WAL file magic.
pub(crate) const WAL_MAGIC: &[u8; 4] = b"PWAL";
/// WAL format version.
pub(crate) const WAL_VERSION: u16 = 1;
/// WAL header length: magic, version, two reserved bytes.
pub const WAL_HEADER_LEN: u64 = 8;
/// Upper bound on a single record's payload; a length field above this is
/// treated as damage, not as a 4 GiB allocation request.
pub(crate) const MAX_RECORD_LEN: u32 = 1 << 30;

/// The 8-byte WAL file header: `"PWAL" | version u16 | reserved u16`.
fn wal_header() -> [u8; WAL_HEADER_LEN as usize] {
    let mut header = [0u8; WAL_HEADER_LEN as usize];
    header[..4].copy_from_slice(WAL_MAGIC);
    header[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
    header
}

/// Slice-by-16 lookup tables for the reflected IEEE 802.3 polynomial,
/// built at compile time. `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes, which is what lets one step fold sixteen input bytes.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC32 (IEEE 802.3, reflected): `update` any number of slices,
/// then `finish`. Feeding a buffer in pieces gives the same checksum as
/// feeding it whole, so a frame's `len || payload` coverage needs no
/// contiguous copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub(crate) const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum, sixteen at a time.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let c = crc.to_le_bytes();
            crc = t[15][usize::from(b[0] ^ c[0])]
                ^ t[14][usize::from(b[1] ^ c[1])]
                ^ t[13][usize::from(b[2] ^ c[2])]
                ^ t[12][usize::from(b[3] ^ c[3])]
                ^ t[11][usize::from(b[4])]
                ^ t[10][usize::from(b[5])]
                ^ t[9][usize::from(b[6])]
                ^ t[8][usize::from(b[7])]
                ^ t[7][usize::from(b[8])]
                ^ t[6][usize::from(b[9])]
                ^ t[5][usize::from(b[10])]
                ^ t[4][usize::from(b[11])]
                ^ t[3][usize::from(b[12])]
                ^ t[2][usize::from(b[13])]
                ^ t[1][usize::from(b[14])]
                ^ t[0][usize::from(b[15])];
        }
        for &b in blocks.remainder() {
            crc = t[0][usize::from(b ^ crc.to_le_bytes()[0])] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub(crate) const fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC32 (IEEE 802.3, reflected) over `bytes` — the checksum of every wire
/// frame, WAL record, checkpoint, manifest and segment block.
///
/// Result shipping makes this a hot loop, not an I/O footnote: a selection
/// that returns half the table is a 120 KB frame checksummed once on each
/// side of the socket, so the kernel is slice-by-16 over compile-time
/// tables (≈ 0.5 ns/byte; the bytewise loop it replaced took 2.5 ns/byte
/// and was half of such a request). Same polynomial, same coverage: every
/// stored or transmitted checksum is unchanged.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Header bytes of a `len u32 | crc u32 | payload` frame — the layout the
/// WAL's records and the server's wire frames share.
pub const FRAME_HEADER_LEN: usize = 8;

/// The checksum a frame stores: CRC32 over `len || payload`, so a damaged
/// length field cannot misframe silently.
fn frame_crc(len_le: [u8; 4], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&len_le);
    crc.update(payload);
    crc.finish()
}

/// Whether the complete frame `frame` (header + payload) carries the
/// checksum of its own `len || payload`. Verified where the bytes lie.
///
/// # Panics
/// Panics if `frame` is shorter than the header.
pub fn frame_is_intact(frame: &[u8]) -> bool {
    let (header, payload) = frame.split_at(FRAME_HEADER_LEN);
    let stored = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    frame_crc(header[..4].try_into().expect("4 bytes"), payload) == stored
}

/// Starts a frame to be built in place: the reserved header, with room for
/// exactly `payload_len` more bytes. Append the payload, then
/// [`seal_frame`].
pub fn begin_frame(payload_len: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload_len);
    frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    frame
}

/// Fills in the header of a frame built in place: `frame` is
/// [`FRAME_HEADER_LEN`] reserved bytes followed by the payload.
///
/// # Panics
/// Panics if `frame` is shorter than the header or the payload exceeds
/// `u32::MAX` bytes (both callers cap far below).
pub fn seal_frame(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
    let len_le = u32::try_from(payload.len())
        .expect("payload length fits u32")
        .to_le_bytes();
    header[..4].copy_from_slice(&len_le);
    header[4..].copy_from_slice(&frame_crc(len_le, payload).to_le_bytes());
}

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum DurabilityError {
    /// A real I/O failure (disk full, permission, …).
    Io(std::io::Error),
    /// The WAL header is missing or from an unknown version.
    BadWalHeader,
    /// A CRC-failing or misframed record **followed by valid data** — not a
    /// torn tail but damage inside the committed prefix. The log refuses to
    /// open rather than silently drop acknowledged refinements.
    CorruptRecord {
        /// Zero-based index of the bad record.
        record: u64,
        /// Byte offset of its frame.
        offset: u64,
        /// What failed.
        reason: &'static str,
    },
    /// A durability barrier (`sync_data`/`sync_all`) failed, or the handle
    /// was already poisoned by an earlier write/sync failure. After a failed
    /// fsync the kernel may have *dropped* the dirty pages (the fsyncgate
    /// lesson), so retry-and-assume-durable is a lie: the affected WAL/pool
    /// is permanently poisoned and never issues a durable ack again until
    /// the process reopens and re-reads what actually persisted.
    SyncFailed(String),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "durability I/O failure: {e}"),
            DurabilityError::BadWalHeader => write!(f, "not a PRKB WAL (bad magic/version)"),
            DurabilityError::CorruptRecord {
                record,
                offset,
                reason,
            } => write!(
                f,
                "WAL corrupt at record {record} (offset {offset}): {reason}; \
                 valid records follow, refusing to discard committed state"
            ),
            DurabilityError::SyncFailed(why) => write!(
                f,
                "durability barrier failed ({why}); no durable ack — \
                 handle poisoned until reopen"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// Kept only because the benchmark adapter (`prkb_e2e/src/sut.rs`) still
/// passes `CrashInjector::disabled()` as the ignored 4th argument of
/// `prkb_core::ShardedDurablePool::open_with_storage`. It has one value and
/// arms nothing: a crash is a storage fault, injected through
/// [`StorageFs`]. It is deleted together with that call, in the next change
/// to the benchmark (ROADMAP 7(a)).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashInjector;

impl CrashInjector {
    /// The only value.
    pub fn disabled() -> Self {
        CrashInjector
    }
}

/// What recovery found at the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The log ends exactly at a record boundary.
    Clean,
    /// A partial or checksum-failing final record was discarded (the
    /// expected residue of a crash mid-append — never an acknowledged one).
    TornDiscarded,
}

/// An open write-ahead log.
///
/// Record frame (all little-endian): `len u32 | crc32 u32 | payload`, where
/// the checksum covers `len || payload` so a damaged length field cannot
/// misframe silently. The file starts with an 8-byte header
/// (`"PWAL" | version u16 | reserved u16`).
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    records: u64,
    bytes: u64,
    /// Why this handle is poisoned, when it is. Set by the first failed
    /// write or sync; every later append/sync returns
    /// [`DurabilityError::SyncFailed`] with this reason.
    poison: Option<String>,
}

impl Wal {
    /// Creates a fresh, empty log at `path` on `fs` (truncating any
    /// existing file), with the header and the file's directory entry
    /// already durable.
    pub fn create_on(fs: &dyn StorageFs, path: &Path) -> Result<Wal, DurabilityError> {
        Self::fresh(fs, fs.create_file(path)?, path)
    }

    /// Makes the empty `file` at `path` a log: the header, fsync'd, then
    /// the directory fsync'd — an append acknowledged through this log must
    /// not depend on a directory entry nothing made durable.
    fn fresh(
        fs: &dyn StorageFs,
        mut file: Box<dyn StorageFile>,
        path: &Path,
    ) -> Result<Wal, DurabilityError> {
        file.write_all(&wal_header())?;
        (file.sync_all()).map_err(|e| {
            DurabilityError::SyncFailed(format!("sync_all on {}: {e}", path.display()))
        })?;
        sync_dir(fs, path.parent().expect("a WAL lives in a directory"))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            records: 0,
            bytes: WAL_HEADER_LEN,
            poison: None,
        })
    }

    /// Reopens the log at `path` for appending after a scan of its image
    /// ([`scan_records`]) found `records` whole records in its first
    /// `valid_len` bytes: a torn tail is truncated away (and the cut
    /// fsync'd), a torn creation (`valid_len` 0) is rebuilt as an empty log.
    /// A log with mid-log corruption never gets here: its scan refuses.
    pub fn resume_on(
        fs: &dyn StorageFs,
        path: &Path,
        valid_len: u64,
        records: u64,
        tail: TailStatus,
    ) -> Result<Wal, DurabilityError> {
        let mut file = fs.open_file(path)?;
        if valid_len < WAL_HEADER_LEN {
            file.set_len(0)?;
            file.seek_start(0)?;
            return Self::fresh(fs, file, path);
        }
        if tail == TailStatus::TornDiscarded {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek_start(valid_len)?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            records,
            bytes: valid_len,
            poison: None,
        })
    }

    /// Appends one record **without** fsync'ing it: the payload survives a
    /// crash only once a later [`sync`](Self::sync) returns `Ok`, and callers
    /// release the covered result only after that. The record is framed and
    /// written, but a crash before the next [`sync`](Self::sync) may lose it
    /// (recovery sees at most a torn tail, never misframing — writes land in
    /// append order). Group commit uses this to write a whole batch and pay
    /// for one fsync.
    pub fn append_unsynced(&mut self, payload: &[u8]) -> Result<(), DurabilityError> {
        assert!(
            payload.len() as u64 <= u64::from(MAX_RECORD_LEN),
            "WAL record over MAX_RECORD_LEN"
        );
        self.check_poison()?;
        let mut frame = begin_frame(payload.len());
        frame.extend_from_slice(payload);
        seal_frame(&mut frame);

        if let Err(ioe) = self.file.write_all(&frame) {
            // An unknown prefix of the frame may be on disk; a later append
            // would land after garbage and turn a torn tail into mid-log
            // corruption. Poison the handle so that cannot happen.
            self.poison = Some(format!("append write failed: {ioe}"));
            return Err(DurabilityError::Io(ioe));
        }
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs everything appended so far (the group-commit barrier). On
    /// `Ok`, every previously appended record survives any subsequent crash.
    ///
    /// On `Err` the handle is permanently poisoned: the kernel may have
    /// discarded the dirty pages, so nothing appended since the last
    /// successful sync can ever be acknowledged from this handle.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.check_poison()?;
        if let Err(ioe) = self.file.sync_data() {
            return Err(self.poison_sync("sync_data", &ioe));
        }
        Ok(())
    }

    fn check_poison(&self) -> Result<(), DurabilityError> {
        match &self.poison {
            Some(why) => Err(DurabilityError::SyncFailed(why.clone())),
            None => Ok(()),
        }
    }

    fn poison_sync(&mut self, op: &str, e: &std::io::Error) -> DurabilityError {
        let why = format!("{op} on {}: {e}", self.path.display());
        self.poison = Some(why.clone());
        DurabilityError::SyncFailed(why)
    }

    /// Records appended or recovered so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total valid bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Scans a WAL byte image: returns the valid payloads, the byte length of
/// the valid prefix, and the tail status. Pure: it reads nothing and
/// writes nothing.
///
/// An image shorter than the header is a torn creation — a crash or I/O
/// fault inside [`Wal::create_on`] before the header became durable, so no
/// record was ever acknowledged through it: no payloads, a valid prefix of
/// 0 bytes, and [`TailStatus::TornDiscarded`]. A *complete* header with
/// the wrong magic or version is corruption, not a tear.
///
/// # Errors
/// [`DurabilityError::BadWalHeader`] on a bad header;
/// [`DurabilityError::CorruptRecord`] when a bad record is followed by
/// valid data (mid-log corruption).
pub fn scan_records(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, u64, TailStatus), DurabilityError> {
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        return Ok((Vec::new(), 0, TailStatus::TornDiscarded));
    }
    let scan = scan_frames(bytes);
    let tail = match scan.verdict {
        WalVerdict::BadHeader => return Err(DurabilityError::BadWalHeader),
        // Truncating at the bad frame would lose the committed records
        // after it — that is corruption, not a torn tail.
        WalVerdict::MidLogCorruption => {
            let bad = scan.bad.expect("mid-log corruption reports its bad frame");
            return Err(DurabilityError::CorruptRecord {
                record: bad.index,
                offset: bad.offset,
                reason: bad.reason,
            });
        }
        WalVerdict::Clean => TailStatus::Clean,
        WalVerdict::TornTail => TailStatus::TornDiscarded,
    };
    let payloads = scan
        .frames
        .iter()
        .map(|f| bytes[f.offset as usize + FRAME_HEADER_LEN..][..f.len as usize].to_vec())
        .collect();
    Ok((payloads, scan.valid_len, tail))
}

enum FrameStatus<'a> {
    /// Offset is exactly at end-of-image.
    End,
    /// A well-formed frame.
    Valid { payload: &'a [u8], next: usize },
    /// A damaged frame; `skip_to` is the end offset its length field claims
    /// (when that offset is in bounds).
    Bad {
        reason: &'static str,
        skip_to: Option<usize>,
    },
}

fn frame_at(bytes: &[u8], pos: usize) -> FrameStatus<'_> {
    let rem = bytes.len() - pos;
    if rem == 0 {
        return FrameStatus::End;
    }
    if rem < FRAME_HEADER_LEN {
        return FrameStatus::Bad {
            reason: "truncated frame header",
            skip_to: None,
        };
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_LEN as usize {
        return FrameStatus::Bad {
            reason: "implausible record length",
            skip_to: None,
        };
    }
    let Some(end) = pos
        .checked_add(FRAME_HEADER_LEN + len)
        .filter(|&e| e <= bytes.len())
    else {
        return FrameStatus::Bad {
            reason: "record extends past end of log",
            skip_to: None,
        };
    };
    if !frame_is_intact(&bytes[pos..end]) {
        return FrameStatus::Bad {
            reason: "checksum mismatch",
            skip_to: Some(end),
        };
    }
    FrameStatus::Valid {
        payload: &bytes[pos + FRAME_HEADER_LEN..end],
        next: end,
    }
}

/// Whether any valid frame exists in `bytes[from..]` (used to tell a torn
/// tail from mid-log corruption).
fn chain_has_valid_frame(bytes: &[u8], mut from: usize) -> bool {
    loop {
        match frame_at(bytes, from) {
            FrameStatus::Valid { .. } => return true,
            FrameStatus::End | FrameStatus::Bad { skip_to: None, .. } => return false,
            FrameStatus::Bad {
                skip_to: Some(next),
                ..
            } => {
                if next <= from {
                    return false;
                }
                from = next;
            }
        }
    }
}

/// One CRC-valid frame found by [`scan_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Zero-based record index.
    pub index: u64,
    /// Byte offset of the frame header within the image.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Overall classification of a WAL byte image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalVerdict {
    /// Every frame checks out and the image ends on a record boundary.
    Clean,
    /// The *final* record is partial or checksum-failing — normal crash
    /// residue; recovery truncates it without losing acknowledged state.
    TornTail,
    /// A bad frame is *followed by* valid data: damage inside the committed
    /// prefix (bitrot or tampering). Recovery refuses to open such a log.
    MidLogCorruption,
    /// The image has no recognizable WAL header.
    BadHeader,
}

/// Details of the first damaged frame, when any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadFrame {
    /// Zero-based index the damaged frame would have had.
    pub index: u64,
    /// Byte offset where it starts.
    pub offset: u64,
    /// What failed.
    pub reason: &'static str,
}

/// Frame-by-frame scan result: every valid frame plus a damage verdict.
///
/// Unlike [`scan_records`], producing this never errors — a post-mortem
/// lists the frames of a damaged image rather than refuse to look at it.
#[derive(Debug, Clone)]
pub struct FrameScan {
    /// Every CRC-valid frame, in order.
    pub frames: Vec<FrameInfo>,
    /// Byte length of the valid prefix (header included); 0 for
    /// [`WalVerdict::BadHeader`].
    pub valid_len: u64,
    /// Overall classification of the image.
    pub verdict: WalVerdict,
    /// The first damaged frame (`TornTail` / `MidLogCorruption` only).
    pub bad: Option<BadFrame>,
}

/// Scans a WAL image frame by frame, classifying rather than erroring.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    if bytes.len() < WAL_HEADER_LEN as usize
        || &bytes[..4] != WAL_MAGIC
        || u16::from_le_bytes([bytes[4], bytes[5]]) != WAL_VERSION
    {
        return FrameScan {
            frames: Vec::new(),
            valid_len: 0,
            verdict: WalVerdict::BadHeader,
            bad: None,
        };
    }
    let mut frames = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        match frame_at(bytes, pos) {
            FrameStatus::End => {
                return FrameScan {
                    frames,
                    valid_len: pos as u64,
                    verdict: WalVerdict::Clean,
                    bad: None,
                }
            }
            FrameStatus::Valid { payload, next } => {
                frames.push(FrameInfo {
                    index: frames.len() as u64,
                    offset: pos as u64,
                    len: payload.len() as u32,
                });
                pos = next;
            }
            FrameStatus::Bad { reason, skip_to } => {
                // Tail damage or mid-log corruption? Any *valid* frame past
                // the bad one means committed records lie beyond it.
                let verdict = if skip_to.is_some_and(|o| chain_has_valid_frame(bytes, o)) {
                    WalVerdict::MidLogCorruption
                } else {
                    WalVerdict::TornTail
                };
                return FrameScan {
                    bad: Some(BadFrame {
                        index: frames.len() as u64,
                        offset: pos as u64,
                        reason,
                    }),
                    frames,
                    valid_len: pos as u64,
                    verdict,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::RealFs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    impl Wal {
        /// Reads, scans and resumes the log at `path`, the way recovery
        /// does: the log, positioned for appending, and its payloads.
        fn open_on(
            fs: &dyn StorageFs,
            path: &Path,
        ) -> Result<(Wal, Vec<Vec<u8>>, TailStatus), DurabilityError> {
            let (payloads, valid_len, tail) = scan_records(&fs.read(path)?)?;
            let wal = Self::resume_on(fs, path, valid_len, payloads.len() as u64, tail)?;
            Ok((wal, payloads, tail))
        }
    }

    /// One durable append: the record, then the barrier.
    fn append(wal: &mut Wal, payload: &[u8]) -> Result<(), DurabilityError> {
        wal.append_unsynced(payload)?;
        wal.sync()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-edbms-dur-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    /// The bytewise loop the slice-by-16 kernel replaced, kept as the
    /// reference the kernel is tested against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_at_every_short_length() {
        // Every remainder length around one, two … five 16-byte blocks.
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in 0..=buf.len() {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
    }

    mod crc_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn slice_by_16_matches_bytewise(buf in proptest::collection::vec(any::<u8>(), 0..2048usize)) {
                prop_assert_eq!(crc32(&buf), crc32_bytewise(&buf));
            }

            #[test]
            fn update_is_split_invariant(buf in proptest::collection::vec(any::<u8>(), 0..200usize)) {
                let whole = crc32(&buf);
                for cut in 0..=buf.len() {
                    let mut crc = Crc32::new();
                    crc.update(&buf[..cut]);
                    crc.update(&buf[cut..]);
                    prop_assert_eq!(crc.finish(), whole, "cut {}", cut);
                }
            }
        }
    }

    #[test]
    fn golden_wal_decodes_and_reencodes_byte_for_byte() {
        // Written by the commit before the slice-by-16 kernel: header,
        // `"first golden record"`, then 37 × `0xA5`.
        let golden: &[u8] = include_bytes!("../tests/fixtures/parent_wal.bin");
        let (payloads, valid_len, tail) = scan_records(golden).expect("parent-written log scans");
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(valid_len, golden.len() as u64);
        assert_eq!(
            payloads,
            vec![b"first golden record".to_vec(), vec![0xA5; 37]]
        );

        let dir = tmpdir("golden");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create_on(&RealFs, &path).expect("create");
        for p in &payloads {
            append(&mut wal, p).expect("append");
        }
        drop(wal);
        assert_eq!(std::fs::read(&path).expect("read back"), golden);
    }

    #[test]
    fn append_and_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create_on(&RealFs, &path).expect("create");
        for i in 0..20u32 {
            append(&mut wal, &i.to_le_bytes()).expect("append");
        }
        assert_eq!(wal.records(), 20);
        drop(wal);
        let (wal, payloads, tail) = Wal::open_on(&RealFs, &path).expect("reopen");
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(wal.records(), 20);
        let expect: Vec<Vec<u8>> = (0..20u32).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(payloads, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_payloads_are_legal_records() {
        let dir = tmpdir("empty");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create_on(&RealFs, &path).expect("create");
        append(&mut wal, &[]).expect("append empty");
        append(&mut wal, b"x").expect("append");
        drop(wal);
        let (_, payloads, tail) = Wal::open_on(&RealFs, &path).expect("reopen");
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(payloads, vec![Vec::new(), b"x".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create_on(&RealFs, &path).expect("create");
        append(&mut wal, b"first").expect("append");
        append(&mut wal, b"second").expect("append");
        drop(wal);
        // Chop the last record in half.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("write");
        let (wal, payloads, tail) = Wal::open_on(&RealFs, &path).expect("reopen");
        assert_eq!(tail, TailStatus::TornDiscarded);
        assert_eq!(payloads, vec![b"first".to_vec()]);
        // The torn bytes are physically gone; a fresh append lands cleanly.
        let mut wal = wal;
        append(&mut wal, b"third").expect("append after truncate");
        drop(wal);
        let (_, payloads, tail) = Wal::open_on(&RealFs, &path).expect("reopen 2");
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(payloads, vec![b"first".to_vec(), b"third".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_bit_flip_is_discarded_but_mid_log_flip_is_fatal() {
        let dir = tmpdir("flips");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create_on(&RealFs, &path).expect("create");
        append(&mut wal, &[0xAA; 32]).expect("append");
        append(&mut wal, &[0xBB; 32]).expect("append");
        append(&mut wal, &[0xCC; 32]).expect("append");
        drop(wal);
        let good = std::fs::read(&path).expect("read");

        // Flip a bit inside the LAST record's payload: torn-tail semantics.
        let mut tail_flip = good.clone();
        let last_payload_mid = good.len() - 16;
        tail_flip[last_payload_mid] ^= 0x01;
        std::fs::write(&path, &tail_flip).expect("write");
        let (_, payloads, tail) = Wal::open_on(&RealFs, &path).expect("reopen");
        assert_eq!(tail, TailStatus::TornDiscarded);
        assert_eq!(payloads.len(), 2, "first two records survive");

        // Flip a bit inside the FIRST record: valid records follow ⇒ hard
        // error, the log refuses to open.
        let mut mid_flip = good.clone();
        mid_flip[WAL_HEADER_LEN as usize + 8 + 4] ^= 0x01;
        std::fs::write(&path, &mid_flip).expect("write");
        let err = Wal::open_on(&RealFs, &path).expect_err("must refuse");
        assert!(
            matches!(err, DurabilityError::CorruptRecord { record: 0, .. }),
            "unexpected: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn length_field_damage_on_tail_is_discarded() {
        let dir = tmpdir("lenflip");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create_on(&RealFs, &path).expect("create");
        append(&mut wal, &[1u8; 16]).expect("append");
        append(&mut wal, &[2u8; 16]).expect("append");
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        // Blow up the last record's length field to an absurd value.
        let last_frame = bytes.len() - 24;
        bytes[last_frame..last_frame + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let (_, payloads, tail) = Wal::open_on(&RealFs, &path).expect("reopen");
        assert_eq!(tail, TailStatus::TornDiscarded);
        assert_eq!(payloads, vec![vec![1u8; 16]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_headers_rejected() {
        let dir = tmpdir("hdr");
        let path = dir.join("wal.0.log");
        // A complete header with wrong magic or version is corruption.
        std::fs::write(&path, b"nope\x00\x00\x00\x00").expect("write");
        assert!(matches!(
            Wal::open_on(&RealFs, &path),
            Err(DurabilityError::BadWalHeader)
        ));
        std::fs::write(&path, b"PWAL\xFF\xFF\x00\x00").expect("write");
        assert!(matches!(
            Wal::open_on(&RealFs, &path),
            Err(DurabilityError::BadWalHeader)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sub_header_file_is_a_torn_creation_and_rebuilds_empty() {
        let dir = tmpdir("torncreate");
        let path = dir.join("wal.0.log");
        // A crash or I/O fault inside create_on leaves fewer than 8 bytes;
        // nothing was ever acknowledged, so reopen rebuilds an empty log.
        std::fs::write(&path, b"PWA").expect("write");
        let (mut wal, payloads, tail) =
            Wal::open_on(&RealFs, &path).expect("torn creation reopens");
        assert!(payloads.is_empty());
        assert_eq!(tail, TailStatus::TornDiscarded);
        append(&mut wal, b"first").expect("rebuilt log accepts appends");
        drop(wal);
        let (_, payloads, tail) = Wal::open_on(&RealFs, &path).expect("reopen");
        assert_eq!(payloads, vec![b"first".to_vec()]);
        assert_eq!(tail, TailStatus::Clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_write_recovers_previous_records() {
        let dir = tmpdir("injtorn");
        let path = dir.join("wal.0.log");
        // The header and the first record are whole; the next write tears.
        let fs = FlakyFs::new(u64::MAX, 2);
        let mut wal = Wal::create_on(&fs, &path).expect("create");
        append(&mut wal, b"committed").expect("append");
        let err = append(&mut wal, b"doomed-record-payload").expect_err("must tear");
        assert!(matches!(err, DurabilityError::Io(_)), "unexpected: {err}");
        let err = wal.append_unsynced(b"after").expect_err("poisoned");
        assert!(matches!(err, DurabilityError::SyncFailed(_)));
        drop(wal);
        // What reached the disk is a strict, non-empty prefix of the frame
        // a completed append would have written.
        let torn = std::fs::read(&path).expect("read torn log");
        let whole_dir = tmpdir("injtorn-whole");
        let whole_path = whole_dir.join("wal.0.log");
        let mut whole = Wal::create_on(&RealFs, &whole_path).expect("create");
        append(&mut whole, b"committed").expect("append");
        let committed_len = whole.bytes() as usize;
        append(&mut whole, b"doomed-record-payload").expect("append");
        drop(whole);
        let whole = std::fs::read(&whole_path).expect("read whole log");
        assert!(torn.len() > committed_len && torn.len() < whole.len());
        assert_eq!(torn, whole[..torn.len()]);
        std::fs::remove_dir_all(&whole_dir).ok();
        // The torn record is on disk; recovery discards exactly it.
        let (_, payloads, tail) = Wal::open_on(&RealFs, &path).expect("recover");
        assert_eq!(tail, TailStatus::TornDiscarded);
        assert_eq!(payloads, vec![b"committed".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A [`StorageFs`] whose files fail every sync after the first
    /// `ok_syncs`, and tear every write after the first `ok_writes` (half
    /// the buffer lands, then the error) — the smallest possible model of
    /// a dying disk.
    #[derive(Debug)]
    struct FlakyFs(Arc<Budget>);

    #[derive(Debug)]
    struct Budget {
        ok_syncs: u64,
        ok_writes: u64,
        syncs: AtomicU64,
        writes: AtomicU64,
    }

    impl FlakyFs {
        fn new(ok_syncs: u64, ok_writes: u64) -> Self {
            FlakyFs(Arc::new(Budget {
                ok_syncs,
                ok_writes,
                syncs: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            }))
        }
    }

    #[derive(Debug)]
    struct FlakyFile {
        inner: Box<dyn StorageFile>,
        budget: Arc<Budget>,
    }

    impl FlakyFile {
        fn tick(&self) -> std::io::Result<()> {
            if self.budget.syncs.fetch_add(1, Ordering::Relaxed) >= self.budget.ok_syncs {
                Err(std::io::Error::other("injected EIO on fsync"))
            } else {
                Ok(())
            }
        }
    }

    impl StorageFile for FlakyFile {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            if self.budget.writes.fetch_add(1, Ordering::Relaxed) >= self.budget.ok_writes {
                self.inner.write_all(&buf[..buf.len() / 2])?;
                return Err(std::io::Error::other("injected torn write"));
            }
            self.inner.write_all(buf)
        }
        fn read_to_end(&mut self, buf: &mut Vec<u8>) -> std::io::Result<usize> {
            self.inner.read_to_end(buf)
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.tick()?;
            self.inner.sync_data()
        }
        fn sync_all(&mut self) -> std::io::Result<()> {
            self.tick()?;
            self.inner.sync_all()
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
        fn seek_start(&mut self, pos: u64) -> std::io::Result<()> {
            self.inner.seek_start(pos)
        }
    }

    impl StorageFs for FlakyFs {
        fn create_file(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(FlakyFile {
                inner: RealFs.create_file(path)?,
                budget: Arc::clone(&self.0),
            }))
        }
        fn open_file(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(FlakyFile {
                inner: RealFs.open_file(path)?,
                budget: Arc::clone(&self.0),
            }))
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            RealFs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealFs.write(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealFs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealFs.remove_file(path)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealFs.create_dir_all(path)
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            RealFs.sync_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            RealFs.exists(path)
        }
        fn read_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
            RealFs.read_dir(dir)
        }
    }

    #[test]
    fn failed_sync_poisons_wal_and_never_acks_again() {
        let dir = tmpdir("synfail");
        let path = dir.join("wal.0.log");
        // Creation syncs once (the header); the next sync — the first
        // commit barrier — fails.
        let fs = FlakyFs::new(1, u64::MAX);
        let mut wal = Wal::create_on(&fs, &path).expect("create");
        let err = append(&mut wal, b"doomed").expect_err("sync must fail");
        assert!(
            matches!(err, DurabilityError::SyncFailed(_)),
            "unexpected: {err}"
        );
        // Poisoned handles refuse everything, even operations whose own
        // syscalls would succeed: no retry-and-assume-durable.
        let err = wal.append_unsynced(b"after").expect_err("poisoned");
        assert!(matches!(err, DurabilityError::SyncFailed(_)));
        let err = wal.sync().expect_err("poisoned");
        assert!(matches!(err, DurabilityError::SyncFailed(_)));
        drop(wal);
        // Reopen on a healthy filesystem: the unacknowledged record may or
        // may not have reached the platter; either way the log opens and
        // holds only whole frames.
        let (_, payloads, _) = Wal::open_on(&RealFs, &path).expect("reopen");
        assert!(payloads.len() <= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_frames_classifies_every_damage_shape() {
        let dir = tmpdir("frames");
        let path = dir.join("wal.0.log");
        let mut wal = Wal::create_on(&RealFs, &path).expect("create");
        append(&mut wal, &[0xAA; 24]).expect("append");
        append(&mut wal, &[0xBB; 24]).expect("append");
        append(&mut wal, &[0xCC; 24]).expect("append");
        drop(wal);
        let good = std::fs::read(&path).expect("read");

        let scan = scan_frames(&good);
        assert_eq!(scan.verdict, WalVerdict::Clean);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.valid_len, good.len() as u64);
        assert_eq!(scan.frames[0].offset, WAL_HEADER_LEN);
        assert_eq!(scan.frames[0].len, 24);
        assert!(scan.bad.is_none());

        // Chop the tail: TornTail with two survivors.
        let scan = scan_frames(&good[..good.len() - 5]);
        assert_eq!(scan.verdict, WalVerdict::TornTail);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.bad.expect("bad frame").index, 2);

        // Flip a byte in the first record: MidLogCorruption at index 0.
        let mut flipped = good.clone();
        flipped[WAL_HEADER_LEN as usize + 8] ^= 0x01;
        let scan = scan_frames(&flipped);
        assert_eq!(scan.verdict, WalVerdict::MidLogCorruption);
        assert!(scan.frames.is_empty());
        let bad = scan.bad.expect("bad frame");
        assert_eq!((bad.index, bad.offset), (0, WAL_HEADER_LEN));

        // Garbage image: BadHeader.
        assert_eq!(scan_frames(b"nope").verdict, WalVerdict::BadHeader);
        std::fs::remove_dir_all(&dir).ok();
    }
}
