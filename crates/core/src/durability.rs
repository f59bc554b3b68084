//! Durable, crash-recoverable PRKB: one WAL-backed commit path.
//!
//! A [`PrkbEngine`] whose whole value is
//! *accumulated* (every answered query refines the index, §5.3) must not
//! lose that accumulation to a process crash. A durable pool is **one
//! engine directory**: a checkpoint (immutable segment files behind an
//! atomically swapped manifest, [`crate::lsm`]) and the epoch-tagged WAL
//! that follows it, both written by one crate-private type — `Committer`.
//! [`ShardedDurablePool`] opens and recovers that directory and hands the
//! recovered engine and its committer to the one driver of the commit
//! protocol,
//! [`SessionScheduler::durable`](crate::scheduler::SessionScheduler::durable).
//!
//! * every committed mutation is journaled as [`RefinementOp`]s and
//!   enqueued as **one write-ahead-log transaction per committed operation
//!   that changed anything**, whatever attributes it spans (an
//!   operation that refined nothing journals nothing). Durability is a
//!   property of *facts*: a transaction holding an insert, a delete or an
//!   init is acknowledged only after the committer reports it fsync'd, and
//!   because the log is sequential that fsync carries every earlier
//!   refinement with it. A transaction of derived ops only
//!   (`RefinementOp::is_derived` — knowledge SP can re-derive from QPF
//!   outputs it will see again, §5.3) is acknowledged at once and rides the
//!   next fsync; the un-synced tail it joins is bounded
//!   ([`EngineConfig::group_commit_records`] records or
//!   `DEFERRED_TAIL_BYTES`), the commit that fills it waits out the flush.
//!   Commits that arrive while an fsync is in flight share the next one
//!   (group commit);
//! * the WAL is **checkpoint-rotated** by policy
//!   ([`EngineConfig::checkpoint_wal_records`] /
//!   [`EngineConfig::checkpoint_wal_bytes`]): the partitions dirtied since
//!   the last rotation are written as one new segment, the manifest is
//!   swapped to epoch `E+1` listing only the segments that still hold the
//!   newest version of some partition, and only then is a fresh
//!   `wal.<E+1>.log` started and the stale log and superseded segments
//!   removed;
//! * **recovery** is a read phase, which writes nothing, then an apply
//!   phase. The read phase loads the newest version of every partition
//!   from the segment set, replays the manifest epoch's WAL, reads past a
//!   torn tail (partial final record — the residue of a crash mid-append),
//!   and refuses on mid-log corruption (a bad record *followed by* valid
//!   ones) or on a record that does not replay — restoring an engine
//!   equivalent to a prefix of the pool's commit order that contains
//!   every acknowledged insert, delete and init, `validate()`d before use.
//!   Only then does the apply phase truncate the tail, remove the residue
//!   and arm the WAL. The scrubber ([`crate::scrub`]) is the read phase
//!   reported file by file.
//! * a pool of the **previous, per-shard layout** is read by the same read
//!   phase, shard directory by shard directory, merged, and converted by
//!   the apply phase (`Committer::convert`).
//!
//! Epochs make the checkpoint/WAL pair crash-consistent without ever
//! truncating a live log: the manifest at epoch `E+1` subsumes
//! `wal.<E>.log` *by construction* (its segments serialize the in-memory
//! state that log produced), so a crash between the manifest swap and the
//! old log's removal cannot double-replay — recovery only ever reads the
//! WAL whose epoch matches the manifest.

use crate::engine::{EngineConfig, PrkbEngine, QueryError};
use crate::knowledge::RefinementOp;
use crate::lsm::manifest::{read_segment_manifest, write_segment_manifest, SegmentManifest};
use crate::lsm::reader::SegmentStore;
use crate::lsm::segment::{parse_segment_name, retire_segments, segment_file_name, write_segment};
use crate::lsm::SEGMENT_MANIFEST_FILE;
use crate::metrics::Metric;
use crate::pop::SplitBits;
use crate::scheduler::ShardMap;
use crate::snapshot::{self, WireCodec};
use crate::traits::SpPredicate;
use prkb_edbms::codec::{unseal, Reader};
use prkb_edbms::durability::{scan_records, CrashInjector, DurabilityError, TailStatus, Wal};
use prkb_edbms::{real_fs, AttrId, StorageFs, TupleId};
use std::collections::BTreeSet;
use std::fmt;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Errors raised by a durable (or scheduled) operation.
#[derive(Debug)]
pub enum DurableError {
    /// The storage layer failed (I/O — an injected fault or crash included —
    /// a failed barrier, WAL framing).
    Storage(DurabilityError),
    /// The query itself failed (oracle, uninitialized attribute). The
    /// in-memory engine is abort-safe and nothing was logged.
    Query(QueryError),
    /// A CRC-valid WAL record failed to decode or to replay cleanly —
    /// corruption that slipped past framing; the engine refuses to open.
    CorruptWal(&'static str),
    /// A previous-layout pool manifest (`manifest.bin`) is damaged, or
    /// does not account for a `shard.<i>/` directory present (it is
    /// missing, or declares fewer): real corruption, for that layout wrote
    /// it first — and converting anyway would drop a shard's history.
    CorruptManifest(&'static str),
    /// A checkpoint segment or the segment manifest ([`crate::lsm`]) is
    /// damaged: torn framing, a CRC-failing block, or a manifest
    /// referencing a missing segment. Published segments are immutable and
    /// manifests swap atomically, so this is corruption, never crash residue.
    CorruptSegment(&'static str),
    /// A previous durability failure left the in-memory state possibly
    /// ahead of the disk; the pool refuses further work. Reopen from
    /// disk to resume from the durable state.
    Poisoned,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Storage(e) => write!(f, "{e}"),
            DurableError::Query(e) => write!(f, "{e}"),
            DurableError::CorruptWal(what) => write!(f, "corrupt WAL record: {what}"),
            DurableError::CorruptManifest(what) => write!(f, "corrupt shard manifest: {what}"),
            DurableError::CorruptSegment(what) => write!(f, "corrupt segment storage: {what}"),
            DurableError::Poisoned => write!(
                f,
                "engine poisoned by an earlier durability failure; reopen from disk"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Storage(e) => Some(e),
            DurableError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DurabilityError> for DurableError {
    fn from(e: DurabilityError) -> Self {
        DurableError::Storage(e)
    }
}

impl From<QueryError> for DurableError {
    fn from(e: QueryError) -> Self {
        DurableError::Query(e)
    }
}

/// What opening a pool found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a checkpoint was loaded (false ⇒ cold directory or
    /// WAL-only recovery from epoch 0).
    pub checkpoint_loaded: bool,
    /// Committed WAL transactions replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Whether a torn tail was discarded from the WAL.
    pub tail: TailStatus,
    /// The active checkpoint/WAL epoch.
    pub epoch: u64,
    /// Live segment files referenced by the manifest (0 on a cold
    /// directory).
    pub segments_live: u64,
}

// ---------------------------------------------------------------------------
// Wire codec: ops and transactions
// ---------------------------------------------------------------------------

/// One entry of a WAL transaction: an attribute initialization or a
/// journaled mutation.
#[derive(Debug, Clone)]
pub enum TxnEntry<P> {
    /// `initPRKB(attr, n)` — replayed as [`PrkbEngine::init_attr`].
    Init {
        /// The initialized attribute.
        attr: AttrId,
        /// Tuple-slot count at initialization.
        n: u64,
    },
    /// A journaled mutation of one attribute's knowledge base.
    Op {
        /// The mutated attribute.
        attr: AttrId,
        /// The mutation.
        op: RefinementOp<P>,
    },
}

impl<P> TxnEntry<P> {
    /// The attribute the entry initializes or mutates.
    fn attr(&self) -> AttrId {
        match self {
            TxnEntry::Init { attr, .. } | TxnEntry::Op { attr, .. } => *attr,
        }
    }
}

/// One entry the way a post-mortem reads it: `init attr 3 n=140`,
/// `attr 0 split`.
impl<P> fmt::Display for TxnEntry<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (attr, op) = match self {
            TxnEntry::Init { attr, n } => return write!(f, "init attr {attr} n={n}"),
            TxnEntry::Op { attr, op } => (attr, op),
        };
        let kind = match op {
            RefinementOp::Split { .. } => "split",
            RefinementOp::Delete { .. } => "delete",
            RefinementOp::Park { .. } => "park",
            RefinementOp::Place { .. } => "place",
            RefinementOp::Solo { .. } => "solo",
            RefinementOp::Refine { .. } => "refine",
        };
        write!(f, "attr {attr} {kind}")
    }
}

fn encode_op<P: WireCodec>(op: &RefinementOp<P>, out: &mut Vec<u8>) {
    match op {
        RefinementOp::Split { rank, left, sep } => {
            out.push(6);
            out.extend_from_slice(&(*rank as u64).to_le_bytes());
            snapshot::encode_separator_into(sep.as_ref(), out);
            out.extend_from_slice(&(left.len() as u32).to_le_bytes());
            out.extend_from_slice(left.as_bytes());
        }
        RefinementOp::Delete { tuple } => {
            out.push(1);
            out.extend_from_slice(&tuple.to_le_bytes());
        }
        RefinementOp::Park { tuple, lo, hi } => {
            out.push(2);
            out.extend_from_slice(&tuple.to_le_bytes());
            out.extend_from_slice(&(*lo as u64).to_le_bytes());
            out.extend_from_slice(&(*hi as u64).to_le_bytes());
        }
        RefinementOp::Place { tuple, rank } => {
            out.push(3);
            out.extend_from_slice(&tuple.to_le_bytes());
            out.extend_from_slice(&(*rank as u64).to_le_bytes());
        }
        RefinementOp::Solo { tuple } => {
            out.push(4);
            out.extend_from_slice(&tuple.to_le_bytes());
        }
        RefinementOp::Refine {
            cut,
            left_label,
            outputs,
        } => {
            out.push(5);
            out.extend_from_slice(&(*cut as u64).to_le_bytes());
            out.push(u8::from(*left_label));
            out.extend_from_slice(&(outputs.len() as u32).to_le_bytes());
            for (t, o) in outputs {
                out.extend_from_slice(&t.to_le_bytes());
                out.push(u8::from(*o));
            }
        }
    }
}

/// The previous generation's split record (op tag 0) carried both member
/// lists, each in the order its partition then held them. Their union is
/// the partition, so sorted it is the ascending order the bits index.
fn decode_split_lists(r: &mut Reader<'_>) -> Result<SplitBits, &'static str> {
    let mut members: Vec<(TupleId, bool)> = Vec::new();
    for left in [true, false] {
        let n = r.count(4)?;
        members.extend(r.u32s(n)?.into_iter().map(|t| (t, left)));
    }
    members.sort_unstable_by_key(|m| m.0);
    if members.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err("split lists overlap");
    }
    Ok(members.into_iter().map(|m| m.1).collect())
}

fn decode_op<P: WireCodec>(r: &mut Reader<'_>) -> Result<RefinementOp<P>, &'static str> {
    Ok(match r.u8()? {
        0 => RefinementOp::Split {
            rank: r.u64()? as usize,
            sep: snapshot::decode_separator(r).map_err(|_| "separator")?,
            left: decode_split_lists(r)?,
        },
        6 => {
            let rank = r.u64()? as usize;
            let sep = snapshot::decode_separator(r).map_err(|_| "separator")?;
            let n = r.u32()? as usize;
            let left = SplitBits::from_bytes(n, r.bytes(n.div_ceil(8))?)?;
            RefinementOp::Split { rank, left, sep }
        }
        1 => RefinementOp::Delete { tuple: r.u32()? },
        2 => RefinementOp::Park {
            tuple: r.u32()?,
            lo: r.u64()? as usize,
            hi: r.u64()? as usize,
        },
        3 => RefinementOp::Place {
            tuple: r.u32()?,
            rank: r.u64()? as usize,
        },
        4 => RefinementOp::Solo { tuple: r.u32()? },
        5 => {
            let cut = r.u64()? as usize;
            let left_label = r.u8()? != 0;
            let n = r.count(5)?;
            let mut outputs = Vec::with_capacity(n);
            for _ in 0..n {
                outputs.push((r.u32()?, r.u8()? != 0));
            }
            RefinementOp::Refine {
                cut,
                left_label,
                outputs,
            }
        }
        _ => return Err("unknown op tag"),
    })
}

/// Encodes one WAL transaction payload: `count u32 | entries`, entry =
/// `kind u8` (0 = Init `attr u32 | n u64`, 1 = Op `attr u32 | op`).
pub fn encode_txn<P: WireCodec>(entries: &[TxnEntry<P>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + entries.len() * 16);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        match e {
            TxnEntry::Init { attr, n } => {
                out.push(0);
                out.extend_from_slice(&attr.to_le_bytes());
                out.extend_from_slice(&n.to_le_bytes());
            }
            TxnEntry::Op { attr, op } => {
                out.push(1);
                out.extend_from_slice(&attr.to_le_bytes());
                encode_op(op, &mut out);
            }
        }
    }
    out
}

/// Decodes one WAL transaction payload.
///
/// # Errors
/// What is structurally wrong. These payloads sit behind a CRC, so damage
/// here means corruption beyond bit-rot framing.
pub fn decode_txn<P: WireCodec>(bytes: &[u8]) -> Result<Vec<TxnEntry<P>>, &'static str> {
    let mut r = Reader::new(bytes);
    // The smallest entry is an Op holding a Delete: 10 bytes.
    let count = r.count(10)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let (kind, attr) = (r.u8()?, r.u32()?);
        entries.push(match kind {
            0 => TxnEntry::Init { attr, n: r.u64()? },
            1 => TxnEntry::Op {
                attr,
                op: decode_op(&mut r)?,
            },
            _ => return Err("unknown entry kind"),
        });
    }
    r.finish()?;
    Ok(entries)
}

// ---------------------------------------------------------------------------
// One engine directory: recovery and checkpoint flush
// ---------------------------------------------------------------------------

fn wal_name(epoch: u64) -> String {
    format!("wal.{epoch}.log")
}

/// Removes `path` (a file, or a previous-layout shard directory and all
/// under it) if it exists; any failure but a missing file is surfaced —
/// nothing in the durability paths swallows an I/O result.
fn remove_stale(fs: &dyn StorageFs, path: &Path) -> Result<(), DurableError> {
    for child in fs.read_dir(path).unwrap_or_default() {
        remove_stale(fs, &child)?;
    }
    match fs.remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(DurabilityError::Io(e).into()),
    }
}

/// What a directory's segment manifest says, as far as naming its files
/// goes. A pool that never rotated, and a previous-layout pool root, has
/// none, so it is `Absent` there.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ManifestState<'a> {
    /// No `segments.manifest`: the directory never rotated (epoch 0).
    Absent,
    /// A `segments.manifest` that does not decode: no epoch, no live set.
    Corrupt,
    /// The decoded manifest: its epoch and live segment ids.
    Valid(&'a SegmentManifest),
}

/// What a file name in a pool or engine directory stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// `wal.<epoch>.log`.
    Wal(u64),
    /// `segment.<id>.seg`.
    Segment(u64),
    /// `segments.manifest`.
    SegmentManifest,
    /// `*.tmp`: an atomic publish that never reached its rename.
    Temp,
    /// A previous-layout pool root's `manifest.bin`.
    PoolManifest,
    /// A previous-layout pool root's `shard.<i>` directory.
    Shard(usize),
}

/// The verdict on one directory entry — the read phase's, so recovery's
/// and scrub's both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    /// State: the read phase reads it.
    Live(FileKind),
    /// Crash residue: the apply phase removes it, scrub reports it (never
    /// as corruption) and may quarantine it.
    Residue(FileKind),
    /// Recovery refuses the whole directory, and touches nothing in it.
    Refused(&'static str),
    /// Not ours (`quarantine/`, an operator's notes): left alone.
    Foreign,
}

/// The one reader of a directory's names. Each rule is written here once:
/// a `checkpoint.bin` refuses, a `*.tmp` is residue, an unlisted segment is
/// residue (a `Corrupt` manifest lists nothing, so there every segment is
/// live), and `wal.<E>.log` is live at the manifest's epoch, residue when
/// older and refused when newer — the committer creates `wal.<E+1>.log`
/// only once the manifest at `E+1` is durable, so only a lost or
/// rolled-back manifest leaves one. The previous layout's `manifest.bin`
/// and `shard.<i>` are residue beside a valid root segment manifest, which
/// their conversion publishes first.
pub(crate) fn classify(name: &str, manifest: &ManifestState<'_>) -> Entry {
    use {Entry::*, FileKind::*};
    if name.ends_with(".tmp") {
        return Residue(Temp);
    }
    match name {
        // A generation-1 directory keeps its whole checkpoint in this one
        // file. Nothing reads it, so opening around it would serve an
        // empty KB over data that is still there.
        "checkpoint.bin" => {
            return Refused(
                "checkpoint.bin: a generation-1 monolithic checkpoint, which has no reader \
                 (checkpoints are segments, formats v1 and v2); the file is left untouched",
            )
        }
        SEGMENT_MANIFEST_FILE => return Live(SegmentManifest),
        _ => {}
    }
    let previous = match name {
        MANIFEST_FILE => Some(PoolManifest),
        _ => (name.strip_prefix("shard.").and_then(|i| i.parse().ok())).map(Shard),
    };
    if let Some(kind) = previous {
        return match manifest {
            ManifestState::Valid(_) => Residue(kind),
            _ => Live(kind),
        };
    }
    if let Some(id) = parse_segment_name(name) {
        return match manifest {
            ManifestState::Corrupt => Live(Segment(id)),
            ManifestState::Valid(m) if m.segments.contains(&id) => Live(Segment(id)),
            _ => Residue(Segment(id)),
        };
    }
    let Some(wal) = name
        .strip_prefix("wal.")
        .and_then(|e| e.strip_suffix(".log"))
        .and_then(|e| e.parse::<u64>().ok())
    else {
        return Foreign;
    };
    let epoch = match manifest {
        ManifestState::Absent => 0,
        ManifestState::Corrupt => return Live(Wal(wal)),
        ManifestState::Valid(m) => m.epoch,
    };
    match wal.cmp(&epoch) {
        std::cmp::Ordering::Less => Residue(Wal(wal)),
        std::cmp::Ordering::Equal => Live(Wal(wal)),
        std::cmp::Ordering::Greater => Refused(
            "a WAL newer than the segment manifest's epoch: the segment manifest is \
             missing or behind; nothing is opened, removed or created",
        ),
    }
}

/// Why the open of a directory refuses: the file it stops at, what is wrong
/// there (`record 4: place of an indexed tuple`), and what the open returns.
#[derive(Debug)]
pub(crate) struct Refusal {
    pub(crate) path: PathBuf,
    pub(crate) detail: String,
    pub(crate) error: DurableError,
}

impl Refusal {
    fn new(path: &Path, detail: impl Into<String>, error: impl Into<DurableError>) -> Self {
        let (path, detail, error) = (path.to_path_buf(), detail.into(), error.into());
        Refusal {
            path,
            detail,
            error,
        }
    }

    /// A refusal its error says enough about.
    fn of(path: &Path, error: impl Into<DurableError>) -> Self {
        let error = error.into();
        Refusal::new(path, error.to_string(), error)
    }
}

/// The read phase of one directory: every entry under its [`classify`]
/// class, and what the open serves — or why it refuses.
pub(crate) struct DirRead<P> {
    pub(crate) entries: Vec<(PathBuf, Entry)>,
    pub(crate) state: Result<DirState<P>, Refusal>,
}

/// What the open of one directory serves, and what its apply phase still
/// has to do on disk.
pub(crate) struct DirState<P> {
    /// The rebuilt engine, journaling off.
    engine: PrkbEngine<P>,
    /// The attributes the replay touched: their divergence from the
    /// stored segments.
    dirty: BTreeSet<AttrId>,
    /// The live segment set, when there is a segment manifest.
    pub(crate) store: Option<SegmentStore>,
    /// The live WAL's valid prefix in bytes; `None` when there is no WAL.
    pub(crate) wal_len: Option<u64>,
    /// The shard count a previous-layout pool root's `manifest.bin`
    /// declares; `None` in the current layout.
    pub(crate) shards: Option<usize>,
    pub(crate) report: RecoveryReport,
}

/// The read phase of one directory — the open's and scrub's both. It
/// writes nothing. It classifies the names, checks a previous-layout
/// root's manifest against its shard directories (whose own read phases
/// the open then runs), loads the newest version of every
/// partition from the segment set, reads and scans the manifest epoch's WAL
/// once, replays it, and validates every attribute the replay touched (a
/// stored partition is validated as it loads). A missing directory reads
/// as empty.
pub(crate) fn read_phase<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    config: EngineConfig,
) -> DirRead<P> {
    let manifest = read_segment_manifest(fs, dir)
        .map_err(|e| Refusal::of(&dir.join(SEGMENT_MANIFEST_FILE), e));
    let names = match &manifest {
        Ok(None) => ManifestState::Absent,
        Ok(Some(m)) => ManifestState::Valid(m),
        Err(_) => ManifestState::Corrupt,
    };
    let paths = match fs.exists(dir) {
        true => fs.read_dir(dir),
        false => Ok(Vec::new()),
    };
    let entries: Vec<(PathBuf, Entry)> = (paths.iter().flatten())
        .map(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            (path.clone(), classify(name, &names))
        })
        .collect();
    let state = manifest.and_then(|manifest| {
        paths.map_err(|e| Refusal::of(dir, DurabilityError::Io(e)))?;
        for (path, entry) in &entries {
            if let Entry::Refused(why) = entry {
                return Err(Refusal::new(path, *why, DurableError::CorruptSegment(why)));
            }
        }
        let shards = declared_shards(fs, dir, &entries)?;
        load(fs, dir, config, manifest, shards)
    });
    DirRead { entries, state }
}

/// The shard count a previous-layout root's manifest declares, checked
/// against the live `shard.<i>/` directories among `entries`: one it does
/// not declare (every one, when there is no manifest) refuses, as the
/// conversion would drop it. Fewer directories than declared is what a
/// crash during that layout's creation left — its manifest was published
/// first — and a missing one reads as empty.
fn declared_shards(
    fs: &dyn StorageFs,
    dir: &Path,
    entries: &[(PathBuf, Entry)],
) -> Result<Option<usize>, Refusal> {
    let path = dir.join(MANIFEST_FILE);
    let mut declared = None;
    if entries
        .iter()
        .any(|(_, e)| *e == Entry::Live(FileKind::PoolManifest))
    {
        let bytes = fs
            .read(&path)
            .map_err(|e| Refusal::of(&path, DurabilityError::Io(e)))?;
        declared = Some(decode_manifest(&bytes).map_err(|e| Refusal::of(&path, e))?);
    }
    let mut extra: Vec<String> = (entries.iter())
        .filter_map(|(_, e)| match e {
            Entry::Live(FileKind::Shard(i)) if declared.is_none_or(|n| *i >= n) => {
                Some(format!("shard.{i}"))
            }
            _ => None,
        })
        .collect();
    extra.sort();
    let extra = extra.join(", ");
    match declared {
        _ if extra.is_empty() => Ok(declared),
        None => Err(Refusal::new(
            &path,
            format!("missing, while {extra} exist: an open would drop their history"),
            DurableError::CorruptManifest("shard directories without a manifest"),
        )),
        Some(n) => Err(Refusal::new(
            &path,
            format!("declares {n} shard(s), but {extra} exist too"),
            DurableError::CorruptManifest("shard directories the manifest does not declare"),
        )),
    }
}

/// Loads what the open of `dir` serves: the segment set `manifest` lists,
/// then its epoch's WAL replayed on top.
fn load<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    config: EngineConfig,
    manifest: Option<SegmentManifest>,
    shards: Option<usize>,
) -> Result<DirState<P>, Refusal> {
    let mut engine = PrkbEngine::new(config);
    let store = (manifest.map(|m| SegmentStore::open(fs, dir, m)).transpose())
        .map_err(|(id, e)| Refusal::of(&dir.join(segment_file_name(id)), e))?;
    for (seg, block, newest) in store.iter().flat_map(SegmentStore::blocks) {
        if newest {
            let kb = (seg.read_block(fs, block))
                .and_then(|image| {
                    snapshot::load(&image)
                        .map_err(|_| DurableError::CorruptSegment("stored partition snapshot"))
                })
                .map_err(|e| Refusal::of(&seg.path, e))?;
            engine.restore_attr(block.attr, kb);
        }
    }
    let epoch = store.as_ref().map_or(0, |s| s.manifest().epoch);
    let wal = dir.join(wal_name(epoch));
    let (mut payloads, mut wal_len, mut tail) = (Vec::new(), None, TailStatus::Clean);
    if fs.exists(&wal) {
        let image = fs
            .read(&wal)
            .map_err(|e| Refusal::of(&wal, DurabilityError::Io(e)))?;
        let (records, valid_len, found) = scan_records(&image).map_err(|e| Refusal::of(&wal, e))?;
        (payloads, wal_len, tail) = (records, Some(valid_len), found);
    }
    let corrupt = |detail, what| Refusal::new(&wal, detail, DurableError::CorruptWal(what));
    let mut dirty = BTreeSet::new();
    for (i, payload) in payloads.iter().enumerate() {
        replay(&mut engine, &mut dirty, payload)
            .map_err(|what| corrupt(format!("record {i}: {what}"), what))?;
    }
    for &attr in &dirty {
        let kb = engine
            .knowledge(attr)
            .expect("a replayed attribute is indexed");
        let invalid = "replayed state fails validation";
        kb.validate()
            .map_err(|what| corrupt(format!("attribute {attr} after replay: {what}"), invalid))?;
    }
    Ok(DirState {
        report: RecoveryReport {
            checkpoint_loaded: store.is_some(),
            records_replayed: payloads.len() as u64,
            tail,
            epoch,
            segments_live: store.as_ref().map_or(0, |s| s.segments().len() as u64),
        },
        engine,
        dirty,
        store,
        wal_len,
        shards,
    })
}

/// Replays one WAL transaction onto `engine`, naming what does not fit.
fn replay<P: SpPredicate + WireCodec>(
    engine: &mut PrkbEngine<P>,
    dirty: &mut BTreeSet<AttrId>,
    payload: &[u8],
) -> Result<(), &'static str> {
    for entry in decode_txn::<P>(payload)? {
        dirty.insert(entry.attr());
        match entry {
            TxnEntry::Init { attr, n } => engine.init_attr(attr, n as usize),
            TxnEntry::Op { attr, op } => engine
                .knowledge_mut(attr)
                .ok_or("op for unknown attribute")?
                .try_apply_op(op)?,
        }
    }
    Ok(())
}

/// The residue among `entries`: what an apply phase removes.
fn residue(entries: &[(PathBuf, Entry)]) -> impl Iterator<Item = &Path> {
    (entries.iter())
        .filter(|(_, e)| matches!(e, Entry::Residue(_)))
        .map(|(path, _)| path.as_path())
}

/// Checkpoint flush: writes the `dirty` partitions of `engine` as one new
/// segment — O(dirty) bytes, never O(KB); nothing dirty, no segment — and
/// swaps in a manifest at `next_epoch` that lists it on top of the
/// segments still holding the newest version of some other partition
/// ([`SegmentStore::supersede`]). Returns the ids the swap dropped, for the
/// caller to unlink once the rotation is complete.
fn flush_segments<P: SpPredicate + WireCodec>(
    fs: &Arc<dyn StorageFs>,
    dir: &Path,
    engine: &PrkbEngine<P>,
    dirty: &BTreeSet<AttrId>,
    next_epoch: u64,
) -> Result<Vec<u64>, DurableError> {
    let store = read_segment_manifest(fs.as_ref(), dir)?
        .map(|m| SegmentStore::open(fs.as_ref(), dir, m))
        .transpose()
        .map_err(|(_, e)| e)?;
    let mut next_segment_id = store.as_ref().map_or(0, |s| s.manifest().next_segment_id);
    let mut blocks = Vec::new();
    for &attr in dirty {
        if let Some(kb) = engine.knowledge(attr) {
            blocks.push((attr, snapshot::save(kb)));
        }
    }
    let fresh: Vec<AttrId> = blocks.iter().map(|(attr, _)| *attr).collect();
    let (mut segments, retired) = store.map_or_else(Default::default, |s| s.supersede(&fresh));
    let m = crate::metrics::global();
    if !blocks.is_empty() {
        let flushed = write_segment(fs.as_ref(), dir, next_segment_id, &blocks)?;
        m.add(Metric::SegmentFlushBytes, flushed);
        segments.push(next_segment_id);
        next_segment_id += 1;
    }
    let segments_live = segments.len() as u64;
    write_segment_manifest(
        fs.as_ref(),
        dir,
        &SegmentManifest {
            epoch: next_epoch,
            next_segment_id,
            segments,
        },
    )?;
    m.set(Metric::SegmentsLive, segments_live);
    Ok(retired)
}

// ---------------------------------------------------------------------------
// The durable engine: the pool's WAL, group commit and rotation
// ---------------------------------------------------------------------------

/// Ack handle for one record enqueued on a [`Committer`] — its
/// `(epoch, seq)` commit position. Handed out only for a record
/// whose commit must wait (it holds a fact, or it filled the deferred
/// tail): redeem it with [`Committer::wait_durable`] before
/// acknowledging the commit to a client.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupCommitTicket {
    /// Epoch the record was enqueued under.
    epoch: u64,
    /// Sequence number within that epoch (1-based).
    seq: u64,
}

/// Mutable committer state, guarded by [`Committer::state`].
///
/// Invariant: `pending` holds the encoded payloads for exactly the
/// sequence numbers `durable_seq + in_flight + 1 ..= next_seq - 1` (in
/// order), where `in_flight` is the size of the batch a leader took out
/// while `wal` is `None`.
struct CommitterState {
    /// The pool's WAL; `None` while a leader has it out for a flush.
    wal: Option<Wal>,
    /// Active checkpoint/WAL epoch.
    epoch: u64,
    /// Encoded transaction payloads enqueued but not yet appended — the
    /// un-synced tail. Records nobody waits for (derived refinements) sit
    /// here until a waiter, a full tail, a rotation or a drain flushes it.
    pending: Vec<Vec<u8>>,
    /// Attributes whose knowledge has diverged from the last segment flush
    /// — a rotation's O(delta) working set: every attribute named by a
    /// record enqueued, or replayed at recovery, since the last rotation.
    dirty: BTreeSet<AttrId>,
    /// Next sequence number to hand out (1-based within the epoch).
    next_seq: u64,
    /// Highest sequence number known durable in the current epoch.
    durable_seq: u64,
    /// Set after a flush or rotation failure: memory may be ahead of disk.
    poisoned: bool,
    /// When the poisoning failure was a sync failure, its reason: every
    /// queued waiter then gets [`DurabilityError::SyncFailed`] — an
    /// explicit "your fsync failed", never a durable ack.
    sync_poison: Option<String>,
}

impl CommitterState {
    /// Payload bytes of the un-synced tail.
    fn pending_bytes(&self) -> u64 {
        self.pending.iter().map(|p| p.len() as u64).sum()
    }
}

/// The error a poisoned committer hands every caller: the sync-failure
/// reason when the disk lied, the generic poisoned marker otherwise.
fn poisoned_err(st: &CommitterState) -> DurableError {
    match &st.sync_poison {
        Some(why) => DurableError::Storage(DurabilityError::SyncFailed(why.clone())),
        None => DurableError::Poisoned,
    }
}

/// The durable engine of a pool: its one WAL behind a **group commit**
/// pipeline, its checkpoint rotation, and its poison state — one of each
/// per pool. Its one caller, the
/// session scheduler ([`crate::scheduler`]), enqueues one encoded WAL
/// transaction per committed operation (before the operation unlocks any of
/// its attributes, so each attribute's log order is its commit order) and
/// then blocks on
/// [`wait_durable`](Self::wait_durable) — but only for a transaction that
/// holds a fact or that filled the un-synced tail; a derived one is
/// acknowledged on enqueue and rides whichever fsync comes next. The
/// first waiter to find the WAL idle
/// elects itself **leader** immediately, takes the WAL and up to
/// [`EngineConfig::group_commit_records`] pending payloads out of the
/// lock, appends them all, and pays **one** fsync for the lot — then wakes
/// the followers. Batching is self-clocking twice over: deferred
/// refinements accumulate until something must wait, and commits that
/// arrive while a flush is in flight become the next leader's batch. A
/// follower parked behind an in-flight flush re-checks for leadership
/// every [`FOLLOWER_RECHECK`] (a missed-wakeup guard — followers are
/// normally notified the moment the leader finishes).
///
/// Commit positions are `(epoch, seq)`; a checkpoint rotation
/// starts a new epoch and resets the sequence, and every record of an older
/// epoch is durable by construction (the checkpoint serialized its effect).
#[derive(Debug)]
pub(crate) struct Committer<P> {
    state: Mutex<CommitterState>,
    cv: Condvar,
    dir: PathBuf,
    fs: Arc<dyn StorageFs>,
    group_records: u64,
    _pred: PhantomData<fn() -> P>,
}

/// How long a committer parked behind an in-flight flush sleeps before
/// re-checking for leadership.
const FOLLOWER_RECHECK: Duration = Duration::from_micros(200);

/// Byte bound on the pool's un-synced tail, beside the record bound
/// [`EngineConfig::group_commit_records`]: the deferred commit that brings
/// the pending payloads to this many bytes waits out their flush, so what a
/// crash can cost in re-derivable refinements (and what the tail holds in
/// memory) stays bounded however large the splits are.
const DEFERRED_TAIL_BYTES: u64 = 256 * 1024;

impl fmt::Debug for CommitterState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitterState")
            .field("epoch", &self.epoch)
            .field("pending", &self.pending.len())
            .field("next_seq", &self.next_seq)
            .field("durable_seq", &self.durable_seq)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl<P: SpPredicate + WireCodec> Committer<P> {
    /// The apply phase of the pool root, after its read phase (`entries`,
    /// `state`): creates the directory, opens the WAL at its valid prefix
    /// (truncating a torn tail) or creates it, removes the residue, and
    /// arms journaling. A previous-layout state is converted instead
    /// ([`convert`](Self::convert)). Returns the recovered engine alongside
    /// the committer that will make its future mutations durable.
    ///
    /// # Errors
    /// Storage errors.
    fn apply(
        dir: &Path,
        config: EngineConfig,
        fs: Arc<dyn StorageFs>,
        entries: &[(PathBuf, Entry)],
        mut state: DirState<P>,
    ) -> Result<(PrkbEngine<P>, Self, RecoveryReport), DurableError> {
        let disk = fs.as_ref();
        disk.create_dir_all(dir).map_err(DurabilityError::Io)?;
        // Removal failures surface: silently keeping a stale log would
        // replay it against the wrong checkpoint on some future recovery.
        for path in residue(entries) {
            remove_stale(disk, path)?;
        }
        let wal = match (state.shards, state.wal_len) {
            (Some(_), _) => Self::convert(&fs, dir, entries, &mut state)?,
            (None, Some(len)) => {
                let (report, path) = (state.report, dir.join(wal_name(state.report.epoch)));
                Wal::resume_on(disk, &path, len, report.records_replayed, report.tail)?
            }
            (None, None) => Wal::create_on(disk, &dir.join(wal_name(state.report.epoch)))?,
        };
        let report = state.report;
        let mut engine = state.engine;
        engine.set_recording(true);
        if report.checkpoint_loaded {
            crate::metrics::global().set(Metric::SegmentsLive, report.segments_live);
        }
        let durable = wal.records();
        let committer = Committer {
            state: Mutex::new(CommitterState {
                wal: Some(wal),
                epoch: report.epoch,
                pending: Vec::new(),
                dirty: state.dirty,
                next_seq: durable + 1,
                durable_seq: durable,
                poisoned: false,
                sync_poison: None,
            }),
            cv: Condvar::new(),
            dir: dir.to_path_buf(),
            fs,
            group_records: config.group_commit_records.max(1),
            _pred: PhantomData,
        };
        Ok((engine, committer, report))
    }

    /// Converts a merged previous-layout `state` to one engine directory:
    /// every partition as one root segment, then the root segment manifest
    /// at [`CONVERTED_EPOCH`] — the commit point, before which a crash
    /// reopens the previous layout unchanged — then a fresh WAL, and only
    /// then the `manifest.bin` and `shard.<i>/` among `entries` removed.
    fn convert(
        fs: &Arc<dyn StorageFs>,
        dir: &Path,
        entries: &[(PathBuf, Entry)],
        state: &mut DirState<P>,
    ) -> Result<Wal, DurableError> {
        let all: BTreeSet<AttrId> = state.engine.attrs().collect();
        flush_segments(fs, dir, &state.engine, &all, CONVERTED_EPOCH)?;
        let wal = Wal::create_on(fs.as_ref(), &dir.join(wal_name(CONVERTED_EPOCH)))?;
        for (path, entry) in entries {
            if let Entry::Live(FileKind::PoolManifest | FileKind::Shard(_)) = entry {
                remove_stale(fs.as_ref(), path)?;
            }
        }
        let report = &mut state.report;
        (report.checkpoint_loaded, report.epoch) = (true, CONVERTED_EPOCH);
        report.segments_live = u64::from(!all.is_empty());
        state.dirty.clear();
        Ok(wal)
    }

    fn lock(&self) -> MutexGuard<'_, CommitterState> {
        self.state.lock().expect("committer lock poisoned")
    }

    /// Poisons the pool with `e` and hands `e` back for the caller to
    /// return: memory may now be ahead of disk. The first failure counts
    /// in the storage-failure metrics (sync-class ones additionally as
    /// `sync_failures`) and, when it is a sync failure, its reason is kept
    /// so every later caller gets [`DurabilityError::SyncFailed`] — never
    /// a durable ack for a failed fsync. Wakes every queued waiter.
    fn poison(&self, st: &mut CommitterState, e: DurableError) -> DurableError {
        let sync_reason = match &e {
            DurableError::Storage(DurabilityError::SyncFailed(why)) => Some(why.clone()),
            _ => None,
        };
        if !st.poisoned {
            let m = crate::metrics::global();
            m.add(Metric::WalPoisoned, 1);
            if sync_reason.is_some() {
                m.add(Metric::SyncFailures, 1);
            }
        }
        st.poisoned = true;
        if st.sync_poison.is_none() {
            st.sync_poison = sync_reason;
        }
        self.cv.notify_all();
        e
    }

    /// Enqueues one WAL transaction for the next group flush, marks the
    /// attributes it names dirty, and returns its ack ticket plus whether
    /// the enqueue filled the un-synced tail (`group_commit_records`
    /// records or [`DEFERRED_TAIL_BYTES`]). Cheap and non-blocking — call
    /// it before the operation frees any attribute it holds so the WAL
    /// order matches each attribute's commit order, then redeem the ticket
    /// with [`wait_durable`](Self::wait_durable).
    fn enqueue(&self, entries: &[TxnEntry<P>]) -> (GroupCommitTicket, bool) {
        let payload = encode_txn(entries);
        let mut st = self.lock();
        st.dirty.extend(entries.iter().map(TxnEntry::attr));
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push(payload);
        let full = st.pending.len() as u64 >= self.group_records
            || st.pending_bytes() >= DEFERRED_TAIL_BYTES;
        if full {
            // Batch is full: wake any parked waiter to elect a leader now.
            self.cv.notify_all();
        }
        let ticket = GroupCommitTicket {
            epoch: st.epoch,
            seq,
        };
        (ticket, full)
    }

    /// Journals one committed operation: encodes the ops drained from the
    /// engine ([`PrkbEngine::take_ops`]) as a single WAL transaction and
    /// [`enqueue`](Self::enqueue)s it. The batch is classified by its
    /// contents:
    ///
    /// * no ops — the operation refined nothing: nothing is
    ///   journaled and there is nothing to wait for;
    /// * derived ops only ([`RefinementOp::is_derived`]) — journaled, but
    ///   the commit waits (gets a ticket) only when this record filled the
    ///   un-synced tail, and then leads its flush like any waiter;
    /// * any fact — journaled and awaited; the WAL is sequential, so that
    ///   fsync makes every earlier refinement durable too.
    pub(crate) fn enqueue_journal(
        &self,
        ops: Vec<(AttrId, RefinementOp<P>)>,
    ) -> Option<GroupCommitTicket> {
        if ops.is_empty() {
            return None;
        }
        let fact = ops.iter().any(|(_, op)| !op.is_derived());
        let entries: Vec<TxnEntry<P>> = ops
            .into_iter()
            .map(|(attr, op)| TxnEntry::Op { attr, op })
            .collect();
        let (ticket, full) = self.enqueue(&entries);
        (fact || full).then_some(ticket)
    }

    /// `initPRKB` with its WAL record: initializes `attr` on `engine` and
    /// enqueues the initialization — a fact, so the ticket is always
    /// awaited.
    fn enqueue_init(
        &self,
        engine: &mut PrkbEngine<P>,
        attr: AttrId,
        n: usize,
    ) -> GroupCommitTicket {
        engine.init_attr(attr, n);
        // The fresh knowledge base starts with journaling off; re-arm it.
        engine.set_recording(true);
        self.enqueue(&[TxnEntry::Init { attr, n: n as u64 }]).0
    }

    /// Blocks until the ticket's record is fsync-durable. The calling
    /// thread may be elected flush leader and do the I/O itself.
    ///
    /// # Errors
    /// [`DurableError::Poisoned`] if this or an earlier flush failed; the
    /// in-memory pool may then be ahead of disk and must be
    /// reopened to resume from the durable prefix.
    pub(crate) fn wait_durable(&self, ticket: GroupCommitTicket) -> Result<(), DurableError> {
        let mut st = self.lock();
        loop {
            // A rotation past the ticket's epoch subsumes it: the
            // checkpoint serialized the record's in-memory effect.
            if st.epoch > ticket.epoch || st.durable_seq >= ticket.seq {
                return Ok(());
            }
            if st.poisoned {
                return Err(poisoned_err(&st));
            }
            if st.wal.is_some() {
                // The WAL is idle: lead now. Delaying would add latency
                // without growing the batch — commits arriving while this
                // flush runs form the next leader's batch.
                st = self.lead_flush(st)?;
                continue;
            }
            // A leader is mid-flush; it notifies on completion. The
            // timeout only guards against a missed wakeup.
            st = self
                .cv
                .wait_timeout(st, FOLLOWER_RECHECK)
                .expect("committer lock poisoned")
                .0;
        }
    }

    /// Takes the WAL and the oldest pending payloads (capped at
    /// `group_commit_records`) out of the lock, flushes them with a single
    /// fsync, and re-installs the WAL.
    fn lead_flush<'a>(
        &'a self,
        mut st: MutexGuard<'a, CommitterState>,
    ) -> Result<MutexGuard<'a, CommitterState>, DurableError> {
        let mut wal = st.wal.take().expect("caller checked wal presence");
        // Cap the batch so one fsync never covers unboundedly many commits
        // (bounds tail latency and crash-exposure granularity under burst).
        let take = (self.group_records as usize).min(st.pending.len());
        let batch: Vec<Vec<u8>> = st.pending.drain(..take).collect();
        let last = st.durable_seq + batch.len() as u64;
        drop(st);

        let result = (|| -> Result<(), DurableError> {
            let metrics = crate::metrics::global();
            for payload in &batch {
                let before = wal.bytes();
                wal.append_unsynced(payload)?;
                metrics.record_wal_txn(wal.bytes().saturating_sub(before));
            }
            wal.sync()?;
            metrics.add(Metric::GroupCommitBatches, 1);
            metrics.add(Metric::GroupCommitRecords, batch.len() as u64);
            metrics.add(Metric::GroupCommitFsyncs, 1);
            Ok(())
        })();

        let mut st = self.lock();
        match result {
            Ok(()) => {
                st.wal = Some(wal);
                st.durable_seq = last;
                self.cv.notify_all();
                Ok(st)
            }
            // The WAL handle is dropped: its file may hold a torn or
            // unsynced suffix. Recovery discards that suffix and lands on
            // the committed prefix.
            Err(e) => Err(self.poison(&mut st, e)),
        }
    }

    /// Leads flushes until nothing is pending and the WAL is back under
    /// the lock, which the returned guard still holds.
    fn drain<'a>(
        &'a self,
        mut st: MutexGuard<'a, CommitterState>,
    ) -> Result<MutexGuard<'a, CommitterState>, DurableError> {
        loop {
            if st.poisoned {
                return Err(poisoned_err(&st));
            }
            match &st.wal {
                Some(_) if st.pending.is_empty() => return Ok(st),
                Some(_) => st = self.lead_flush(st)?,
                None => {
                    st = self
                        .cv
                        .wait_timeout(st, Duration::from_millis(50))
                        .expect("committer lock poisoned")
                        .0;
                }
            }
        }
    }

    /// Flushes and fsyncs every pending record before returning — the
    /// clean-shutdown barrier: after `flush()` returns `Ok`, every enqueued
    /// record, deferred refinements included, is durable. With nothing
    /// pending it is a lock and an empty-check.
    ///
    /// # Errors
    /// [`DurableError::Poisoned`] if this or an earlier flush failed.
    pub(crate) fn flush(&self) -> Result<(), DurableError> {
        self.drain(self.lock()).map(drop)
    }

    /// Whether the checkpoint policy asks for a rotation, counting the
    /// un-synced tail — its records *and* its payload bytes — with what the
    /// WAL already holds: a deferred tail must not make either rule lag.
    pub(crate) fn wants_checkpoint(&self, config: &EngineConfig) -> bool {
        let st = self.lock();
        let Some(wal) = st.wal.as_ref() else {
            return false;
        };
        let records = wal.records() + st.pending.len() as u64;
        let bytes = wal.bytes() + st.pending_bytes();
        let by_records = config.checkpoint_wal_records;
        let by_bytes = config.checkpoint_wal_bytes;
        (by_records > 0 && records >= by_records) || (by_bytes > 0 && bytes >= by_bytes)
    }

    /// Rotates the checkpoint: flush pending, write the partitions `engine`
    /// dirtied since the last rotation as one segment — O(delta), not
    /// O(KB) — swap the manifest to epoch + 1 over the segments that are
    /// still some partition's newest holder, start a fresh WAL, reset the
    /// sequence, then retire the old log and the segments the swap
    /// dropped. The caller must hold every attribute of the pool, so
    /// `engine` is exactly the state the flushed WAL produced. A crash at
    /// any boundary
    /// recovers: before the manifest swap the old segment set + WAL are
    /// intact; after it the new set subsumes the old WAL, and recovery
    /// sweeps whatever was not yet unlinked.
    ///
    /// # Errors
    /// Storage failures poison the committer (disk keeps a consistent
    /// committed prefix; reopen to resume).
    pub(crate) fn checkpoint(&self, engine: &PrkbEngine<P>) -> Result<(), DurableError> {
        let mut st = self.drain(self.lock())?;
        let next = st.epoch + 1;
        let rotated = (|| -> Result<(Wal, Vec<u64>), DurableError> {
            let retired = flush_segments(&self.fs, &self.dir, engine, &st.dirty, next)?;
            let new_wal = Wal::create_on(self.fs.as_ref(), &self.dir.join(wal_name(next)))?;
            Ok((new_wal, retired))
        })();
        let (new_wal, retired) = match rotated {
            Ok(rotated) => rotated,
            Err(e) => return Err(self.poison(&mut st, e)),
        };
        let old = st
            .wal
            .replace(new_wal)
            .expect("wal present after drain")
            .path()
            .to_path_buf();
        st.epoch = next;
        st.durable_seq = 0;
        st.next_seq = 1;
        st.dirty.clear();
        self.cv.notify_all();
        // The checkpoint at `next` is durable, so a stale WAL left on disk
        // is harmless — but a failing unlink of it signals a sick volume;
        // poison rather than limp along. Superseded segments are plain
        // garbage: their removal is best effort.
        if let Err(e) = remove_stale(self.fs.as_ref(), &old) {
            return Err(self.poison(&mut st, e));
        }
        crate::metrics::global().add(Metric::Checkpoints, 1);
        retire_segments(self.fs.as_ref(), &self.dir, &retired);
        Ok(())
    }

    /// The error a poisoned pool returns for new work, or `None` if the
    /// pool is healthy. Sync-class poison (a failed fsync) is reported as
    /// [`DurabilityError::SyncFailed`] with the original reason so callers
    /// — and the wire protocol — can distinguish "your disk lied about
    /// durability" from an I/O or codec poison.
    pub(crate) fn poison_error(&self) -> Option<DurableError> {
        let st = self.lock();
        st.poisoned.then(|| poisoned_err(&st))
    }
}

// ---------------------------------------------------------------------------
// The pool: one engine directory
// ---------------------------------------------------------------------------

/// A previous-layout pool root's manifest file.
pub(crate) const MANIFEST_FILE: &str = "manifest.bin";
/// Its magic.
const MANIFEST_MAGIC: &[u8; 4] = b"PSHD";
/// Its format version.
const MANIFEST_VERSION: u16 = 1;
/// The epoch of the root segment manifest a conversion publishes.
const CONVERTED_EPOCH: u64 = 1;

/// Validates raw manifest bytes: `"PSHD" | version u16 | shards u32 | crc32`.
fn decode_manifest(bytes: &[u8]) -> Result<usize, DurableError> {
    let decode = || -> Result<_, &'static str> {
        let (version, mut r) = unseal(bytes, MANIFEST_MAGIC)?;
        if version != MANIFEST_VERSION {
            return Err("unknown version");
        }
        let shards = r.u32()? as usize;
        r.finish()?;
        if shards == 0 {
            return Err("zero shards");
        }
        Ok(shards)
    };
    decode().map_err(DurableError::CorruptManifest)
}

/// A durable pool: one engine directory — one segment set, one
/// `segments.manifest`, one `wal.<E>.log` behind one group committer — and
/// the engine recovered from it. Recovery replays the one log: a prefix of
/// the pool's commit order, each operation (one record) on all its
/// attributes or on none.
#[derive(Debug)]
pub struct ShardedDurablePool<P> {
    dir: PathBuf,
    fs: Arc<dyn StorageFs>,
    engine: PrkbEngine<P>,
    committer: Committer<P>,
    report: RecoveryReport,
}

impl<P: SpPredicate + WireCodec> ShardedDurablePool<P> {
    /// Opens (or creates) a pool rooted at `dir` on the real filesystem.
    ///
    /// # Errors
    /// Storage errors, plus [`DurableError::CorruptManifest`] /
    /// [`DurableError::CorruptSegment`] / [`DurableError::CorruptWal`] when
    /// the on-disk state is damaged beyond the torn-tail case (which is
    /// silently discarded).
    pub fn open(dir: &Path, config: EngineConfig) -> Result<Self, DurableError> {
        Self::open_on(dir, config, real_fs())
    }

    #[doc(hidden)]
    pub fn open_with_storage(
        dir: &Path,
        config: EngineConfig,
        _: ShardMap,
        _: CrashInjector,
        fs: Arc<dyn StorageFs>,
    ) -> Result<Self, DurableError> {
        Self::open_on(dir, config, fs)
    }

    /// [`open`](Self::open) on an explicit storage backend — the seam the
    /// crash sweeps and the I/O fault sweeps drive (`prkb-sim`'s
    /// fault-injecting filesystem in place of the real one). The read phase
    /// of the root — and, in the previous layout, of every shard directory,
    /// merged — refuses, if anything does, before a byte is written; then
    /// the apply phase.
    ///
    /// # Errors
    /// As [`open`](Self::open).
    pub fn open_on(
        dir: &Path,
        config: EngineConfig,
        fs: Arc<dyn StorageFs>,
    ) -> Result<Self, DurableError> {
        let started = Instant::now();
        let root = read_phase::<P>(fs.as_ref(), dir, config);
        let mut state = root.state.map_err(|r| r.error)?;
        for i in 0..state.shards.unwrap_or(0) {
            let shard = read_phase::<P>(fs.as_ref(), &dir.join(format!("shard.{i}")), config);
            let shard = shard.state.map_err(|r| r.error)?;
            state.engine.attach(shard.engine);
            state.report.records_replayed += shard.report.records_replayed;
        }
        let (engine, committer, report) =
            Committer::apply(dir, config, Arc::clone(&fs), &root.entries, state)?;
        crate::metrics::global().add(
            Metric::RecoveryMs,
            started.elapsed().as_millis().try_into().unwrap_or(u64::MAX),
        );
        Ok(ShardedDurablePool {
            dir: dir.to_path_buf(),
            fs,
            engine,
            committer,
            report,
        })
    }

    /// Runs the open's read phase over the pool and reports it file by
    /// file ([`crate::scrub`]): a corruption exactly where a reopen would
    /// refuse, plus rot in superseded segment blocks, which no open reads.
    /// It writes nothing unless `quarantine` is set; then corrupt artifacts
    /// of a directory the open refuses, and residue, are renamed into a
    /// `quarantine/` sibling directory (never deleted) so a reopen can
    /// proceed while the evidence survives for forensics.
    pub fn scrub(&self, quarantine: bool) -> crate::scrub::ScrubReport {
        crate::scrub::scrub_dir::<P>(self.fs.as_ref(), &self.dir, quarantine)
    }

    #[doc(hidden)]
    pub fn map(&self) -> ShardMap {
        ShardMap
    }

    /// What the open found: one report, for the pool's one log.
    pub fn reports(&self) -> &[RecoveryReport] {
        std::slice::from_ref(&self.report)
    }

    /// Durable `initPRKB`: initializes the attribute and waits for the init
    /// record to hit disk.
    ///
    /// # Errors
    /// Storage failures (which poison the pool).
    pub fn init_attr(&mut self, attr: AttrId, n: usize) -> Result<(), DurableError> {
        let ticket = self.committer.enqueue_init(&mut self.engine, attr, n);
        self.committer.wait_durable(ticket)
    }

    /// Read-only view of the recovered engine (tests and introspection).
    pub fn engine(&self) -> &PrkbEngine<P> {
        &self.engine
    }

    #[doc(hidden)]
    pub fn shard_engine(&self, _: usize) -> &PrkbEngine<P> {
        &self.engine
    }

    /// Splits the pool into its engine and its committer — the form the
    /// session scheduler consumes.
    pub(crate) fn into_parts(self) -> (PrkbEngine<P>, Committer<P>) {
        (self.engine, self.committer)
    }
}

/// Committer behaviour pinned against the committer itself, where the
/// un-synced tail can be looked at: what a drain finds pending, how large
/// the tail may grow, when it counts against the checkpoint thresholds.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::Separator;
    use crate::lsm::manifest::read_segment_manifest;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ATTRS: u32 = 5;
    const N: usize = 160;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prkb-committer-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn oracle() -> PlainOracle {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        PlainOracle::from_columns(
            (0..ATTRS)
                .map(|_| (0..N).map(|_| rng.gen_range(0..1_000u64)).collect())
                .collect(),
        )
    }

    fn kb_bytes(engine: &PrkbEngine<Predicate>) -> Vec<Vec<u8>> {
        let mut attrs: Vec<_> = engine.attrs().collect();
        attrs.sort_unstable();
        attrs
            .iter()
            .map(|&a| snapshot::save(engine.knowledge(a).expect("attr indexed")))
            .collect()
    }

    /// Group-commit config under which nothing flushes on its own: the
    /// record bound is out of reach, so only waiters (or an explicit
    /// `flush()`) ever lead a flush.
    fn lazy_group() -> EngineConfig {
        EngineConfig {
            checkpoint_wal_records: 0,
            checkpoint_wal_bytes: 0,
            group_commit_records: 1_000,
            ..EngineConfig::default()
        }
    }

    fn open(dir: &Path) -> ShardedDurablePool<Predicate> {
        ShardedDurablePool::open(dir, lazy_group()).expect("pool opens")
    }

    /// A split record is `tag 6 | rank u64 | separator | n u32 | ⌈n/8⌉
    /// bytes`, bit `i` (least significant first) set when the `i`-th
    /// smallest member goes left. The fixture pins these bytes.
    #[test]
    fn split_record_encodes_byte_for_byte() {
        let golden: &[u8] = include_bytes!("../tests/fixtures/split_record.bin");
        let left: SplitBits = (0..11).map(|i| i % 3 == 0).collect();
        let sep = Separator::Cmp {
            pred: Predicate::cmp(0, ComparisonOp::Lt, 500),
            left_label: true,
        };
        let op = RefinementOp::Split {
            rank: 3,
            left: left.clone(),
            sep: Some(sep),
        };
        let bytes = encode_txn(&[TxnEntry::Op { attr: 2, op }]);
        assert_eq!(bytes, golden);
        assert_eq!(golden[9], 6, "the op tag");
        assert_eq!(
            &golden[golden.len() - 6..],
            &[11, 0, 0, 0, 0b0100_1001, 0b10]
        );
        let entries = decode_txn::<Predicate>(golden).expect("decodes");
        assert!(matches!(
            entries.as_slice(),
            [TxnEntry::Op {
                attr: 2,
                op: RefinementOp::Split {
                    rank: 3,
                    left: l,
                    sep: Some(Separator::Cmp { left_label: true, .. }),
                },
            }] if *l == left
        ));
    }

    /// Every rule of the one classifier recovery and scrub share.
    #[test]
    fn classify_states_each_rule_once() {
        let m = SegmentManifest {
            epoch: 2,
            next_segment_id: 4,
            segments: vec![1, 3],
        };
        let (valid, absent, corrupt) = (
            ManifestState::Valid(&m),
            ManifestState::Absent,
            ManifestState::Corrupt,
        );
        use Entry::{Foreign, Live, Residue};
        for (name, state, want) in [
            ("wal.2.log", valid, Live(FileKind::Wal(2))),
            ("wal.1.log", valid, Residue(FileKind::Wal(1))),
            ("wal.0.log", absent, Live(FileKind::Wal(0))),
            ("wal.7.log", corrupt, Live(FileKind::Wal(7))),
            ("segment.3.seg", valid, Live(FileKind::Segment(3))),
            ("segment.2.seg", valid, Residue(FileKind::Segment(2))),
            ("segment.2.seg", absent, Residue(FileKind::Segment(2))),
            ("segment.2.seg", corrupt, Live(FileKind::Segment(2))),
            ("segment.4.seg.tmp", valid, Residue(FileKind::Temp)),
            ("manifest.bin.tmp", absent, Residue(FileKind::Temp)),
            ("segments.manifest", valid, Live(FileKind::SegmentManifest)),
            ("manifest.bin", absent, Live(FileKind::PoolManifest)),
            ("shard.3", absent, Live(FileKind::Shard(3))),
            ("manifest.bin", valid, Residue(FileKind::PoolManifest)),
            ("shard.3", valid, Residue(FileKind::Shard(3))),
            ("quarantine", valid, Foreign),
            ("attr.0.snap", absent, Foreign),
        ] {
            assert_eq!(classify(name, &state), want, "{name} under {state:?}");
        }
        // A generation-1 checkpoint under any state, and a WAL newer than
        // the manifest — a lost one included — refuse the directory.
        for (name, state) in [
            ("checkpoint.bin", valid),
            ("checkpoint.bin", absent),
            ("wal.3.log", valid),
            ("wal.1.log", absent),
        ] {
            let refused = classify(name, &state);
            assert!(matches!(refused, Entry::Refused(_)), "{name}: {refused:?}");
        }
    }

    /// Runs two un-awaited commits (refinements: pending in the tail, as a
    /// select's are after its reply), then drains. Returns the state after
    /// the (acknowledged) inits and whether the drain failed. (A crash at
    /// the drain's first append is pinned in `tests/shard_durability.rs`.)
    fn drive_drain(dir: &Path) -> (Vec<Vec<u8>>, bool) {
        let oracle = oracle();
        let (mut engine, committer) = open(dir).into_parts();
        for a in 0..ATTRS {
            committer.enqueue_init(&mut engine, a, N);
        }
        committer.flush().expect("init flushes");
        let post_init = kb_bytes(&engine);
        // Two refinements on different attributes, enqueued but never
        // awaited: the deferred tail, exactly what a crashed drain may lose.
        let mut rng = StdRng::seed_from_u64(9);
        for attr in [0u32, 1] {
            engine
                .try_select(
                    &oracle,
                    &Predicate::cmp(attr, ComparisonOp::Lt, 500),
                    &mut rng,
                )
                .expect("select");
            let ticket = committer.enqueue_journal(engine.take_ops());
            assert!(
                ticket.is_none(),
                "a refinement that fits the tail waits for nothing"
            );
        }
        (post_init, committer.flush().is_err())
    }

    /// Reopens on the real filesystem; every attribute must validate.
    fn recover(dir: &Path) -> Vec<Vec<u8>> {
        let pool = open(dir);
        let engine = pool.engine();
        for attr in engine.attrs() {
            engine
                .knowledge(attr)
                .expect("attr indexed")
                .check_invariants();
        }
        kb_bytes(engine)
    }

    #[test]
    fn clean_drain_persists_every_pending_record() {
        let dir = tmpdir("drain-clean");
        let (post_init, failed) = drive_drain(&dir);
        assert!(!failed, "a healthy drain flushes cleanly");
        // Both pending selects must have survived the drain: the recovered
        // pool holds more than the post-init state (knowledge was refined).
        assert_ne!(
            recover(&dir),
            post_init,
            "drained records must be visible after reopen"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit positions are `(epoch, seq)`: dense within an
    /// epoch, restarted by a rotation — whose epoch is the manifest's — and
    /// a ticket from before the rotation is durable by construction.
    #[test]
    fn tickets_are_dense_per_epoch_and_a_rotation_starts_the_next() {
        let dir = tmpdir("positions");
        let (mut engine, committer) = open(&dir).into_parts();
        let engine = &mut engine;
        let first = committer.enqueue_init(engine, 0, N);
        let second = committer.enqueue_init(engine, 1, N);
        assert_eq!((first.epoch, first.seq), (0, 1));
        assert_eq!((second.epoch, second.seq), (0, 2));
        // One flush covers both; the earlier ticket needs no second one.
        committer.wait_durable(second).expect("durable");
        committer
            .wait_durable(first)
            .expect("covered by the same flush");
        assert_eq!(committer.lock().wal.as_ref().map(Wal::records), Some(2));

        committer.checkpoint(engine).expect("rotate");
        let manifest = read_segment_manifest(real_fs().as_ref(), &dir)
            .expect("manifest reads")
            .expect("manifest exists after a rotation");
        assert_eq!(committer.lock().epoch, 1);
        assert_eq!(manifest.epoch, 1, "the committer's epoch is the manifest's");
        committer
            .wait_durable(first)
            .expect("subsumed by the rotation");

        assert!(
            committer.enqueue_journal(Vec::new()).is_none(),
            "an empty batch takes no position"
        );
        let third = committer.enqueue_init(engine, 2, N);
        assert_eq!((third.epoch, third.seq), (1, 1));
        committer.wait_durable(third).expect("durable");
        assert_eq!(committer.lock().wal.as_ref().map(Wal::records), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One refining select against `engine`, journaled the way the
    /// scheduler journals it. Returns the ticket the commit would wait on.
    fn deferred_select(
        engine: &mut PrkbEngine<Predicate>,
        committer: &Committer<Predicate>,
        oracle: &PlainOracle,
        bound: u64,
    ) -> Option<GroupCommitTicket> {
        engine
            .try_select(
                oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, bound),
                &mut StdRng::seed_from_u64(bound),
            )
            .expect("select");
        let ops = engine.take_ops();
        assert!(
            !ops.is_empty() && ops.iter().all(|(_, op)| op.is_derived()),
            "bound {bound} must refine, and a select journals derived ops only"
        );
        committer.enqueue_journal(ops)
    }

    /// The un-synced tail is bounded by records and by bytes: a deferred
    /// commit gets a ticket exactly when it fills either bound, and
    /// redeeming it empties the tail.
    #[test]
    fn deferred_tail_is_bounded_by_records_and_bytes() {
        // By records: small refinements, a bound of four.
        let dir = tmpdir("tail-records");
        let config = EngineConfig {
            group_commit_records: 4,
            ..lazy_group()
        };
        let pool = ShardedDurablePool::open(&dir, config).expect("pool opens");
        let (mut engine, committer) = pool.into_parts();
        let (engine, committer) = (&mut engine, &committer);
        let oracle = oracle();
        let init = committer.enqueue_init(engine, 0, N);
        committer.wait_durable(init).expect("durable");
        for (i, bound) in (1..=12u64).map(|i| i * 75).enumerate() {
            let ticket = deferred_select(engine, committer, &oracle, bound);
            let pending = committer.lock().pending.len();
            assert!(pending <= 4, "tail holds {pending} records, bound is 4");
            assert_eq!(ticket.is_some(), pending == 4, "select {i}");
            if let Some(ticket) = ticket {
                committer.wait_durable(ticket).expect("durable");
                assert!(committer.lock().pending.is_empty(), "the waiter flushed");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        // By bytes: the record bound out of reach, splits of a 1 500 000-tuple
        // partition (a 188 KB record at one bit per member, then halves of it).
        const BIG: usize = 1_500_000;
        let dir = tmpdir("tail-bytes");
        let (mut engine, committer) = open(&dir).into_parts();
        let (engine, committer) = (&mut engine, &committer);
        let oracle = PlainOracle::single_column((0..BIG as u64).collect());
        let init = committer.enqueue_init(engine, 0, BIG);
        committer.wait_durable(init).expect("durable");
        let mut waited = 0;
        for shift in 1..=10u32 {
            let before = committer.lock().pending_bytes();
            let ticket = deferred_select(engine, committer, &oracle, (BIG as u64) >> shift);
            let after = committer.lock().pending_bytes();
            assert!(before < DEFERRED_TAIL_BYTES, "the cap plus one record");
            assert_eq!(ticket.is_some(), after >= DEFERRED_TAIL_BYTES);
            if let Some(ticket) = ticket {
                committer.wait_durable(ticket).expect("durable");
                assert_eq!(committer.lock().pending_bytes(), 0);
                waited += 1;
            }
        }
        assert!(waited >= 1, "ten splits of 1 500 000 tuples cross 256 KiB");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The byte rule counts the tail: a pending payload that crosses
    /// `checkpoint_wal_bytes` asks for the rotation before it is appended.
    #[test]
    fn checkpoint_byte_threshold_counts_the_pending_tail() {
        let dir = tmpdir("ckpt-bytes");
        let (mut engine, committer) = open(&dir).into_parts();
        let (engine, committer) = (&mut engine, &committer);
        let init = committer.enqueue_init(engine, 0, N);
        committer.wait_durable(init).expect("durable");
        let ticket = deferred_select(engine, committer, &oracle(), 500);
        assert!(ticket.is_none(), "deferred: the record stays in the tail");
        let (appended, pending) = {
            let st = committer.lock();
            let wal = st.wal.as_ref().expect("idle");
            (wal.bytes(), st.pending_bytes())
        };
        assert!(pending > 0);
        let by_bytes = |checkpoint_wal_bytes| EngineConfig {
            checkpoint_wal_bytes,
            ..lazy_group()
        };
        assert!(!committer.wants_checkpoint(&by_bytes(appended + pending + 1)));
        assert!(committer.wants_checkpoint(&by_bytes(appended + pending)));
        assert!(
            committer.wants_checkpoint(&by_bytes(appended + 1)),
            "the threshold sits inside the tail: appended bytes alone miss it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
