//! KB integrity scrubber: the open's read phase, reported file by file.
//!
//! [`scrub_dir`] runs on each directory the read phase of the open
//! (`durability::read_phase`, DESIGN.md §10), which writes nothing. A live
//! file the open reads is clean, the file it refuses at gets the class of
//! its error ([`ScrubDamage`]), every other name the class
//! `durability::classify` gives it. So scrub reports a corruption exactly
//! when the open refuses — but for one check the open never makes: the CRC
//! of each *superseded* block of a live segment, reported as segment rot.
//! A refused directory reports its refusal and its names only.
//!
//! The scrubber never deletes: with quarantine enabled, corrupt artifacts
//! and residue are *renamed* into a `quarantine/` subdirectory next to
//! where they lived, so a reopen can proceed while the evidence survives.
//! Torn tails (recovery's job) and unreadable files (maybe transient, or
//! somebody's data) stay, and so does the residue of a directory recovery
//! refuses, which that reopen would not remove either, and every file of a
//! directory that opens: its only corruption can be in blocks the open
//! does not read, and moving their segment would lose the blocks it does.
//!
//! Every run bumps `scrub_runs`; each corruption-class finding bumps
//! `scrub_corruptions`; each successful quarantine bumps
//! `quarantined_files` (metrics schema v8).

use crate::durability::{decode_txn, read_phase, DirState, DurableError, Entry, FileKind, Refusal};
use crate::engine::EngineConfig;
use crate::metrics::Metric;
use crate::snapshot::WireCodec;
use crate::traits::SpPredicate;
use prkb_edbms::durability::{scan_frames, DurabilityError, TailStatus, FRAME_HEADER_LEN};
use prkb_edbms::StorageFs;
use std::path::{Path, PathBuf};

/// Name of the sibling directory corrupt artifacts are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Classification of one scanned artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubDamage {
    /// Checksums verify and payloads decode.
    Clean,
    /// The WAL's final record is partial — crash residue recovery
    /// truncates, not a corruption.
    TornTail,
    /// Damage inside the WAL's committed prefix, an unrecognizable WAL
    /// header, or a CRC-valid record that does not decode or replay.
    MidLogCorruption,
    /// The pool manifest is rotted, or missing while shard directories
    /// exist, or does not declare a shard directory present; or a segment
    /// manifest fails validation or references a segment file that does
    /// not exist.
    ManifestMismatch,
    /// A published segment file with broken framing (short file, bad
    /// magic, unknown version, failing footer/index checksum, an id that
    /// does not match its name) or a block that is not a partition
    /// snapshot. Segments rename into place only after their fsync, so
    /// this is real corruption.
    TornSegment,
    /// A segment whose framing verifies but where a partition block fails
    /// its CRC — bitrot inside the payload. Also reported for a superseded
    /// block, which the open does not read.
    SegmentRot,
    /// Residue: a segment the segment manifest does not list — published
    /// but never swapped in, or superseded and not yet unlinked.
    StraySegment,
    /// Residue: a leftover `*.tmp` from an interrupted atomic publish.
    StrayTemp,
    /// Residue: a WAL older than the segment manifest's epoch, which the
    /// checkpoint subsumes.
    StaleWal,
    /// Residue: a previous-layout `manifest.bin` or `shard.<i>/` beside the
    /// root segment manifest that converted it.
    StaleLayout,
    /// The file could not be read (an I/O error), or recovery refuses the
    /// directory because of its name: a generation-1 `checkpoint.bin`, or
    /// a WAL newer than the segment manifest.
    Unreadable,
}

impl ScrubDamage {
    /// Stable lowercase name used in JSON reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ScrubDamage::Clean => "clean",
            ScrubDamage::TornTail => "torn_tail",
            ScrubDamage::MidLogCorruption => "mid_log_corruption",
            ScrubDamage::ManifestMismatch => "manifest_mismatch",
            ScrubDamage::TornSegment => "torn_segment",
            ScrubDamage::SegmentRot => "segment_rot",
            ScrubDamage::StraySegment => "stray_segment",
            ScrubDamage::StrayTemp => "stray_temp",
            ScrubDamage::StaleWal => "stale_wal",
            ScrubDamage::StaleLayout => "stale_layout",
            ScrubDamage::Unreadable => "unreadable",
        }
    }

    /// Whether the artifact is crash residue: what the next reopen of its
    /// (unrefused) directory removes.
    pub fn is_residue(self) -> bool {
        matches!(
            self,
            ScrubDamage::StraySegment
                | ScrubDamage::StrayTemp
                | ScrubDamage::StaleWal
                | ScrubDamage::StaleLayout
        )
    }

    /// Whether this damage class counts as a corruption (torn tails and
    /// residue are what a crash leaves; clean is clean).
    pub fn is_corruption(self) -> bool {
        !matches!(self, ScrubDamage::Clean | ScrubDamage::TornTail) && !self.is_residue()
    }

    /// Whether the artifact should be moved to `quarantine/`. Torn tails
    /// stay (recovery truncates them); unreadable files stay (the error
    /// may be transient, or the file somebody's data).
    fn quarantinable(self) -> bool {
        self.is_residue() || (self.is_corruption() && self != ScrubDamage::Unreadable)
    }
}

/// One scanned artifact and its verdict.
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// The artifact's path at scan time (pre-quarantine).
    pub path: PathBuf,
    /// Damage classification.
    pub damage: ScrubDamage,
    /// Human-readable specifics (first bad offset, decode error, …).
    pub detail: String,
    /// For WALs: how many CRC-valid frames the image holds.
    pub frames_valid: Option<u64>,
    /// For a WAL that is not clean: one line per CRC-valid frame — index,
    /// offset, payload length and the decoded entries — for a post-mortem.
    pub frame_lines: Vec<String>,
    /// Where the artifact was moved, when quarantine ran and succeeded.
    pub quarantined_to: Option<PathBuf>,
}

impl ScrubFinding {
    /// A verdict on the artifact at `path`: no frames listed, not
    /// quarantined (a finished scrub pass fills those in).
    pub(crate) fn new(
        path: impl Into<PathBuf>,
        damage: ScrubDamage,
        detail: impl Into<String>,
    ) -> Self {
        ScrubFinding {
            path: path.into(),
            damage,
            detail: detail.into(),
            frames_valid: None,
            frame_lines: Vec::new(),
            quarantined_to: None,
        }
    }
}

/// Machine-readable result of one scrub pass.
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// The directory the scrub was rooted at.
    pub root: PathBuf,
    /// Every classified artifact, sorted by path.
    pub findings: Vec<ScrubFinding>,
    /// Artifacts examined (quarantine contents excluded).
    pub files_scanned: u64,
    /// Findings whose damage [`is_corruption`](ScrubDamage::is_corruption).
    pub corruptions: u64,
    /// Artifacts successfully moved into `quarantine/`.
    pub quarantined: u64,
}

impl ScrubReport {
    /// `true` when every artifact is [`ScrubDamage::Clean`] (a torn tail
    /// is *not* clean, though it is not a corruption either).
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.damage == ScrubDamage::Clean)
    }

    /// `true` when at least one corruption-class finding exists.
    pub fn has_corruption(&self) -> bool {
        self.corruptions > 0
    }

    /// Serializes the report as one line of `prkb-scrub/v1` JSON.
    pub fn to_json(&self) -> String {
        let text = |s: &str| format!("\"{}\"", json_escape(s));
        let path = |p: &Path| text(&p.display().to_string());
        let findings: Vec<String> = (self.findings.iter())
            .map(|f| {
                format!(
                    "{{\"path\":{},\"damage\":\"{}\",\"detail\":{},\"frames_valid\":{},\
                     \"quarantined_to\":{}}}",
                    path(&f.path),
                    f.damage.name(),
                    text(&f.detail),
                    f.frames_valid.map_or("null".into(), |n| n.to_string()),
                    f.quarantined_to.as_deref().map_or("null".into(), path),
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"prkb-scrub/v1\",\"root\":{},\"files_scanned\":{},\"corruptions\":{},\
             \"quarantined\":{},\"clean\":{},\"findings\":[{}]}}",
            path(&self.root),
            self.files_scanned,
            self.corruptions,
            self.quarantined,
            self.is_clean(),
            findings.join(","),
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Scrubs `dir`: a pool root — in the previous layout, with every live
/// `shard.<i>/` under it — or one engine directory, whichever its names say.
pub fn scrub_dir<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    quarantine: bool,
) -> ScrubReport {
    let mut findings = Vec::new();
    scan_dir::<P>(fs, dir, quarantine, &mut findings);
    findings.sort_by(|a, b| a.path.cmp(&b.path));
    let count =
        |keep: fn(&ScrubFinding) -> bool| findings.iter().filter(|f| keep(f)).count() as u64;
    let corruptions = count(|f| f.damage.is_corruption());
    let quarantined = count(|f| f.quarantined_to.is_some());
    let m = crate::metrics::global();
    m.add(Metric::ScrubRuns, 1);
    m.add(Metric::ScrubCorruptions, corruptions);
    m.add(Metric::QuarantinedFiles, quarantined);
    ScrubReport {
        root: dir.to_path_buf(),
        files_scanned: findings.len() as u64,
        corruptions,
        quarantined,
        findings,
    }
}

/// Reports `dir` under its read phase, quarantines (when asked) what the
/// findings mark, then walks each live (previous-layout) shard directory
/// it holds.
fn scan_dir<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    quarantine: bool,
    findings: &mut Vec<ScrubFinding>,
) {
    let start = findings.len();
    let read = read_phase::<P>(fs, dir, EngineConfig::default());
    // A refusal at a path no entry has: a file a manifest names that is
    // not there, or the directory itself.
    if let Err(r) = read.state.as_ref() {
        if read.entries.iter().all(|(path, _)| *path != r.path) {
            findings.push(ScrubFinding::new(&r.path, refused_at(r, None), &r.detail));
        }
    }
    for (path, entry) in &read.entries {
        let (damage, detail) = match (*entry, &read.state) {
            (_, Err(r)) if r.path == *path => (refused_at(r, Some(*entry)), r.detail.clone()),
            (Entry::Residue(FileKind::Wal(e)), _) => (
                ScrubDamage::StaleWal,
                format!("WAL of epoch {e}, which the segment manifest's checkpoint subsumes"),
            ),
            (Entry::Residue(FileKind::Segment(id)), _) => (
                ScrubDamage::StraySegment,
                format!("segment {id}, which the segment manifest does not list"),
            ),
            (Entry::Residue(FileKind::PoolManifest | FileKind::Shard(_)), _) => (
                ScrubDamage::StaleLayout,
                "previous layout, which the root segment manifest converted".into(),
            ),
            (Entry::Residue(_), _) => (ScrubDamage::StrayTemp, "temp of a torn publish".into()),
            (Entry::Refused(why), _) => (ScrubDamage::Unreadable, why.into()),
            (Entry::Live(kind), Ok(state)) => match live_verdict(fs, state, kind) {
                Some(verdict) => verdict,
                None => continue,
            },
            _ => continue,
        };
        let mut finding = ScrubFinding::new(path, damage, detail);
        if let Entry::Live(FileKind::Wal(_)) = entry {
            list_frames::<P>(fs, &mut finding);
        }
        findings.push(finding);
    }
    let refused = (read.entries.iter()).any(|(_, e)| matches!(e, Entry::Refused(_)));
    for f in findings[start..].iter_mut().filter(|_| quarantine) {
        let stays = if f.damage.is_residue() {
            refused
        } else {
            read.state.is_ok()
        };
        if stays || !f.damage.quarantinable() || !fs.exists(&f.path) {
            continue;
        }
        match quarantine_file(fs, &f.path) {
            Ok(dest) => f.quarantined_to = Some(dest),
            Err(e) => f.detail.push_str(&format!("; quarantine failed: {e}")),
        }
    }
    for (path, entry) in &read.entries {
        if let Entry::Live(FileKind::Shard(_)) = entry {
            scan_dir::<P>(fs, path, quarantine, findings);
        }
    }
}

/// The class of the file the open refuses at (`entry` is its name's
/// class; `None` when it is not there), by the open's error.
fn refused_at(r: &Refusal, entry: Option<Entry>) -> ScrubDamage {
    use DurableError::{CorruptManifest, CorruptSegment, CorruptWal, Storage};
    match (entry, &r.error) {
        (Some(Entry::Refused(_)), _) | (_, Storage(DurabilityError::Io(_))) => {
            ScrubDamage::Unreadable
        }
        (None, CorruptSegment(_))
        | (_, CorruptManifest(_))
        | (Some(Entry::Live(FileKind::SegmentManifest)), _) => ScrubDamage::ManifestMismatch,
        (_, CorruptSegment("block checksum mismatch")) => ScrubDamage::SegmentRot,
        (_, CorruptSegment(_)) => ScrubDamage::TornSegment,
        (_, CorruptWal(_) | Storage(_)) => ScrubDamage::MidLogCorruption,
        _ => ScrubDamage::Unreadable,
    }
}

/// The verdict at a live file of a directory that opens, or `None` for a
/// shard directory (walked on its own). A segment is also checked where
/// the open does not read it: the CRC of each of its superseded blocks.
fn live_verdict<P>(
    fs: &dyn StorageFs,
    state: &DirState<P>,
    kind: FileKind,
) -> Option<(ScrubDamage, String)> {
    let (r, clean) = (&state.report, ScrubDamage::Clean);
    Some(match kind {
        FileKind::PoolManifest => (clean, format!("{} shards", state.shards?)),
        FileKind::SegmentManifest => (
            clean,
            format!("epoch {}, {} segment(s)", r.epoch, r.segments_live),
        ),
        FileKind::Segment(id) => {
            let store = state.store.as_ref()?;
            let version = store.segments().iter().find(|s| s.id == id)?.version;
            let blocks = store.blocks().into_iter();
            let mut superseded = blocks.filter(|(seg, _, newest)| seg.id == id && !newest);
            match superseded.find_map(|(seg, b, _)| Some((b.attr, seg.read_block(fs, b).err()?))) {
                Some((attr, e)) => (
                    ScrubDamage::SegmentRot,
                    format!("superseded block of attribute {attr}: {e}; the open does not read it"),
                ),
                None => (clean, format!("segment {id}, format v{version}")),
            }
        }
        FileKind::Wal(_) if r.tail == TailStatus::Clean => (clean, "every record replays".into()),
        FileKind::Wal(_) => (
            ScrubDamage::TornTail,
            format!(
                "a partial record after byte {}, which the open truncates",
                state.wal_len?
            ),
        ),
        FileKind::Temp | FileKind::Shard(_) => return None,
    })
}

/// Counts a WAL's CRC-valid frames and, when it is not clean, lists them
/// — index, offset, payload length and decoded entries — for a post-mortem.
fn list_frames<P: WireCodec>(fs: &dyn StorageFs, f: &mut ScrubFinding) {
    let Ok(bytes) = fs.read(&f.path) else {
        return;
    };
    let frames = scan_frames(&bytes).frames;
    f.frames_valid = Some(frames.len() as u64);
    for frame in frames.iter().filter(|_| f.damage != ScrubDamage::Clean) {
        let start = frame.offset as usize + FRAME_HEADER_LEN;
        let entries = match decode_txn::<P>(&bytes[start..start + frame.len as usize]) {
            Ok(entries) => entries
                .iter()
                .map(|e| format!("{e}"))
                .collect::<Vec<_>>()
                .join(", "),
            Err(e) => format!("UNDECODABLE: {e}"),
        };
        f.frame_lines.push(format!(
            "record {:>4}  offset {:>8}  {:>6} payload bytes  {entries}",
            frame.index, frame.offset, frame.len
        ));
    }
}

/// Moves `path` into a `quarantine/` directory next to it, never
/// overwriting an earlier quarantined artifact of the same name.
fn quarantine_file(fs: &dyn StorageFs, path: &Path) -> std::io::Result<PathBuf> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let qdir = parent.join(QUARANTINE_DIR);
    fs.create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let mut dest = qdir.join(name);
    let mut n = 1u32;
    while fs.exists(&dest) {
        dest = qdir.join(format!("{name}.{n}"));
        n += 1;
    }
    fs.rename(path, &dest)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::Knowledge;
    use crate::lsm::segment::{segment_file_name, SegmentMeta};
    use crate::lsm::SegmentManifest;
    use crate::snapshot;
    use prkb_edbms::{real_fs, Predicate};

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("prkb-scrub-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn empty_engine_dir_scrubs_clean() {
        let dir = tmp("empty");
        let fs = real_fs();
        let report = scrub_dir::<Predicate>(fs.as_ref(), &dir, false);
        assert!(report.is_clean());
        assert!(!report.has_corruption());
        assert_eq!(report.files_scanned, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_temp_is_quarantined_not_deleted() {
        let dir = tmp("stray");
        let fs = real_fs();
        std::fs::write(dir.join("segments.manifest.tmp"), b"half-written").unwrap();
        let report = scrub_dir::<Predicate>(fs.as_ref(), &dir, true);
        assert_eq!(report.quarantined, 1);
        let f = &report.findings[0];
        assert_eq!(f.damage, ScrubDamage::StrayTemp);
        let moved = f.quarantined_to.as_ref().unwrap();
        assert_eq!(std::fs::read(moved).unwrap(), b"half-written");
        assert!(!dir.join("segments.manifest.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_never_overwrites_prior_evidence() {
        let dir = tmp("collide");
        let fs = real_fs();
        std::fs::create_dir_all(dir.join(QUARANTINE_DIR)).unwrap();
        std::fs::write(dir.join(QUARANTINE_DIR).join("junk.tmp"), b"old").unwrap();
        std::fs::write(dir.join("junk.tmp"), b"new").unwrap();
        let report = scrub_dir::<Predicate>(fs.as_ref(), &dir, true);
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            std::fs::read(dir.join(QUARANTINE_DIR).join("junk.tmp")).unwrap(),
            b"old"
        );
        assert_eq!(
            std::fs::read(dir.join(QUARANTINE_DIR).join("junk.tmp.1")).unwrap(),
            b"new"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment manifest at epoch 3 listing segment 0, which holds the
    /// snapshot images of two fresh knowledge bases (attributes 1 and 2):
    /// a directory the open loads.
    fn seed_segment_store(dir: &Path) {
        use crate::lsm::manifest::write_segment_manifest;
        use crate::lsm::segment::write_segment;
        let fs = real_fs();
        let image = |n| snapshot::save(&Knowledge::<Predicate>::init(n));
        write_segment(fs.as_ref(), dir, 0, &[(1, image(8)), (2, image(5))]).unwrap();
        write_segment_manifest(
            fs.as_ref(),
            dir,
            &SegmentManifest {
                epoch: 3,
                next_segment_id: 1,
                segments: vec![0],
            },
        )
        .unwrap();
    }

    #[test]
    fn healthy_segment_store_scrubs_clean() {
        let dir = tmp("seg-clean");
        seed_segment_store(&dir);
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir, false);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.files_scanned, 2); // manifest + segment
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_is_classified_and_quarantined() {
        let dir = tmp("seg-torn");
        seed_segment_store(&dir);
        let seg = dir.join(segment_file_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir, true);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::TornSegment)
            .expect("torn segment finding");
        assert!(f.quarantined_to.is_some());
        assert!(report.has_corruption());
        assert!(!seg.exists(), "torn segment moved to quarantine");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Scrub reads a live segment the way recovery does, so a file whose
    /// header names another segment is corruption here too.
    #[test]
    fn live_segment_under_a_foreign_id_is_torn() {
        use crate::lsm::segment::write_segment;
        let dir = tmp("seg-id");
        seed_segment_store(&dir);
        let fs = real_fs();
        write_segment(fs.as_ref(), &dir, 1, &[]).unwrap();
        std::fs::rename(
            dir.join(segment_file_name(1)),
            dir.join(segment_file_name(0)),
        )
        .unwrap();
        let report = scrub_dir::<Predicate>(fs.as_ref(), &dir, false);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::TornSegment)
            .expect("torn segment finding");
        assert!(f.detail.contains("id does not match"), "{}", f.detail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotted_block_is_segment_rot() {
        let dir = tmp("seg-rot");
        seed_segment_store(&dir);
        let seg = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip one byte inside the first partition block (payload starts
        // right after the 16-byte header); framing checksums stay valid.
        let meta = SegmentMeta::open(real_fs().as_ref(), &dir, 0).unwrap();
        let first = &meta.index[0];
        assert!(first.attr == 1 && first.offset <= 20 && 20 < first.offset + first.len);
        bytes[20] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir, false);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::SegmentRot)
            .expect("segment rot finding");
        assert!(f.detail.contains("block checksum mismatch"), "{}", f.detail);
        assert!(report.has_corruption());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_referencing_missing_segment_is_mismatch() {
        let dir = tmp("seg-missing");
        seed_segment_store(&dir);
        std::fs::remove_file(dir.join(segment_file_name(0))).unwrap();
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir, true);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::ManifestMismatch)
            .expect("missing segment finding");
        assert!(f.detail.contains("missing"), "{}", f.detail);
        // Nothing to quarantine — the file does not exist.
        assert!(f.quarantined_to.is_none());
        assert!(report.has_corruption());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreferenced_segment_is_stray_not_corruption() {
        use crate::lsm::segment::write_segment;
        let dir = tmp("seg-stray");
        seed_segment_store(&dir);
        // A crash between segment publish and manifest swap leaves a valid
        // segment with the next id that nothing references.
        write_segment(real_fs().as_ref(), &dir, 1, &[(7, b"orphan".to_vec())]).unwrap();
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir, true);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::StraySegment)
            .expect("stray segment finding");
        assert!(f.quarantined_to.is_some(), "stray quarantined for tidiness");
        assert!(
            !report.has_corruption(),
            "stray segment is residue, not rot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_segment_temp_is_quarantined() {
        let dir = tmp("seg-tmp");
        seed_segment_store(&dir);
        std::fs::write(dir.join("segment.1.seg.tmp"), b"half a segment").unwrap();
        let report = scrub_dir::<Predicate>(real_fs().as_ref(), &dir, true);
        let f = report
            .findings
            .iter()
            .find(|f| f.damage == ScrubDamage::StrayTemp)
            .expect("stray temp finding");
        assert!(f.quarantined_to.is_some());
        assert!(!dir.join("segment.1.seg.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let report = ScrubReport {
            root: PathBuf::from("/tmp/x"),
            findings: vec![ScrubFinding {
                frames_valid: Some(3),
                ..ScrubFinding::new("/tmp/x/wal.1.log", ScrubDamage::TornTail, "say \"torn\"")
            }],
            files_scanned: 1,
            corruptions: 0,
            quarantined: 0,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"prkb-scrub/v1\""), "{json}");
        assert!(json.contains("\"damage\":\"torn_tail\""), "{json}");
        assert!(json.contains("say \\\"torn\\\""), "{json}");
        assert!(json.contains("\"frames_valid\":3"), "{json}");
        assert!(!report.is_clean());
        assert!(!report.has_corruption());
    }
}
