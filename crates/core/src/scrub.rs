//! KB integrity scrubber: offline verification of everything the
//! durability layer ever wrote.
//!
//! [`scrub_dir`] lists a directory once and reads every name through the
//! classifier recovery uses (`durability::classify`), so the two agree by
//! construction: a pool root is whatever holds `manifest.bin` or
//! `shard.<i>/` entries, and each shard is walked in turn. Live files are
//! deep-checked — WAL frames and their transaction payloads, segment
//! framing, index and every block CRC, both manifests — residue gets a
//! class of its own that is never corruption, and a file recovery refuses
//! to open around is `unreadable`. [`ScrubDamage`] lists the classes
//! (DESIGN.md §10).
//!
//! The scrubber never deletes: with quarantine enabled, corrupt artifacts
//! and residue are *renamed* into a `quarantine/` subdirectory next to
//! where they lived, preserving the evidence while letting a reopen
//! proceed. Torn tails and unreadable files stay in place — the former is
//! recovery's job, the latter might be transient, or somebody's data — and
//! so does the residue of a directory recovery refuses, which that reopen
//! would not remove either.
//!
//! Every run bumps `scrub_runs`; each corruption-class finding bumps
//! `scrub_corruptions`; each successful quarantine bumps
//! `quarantined_files` (metrics schema v8).

use crate::durability::{
    classify, decode_manifest, decode_txn, DurableError, Entry, FileKind, ManifestState, TxnEntry,
    MANIFEST_FILE,
};
use crate::knowledge::RefinementOp;
use crate::lsm::manifest::SegmentManifest;
use crate::lsm::segment::{segment_file_name, SegmentMeta};
use crate::lsm::SEGMENT_MANIFEST_FILE;
use crate::metrics::Metric;
use crate::snapshot::WireCodec;
use crate::traits::SpPredicate;
use prkb_edbms::durability::{scan_frames, WalVerdict, FRAME_HEADER_LEN, WAL_HEADER_LEN};
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
    /// header, or a CRC-valid frame whose payload fails to decode.
    MidLogCorruption,
    /// The pool manifest is rotted, missing, or disagrees with the shard
    /// directories present; or a segment manifest fails validation or
    /// references a segment file that does not exist.
    ManifestMismatch,
    /// A published segment file with broken framing (short file, bad
    /// magic, unknown version, failing footer/index checksum, an id that
    /// does not match its name). Segments rename into place only after
    /// their fsync, so this is real corruption.
    TornSegment,
    /// A segment whose framing verifies but where a partition block fails
    /// its CRC — bitrot inside the payload.
    SegmentRot,
    /// Residue: a segment the segment manifest does not list — published
    /// but never swapped in, or superseded and not yet unlinked.
    StraySegment,
    /// Residue: a leftover `*.tmp` from an interrupted atomic publish.
    StrayTemp,
    /// Residue: a WAL older than the segment manifest's epoch, which the
    /// checkpoint subsumes.
    StaleWal,
    /// The file could not be read (an I/O error while scrubbing), or
    /// recovery refuses the directory because of it: a generation-1
    /// `checkpoint.bin`, or a WAL newer than the segment manifest.
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
            ScrubDamage::Unreadable => "unreadable",
        }
    }

    /// Whether the artifact is crash residue: what the next reopen of its
    /// (unrefused) directory removes.
    pub fn is_residue(self) -> bool {
        matches!(
            self,
            ScrubDamage::StraySegment | ScrubDamage::StrayTemp | ScrubDamage::StaleWal
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
    /// A verdict on the artifact at `path`: not a WAL (no frame count), not
    /// quarantined (a finished scrub pass fills that in).
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

    /// For a WAL: records how many CRC-valid frames the image holds.
    pub(crate) fn frames(mut self, n: u64) -> Self {
        self.frames_valid = Some(n);
        self
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
        let mut out = String::from("{\"schema\":\"prkb-scrub/v1\"");
        out.push_str(&format!(
            ",\"root\":\"{}\",\"files_scanned\":{},\"corruptions\":{},\"quarantined\":{},\"clean\":{}",
            json_escape(&self.root.display().to_string()),
            self.files_scanned,
            self.corruptions,
            self.quarantined,
            self.is_clean(),
        ));
        out.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"damage\":\"{}\",\"detail\":\"{}\"",
                json_escape(&f.path.display().to_string()),
                f.damage.name(),
                json_escape(&f.detail),
            ));
            match f.frames_valid {
                Some(n) => out.push_str(&format!(",\"frames_valid\":{n}")),
                None => out.push_str(",\"frames_valid\":null"),
            }
            match &f.quarantined_to {
                Some(p) => out.push_str(&format!(
                    ",\"quarantined_to\":\"{}\"}}",
                    json_escape(&p.display().to_string())
                )),
                None => out.push_str(",\"quarantined_to\":null}"),
            }
        }
        out.push_str("]}");
        out
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

/// Scrubs `dir`: a pool root and every `shard.<i>/` under it, or one engine
/// directory — whichever its names say.
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

/// Classifies every entry of `dir` with [`classify`], deep-checks the live
/// ones, quarantines (when asked) what the directory's own findings mark,
/// then walks each shard directory it holds.
fn scan_dir<P: SpPredicate + WireCodec>(
    fs: &dyn StorageFs,
    dir: &Path,
    quarantine: bool,
    findings: &mut Vec<ScrubFinding>,
) {
    let entries = match fs.read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            let detail = format!("cannot list directory: {e}");
            return findings.push(ScrubFinding::new(dir, ScrubDamage::Unreadable, detail));
        }
    };
    let start = findings.len();
    // Every other name is classified against the segment manifest.
    let manifest = scrub_segment_manifest(fs, dir, findings);
    let state = match &manifest {
        Ok(None) => ManifestState::Absent,
        Ok(Some(m)) => ManifestState::Valid(m),
        Err(()) => ManifestState::Corrupt,
    };
    let (mut refused, mut pool_manifest, mut shards) = (false, false, Vec::new());
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let finding = match classify(name, &state) {
            Entry::Live(FileKind::Wal(_)) => scrub_wal::<P>(fs, path),
            Entry::Live(FileKind::Segment(id)) => scrub_segment(fs, dir, id),
            Entry::Live(FileKind::PoolManifest) => {
                pool_manifest = true;
                continue;
            }
            Entry::Live(FileKind::Shard(_)) => {
                shards.push(path);
                continue;
            }
            // The segment manifest was checked above.
            Entry::Live(_) | Entry::Foreign => continue,
            Entry::Residue(FileKind::Wal(e)) => ScrubFinding::new(
                path,
                ScrubDamage::StaleWal,
                format!(
                    "WAL of epoch {e}, older than the segment manifest's: \
                     the checkpoint subsumes it"
                ),
            ),
            Entry::Residue(FileKind::Segment(id)) => ScrubFinding::new(
                path,
                ScrubDamage::StraySegment,
                format!(
                    "segment {id} not listed by the segment manifest \
                     (superseded, or never swapped in)"
                ),
            ),
            Entry::Residue(_) => ScrubFinding::new(
                path,
                ScrubDamage::StrayTemp,
                "leftover atomic-publish temp file",
            ),
            Entry::Refused(why) => {
                refused = true;
                ScrubFinding::new(path, ScrubDamage::Unreadable, why)
            }
        };
        findings.push(finding);
    }
    if pool_manifest || !shards.is_empty() {
        findings.push(scrub_pool_manifest(fs, dir, shards.len()));
    }
    if quarantine {
        for f in &mut findings[start..] {
            let refused_residue = refused && f.damage.is_residue();
            if !f.damage.quarantinable() || refused_residue || !fs.exists(&f.path) {
                continue;
            }
            match quarantine_file(fs, &f.path) {
                Ok(dest) => f.quarantined_to = Some(dest),
                Err(e) => f.detail.push_str(&format!("; quarantine failed: {e}")),
            }
        }
    }
    for shard in shards {
        scan_dir::<P>(fs, &shard, quarantine, findings);
    }
}

/// Checks a pool root's manifest against the `shards` shard directories
/// present.
fn scrub_pool_manifest(fs: &dyn StorageFs, dir: &Path, shards: usize) -> ScrubFinding {
    let path = dir.join(MANIFEST_FILE);
    let (damage, detail) = match fs.exists(&path).then(|| fs.read(&path)) {
        None => (
            ScrubDamage::ManifestMismatch,
            format!("manifest missing ({shards} shard directories present)"),
        ),
        Some(Err(e)) => (
            ScrubDamage::Unreadable,
            format!("cannot read manifest: {e}"),
        ),
        Some(Ok(bytes)) => match decode_manifest(&bytes) {
            Err(e) => (
                ScrubDamage::ManifestMismatch,
                format!("manifest fails validation: {e}"),
            ),
            Ok(declared) if declared != shards => (
                ScrubDamage::ManifestMismatch,
                format!(
                    "manifest declares {declared} shards but {shards} shard directories present"
                ),
            ),
            Ok(declared) => (ScrubDamage::Clean, format!("{declared} shards")),
        },
    };
    ScrubFinding::new(path, damage, detail)
}

/// Classifies the segment manifest (when present) and reports every
/// segment it references that has no file on disk. Returns the decoded
/// manifest, `None` when there is none, and `Err` when it does not read.
fn scrub_segment_manifest(
    fs: &dyn StorageFs,
    dir: &Path,
    findings: &mut Vec<ScrubFinding>,
) -> Result<Option<SegmentManifest>, ()> {
    let path = dir.join(SEGMENT_MANIFEST_FILE);
    if !fs.exists(&path) {
        return Ok(None);
    }
    let (damage, detail) = match fs.read(&path).map(|b| SegmentManifest::decode(&b)) {
        Err(e) => (
            ScrubDamage::Unreadable,
            format!("cannot read segment manifest: {e}"),
        ),
        Ok(Err(e)) => (
            ScrubDamage::ManifestMismatch,
            format!("segment manifest fails validation: {e}"),
        ),
        Ok(Ok(m)) => {
            for &id in &m.segments {
                let seg = dir.join(segment_file_name(id));
                if !fs.exists(&seg) {
                    findings.push(ScrubFinding::new(
                        seg,
                        ScrubDamage::ManifestMismatch,
                        format!("segment {id} referenced by manifest is missing"),
                    ));
                }
            }
            let detail = format!("epoch {}, {} segment(s)", m.epoch, m.segments.len());
            findings.push(ScrubFinding::new(path, ScrubDamage::Clean, detail));
            return Ok(Some(m));
        }
    };
    findings.push(ScrubFinding::new(path, damage, detail));
    Err(())
}

/// Deep-checks one live segment through the reader recovery uses:
/// [`SegmentMeta::open`] (framing, index, id), then every block's CRC.
fn scrub_segment(fs: &dyn StorageFs, dir: &Path, id: u64) -> ScrubFinding {
    let checked = SegmentMeta::open(fs, dir, id).and_then(|meta| {
        for entry in &meta.index {
            meta.read_block(fs, entry)?;
        }
        Ok(meta)
    });
    let (damage, detail) = match checked {
        Ok(meta) => (
            ScrubDamage::Clean,
            format!(
                "segment {id} (format v{}), {} byte(s)",
                meta.version, meta.file_len
            ),
        ),
        Err(DurableError::CorruptSegment(what @ "block checksum mismatch")) => {
            (ScrubDamage::SegmentRot, format!("segment {id}: {what}"))
        }
        Err(DurableError::CorruptSegment(what)) => {
            (ScrubDamage::TornSegment, format!("segment {id}: {what}"))
        }
        Err(e) => (ScrubDamage::Unreadable, format!("cannot read segment: {e}")),
    };
    ScrubFinding::new(dir.join(segment_file_name(id)), damage, detail)
}

/// Classifies one WAL image. CRC validity alone is not enough for a clean
/// verdict: each valid frame's payload must also decode as a transaction,
/// otherwise recovery would refuse the log just the same. A WAL that is not
/// clean keeps one line per valid frame.
fn scrub_wal<P: SpPredicate + WireCodec>(fs: &dyn StorageFs, path: PathBuf) -> ScrubFinding {
    let bytes = match fs.read(&path) {
        Ok(b) => b,
        Err(e) => {
            let detail = format!("cannot read WAL: {e}");
            return ScrubFinding::new(path, ScrubDamage::Unreadable, detail);
        }
    };
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        // Torn creation: the 8-byte header never completed. Recovery
        // rebuilds such a file empty (nothing was ever acknowledged
        // through it), so this is crash residue, not corruption.
        let detail = format!("torn creation: {} byte(s), header incomplete", bytes.len());
        return ScrubFinding::new(path, ScrubDamage::TornTail, detail).frames(0);
    }
    let scan = scan_frames(&bytes);
    let mut undecodable = None;
    let mut lines = Vec::with_capacity(scan.frames.len());
    for f in &scan.frames {
        let start = f.offset as usize + FRAME_HEADER_LEN;
        let entries = match decode_txn::<P>(&bytes[start..start + f.len as usize]) {
            Ok(entries) => entries.iter().map(describe).collect::<Vec<_>>().join(", "),
            Err(e) => {
                undecodable.get_or_insert(format!(
                    "frame {} (offset {}) passes CRC but payload fails to decode: {e}",
                    f.index, f.offset
                ));
                format!("UNDECODABLE: {e}")
            }
        };
        lines.push(format!(
            "record {:>4}  offset {:>8}  {:>6} payload bytes  {entries}",
            f.index, f.offset, f.len
        ));
    }
    let (damage, detail) = match (undecodable, scan.verdict, scan.bad) {
        (Some(what), ..) => (ScrubDamage::MidLogCorruption, what),
        (None, WalVerdict::Clean, _) => (
            ScrubDamage::Clean,
            format!("{} frame(s), {} byte(s)", scan.frames.len(), scan.valid_len),
        ),
        (None, WalVerdict::TornTail, Some(bad)) => (
            ScrubDamage::TornTail,
            format!(
                "final record (index {}, offset {}) is partial: {}",
                bad.index, bad.offset, bad.reason
            ),
        ),
        (None, WalVerdict::MidLogCorruption, Some(bad)) => (
            ScrubDamage::MidLogCorruption,
            format!(
                "damaged frame {} (offset {}) followed by valid data: {}",
                bad.index, bad.offset, bad.reason
            ),
        ),
        (None, ..) => (
            ScrubDamage::MidLogCorruption,
            "unrecognizable WAL header".into(),
        ),
    };
    let mut finding = ScrubFinding::new(path, damage, detail).frames(scan.frames.len() as u64);
    if damage != ScrubDamage::Clean {
        finding.frame_lines = lines;
    }
    finding
}

/// One transaction entry the way a post-mortem reads it: `init attr 3
/// n=140`, `attr 0 split`.
fn describe<P>(entry: &TxnEntry<P>) -> String {
    let (attr, op) = match entry {
        TxnEntry::Init { attr, n } => return format!("init attr {attr} n={n}"),
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
    format!("attr {attr} {kind}")
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

    fn seed_segment_store(dir: &Path) {
        use crate::lsm::manifest::write_segment_manifest;
        use crate::lsm::segment::write_segment;
        let fs = real_fs();
        write_segment(
            fs.as_ref(),
            dir,
            0,
            &[
                (1, b"partition-one".to_vec()),
                (2, b"partition-two".to_vec()),
            ],
        )
        .unwrap();
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
            findings: vec![ScrubFinding::new(
                "/tmp/x/wal.1.log",
                ScrubDamage::TornTail,
                "say \"torn\"",
            )
            .frames(3)],
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
