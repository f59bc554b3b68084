//! walinspect — dump a PRKB write-ahead log, flagging the first bad frame.
//!
//! Post-mortem companion to the durability layer (DESIGN.md §8): prints
//! every committed record with its offset, payload size, and decoded
//! refinement operations, then reports how the log ends — clean, with a
//! torn (discarded) tail, or with hard mid-log corruption.
//!
//! When pointed at an engine directory that has checkpointed
//! (DESIGN.md §9), the segment manifest and every `segment.<id>.seg` file
//! are deep-verified too — each with its format version (1 or 2);
//! torn framing, rotted partition blocks, manifest references to missing
//! segments, and stray segments (unlisted: superseded or never swapped
//! in) each get their scrub classification.
//!
//! Run with: `cargo run --example walinspect -- <wal-file | directory>`
//! (a directory is searched for `wal.<epoch>.log` files).

use prkb::core::durability::{decode_txn, TxnEntry};
use prkb::core::lsm::SEGMENT_MANIFEST_FILE;
use prkb::core::scrub::scrub_engine_dir;
use prkb::core::RefinementOp;
use prkb::edbms::durability::{scan_frames, WalVerdict};
use prkb::edbms::{real_fs, EncryptedPredicate, Predicate};
use std::path::{Path, PathBuf};

fn op_name<P>(op: &RefinementOp<P>) -> &'static str {
    match op {
        RefinementOp::Split { .. } => "split",
        RefinementOp::Delete { .. } => "delete",
        RefinementOp::Park { .. } => "park",
        RefinementOp::Place { .. } => "place",
        RefinementOp::Solo { .. } => "solo",
        RefinementOp::Refine { .. } => "refine",
    }
}

/// One human-readable line per transaction entry; tries the encrypted
/// trapdoor codec first (the production format), then the plaintext one
/// (test/demo logs).
fn describe(payload: &[u8]) -> String {
    fn fmt<P>(entries: &[TxnEntry<P>]) -> String {
        if entries.is_empty() {
            return "(empty txn)".into();
        }
        entries
            .iter()
            .map(|e| match e {
                TxnEntry::Init { attr, n } => format!("init attr {attr} n={n}"),
                TxnEntry::Op { attr, op } => format!("attr {attr} {}", op_name(op)),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
    match decode_txn::<EncryptedPredicate>(payload) {
        Ok(entries) => fmt(&entries),
        Err(_) => match decode_txn::<Predicate>(payload) {
            Ok(entries) => format!("{} [plain predicates]", fmt(&entries)),
            Err(e) => format!("UNDECODABLE txn payload: {e}"),
        },
    }
}

fn inspect(path: &Path) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("== {} ({} bytes) ==", path.display(), bytes.len());
    let scan = scan_frames(&bytes);
    for f in &scan.frames {
        let payload = &bytes[f.offset as usize + 8..f.offset as usize + 8 + f.len as usize];
        // The per-frame scrub verdict: CRC validity alone is not enough —
        // a frame whose payload does not decode as a transaction would
        // still make recovery refuse the log.
        let (verdict, detail) = match_payload(payload);
        println!(
            "  record {:>4}  offset {:>8}  {:>6} payload bytes  [{verdict}]  {detail}",
            f.index, f.offset, f.len
        );
    }
    match scan.verdict {
        WalVerdict::Clean => {
            println!("  verdict: clean ({} records)", scan.frames.len());
            Ok(())
        }
        WalVerdict::TornTail => {
            let bad = scan.bad.expect("torn tail reports its bad frame");
            println!(
                "  verdict: torn_tail — record {} (offset {}) is partial ({}); the {} \
                 trailing bytes after offset {} would be discarded on recovery",
                bad.index,
                bad.offset,
                bad.reason,
                bytes.len() as u64 - scan.valid_len,
                scan.valid_len
            );
            Ok(())
        }
        WalVerdict::MidLogCorruption => {
            let bad = scan.bad.expect("mid-log corruption reports its bad frame");
            Err(format!(
                "verdict: mid_log_corruption — record {} (offset {}): {} — valid frames \
                 follow, so recovery refuses this log",
                bad.index, bad.offset, bad.reason
            ))
        }
        WalVerdict::BadHeader => Err("verdict: bad_header — not a PRKB WAL".into()),
    }
}

/// Per-frame verdict: `ok` when the payload decodes as a transaction under
/// either codec, `undecodable` otherwise.
fn match_payload(payload: &[u8]) -> (&'static str, String) {
    match decode_txn::<EncryptedPredicate>(payload) {
        Ok(_) => ("ok", describe(payload)),
        Err(_) => match decode_txn::<Predicate>(payload) {
            Ok(_) => ("ok", describe(payload)),
            Err(e) => ("undecodable", format!("{e}")),
        },
    }
}

/// Deep-verifies the directory's segment store via the scrubber (read-only
/// — quarantine stays off here) and prints one verdict line per artifact.
fn inspect_segments(dir: &Path) -> Result<(), String> {
    println!("== segment store in {} ==", dir.display());
    let report = scrub_engine_dir::<EncryptedPredicate>(real_fs().as_ref(), dir, false);
    let mut corrupt = 0usize;
    for f in &report.findings {
        let name = f.path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name != SEGMENT_MANIFEST_FILE && !name.ends_with(".seg") && !name.ends_with(".seg.tmp") {
            continue;
        }
        println!("  {name:<24} [{}] {}", f.damage.name(), f.detail);
        if f.damage.is_corruption() {
            corrupt += 1;
        }
    }
    if corrupt > 0 {
        Err(format!(
            "verdict: {corrupt} corrupt segment artifact(s) — recovery would refuse this store"
        ))
    } else {
        Ok(())
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| {
        eprintln!("usage: walinspect <wal-file | directory>");
        std::process::exit(2);
    });
    let path = PathBuf::from(arg);
    let mut failed = false;
    if path.is_dir() && path.join(SEGMENT_MANIFEST_FILE).exists() {
        if let Err(e) = inspect_segments(&path) {
            eprintln!("  {e}");
            failed = true;
        }
    }
    let targets: Vec<PathBuf> = if path.is_dir() {
        let mut wals: Vec<PathBuf> = std::fs::read_dir(&path)
            .map(|rd| {
                rd.flatten()
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("wal.") && n.ends_with(".log"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        wals.sort();
        if wals.is_empty() {
            eprintln!("no wal.<epoch>.log files in {}", path.display());
            std::process::exit(2);
        }
        wals
    } else {
        vec![path]
    };
    for t in &targets {
        if let Err(e) = inspect(t) {
            eprintln!("  {e}");
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
