//! scrub — walk a PRKB durability directory and classify every artifact.
//!
//! CRC-walks the checkpoint segments (format version 2, or the version-1
//! files an older binary wrote — each finding names which) and their
//! manifest, every `wal.<epoch>.log` frame, and (for sharded pools) the
//! pool manifest, then reports per-file verdicts: clean, torn tail,
//! mid-log corruption, segment rot, manifest mismatch, unreadable, a
//! stray temp file, or a stray segment (one the manifest does not list —
//! superseded or never swapped in; the next reopen deletes it). With
//! `--quarantine`, damaged artifacts are *moved* into a sibling
//! `quarantine/` directory — never deleted — so a later reopen proceeds
//! from whatever survives while the evidence is kept.
//!
//! Run with: `cargo run --example scrub -- [--quarantine] [--json] <dir>`
//! (a pool directory is recognized by its `manifest.bin` / `shard.<i>/`
//! entries; anything else is scrubbed as a single engine directory).
//!
//! Exit codes: 0 = clean, 1 = crash residue only (torn tails / stray
//! temps that recovery handles by itself), 2 = hard corruption.

use prkb::core::scrub::{scrub_engine_dir, scrub_pool_dir, ScrubReport};
use prkb::core::snapshot::WireCodec;
use prkb::core::storage::real_fs;
use prkb::core::SpPredicate;
use prkb::edbms::{EncryptedPredicate, Predicate};
use std::path::{Path, PathBuf};

fn is_pool_dir(dir: &Path) -> bool {
    if dir.join("manifest.bin").exists() {
        return true;
    }
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten().any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("shard."))
                    && e.path().is_dir()
            })
        })
        .unwrap_or(false)
}

fn run_scrub<P: SpPredicate + WireCodec>(dir: &Path, pool: bool, quarantine: bool) -> ScrubReport {
    if pool {
        scrub_pool_dir::<P>(real_fs().as_ref(), dir, quarantine)
    } else {
        scrub_engine_dir::<P>(real_fs().as_ref(), dir, quarantine)
    }
}

fn print_human(report: &ScrubReport) {
    println!(
        "== scrub {} ({} file(s) scanned) ==",
        report.root.display(),
        report.files_scanned
    );
    for f in &report.findings {
        let frames = f
            .frames_valid
            .map(|n| format!("  [{n} valid frame(s)]"))
            .unwrap_or_default();
        println!(
            "  {:<20} {}{frames}\n      {}",
            f.damage.name(),
            f.path.display(),
            f.detail
        );
        if let Some(q) = &f.quarantined_to {
            println!("      -> quarantined to {}", q.display());
        }
    }
    println!(
        "  summary: {} corruption(s), {} file(s) quarantined",
        report.corruptions, report.quarantined
    );
}

fn main() {
    let mut quarantine = false;
    let mut json = false;
    let mut dir: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quarantine" => quarantine = true,
            "--json" => json = true,
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: scrub [--quarantine] [--json] <dir>");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: scrub [--quarantine] [--json] <dir>");
        std::process::exit(2);
    };
    if !dir.is_dir() {
        eprintln!("not a directory: {}", dir.display());
        std::process::exit(2);
    }
    let pool = is_pool_dir(&dir);

    // WAL payloads are codec-specific: production logs carry encrypted
    // trapdoors, demo/test logs plaintext predicates. Dry-run both and
    // keep whichever decodes more of the log — only then quarantine, so
    // a codec mismatch can never move a healthy file.
    let enc = run_scrub::<EncryptedPredicate>(&dir, pool, false);
    let plain = run_scrub::<Predicate>(&dir, pool, false);
    let encrypted_wins = enc.corruptions <= plain.corruptions;
    let mut report = if encrypted_wins { enc } else { plain };
    if quarantine && report.quarantined == 0 && report.has_corruption() {
        report = if encrypted_wins {
            run_scrub::<EncryptedPredicate>(&dir, pool, true)
        } else {
            run_scrub::<Predicate>(&dir, pool, true)
        };
    }

    if json {
        println!("{}", report.to_json());
    } else {
        print_human(&report);
    }
    let code = if report.has_corruption() {
        2
    } else if report.is_clean() {
        0
    } else {
        1
    };
    std::process::exit(code);
}
