//! scrub — check a PRKB durability directory the way its open reads it.
//!
//! Runs the open's read phase, which writes nothing, over a pool directory:
//! its checkpoint segments (format version 2, or the version-1 files an
//! older binary wrote — each finding names which) and their manifest, one
//! scan and replay of its WAL. A pool of the previous layout (a
//! `manifest.bin` and one `shard.<i>/` per shard) is read the way its open
//! reads it before converting it: the pool manifest against the shard
//! directories, then each shard directory as above. It reports per file:
//! clean, torn tail, mid-log corruption, segment rot, torn segment,
//! manifest mismatch, unreadable — a corruption exactly where a reopen
//! would refuse, plus rot in a superseded segment block, which no open
//! reads — or crash residue — a stray temp file, a stray segment (one the
//! manifest does not list), a stale WAL (older than the manifest), a stale
//! layout (per-shard files a conversion left) — which the next reopen
//! removes. Under every WAL that is not clean it
//! prints the log frame by frame: index, offset, payload length and the
//! decoded entries. With `--quarantine`, damaged artifacts and residue are
//! *moved* into a sibling `quarantine/` directory — never deleted — so a
//! later reopen proceeds from whatever survives while the evidence is kept.
//!
//! Run with: `cargo run --example scrub -- [--quarantine] [--json] <dir>`
//! (a pool directory, of either layout, or one previous-layout shard
//! directory: the scrubber tells them apart by their file names).
//!
//! Exit codes: 0 = clean, 1 = crash residue only (torn tails, stray or
//! stale files that recovery handles by itself), 2 = hard corruption.

use prkb::core::scrub::{scrub_dir, ScrubReport};
use prkb::core::snapshot::WireCodec;
use prkb::core::SpPredicate;
use prkb::edbms::real_fs;
use prkb::edbms::{EncryptedPredicate, Predicate};
use std::path::{Path, PathBuf};

fn run_scrub<P: SpPredicate + WireCodec>(dir: &Path, quarantine: bool) -> ScrubReport {
    scrub_dir::<P>(real_fs().as_ref(), dir, quarantine)
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
        for line in &f.frame_lines {
            println!("        {line}");
        }
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

    // Segments and WAL payloads are codec-specific: production pools carry
    // encrypted trapdoors, demo/test pools plaintext predicates. Dry-run
    // both and keep whichever reads with fewer corruptions — only then
    // quarantine, so a codec mismatch can never move a healthy file.
    let enc = run_scrub::<EncryptedPredicate>(&dir, false);
    let plain = run_scrub::<Predicate>(&dir, false);
    let encrypted_wins = enc.corruptions <= plain.corruptions;
    let mut report = if encrypted_wins { enc } else { plain };
    if quarantine && !report.is_clean() {
        report = if encrypted_wins {
            run_scrub::<EncryptedPredicate>(&dir, true)
        } else {
            run_scrub::<Predicate>(&dir, true)
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
