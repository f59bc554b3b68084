//! One table for the six decoders `prkb-core` and `prkb-edbms` own —
//! snapshot, WAL transaction (both split record forms), pool manifest, segment manifest, segment
//! framing (both versions), trapdoor — under the hostile-input driver
//! (`common/hostile.rs`). The images are the parent-written fixtures; the
//! decoders are reached the way recovery and the scrubber reach them. `prkb-server`'s `wire_hardening` holds the
//! table for requests and responses.

mod common;
#[path = "common/hostile.rs"]
mod hostile;

use common::TmpDir;
use hostile::{assert_hostile_inputs_are_refused, Case};
use prkb_core::lsm::manifest::read_segment_manifest;
use prkb_core::lsm::{segment_file_name, SegmentMeta, SEGMENT_MANIFEST_FILE};
use prkb_core::scrub::{scrub_dir, ScrubDamage, ScrubFinding, ScrubReport};
use prkb_core::{durability::decode_txn, snapshot};
use prkb_edbms::codec::Reader;
use prkb_edbms::durability::{scan_frames, FRAME_HEADER_LEN};
use prkb_edbms::{real_fs, ComparisonOp, DataOwner, EncryptedPredicate, PlainTable, Predicate};
use rand::{rngs::StdRng, SeedableRng};
use std::path::Path;

/// Whether the scrubber found the artifact named `file` clean.
fn scrubbed_clean(report: &ScrubReport, file: &str) -> bool {
    let clean = |f: &ScrubFinding| f.damage == ScrubDamage::Clean && f.path.ends_with(file);
    report.findings.iter().any(clean)
}

#[test]
fn every_decoder_refuses_prefixes_and_flips_without_panicking_or_over_allocating() {
    let fs = real_fs();
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let fixture = |file: &str| std::fs::read(fixtures.join(file)).expect("fixture exists");
    // File-backed decoders are probed in a scratch engine directory, and a
    // pool directory holding the two shards the fixture manifest declares.
    let dir = TmpDir::new("codec");
    let write = |file: &str, bytes: &[u8]| std::fs::write(dir.0.join(file), bytes).expect("probe");
    let pool = TmpDir::new("codec-pool");
    for sid in 0..2 {
        std::fs::create_dir(pool.shard(sid)).expect("shard dir");
    }

    let mut cases = vec![
        Case::raw("snapshot", fixture("parent_pool_seg/attr.0.snap"), |b| {
            snapshot::load::<Predicate>(b).is_ok()
        }),
        Case::sealed(
            "pool manifest",
            fixture("parent_pool_seg/manifest.bin"),
            |b| {
                std::fs::write(pool.0.join("manifest.bin"), b).expect("probe");
                let report = scrub_dir::<Predicate>(fs.as_ref(), &pool.0, false);
                scrubbed_clean(&report, "manifest.bin")
            },
        ),
        Case::sealed(
            "segment manifest",
            fixture("parent_pool_seg/shard.1/segments.manifest"),
            |b| {
                write(SEGMENT_MANIFEST_FILE, b);
                read_segment_manifest(fs.as_ref(), &dir.0).is_ok()
            },
        ),
    ];
    // Both split record generations: member lists (tag 0, in the WALs
    // earlier commits wrote) and one bit per member (tag 6, pinned).
    for file in [
        "parent_pool_seg/shard.1/wal.1.log",
        "parent_wal_lists/shard.0/wal.0.log",
    ] {
        let wal = fixture(file);
        for frame in scan_frames(&wal).frames {
            let start = frame.offset as usize + FRAME_HEADER_LEN;
            let payload = wal[start..start + frame.len as usize].to_vec();
            cases.push(Case::raw(
                &format!("{file} record {}", frame.index),
                payload,
                |b| decode_txn::<Predicate>(b).is_ok(),
            ));
        }
    }
    cases.push(Case::raw(
        "split record",
        fixture("split_record.bin"),
        |b| decode_txn::<Predicate>(b).is_ok(),
    ));
    // Format v1 (parent-written, bloom block in the aux extent) and v2.
    for (file, id) in [
        ("parent_pool_seg/shard.1/segment.0.seg", 0),
        ("segment_v2.bin", 7),
    ] {
        let (fs, write, dir) = (&fs, &write, &dir.0);
        let mut case = Case::sealed(file, fixture(file), move |b| {
            write(&segment_file_name(id), b);
            SegmentMeta::open(fs.as_ref(), dir, id).is_ok_and(|meta| {
                let intact = |entry| meta.read_block(fs.as_ref(), entry).is_ok();
                meta.index.iter().all(intact)
            })
        });
        // The header's reserved bytes: no magic, version, id or checksum
        // test covers them.
        case.unchecked = 6..8;
        cases.push(case);
    }

    let mut rng = StdRng::seed_from_u64(20);
    let owner = DataOwner::with_seed(6);
    owner.encrypt_table(
        &PlainTable::single_column("t", "x", vec![1, 2, 3]),
        &mut rng,
    );
    let mut trapdoor = Vec::new();
    owner
        .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, 2), &mut rng)
        .expect("valid predicate")
        .encode_into(&mut trapdoor);
    cases.push(Case::raw("trapdoor", trapdoor, |b| {
        let mut r = Reader::new(b);
        EncryptedPredicate::decode(&mut r).is_some() && r.finish().is_ok()
    }));

    assert_hostile_inputs_are_refused(&cases);
}
