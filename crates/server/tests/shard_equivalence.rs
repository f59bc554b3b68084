//! Concurrent-execution equivalence (DESIGN.md §6).
//!
//! The scheduler's observable contract: a random multi-attribute workload —
//! conjunctions whose footprints span several attributes, BETWEENs,
//! single-attribute comparisons — executed by 4 concurrent worker threads
//! over one lock per attribute must
//!
//! 1. never deadlock (footprints locked in ascending attribute id),
//! 2. assign dense commit sequence numbers, and
//! 3. be **byte-equivalent** to replaying the same operations sequentially,
//!    in commit-sequence order, on a single plain engine: identical
//!    result tuples, identical per-query (hence total) QPF spend, identical
//!    final knowledge-base bytes.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::kb_bytes;
use prkb_core::{EngineConfig, PrkbEngine};
use prkb_edbms::testing::PlainOracle;
use prkb_edbms::{AttrId, ComparisonOp, Predicate};
use prkb_server::scheduler::{SessionOracle, SessionScheduler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ATTRS: u32 = 6;
const ROWS: usize = 240;
const THREADS: usize = 4;

/// One scripted operation: a conjunction over `preds` (a single predicate
/// degenerates to a plain selection) with a pinned per-op RNG seed, so the
/// concurrent run and the sequential replay draw identical streams.
#[derive(Debug, Clone)]
struct ScriptOp {
    preds: Vec<Predicate>,
    attrs: Vec<AttrId>,
    rng_seed: u64,
}

fn build_script(seed: u64, rounds: usize) -> Vec<Vec<ScriptOp>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..THREADS)
        .map(|_| {
            (0..rounds)
                .map(|_| {
                    let width = rng.gen_range(1..=4usize);
                    let mut attrs: Vec<AttrId> = (0..ATTRS).collect();
                    for i in (1..attrs.len()).rev() {
                        attrs.swap(i, rng.gen_range(0..=i));
                    }
                    attrs.truncate(width);
                    attrs.sort_unstable();
                    let preds = attrs
                        .iter()
                        .map(|&a| {
                            let lo = rng.gen_range(0..700u64);
                            match rng.gen_range(0..3u8) {
                                0 => Predicate::cmp(a, ComparisonOp::Lt, lo + 200),
                                1 => Predicate::cmp(a, ComparisonOp::Ge, lo),
                                _ => Predicate::between(a, lo, lo + rng.gen_range(50..300u64)),
                            }
                        })
                        .collect();
                    ScriptOp {
                        preds,
                        attrs: attrs.clone(),
                        rng_seed: rng.gen(),
                    }
                })
                .collect()
        })
        .collect()
}

fn columns(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    (0..ATTRS)
        .map(|_| (0..ROWS).map(|_| rng.gen_range(0..1_000u64)).collect())
        .collect()
}

/// What one committed operation observably did.
#[derive(Debug)]
struct Observed {
    seq: u64,
    op: ScriptOp,
    tuples: Vec<u32>,
    qpf: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    fn concurrent_sharded_run_equals_sequential_replay(
        seed in any::<u64>(),
        rounds in 2usize..6,
    ) {
        let script = build_script(seed, rounds);
        let oracle = Arc::new(PlainOracle::from_columns(columns(seed)));

        // Concurrent run: 4 worker threads, exactly the server's
        // worker-pool shape.
        let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
        for a in 0..ATTRS {
            engine.init_attr(a, ROWS);
        }
        let sched = Arc::new(SessionScheduler::new(engine));
        let mut handles = Vec::new();
        for ops in script.iter().cloned() {
            let sched = Arc::clone(&sched);
            let oracle = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                for op in ops {
                    let session = SessionOracle::new(&*oracle);
                    let preds = op.preds.clone();
                    let rng_seed = op.rng_seed;
                    let (sel, seq) = sched
                        .with_detached(&op.attrs, |sub| {
                            sub.try_select_where(
                                &session,
                                &preds,
                                &mut StdRng::seed_from_u64(rng_seed),
                            )
                        })
                        .expect("conjunction commits");
                    seen.push(Observed {
                        seq,
                        op,
                        tuples: sel.sorted(),
                        qpf: sel.stats.qpf_uses,
                    });
                }
                seen
            }));
        }
        let mut observed: Vec<Observed> = Vec::new();
        for h in handles {
            observed.extend(h.join().expect("no worker deadlocks or panics"));
        }

        // Dense commit sequence: every committed op drew exactly one.
        observed.sort_by_key(|o| o.seq);
        let total = THREADS * rounds;
        prop_assert_eq!(observed.len(), total);
        for (i, o) in observed.iter().enumerate() {
            prop_assert_eq!(o.seq, i as u64 + 1, "commit sequence must be dense");
        }

        // Sequential replay on a single plain engine, in commit order.
        let mut replay: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
        for a in 0..ATTRS {
            replay.init_attr(a, ROWS);
        }
        let mut concurrent_qpf = 0u64;
        let mut replay_qpf = 0u64;
        for o in &observed {
            let sel = replay
                .try_select_where(
                    &*oracle,
                    &o.op.preds,
                    &mut StdRng::seed_from_u64(o.op.rng_seed),
                )
                .expect("replay commits");
            prop_assert_eq!(
                &o.tuples,
                &sel.sorted(),
                "seq {}: result tuples diverge from sequential replay",
                o.seq
            );
            prop_assert_eq!(
                o.qpf,
                sel.stats.qpf_uses,
                "seq {}: QPF spend diverges from sequential replay",
                o.seq
            );
            concurrent_qpf += o.qpf;
            replay_qpf += sel.stats.qpf_uses;
        }
        prop_assert_eq!(concurrent_qpf, replay_qpf, "total QPF spend must match");

        // The final knowledge is byte-identical too: concurrency changed
        // the execution, not the refinement history.
        let merged = match Arc::try_unwrap(sched) {
            Ok(s) => s.into_engine(),
            Err(_) => panic!("all workers joined"),
        };
        prop_assert_eq!(kb_bytes(&merged), kb_bytes(&replay));
    }
}
