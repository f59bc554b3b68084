//! Query-cost observability quickstart: per-query `QueryStats`, the global
//! metrics registry, and the stable `prkb-metrics/v8` JSON snapshot.
//!
//! Every `PrkbEngine` entry point records into `prkb::core::metrics::global()`
//! automatically — counters are lock-free atomics, so the overhead is a few
//! relaxed adds per query and nothing at all is spent formatting until a
//! snapshot is taken.
//!
//! Run with: `cargo run --example metrics --release`

use prkb::core::{metrics, EngineConfig, PrkbEngine};
use prkb::datagen::synthetic;
use prkb::edbms::{ComparisonOp, DataOwner, Predicate, SpOracle, TmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 50_000;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let col = synthetic::uniform_column(N, 7);
    let plain = prkb::edbms::PlainTable::single_column("t", "x", col);
    let owner = DataOwner::with_seed(7);
    let table = owner.encrypt_table(&plain, &mut rng);
    let tm = owner.trusted_machine(TmConfig::default());
    let oracle = SpOracle::new(&table, &tm);

    let mut engine: PrkbEngine<_> = PrkbEngine::new(EngineConfig::default());
    engine.init_attr(0, N);

    // Fresh baseline for the demo (the registry is process-global).
    metrics::global().reset();

    // --- Per-query stats: the full cost breakdown of each selection. -----
    println!("query                          qpf  probes  batches  ns_width  k_after");
    for (i, bound) in [40_000u64, 10_000, 25_000, 25_500, 24_800]
        .iter()
        .enumerate()
    {
        let p = owner
            .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, *bound), &mut rng)
            .expect("valid predicate");
        let sel = engine.select(&oracle, &p, &mut rng);
        let s = sel.stats;
        println!(
            "#{i} x < {bound:>6}        {:>10}  {:>6}  {:>7}  {:>8}  {:>7}",
            s.qpf_uses, s.filter_probes, s.oracle_batches, s.ns_width, s.k_after
        );
    }

    // --- The registry: cumulative counters + log-scale histograms. -------
    let snap = metrics::global().snapshot();
    println!();
    println!(
        "comparison queries: {}   total QPF: {}   oracle batches: {}",
        snap.counter("queries_comparison").unwrap_or(0),
        snap.counter("query_qpf_uses").unwrap_or(0),
        snap.counter("oracle_batches").unwrap_or(0),
    );
    println!(
        "partitions pruned (true/false): {}/{}   splits: {}",
        snap.counter("partitions_pruned_true").unwrap_or(0),
        snap.counter("partitions_pruned_false").unwrap_or(0),
        snap.counter("splits").unwrap_or(0),
    );
    if let Some(h) = snap.histogram("qpf_per_query") {
        println!("qpf_per_query histogram (log2 buckets): {h:?}");
    }

    // --- Machine-readable export: stable prkb-metrics/v8 schema. ---------
    println!();
    let json = snap.to_json();
    // Smoke-check the checkpoint-storage keys: present in every snapshot,
    // also before any rotation ran, so dashboards can rely on the schema.
    for key in ["segments_live", "segment_flush_bytes", "recovery_ms"] {
        assert!(json.contains(&format!("\"{key}\":")), "key {key} missing");
    }
    println!("{json}");
}
