//! **ablations** — the design choices DESIGN.md calls out, each against the
//! alternative it displaced, in the paper's currency (beyond the paper):
//!
//! * **QFilter binary search vs linear sampling** — Algorithm 1's O(lg k)
//!   probes vs one sample per partition until the label flips (O(k));
//! * **QScan early stop vs scan-both** — Algorithm 2's inference vs
//!   evaluating every tuple of both NS partitions;
//! * **MD update policy** — `Frozen` vs `PartialOnly` (free, sound) vs
//!   `CompleteSplits` (extra QPF now, more knowledge later);
//! * **workload locality** — warming PRKB with cuts concentrated in a
//!   hotspot vs spread over the domain, then querying the hotspot.
//!
//! Everything runs over the real encrypted pipeline ([`EncSetup`]) from
//! fixed seeds, with the trapdoors issued before the measured span, so a
//! row's `qpf_uses` (a total over the row's queries) and `k` are
//! deterministic and safe to gate; `ms` rides along.

use crate::harness::{fresh_engine, measure_span, warm_to_k, EncSetup, Measured, Report};
use crate::scale::Scale;
use crate::trajectory::{effective_threads, BenchRow};
use prkb_core::qfilter::{try_qfilter, FilterResult};
use prkb_core::qscan::try_qscan;
use prkb_core::MdUpdatePolicy;
use prkb_datagen::{synthetic, SYNTH_DOMAIN_MAX, SYNTH_DOMAIN_MIN};
use prkb_edbms::{ComparisonOp, EncryptedPredicate, SelectionOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// One measured alternative: totals over the row's queries.
fn row(id: &str, cost: Measured, k: usize, n: usize) -> BenchRow {
    BenchRow {
        id: id.to_string(),
        qpf_uses: cost.qpf_uses,
        ms: cost.ms,
        k: k as u64,
        n: n as u64,
        threads: effective_threads(),
    }
}

/// `count` trapdoors `X < c`, with `c` drawn from `cuts`.
fn cut_trapdoors(
    setup: &EncSetup,
    cuts: Range<u64>,
    count: usize,
    rng: &mut StdRng,
) -> Vec<EncryptedPredicate> {
    (0..count)
        .map(|_| {
            let cut = rng.gen_range(cuts.clone());
            setup.cmp_trapdoor(0, ComparisonOp::Lt, cut, rng)
        })
        .collect()
}

/// QFilter and QScan against their alternatives on one warmed, static POP.
fn filter_and_scan(scale: Scale, rows: &mut Vec<BenchRow>) {
    let n = scale.tuples(2_000_000);
    let queries = scale.queries(100);
    let setup = EncSetup::new("abl", vec![synthetic::uniform_column(n, 1)], 1);
    let oracle = setup.oracle();
    let mut engine = fresh_engine(&setup, true);
    let _ = warm_to_k(&mut engine, &setup, 0, 400, 0.01, 2);
    let pop = engine.knowledge(0).expect("attribute 0 is indexed").pop();
    let mut rng = StdRng::seed_from_u64(3);
    let preds = cut_trapdoors(
        &setup,
        SYNTH_DOMAIN_MIN..SYNTH_DOMAIN_MAX,
        queries,
        &mut rng,
    );

    let (filters, binary) = measure_span(&oracle, || {
        let filter = |p| try_qfilter(pop, &oracle, p, &mut rng).expect("fault-free oracle");
        preds.iter().map(filter).collect::<Vec<_>>()
    });
    // The alternative: sample partitions in rank order until the label
    // flips; the NS-pair is where it did.
    let ((), linear) = measure_span(&oracle, || {
        for p in &preds {
            let first = oracle.eval(p, pop.sample_at(0, &mut rng));
            let _ns = (1..pop.k()).find(|&r| oracle.eval(p, pop.sample_at(r, &mut rng)) != first);
        }
    });

    // The filter is shared; only the scan of the NS-pair it found differs.
    let (inferred, early_stop) = measure_span(&oracle, || {
        let scan = |(p, f)| try_qscan(pop, &oracle, p, f).expect("fault-free oracle");
        let scans = preds.iter().zip(&filters).map(scan);
        scans.map(|s| s.winners.len()).collect::<Vec<_>>()
    });
    let (scanned, scan_both) = measure_span(&oracle, || {
        let exhaustive = |(p, f): (_, &FilterResult)| {
            let (a, b) = f.ns.expect("a warmed POP is not empty");
            let second = if a == b { &[][..] } else { pop.members_at(b) };
            let both = pop.members_at(a).iter().chain(second);
            both.filter(|&&t| oracle.eval(p, t)).count()
        };
        preds
            .iter()
            .zip(&filters)
            .map(exhaustive)
            .collect::<Vec<_>>()
    });
    assert_eq!(inferred, scanned, "the inference agrees with the scan");

    for (id, cost) in [
        ("qfilter_binary", binary),
        ("qfilter_linear", linear),
        ("qscan_early_stop", early_stop),
        ("qscan_scan_both", scan_both),
    ] {
        rows.push(row(id, cost, pop.k(), n));
    }
}

/// The same 2-D range workload under each MD refinement policy, from a cold
/// index.
fn md_policies(scale: Scale, rows: &mut Vec<BenchRow>) {
    let n = scale.tuples(500_000);
    let queries = scale.queries(100);
    let cols = synthetic::table(n, 2, synthetic::ColumnCorrelation::Independent, 5);
    let setup = EncSetup::new("abl", cols, 5);
    let oracle = setup.oracle();
    let span = (SYNTH_DOMAIN_MAX - SYNTH_DOMAIN_MIN) / 20; // 5% per dimension
    let mut rng = StdRng::seed_from_u64(6);
    let windows: Vec<Vec<[EncryptedPredicate; 2]>> = (0..queries)
        .map(|_| {
            let dim = |a| {
                let lo = rng.gen_range(SYNTH_DOMAIN_MIN..SYNTH_DOMAIN_MAX - span);
                setup.range_trapdoors(a, lo, lo + span, &mut rng)
            };
            (0..2).map(dim).collect()
        })
        .collect();
    for (id, policy) in [
        ("md_policy_frozen", MdUpdatePolicy::Frozen),
        ("md_policy_partial_only", MdUpdatePolicy::PartialOnly),
        ("md_policy_complete_splits", MdUpdatePolicy::CompleteSplits),
    ] {
        let mut engine = fresh_engine(&setup, true);
        engine.config.md_policy = policy;
        let mut rng = StdRng::seed_from_u64(7);
        let ((), cost) = measure_span(&oracle, || {
            for dims in &windows {
                engine.select_range_md(&oracle, dims, &mut rng);
            }
        });
        let k = (0..2)
            .map(|a| engine.knowledge(a).map_or(0, |kb| kb.k()))
            .sum();
        rows.push(row(id, cost, k, n));
    }
}

/// Hotspot queries against an index warmed inside the hotspot only vs one
/// warmed across the whole domain, at equal warm-up query count.
fn workload_locality(scale: Scale, rows: &mut Vec<BenchRow>) {
    let n = scale.tuples(2_000_000);
    let queries = scale.queries(100);
    let hotspot = SYNTH_DOMAIN_MIN..SYNTH_DOMAIN_MAX / 10;
    let setup = EncSetup::new("abl", vec![synthetic::uniform_column(n, 7)], 7);
    let oracle = setup.oracle();
    for (id, warm_cuts) in [
        (
            "locality_uniform_warmup",
            SYNTH_DOMAIN_MIN..SYNTH_DOMAIN_MAX,
        ),
        ("locality_hotspot_warmup", hotspot.clone()),
    ] {
        let mut engine = fresh_engine(&setup, true);
        let mut rng = StdRng::seed_from_u64(8);
        for pred in cut_trapdoors(&setup, warm_cuts, 60, &mut rng) {
            engine.select(&oracle, &pred, &mut rng);
        }
        let preds = cut_trapdoors(&setup, hotspot.clone(), queries, &mut rng);
        let ((), cost) = measure_span(&oracle, || {
            for pred in &preds {
                engine.select(&oracle, pred, &mut rng);
            }
        });
        let k = engine.knowledge(0).map_or(0, |kb| kb.k());
        rows.push(row(id, cost, k, n));
    }
}

/// Runs every ablation; a row's `qpf_uses` and `ms` are totals over its
/// `Scale::queries(100)` queries.
pub fn measure(scale: Scale) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    filter_and_scan(scale, &mut rows);
    md_policies(scale, &mut rows);
    workload_locality(scale, &mut rows);
    rows
}

/// Renders the report and the trajectory rows.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let rows = measure(scale);
    let mut report = Report::new(&format!(
        "ablations — each design choice against its alternative, totals over {} queries",
        scale.queries(100)
    ));
    report.line(format!(
        "{:>28}{:>10}{:>8}{:>14}{:>12}{:>12}",
        "row", "n", "k", "QPF total", "QPF/query", "ms total"
    ));
    for r in &rows {
        let per_query = r.qpf_uses as f64 / scale.queries(100) as f64;
        report.line(format!(
            "{:>28}{:>10}{:>8}{:>14}{:>12.1}{:>12.3}",
            r.id, r.n, r.k, r.qpf_uses, per_query, r.ms
        ));
    }
    (report.finish(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_choice_beats_its_alternative_in_qpf() {
        let rows = measure(Scale::Ci);
        let qpf = |id: &str| {
            let row = rows.iter().find(|r| r.id == id);
            row.unwrap_or_else(|| panic!("row {id}")).qpf_uses
        };
        assert!(qpf("qfilter_binary") * 4 < qpf("qfilter_linear"));
        assert!(qpf("qscan_early_stop") < qpf("qscan_scan_both"));
        assert!(qpf("md_policy_partial_only") < qpf("md_policy_frozen"));
    }
}
