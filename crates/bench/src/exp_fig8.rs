//! **Fig. 8** — query performance with a *growing* PRKB (paper §8.2.3):
//! 600 distinct range queries (1% selectivity) against 10M tuples; the
//! i-th query's `# QPF use` and execution time for PRKB(SD), with
//! Logarithmic-SRC-i and the index-less Baseline as references.

use crate::harness::{fresh_engine, measure_span, EncSetup, Report};
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_datagen::{synthetic, WorkloadGen, SYNTH_DOMAIN_MAX, SYNTH_DOMAIN_MIN};
use prkb_edbms::select::conjunctive_scan;
use prkb_srci::{confirm, SrciClient, SrciConfig, SrciIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-checkpoint measurements.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// 1-based index of the distinct query.
    pub query: usize,
    /// PRKB(SD) QPF uses for this query.
    pub prkb_qpf: u64,
    /// PRKB(SD) wall time (ms).
    pub prkb_ms: f64,
    /// Logarithmic-SRC-i wall time (ms), confirmations included.
    pub srci_ms: f64,
    /// SRC-i confirmations (its QPF-equivalent cost).
    pub srci_confirms: u64,
    /// PRKB partitions right after this query.
    pub k: usize,
}

/// Raw results, for the Criterion benches and tests.
pub struct Fig8Data {
    /// One point per recorded query.
    pub points: Vec<Fig8Point>,
    /// Baseline QPF uses (constant across queries).
    pub baseline_qpf: u64,
    /// Baseline wall time (ms).
    pub baseline_ms: f64,
    /// Final partition count.
    pub k_final: usize,
}

/// Runs the Fig. 8 measurement and returns the raw data.
pub fn measure(scale: Scale) -> Fig8Data {
    let n = scale.tuples(10_000_000);
    let n_queries = scale.queries(600);
    let col = synthetic::uniform_column(n, 8);
    let setup = EncSetup::new("fig8", vec![col.clone()], 8);
    let oracle = setup.oracle();
    let gen = WorkloadGen::new(&col, (SYNTH_DOMAIN_MIN, SYNTH_DOMAIN_MAX));
    let mut rng = StdRng::seed_from_u64(88);

    // Logarithmic-SRC-i, built once by the TM.
    let (tk, pk) = setup.owner.search_keys("fig8", 0);
    let client = SrciClient::new(tk, pk);
    let srci = SrciIndex::build(
        &client,
        SrciConfig {
            domain: (SYNTH_DOMAIN_MIN, SYNTH_DOMAIN_MAX),
            bucket_bits: 16,
        },
        &col,
    );

    let mut engine = fresh_engine(&setup);
    let mut points = Vec::with_capacity(n_queries);
    for q in 1..=n_queries {
        let r = gen.range_with_selectivity(0.01, &mut rng);
        let preds = setup.range_trapdoors(0, r.lo, r.hi, &mut rng);

        let (_, prkb) = measure_span(&oracle, || {
            for p in &preds {
                engine.select(&oracle, p, &mut rng);
            }
        });

        let (_, srci_m) = measure_span(&oracle, || {
            let cands = srci.candidates(&client, r.lo + 1, r.hi - 1);
            confirm(&oracle, &preds, &cands)
        });

        points.push(Fig8Point {
            query: q,
            prkb_qpf: prkb.qpf_uses,
            prkb_ms: prkb.ms,
            srci_ms: srci_m.ms,
            srci_confirms: srci_m.qpf_uses,
            k: engine.knowledge(0).map_or(0, |k| k.k()),
        });
    }

    // Baseline: one representative query (cost is data-size bound).
    let r = gen.range_with_selectivity(0.01, &mut rng);
    let preds = setup.range_trapdoors(0, r.lo, r.hi, &mut rng);
    let (_, base) = measure_span(&oracle, || conjunctive_scan(&oracle, &preds));

    Fig8Data {
        points,
        baseline_qpf: base.qpf_uses,
        baseline_ms: base.ms,
        k_final: engine.knowledge(0).map_or(0, |k| k.k()),
    }
}

/// Runs the experiment and formats the paper-figure checkpoints, with one
/// machine-readable trajectory row per checkpoint for `BENCH_fig8.json`.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let n = scale.tuples(10_000_000);
    let data = measure(scale);
    let total = data.points.len();
    let checkpoints = [1usize, 10, 50, 100, 200, 300, 400, 500, 600];
    let rows: Vec<BenchRow> = checkpoints
        .iter()
        .filter(|&&c| c <= total)
        .map(|&cp| {
            let p = &data.points[cp - 1];
            BenchRow {
                id: format!("q{cp}"),
                qpf_uses: p.prkb_qpf,
                ms: p.prkb_ms,
                k: p.k as u64,
                n: n as u64,
                threads: 1,
            }
        })
        .collect();
    (render(scale, n, &data), rows)
}

fn render(scale: Scale, n: usize, data: &Fig8Data) -> String {
    let mut report = Report::new(&format!(
        "Fig. 8: growing PRKB, {n} tuples, 1% selectivity — scale: {}",
        scale.tag()
    ));
    report.row(&[
        "i-th query".into(),
        "PRKB #QPF".into(),
        "PRKB ms".into(),
        "SRC-i ms".into(),
        "SRC-i #conf".into(),
    ]);
    let total = data.points.len();
    let checkpoints = [1usize, 10, 50, 100, 200, 300, 400, 500, 600];
    for &cp in checkpoints.iter().filter(|&&c| c <= total) {
        let p = &data.points[cp - 1];
        report.row(&[
            format!("{cp}"),
            format!("{}", p.prkb_qpf),
            format!("{:.3}", p.prkb_ms),
            format!("{:.3}", p.srci_ms),
            format!("{}", p.srci_confirms),
        ]);
    }
    report.line(format!(
        "Baseline (every query): #QPF = {}, time = {:.3} ms",
        data.baseline_qpf, data.baseline_ms
    ));
    report.line(format!("final PRKB partitions k = {}", data.k_final));
    report.line("shape check (paper): PRKB starts at Baseline cost, drops ~10× by");
    report.line("query 50 (≈ SRC-i), and ends ≥10× below SRC-i at query 600.");
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_holds_at_ci_scale() {
        let data = measure(Scale::Ci);
        let first = &data.points[0];
        let last = data.points.last().unwrap();
        // First query costs about the baseline (full scan of both preds,
        // short-circuit makes baseline possibly cheaper).
        assert!(first.prkb_qpf as f64 >= data.baseline_qpf as f64 * 0.9);
        // Final query is an order of magnitude cheaper than the first (CI
        // scale runs only ~60 warm-up queries; the full default-scale run
        // reaches the paper's 2+ orders).
        assert!(
            last.prkb_qpf * 10 <= first.prkb_qpf,
            "first {} vs last {}",
            first.prkb_qpf,
            last.prkb_qpf
        );
        assert!(data.k_final > 20);
    }
}
