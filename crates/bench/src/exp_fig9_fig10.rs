//! **Fig. 9** — single-dimensional query performance varying dataset size
//! (10M–20M tuples, 1% selectivity, static PRKB of 250 partitions), and
//! **Fig. 10** — varying selectivity (1–10%, 10M tuples): `# QPF use` and
//! time for PRKB(SD) vs Logarithmic-SRC-i vs Baseline (paper §8.2.4).

use crate::harness::{fresh_engine, measure_span, timed, warm_to_k, EncSetup, Report};
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_datagen::{synthetic, WorkloadGen, SYNTH_DOMAIN_MAX, SYNTH_DOMAIN_MIN};
use prkb_edbms::select::conjunctive_scan;
use prkb_srci::{confirm, SrciClient, SrciConfig, SrciIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Averaged measurements for one (size, selectivity) cell.
#[derive(Debug, Clone)]
pub struct SdCell {
    /// Dataset size.
    pub n: usize,
    /// Query selectivity.
    pub selectivity: f64,
    /// PRKB(SD) average QPF uses.
    pub prkb_qpf: f64,
    /// PRKB(SD) average time (ms).
    pub prkb_ms: f64,
    /// SRC-i average time (ms).
    pub srci_ms: f64,
    /// Baseline average QPF uses.
    pub baseline_qpf: f64,
    /// Baseline average time (ms).
    pub baseline_ms: f64,
    /// PRKB partitions after warm-up (the k the measurements ran against).
    pub k: usize,
    /// True when warm-up gave up below its partition target.
    pub under_warm: bool,
}

/// Measures one cell: `reps` random range queries of the given selectivity
/// against a static (k≈250) PRKB, plus SRC-i and Baseline.
pub fn measure_cell(n: usize, selectivity: f64, reps: usize, seed: u64) -> SdCell {
    let col = synthetic::uniform_column(n, seed);
    let setup = EncSetup::new("sd", vec![col.clone()], seed);
    let oracle = setup.oracle();
    let gen = WorkloadGen::new(&col, (SYNTH_DOMAIN_MIN, SYNTH_DOMAIN_MAX));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x99);

    let mut engine = fresh_engine(&setup);
    let warmup = warm_to_k(&mut engine, &setup, 0, 250, 0.01, seed ^ 0xaa);
    engine.config.refine = None; // static PRKB, per the paper

    let (tk, pk) = setup.owner.search_keys("sd", 0);
    let client = SrciClient::new(tk, pk);
    // SRC-i replicates ~2·log n tuple ids; above ~12M tuples its in-memory
    // EMMs outgrow a 16 GB box, so paper-scale runs skip it there (the
    // paper's own Fig. 9 shape for SRC-i is linear anyway).
    let srci = (n <= 12_000_000).then(|| {
        SrciIndex::build(
            &client,
            SrciConfig {
                domain: (SYNTH_DOMAIN_MIN, SYNTH_DOMAIN_MAX),
                bucket_bits: 16,
            },
            &col,
        )
    });

    let (mut pq, mut pt, mut st, mut bq, mut bt) = (0u64, 0f64, 0f64, 0u64, 0f64);
    for i in 0..reps {
        let r = gen.range_with_selectivity(selectivity, &mut rng);
        let preds = setup.range_trapdoors(0, r.lo, r.hi, &mut rng);

        let ((), m) = measure_span(&oracle, || {
            for p in &preds {
                engine.select(&oracle, p, &mut rng);
            }
        });
        pq += m.qpf_uses;
        pt += m.ms;

        if let Some(srci) = &srci {
            let (_, t) = timed(|| {
                let cands = srci.candidates(&client, r.lo + 1, r.hi - 1);
                confirm(&oracle, &preds, &cands)
            });
            st += t.as_secs_f64() * 1e3;
        }

        // Baseline every few reps (it is size-bound, not query-bound).
        if i < 3 {
            let (_, m) = measure_span(&oracle, || conjunctive_scan(&oracle, &preds));
            bq += m.qpf_uses;
            bt += m.ms;
        }
    }
    SdCell {
        n,
        selectivity,
        prkb_qpf: pq as f64 / reps as f64,
        prkb_ms: pt / reps as f64,
        srci_ms: st / reps as f64,
        baseline_qpf: bq as f64 / 3.0,
        baseline_ms: bt / 3.0,
        k: warmup.reached_k,
        under_warm: warmup.under_warm(),
    }
}

fn render(title: &str, cells: &[SdCell], vary_sel: bool) -> String {
    let mut report = Report::new(title);
    report.row(&[
        if vary_sel { "sel %" } else { "n tuples" }.into(),
        "PRKB #QPF".into(),
        "PRKB ms".into(),
        "SRC-i ms".into(),
        "Base #QPF".into(),
        "Base ms".into(),
        "k".into(),
    ]);
    for c in cells {
        report.row(&[
            if vary_sel {
                format!("{:.0}", c.selectivity * 100.0)
            } else {
                format!("{}", c.n)
            },
            format!("{:.0}", c.prkb_qpf),
            format!("{:.3}", c.prkb_ms),
            format!("{:.3}", c.srci_ms),
            format!("{:.0}", c.baseline_qpf),
            format!("{:.3}", c.baseline_ms),
            if c.under_warm {
                format!("{}*", c.k)
            } else {
                format!("{}", c.k)
            },
        ]);
    }
    if cells.iter().any(|c| c.under_warm) {
        report.line("* warm-up gave up below its partition target (under-warm run)");
    }
    report.finish()
}

fn bench_rows(cells: &[SdCell], vary_sel: bool) -> Vec<BenchRow> {
    cells
        .iter()
        .map(|c| BenchRow {
            id: if vary_sel {
                format!("sel{:.0}", c.selectivity * 100.0)
            } else {
                format!("n{}", c.n)
            },
            qpf_uses: c.prkb_qpf.round() as u64,
            ms: c.prkb_ms,
            k: c.k as u64,
            n: c.n as u64,
            threads: 1,
        })
        .collect()
}

/// Fig. 9: vary dataset size at 1% selectivity; one trajectory row per size.
pub fn run_fig9_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let reps = match scale {
        Scale::Ci => 5,
        _ => 20,
    };
    let sizes: Vec<usize> = [10, 12, 14, 16, 18, 20]
        .iter()
        .map(|m| scale.tuples(m * 1_000_000))
        .collect();
    let cells: Vec<SdCell> = sizes
        .iter()
        .map(|&n| measure_cell(n, 0.01, reps, 9))
        .collect();
    let mut out = render(
        &format!(
            "Fig. 9: SD query vs dataset size (1% sel) — scale: {}",
            scale.tag()
        ),
        &cells,
        false,
    );
    out.push_str(
        "shape check (paper): all methods scale ~linearly; PRKB ≈ 2 orders\n\
         below Baseline and ~4× below SRC-i across sizes.\n",
    );
    let rows = bench_rows(&cells, false);
    (out, rows)
}

/// Fig. 10: vary selectivity on one dataset; one trajectory row per
/// selectivity.
pub fn run_fig10_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let reps = match scale {
        Scale::Ci => 5,
        _ => 20,
    };
    let n = scale.tuples(10_000_000);
    let cells: Vec<SdCell> = [0.01, 0.02, 0.04, 0.06, 0.08, 0.10]
        .iter()
        .map(|&sel| measure_cell(n, sel, reps, 10))
        .collect();
    let mut out = render(
        &format!(
            "Fig. 10: SD query vs selectivity ({n} tuples) — scale: {}",
            scale.tag()
        ),
        &cells,
        true,
    );
    out.push_str(
        "shape check (paper): PRKB cost is flat in selectivity (only the two\n\
         NS-pairs are scanned); Baseline is flat-high; SRC-i grows with the\n\
         answer size.\n",
    );
    let rows = bench_rows(&cells, true);
    (out, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_shape_prkb_beats_baseline() {
        let c = measure_cell(30_000, 0.01, 3, 77);
        assert!(c.prkb_qpf * 5.0 < c.baseline_qpf, "{c:?}");
    }

    #[test]
    fn prkb_cost_flat_in_selectivity() {
        let a = measure_cell(30_000, 0.01, 3, 78);
        let b = measure_cell(30_000, 0.10, 3, 78);
        // Paper §8.2.4 obs. 2: independent of answer size (within noise).
        assert!(
            b.prkb_qpf < a.prkb_qpf * 3.0 + 200.0,
            "1%: {}, 10%: {}",
            a.prkb_qpf,
            b.prkb_qpf
        );
    }
}
