//! **Fig. 11** — multi-dimensional range query vs dataset size (d = 3,
//! 2% selectivity per dimension) and **Fig. 12** — vs dimensionality
//! (5M tuples, 2% per dimension): PRKB(SD+) vs PRKB(MD) vs
//! Logarithmic-SRC-i (paper §8.2.5). Static PRKB with 250 partitions per
//! attribute.

use crate::harness::{fresh_engine, measure_span, timed, warm_to_k, EncSetup, Report};
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_datagen::{synthetic, WorkloadGen, SYNTH_DOMAIN_MAX, SYNTH_DOMAIN_MIN};
use prkb_edbms::{AttrId, EncryptedPredicate};
use prkb_srci::{confirm, MultiDimSrci, SrciClient, SrciConfig, SrciIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Averaged measurements for one (n, d) cell.
#[derive(Debug, Clone)]
pub struct MdCell {
    /// Dataset size.
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
    /// PRKB(SD+) average QPF uses / time (ms).
    pub sdplus_qpf: f64,
    /// PRKB(SD+) average time (ms).
    pub sdplus_ms: f64,
    /// PRKB(MD) average QPF uses.
    pub md_qpf: f64,
    /// PRKB(MD) average time (ms).
    pub md_ms: f64,
    /// SRC-i average time (ms), confirmations included.
    pub srci_ms: f64,
    /// Total PRKB partitions after warm-up (summed over dimensions).
    pub k: usize,
    /// True when any dimension's warm-up gave up below its target.
    pub under_warm: bool,
}

/// Measures one cell with `reps` random hyper-rectangles (2%/dim).
pub fn measure_cell(n: usize, d: usize, reps: usize, warm_k: usize, seed: u64) -> MdCell {
    let cols = synthetic::table(n, d, synthetic::ColumnCorrelation::Independent, seed);
    let setup = EncSetup::new("md", cols.clone(), seed);
    let oracle = setup.oracle();
    let gens: Vec<WorkloadGen> = cols
        .iter()
        .map(|c| WorkloadGen::new(c, (SYNTH_DOMAIN_MIN, SYNTH_DOMAIN_MAX)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1112);

    let mut engine = fresh_engine(&setup);
    let mut k_total = 0usize;
    let mut under_warm = false;
    for a in 0..d {
        let warmup = warm_to_k(
            &mut engine,
            &setup,
            a as AttrId,
            warm_k,
            0.02,
            seed ^ a as u64,
        );
        k_total += warmup.reached_k;
        under_warm |= warmup.under_warm();
    }
    engine.config.refine = None;

    // SRC-i per dimension. Its log-factor replication outgrows a 16 GB box
    // beyond ~12M indexed tuples in total; skip it there (paper-scale runs
    // still get both PRKB variants).
    let (tk, pk) = setup.owner.search_keys("md", 0);
    let client = SrciClient::new(tk, pk);
    let srci = (n * d <= 12_000_000).then(|| {
        let mut srci = MultiDimSrci::new();
        for (a, col) in cols.iter().enumerate() {
            srci.add_dim(
                a as AttrId,
                SrciIndex::build(
                    &client,
                    SrciConfig {
                        domain: (SYNTH_DOMAIN_MIN, SYNTH_DOMAIN_MAX),
                        bucket_bits: 16,
                    },
                    col,
                ),
            );
        }
        srci
    });

    let (mut sq, mut st, mut mq, mut mt, mut it) = (0u64, 0f64, 0u64, 0f64, 0f64);
    for _ in 0..reps {
        // One hyper-rectangle, 2% per dimension.
        let ranges: Vec<(u64, u64)> = gens
            .iter()
            .map(|g| {
                let r = g.range_with_selectivity(0.02, &mut rng);
                (r.lo, r.hi)
            })
            .collect();
        let dims: Vec<[EncryptedPredicate; 2]> = ranges
            .iter()
            .enumerate()
            .map(|(a, &(lo, hi))| setup.range_trapdoors(a as AttrId, lo, hi, &mut rng))
            .collect();
        let flat: Vec<EncryptedPredicate> = dims.iter().flatten().cloned().collect();

        let (_, m) = measure_span(&oracle, || engine.select_range_md(&oracle, &dims, &mut rng));
        mq += m.qpf_uses;
        mt += m.ms;

        let (_, m) = measure_span(&oracle, || {
            engine.select_range_sdplus(&oracle, &dims, &mut rng)
        });
        sq += m.qpf_uses;
        st += m.ms;

        if let Some(srci) = &srci {
            let (_, t) = timed(|| {
                let cands = srci.candidates(
                    &client,
                    &ranges
                        .iter()
                        .enumerate()
                        .map(|(a, &(lo, hi))| (a as AttrId, lo + 1, hi - 1))
                        .collect::<Vec<_>>(),
                );
                confirm(&oracle, &flat, &cands)
            });
            it += t.as_secs_f64() * 1e3;
        }
    }
    let r = reps as f64;
    MdCell {
        n,
        d,
        sdplus_qpf: sq as f64 / r,
        sdplus_ms: st / r,
        md_qpf: mq as f64 / r,
        md_ms: mt / r,
        srci_ms: it / r,
        k: k_total,
        under_warm,
    }
}

fn render(title: &str, cells: &[MdCell], vary_d: bool) -> String {
    let mut report = Report::new(title);
    report.row(&[
        if vary_d { "d" } else { "n tuples" }.into(),
        "SD+ #QPF".into(),
        "SD+ ms".into(),
        "MD #QPF".into(),
        "MD ms".into(),
        "SRC-i ms".into(),
    ]);
    for c in cells {
        report.row(&[
            if vary_d {
                format!("{}", c.d)
            } else {
                format!("{}", c.n)
            },
            format!("{:.0}", c.sdplus_qpf),
            format!("{:.3}", c.sdplus_ms),
            format!("{:.0}", c.md_qpf),
            format!("{:.3}", c.md_ms),
            format!("{:.3}", c.srci_ms),
        ]);
    }
    if cells.iter().any(|c| c.under_warm) {
        report.line("note: some cells under-warm (warm-up gave up below its k target)");
    }
    report.finish()
}

fn bench_rows(cells: &[MdCell], vary_d: bool) -> Vec<BenchRow> {
    cells
        .iter()
        .map(|c| BenchRow {
            id: if vary_d {
                format!("d{}", c.d)
            } else {
                format!("n{}", c.n)
            },
            qpf_uses: c.md_qpf.round() as u64,
            ms: c.md_ms,
            k: c.k as u64,
            n: c.n as u64,
            threads: 1,
        })
        .collect()
}

/// Fig. 11: d = 3, vary dataset size. The trajectory rows are PRKB(MD)'s,
/// one per size.
pub fn run_fig11_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let reps = match scale {
        Scale::Ci => 3,
        _ => 10,
    };
    let sizes: Vec<usize> = [1usize, 2, 4, 6, 8, 10]
        .iter()
        .map(|m| scale.tuples(m * 1_000_000))
        .collect();
    let cells: Vec<MdCell> = sizes
        .iter()
        .map(|&n| measure_cell(n, 3, reps, 250, 11))
        .collect();
    let mut out = render(
        &format!(
            "Fig. 11: MD query vs dataset size (d=3, 2%/dim) — scale: {}",
            scale.tag()
        ),
        &cells,
        false,
    );
    out.push_str("shape check (paper): PRKB(MD) below PRKB(SD+) consistently.\n");
    let rows = bench_rows(&cells, false);
    (out, rows)
}

/// Fig. 12: 5M tuples, vary dimensionality. The trajectory rows are
/// PRKB(MD)'s, one per d.
pub fn run_fig12_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let reps = match scale {
        Scale::Ci => 3,
        _ => 10,
    };
    let n = scale.tuples(5_000_000);
    let dims: Vec<usize> = match scale {
        Scale::Ci => vec![2, 3],
        _ => vec![2, 3, 4, 5, 6],
    };
    let cells: Vec<MdCell> = dims
        .iter()
        .map(|&d| measure_cell(n, d, reps, 250, 12))
        .collect();
    let mut out = render(
        &format!(
            "Fig. 12: MD query vs dimensionality ({n} tuples, 2%/dim) — scale: {}",
            scale.tag()
        ),
        &cells,
        true,
    );
    out.push_str(
        "shape check (paper): PRKB(SD+) grows with d (one pass per dimension);\n\
         PRKB(MD) *decreases* with d (more predicates prune more candidates).\n",
    );
    let rows = bench_rows(&cells, true);
    (out, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_beats_sdplus() {
        let c = measure_cell(20_000, 3, 3, 100, 5);
        assert!(
            c.md_qpf < c.sdplus_qpf,
            "MD {} vs SD+ {}",
            c.md_qpf,
            c.sdplus_qpf
        );
    }

    #[test]
    fn md_improves_with_dimensions() {
        let c2 = measure_cell(20_000, 2, 3, 100, 6);
        let c4 = measure_cell(20_000, 4, 3, 100, 6);
        // SD+ pays per dimension; MD must not (paper's Fig. 12 shape:
        // MD flat-or-decreasing while SD+ grows).
        let sdplus_growth = c4.sdplus_qpf / c2.sdplus_qpf.max(1.0);
        let md_growth = c4.md_qpf / c2.md_qpf.max(1.0);
        assert!(
            md_growth < sdplus_growth,
            "md growth {md_growth} vs sd+ growth {sdplus_growth}"
        );
    }
}
