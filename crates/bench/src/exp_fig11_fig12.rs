//! **Fig. 11** — multi-dimensional range query vs dataset size (d = 3,
//! 2% selectivity per dimension) and **Fig. 12** — vs dimensionality
//! (5M tuples, 2% per dimension): PRKB(SD+) vs PRKB(MD) vs
//! Logarithmic-SRC-i (paper §8.2.5). Static PRKB with 250 partitions per
//! attribute.
//!
//! PRKB(MD) is the engine's one select; PRKB(SD+), the paper's strawman,
//! lives here only, as [`sdplus`].

use crate::harness::{fresh_engine, measure_span, timed, warm_to_k, EncSetup, Report};
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_core::{PrkbEngine, QueryStats, Selection, SpPredicate};
use prkb_datagen::{synthetic, WorkloadGen, SYNTH_DOMAIN_MAX, SYNTH_DOMAIN_MIN};
use prkb_edbms::{AttrId, EncryptedPredicate, SelectionOracle, TupleId};
use prkb_srci::{confirm, MultiDimSrci, SrciClient, SrciConfig, SrciIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// PRKB(SD+), the paper's naive multi-dimensional extension (§6, the
/// baseline of Figs. 11–12): each trapdoor of `dims` runs on its own
/// through [`PrkbEngine::select`], in order, and the answers are
/// intersected. Much cheaper than a linear scan, but — unlike PRKB(MD) —
/// it pays a full NS-pair scan for every trapdoor and cannot prune across
/// dimensions. No dimension answers every live row. The stats sum the
/// trapdoors' breakdowns, but `qpf_uses` is the oracle's count across the
/// whole query and `k_before`/`k_after` total the named attributes.
///
/// # Panics
/// As [`PrkbEngine::select`].
pub fn sdplus<P, O, R>(
    engine: &mut PrkbEngine<P>,
    oracle: &O,
    dims: &[[P; 2]],
    rng: &mut R,
) -> Selection
where
    P: SpPredicate,
    O: SelectionOracle<Pred = P>,
    R: Rng,
{
    let qpf_before = oracle.qpf_uses();
    let mut attrs: Vec<AttrId> = dims.as_flattened().iter().map(P::attr).collect();
    attrs.sort_unstable();
    attrs.dedup();
    let k = |engine: &PrkbEngine<P>| -> usize {
        let kb = |a| engine.knowledge(a).expect("attribute initialized");
        attrs.iter().map(|&a| kb(a).k()).sum()
    };
    let k_before = k(engine);
    // The running intersection, ascending by id.
    let mut common: Option<Vec<TupleId>> = None;
    let mut stats = QueryStats::default();
    for pred in dims.as_flattened() {
        let sel = engine.select(oracle, pred, rng);
        stats.absorb(&sel.stats);
        let mut ids = sel.tuples;
        ids.sort_unstable();
        if let Some(earlier) = &common {
            ids.retain(|t| earlier.binary_search(t).is_ok());
        }
        common = Some(ids);
    }
    let tuples = common.unwrap_or_else(|| engine.select_where(oracle, &[], rng).tuples);
    stats.qpf_uses = oracle.qpf_uses().saturating_sub(qpf_before);
    stats.k_before = k_before;
    stats.k_after = k(engine);
    Selection { tuples, stats }
}

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
        let flat = dims.as_flattened();

        let (_, m) = measure_span(&oracle, || engine.select_where(&oracle, flat, &mut rng));
        mq += m.qpf_uses;
        mt += m.ms;

        let (_, m) = measure_span(&oracle, || sdplus(&mut engine, &oracle, &dims, &mut rng));
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
                confirm(&oracle, flat, &cands)
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
    use prkb_core::{EngineConfig, Knowledge};
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};

    /// `d` attributes of `n` rows, values uniform in 0..10 000.
    fn engine_nd(n: usize, d: usize, seed: u64) -> (PrkbEngine<Predicate>, PlainOracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<u64>> = (0..d)
            .map(|_| (0..n).map(|_| rng.gen_range(0..10_000u64)).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for a in 0..d {
            engine.init_attr(a as AttrId, n);
        }
        (engine, oracle)
    }

    /// One open range per attribute, attribute `i` taking `ranges[i]`.
    fn dims_for(ranges: &[(u64, u64)]) -> Vec<[Predicate; 2]> {
        let range = |(a, &(lo, hi)): (usize, &(u64, u64))| {
            [
                Predicate::cmp(a as u32, ComparisonOp::Gt, lo),
                Predicate::cmp(a as u32, ComparisonOp::Lt, hi),
            ]
        };
        ranges.iter().enumerate().map(range).collect()
    }

    fn check_invariants(engine: &PrkbEngine<Predicate>) {
        for a in engine.attrs() {
            engine.knowledge(a).expect("listed").check_invariants();
        }
    }

    #[test]
    fn sdplus_matches_ground_truth() {
        let (mut engine, oracle) = engine_nd(2000, 2, 1);
        let dims = dims_for(&[(1000, 4000), (3000, 7000)]);
        let mut rng = StdRng::seed_from_u64(2);
        let k_before: usize = (0..2)
            .map(|a| engine.knowledge(a).map_or(0, Knowledge::k))
            .sum();
        let sel = sdplus(&mut engine, &oracle, &dims, &mut rng);
        assert_eq!(
            sel.sorted(),
            oracle.expected_conjunction(dims.as_flattened())
        );
        assert_eq!(sel.stats.qpf_uses, oracle.qpf_uses());
        assert_eq!(sel.stats.k_before, k_before);
        let k_after: usize = (0..2)
            .map(|a| engine.knowledge(a).map_or(0, Knowledge::k))
            .sum();
        assert_eq!(sel.stats.k_after, k_after);
        check_invariants(&engine);
    }

    #[test]
    fn md_and_sdplus_through_engine() {
        let (mut engine, oracle) = engine_nd(800, 2, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let dims = dims_for(&[(2000, 6000), (3000, 7000)]);
        let want = oracle.expected_conjunction(dims.as_flattened());
        let md = engine.select_where(&oracle, dims.as_flattened(), &mut rng);
        assert_eq!(md.sorted(), want);
        let sdp = sdplus(&mut engine, &oracle, &dims, &mut rng);
        assert_eq!(sdp.sorted(), want);
        // SD+ leaves the knowledge usable for single-dim queries.
        let c = Predicate::cmp(0, ComparisonOp::Lt, 5000);
        assert_eq!(
            engine.select(&oracle, &c, &mut rng).sorted(),
            oracle.expected_select(&c)
        );
        check_invariants(&engine);
    }

    #[test]
    fn sdplus_and_md_agree() {
        for d in [1usize, 2, 3] {
            let (mut engine, oracle) = engine_nd(1500, d, 3);
            let ranges: Vec<(u64, u64)> =
                (0..d as u64).map(|i| (i * 500, 5000 + i * 500)).collect();
            let dims = dims_for(&ranges);
            let mut rng = StdRng::seed_from_u64(4);
            let a = sdplus(&mut engine, &oracle, &dims, &mut rng);
            let b = engine.select_where(&oracle, dims.as_flattened(), &mut rng);
            assert_eq!(a.sorted(), b.sorted(), "d={d}");
            check_invariants(&engine);
        }
    }

    #[test]
    fn md_beats_sdplus_on_warmed_knowledge() {
        // With warmed PRKBs, PRKB(MD) must use fewer QPF than PRKB(SD+)
        // because it only tests NS tuples inside the candidate band.
        let (mut engine, oracle) = engine_nd(6000, 3, 5);
        let mut rng = StdRng::seed_from_u64(6);
        // Warm with random single-dim queries.
        for round in 0..25u64 {
            for a in 0..3u32 {
                let bound = (round * 397 + a as u64 * 131) % 10_000;
                engine.select(
                    &oracle,
                    &Predicate::cmp(a, ComparisonOp::Lt, bound),
                    &mut rng,
                );
            }
        }
        // Narrow query against the now-static index.
        engine.config.refine = None;
        let ranges: Vec<(u64, u64)> = (0..3u64)
            .map(|a| (2000 + a * 700, 2600 + a * 700))
            .collect();
        let dims = dims_for(&ranges);
        let md = engine.select_where(&oracle, dims.as_flattened(), &mut rng);
        let sdp = sdplus(&mut engine, &oracle, &dims, &mut rng);
        assert_eq!(md.sorted(), sdp.sorted());
        assert!(
            md.stats.qpf_uses < sdp.stats.qpf_uses,
            "MD {} vs SD+ {}",
            md.stats.qpf_uses,
            sdp.stats.qpf_uses
        );
    }

    #[test]
    fn sdplus_counts_past_255_parts() {
        // 128 dimensions are 256 parts: one more than a byte-wide hit
        // counter holds, so a tuple inside every range used to wrap to 0.
        let d = 128usize;
        let columns: Vec<Vec<u64>> = (0..d as u64)
            .map(|a| (0..8u64).map(|t| 1 + (t * 7 + a) % 8).collect())
            .collect();
        let oracle = PlainOracle::from_columns(columns);
        let mut engine = PrkbEngine::new(EngineConfig::default());
        for a in 0..d {
            engine.init_attr(a as AttrId, 8);
        }
        // Values are 1..=8: everything but 8 in dimension 0, everything
        // elsewhere.
        let mut ranges = vec![(0u64, 9u64); d];
        ranges[0] = (0, 8);
        let dims = dims_for(&ranges);
        let mut rng = StdRng::seed_from_u64(7);
        let sel = sdplus(&mut engine, &oracle, &dims, &mut rng);
        let want = oracle.expected_conjunction(dims.as_flattened());
        assert_eq!(want.len(), 7, "the test's ranges select all rows but one");
        assert_eq!(sel.sorted(), want);
    }

    /// SD+ over the encrypted pipeline (real cells, a real TM) answers the
    /// plaintext ground truth, round after round of a refining engine.
    #[test]
    fn sdplus_answers_over_the_encrypted_pipeline() {
        let n = 2_000usize;
        let mut rng = StdRng::seed_from_u64(1);
        let columns: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect())
            .collect();
        let setup = EncSetup::new("w", columns.clone(), 2);
        let oracle = setup.oracle();
        let mut engine = fresh_engine(&setup);
        for round in 0..8 {
            let ranges: Vec<(u64, u64)> = (0..2)
                .map(|_| {
                    let lo = rng.gen_range(0..800_000);
                    (lo, lo + rng.gen_range(10_000..200_000))
                })
                .collect();
            let dims: Vec<[EncryptedPredicate; 2]> = ranges
                .iter()
                .enumerate()
                .map(|(a, &(lo, hi))| setup.range_trapdoors(a as AttrId, lo, hi, &mut rng))
                .collect();
            let expected: Vec<TupleId> = (0..n as TupleId)
                .filter(|&t| {
                    let inside = |(a, &(lo, hi)): (usize, &(u64, u64))| {
                        (lo + 1..hi).contains(&columns[a][t as usize])
                    };
                    ranges.iter().enumerate().all(inside)
                })
                .collect();
            let sel = sdplus(&mut engine, &oracle, &dims, &mut rng);
            assert_eq!(sel.sorted(), expected, "round {round}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// SD+ answers what PRKB(MD) and the ground truth answer, for
        /// arbitrary rectangles on a refining engine.
        #[test]
        fn sdplus_matches_md_for_arbitrary_rectangles(
            cols in proptest::collection::vec(proptest::collection::vec(0u64..500, 120), 2..4),
            rects in proptest::collection::vec(
                proptest::collection::vec((0u64..520, 0u64..520), 2..4), 1..8),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = cols.len();
            let oracle = PlainOracle::from_columns(cols);
            let mut engine: PrkbEngine<Predicate> = PrkbEngine::new(EngineConfig::default());
            for a in 0..d {
                engine.init_attr(a as AttrId, 120);
            }
            for rect in rects {
                let ranges: Vec<(u64, u64)> = (0..d)
                    .map(|a| {
                        let (x, y) = rect[a % rect.len()];
                        (x.min(y), x.max(y))
                    })
                    .collect();
                let dims = dims_for(&ranges);
                let want = oracle.expected_conjunction(dims.as_flattened());
                let md = engine.select_where(&oracle, dims.as_flattened(), &mut rng);
                proptest::prop_assert_eq!(md.sorted(), want.clone());
                let sdp = sdplus(&mut engine, &oracle, &dims, &mut rng);
                proptest::prop_assert_eq!(sdp.sorted(), want);
                check_invariants(&engine);
            }
        }
    }

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
