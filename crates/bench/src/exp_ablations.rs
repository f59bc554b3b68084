//! **ablations** — the design choices DESIGN.md calls out, each against the
//! alternative it displaced, in the paper's currency (beyond the paper):
//!
//! * **QFilter binary search vs linear sampling** — Algorithm 1's O(lg k)
//!   probes vs one sample per partition until the label flips (O(k));
//! * **QScan early stop vs scan-both** — Algorithm 2's inference, as the
//!   executor runs it (a static select's QPF less its QFilter probes), vs
//!   evaluating every tuple of both NS partitions;
//! * **BETWEEN wave hunt vs linear hunt** — Appendix A as `prkb-core` runs
//!   it (waves, early stop per transition, escalating fallback) vs as it was
//!   first built: one sample per rank from 0 until one answers 1, all four
//!   boundary partitions scanned, and the whole table when no sample does —
//!   over 5 % ranges, and over ranges narrower than a partition, which every
//!   sample usually misses. These rows also count calls to the TM;
//! * **MD update policy** — a static PRKB (`refine = None`, the row keeps
//!   its `md_policy_frozen` id) vs `PartialOnly` (free, sound) vs
//!   `CompleteSplits` (extra QPF now, more knowledge later);
//! * **workload locality** — warming PRKB with cuts concentrated in a
//!   hotspot vs spread over the domain, then querying the hotspot;
//! * **conjunction as one walk vs part by part** — one BETWEEN plus two
//!   ranges over three attributes as one PRKB(MD) walk (`prkb-core` today)
//!   vs as the conjunction ran before: the two ranges as one PRKB(MD)
//!   query, the BETWEEN on its own, the answers intersected.
//!
//! Everything runs over the real encrypted pipeline ([`EncSetup`]) from
//! fixed seeds, with the trapdoors issued before the measured span, so a
//! row's `qpf_uses` (a total over the row's queries) and `k` are
//! deterministic and safe to gate; `ms` rides along.

use crate::harness::{fresh_engine, measure_span, warm_to_k, EncSetup, Measured, Report};
use crate::scale::Scale;
use crate::trajectory::BenchRow;
use prkb_core::qfilter::{try_qfilter, FilterResult};
use prkb_core::{MdUpdatePolicy, Pop};
use prkb_datagen::{synthetic, SYNTH_DOMAIN_MAX, SYNTH_DOMAIN_MIN};
use prkb_edbms::{
    ComparisonOp, EncryptedPredicate, OracleError, Predicate, PredicateKind, SelectionOracle,
    SpOracle, TupleId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::ops::Range;

/// One measured alternative: totals over the row's queries, and — where the
/// row counts them — the oracle calls those took.
struct Ablation {
    /// The gated trajectory row.
    row: BenchRow,
    /// Calls across the SP↔TM boundary, single probes and batches alike.
    tm_calls: Option<u64>,
}

fn row(id: &str, cost: Measured, k: usize, n: usize) -> Ablation {
    Ablation {
        row: BenchRow {
            id: id.to_string(),
            qpf_uses: cost.qpf_uses,
            ms: cost.ms,
            k: k as u64,
            n: n as u64,
            threads: 1,
        },
        tm_calls: None,
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
fn filter_and_scan(scale: Scale, rows: &mut Vec<Ablation>) {
    let n = scale.tuples(2_000_000);
    let queries = scale.queries(100);
    let setup = EncSetup::new("abl", vec![synthetic::uniform_column(n, 1)], 1);
    let oracle = setup.oracle();
    let mut engine = fresh_engine(&setup);
    let _ = warm_to_k(&mut engine, &setup, 0, 400, 0.01, 2);
    engine.config.refine = None;
    let mut rng = StdRng::seed_from_u64(3);
    let preds = cut_trapdoors(
        &setup,
        SYNTH_DOMAIN_MIN..SYNTH_DOMAIN_MAX,
        queries,
        &mut rng,
    );

    // Early stop as the executor runs it: static selects drawing their
    // QFilter samples from where `filters` below draws them, so they probe
    // the same NS pairs; their QPF less those probes is the scan's.
    let (answers, selects) = measure_span(&oracle, || {
        let mut rng = rng.clone();
        let select = |p| engine.select(&oracle, p, &mut rng);
        let answers = preds.iter().map(select);
        answers
            .map(|sel| (sel.tuples.len(), sel.stats.filter_probes))
            .collect::<Vec<_>>()
    });
    let pop = engine.knowledge(0).expect("attribute 0 is indexed").pop();
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
    let probes: u64 = answers.iter().map(|&(_, probes)| probes).sum();
    assert_eq!(
        probes, binary.qpf_uses,
        "the selects probe as the filters do"
    );
    let early_stop = Measured {
        qpf_uses: selects.qpf_uses - probes,
        ms: (selects.ms - binary.ms).max(0.0),
    };
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
    for ((f, (selected, _)), scanned) in filters.iter().zip(&answers).zip(&scanned) {
        let winners = (0..pop.k()).filter(|&r| f.known_label(r) == Some(true));
        let winners: usize = winners.map(|r| pop.members_at(r).len()).sum();
        assert_eq!(
            *selected,
            winners + scanned,
            "the inference agrees with the scan"
        );
    }

    for (id, cost) in [
        ("qfilter_binary", binary),
        ("qfilter_linear", linear),
        ("qscan_early_stop", early_stop),
        ("qscan_scan_both", scan_both),
    ] {
        rows.push(row(id, cost, pop.k(), n));
    }
}

/// The real oracle, counting the calls made to it.
struct CountCalls<'a> {
    inner: SpOracle<'a>,
    calls: Cell<u64>,
}

impl SelectionOracle for CountCalls<'_> {
    type Pred = EncryptedPredicate;

    fn try_eval(&self, pred: &EncryptedPredicate, t: TupleId) -> Result<bool, OracleError> {
        self.calls.set(self.calls.get() + 1);
        self.inner.try_eval(pred, t)
    }

    fn try_eval_batch(
        &self,
        pred: &EncryptedPredicate,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        self.calls.set(self.calls.get() + 1);
        self.inner.try_eval_batch(pred, tuples, out)
    }

    fn kind_of(&self, pred: &EncryptedPredicate) -> PredicateKind {
        self.inner.kind_of(pred)
    }

    fn n_slots(&self) -> usize {
        self.inner.n_slots()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.inner.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.inner.qpf_uses()
    }
}

/// Appendix A as first built, on a static POP: sample rank by rank from 0
/// until one answers 1, binary-search the high transition, scan every
/// boundary partition; scan the table when no sample answers 1. Returns the
/// number of winners.
fn between_linear(
    pop: &Pop,
    oracle: &CountCalls<'_>,
    p: &EncryptedPredicate,
    rng: &mut StdRng,
) -> usize {
    let k = pop.k();
    let mut sample = |rank: usize| oracle.eval(p, pop.sample_at(rank, rng));
    let mut by_label = 0..0;
    let mut scan_set: Vec<usize> = Vec::new();
    match (0..k).find(|&rank| sample(rank)) {
        Some(r) => {
            scan_set.extend(r.checked_sub(1));
            scan_set.push(r);
            let top = if r == k - 1 || sample(k - 1) {
                scan_set.push(k - 1);
                k - 1
            } else {
                let (mut lo, mut hi) = (r, k - 1);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if sample(mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                scan_set.extend([lo, hi]);
                lo
            };
            scan_set.sort_unstable();
            scan_set.dedup();
            by_label = r + 1..top;
        }
        None => scan_set.extend(0..k),
    }
    let mut verdicts = Vec::new();
    let unscanned = by_label.filter(|rank| !scan_set.contains(rank));
    let inside: usize = unscanned.map(|rank| pop.members_at(rank).len()).sum();
    let scanned = scan_set.iter().map(|&rank| {
        oracle.eval_batch(p, pop.members_at(rank), &mut verdicts);
        verdicts.iter().filter(|&&v| v).count()
    });
    inside + scanned.sum::<usize>()
}

/// BETWEEN's location and scan phases against the hunt they displaced, on
/// one warmed, static POP: ranges that cover ≈ 20 partitions, then ranges an
/// eighth of a mean partition wide.
fn between_hunts(scale: Scale, rows: &mut Vec<Ablation>) {
    let n = scale.tuples(2_000_000);
    let queries = scale.queries(100);
    let setup = EncSetup::new("abl", vec![synthetic::uniform_column(n, 9)], 9);
    let oracle = CountCalls {
        inner: setup.oracle(),
        calls: Cell::new(0),
    };
    let mut engine = fresh_engine(&setup);
    let _ = warm_to_k(&mut engine, &setup, 0, 400, 0.01, 10);
    engine.config.refine = None;
    let k = engine.knowledge(0).expect("attribute 0 is indexed").k();
    let domain = SYNTH_DOMAIN_MAX - SYNTH_DOMAIN_MIN;
    let mut rng = StdRng::seed_from_u64(11);

    for (ours, displaced, width) in [
        ("between_waves", "between_linear", domain / 20),
        (
            "between_miss_escalate",
            "between_miss_fullscan",
            domain / (8 * k as u64),
        ),
    ] {
        let preds: Vec<EncryptedPredicate> = (0..queries)
            .map(|_| {
                let lo = rng.gen_range(SYNTH_DOMAIN_MIN..SYNTH_DOMAIN_MAX - width);
                let range = Predicate::between(0, lo, lo + width);
                let trapdoor = setup.owner.trapdoor(&setup.name, &range, &mut rng);
                trapdoor.expect("lo <= hi")
            })
            .collect();
        let mut counted = |id, run: &mut dyn FnMut(&EncryptedPredicate) -> usize| {
            let calls_before = oracle.calls.get();
            let (winners, cost) = measure_span(&oracle, || preds.iter().map(run).collect());
            let mut row = row(id, cost, k, n);
            row.tm_calls = Some(oracle.calls.get() - calls_before);
            rows.push(row);
            winners
        };
        let mut rng = StdRng::seed_from_u64(12);
        let found: Vec<usize> = counted(ours, &mut |p| {
            engine.select(&oracle, p, &mut rng).tuples.len()
        });
        let pop = engine.knowledge(0).expect("attribute 0 is indexed").pop();
        let scanned: Vec<usize> = counted(displaced, &mut |p| {
            between_linear(pop, &oracle, p, &mut rng)
        });
        assert_eq!(found, scanned, "both hunts select the same tuples");
    }
}

/// The same 2-D range workload under each MD refinement policy, from a cold
/// index.
fn md_policies(scale: Scale, rows: &mut Vec<Ablation>) {
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
        ("md_policy_frozen", None),
        ("md_policy_partial_only", Some(MdUpdatePolicy::PartialOnly)),
        (
            "md_policy_complete_splits",
            Some(MdUpdatePolicy::CompleteSplits),
        ),
    ] {
        let mut engine = fresh_engine(&setup);
        engine.config.refine = policy;
        let mut rng = StdRng::seed_from_u64(7);
        let ((), cost) = measure_span(&oracle, || {
            for dims in &windows {
                engine.select_where(&oracle, dims.as_flattened(), &mut rng);
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
fn workload_locality(scale: Scale, rows: &mut Vec<Ablation>) {
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
        let mut engine = fresh_engine(&setup);
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

/// One BETWEEN plus two two-trapdoor ranges over three attributes, from a
/// cold index, as one walk and as the parts the conjunction used to run:
/// the same trapdoors and seeds on both sides.
fn conjunctions(scale: Scale, rows: &mut Vec<Ablation>) {
    let n = scale.tuples(500_000);
    let queries = scale.queries(100);
    let cols = synthetic::table(n, 3, synthetic::ColumnCorrelation::Independent, 13);
    let setup = EncSetup::new("abl", cols, 13);
    let oracle = setup.oracle();
    let span = (SYNTH_DOMAIN_MAX - SYNTH_DOMAIN_MIN) / 10; // 10% per attribute
    let mut rng = StdRng::seed_from_u64(14);
    let lo = |rng: &mut StdRng| rng.gen_range(SYNTH_DOMAIN_MIN..SYNTH_DOMAIN_MAX - span);
    let shapes: Vec<(Vec<[EncryptedPredicate; 2]>, EncryptedPredicate)> = (0..queries)
        .map(|_| {
            let ranges = (0..2)
                .map(|a| {
                    let lo = lo(&mut rng);
                    setup.range_trapdoors(a, lo, lo + span, &mut rng)
                })
                .collect();
            let lo = lo(&mut rng);
            let between = Predicate::between(2, lo, lo + span);
            let trapdoor = setup.owner.trapdoor(&setup.name, &between, &mut rng);
            (ranges, trapdoor.expect("lo <= hi"))
        })
        .collect();
    let mut answers: Vec<Vec<Vec<TupleId>>> = Vec::new();
    for (id, one_walk) in [
        ("conjunction_one_walk", true),
        ("conjunction_intersect", false),
    ] {
        let mut engine = fresh_engine(&setup);
        let mut rng = StdRng::seed_from_u64(15);
        let mut answer = |(ranges, between): &(Vec<[EncryptedPredicate; 2]>, _)| {
            if one_walk {
                let mut preds: Vec<EncryptedPredicate> = ranges.concat();
                preds.push(EncryptedPredicate::clone(between));
                return engine.select_where(&oracle, &preds, &mut rng).sorted();
            }
            let grid = engine.select_where(&oracle, ranges.as_flattened(), &mut rng);
            let grid = grid.sorted();
            let mut ids = engine.select(&oracle, between, &mut rng).sorted();
            ids.retain(|t| grid.binary_search(t).is_ok());
            ids
        };
        let (found, cost) = measure_span(&oracle, || shapes.iter().map(&mut answer).collect());
        answers.push(found);
        let k = (0..3).map(|a| engine.knowledge(a).map_or(0, |kb| kb.k()));
        rows.push(row(id, cost, k.sum(), n));
    }
    assert_eq!(answers[0], answers[1], "both select the same tuples");
}

/// Runs every ablation; a row's `qpf_uses` and `ms` are totals over its
/// `Scale::queries(100)` queries.
fn measure(scale: Scale) -> Vec<Ablation> {
    let mut rows = Vec::new();
    filter_and_scan(scale, &mut rows);
    md_policies(scale, &mut rows);
    workload_locality(scale, &mut rows);
    between_hunts(scale, &mut rows);
    conjunctions(scale, &mut rows);
    rows
}

/// Renders the report and the trajectory rows.
pub fn run_bench(scale: Scale) -> (String, Vec<BenchRow>) {
    let ablations = measure(scale);
    let mut report = Report::new(&format!(
        "ablations — each design choice against its alternative, totals over {} queries",
        scale.queries(100)
    ));
    report.line(format!(
        "{:>28}{:>10}{:>8}{:>14}{:>12}{:>10}{:>12}",
        "row", "n", "k", "QPF total", "QPF/query", "TM calls", "ms total"
    ));
    for Ablation { row: r, tm_calls } in &ablations {
        let per_query = r.qpf_uses as f64 / scale.queries(100) as f64;
        let calls = tm_calls.map_or("-".to_string(), |c| c.to_string());
        report.line(format!(
            "{:>28}{:>10}{:>8}{:>14}{:>12.1}{:>10}{:>12.3}",
            r.id, r.n, r.k, r.qpf_uses, per_query, calls, r.ms
        ));
    }
    let rows = ablations.into_iter().map(|a| a.row).collect();
    (report.finish(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_choice_beats_its_alternative_in_qpf() {
        let rows = measure(Scale::Ci);
        let find = |id: &str| {
            let found = rows.iter().find(|a| a.row.id == id);
            found.unwrap_or_else(|| panic!("row {id}"))
        };
        let qpf = |id: &str| find(id).row.qpf_uses;
        let calls = |id: &str| find(id).tm_calls.expect("the row counts calls");
        assert!(qpf("qfilter_binary") * 4 < qpf("qfilter_linear"));
        assert!(qpf("qscan_early_stop") < qpf("qscan_scan_both"));
        assert!(qpf("md_policy_partial_only") < qpf("md_policy_frozen"));
        assert!(qpf("between_waves") * 2 < qpf("between_linear"));
        assert!(calls("between_waves") * 4 < calls("between_linear"));
        assert!(qpf("between_miss_escalate") < qpf("between_miss_fullscan"));
        assert!(qpf("conjunction_one_walk") < qpf("conjunction_intersect"));
    }
}
