//! BETWEEN location (paper Appendix A): the hunt that finds where a
//! BETWEEN trapdoor's winners are, before the MD executor walks them.
//!
//! A BETWEEN trapdoor answers 1 exactly inside `[lo, hi]`, so — unlike a
//! comparison — the *direction* of a positive answer is known, but a
//! negative answer does not say which side of the range the tuple is on.
//! What SP can use is that the partitions holding winners form one
//! contiguous run of ranks, and that every partition strictly inside that
//! run lies wholly inside the range. So a BETWEEN is §5's pipeline with a
//! different locator, and runs as a dimension of `md::run`:
//!
//! 1. **Hunt in waves** for a partition whose sample answers 1: rank 0,
//!    then the odd multiples of stride `P/2, P/4, …, 1` (`P` the next power
//!    of two ≥ k), one `try_eval_batch` per wave, stopping after the first
//!    wave that holds a positive. When the wave of stride `s` finds rank
//!    `p`, every multiple of `s` has been sampled exactly once and all but
//!    `p` answered 0, so `p − s` and `p + s` are the nearest negatives and
//!    each transition is binary-searched inside its own gap of unsampled
//!    ranks: no rank is sampled twice. A run of `w` whole partitions holds a
//!    multiple of every stride ≤ `w`, so the hunt stops at a stride > `w/2`:
//!    ≤ 2k/w + 2 lg k probes and ≤ ⌈lg k⌉ + 1 hunt calls.
//! 2. **Two NS pairs under one trapdoor**, the adjacent negative/positive
//!    sample pairs `(a, b)` and `(c, d)` of the two transitions; App. A's
//!    "an outer partition that proves mixed puts its inner neighbour inside
//!    the range" is the walk's early stop (`md::exec`'s `hunt_sides`).
//! 3. **A miss escalates.** If all k samples answer 0, every partition has
//!    a member outside the range, so none lies strictly inside the winners'
//!    run: **at most two adjacent partitions hold winners.** The next
//!    1, 2, 4, … members of *every* partition are evaluated, one batch per
//!    round, until some rank `r` shows a positive; winners can then only be
//!    in `r − 1`, `r`, `r + 1`, whose unevaluated suffixes are completed
//!    here and reach the walk *decided*. No member is evaluated twice, so an
//!    empty range costs n + k QPF and a range of selectivity `f` inside its
//!    partition about k/f.
//!
//! The walk's commit splits each tested partition that proves mixed with
//! the interior half next to the proven-true side, and skips the paper's
//! exceptional case (both cuts possibly inside one partition).

use crate::pop::Pop;
use crate::qfilter;
use crate::selection::QueryStats;
use prkb_edbms::{OracleError, SelectionOracle, TupleId};
use rand::Rng;

/// Locates one BETWEEN trapdoor on `pop`: the hunt, then either the two
/// transitions' bisections or the escalation, whose completed partitions
/// are returned with every member's verdict in member order. Adds its cost
/// to `stats` (see [`Probe`]). Read-only, so a failure has nothing to roll
/// back.
///
/// # Errors
/// Propagates the first oracle failure.
pub(crate) fn locate<O: SelectionOracle, R: Rng>(
    pop: &Pop,
    oracle: &O,
    pred: &O::Pred,
    rng: &mut R,
    stats: &mut QueryStats,
) -> Result<Found, OracleError> {
    let k = pop.k();
    let mut probe = Probe {
        pop,
        oracle,
        pred,
        batch: Vec::new(),
        verdicts: Vec::new(),
        stats,
    };
    Ok(match (k > 0).then(|| probe.hunt(rng)).transpose()? {
        Some(Some((p, s))) => {
            // Each transition narrows a negative sample (or the virtual
            // rank k) and `p` inside its own gap of unsampled ranks.
            let probes = &mut probe.stats.filter_probes;
            let mut bisect = |neg| qfilter::bisect(pop, oracle, pred, (neg, p), false, rng, probes);
            let (a, b) = match p {
                0 => (None, 0),
                _ => {
                    let (a, b) = bisect(p - s)?;
                    (Some(a), b)
                }
            };
            let (d, c) = bisect((p + s).min(k))?;
            Found::Hit { a, b, c, d }
        }
        Some(None) => Found::Miss(probe.escalate()?),
        None => Found::Miss(Vec::new()),
    })
}

/// Where a BETWEEN trapdoor's winners can be.
pub(crate) enum Found {
    /// A sample answered 1: `(a, b)` and `(c, d)` are the adjacent
    /// negative/positive sample pairs of the two transitions, `a` is `None`
    /// when the winners start at rank 0 and `d` is k when they reach the
    /// top. Ranks strictly between `b` and `c` lie inside the range; every
    /// rank outside `a..=d` lies outside it.
    Hit {
        a: Option<usize>,
        b: usize,
        c: usize,
        d: usize,
    },
    /// Every sample answered 0: only the (≤ 3) completed partitions, each
    /// with its members' verdicts in member order, can hold winners.
    Miss(Vec<(usize, Vec<bool>)>),
}

/// One trapdoor's location work: the POP it runs against, the scratch
/// buffers every batch shares, and the stats its cost is added to —
/// samples and round members as `filter_probes`, completions as
/// `ns_width`, calls as `oracle_batches`.
struct Probe<'a, O: SelectionOracle> {
    pop: &'a Pop,
    oracle: &'a O,
    pred: &'a O::Pred,
    batch: Vec<TupleId>,
    verdicts: Vec<bool>,
    stats: &'a mut QueryStats,
}

impl<O: SelectionOracle> Probe<'_, O> {
    /// Evaluates `self.batch` into `self.verdicts` as location work.
    fn eval_probes(&mut self) -> Result<(), OracleError> {
        self.oracle
            .try_eval_batch(self.pred, &self.batch, &mut self.verdicts)?;
        self.stats.oracle_batches += 1;
        self.stats.filter_probes += self.batch.len() as u64;
        Ok(())
    }

    /// Phase 1. Returns the rank `p` of a positive sample and the stride `s`
    /// of the wave that found it — every multiple of `s` other than `p` has
    /// then answered 0 — or `None` once all k samples have.
    fn hunt<R: Rng>(&mut self, rng: &mut R) -> Result<Option<(usize, usize)>, OracleError> {
        let (pop, k) = (self.pop, self.pop.k());
        let top = k.next_power_of_two();
        let mut stride = top;
        loop {
            // The first wave is rank 0 alone (the one multiple of `top`
            // below k); a later one is the odd multiples of its stride.
            let first = if stride == top { 0 } else { stride };
            self.batch.clear();
            self.batch.extend(
                (first..k)
                    .step_by(2 * stride)
                    .map(|rank| pop.sample_at(rank, rng)),
            );
            self.eval_probes()?;
            if let Some(i) = self.verdicts.iter().position(|&v| v) {
                return Ok(Some((first + 2 * stride * i, stride)));
            }
            if stride == 1 {
                return Ok(None);
            }
            stride /= 2;
        }
    }

    /// Evaluates the members of `rank` past its `known` verdicts (one
    /// batch, none when `known` covers the partition) and returns every
    /// member's verdict in member order.
    fn complete(&mut self, rank: usize, mut known: Vec<bool>) -> Result<Vec<bool>, OracleError> {
        let rest = &self.pop.members_at(rank)[known.len()..];
        if !rest.is_empty() {
            self.oracle
                .try_eval_batch(self.pred, rest, &mut self.verdicts)?;
            self.stats.oracle_batches += 1;
            self.stats.ns_width += rest.len() as u64;
            known.extend_from_slice(&self.verdicts);
        }
        Ok(known)
    }

    /// Phase 3: all k samples answered 0. Returns the completed verdicts of
    /// the (≤ 3) partitions that can hold winners, or none when every
    /// member of the table has answered 0.
    fn escalate(&mut self) -> Result<Vec<(usize, Vec<bool>)>, OracleError> {
        let (pop, k) = (self.pop, self.pop.k());
        let (mut done, mut chunk) = (0usize, 1usize);
        // Where each rank's members start in this round's batch.
        let mut starts = Vec::with_capacity(k + 1);
        loop {
            self.batch.clear();
            starts.clear();
            for rank in 0..k {
                starts.push(self.batch.len());
                let members = pop.members_at(rank);
                let from = done.min(members.len());
                let to = (done + chunk).min(members.len());
                self.batch.extend_from_slice(&members[from..to]);
            }
            starts.push(self.batch.len());
            if self.batch.is_empty() {
                return Ok(Vec::new());
            }
            self.eval_probes()?;
            if let Some(hit) = self.verdicts.iter().position(|&v| v) {
                let r = starts.partition_point(|&s| s <= hit) - 1;
                // Verdicts so far of each partition to complete: 0 for the
                // earlier rounds' members, then this round's.
                let known: Vec<(usize, Vec<bool>)> = (r.saturating_sub(1)..(r + 2).min(k))
                    .map(|rank| {
                        let mut v = vec![false; done.min(pop.members_at(rank).len())];
                        v.extend_from_slice(&self.verdicts[starts[rank]..starts[rank + 1]]);
                        (rank, v)
                    })
                    .collect();
                return known
                    .into_iter()
                    .map(|(rank, v)| Ok((rank, self.complete(rank, v)?)))
                    .collect();
            }
            done += chunk;
            chunk *= 2;
        }
    }
}

/// The pipeline a BETWEEN ran on before it became a dimension of the MD
/// executor — its own partition scans, early stop, overflow sweep, stats and
/// commit — kept as the reference twin the one executor must match.
#[cfg(test)]
pub(crate) mod twin {
    use super::Probe;
    use crate::knowledge::tests::split;
    use crate::knowledge::{BetweenEdge, Knowledge, Separator};
    use crate::pop::Pop;
    use crate::selection::{QueryStats, Selection};
    use crate::traits::SpPredicate;
    use prkb_edbms::{OracleError, SelectionOracle, TupleId};
    use rand::Rng;

    /// Every member of the partition at `rank`, separated by QPF verdict,
    /// both halves in member order. With both halves non-empty the
    /// partition is non-homogeneous and this is its discovered split.
    #[derive(Debug, Clone)]
    pub(crate) struct Split {
        pub rank: usize,
        pub true_half: Vec<TupleId>,
        pub false_half: Vec<TupleId>,
    }

    impl Split {
        pub(crate) fn is_mixed(&self) -> bool {
            !self.true_half.is_empty() && !self.false_half.is_empty()
        }

        fn from_verdicts(pop: &Pop, rank: usize, verdicts: &[bool]) -> Split {
            let (mut true_half, mut false_half) = (Vec::new(), Vec::new());
            for (&t, &v) in pop.members_at(rank).iter().zip(verdicts) {
                if v {
                    true_half.push(t);
                } else {
                    false_half.push(t);
                }
            }
            Split {
                rank,
                true_half,
                false_half,
            }
        }
    }

    /// Evaluates every member of the partition at `rank` in one batch and
    /// separates them by verdict.
    pub(crate) fn scan_partition<O: SelectionOracle>(
        pop: &Pop,
        oracle: &O,
        pred: &O::Pred,
        rank: usize,
        verdicts: &mut Vec<bool>,
    ) -> Result<Split, OracleError> {
        oracle.try_eval_batch(pred, pop.members_at(rank), verdicts)?;
        Ok(Split::from_verdicts(pop, rank, verdicts))
    }

    /// [`scan_partition`], counted as scan work.
    fn scan<O: SelectionOracle>(
        probe: &mut Probe<'_, O>,
        rank: usize,
    ) -> Result<Split, OracleError> {
        let (pop, verdicts) = (probe.pop, &mut probe.verdicts);
        let scan = scan_partition(pop, probe.oracle, probe.pred, rank, verdicts)?;
        probe.stats.oracle_batches += 1;
        probe.stats.ns_width += pop.members_at(rank).len() as u64;
        Ok(scan)
    }

    /// Processes one BETWEEN trapdoor against the knowledge base.
    pub(crate) fn try_process_between<O, R>(
        kb: &mut Knowledge<O::Pred>,
        oracle: &O,
        pred: &O::Pred,
        rng: &mut R,
        update: bool,
    ) -> Result<Selection, OracleError>
    where
        O: SelectionOracle,
        O::Pred: SpPredicate,
        R: Rng,
    {
        let qpf_before = oracle.qpf_uses();
        let k = kb.k();

        let mut cost = QueryStats::default();
        let mut probe = Probe {
            pop: kb.pop(),
            oracle,
            pred,
            batch: Vec::new(),
            verdicts: Vec::new(),
            stats: &mut cost,
        };
        let mut scans: Vec<Split> = Vec::new();
        // Ranks wholly inside the range: they pass by label, unscanned.
        let mut middle_true: Vec<usize> = Vec::new();

        if k > 0 {
            match probe.hunt(rng)? {
                Some((p, s)) => {
                    let (pop, probes) = (probe.pop, &mut probe.stats.filter_probes);
                    let mut bisect = |neg| {
                        crate::qfilter::bisect(pop, oracle, pred, (neg, p), false, rng, probes)
                    };
                    let (a, b) = match p {
                        0 => (None, 0),
                        _ => {
                            let (a, b) = bisect(p - s)?;
                            (Some(a), b)
                        }
                    };
                    let (d, c) = bisect((p + s).min(k))?;

                    // Outer partitions first — one that proves mixed holds
                    // its transition's cut, so its inner neighbour is wholly
                    // inside the range.
                    let mut outer_is_mixed = |rank: Option<usize>| -> Result<bool, OracleError> {
                        let Some(rank) = rank else { return Ok(false) };
                        let scan = scan(&mut probe, rank)?;
                        let mixed = scan.is_mixed();
                        scans.push(scan);
                        Ok(mixed)
                    };
                    let low_cut_in_a = outer_is_mixed(a)?;
                    let high_cut_in_d = outer_is_mixed((d < k).then_some(d))?;
                    let inner = if b == c {
                        vec![(b, low_cut_in_a && high_cut_in_d)]
                    } else {
                        vec![(b, low_cut_in_a), (c, high_cut_in_d)]
                    };
                    for (rank, inside) in inner {
                        if inside {
                            middle_true.push(rank);
                        } else {
                            scans.push(scan(&mut probe, rank)?);
                        }
                    }
                    middle_true.extend(b + 1..c);
                }
                None => {
                    let pop = probe.pop;
                    scans = probe
                        .escalate()?
                        .iter()
                        .map(|(rank, v)| Split::from_verdicts(pop, *rank, v))
                        .collect();
                }
            }
        }

        let mut tuples: Vec<TupleId> = Vec::new();
        for &rank in &middle_true {
            tuples.extend_from_slice(kb.pop().members_at(rank));
        }
        for s in &scans {
            tuples.extend_from_slice(&s.true_half);
        }

        // Overflow tuples are always examined, unconditionally — one batch.
        let overflow: Vec<TupleId> = kb.overflow().iter().map(|e| e.tuple).collect();
        let overflow_scanned = overflow.len();
        if !overflow.is_empty() {
            oracle.try_eval_batch(pred, &overflow, &mut probe.verdicts)?;
            probe.stats.oracle_batches += 1;
            tuples.extend(
                overflow
                    .into_iter()
                    .zip(&probe.verdicts)
                    .filter_map(|(t, &v)| v.then_some(t)),
            );
        }

        let mut stats = QueryStats {
            qpf_uses: oracle.qpf_uses().saturating_sub(qpf_before),
            k_before: k,
            k_after: k,
            splits: 0,
            filter_probes: cost.filter_probes,
            ns_width: cost.ns_width,
            oracle_batches: cost.oracle_batches,
            pruned_true: middle_true.len(),
            pruned_false: k - scans.len() - middle_true.len(),
            overflow_scanned,
        };

        // ---- Commit phase: infallible, no oracle calls past this point. ----
        if update {
            stats.splits = apply_between_updates(kb, pred, scans, &middle_true);
            stats.k_after = kb.k();
        }
        Ok(Selection { tuples, stats })
    }

    /// Splits the (≤ 2) mixed scanned partitions. Returns the number of
    /// splits.
    pub(crate) fn apply_between_updates<P: SpPredicate>(
        kb: &mut Knowledge<P>,
        pred: &P,
        scans: Vec<Split>,
        middle_true: &[usize],
    ) -> usize {
        // The true span: every rank with at least one positive tuple.
        let true_ranks = || {
            let scanned = scans.iter().filter(|s| !s.true_half.is_empty());
            middle_true.iter().copied().chain(scanned.map(|s| s.rank))
        };
        let (Some(min_true), Some(max_true)) = (true_ranks().min(), true_ranks().max()) else {
            return 0; // nothing satisfied: no refinement possible
        };

        let mut pending: Vec<(Split, BetweenEdge)> = Vec::new();
        for s in scans {
            if !s.is_mixed() {
                continue;
            }
            if s.rank == min_true && s.rank == max_true {
                continue; // the paper's exceptional case
            }
            if s.rank == min_true {
                pending.push((s, BetweenEdge::InteriorRight));
            } else if s.rank == max_true {
                pending.push((s, BetweenEdge::InteriorLeft));
            } else {
                debug_assert!(false, "mixed partition strictly inside the true span");
            }
        }

        pending.sort_by_key(|(s, _)| std::cmp::Reverse(s.rank));
        let n = pending.len();
        for (s, edge) in pending {
            let left = match edge {
                BetweenEdge::InteriorRight => s.false_half,
                BetweenEdge::InteriorLeft => s.true_half,
            };
            let sep = Separator::Between {
                pred: pred.clone(),
                edge,
            };
            split(kb, s.rank, &left, Some(sep));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::twin::{apply_between_updates, Split};
    use super::*;
    use crate::knowledge::Knowledge;
    use crate::md::select_one;
    use crate::selection::{QueryStats, Selection};
    use crate::snapshot;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate, PredicateKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    /// `n` tuples with value = id, warmed with one `X < c` per cut.
    fn setup(n: usize, cuts: &[u64]) -> (Knowledge<Predicate>, PlainOracle) {
        warmed((0..n as u64).collect(), cuts)
    }

    fn warmed(values: Vec<u64>, cuts: &[u64]) -> (Knowledge<Predicate>, PlainOracle) {
        let mut kb: Knowledge<Predicate> = Knowledge::init(values.len());
        let oracle = PlainOracle::single_column(values);
        let mut rng = StdRng::seed_from_u64(1);
        for &c in cuts {
            let p = Predicate::cmp(0, ComparisonOp::Lt, c);
            select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
        }
        oracle.reset_uses();
        (kb, oracle)
    }

    fn run(
        kb: &mut Knowledge<Predicate>,
        oracle: &impl SelectionOracle<Pred = Predicate>,
        lo: u64,
        hi: u64,
        seed: u64,
    ) -> Selection {
        let mut rng = StdRng::seed_from_u64(seed);
        select_one(kb, oracle, &Predicate::between(0, lo, hi), &mut rng, true).unwrap()
    }

    /// Partitions this query evaluated in full.
    fn scanned_ranks(stats: &QueryStats) -> usize {
        stats.k_before - stats.pruned_true - stats.pruned_false
    }

    /// The hunt this module displaced, kept as the reference twin: sample
    /// rank by rank from 0 until one answers 1, binary-search the high
    /// transition, scan all (≤ 4) boundary partitions, and on a miss scan
    /// the whole table. Same commit phase.
    fn sequential_between<R: Rng>(
        kb: &mut Knowledge<Predicate>,
        oracle: &PlainOracle,
        pred: &Predicate,
        rng: &mut R,
    ) -> Vec<TupleId> {
        let k = kb.k();
        let sample = |kb: &Knowledge<Predicate>, rank: usize, rng: &mut R| {
            oracle.eval(pred, kb.pop().sample_at(rank, rng))
        };
        let mut scan_set: Vec<usize> = Vec::new();
        let mut middle_true: Vec<usize> = Vec::new();
        match (0..k).find(|&rank| sample(kb, rank, rng)) {
            Some(r) => {
                scan_set.extend(r.checked_sub(1));
                scan_set.push(r);
                let high_lo = if r == k - 1 || sample(kb, k - 1, rng) {
                    scan_set.push(k - 1);
                    k - 1
                } else {
                    let (mut lo, mut hi) = (r, k - 1);
                    while hi - lo > 1 {
                        let m = (lo + hi) / 2;
                        if sample(kb, m, rng) {
                            lo = m;
                        } else {
                            hi = m;
                        }
                    }
                    scan_set.extend([lo, hi]);
                    lo
                };
                scan_set.sort_unstable();
                scan_set.dedup();
                middle_true.extend((r + 1..high_lo).filter(|q| !scan_set.contains(q)));
            }
            None => scan_set.extend(0..k),
        }
        let full_scan = |&rank: &usize| {
            let members = kb.pop().members_at(rank).iter();
            let (true_half, false_half) = members.partition(|&&t| oracle.eval(pred, t));
            Split {
                rank,
                true_half,
                false_half,
            }
        };
        let scans: Vec<Split> = scan_set.iter().map(full_scan).collect();
        let mut tuples: Vec<TupleId> = Vec::new();
        for &rank in &middle_true {
            tuples.extend_from_slice(kb.pop().members_at(rank));
        }
        for s in &scans {
            tuples.extend_from_slice(&s.true_half);
        }
        let parked = kb.overflow().iter().map(|e| e.tuple);
        tuples.extend(parked.filter(|&t| oracle.eval(pred, t)));
        apply_between_updates(kb, pred, scans, &middle_true);
        tuples
    }

    /// Counts the oracle calls a query makes, by shape.
    struct Calls<'a> {
        inner: &'a PlainOracle,
        singles: Cell<u64>,
        batches: Cell<u64>,
    }

    impl<'a> Calls<'a> {
        fn new(inner: &'a PlainOracle) -> Self {
            Calls {
                inner,
                singles: Cell::new(0),
                batches: Cell::new(0),
            }
        }
    }

    impl SelectionOracle for Calls<'_> {
        type Pred = Predicate;

        fn try_eval(&self, pred: &Predicate, t: TupleId) -> Result<bool, OracleError> {
            self.singles.set(self.singles.get() + 1);
            self.inner.try_eval(pred, t)
        }

        fn try_eval_batch(
            &self,
            pred: &Predicate,
            tuples: &[TupleId],
            out: &mut Vec<bool>,
        ) -> Result<(), OracleError> {
            self.batches.set(self.batches.get() + 1);
            self.inner.try_eval_batch(pred, tuples, out)
        }

        fn kind_of(&self, pred: &Predicate) -> PredicateKind {
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

    #[test]
    fn between_on_fresh_knowledge() {
        let (mut kb, oracle) = setup(100, &[]);
        let sel = run(&mut kb, &oracle, 30, 60, 2);
        assert_eq!(sel.sorted(), (30..=60).collect::<Vec<_>>());
        // k == 1: both cuts inside the only partition → no sound update.
        assert_eq!(kb.k(), 1);
        kb.check_invariants();
    }

    #[test]
    fn between_spanning_partitions_selects_and_splits() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        assert_eq!(kb.k(), 4);
        let sel = run(&mut kb, &oracle, 30, 60, 3);
        assert_eq!(sel.sorted(), (30..=60).collect::<Vec<_>>());
        // Both cuts fall in different partitions → two splits (k: 4 → 6),
        // "equivalent to two separate comparisons" per Appendix A.
        assert_eq!(sel.stats.splits, 2);
        assert_eq!(kb.k(), 6);
        kb.check_invariants();
    }

    #[test]
    fn between_refinement_speeds_up_future_queries() {
        let (mut kb, oracle) = setup(1000, &[250, 500, 750]);
        run(&mut kb, &oracle, 300, 600, 4);
        oracle.reset_uses();
        // The cuts at 300/600 now exist: an aligned comparison is equivalent.
        let mut rng = StdRng::seed_from_u64(5);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 300);
        let sel = select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
        assert_eq!(sel.sorted(), oracle.expected_select(&p));
        assert_eq!(
            sel.stats.splits, 0,
            "cut at 300 aligns with BETWEEN's low cut"
        );
        kb.check_invariants();
    }

    #[test]
    fn between_aligned_with_existing_cuts_no_split() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        let sel = run(&mut kb, &oracle, 25, 49, 6);
        assert_eq!(sel.sorted(), (25..=49).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 0);
        assert_eq!(kb.k(), 4);
        kb.check_invariants();
    }

    #[test]
    fn tiny_range_inside_one_partition_skips_update() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        let sel = run(&mut kb, &oracle, 30, 33, 7);
        assert_eq!(sel.sorted(), (30..=33).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 0, "non-contiguous complement: no update");
        assert_eq!(kb.k(), 4);
        kb.check_invariants();
    }

    #[test]
    fn range_reaching_the_data_extremes() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        let sel = run(&mut kb, &oracle, 0, 99, 8);
        assert_eq!(sel.tuples.len(), 100);
        assert_eq!(sel.stats.splits, 0);
        // Range reaching above the top only (one interior cut at 60).
        let sel = run(&mut kb, &oracle, 60, 2000, 9);
        assert_eq!(sel.sorted(), (60..100).collect::<Vec<_>>());
        assert_eq!(sel.stats.splits, 1);
        kb.check_invariants();
    }

    #[test]
    fn empty_result_range() {
        let (mut kb, oracle) = setup(100, &[25, 50, 75]);
        let sel = run(&mut kb, &oracle, 500, 600, 10);
        assert!(sel.tuples.is_empty());
        assert_eq!(sel.stats.splits, 0);
        // The worst case: every sample, then every member exactly once.
        assert_eq!(sel.stats.qpf_uses, 100 + 4);
        assert_eq!(sel.stats.filter_probes, 100 + 4);
        assert_eq!((sel.stats.ns_width, sel.stats.pruned_false), (0, 4));
        kb.check_invariants();
    }

    #[test]
    fn many_random_betweens_stay_correct() {
        let (mut kb, oracle) = setup(500, &[100, 400]);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..30u64 {
            let lo = (i * 53) % 450;
            let hi = lo + 20 + (i * 7) % 60;
            let p = Predicate::between(0, lo, hi);
            let sel = select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
            assert_eq!(
                sel.sorted(),
                oracle.expected_select(&p),
                "range [{lo},{hi}]"
            );
            kb.check_invariants();
        }
        assert!(kb.k() > 5, "k = {}", kb.k());
    }

    #[test]
    fn empty_knowledge_base() {
        let oracle = PlainOracle::single_column(vec![]);
        let mut kb: Knowledge<Predicate> = Knowledge::init(0);
        let sel = run(&mut kb, &oracle, 1, 5, 12);
        assert!(sel.tuples.is_empty());
    }

    /// 400 partitions of 10 consecutive values each.
    fn even_400() -> (Knowledge<Predicate>, PlainOracle) {
        let cuts: Vec<u64> = (1..400).map(|i| i * 10).collect();
        let (kb, oracle) = setup(4000, &cuts);
        assert_eq!(kb.k(), 400);
        (kb, oracle)
    }

    #[test]
    fn a_range_of_w_whole_partitions_is_found_in_2k_over_w_probes_and_lg_k_calls() {
        let (kb, oracle) = even_400();
        let (k, lg_k) = (400u64, 9u64);
        for w in [1u64, 2, 3, 7, 16, 50, 128, 399, 400] {
            for first in [0, 1, 137, 255, 256, 400 - w] {
                if first + w > k {
                    continue;
                }
                let calls = Calls::new(&oracle);
                let mut kb = kb.clone();
                let (lo, hi) = (first * 10, (first + w) * 10 - 1);
                let sel = run(&mut kb, &calls, lo, hi, w ^ first);
                assert_eq!(sel.sorted(), (lo as u32..=hi as u32).collect::<Vec<_>>());
                let at = format!("w = {w} from rank {first}: {:?}", sel.stats);
                assert!(sel.stats.filter_probes <= 2 * k / w + 2 * lg_k, "{at}");
                assert_eq!(calls.batches.get(), sel.stats.oracle_batches, "{at}");
                let hunt_calls = calls.batches.get() - scanned_ranks(&sel.stats) as u64;
                assert!(hunt_calls <= lg_k + 1, "{hunt_calls} hunt calls, {at}");
                assert!(calls.singles.get() <= 2 * (lg_k - 1), "{at}");
                // An aligned range has no mixed partition: every boundary
                // partition is scanned and nothing splits.
                assert_eq!(sel.stats.splits, 0, "{at}");
                assert_eq!(
                    sel.stats.qpf_uses,
                    sel.stats.filter_probes + sel.stats.ns_width,
                    "{at}"
                );
            }
        }
    }

    /// Partitions {0..10}, …, {90..100}; ranks 1 and `high` hold the cuts of
    /// `[15, hi]`, five members in and five out each, so what their samples
    /// answer — and with it which pairs the transitions land on — varies by
    /// seed. Returns the NS widths seen over 64 seeds.
    fn ns_widths_seen(lo: u64, hi: u64, splits: usize) -> Vec<u64> {
        let cuts: Vec<u64> = (1..10).map(|i| i * 10).collect();
        let (kb, oracle) = setup(100, &cuts);
        let mut seen: Vec<u64> = (0..64)
            .map(|seed| {
                let mut kb = kb.clone();
                let sel = run(&mut kb, &oracle, lo, hi, seed);
                assert_eq!(sel.sorted(), (lo as u32..=hi as u32).collect::<Vec<_>>());
                assert_eq!(sel.stats.splits, splits, "seed {seed}");
                assert_eq!(sel.stats.ns_width, 10 * scanned_ranks(&sel.stats) as u64);
                kb.check_invariants();
                sel.stats.ns_width
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    }

    #[test]
    fn a_mixed_outer_partition_passes_its_inner_neighbour_by_label() {
        // Cuts inside ranks 1 and 7, ranks 2..=6 whole. Both samples
        // negative: a = 1 and d = 7 are mixed, b = 2 and c = 6 are skipped
        // (two scans). One positive: that side's pair moves out by one, its
        // outer partition is homogeneous and its inner one is scanned
        // (three). Both positive: four, as the displaced hunt always did.
        assert_eq!(ns_widths_seen(15, 74, 2), [20, 30, 40]);
    }

    #[test]
    fn a_single_inner_partition_is_skipped_only_when_both_outer_ones_are_mixed() {
        // Cuts inside ranks 1 and 3, rank 2 whole: with both samples
        // negative b = c = 2 sits between two mixed partitions and is
        // skipped (two scans).
        assert_eq!(ns_widths_seen(15, 34, 2), [20, 30, 40]);
        // Low cut *on* the boundary of ranks 1 | 2, high cut inside rank 3:
        // with rank 3's sample negative b = c = 2 again, d = 3 is mixed but
        // a = 1 is not — the low cut may be inside rank 2, which is scanned
        // (three scans, never two).
        assert_eq!(ns_widths_seen(20, 34, 1), [30, 40]);
    }

    /// `n` distinct values in an order that keeps no partition's members
    /// value-sorted, cut every 100 except where `fat` says otherwise.
    fn thin_and_fat(n: u64, fat: std::ops::Range<u64>) -> (Knowledge<Predicate>, PlainOracle) {
        let values = (0..n).map(|i| i * 1237 % n).collect();
        let cuts: Vec<u64> = (1..n / 100).map(|i| i * 100).collect();
        let outside_fat = |c: &u64| *c <= fat.start || *c >= fat.end;
        let cuts: Vec<u64> = cuts.into_iter().filter(outside_fat).collect();
        warmed(values, &cuts)
    }

    /// Runs `[lo, hi]` on a seed whose k samples all answer 0 and checks it
    /// against brute force and against the full scan of the displaced hunt.
    fn miss(kb: &Knowledge<Predicate>, oracle: &PlainOracle, lo: u64, hi: u64) -> QueryStats {
        let pred = Predicate::between(0, lo, hi);
        let k = kb.k() as u64;
        let (sel, waved) = (0..64)
            .find_map(|seed| {
                let mut kb = kb.clone();
                let sel = run(&mut kb, oracle, lo, hi, seed);
                (sel.stats.filter_probes > k).then_some((sel, kb))
            })
            .expect("a seed whose samples all miss");
        assert_eq!(sel.sorted(), oracle.expected_select(&pred));
        let mut scanned = kb.clone();
        let mut rng = StdRng::seed_from_u64(0);
        sequential_between(&mut scanned, oracle, &pred, &mut rng);
        assert_eq!(snapshot::save(&waved), snapshot::save(&scanned));
        assert_eq!(waved.k(), kb.k() + sel.stats.splits);
        assert_eq!(
            sel.stats.qpf_uses,
            sel.stats.filter_probes + sel.stats.ns_width
        );
        sel.stats
    }

    #[test]
    fn a_miss_inside_one_fat_partition_escalates_instead_of_scanning_the_table() {
        let (kb, oracle) = thin_and_fat(6000, 5000..6000);
        assert_eq!(kb.k(), 51);
        let stats = miss(&kb, &oracle, 5500, 5599);
        assert!(stats.qpf_uses < 6000 / 2, "{stats:?}");
        assert_eq!(stats.splits, 0, "both cuts inside one partition");
        assert!(scanned_ranks(&stats) <= 3, "{stats:?}");
    }

    #[test]
    fn a_miss_split_across_two_partitions_splits_both() {
        let (mut kb, oracle) = thin_and_fat(6000, 4000..6000);
        let p = Predicate::cmp(0, ComparisonOp::Lt, 5000);
        select_one(&mut kb, &oracle, &p, &mut StdRng::seed_from_u64(2), true).unwrap();
        assert_eq!(kb.k(), 42);
        let stats = miss(&kb, &oracle, 4950, 5049);
        assert!(stats.qpf_uses < 6000 / 2, "{stats:?}");
        assert_eq!(stats.splits, 2);
    }

    #[test]
    fn an_empty_range_costs_every_sample_and_every_member_once() {
        let (mut kb, oracle) = thin_and_fat(6000, 5000..6000);
        let calls = Calls::new(&oracle);
        let sel = run(&mut kb, &calls, 7000, 8000, 3);
        assert!(sel.tuples.is_empty());
        assert_eq!(sel.stats.qpf_uses, 6000 + 51);
        assert_eq!((sel.stats.ns_width, sel.stats.splits), (0, 0));
        // ⌈lg 51⌉ + 1 waves, then rounds of 1, 2, 4, …, 512 members.
        assert_eq!((calls.batches.get(), calls.singles.get()), (7 + 10, 0));
        assert_eq!(sel.stats.oracle_batches, 17);
    }

    /// A random POP over a column with `domain` distinct values (small =
    /// duplicate-heavy), a deleted tuple and two parked ones.
    fn scenario(seed: u64) -> (Knowledge<Predicate>, PlainOracle, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..500usize);
        let domain = [6u64, 40, 2000][rng.gen_range(0..3usize)];
        let values: Vec<u64> = (0..n + 2).map(|_| rng.gen_range(0..domain)).collect();
        let mut oracle = PlainOracle::single_column(values);
        let mut kb: Knowledge<Predicate> = Knowledge::init(n);
        for _ in 0..rng.gen_range(0..260usize) {
            let p = Predicate::cmp(0, ComparisonOp::Lt, rng.gen_range(0..domain + 1));
            select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
        }
        if n > 1 {
            let gone = rng.gen_range(0..n as TupleId);
            oracle.delete(gone);
            kb.delete(gone);
        }
        for t in n..n + 2 {
            kb.park(t as TupleId, 0, kb.k() - 1);
        }
        (kb, oracle, domain)
    }

    /// One call across the SP↔TM boundary.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        Probe(TupleId),
        Batch(Vec<TupleId>),
    }

    /// Logs every call a query makes, probes and batches in one sequence.
    struct Logged<'a> {
        inner: &'a PlainOracle,
        log: std::cell::RefCell<Vec<Call>>,
    }

    impl<'a> Logged<'a> {
        fn new(inner: &'a PlainOracle) -> Self {
            Logged {
                inner,
                log: std::cell::RefCell::new(Vec::new()),
            }
        }
    }

    impl SelectionOracle for Logged<'_> {
        type Pred = Predicate;

        fn try_eval(&self, pred: &Predicate, t: TupleId) -> Result<bool, OracleError> {
            self.log.borrow_mut().push(Call::Probe(t));
            self.inner.try_eval(pred, t)
        }

        fn try_eval_batch(
            &self,
            pred: &Predicate,
            tuples: &[TupleId],
            out: &mut Vec<bool>,
        ) -> Result<(), OracleError> {
            self.log.borrow_mut().push(Call::Batch(tuples.to_vec()));
            self.inner.try_eval_batch(pred, tuples, out)
        }

        fn kind_of(&self, pred: &Predicate) -> PredicateKind {
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The wave hunt is the sequential hunt: same winners and a
        /// byte-identical knowledge base, query after query as BETWEEN
        /// separators accumulate — whatever either side's samples were.
        #[test]
        fn waves_match_the_sequential_hunt(seed in proptest::prelude::any::<u64>()) {
            let (mut waved, oracle, domain) = scenario(seed);
            let mut sequential = waved.clone();
            proptest::prop_assert!(waved.k() <= 200);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7);
            for q in 0..6u64 {
                // Empty, inside one partition, straddling, everything, and
                // touching either extreme.
                let at = rng.gen_range(0..domain);
                let (lo, hi) = match rng.gen_range(0..6u32) {
                    0 => (domain + 1, domain + 9),
                    1 => (at, at),
                    2 => (at, at + rng.gen_range(0..domain / 4 + 1)),
                    3 => (0, domain),
                    4 => (0, at),
                    _ => (at, domain),
                };
                let pred = Predicate::between(0, lo, hi);
                let mut rng_w = StdRng::seed_from_u64(seed ^ q);
                let mut rng_s = StdRng::seed_from_u64(seed.rotate_left(17) ^ q);
                let before = oracle.qpf_uses();
                let sel = select_one(&mut waved, &oracle, &pred, &mut rng_w, true)
                    .expect("clean");
                let spent = oracle.qpf_uses() - before;
                let mut reference = sequential_between(&mut sequential, &oracle, &pred, &mut rng_s);
                reference.sort_unstable();
                proptest::prop_assert_eq!(sel.sorted(), reference, "winners, [{}, {}]", lo, hi);
                proptest::prop_assert_eq!(
                    snapshot::save(&waved), snapshot::save(&sequential), "KB, [{}, {}]", lo, hi
                );
                waved.check_invariants();
                let s = sel.stats;
                proptest::prop_assert_eq!(s.qpf_uses, spent);
                proptest::prop_assert_eq!(
                    s.qpf_uses, s.filter_probes + s.ns_width + s.overflow_scanned as u64
                );
                proptest::prop_assert!(s.qpf_uses <= (oracle.n_slots() + s.k_before) as u64, "{:?}", s);
            }
        }

        /// A BETWEEN is a dimension of the one executor: against the
        /// pipeline it ran on before (the twin), every BETWEEN of a stream
        /// that interleaves comparisons, BETWEENs, inserts (which park rows
        /// the BETWEEN cuts cannot lateralize) and deletes gets the same
        /// tuple set, the same `QueryStats` field for field, the same
        /// oracle calls in the same order — each probe, then each batch's
        /// tuples — and leaves byte-identical knowledge, refining or static.
        #[test]
        fn a_between_is_a_dimension_of_the_one_executor(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..2_000,
            refining in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let domain = [6u64, 40, 2000][rng.gen_range(0..3usize)];
            let values: Vec<u64> = (0..n + 2).map(|_| rng.gen_range(0..domain)).collect();
            let mut oracle = PlainOracle::single_column(values);
            let mut kb: Knowledge<Predicate> = Knowledge::init(n);
            for _ in 0..rng.gen_range(0..12usize) {
                let p = Predicate::cmp(0, ComparisonOp::Lt, rng.gen_range(0..domain + 1));
                select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
            }
            for t in n..n + 2 {
                kb.park(t as TupleId, 0, kb.k() - 1);
            }
            let mut kb_twin = kb.clone();
            for step in 0..16 {
                let query_seed: u64 = rng.gen();
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let at = rng.gen_range(0..domain);
                        let (lo, hi) = match rng.gen_range(0..4u32) {
                            0 => (domain + 1, domain + 9),
                            1 => (at, at),
                            2 => (0, at),
                            _ => (at, at + rng.gen_range(0..domain / 3 + 1)),
                        };
                        let p = Predicate::between(0, lo, hi);
                        let (new_calls, twin_calls) = (Logged::new(&oracle), Logged::new(&oracle));
                        let mut r = StdRng::seed_from_u64(query_seed);
                        let new = select_one(&mut kb, &new_calls, &p, &mut r, refining).unwrap();
                        let mut r = StdRng::seed_from_u64(query_seed);
                        let reference =
                            twin::try_process_between(&mut kb_twin, &twin_calls, &p, &mut r, refining)
                                .unwrap();
                        proptest::prop_assert_eq!(new.sorted(), reference.sorted(), "step {}", step);
                        proptest::prop_assert_eq!(new.stats, reference.stats, "step {}", step);
                        proptest::prop_assert_eq!(
                            new_calls.log.into_inner(), twin_calls.log.into_inner(), "step {}", step
                        );
                    }
                    5 | 6 => {
                        let op = ComparisonOp::ALL[rng.gen_range(0..4)];
                        let p = Predicate::cmp(0, op, rng.gen_range(0..domain + 1));
                        for knowledge in [&mut kb, &mut kb_twin] {
                            let mut r = StdRng::seed_from_u64(query_seed);
                            select_one(knowledge, &oracle, &p, &mut r, refining).unwrap();
                        }
                    }
                    7 | 8 => {
                        let t = oracle.insert(&[rng.gen_range(0..domain)]);
                        crate::insert::tests::try_insert_tuple(&mut kb, &oracle, t).unwrap();
                        crate::insert::tests::try_insert_tuple(&mut kb_twin, &oracle, t).unwrap();
                    }
                    _ => {
                        let t = rng.gen_range(0..oracle.n_slots() as TupleId);
                        oracle.delete(t);
                        kb.delete(t);
                        kb_twin.delete(t);
                    }
                }
                proptest::prop_assert_eq!(
                    snapshot::save(&kb), snapshot::save(&kb_twin), "KB after step {}", step
                );
                kb.check_invariants();
            }
        }
    }
}
