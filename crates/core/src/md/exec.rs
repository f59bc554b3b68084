//! The PRKB(MD) executor (paper §6.2).

use super::zones::{rank_classes, RankClass};
use super::{MdDim, MdUpdatePolicy};
use crate::knowledge::Separator;
use crate::qfilter::{try_qfilter, FilterResult};
use crate::selection::{QueryStats, Selection};
use crate::traits::SpPredicate;
use crate::update::order_halves;
use prkb_edbms::{OracleError, SelectionOracle, TupleId};
use rand::Rng;

/// One partition of a trapdoor's NS pair: its rank, its QFilter sample
/// label, and the members this query has tested in it, run by run in the
/// order tested, with their verdicts position for position.
struct NsSide {
    rank: usize,
    label: bool,
    tested: Vec<TupleId>,
    verdicts: Vec<bool>,
    trues: usize,
}

impl NsSide {
    fn new(rank: usize, label: bool) -> Self {
        NsSide {
            rank,
            label,
            tested: Vec::new(),
            verdicts: Vec::new(),
            trues: 0,
        }
    }

    /// Appends one run of tested members and their verdicts.
    fn extend(&mut self, ids: &[TupleId], verdicts: &[bool]) {
        debug_assert_eq!(ids.len(), verdicts.len(), "one verdict per member");
        self.tested.extend_from_slice(ids);
        self.verdicts.extend_from_slice(verdicts);
        self.trues += verdicts.iter().filter(|&&v| v).count();
    }

    /// Both outcomes seen: this is the separating partition.
    fn mixed(&self) -> bool {
        self.trues > 0 && self.trues < self.tested.len()
    }
}

/// Early-stop inference state for one trapdoor's NS pair.
struct NsState {
    a: NsSide,
    /// `None` for a single-partition POP (`a == b`).
    b: Option<NsSide>,
    /// Rank that proved non-homogeneous (the separating partition).
    resolved: Option<usize>,
}

impl NsState {
    fn from_filter(f: &FilterResult) -> Option<Self> {
        let (a, b) = f.ns?;
        Some(NsState {
            a: NsSide::new(a, f.label_a),
            b: (b != a).then(|| NsSide::new(b, f.label_b)),
            resolved: None,
        })
    }

    fn sides(&self) -> impl Iterator<Item = &NsSide> {
        std::iter::once(&self.a).chain(&self.b)
    }

    fn in_pair(&self, rank: usize) -> bool {
        self.sides().any(|s| s.rank == rank)
    }

    /// Implied outcome for a tuple at `rank`, when the pair partner already
    /// proved non-homogeneous (paper's early-stop inference).
    fn inferred(&self, rank: usize) -> Option<bool> {
        let s = self.resolved?;
        if rank == s {
            return None; // the separating partition itself must be tested
        }
        self.sides().find(|s| s.rank == rank).map(|s| s.label)
    }

    /// Records one run of rank-`rank` verdicts, in the order tested.
    /// Resolution is checked once per run: a run's verdicts can only resolve
    /// `rank` itself, and once mixed a side stays mixed.
    fn record_run(&mut self, rank: usize, ids: &[TupleId], verdicts: &[bool]) {
        let side = if rank == self.a.rank {
            &mut self.a
        } else {
            match &mut self.b {
                Some(b) if b.rank == rank => b,
                _ => return,
            }
        };
        side.extend(ids, verdicts);
        if side.mixed() {
            self.resolved = Some(rank);
        }
    }
}

/// Survivors of the current wave awaiting one oracle batch, with their
/// positions in the wave.
#[derive(Default)]
struct Pending {
    tuples: Vec<TupleId>,
    at: Vec<usize>,
    verdicts: Vec<bool>,
}

impl Pending {
    fn push(&mut self, t: TupleId, at: usize) {
        self.tuples.push(t);
        self.at.push(at);
    }

    /// Evaluates the pending tuples as one oracle batch (none pending: no
    /// call), writes each verdict at its wave position, hands the batch and
    /// its verdicts to `each`, and empties the list.
    fn eval<O: SelectionOracle>(
        &mut self,
        oracle: &O,
        pred: &O::Pred,
        wave: &mut [bool],
        batches: &mut u64,
        each: impl FnOnce(&[TupleId], &[bool]),
    ) -> Result<(), OracleError> {
        if self.tuples.is_empty() {
            return Ok(());
        }
        *batches += 1;
        oracle.try_eval_batch(pred, &self.tuples, &mut self.verdicts)?;
        for (&i, &v) in self.at.iter().zip(&self.verdicts) {
            wave[i] = v;
        }
        each(&self.tuples, &self.verdicts);
        self.tuples.clear();
        self.at.clear();
        Ok(())
    }
}

/// The survivors `tuples[start..end]` of one driver partition (`rank`), or
/// of the driver's overflow (`rank: None`).
#[derive(Debug, Clone, Copy)]
struct Segment {
    rank: Option<usize>,
    start: usize,
    end: usize,
}

/// What one wave decided for a segment's survivors.
#[derive(Clone, Copy)]
enum Fate {
    /// Every survivor of the segment has this verdict.
    All(bool),
    /// Each survivor's verdict sits at its position in the wave.
    Each,
}

/// The candidates still in the running, in driver order, as segments: the
/// surviving live members of each driver partition not known false, in rank
/// order and member order, then the driver's surviving overflow tuples. No
/// segment is empty.
#[derive(Default)]
struct Band {
    tuples: Vec<TupleId>,
    segments: Vec<Segment>,
}

impl Band {
    /// Appends `tuples` as one segment (nothing when it is empty).
    fn push_segment(&mut self, rank: Option<usize>, tuples: impl Iterator<Item = TupleId>) {
        let start = self.tuples.len();
        self.tuples.extend(tuples);
        let end = self.tuples.len();
        if end > start {
            self.segments.push(Segment { rank, start, end });
        }
    }

    /// Keeps the survivors whose verdict is true, segments and tuples in one
    /// pass, dropping the segments left empty.
    fn retain(&mut self, fates: &[Fate], wave: &[bool]) {
        let (mut w, mut kept) = (0, 0);
        for (s, &fate) in fates.iter().enumerate() {
            let Segment { rank, start, end } = self.segments[s];
            let from = w;
            match fate {
                Fate::All(false) => {}
                Fate::All(true) => {
                    if w != start {
                        self.tuples.copy_within(start..end, w);
                    }
                    w += end - start;
                }
                Fate::Each => {
                    for (i, &keep) in (start..end).zip(&wave[start..end]) {
                        if keep {
                            self.tuples[w] = self.tuples[i];
                            w += 1;
                        }
                    }
                }
            }
            if w > from {
                self.segments[kept] = Segment {
                    rank,
                    start: from,
                    end: w,
                };
                kept += 1;
            }
        }
        self.tuples.truncate(w);
        self.segments.truncate(kept);
    }
}

/// What phase 1 hands to the candidate walk and the refinement.
struct Prepared {
    /// The oracle's QPF counter when the query started.
    qpf_before: u64,
    filters: Vec<[FilterResult; 2]>,
    classes: Vec<Vec<RankClass>>,
    ns_states: Vec<[Option<NsState>; 2]>,
    /// The dimension whose band the candidates come from.
    driver: usize,
    /// The fields phase 1 decides; the walk adds `oracle_batches`.
    stats: QueryStats,
}

/// Runs the MD pipeline. Abort-safe by construction: phases 1–2 and the
/// pending-split *collection* of phase 3 are fallible and read-only; splits
/// for all dimensions are committed only after every oracle evaluation of
/// the whole query has succeeded.
pub(crate) fn run<O, R>(
    dims: &mut [MdDim<O::Pred>],
    oracle: &O,
    rng: &mut R,
    policy: MdUpdatePolicy,
) -> Result<Selection, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
    R: Rng,
{
    let (mut p, band) = prepare(dims, oracle, rng)?;
    let tuples = walk(
        dims,
        oracle,
        &p.classes,
        &mut p.ns_states,
        p.driver,
        band,
        &mut p.stats.oracle_batches,
    )?;
    let splits = refine(dims, oracle, &p.filters, &p.ns_states, policy)?;
    Ok(Selection {
        tuples,
        stats: QueryStats {
            qpf_uses: oracle.qpf_uses().saturating_sub(p.qpf_before),
            k_after: dims.iter().map(|d| d.knowledge.k()).sum(),
            splits,
            ..p.stats
        },
    })
}

/// Phase 1 — QFilter every trapdoor and classify every partition (per rank:
/// O(k), never O(n)) — then the candidate band with the free pruning pass
/// applied, built segment by segment: for each driver partition not known
/// false, its live members not provably out in another dimension, in member
/// order; then the driver's overflow tuples, filtered alike.
fn prepare<O, R>(
    dims: &[MdDim<O::Pred>],
    oracle: &O,
    rng: &mut R,
) -> Result<(Prepared, Band), OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
    R: Rng,
{
    let qpf_before = oracle.qpf_uses();
    let d = dims.len();
    let mut filters: Vec<[FilterResult; 2]> = Vec::with_capacity(d);
    for dim in dims.iter() {
        let f0 = try_qfilter(dim.knowledge.pop(), oracle, &dim.preds[0], rng)?;
        let f1 = try_qfilter(dim.knowledge.pop(), oracle, &dim.preds[1], rng)?;
        filters.push([f0, f1]);
    }
    let filter_probes = oracle.qpf_uses().saturating_sub(qpf_before);
    let classes: Vec<Vec<RankClass>> = dims
        .iter()
        .zip(&filters)
        .map(|(dim, f)| rank_classes(dim.knowledge.pop().k(), f))
        .collect();

    // Cost breakdown: NS-pair width per trapdoor, label-pruned partitions.
    let ns_width: u64 = dims
        .iter()
        .zip(&filters)
        .map(|(dim, fs)| {
            fs.iter()
                .filter_map(|f| f.ns)
                .map(|(a, b)| {
                    let pop = dim.knowledge.pop();
                    let mut w = pop.members_at(a).len();
                    if b != a {
                        w += pop.members_at(b).len();
                    }
                    w as u64
                })
                .sum::<u64>()
        })
        .sum();
    let pruned_true: usize = classes
        .iter()
        .map(|cs| cs.iter().filter(|c| c.known_true()).count())
        .sum();
    let pruned_false: usize = classes
        .iter()
        .map(|cs| cs.iter().filter(|c| c.known_false()).count())
        .sum();

    let ns_states: Vec<[Option<NsState>; 2]> = filters
        .iter()
        .map(|f| [NsState::from_filter(&f[0]), NsState::from_filter(&f[1])])
        .collect();

    // The candidate region is only the *driver* dimension's non-F partitions
    // (its T ∪ NS band) plus its unplaced (overflow) tuples. Every winner
    // must lie in that band, so nothing is missed, and per-query work is
    // proportional to the band, not the table (the paper's Fig. 6b grid
    // pruning).
    let band_of = |di: usize| {
        let pop = dims[di].knowledge.pop();
        let band: usize = (0..pop.k())
            .filter(|&r| !classes[di][r].known_false())
            .map(|r| pop.members_at(r).len())
            .sum();
        band + dims[di].knowledge.overflow().len()
    };
    let driver = (0..d).min_by_key(|&di| band_of(di)).unwrap_or(0);

    // Free pass first: a tuple provably out in *any* dimension is discarded
    // before a single QPF is spent on it (Fig. 6b pruning). Every candidate
    // comes from a driver partition not known false, or is unplaced there,
    // so only the other dimensions are checked.
    let passes = |t: &TupleId| {
        oracle.is_live(*t)
            && dims.iter().enumerate().all(|(di, dim)| {
                di == driver
                    || dim
                        .knowledge
                        .pop()
                        .rank_of_tuple(*t)
                        .is_none_or(|r| !classes[di][r].known_false())
            })
    };
    let mut band = Band::default();
    band.tuples.reserve(band_of(driver));
    let pop = dims[driver].knowledge.pop();
    for (r, class) in classes[driver].iter().enumerate() {
        if !class.known_false() {
            let members = pop.members_at(r).iter().copied();
            band.push_segment(Some(r), members.filter(passes));
        }
    }
    let overflow = dims[driver].knowledge.overflow();
    band.push_segment(None, overflow.iter().map(|e| e.tuple).filter(passes));

    let prepared = Prepared {
        qpf_before,
        filters,
        classes,
        ns_states,
        driver,
        stats: QueryStats {
            k_before: dims.iter().map(|d| d.knowledge.k()).sum(),
            filter_probes,
            ns_width,
            pruned_true,
            pruned_false,
            overflow_scanned: overflow.len(),
            ..QueryStats::default()
        },
    };
    Ok((prepared, band))
}

/// Phase 2 — evaluates the band wave-major, one wave per (dimension,
/// trapdoor), each over the survivors of every earlier wave, and returns
/// the winners. This is QPF-count-identical to a tuple-major loop with
/// per-tuple short-circuit: the early-stop state of a (dim, trapdoor) pair
/// is only read and written by its own wave, in the candidate order the
/// per-tuple loop would visit.
///
/// No tuple costs an oracle round trip of its own. Outside the NS pair an
/// outcome is never inferred and never resolves the pair, so those tuples —
/// and overflow tuples — go through one batch per wave. Inside the pair,
/// consecutive survivors of the *same rank* form a run whose evaluation is
/// just as unconditional: recording rank-`r` outcomes can only resolve `r`
/// itself, and `inferred(r)` is `None` while `r` is the resolved rank, so no
/// verdict of the run can turn a later tuple of the run into an inference.
/// Each run is one batch, recorded in candidate order, and settled when the
/// rank changes — before the next rank asks `inferred`.
///
/// The driver wave is partition-major: a segment is one driver rank, so it
/// is decided whole — passed by its class, inferred, or evaluated as one
/// run straight from its slice. The other waves are tuple-major inside the
/// driver's segments, since their ranks interleave and runs are short.
fn walk<O>(
    dims: &[MdDim<O::Pred>],
    oracle: &O,
    classes: &[Vec<RankClass>],
    ns_states: &mut [[Option<NsState>; 2]],
    driver: usize,
    mut band: Band,
    oracle_batches: &mut u64,
) -> Result<Vec<TupleId>, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
{
    let mut wave: Vec<bool> = Vec::new();
    let mut fates: Vec<Fate> = Vec::new();
    let mut verdicts: Vec<bool> = Vec::new();
    let mut run = Pending::default();
    let mut rest = Pending::default();
    for (di, dim) in dims.iter().enumerate() {
        let pop = dim.knowledge.pop();
        for (j, (pred, state)) in dim.preds.iter().zip(&mut ns_states[di]).enumerate() {
            if band.tuples.is_empty() {
                break;
            }
            let mut state = state.as_mut();
            wave.clear();
            wave.resize(band.tuples.len(), true);
            fates.clear();
            if di == driver {
                for seg in &band.segments {
                    let range = seg.start..seg.end;
                    let class = seg.rank.map(|r| (r, classes[di][r]));
                    let fate = match (class, state.as_deref_mut()) {
                        (Some((_, c)), _) if c.known_true() || c.pred(j) == Some(true) => {
                            Fate::All(true)
                        }
                        (Some((r, c)), Some(st)) if st.in_pair(r) => {
                            debug_assert!(!c.known_false(), "filtered by the free pass");
                            match st.inferred(r) {
                                Some(v) => Fate::All(v),
                                None => {
                                    let ids = &band.tuples[range.clone()];
                                    *oracle_batches += 1;
                                    oracle.try_eval_batch(pred, ids, &mut verdicts)?;
                                    st.record_run(r, ids, &verdicts);
                                    wave[range].copy_from_slice(&verdicts);
                                    Fate::Each
                                }
                            }
                        }
                        _ => {
                            for i in range {
                                rest.push(band.tuples[i], i);
                            }
                            Fate::Each
                        }
                    };
                    fates.push(fate);
                }
            } else {
                let mut run_rank = usize::MAX;
                for (i, &t) in band.tuples.iter().enumerate() {
                    let rank = pop.rank_of_tuple(t);
                    if let Some(c) = rank.map(|r| classes[di][r]) {
                        debug_assert!(!c.known_false(), "filtered by the free pass");
                        if c.known_true() || c.pred(j) == Some(true) {
                            continue;
                        }
                    }
                    match (state.as_deref_mut(), rank) {
                        (Some(st), Some(r)) if st.in_pair(r) => {
                            if r != run_rank {
                                run.eval(oracle, pred, &mut wave, oracle_batches, |ids, vs| {
                                    st.record_run(run_rank, ids, vs);
                                })?;
                                run_rank = r;
                            }
                            match st.inferred(r) {
                                Some(v) => wave[i] = v,
                                None => run.push(t, i),
                            }
                        }
                        _ => rest.push(t, i),
                    }
                }
                if let Some(st) = state {
                    run.eval(oracle, pred, &mut wave, oracle_batches, |ids, vs| {
                        st.record_run(run_rank, ids, vs);
                    })?;
                }
                fates.resize(band.segments.len(), Fate::Each);
            }
            rest.eval(oracle, pred, &mut wave, oracle_batches, |_, _| {})?;
            band.retain(&fates, &wave);
        }
    }
    Ok(band.tuples)
}

/// Phase 3 — refines each dimension's POP from fully-decided partitions and
/// returns the number of splits. Pending splits are *collected* for every
/// dimension first (the only phase-3 step that can touch the oracle, under
/// CompleteSplits), and committed only once the whole query has evaluated
/// cleanly — an error in dimension i must not leave dimensions 0..i already
/// refined.
fn refine<O>(
    dims: &mut [MdDim<O::Pred>],
    oracle: &O,
    filters: &[[FilterResult; 2]],
    ns_states: &[[Option<NsState>; 2]],
    policy: MdUpdatePolicy,
) -> Result<usize, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
{
    if policy == MdUpdatePolicy::Frozen {
        return Ok(0);
    }
    let mut all_pending: Vec<Vec<PendingSplit>> = Vec::with_capacity(dims.len());
    for (di, dim) in dims.iter().enumerate() {
        all_pending.push(collect_dim_updates(
            dim,
            oracle,
            &filters[di],
            &ns_states[di],
            policy,
        )?);
    }
    // ---- Commit phase: infallible, no oracle calls past this point. ----
    Ok(dims
        .iter_mut()
        .zip(all_pending)
        .map(|(dim, pending)| commit_dim_updates(dim, pending))
        .sum())
}

/// A staged split: (rank, left, right, left_label, pred_idx).
type PendingSplit = (usize, Vec<TupleId>, Vec<TupleId>, bool, usize);

/// Partitions `members` into (true half, false half), both in member
/// order, by the verdicts `side` tested; `untested` decides each member the
/// walk did not test.
fn member_verdicts(
    members: &[TupleId],
    side: &NsSide,
    mut untested: impl FnMut(TupleId) -> Result<bool, OracleError>,
) -> Result<(Vec<TupleId>, Vec<TupleId>), OracleError> {
    let mut true_half = Vec::with_capacity(side.trues);
    let mut false_half = Vec::with_capacity(members.len().saturating_sub(side.trues));
    // The driver dimension tests a whole partition in member order.
    if side.tested == members {
        for (&t, &v) in members.iter().zip(&side.verdicts) {
            if v {
                true_half.push(t);
            } else {
                false_half.push(t);
            }
        }
        return Ok((true_half, false_half));
    }
    let mut by_tuple: Vec<(TupleId, bool)> = side
        .tested
        .iter()
        .copied()
        .zip(side.verdicts.iter().copied())
        .collect();
    by_tuple.sort_unstable_by_key(|e| e.0);
    for &t in members {
        let out = match by_tuple.binary_search_by_key(&t, |e| e.0) {
            Ok(i) => by_tuple[i].1,
            Err(_) => untested(t)?,
        };
        if out {
            true_half.push(t);
        } else {
            false_half.push(t);
        }
    }
    Ok((true_half, false_half))
}

/// Gathers the sound refinements for one dimension without mutating it.
/// Under [`MdUpdatePolicy::CompleteSplits`] this may spend QPF uses to
/// finish partially-decided partitions — the only fallible step of phase 3.
fn collect_dim_updates<O>(
    dim: &MdDim<O::Pred>,
    oracle: &O,
    filters: &[FilterResult; 2],
    ns_states: &[Option<NsState>; 2],
    policy: MdUpdatePolicy,
) -> Result<Vec<PendingSplit>, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
{
    let mut pending: Vec<PendingSplit> = Vec::new();

    for j in 0..2 {
        let Some(st) = &ns_states[j] else { continue };
        let filter = &filters[j];
        for side in st.sides() {
            if !side.mixed() {
                continue; // homogeneous so far: nothing to refine
            }
            let r = side.rank;
            let members = dim.knowledge.pop().members_at(r);
            if side.tested.len() < members.len() && policy != MdUpdatePolicy::CompleteSplits {
                continue; // partial knowledge: a split would be unsound
            }
            // Ablation mode: pay the missing QPF to finish the split.
            let (true_half, false_half) =
                member_verdicts(members, side, |t| oracle.try_eval(&dim.preds[j], t))?;
            // Neighbour labels for the ordering rule. This rank is mixed, so
            // it *is* the separating partition — the pair partner is
            // homogeneous with its sampled label (Lemma 4.5).
            let other = st.sides().find(|s| s.rank != r).unwrap_or(side);
            let label_of = |q: usize| {
                if q == other.rank {
                    Some(other.label)
                } else {
                    filter.known_label(q)
                }
            };
            let (left, right, left_label) =
                order_halves(dim.knowledge.k(), r, true_half, false_half, label_of);
            pending.push((r, left, right, left_label, j));
        }
    }
    Ok(pending)
}

/// Commits the staged splits for one dimension. Returns the split count.
/// Infallible: never touches the oracle.
fn commit_dim_updates<P: SpPredicate>(dim: &mut MdDim<P>, mut pending: Vec<PendingSplit>) -> usize {
    // Apply descending by rank so earlier splits do not shift later ones;
    // if both trapdoors split the same partition, keep the first only
    // (re-deriving the second against the new sub-partitions is future
    // work the paper does not require).
    pending.sort_by_key(|e| std::cmp::Reverse(e.0));
    pending.dedup_by_key(|e| e.0);
    let n = pending.len();
    for (rank, left, right, left_label, j) in pending {
        let sep = Separator::Cmp {
            pred: dim.preds[j].clone(),
            left_label,
        };
        dim.knowledge.apply_split(rank, left, right, Some(sep));
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::Knowledge;
    use crate::sd::try_process_comparison;
    use crate::snapshot;
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate, PredicateKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// The tuple-major NS-pair loop that `walk` replaced, kept as its
    /// reference: every NS-pair survivor goes through the early-stop state
    /// on its own, paying its own `try_eval`. It counts the batches the run
    /// rule implies: one per maximal stretch of same-rank pair survivors
    /// that evaluates anything, plus one per wave for the rest.
    fn walk_reference<O>(
        dims: &[MdDim<O::Pred>],
        oracle: &O,
        classes: &[Vec<RankClass>],
        ns_states: &mut [[Option<NsState>; 2]],
        mut survivors: Vec<TupleId>,
        oracle_batches: &mut u64,
    ) -> Result<Vec<TupleId>, OracleError>
    where
        O: SelectionOracle,
        O::Pred: SpPredicate,
    {
        let mut wave: Vec<bool> = Vec::new();
        let mut batch: Vec<TupleId> = Vec::new();
        let mut batch_at: Vec<usize> = Vec::new();
        let mut verdicts: Vec<bool> = Vec::new();
        for (di, dim) in dims.iter().enumerate() {
            let pop = dim.knowledge.pop();
            for (j, (pred, state)) in dim.preds.iter().zip(&mut ns_states[di]).enumerate() {
                if survivors.is_empty() {
                    break;
                }
                wave.clear();
                wave.resize(survivors.len(), true);
                batch.clear();
                batch_at.clear();
                let (mut run_rank, mut run_counted) = (usize::MAX, false);
                for (i, &t) in survivors.iter().enumerate() {
                    let rank = pop.rank_of_tuple(t);
                    if let Some(c) = rank.map(|r| classes[di][r]) {
                        if c.known_true() || c.pred(j) == Some(true) {
                            continue;
                        }
                    }
                    match (state.as_mut(), rank) {
                        (Some(st), Some(r)) if st.in_pair(r) => {
                            if r != run_rank {
                                (run_rank, run_counted) = (r, false);
                            }
                            wave[i] = if let Some(v) = st.inferred(r) {
                                v
                            } else {
                                let v = oracle.try_eval(pred, t)?;
                                st.record_run(r, &[t], &[v]);
                                *oracle_batches += u64::from(!run_counted);
                                run_counted = true;
                                v
                            };
                        }
                        _ => {
                            batch.push(t);
                            batch_at.push(i);
                        }
                    }
                }
                if !batch.is_empty() {
                    *oracle_batches += 1;
                    oracle.try_eval_batch(pred, &batch, &mut verdicts)?;
                    for (&i, &v) in batch_at.iter().zip(&verdicts) {
                        wave[i] = v;
                    }
                }
                let mut keep = wave.iter().copied();
                survivors.retain(|_| keep.next().expect("one verdict per survivor"));
            }
        }
        Ok(survivors)
    }

    /// `run` with the reference walk in place of `walk`.
    fn run_reference(
        dims: &mut [MdDim<Predicate>],
        oracle: &impl SelectionOracle<Pred = Predicate>,
        rng: &mut StdRng,
        policy: MdUpdatePolicy,
    ) -> Result<Selection, OracleError> {
        let (mut p, band) = prepare(dims, oracle, rng)?;
        let tuples = walk_reference(
            dims,
            oracle,
            &p.classes,
            &mut p.ns_states,
            band.tuples,
            &mut p.stats.oracle_batches,
        )?;
        let splits = refine(dims, oracle, &p.filters, &p.ns_states, policy)?;
        Ok(Selection {
            tuples,
            stats: QueryStats {
                qpf_uses: oracle.qpf_uses().saturating_sub(p.qpf_before),
                k_after: dims.iter().map(|d| d.knowledge.k()).sum(),
                splits,
                ..p.stats
            },
        })
    }

    /// Counts how evaluations arrive: one at a time, or in batches, and
    /// keeps every batch's tuples in call order.
    struct Counting<'a> {
        inner: &'a PlainOracle,
        singles: AtomicU64,
        batches: AtomicU64,
        log: Mutex<Vec<Vec<TupleId>>>,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a PlainOracle) -> Self {
            Counting {
                inner,
                singles: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
            }
        }
    }

    impl SelectionOracle for Counting<'_> {
        type Pred = Predicate;

        fn try_eval(&self, pred: &Predicate, t: TupleId) -> Result<bool, OracleError> {
            self.singles.fetch_add(1, Ordering::Relaxed);
            self.inner.try_eval(pred, t)
        }

        fn try_eval_batch(
            &self,
            pred: &Predicate,
            tuples: &[TupleId],
            out: &mut Vec<bool>,
        ) -> Result<(), OracleError> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.log.lock().unwrap().push(tuples.to_vec());
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

    const DOMAIN: u64 = 200;

    /// One knowledge base per entry of `cuts` over `n` random rows, each
    /// warmed with its entry's comparison cuts (0 leaves k = 1, so a == b),
    /// then disturbed the ways a served table is: a row deleted everywhere,
    /// a row tombstoned in the table but still indexed, and two late rows —
    /// one parked (overflow) in dimension 0 and placed elsewhere, one
    /// parked in every dimension.
    fn scenario(n: usize, cuts: &[usize], seed: u64) -> (Vec<Knowledge<Predicate>>, PlainOracle) {
        let d = cuts.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<u64>> = (0..d)
            .map(|_| (0..n).map(|_| rng.gen_range(0..DOMAIN)).collect())
            .collect();
        let mut oracle = PlainOracle::from_columns(columns);
        let mut kbs: Vec<Knowledge<Predicate>> = (0..d).map(|_| Knowledge::init(n)).collect();
        for (a, kb) in kbs.iter_mut().enumerate() {
            for _ in 0..cuts[a] {
                let p = Predicate::cmp(a as u32, ComparisonOp::Lt, rng.gen_range(0..DOMAIN));
                try_process_comparison(kb, &oracle, &p, &mut rng, true).unwrap();
            }
        }
        let gone = rng.gen_range(0..n as TupleId);
        oracle.delete(gone);
        for kb in &mut kbs {
            kb.delete(gone);
        }
        oracle.delete(rng.gen_range(0..n as TupleId));
        for placed_elsewhere in [true, false] {
            let row: Vec<u64> = (0..d).map(|_| rng.gen_range(0..DOMAIN)).collect();
            let t = oracle.insert(&row);
            for (a, kb) in kbs.iter_mut().enumerate() {
                if a > 0 && placed_elsewhere {
                    crate::insert::try_insert_tuple(kb, &oracle, t).unwrap();
                } else {
                    kb.park(t, 0, kb.k() - 1);
                }
            }
        }
        (kbs, oracle)
    }

    fn to_dims(kbs: Vec<Knowledge<Predicate>>, ranges: &[(u64, u64)]) -> Vec<MdDim<Predicate>> {
        kbs.into_iter()
            .zip(ranges)
            .enumerate()
            .map(|(a, (knowledge, &(lo, hi)))| MdDim {
                knowledge,
                preds: [
                    Predicate::cmp(a as u32, ComparisonOp::Gt, lo),
                    Predicate::cmp(a as u32, ComparisonOp::Lt, hi),
                ],
            })
            .collect()
    }

    fn kb_bytes(dims: &[MdDim<Predicate>]) -> Vec<Vec<u8>> {
        dims.iter().map(|d| snapshot::save(&d.knowledge)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The segment walk is the tuple-major walk: same winners in the
        /// same order, same QPF count, same stats (the run rule's batch
        /// count included), same splits, byte-identical knowledge — query
        /// after query, as the KB grows from k = 1. With `cold_first`,
        /// dimension 0 stays at k = 1 under a wide range, so the warmed
        /// dimension 1 drives and dimension 0's wave is the tuple-major one.
        #[test]
        fn run_batched_walk_matches_tuple_major_reference(
            seed in proptest::prelude::any::<u64>(),
            n in 40usize..2_000,
            d in 1usize..3,
            cuts in 0usize..6,
            cold_first in proptest::prelude::any::<bool>(),
            complete in proptest::prelude::any::<bool>(),
        ) {
            let policy = if complete {
                MdUpdatePolicy::CompleteSplits
            } else {
                MdUpdatePolicy::PartialOnly
            };
            let cold_first = cold_first && d == 2;
            let cuts: Vec<usize> = (0..d)
                .map(|a| if cold_first { [0, cuts + 2][a] } else { cuts })
                .collect();
            let (mut kbs_new, oracle_new) = scenario(n, &cuts, seed);
            let (mut kbs_ref, oracle_ref) = scenario(n, &cuts, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1);
            for q in 0..5u64 {
                // Every third query is wide in all dimensions, so that a
                // non-driver NS partition can lie wholly inside the band
                // (fully tested, but not in member order).
                let wide = q % 3 == 2;
                let ranges: Vec<(u64, u64)> = (0..d)
                    .map(|a| {
                        if wide || (cold_first && a == 0) {
                            let margin = DOMAIN / 8;
                            (rng.gen_range(0..margin), DOMAIN - rng.gen_range(0..margin))
                        } else {
                            let lo = rng.gen_range(0..DOMAIN);
                            (lo, lo + rng.gen_range(2..DOMAIN / 2))
                        }
                    })
                    .collect();
                let mut dims_new = to_dims(kbs_new, &ranges);
                let mut dims_ref = to_dims(kbs_ref, &ranges);
                let mut rng_new = StdRng::seed_from_u64(seed ^ q);
                let mut rng_ref = StdRng::seed_from_u64(seed ^ q);
                let new = run(&mut dims_new, &oracle_new, &mut rng_new, policy).expect("clean");
                let reference =
                    run_reference(&mut dims_ref, &oracle_ref, &mut rng_ref, policy).expect("clean");
                proptest::prop_assert_eq!(&new.tuples, &reference.tuples, "winners, query {}", q);
                proptest::prop_assert_eq!(new.stats, reference.stats, "stats, query {}", q);
                proptest::prop_assert_eq!(oracle_new.qpf_uses(), oracle_ref.qpf_uses());
                proptest::prop_assert_eq!(kb_bytes(&dims_new), kb_bytes(&dims_ref), "KB, query {}", q);
                let expected: Vec<Predicate> =
                    dims_new.iter().flat_map(|d| d.preds).collect();
                proptest::prop_assert_eq!(new.sorted(), oracle_new.expected_conjunction(&expected));
                kbs_new = dims_new.into_iter().map(|d| d.knowledge).collect();
                kbs_ref = dims_ref.into_iter().map(|d| d.knowledge).collect();
                for kb in &kbs_new {
                    kb.check_invariants();
                }
            }
        }

        /// `member_verdicts` is a by-tuple lookup, whatever order the
        /// verdicts were tested in, however the runs were cut and however
        /// many are missing; a missing one is asked of `untested`, in
        /// member order.
        #[test]
        fn member_verdicts_is_a_lookup(
            members in proptest::collection::vec(0u32..500, 0..60),
            seed in proptest::prelude::any::<u64>(),
            shuffle in proptest::prelude::any::<bool>(),
            partial in proptest::prelude::any::<bool>(),
        ) {
            let mut members = members;
            members.sort_unstable();
            members.dedup();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tested: Vec<(TupleId, bool)> = Vec::new();
            for &t in &members {
                if !partial || rng.gen_range(0..4) > 0 {
                    tested.push((t, rng.gen_range(0..2) == 1));
                }
            }
            if shuffle {
                for i in (1..tested.len()).rev() {
                    tested.swap(i, rng.gen_range(0..=i));
                }
            }
            let mut side = NsSide::new(0, false);
            let (ids, verdicts): (Vec<TupleId>, Vec<bool>) = tested.iter().copied().unzip();
            let mut at = 0;
            while at < ids.len() {
                let end = rng.gen_range(at + 1..=ids.len());
                side.extend(&ids[at..end], &verdicts[at..end]);
                at = end;
            }
            let map: HashMap<TupleId, bool> = tested.iter().copied().collect();
            let mut asked = Vec::new();
            let halves = member_verdicts(&members, &side, |t| {
                asked.push(t);
                Ok(t % 3 == 0)
            })
            .expect("untested never fails");
            let (mut true_half, mut false_half) = (Vec::new(), Vec::new());
            for &t in &members {
                if map.get(&t).copied().unwrap_or(t % 3 == 0) {
                    true_half.push(t);
                } else {
                    false_half.push(t);
                }
            }
            proptest::prop_assert_eq!(halves, (true_half, false_half));
            let missing: Vec<TupleId> =
                members.iter().copied().filter(|t| !map.contains_key(t)).collect();
            proptest::prop_assert_eq!(asked, missing);
        }
    }

    #[test]
    fn cold_one_dimensional_range_is_one_batch_per_trapdoor() {
        let n = 500usize;
        let oracle = PlainOracle::single_column((0..n as u64).collect());
        let counting = Counting::new(&oracle);
        let mut dims = to_dims(vec![Knowledge::init(n)], &[(99, 300)]);
        let mut rng = StdRng::seed_from_u64(1);
        let sel = run(&mut dims, &counting, &mut rng, MdUpdatePolicy::PartialOnly).expect("clean");
        assert_eq!(sel.sorted(), (100..300).collect::<Vec<_>>());
        // k = 1: no probes; wave 0 tests all n, wave 1 its 400 survivors.
        assert_eq!(sel.stats.qpf_uses, 500 + 400);
        assert_eq!(sel.stats.oracle_batches, 2);
        assert_eq!(counting.batches.load(Ordering::Relaxed), 2);
        assert_eq!(counting.singles.load(Ordering::Relaxed), 0);
        assert_eq!(sel.stats.splits, 1, "only wave 0 decided every member");
    }

    /// On the driver dimension every NS batch is one pair partition's live
    /// members, whole and in member order — a member tombstoned in the
    /// table but still indexed is left out — each partition once, and the
    /// band's overflow tuple goes through each wave's rest batch.
    #[test]
    fn driver_ns_batches_are_whole_partitions_in_member_order() {
        let n = 600usize;
        let mut rng = StdRng::seed_from_u64(21);
        // Shuffled values, so member order is not value order.
        let mut values: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        let mut oracle = PlainOracle::single_column(values.clone());
        let mut kb = Knowledge::init(n);
        for cut in [100, 200, 300, 400, 500] {
            let p = Predicate::cmp(0, ComparisonOp::Lt, cut);
            try_process_comparison(&mut kb, &oracle, &p, &mut rng, true).unwrap();
        }
        // Range (150, 350): each cut falls inside a partition of 100 values.
        let dead = values.iter().position(|&v| v == 170).unwrap() as TupleId;
        oracle.delete(dead);
        let late = oracle.insert(&[250]);
        kb.park(late, 0, kb.k() - 1);
        let pop = kb.pop().clone();
        let live = |r: usize| -> Vec<TupleId> {
            let members = pop.members_at(r).iter().copied();
            members.filter(|&t| oracle.is_live(t)).collect()
        };
        let holding = |v: u64| {
            let t = values.iter().position(|&x| x == v).unwrap() as TupleId;
            pop.rank_of_tuple(t).unwrap()
        };

        let counting = Counting::new(&oracle);
        let mut dims = to_dims(vec![kb], &[(150, 350)]);
        let mut rng = StdRng::seed_from_u64(22);
        let sel = run(&mut dims, &counting, &mut rng, MdUpdatePolicy::PartialOnly).expect("clean");
        let expected: Vec<Predicate> = dims[0].preds.to_vec();
        assert_eq!(sel.sorted(), oracle.expected_conjunction(&expected));

        let log = counting.log.into_inner().unwrap();
        assert_eq!(log.len() as u64, sel.stats.oracle_batches);
        let (rest, ns): (Vec<_>, Vec<_>) = log.into_iter().partition(|b| *b == [late]);
        assert_eq!(rest.len(), 2, "the overflow tuple survives wave 0");
        let mut ranks: Vec<usize> = ns
            .iter()
            .map(|b| {
                let r = pop.rank_of_tuple(b[0]).expect("placed");
                assert_eq!(*b, live(r), "rank {r}: its live members in member order");
                r
            })
            .collect();
        assert!(ranks.contains(&holding(170)), "the cut partition is tested");
        assert!(ranks.contains(&holding(320)), "the cut partition is tested");
        let batches = ranks.len();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), batches, "one batch per NS partition");
    }

    /// A warmed dimension 1 drives a 2-D range when dimension 0 is cold,
    /// and the walk still equals the tuple-major reference.
    #[test]
    fn a_second_dimension_drives_when_its_band_is_narrower() {
        let ranges = [(5, 195), (60, 90)];
        let (kbs, oracle) = scenario(600, &[0, 6], 23);
        let dims = to_dims(kbs.clone(), &ranges);
        let (p, band) = prepare(&dims, &oracle, &mut StdRng::seed_from_u64(24)).unwrap();
        assert_eq!(p.driver, 1);
        assert!(band.segments.len() > 1, "{:?}", band.segments);

        let (mut new, mut reference) = (to_dims(kbs.clone(), &ranges), to_dims(kbs, &ranges));
        let (policy, rng) = (MdUpdatePolicy::PartialOnly, || StdRng::seed_from_u64(24));
        let a = run(&mut new, &oracle, &mut rng(), policy).unwrap();
        let b = run_reference(&mut reference, &oracle, &mut rng(), policy).unwrap();
        assert_eq!((&a.tuples, a.stats), (&b.tuples, b.stats));
        assert_eq!(kb_bytes(&new), kb_bytes(&reference));
    }

    #[test]
    fn single_evaluations_are_qfilter_probes_only() {
        for policy in [MdUpdatePolicy::PartialOnly, MdUpdatePolicy::Frozen] {
            let (kbs, oracle) = scenario(400, &[8, 8], 5);
            let counting = Counting::new(&oracle);
            let mut dims = to_dims(kbs, &[(40, 120), (60, 150)]);
            let mut rng = StdRng::seed_from_u64(6);
            let sel = run(&mut dims, &counting, &mut rng, policy).expect("clean");
            assert!(sel.stats.filter_probes > 0, "warmed KBs are probed");
            assert_eq!(
                counting.singles.load(Ordering::Relaxed),
                sel.stats.filter_probes,
                "the walk must not evaluate tuple by tuple"
            );
            assert_eq!(
                counting.batches.load(Ordering::Relaxed),
                sel.stats.oracle_batches
            );
        }
    }
}
