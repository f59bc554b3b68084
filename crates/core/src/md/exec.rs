//! The PRKB(MD) executor (paper §6.2), which also runs every comparison
//! trapdoor as a dimension with one trapdoor (§5).

use super::zones::{rank_classes, RankClass};
use super::{MdDim, MdUpdatePolicy};
use crate::knowledge::Separator;
use crate::pop::Pop;
use crate::qfilter::{try_qfilter, FilterResult};
use crate::selection::{QueryStats, Selection};
use crate::traits::SpPredicate;
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

/// One trapdoor of a dimension: its QFilter outcome, the early-stop state of
/// its NS pair (`None` for an empty POP), and its wave's verdicts on the
/// candidates outside that pair — the dimension's overflow tuples the wave
/// reached — which a fresh split of this trapdoor refines.
struct Trapdoor {
    filter: FilterResult,
    ns: Option<NsState>,
    overflow: Vec<(TupleId, bool)>,
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

/// A run of the band, in driver order.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// The survivors `tuples[start..end]` of one driver partition (`rank`),
    /// or of the driver's overflow (`rank: None`).
    Held {
        rank: Option<usize>,
        start: usize,
        end: usize,
    },
    /// Driver partitions `first..end`, whole: each passes every trapdoor
    /// and no other dimension can exclude a member (d = 1), so they stay in
    /// the POP and are copied once, into the answer.
    InPlace { first: usize, end: usize },
}

/// What one wave decided for a segment's survivors.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Every survivor of the segment has this verdict.
    All(bool),
    /// Each survivor's verdict sits at its position in the wave.
    Each,
}

/// The candidates still in the running, in driver order, as segments: the
/// surviving members of each driver partition not known false, in rank
/// order and member order, then the driver's surviving overflow tuples. No
/// segment is empty.
#[derive(Default)]
struct Band {
    tuples: Vec<TupleId>,
    segments: Vec<Segment>,
}

impl Band {
    /// Appends what `fill` pushes as one segment (nothing when it is empty).
    fn push_segment(&mut self, rank: Option<usize>, fill: impl FnOnce(&mut Vec<TupleId>)) {
        let start = self.tuples.len();
        fill(&mut self.tuples);
        let end = self.tuples.len();
        if end > start {
            self.segments.push(Segment::Held { rank, start, end });
        }
    }

    /// Appends the driver partition at `rank` in place, extending the last
    /// segment when it is the in-place run just before.
    fn push_in_place(&mut self, rank: usize) {
        match self.segments.last_mut() {
            Some(Segment::InPlace { end, .. }) if *end == rank => *end += 1,
            _ => self.segments.push(Segment::InPlace {
                first: rank,
                end: rank + 1,
            }),
        }
    }

    /// The survivors in band order, in-place partitions read from `pop`.
    fn into_tuples(self, pop: &Pop) -> Vec<TupleId> {
        let in_place = |seg: &Segment| matches!(seg, Segment::InPlace { .. });
        if !self.segments.iter().any(in_place) {
            return self.tuples;
        }
        let mut out = Vec::with_capacity(self.tuples.len());
        for seg in &self.segments {
            match *seg {
                Segment::Held { start, end, .. } => out.extend_from_slice(&self.tuples[start..end]),
                Segment::InPlace { first, end } => {
                    for r in first..end {
                        out.extend_from_slice(pop.members_at(r));
                    }
                }
            }
        }
        out
    }

    /// Keeps the survivors whose verdict is true, segments and tuples in one
    /// pass, dropping the segments left empty.
    fn retain(&mut self, fates: &[Fate], wave: &[bool]) {
        let (mut w, mut kept) = (0, 0);
        for (s, &fate) in fates.iter().enumerate() {
            let Segment::Held { rank, start, end } = self.segments[s] else {
                debug_assert!(fate == Fate::All(true), "it passes every trapdoor");
                self.segments[kept] = self.segments[s];
                kept += 1;
                continue;
            };
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
                self.segments[kept] = Segment::Held {
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
    /// Per dimension, its trapdoors in order.
    trapdoors: Vec<Vec<Trapdoor>>,
    classes: Vec<Vec<RankClass>>,
    /// The dimension whose band the candidates come from.
    driver: usize,
    /// The fields phase 1 decides; the walk adds `oracle_batches`.
    stats: QueryStats,
}

/// Runs the MD pipeline over `dims` and returns the tuples every trapdoor
/// selects, in band order: the driver's partitions in rank order, each in
/// member order, then its overflow tuples. With `refine` set, the query
/// refines the knowledge under that policy; `None` leaves it static.
///
/// Abort-safe by construction: phases 1–2 and the pending-split
/// *collection* of phase 3 are fallible and read-only; splits for all
/// dimensions are committed only after every oracle evaluation of the whole
/// query has succeeded.
pub(crate) fn run<O, R>(
    dims: &mut [MdDim<'_, O::Pred>],
    oracle: &O,
    rng: &mut R,
    refine_with: Option<MdUpdatePolicy>,
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
        &mut p.trapdoors,
        p.driver,
        band,
        &mut p.stats.oracle_batches,
    )?;
    let splits = match refine_with {
        Some(policy) => refine(dims, oracle, &mut p.trapdoors, policy)?,
        None => 0,
    };
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
/// false, its members not provably out in another dimension, in member
/// order; then the driver's overflow tuples, filtered alike. The knowledge
/// base is the authority on which tuples exist (see `PrkbEngine::delete`),
/// so with no other dimension (d = 1) a partition joins as one slice copy.
fn prepare<O, R>(
    dims: &[MdDim<'_, O::Pred>],
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
    let mut trapdoors: Vec<Vec<Trapdoor>> = Vec::with_capacity(d);
    for dim in dims.iter() {
        let mut of_dim = Vec::with_capacity(dim.preds.len());
        for pred in dim.preds {
            let filter = try_qfilter(dim.knowledge.pop(), oracle, pred, rng)?;
            let ns = NsState::from_filter(&filter);
            of_dim.push(Trapdoor {
                filter,
                ns,
                overflow: Vec::new(),
            });
        }
        trapdoors.push(of_dim);
    }
    let filter_probes = oracle.qpf_uses().saturating_sub(qpf_before);

    // Classify every rank, and with the same pass take the cost breakdown
    // (label-pruned partitions) and — to pick the driver, when there is a
    // choice — each dimension's band size: its non-F partitions (T ∪ NS)
    // plus its unplaced (overflow) tuples. The candidate region is only the
    // *driver* dimension's band. Every winner must lie in it, so nothing is
    // missed, and per-query work is proportional to the band, not the table
    // (the paper's Fig. 6b grid pruning).
    let mut classes: Vec<Vec<RankClass>> = Vec::with_capacity(d);
    let mut bands: Vec<usize> = Vec::with_capacity(d);
    let (mut pruned_true, mut pruned_false, mut ns_width) = (0, 0, 0);
    for (dim, tds) in dims.iter().zip(&trapdoors) {
        let pop = dim.knowledge.pop();
        let filters: Vec<&FilterResult> = tds.iter().map(|td| &td.filter).collect();
        let of_dim = rank_classes(pop.k(), &filters);
        let mut band = dim.knowledge.overflow().len();
        for (r, class) in of_dim.iter().enumerate() {
            if class.known_false() {
                pruned_false += 1;
            } else {
                pruned_true += usize::from(class.known_true());
                if d > 1 {
                    band += pop.members_at(r).len();
                }
            }
        }
        for (a, b) in tds.iter().filter_map(|td| td.filter.ns) {
            ns_width += pop.members_at(a).len() as u64;
            if b != a {
                ns_width += pop.members_at(b).len() as u64;
            }
        }
        classes.push(of_dim);
        bands.push(band);
    }
    let driver = (0..d).min_by_key(|&di| bands[di]).unwrap_or(0);

    // Free pass first: a tuple provably out in *any* dimension is discarded
    // before a single QPF is spent on it (Fig. 6b pruning). Every candidate
    // comes from a driver partition not known false, or is unplaced there,
    // so only the other dimensions are checked — and with none, nothing is.
    let passes = |t: &TupleId| {
        dims.iter().enumerate().all(|(di, dim)| {
            di == driver
                || dim
                    .knowledge
                    .pop()
                    .rank_of_tuple(*t)
                    .is_none_or(|r| !classes[di][r].known_false())
        })
    };
    let mut band = Band::default();
    if d > 1 {
        band.tuples.reserve(bands[driver]);
    }
    let pop = dims[driver].knowledge.pop();
    for (r, class) in classes[driver].iter().enumerate() {
        if class.known_false() {
            continue;
        }
        if d == 1 && class.known_true() {
            band.push_in_place(r);
            continue;
        }
        let members = pop.members_at(r);
        band.push_segment(Some(r), |out| {
            if d == 1 {
                out.extend_from_slice(members);
            } else {
                out.extend(members.iter().copied().filter(passes));
            }
        });
    }
    let overflow = dims[driver].knowledge.overflow();
    band.push_segment(None, |out| {
        out.extend(overflow.iter().map(|e| e.tuple).filter(passes));
    });

    let prepared = Prepared {
        qpf_before,
        trapdoors,
        classes,
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
/// the winners; each trapdoor keeps its verdicts on the overflow tuples its
/// wave reached. This is QPF-count-identical to a tuple-major loop with
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
    dims: &[MdDim<'_, O::Pred>],
    oracle: &O,
    classes: &[Vec<RankClass>],
    trapdoors: &mut [Vec<Trapdoor>],
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
        for (j, (pred, td)) in dim.preds.iter().zip(&mut trapdoors[di]).enumerate() {
            if band.tuples.is_empty() {
                break;
            }
            let mut state = td.ns.as_mut();
            wave.clear();
            wave.resize(band.tuples.len(), true);
            fates.clear();
            if di == driver {
                for seg in &band.segments {
                    let Segment::Held { rank, start, end } = *seg else {
                        fates.push(Fate::All(true));
                        continue;
                    };
                    let range = start..end;
                    let class = rank.map(|r| (r, classes[di][r]));
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
            rest.eval(oracle, pred, &mut wave, oracle_batches, |ids, vs| {
                td.overflow
                    .extend(ids.iter().copied().zip(vs.iter().copied()));
            })?;
            band.retain(&fates, &wave);
        }
    }
    Ok(band.into_tuples(dims[driver].knowledge.pop()))
}

/// Phase 3 — refines each dimension's POP from fully-decided partitions and
/// returns the number of splits. Pending splits are *collected* for every
/// dimension first (the only phase-3 step that can touch the oracle, under
/// CompleteSplits), and committed only once the whole query has evaluated
/// cleanly — an error in dimension i must not leave dimensions 0..i already
/// refined.
fn refine<O>(
    dims: &mut [MdDim<'_, O::Pred>],
    oracle: &O,
    trapdoors: &mut [Vec<Trapdoor>],
    policy: MdUpdatePolicy,
) -> Result<usize, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
{
    let mut all_pending: Vec<Vec<PendingSplit>> = Vec::with_capacity(dims.len());
    for (dim, tds) in dims.iter().zip(trapdoors.iter()) {
        all_pending.push(collect_dim_updates(dim, oracle, tds, policy)?);
    }
    // ---- Commit phase: infallible, no oracle calls past this point. ----
    Ok(dims
        .iter_mut()
        .zip(trapdoors)
        .zip(all_pending)
        .map(|((dim, tds), pending)| commit_dim_updates(dim, tds, pending))
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
    dim: &MdDim<'_, O::Pred>,
    oracle: &O,
    trapdoors: &[Trapdoor],
    policy: MdUpdatePolicy,
) -> Result<Vec<PendingSplit>, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
{
    let mut pending: Vec<PendingSplit> = Vec::new();

    for (j, td) in trapdoors.iter().enumerate() {
        let Some(st) = &td.ns else { continue };
        let filter = &td.filter;
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
///
/// Each split is a fresh separator — only a trapdoor inequivalent to every
/// retained one finds a mixed partition — so right after it commits, the
/// verdicts its trapdoor's wave gave the overflow tuples narrow their
/// intervals (§7.1); a tuple the wave did not reach is left as it is.
/// Equivalent trapdoors never get here (DESIGN §7's gap rule).
fn commit_dim_updates<P: SpPredicate>(
    dim: &mut MdDim<'_, P>,
    trapdoors: &mut [Trapdoor],
    mut pending: Vec<PendingSplit>,
) -> usize {
    // Apply descending by rank so earlier splits do not shift later ones;
    // if both trapdoors split the same partition, keep the first only
    // (re-deriving the second against the new sub-partitions is future
    // work the paper does not require).
    pending.sort_by_key(|e| std::cmp::Reverse(e.0));
    pending.dedup_by_key(|e| e.0);
    let n = pending.len();
    for td in trapdoors.iter_mut() {
        td.overflow.sort_unstable_by_key(|e| e.0);
    }
    for (rank, left, right, left_label, j) in pending {
        let sep = Separator::Cmp {
            pred: dim.preds[j].clone(),
            left_label,
        };
        dim.knowledge.apply_split(rank, left, right, Some(sep));
        let verdicts = &trapdoors[j].overflow;
        dim.knowledge.refine_overflow(rank, left_label, |t| {
            let at = verdicts.binary_search_by_key(&t, |e| e.0).ok()?;
            Some(verdicts[at].1)
        });
    }
    n
}

/// Orders `(true_half, false_half)` of a split at `rank` in a POP with `k`
/// partitions (paper §5.3): the half whose QPF label equals a known-labelled
/// neighbour's is placed adjacent to it — the left neighbour first, then the
/// right. The very first split of a 1-partition POP is unconstrained and
/// ordered false-first. `label_of` reports a neighbouring rank's label when
/// this query established it. Returns `(left, right, left_label)`.
pub(super) fn order_halves(
    k: usize,
    rank: usize,
    true_half: Vec<TupleId>,
    false_half: Vec<TupleId>,
    label_of: impl Fn(usize) -> Option<bool>,
) -> (Vec<TupleId>, Vec<TupleId>, bool) {
    let left_neighbor = if rank > 0 { label_of(rank - 1) } else { None };
    let right_neighbor = if rank + 1 < k {
        label_of(rank + 1)
    } else {
        None
    };
    let true_first = left_neighbor
        .or(right_neighbor.map(|r| !r))
        .unwrap_or(false);
    if true_first {
        (true_half, false_half, true)
    } else {
        (false_half, true_half, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::Knowledge;
    use crate::md::select_comparison;
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
        dims: &[MdDim<'_, O::Pred>],
        oracle: &O,
        classes: &[Vec<RankClass>],
        trapdoors: &mut [Vec<Trapdoor>],
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
            for (j, (pred, td)) in dim.preds.iter().zip(&mut trapdoors[di]).enumerate() {
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
                    match (td.ns.as_mut(), rank) {
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
                    td.overflow
                        .extend(batch.iter().copied().zip(verdicts.iter().copied()));
                }
                let mut keep = wave.iter().copied();
                survivors.retain(|_| keep.next().expect("one verdict per survivor"));
            }
        }
        Ok(survivors)
    }

    /// `run` with the reference walk in place of `walk`.
    fn run_reference(
        dims: &mut [MdDim<'_, Predicate>],
        oracle: &impl SelectionOracle<Pred = Predicate>,
        rng: &mut StdRng,
        refine_with: Option<MdUpdatePolicy>,
    ) -> Result<Selection, OracleError> {
        let (mut p, band) = prepare(dims, oracle, rng)?;
        let survivors = band.into_tuples(dims[p.driver].knowledge.pop());
        let tuples = walk_reference(
            dims,
            oracle,
            &p.classes,
            &mut p.trapdoors,
            survivors,
            &mut p.stats.oracle_batches,
        )?;
        let splits = match refine_with {
            Some(policy) => refine(dims, oracle, &mut p.trapdoors, policy)?,
            None => 0,
        };
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
    /// then disturbed the ways a table can be: a row deleted everywhere,
    /// a row tombstoned in the table but still indexed (which the knowledge
    /// base, the authority, still answers for), and two late rows — one
    /// parked (overflow) in dimension 0 and placed elsewhere, one parked in
    /// every dimension.
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
                select_comparison(kb, &oracle, &p, &mut rng, true).unwrap();
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

    /// Dimension `a`'s two trapdoors `lo < X_a < hi`, per range.
    fn range_preds(ranges: &[(u64, u64)]) -> Vec<[Predicate; 2]> {
        let pair = |(a, &(lo, hi)): (usize, &(u64, u64))| {
            [
                Predicate::cmp(a as u32, ComparisonOp::Gt, lo),
                Predicate::cmp(a as u32, ComparisonOp::Lt, hi),
            ]
        };
        ranges.iter().enumerate().map(pair).collect()
    }

    fn to_dims<'a>(
        kbs: &'a mut [Knowledge<Predicate>],
        preds: &'a [[Predicate; 2]],
    ) -> Vec<MdDim<'a, Predicate>> {
        kbs.iter_mut()
            .zip(preds)
            .map(|(knowledge, preds)| MdDim { knowledge, preds })
            .collect()
    }

    fn kb_bytes(kbs: &[Knowledge<Predicate>]) -> Vec<Vec<u8>> {
        kbs.iter().map(snapshot::save).collect()
    }

    /// Ground truth under the delete contract: the tuples every knowledge
    /// base indexes (placed or parked) that satisfy every trapdoor.
    fn indexed_conjunction(
        kbs: &[Knowledge<Predicate>],
        oracle: &PlainOracle,
        preds: &[Predicate],
    ) -> Vec<TupleId> {
        let indexed = |kb: &Knowledge<Predicate>, t: TupleId| {
            kb.pop().rank_of_tuple(t).is_some() || kb.overflow().iter().any(|e| e.tuple == t)
        };
        (0..oracle.n_slots() as TupleId)
            .filter(|&t| kbs.iter().all(|kb| indexed(kb, t)))
            .filter(|&t| preds.iter().all(|p| p.eval(oracle.value(p.attr(), t))))
            .collect()
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
            policy in 0usize..3,
        ) {
            let policy = [
                Some(MdUpdatePolicy::PartialOnly),
                Some(MdUpdatePolicy::CompleteSplits),
                None,
            ][policy];
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
                let preds = range_preds(&ranges);
                let mut rng_new = StdRng::seed_from_u64(seed ^ q);
                let mut rng_ref = StdRng::seed_from_u64(seed ^ q);
                let new = run(&mut to_dims(&mut kbs_new, &preds), &oracle_new, &mut rng_new, policy)
                    .expect("clean");
                let reference =
                    run_reference(&mut to_dims(&mut kbs_ref, &preds), &oracle_ref, &mut rng_ref, policy)
                        .expect("clean");
                proptest::prop_assert_eq!(&new.tuples, &reference.tuples, "winners, query {}", q);
                proptest::prop_assert_eq!(new.stats, reference.stats, "stats, query {}", q);
                proptest::prop_assert_eq!(oracle_new.qpf_uses(), oracle_ref.qpf_uses());
                proptest::prop_assert_eq!(kb_bytes(&kbs_new), kb_bytes(&kbs_ref), "KB, query {}", q);
                // Every indexed tuple is answered for, the tombstoned one too.
                let expected: Vec<Predicate> = preds.iter().flatten().copied().collect();
                let indexed = indexed_conjunction(&kbs_new, &oracle_new, &expected);
                proptest::prop_assert_eq!(new.sorted(), indexed);
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
        let (mut kbs, preds) = (vec![Knowledge::init(n)], range_preds(&[(99, 300)]));
        let mut rng = StdRng::seed_from_u64(1);
        let refine = Some(MdUpdatePolicy::PartialOnly);
        let sel = run(&mut to_dims(&mut kbs, &preds), &counting, &mut rng, refine).expect("clean");
        assert_eq!(sel.sorted(), (100..300).collect::<Vec<_>>());
        // k = 1: no probes; wave 0 tests all n, wave 1 its 400 survivors.
        assert_eq!(sel.stats.qpf_uses, 500 + 400);
        assert_eq!(sel.stats.oracle_batches, 2);
        assert_eq!(counting.batches.load(Ordering::Relaxed), 2);
        assert_eq!(counting.singles.load(Ordering::Relaxed), 0);
        assert_eq!(sel.stats.splits, 1, "only wave 0 decided every member");
    }

    /// On the driver dimension every NS batch is one pair partition's
    /// members, whole and in member order — a member tombstoned in the
    /// table but still indexed among them, since the knowledge base is the
    /// authority — each partition once, and the band's overflow tuple goes
    /// through each wave's rest batch.
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
            select_comparison(&mut kb, &oracle, &p, &mut rng, true).unwrap();
        }
        // Range (150, 350): each cut falls inside a partition of 100 values.
        let dead = values.iter().position(|&v| v == 170).unwrap() as TupleId;
        oracle.delete(dead);
        let late = oracle.insert(&[250]);
        kb.park(late, 0, kb.k() - 1);
        let pop = kb.pop().clone();
        let holding = |v: u64| {
            let t = values.iter().position(|&x| x == v).unwrap() as TupleId;
            pop.rank_of_tuple(t).unwrap()
        };

        let counting = Counting::new(&oracle);
        let (mut kbs, preds) = (vec![kb], range_preds(&[(150, 350)]));
        let mut rng = StdRng::seed_from_u64(22);
        let refine = Some(MdUpdatePolicy::PartialOnly);
        let sel = run(&mut to_dims(&mut kbs, &preds), &counting, &mut rng, refine).expect("clean");
        let mut expected = oracle.expected_conjunction(&preds[0]);
        expected.push(dead);
        expected.sort_unstable();
        assert_eq!(
            sel.sorted(),
            expected,
            "the tombstoned row is still answered for"
        );

        let log = counting.log.into_inner().unwrap();
        assert_eq!(log.len() as u64, sel.stats.oracle_batches);
        let (rest, ns): (Vec<_>, Vec<_>) = log.into_iter().partition(|b| *b == [late]);
        assert_eq!(rest.len(), 2, "the overflow tuple survives wave 0");
        let mut ranks: Vec<usize> = ns
            .iter()
            .map(|b| {
                let r = pop.rank_of_tuple(b[0]).expect("placed");
                assert_eq!(
                    b,
                    pop.members_at(r),
                    "rank {r}: its members in member order"
                );
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
        let (mut new, oracle) = scenario(600, &[0, 6], 23);
        let mut reference = new.clone();
        let preds = range_preds(&ranges);
        let rng = || StdRng::seed_from_u64(24);
        let (p, band) = prepare(&to_dims(&mut new, &preds), &oracle, &mut rng()).unwrap();
        assert_eq!(p.driver, 1);
        assert!(band.segments.len() > 1, "{:?}", band.segments);

        let policy = Some(MdUpdatePolicy::PartialOnly);
        let a = run(&mut to_dims(&mut new, &preds), &oracle, &mut rng(), policy).unwrap();
        let b = run_reference(
            &mut to_dims(&mut reference, &preds),
            &oracle,
            &mut rng(),
            policy,
        )
        .unwrap();
        assert_eq!((&a.tuples, a.stats), (&b.tuples, b.stats));
        assert_eq!(kb_bytes(&new), kb_bytes(&reference));
    }

    #[test]
    fn single_evaluations_are_qfilter_probes_only() {
        for policy in [Some(MdUpdatePolicy::PartialOnly), None] {
            let (mut kbs, oracle) = scenario(400, &[8, 8], 5);
            let counting = Counting::new(&oracle);
            let preds = range_preds(&[(40, 120), (60, 150)]);
            let mut rng = StdRng::seed_from_u64(6);
            let sel =
                run(&mut to_dims(&mut kbs, &preds), &counting, &mut rng, policy).expect("clean");
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

    #[test]
    fn left_neighbor_wins() {
        // Left neighbour is F-homogeneous → false half adjacent to it.
        let (l, r, ll) = order_halves(3, 1, vec![1], vec![2], |rk| Some(rk != 0));
        assert_eq!((l, r, ll), (vec![2], vec![1], false));
        // Left neighbour T-homogeneous → true half left.
        let (l, r, ll) = order_halves(3, 1, vec![1], vec![2], |_| Some(true));
        assert_eq!((l, r, ll), (vec![1], vec![2], true));
    }

    #[test]
    fn right_neighbor_used_when_no_left() {
        // rank 0: right neighbour T-homogeneous → true half goes right.
        let (l, r, ll) = order_halves(3, 0, vec![1], vec![2], |_| Some(true));
        assert_eq!((l, r, ll), (vec![2], vec![1], false));
        let (l, r, ll) = order_halves(3, 0, vec![1], vec![2], |_| Some(false));
        assert_eq!((l, r, ll), (vec![1], vec![2], true));
    }

    #[test]
    fn unconstrained_first_split() {
        let (l, r, ll) = order_halves(1, 0, vec![1], vec![2], |_| None);
        assert_eq!((l, r, ll), (vec![2], vec![1], false));
    }
}
