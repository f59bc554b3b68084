//! The PRKB(MD) executor (paper §6.2), which runs every select: a
//! comparison is a dimension with one trapdoor (§5), a BETWEEN is one whose
//! locator is the hunt (App. A), and a conjunction is one walk over every
//! attribute it names, each holding all of its trapdoors.

use super::zones::{rank_class, Zones};
use super::{MdDim, MdUpdatePolicy};
use crate::between::{self, Found};
use crate::knowledge::{BetweenEdge, Separator};
use crate::pop::{Pop, SplitBits};
use crate::qfilter::{try_qfilter, FilterResult};
use crate::selection::{QueryStats, Selection};
use crate::traits::SpPredicate;
use prkb_edbms::{OracleError, PredicateKind, SelectionOracle, TupleId};
use rand::Rng;
use std::ops::Range;

/// One partition a trapdoor must test — a side of one of its NS pairs, or a
/// partition a BETWEEN's escalation decided — with its sampled label and
/// the members this query has tested in it, run by run in the order tested,
/// with their verdicts position for position.
struct NsSide {
    rank: usize,
    label: bool,
    tested: Vec<TupleId>,
    verdicts: Vec<bool>,
    trues: usize,
    /// The ranks of the sides that must all prove mixed before this one is
    /// implied to have its label (Alg. 2's early stop); none: always tested.
    inferred_by: Vec<usize>,
    inferred: Option<bool>,
    /// The location phase decided every member (a BETWEEN miss): `tested`
    /// is sorted by tuple, and the walk reads it instead of evaluating.
    decided: bool,
}

impl NsSide {
    fn new(rank: usize, label: bool, inferred_by: Vec<usize>) -> Self {
        NsSide {
            rank,
            label,
            tested: Vec::new(),
            verdicts: Vec::new(),
            trues: 0,
            inferred_by,
            inferred: None,
            decided: false,
        }
    }

    /// Appends one run of tested members and their verdicts.
    fn extend(&mut self, ids: &[TupleId], verdicts: &[bool]) {
        debug_assert_eq!(ids.len(), verdicts.len(), "one verdict per member");
        self.tested.extend_from_slice(ids);
        self.verdicts.extend_from_slice(verdicts);
        self.trues += verdicts.iter().filter(|&&v| v).count();
    }

    /// Both outcomes seen: this partition holds a cut.
    fn mixed(&self) -> bool {
        self.trues > 0 && self.trues < self.tested.len()
    }

    /// The verdict of `t` when this side was decided, or the side's
    /// inference; `None` when `t` must be evaluated.
    fn known(&self, t: TupleId) -> Option<bool> {
        if self.decided {
            let at = self.tested.binary_search(&t).expect("a decided member");
            return Some(self.verdicts[at]);
        }
        self.inferred
    }
}

/// A comparison's partitions to test: its NS pair, each side implied by
/// the other's mixed verdict.
fn comparison_sides(f: &FilterResult) -> Vec<NsSide> {
    match f.ns {
        None => Vec::new(),
        Some((a, b)) if a == b => vec![NsSide::new(a, f.label_a, vec![])],
        Some((a, b)) => vec![
            NsSide::new(a, f.label_a, vec![b]),
            NsSide::new(b, f.label_b, vec![a]),
        ],
    }
}

/// A BETWEEN hit's partitions to test, in its probe order: the outer sides
/// `a` and `d` first, then `b` and `c`. Its two pairs are the low transition
/// `(a, b)` labelled (false, true) and the high one `(c, d)` labelled
/// (true, false). When `b == c` that partition may hold either cut, so its
/// mixed verdict implies nothing, and it is implied only once `a` *and* `d`
/// proved mixed. A side whose partner is missing (no `a` below rank 0, no
/// `d` above the top) is always tested.
fn hunt_sides(a: Option<usize>, b: usize, c: usize, d: usize, k: usize) -> Vec<NsSide> {
    let d = (d < k).then_some(d);
    let plan = if b == c {
        vec![
            (a, false, vec![None]),
            (d, false, vec![None]),
            (Some(b), true, vec![a, d]),
        ]
    } else {
        let (b, c) = (Some(b), Some(c));
        vec![
            (a, false, vec![b]),
            (d, false, vec![c]),
            (b, true, vec![a]),
            (c, true, vec![d]),
        ]
    };
    let side = |(rank, label, partners): (Option<usize>, bool, Vec<Option<usize>>)| {
        let partners: Option<Vec<usize>> = partners.into_iter().collect();
        Some(NsSide::new(rank?, label, partners.unwrap_or_default()))
    };
    plan.into_iter().filter_map(side).collect()
}

/// A BETWEEN miss's partitions to test: the ones its escalation decided,
/// with every member's verdict.
fn decided_sides(pop: &Pop, decided: Vec<(usize, Vec<bool>)>) -> Vec<NsSide> {
    let side = |(rank, verdicts): (usize, Vec<bool>)| {
        let mut by_tuple: Vec<(TupleId, bool)> =
            pop.members_at(rank).iter().copied().zip(verdicts).collect();
        by_tuple.sort_unstable_by_key(|e| e.0);
        let (ids, verdicts): (Vec<TupleId>, Vec<bool>) = by_tuple.into_iter().unzip();
        let mut side = NsSide::new(rank, false, vec![]);
        side.extend(&ids, &verdicts);
        side.decided = true;
        side
    };
    decided.into_iter().map(side).collect()
}

/// One trapdoor of a dimension: the partitions it must test, what its
/// location phase proved about every other rank, and its wave's verdicts on
/// the dimension's overflow tuples it reached, which a fresh comparison
/// split refines.
struct Trapdoor {
    /// A comparison, else a BETWEEN: the kinds split and count differently.
    comparison: bool,
    sides: Vec<NsSide>,
    /// The label of every other rank: below the lowest side, between the
    /// sides, above the highest.
    outside: [bool; 3],
    /// The lowest and the highest side's rank.
    span: (usize, usize),
    overflow: Vec<(TupleId, bool)>,
}

impl Trapdoor {
    /// Locates `pred` on `pop` — `QFilter` for a comparison, the hunt for a
    /// BETWEEN — and adds its probes, its calls, and the NS width its kind
    /// counts before the walk (a comparison's NS-pair members, a BETWEEN's
    /// escalation completions) to `stats`.
    fn locate<O: SelectionOracle, R: Rng>(
        pop: &Pop,
        oracle: &O,
        pred: &O::Pred,
        rng: &mut R,
        stats: &mut QueryStats,
    ) -> Result<Self, OracleError> {
        let (comparison, sides, outside) = match oracle.kind_of(pred) {
            PredicateKind::Comparison => {
                let before = oracle.qpf_uses();
                let f = try_qfilter(pop, oracle, pred, rng)?;
                stats.filter_probes += oracle.qpf_uses().saturating_sub(before);
                let sides = comparison_sides(&f);
                let members = sides.iter().map(|s| pop.members_at(s.rank).len());
                stats.ns_width += members.sum::<usize>() as u64;
                // Between the sides only when both end samples agreed.
                (true, sides, [f.label_a, f.label_a, f.label_b])
            }
            PredicateKind::Between => match between::locate(pop, oracle, pred, rng, stats)? {
                Found::Hit { a, b, c, d } => {
                    (false, hunt_sides(a, b, c, d, pop.k()), [false, true, false])
                }
                Found::Miss(decided) => (false, decided_sides(pop, decided), [false; 3]),
            },
        };
        let ranks = sides.iter().map(|s| s.rank);
        let span = (
            ranks.clone().min().unwrap_or(usize::MAX),
            ranks.max().unwrap_or(0),
        );
        Ok(Trapdoor {
            comparison,
            sides,
            outside,
            span,
            overflow: Vec::new(),
        })
    }

    /// The label this trapdoor proved for every member of `rank`, or `None`
    /// for a partition it must test.
    #[inline]
    fn label(&self, rank: usize) -> Option<bool> {
        match rank {
            _ if rank < self.span.0 => Some(self.outside[0]),
            _ if rank > self.span.1 => Some(self.outside[2]),
            _ if self.side_at(rank).is_some() => None,
            _ => Some(self.outside[1]),
        }
    }

    /// The index of the side at `rank`, if this trapdoor must test it.
    #[inline]
    fn side_at(&self, rank: usize) -> Option<usize> {
        self.sides.iter().position(|s| s.rank == rank)
    }

    /// Records one run of verdicts of side `i`, in the order tested. A run
    /// can only make side `i` mixed, which implies other sides, never `i`.
    fn record_run(&mut self, i: usize, ids: &[TupleId], verdicts: &[bool]) {
        self.sides[i].extend(ids, verdicts);
        for j in 0..self.sides.len() {
            let side = &self.sides[j];
            let mixed = |rank| self.sides.iter().any(|s| s.rank == rank && s.mixed());
            let implied = !side.inferred_by.is_empty()
                && !side.mixed()
                && side.inferred_by.iter().all(|&p| mixed(p));
            self.sides[j].inferred = implied.then_some(side.label);
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

/// A run of the band, in driver order.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// The survivors `tuples[start..end]` of one driver partition (`rank`),
    /// of a run of driver partitions every driver trapdoor labels true
    /// (`rank` is its first, whose labels hold for every survivor), or of
    /// the driver's overflow (`rank: None`).
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

    /// Appends the driver partitions `ranks` in place, extending the last
    /// segment when it is the in-place run just before.
    fn push_in_place(&mut self, ranks: Range<usize>) {
        match self.segments.last_mut() {
            Some(Segment::InPlace { end, .. }) if *end == ranks.start => *end = ranks.end,
            _ => self.segments.push(Segment::InPlace {
                first: ranks.start,
                end: ranks.end,
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

/// One bit per tuple slot.
struct TupleBits(Vec<u64>);

impl TupleBits {
    /// No bit set, with room for `slots` tuples.
    fn with_slots(slots: usize) -> Self {
        TupleBits(vec![0; slots.div_ceil(64)])
    }

    #[inline]
    fn insert(&mut self, t: TupleId) {
        let word = t as usize / 64;
        // `slots` is the table's; a knowledge base initialized over more
        // rows than it holds indexes slots past it.
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (t % 64);
    }

    #[inline]
    fn contains(&self, t: TupleId) -> bool {
        self.0
            .get(t as usize / 64)
            .is_some_and(|w| w >> (t % 64) & 1 == 1)
    }
}

/// What a dimension other than the driver decides for each tuple before
/// any QPF: its zones' runs, walked once into two bitmaps.
struct Sieve {
    /// The members of its runs not known false, and its overflow tuples:
    /// every tuple the dimension does not exclude.
    open: TupleBits,
    /// The members of its runs every trapdoor labels true: the tuples its
    /// waves pass without a look.
    passed: TupleBits,
}

impl Sieve {
    fn new<P: SpPredicate>(dim: &MdDim<'_, P>, zones: &Zones, slots: usize) -> Self {
        let pop = dim.knowledge.pop();
        let mut sieve = Sieve {
            open: TupleBits::with_slots(slots),
            passed: TupleBits::with_slots(slots),
        };
        for (ranks, class) in zones.runs() {
            let members = ranks.clone().flat_map(|r| pop.members_at(r));
            match class {
                Some(false) => {}
                Some(true) => members.for_each(|&t| {
                    sieve.open.insert(t);
                    sieve.passed.insert(t);
                }),
                None => members.for_each(|&t| sieve.open.insert(t)),
            }
        }
        for e in dim.knowledge.overflow() {
            sieve.open.insert(e.tuple);
        }
        sieve
    }
}

/// What phase 1 hands to the candidate band, the walk and the refinement.
struct Prepared {
    /// The oracle's QPF counter when the query started.
    qpf_before: u64,
    /// Per dimension, its trapdoors in order.
    trapdoors: Vec<Vec<Trapdoor>>,
    zones: Vec<Zones>,
    /// The dimension whose band the candidates come from.
    driver: usize,
    /// The driver's band before the free pass: its members in runs not
    /// known false, and its overflow tuples.
    driver_band: usize,
    /// The fields phase 1 decides; the walk adds to `oracle_batches`.
    stats: QueryStats,
}

/// Runs the MD pipeline over `dims` and returns the tuples every trapdoor
/// selects, in band order: the driver's partitions in rank order, each in
/// member order, then its overflow tuples. With `refine` set, the query
/// refines the knowledge under that policy; `None` leaves it static. With
/// no dimension nothing constrains the answer: it is every row the oracle
/// calls live, at no QPF — the answer the in-process entry points give a
/// query with no trapdoor, whose callers tombstone the table themselves.
/// The wire refuses such a query: the server never tombstones the table,
/// so its oracle would call deleted rows live (DESIGN §7).
///
/// Abort-safe by construction: phases 1–2 and the pending-split
/// *collection* of phase 3 are fallible and read-only; splits for all
/// dimensions are committed only after every oracle evaluation of the whole
/// query has succeeded.
///
/// The stats keep each kind's meaning (DESIGN §11): a comparison counts its
/// NS pairs' members as `ns_width`; a BETWEEN the members it evaluated, and
/// the partitions it inferred true among `pruned_true`.
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
    if dims.is_empty() {
        let tuples = (0..oracle.n_slots() as TupleId)
            .filter(|&t| oracle.is_live(t))
            .collect();
        return Ok(Selection {
            tuples,
            ..Selection::default()
        });
    }
    let mut p = prepare(dims, oracle, rng)?;
    let (band, sieves) = candidates(dims, &p, oracle.n_slots());
    let tuples = walk(
        dims,
        oracle,
        &sieves,
        &mut p.trapdoors,
        p.driver,
        band,
        &mut p.stats.oracle_batches,
    )?;
    for td in p.trapdoors.iter().flatten().filter(|td| !td.comparison) {
        for side in &td.sides {
            if !side.decided {
                p.stats.ns_width += side.tested.len() as u64;
            }
            p.stats.pruned_true += usize::from(side.inferred == Some(true));
        }
    }
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

/// Phase 1 — locates every trapdoor, classifies every partition (as runs
/// of ranks: never O(k), let alone O(n)), and picks the driver: the
/// dimension with the narrowest band.
fn prepare<O, R>(
    dims: &[MdDim<'_, O::Pred>],
    oracle: &O,
    rng: &mut R,
) -> Result<Prepared, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
    R: Rng,
{
    let qpf_before = oracle.qpf_uses();
    let d = dims.len();
    let mut stats = QueryStats::default();
    let mut trapdoors: Vec<Vec<Trapdoor>> = Vec::with_capacity(d);
    for dim in dims.iter() {
        let pop = dim.knowledge.pop();
        let mut of_dim = Vec::with_capacity(dim.preds.len());
        for pred in dim.preds {
            of_dim.push(Trapdoor::locate(pop, oracle, pred, rng, &mut stats)?);
        }
        trapdoors.push(of_dim);
    }

    // Classify every rank, as runs, and with the same pass take the cost
    // breakdown (label-pruned partitions) and — to pick the driver, when
    // there is a choice — each dimension's band size: its non-F partitions
    // (T ∪ NS) plus its unplaced (overflow) tuples. The candidate region is
    // only the *driver* dimension's band. Every winner must lie in it, so
    // nothing is missed, and per-query work is proportional to the band, not
    // the table (the paper's Fig. 6b grid pruning).
    let mut zones: Vec<Zones> = Vec::with_capacity(d);
    let mut bands: Vec<usize> = Vec::with_capacity(d);
    for (dim, tds) in dims.iter().zip(&trapdoors) {
        let pop = dim.knowledge.pop();
        let bounds = tds.iter().flat_map(|td| {
            let sides = td.sides.iter().flat_map(|s| [s.rank, s.rank + 1]);
            sides.chain([td.span.0, td.span.1.saturating_add(1)])
        });
        let of_dim = Zones::new(pop.k(), bounds.collect(), |r| {
            rank_class(tds.iter().map(|td| td.label(r)))
        });
        let mut band = dim.knowledge.overflow().len();
        for (ranks, class) in of_dim.runs() {
            match class {
                Some(false) => stats.pruned_false += ranks.len(),
                _ if d > 1 => {
                    band += ranks
                        .clone()
                        .map(|r| pop.members_at(r).len())
                        .sum::<usize>()
                }
                _ => {}
            }
            stats.pruned_true += if *class == Some(true) { ranks.len() } else { 0 };
        }
        zones.push(of_dim);
        bands.push(band);
    }
    let driver = (0..d).min_by_key(|&di| bands[di]).unwrap_or(0);
    Ok(Prepared {
        qpf_before,
        trapdoors,
        zones,
        driver,
        driver_band: bands[driver],
        stats: QueryStats {
            k_before: dims.iter().map(|d| d.knowledge.k()).sum(),
            overflow_scanned: dims[driver].knowledge.overflow().len(),
            ..stats
        },
    })
}

/// The candidate band, built segment by segment: for each driver partition
/// not known false, its members not provably out in another dimension, in
/// member order — a run of partitions every driver trapdoor labels true as
/// one segment — then the driver's overflow tuples, filtered alike; with
/// the sieve of every other dimension (`None` at the driver), over `slots`
/// tuple slots. The knowledge base is the authority on which tuples exist
/// (see `PrkbEngine::delete`), so with no other dimension (d = 1) a
/// partition joins as one slice copy, and a true run stays in place.
fn candidates<P: SpPredicate>(
    dims: &[MdDim<'_, P>],
    p: &Prepared,
    slots: usize,
) -> (Band, Vec<Option<Sieve>>) {
    let (d, driver) = (dims.len(), p.driver);
    let sieves: Vec<Option<Sieve>> = dims
        .iter()
        .zip(&p.zones)
        .enumerate()
        .map(|(di, (dim, zones))| (di != driver).then(|| Sieve::new(dim, zones, slots)))
        .collect();
    // Free pass first: a tuple provably out in *any* dimension is discarded
    // before a single QPF is spent on it (Fig. 6b pruning), at one bit test
    // per other dimension. Every candidate comes from a driver partition
    // not known false, or is unplaced there, so only the other dimensions
    // are checked — and with none, nothing is. Every knowledge base indexes
    // the same tuples (`PrkbEngine::insert` and `delete` keep them so), so
    // a clear bit is a member of a run known false.
    let passes = |t: &TupleId| {
        sieves.iter().zip(dims).all(|(sieve, dim)| {
            sieve.as_ref().is_none_or(|s| {
                let open = s.open.contains(*t);
                debug_assert!(
                    open || dim.knowledge.pop().rank_of_tuple(*t).is_some(),
                    "tuple {t} is indexed in every dimension"
                );
                open
            })
        })
    };
    let mut band = Band::default();
    if d > 1 {
        band.tuples.reserve(p.driver_band);
    }
    let pop = dims[driver].knowledge.pop();
    for (ranks, class) in p.zones[driver].runs() {
        match class {
            Some(false) => continue,
            Some(true) if d == 1 => band.push_in_place(ranks.clone()),
            Some(true) => band.push_segment(Some(ranks.start), |out| {
                for r in ranks.clone() {
                    out.extend(pop.members_at(r).iter().copied().filter(passes));
                }
            }),
            None => {
                for r in ranks.clone() {
                    let members = pop.members_at(r);
                    band.push_segment(Some(r), |out| {
                        if d == 1 {
                            out.extend_from_slice(members);
                        } else {
                            out.extend(members.iter().copied().filter(passes));
                        }
                    });
                }
            }
        }
    }
    let overflow = dims[driver].knowledge.overflow();
    band.push_segment(None, |out| {
        out.extend(overflow.iter().map(|e| e.tuple).filter(passes));
    });
    (band, sieves)
}

/// Phase 2 — evaluates the band wave-major, one wave per (dimension,
/// trapdoor), each over the survivors of every earlier wave, and returns
/// the winners; each trapdoor keeps its verdicts on the overflow tuples its
/// wave reached. This is QPF-count-identical to a tuple-major loop with
/// per-tuple short-circuit: the early-stop state of a (dim, trapdoor) pair
/// is only read and written by its own wave.
///
/// No tuple costs an oracle round trip of its own. Outside the partitions
/// a trapdoor must test an outcome is never inferred and never resolves a
/// pair, so those tuples — and overflow tuples — go through one batch per
/// wave. Inside them, consecutive survivors of the *same side* form a run
/// whose evaluation is just as unconditional: recording a side's outcomes
/// can only infer *other* sides. Each run is one batch, recorded in
/// candidate order, and settled when the side changes — before the next
/// side is asked for its inference. A decided partition's verdicts are read.
///
/// The driver wave is partition-major: a segment is one driver rank or a
/// run of true ones, so it is decided whole — by label, inferred, read, or
/// evaluated as one run straight from its slice — the trapdoor's partitions
/// in its probe order (a BETWEEN's outer ones first), then the rest batch.
/// The other waves are tuple-major inside the driver's segments, since
/// their ranks interleave and runs are short; a tuple in a run its
/// dimension's `sieves` entry holds true costs one bit test, not a rank.
fn walk<O>(
    dims: &[MdDim<'_, O::Pred>],
    oracle: &O,
    sieves: &[Option<Sieve>],
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
    // A driver wave's segments of partitions the trapdoor must test, as
    // (side, segment).
    let mut to_test: Vec<(usize, usize)> = Vec::new();
    let mut run = Pending::default();
    let mut rest = Pending::default();
    for (di, dim) in dims.iter().enumerate() {
        let pop = dim.knowledge.pop();
        for (pred, td) in dim.preds.iter().zip(&mut trapdoors[di]) {
            if band.tuples.is_empty() {
                break;
            }
            wave.clear();
            wave.resize(band.tuples.len(), true);
            fates.clear();
            if di == driver {
                to_test.clear();
                for (s, seg) in band.segments.iter().enumerate() {
                    let fate = match *seg {
                        Segment::InPlace { .. } => Fate::All(true),
                        Segment::Held { rank: Some(r), .. } if td.label(r) == Some(true) => {
                            Fate::All(true)
                        }
                        Segment::Held { rank, start, end } => {
                            match rank.and_then(|r| td.side_at(r)) {
                                Some(i) => to_test.push((i, s)),
                                None => {
                                    for i in start..end {
                                        rest.push(band.tuples[i], i);
                                    }
                                }
                            }
                            Fate::Each
                        }
                    };
                    fates.push(fate);
                }
                to_test.sort_unstable();
                for &(i, s) in &to_test {
                    let Segment::Held { start, end, .. } = band.segments[s] else {
                        unreachable!("an in-place segment passes every trapdoor");
                    };
                    let side = &td.sides[i];
                    if side.decided {
                        let members = band.tuples[start..end].iter();
                        for (v, &t) in wave[start..end].iter_mut().zip(members) {
                            *v = side.known(t).expect("decided");
                        }
                    } else if let Some(v) = side.inferred {
                        fates[s] = Fate::All(v);
                    } else {
                        let ids = &band.tuples[start..end];
                        *oracle_batches += 1;
                        oracle.try_eval_batch(pred, ids, &mut verdicts)?;
                        td.record_run(i, ids, &verdicts);
                        wave[start..end].copy_from_slice(&verdicts);
                    }
                }
            } else {
                let sieve = sieves[di]
                    .as_ref()
                    .expect("a dimension other than the driver");
                let mut run_side = usize::MAX;
                for (i, &t) in band.tuples.iter().enumerate() {
                    debug_assert!(sieve.open.contains(t), "filtered by the free pass");
                    if sieve.passed.contains(t) {
                        continue;
                    }
                    let rank = pop.rank_of_tuple(t);
                    if rank.is_some_and(|r| td.label(r) == Some(true)) {
                        continue;
                    }
                    let Some(s) = rank.and_then(|r| td.side_at(r)) else {
                        rest.push(t, i);
                        continue;
                    };
                    if s != run_side {
                        run.eval(oracle, pred, &mut wave, oracle_batches, |ids, vs| {
                            td.record_run(run_side, ids, vs);
                        })?;
                        run_side = s;
                    }
                    match td.sides[s].known(t) {
                        Some(v) => wave[i] = v,
                        None => run.push(t, i),
                    }
                }
                run.eval(oracle, pred, &mut wave, oracle_batches, |ids, vs| {
                    td.record_run(run_side, ids, vs);
                })?;
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
    let mut all_pending: Vec<Vec<PendingSplit<O::Pred>>> = Vec::with_capacity(dims.len());
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

/// A staged split: (rank, which members go left, separator, and for a
/// comparison cut its left label and trapdoor, whose wave's overflow
/// verdicts the fresh cut refines).
type PendingSplit<P> = (usize, SplitBits, Separator<P>, Option<(bool, usize)>);

/// The verdicts `side` tested for `members`, one bit per member in member
/// order, set where the verdict equals `left` — so the bits say which
/// members go left when the `left` half does; `untested` decides each
/// member the walk did not test.
fn member_verdicts(
    members: &[TupleId],
    side: &NsSide,
    left: bool,
    mut untested: impl FnMut(TupleId) -> Result<bool, OracleError>,
) -> Result<SplitBits, OracleError> {
    let mut bits = SplitBits::with_capacity(members.len());
    // The driver dimension tests a whole partition in member order.
    if side.tested == members {
        side.verdicts.iter().for_each(|&v| bits.push(v == left));
        return Ok(bits);
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
        bits.push(out == left);
    }
    Ok(bits)
}

/// Which side of the cut inside the mixed partition at `rank` a BETWEEN's
/// interior lies on (App. A): the lowest rank known to hold winners holds
/// the low edge, the highest the high edge — a hunt's `b` and `c`, whose
/// samples answered 1, and every side with a true verdict. `None` when
/// `rank` is both: the paper's exceptional case, where both cuts may lie
/// inside it and no sound split exists. A winner the walk did not see can
/// only make this skip, never mis-split.
fn between_edge(td: &Trapdoor, rank: usize) -> Option<BetweenEdge> {
    let holds_winners = td.sides.iter().filter(|s| s.label || s.trues > 0);
    let (lo, hi) = holds_winners.fold((rank, rank), |(lo, hi), s| (lo.min(s.rank), hi.max(s.rank)));
    match (rank == lo, rank == hi) {
        (true, true) => None,
        (true, false) => Some(BetweenEdge::InteriorRight),
        (false, true) => Some(BetweenEdge::InteriorLeft),
        (false, false) => {
            debug_assert!(false, "a mixed partition strictly inside the winners");
            None
        }
    }
}

/// Gathers the sound refinements for one dimension without mutating it.
/// Under [`MdUpdatePolicy::CompleteSplits`] this may spend QPF uses to
/// finish partially-decided partitions — the only fallible step of phase 3.
fn collect_dim_updates<O>(
    dim: &MdDim<'_, O::Pred>,
    oracle: &O,
    trapdoors: &[Trapdoor],
    policy: MdUpdatePolicy,
) -> Result<Vec<PendingSplit<O::Pred>>, OracleError>
where
    O: SelectionOracle,
    O::Pred: SpPredicate,
{
    let mut pending = Vec::new();
    for (j, (td, pred)) in trapdoors.iter().zip(dim.preds).enumerate() {
        let comparison = td.comparison;
        for side in &td.sides {
            if !side.mixed() {
                continue; // homogeneous so far: nothing to refine
            }
            let r = side.rank;
            let members = dim.knowledge.pop().members_at(r);
            if side.tested.len() < members.len() && policy != MdUpdatePolicy::CompleteSplits {
                continue; // partial knowledge: a split would be unsound
            }
            let edge = match comparison {
                true => None,
                false => match between_edge(td, r) {
                    None => continue,
                    edge => edge,
                },
            };
            let (left_label, sep, refines) = if let Some(edge) = edge {
                let sep = Separator::Between {
                    pred: (*pred).clone(),
                    edge,
                };
                (edge == BetweenEdge::InteriorLeft, sep, None)
            } else {
                // Neighbour labels for the ordering rule. This rank is
                // mixed, so it *is* the separating partition — the pair
                // partner is homogeneous with its sampled label (Lemma 4.5).
                let other = td.sides.iter().find(|s| s.rank != r).unwrap_or(side);
                let label_of = |q: usize| (q == other.rank).then_some(other.label).or(td.label(q));
                let left_label = order_halves(dim.knowledge.k(), r, label_of);
                let sep = Separator::Cmp {
                    pred: (*pred).clone(),
                    left_label,
                };
                (left_label, sep, Some((left_label, j)))
            };
            // Ablation mode: pay the missing QPF to finish the split.
            let left = member_verdicts(members, side, left_label, |t| oracle.try_eval(pred, t))?;
            pending.push((r, left, sep, refines));
        }
    }
    Ok(pending)
}

/// Commits the staged splits for one dimension. Returns the split count.
/// Infallible: never touches the oracle.
///
/// Each comparison split is a fresh separator — only a trapdoor
/// inequivalent to every retained one finds a mixed partition — so right
/// after it commits, the verdicts its trapdoor's wave gave the overflow
/// tuples narrow their intervals (§7.1); a tuple the wave did not reach is
/// left as it is. Equivalent trapdoors never get here (DESIGN §7's gap
/// rule). A BETWEEN cut lateralizes only its insiders, so it refines none.
fn commit_dim_updates<P: SpPredicate>(
    dim: &mut MdDim<'_, P>,
    trapdoors: &mut [Trapdoor],
    mut pending: Vec<PendingSplit<P>>,
) -> usize {
    // Apply descending by rank so earlier splits do not shift later ones;
    // if two trapdoors split the same partition, keep the first only
    // (re-deriving the second against the new sub-partitions is future
    // work the paper does not require).
    pending.sort_by_key(|e| std::cmp::Reverse(e.0));
    pending.dedup_by_key(|e| e.0);
    let n = pending.len();
    for td in trapdoors.iter_mut() {
        td.overflow.sort_unstable_by_key(|e| e.0);
    }
    for (rank, left, sep, refines) in pending {
        dim.knowledge.apply_split(rank, left, Some(sep));
        if let Some((left_label, j)) = refines {
            let verdicts = &trapdoors[j].overflow;
            dim.knowledge.refine_overflow(rank, left_label, |t| {
                let at = verdicts.binary_search_by_key(&t, |e| e.0).ok()?;
                Some(verdicts[at].1)
            });
        }
    }
    n
}

/// Decides which half of a split at `rank` in a POP with `k` partitions
/// goes left (paper §5.3): the half whose QPF label equals a
/// known-labelled neighbour's is placed adjacent to it — the left neighbour
/// first, then the right. The very first split of a 1-partition POP is
/// unconstrained and puts the false half left. `label_of` reports a
/// neighbouring rank's label when this query established it. Returns the
/// left half's label.
pub(super) fn order_halves(
    k: usize,
    rank: usize,
    label_of: impl Fn(usize) -> Option<bool>,
) -> bool {
    let left_neighbor = if rank > 0 { label_of(rank - 1) } else { None };
    let right_neighbor = if rank + 1 < k {
        label_of(rank + 1)
    } else {
        None
    };
    left_neighbor
        .or(right_neighbor.map(|r| !r))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::Knowledge;
    use crate::md::select_one;
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
        zones: &[Zones],
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
            for (pred, td) in dim.preds.iter().zip(&mut trapdoors[di]) {
                if survivors.is_empty() {
                    break;
                }
                wave.clear();
                wave.resize(survivors.len(), true);
                batch.clear();
                batch_at.clear();
                let (mut run_side, mut run_counted) = (usize::MAX, false);
                for (i, &t) in survivors.iter().enumerate() {
                    let rank = pop.rank_of_tuple(t);
                    if let Some(r) = rank {
                        if zones[di].class_of(r) == Some(true) || td.label(r) == Some(true) {
                            continue;
                        }
                    }
                    match rank.and_then(|r| td.side_at(r)) {
                        Some(s) => {
                            if s != run_side {
                                (run_side, run_counted) = (s, false);
                            }
                            wave[i] = if let Some(v) = td.sides[s].known(t) {
                                v
                            } else {
                                let v = oracle.try_eval(pred, t)?;
                                td.record_run(s, &[t], &[v]);
                                *oracle_batches += u64::from(!run_counted);
                                run_counted = true;
                                v
                            };
                        }
                        None => {
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

    /// The per-tuple free pass that `candidates` replaced, kept as its
    /// reference: the driver's band in band order, each tuple looked up by
    /// its rank in every other dimension, and kept unless that rank's class
    /// is false — or unless it has no rank there at all.
    fn band_reference(dims: &[MdDim<'_, Predicate>], p: &Prepared) -> Vec<TupleId> {
        let passes = |t: &TupleId| {
            dims.iter().enumerate().all(|(di, dim)| {
                di == p.driver
                    || dim
                        .knowledge
                        .pop()
                        .rank_of_tuple(*t)
                        .is_none_or(|r| p.zones[di].class_of(r) != Some(false))
            })
        };
        let driver = &dims[p.driver].knowledge;
        let mut band = Vec::new();
        for (ranks, class) in p.zones[p.driver].runs() {
            if *class != Some(false) {
                let members = ranks.clone().flat_map(|r| driver.pop().members_at(r));
                band.extend(members.copied().filter(passes));
            }
        }
        band.extend(driver.overflow().iter().map(|e| e.tuple).filter(passes));
        band
    }

    /// `run` with the reference free pass and walk in place of
    /// `candidates` and `walk`.
    fn run_reference(
        dims: &mut [MdDim<'_, Predicate>],
        oracle: &impl SelectionOracle<Pred = Predicate>,
        rng: &mut StdRng,
        refine_with: Option<MdUpdatePolicy>,
    ) -> Result<Selection, OracleError> {
        let mut p = prepare(dims, oracle, rng)?;
        let survivors = band_reference(dims, &p);
        let tuples = walk_reference(
            dims,
            oracle,
            &p.zones,
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
                select_one(kb, &oracle, &p, &mut rng, true).unwrap();
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
                    crate::insert::tests::try_insert_tuple(kb, &oracle, t).unwrap();
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

    /// Each range's two trapdoors, borrowed, as [`to_dims`] takes them.
    fn pairs(preds: &[[Predicate; 2]]) -> Vec<[&Predicate; 2]> {
        preds.iter().map(|[lo, hi]| [lo, hi]).collect()
    }

    fn to_dims<'a>(
        kbs: &'a mut [Knowledge<Predicate>],
        preds: &'a [[&'a Predicate; 2]],
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

        /// The bitmap free pass and the segment walk are the per-tuple
        /// free pass and the tuple-major walk: same winners in the same
        /// order, same QPF count, same stats (the run rule's batch count
        /// included), same splits, byte-identical knowledge — query after
        /// query, as the KB grows from k = 1, with up to two dimensions
        /// other than the driver. With `cold_first`, dimension 0 stays at
        /// k = 1 under a wide range, so a warmed dimension drives and
        /// dimension 0's wave is a tuple-major one.
        #[test]
        fn run_batched_walk_matches_tuple_major_reference(
            seed in proptest::prelude::any::<u64>(),
            n in 40usize..2_000,
            d in 1usize..=3,
            cuts in 0usize..6,
            cold_first in proptest::prelude::any::<bool>(),
            policy in 0usize..3,
        ) {
            let policy = [
                Some(MdUpdatePolicy::PartialOnly),
                Some(MdUpdatePolicy::CompleteSplits),
                None,
            ][policy];
            let cold_first = cold_first && d > 1;
            let cuts: Vec<usize> = (0..d)
                .map(|a| match a {
                    0 if cold_first => 0,
                    _ if cold_first => cuts + 2,
                    _ => cuts,
                })
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
                let new = run(&mut to_dims(&mut kbs_new, &pairs(&preds)), &oracle_new, &mut rng_new, policy)
                    .expect("clean");
                let reference =
                    run_reference(&mut to_dims(&mut kbs_ref, &pairs(&preds)), &oracle_ref, &mut rng_ref, policy)
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
        /// many are missing, and whichever half goes left; a missing one is
        /// asked of `untested`, in member order.
        #[test]
        fn member_verdicts_is_a_lookup(
            members in proptest::collection::vec(0u32..500, 0..60),
            seed in proptest::prelude::any::<u64>(),
            shuffle in proptest::prelude::any::<bool>(),
            partial in proptest::prelude::any::<bool>(),
            left in proptest::prelude::any::<bool>(),
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
            let mut side = NsSide::new(0, false, vec![]);
            let (ids, verdicts): (Vec<TupleId>, Vec<bool>) = tested.iter().copied().unzip();
            let mut at = 0;
            while at < ids.len() {
                let end = rng.gen_range(at + 1..=ids.len());
                side.extend(&ids[at..end], &verdicts[at..end]);
                at = end;
            }
            let map: HashMap<TupleId, bool> = tested.iter().copied().collect();
            let mut asked = Vec::new();
            let bits = member_verdicts(&members, &side, left, |t| {
                asked.push(t);
                Ok(t % 3 == 0)
            })
            .expect("untested never fails");
            let expected = members.iter().map(|t| map.get(t).copied().unwrap_or(t % 3 == 0) == left);
            proptest::prop_assert_eq!(bits, expected.collect::<SplitBits>());
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
        let sel = run(
            &mut to_dims(&mut kbs, &pairs(&preds)),
            &counting,
            &mut rng,
            refine,
        )
        .expect("clean");
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
            select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
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
        let sel = run(
            &mut to_dims(&mut kbs, &pairs(&preds)),
            &counting,
            &mut rng,
            refine,
        )
        .expect("clean");
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
        let borrowed = pairs(&preds);
        let dims = to_dims(&mut new, &borrowed);
        let p = prepare(&dims, &oracle, &mut rng()).unwrap();
        let (band, _) = candidates(&dims, &p, oracle.n_slots());
        assert_eq!(p.driver, 1);
        assert!(band.segments.len() > 1, "{:?}", band.segments);

        let policy = Some(MdUpdatePolicy::PartialOnly);
        let a = run(
            &mut to_dims(&mut new, &pairs(&preds)),
            &oracle,
            &mut rng(),
            policy,
        )
        .unwrap();
        let b = run_reference(
            &mut to_dims(&mut reference, &pairs(&preds)),
            &oracle,
            &mut rng(),
            policy,
        )
        .unwrap();
        assert_eq!((&a.tuples, a.stats), (&b.tuples, b.stats));
        assert_eq!(kb_bytes(&new), kb_bytes(&reference));
    }

    /// A BETWEEN partition shared by both pairs (`b == c`) may hold either
    /// cut, so its mixed verdict resolves neither pair. A tuple-major
    /// (non-driver) wave can prove it mixed before the outer partitions:
    /// here the driver's survivors reach the BETWEEN dimension's rank 1
    /// first and its rank 2 after, and seeds whose hunt lands on
    /// `a = 0, b = c = 1, d = 2` put the low cut in `d`, whose winners an
    /// inference from `b` would drop.
    #[test]
    fn a_partition_shared_by_both_pairs_resolves_neither() {
        // Rows 0..30 survive dimension 0 (`X0 < 30`), in id order. In
        // dimension 1 (descending: rank 0 is [30, 40), rank 1 [20, 30),
        // rank 2 [10, 20), rank 3 [0, 10)) rows 0..10 hold 20..29, rows
        // 10..20 hold 10..19, the rest hold 35 or spread the table.
        let v1: Vec<u64> = (0..100u64)
            .map(|t| match t {
                0..=9 => 20 + t,
                10..=19 => t,
                20..=29 => 35,
                90..=99 => t - 90,
                _ => 10 + t % 30,
            })
            .collect();
        let oracle = PlainOracle::from_columns(vec![(0..100).collect(), v1]);
        let mut kbs: Vec<Knowledge<Predicate>> = vec![Knowledge::init(100), Knowledge::init(100)];
        let mut rng = StdRng::seed_from_u64(1);
        for (attr, cuts) in [(0u32, [30u64, 60].as_slice()), (1, &[10, 20, 30])] {
            for &c in cuts {
                let p = Predicate::cmp(attr, ComparisonOp::Lt, c);
                select_one(&mut kbs[attr as usize], &oracle, &p, &mut rng, true).unwrap();
            }
        }
        let (lt, between) = (
            Predicate::cmp(0, ComparisonOp::Lt, 30),
            Predicate::between(1, 15, 25),
        );
        let preds = [[&lt], [&between]];
        fn dims<'a>(
            kbs: &'a mut [Knowledge<Predicate>],
            preds: &'a [[&'a Predicate; 1]],
        ) -> Vec<MdDim<'a, Predicate>> {
            kbs.iter_mut()
                .zip(preds)
                .map(|(knowledge, preds)| MdDim { knowledge, preds })
                .collect()
        }
        let expected: Vec<TupleId> = (0..30)
            .filter(|t| (15..=25).contains(&oracle.value(1, *t)))
            .collect();
        let mut shared = 0;
        for seed in 0..32 {
            let mut probe = kbs.clone();
            let rng = &mut StdRng::seed_from_u64(seed);
            let p = prepare(&dims(&mut probe, &preds), &oracle, rng).unwrap();
            assert_eq!(p.driver, 0, "the BETWEEN dimension does not drive");
            // Probe order: a = 0, d = 2, then b = c = 1.
            let ranks: Vec<usize> = p.trapdoors[1][0].sides.iter().map(|s| s.rank).collect();
            shared += usize::from(ranks == [0, 2, 1]);
            for policy in [Some(MdUpdatePolicy::PartialOnly), None] {
                let mut kbs = kbs.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                let sel = run(&mut dims(&mut kbs, &preds), &oracle, &mut rng, policy).unwrap();
                assert_eq!(sel.sorted(), expected, "seed {seed}");
                for kb in &kbs {
                    kb.check_invariants();
                }
            }
        }
        assert!(shared > 0, "some seed's hunt shares b = c");
    }

    #[test]
    fn single_evaluations_are_qfilter_probes_only() {
        for policy in [Some(MdUpdatePolicy::PartialOnly), None] {
            let (mut kbs, oracle) = scenario(400, &[8, 8], 5);
            let counting = Counting::new(&oracle);
            let preds = range_preds(&[(40, 120), (60, 150)]);
            let mut rng = StdRng::seed_from_u64(6);
            let sel = run(
                &mut to_dims(&mut kbs, &pairs(&preds)),
                &counting,
                &mut rng,
                policy,
            )
            .expect("clean");
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
        assert!(!order_halves(3, 1, |rk| Some(rk != 0)));
        // Left neighbour T-homogeneous → true half left.
        assert!(order_halves(3, 1, |_| Some(true)));
    }

    #[test]
    fn right_neighbor_used_when_no_left() {
        // rank 0: right neighbour T-homogeneous → true half goes right.
        assert!(!order_halves(3, 0, |_| Some(true)));
        assert!(order_halves(3, 0, |_| Some(false)));
    }

    #[test]
    fn unconstrained_first_split() {
        assert!(!order_halves(1, 0, |_| None));
    }
}
