//! The per-attribute past-result knowledge base.
//!
//! [`Knowledge`] bundles the POP (§4) with the two pieces of bookkeeping the
//! paper's update/insert paths need:
//!
//! * **Separators** (§7.1): the retained inequivalent trapdoors, ordered so
//!   that `seps[i]` is the cut between ranks `i` and `i + 1`. Each knows
//!   which QPF label identifies its *left* side, which is what makes the
//!   O(lg k) insertion binary search possible. Cuts created by BETWEEN
//!   trapdoors are retained too but answer insertions only partially (a `0`
//!   output does not say which side — see [`Separator::side_of`]).
//! * **Overflow** (our documented extension, DESIGN.md §7): tuples whose
//!   exact partition is ambiguous (possible only via BETWEEN-derived cuts)
//!   are parked with a candidate rank interval, always scanned by queries,
//!   and promoted into the POP as soon as some cut pins them down.

use crate::pop::{Pop, RemoveOutcome, SplitBits};
use crate::traits::SpPredicate;
use prkb_edbms::TupleId;

/// Which side of a BETWEEN range a cut delimits, in rank order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BetweenEdge {
    /// The range's interior lies to the *right* of this cut (higher ranks).
    InteriorRight,
    /// The range's interior lies to the *left* of this cut (lower ranks).
    InteriorLeft,
}

/// A retained cut between two adjacent ranks.
#[derive(Debug, Clone)]
pub enum Separator<P> {
    /// A comparison trapdoor: output == `left_label` ⟺ the tuple belongs to
    /// the left side (lower ranks).
    Cmp {
        /// The retained trapdoor.
        pred: P,
        /// QPF output identifying the left side.
        left_label: bool,
    },
    /// A cut contributed by a BETWEEN trapdoor. Output `1` means "inside
    /// the range", which pins the side relative to this edge; output `0`
    /// means "outside" which this edge alone cannot lateralize.
    Between {
        /// The retained trapdoor.
        pred: P,
        /// Which side of this cut the range's interior lies on.
        edge: BetweenEdge,
    },
}

/// Answer of probing a separator with a new tuple's QPF output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The tuple's value lies left of the cut (lower ranks).
    Left,
    /// The tuple's value lies right of the cut (higher ranks).
    Right,
    /// This separator cannot lateralize the tuple (BETWEEN edge, output 0).
    Unknown,
}

impl<P: SpPredicate> Separator<P> {
    /// The retained trapdoor.
    pub(crate) fn pred(&self) -> &P {
        match self {
            Separator::Cmp { pred, .. } | Separator::Between { pred, .. } => pred,
        }
    }

    /// Interprets QPF output `out` for a new tuple probed at this separator.
    pub(crate) fn side_of(&self, out: bool) -> Side {
        match self {
            Separator::Cmp { left_label, .. } => {
                if out == *left_label {
                    Side::Left
                } else {
                    Side::Right
                }
            }
            Separator::Between { edge, .. } => match (edge, out) {
                // Inside the range: the interior side is known.
                (BetweenEdge::InteriorRight, true) => Side::Right,
                (BetweenEdge::InteriorLeft, true) => Side::Left,
                // Outside: could be either side of this edge's cut.
                (_, false) => Side::Unknown,
            },
        }
    }

    /// Storage footprint of retaining this separator.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.pred().storage_bytes() + 1
    }
}

/// An unplaced tuple with its candidate rank interval (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OverflowEntry {
    /// The parked tuple.
    pub tuple: TupleId,
    /// Lowest candidate rank.
    pub lo: usize,
    /// Highest candidate rank.
    pub hi: usize,
}

/// One primitive, replayable PRKB mutation.
///
/// Every public mutator of [`Knowledge`] corresponds to exactly one variant;
/// applying a recorded op to a byte-identical knowledge base (via
/// [`Knowledge::try_apply_op`]) reproduces the mutation exactly, member
/// order included. This is the unit the durability layer journals: a
/// committed query drains its ops into one write-ahead-log transaction, and
/// recovery replays them.
#[derive(Debug, Clone)]
pub enum RefinementOp<P> {
    /// `Knowledge::apply_split`: split the partition at `rank` by the
    /// verdicts the query already paid for — one bit per member, in
    /// ascending tuple-id order, set for the members that go left. The
    /// members themselves are not recorded: the partition being split
    /// holds them.
    Split {
        /// Rank of the split partition.
        rank: usize,
        /// Which members go to the left half.
        left: SplitBits,
        /// The separator retained at the new cut, if any.
        sep: Option<Separator<P>>,
    },
    /// [`Knowledge::delete`]: remove a tuple.
    Delete {
        /// The removed tuple.
        tuple: TupleId,
    },
    /// [`Knowledge::park`]: park a tuple in overflow.
    Park {
        /// The parked tuple.
        tuple: TupleId,
        /// Lowest candidate rank.
        lo: usize,
        /// Highest candidate rank.
        hi: usize,
    },
    /// `Knowledge::place`: place a tuple at a known rank.
    Place {
        /// The placed tuple.
        tuple: TupleId,
        /// Rank of the receiving partition.
        rank: usize,
    },
    /// `Knowledge::apply_solo`: first tuple of an empty knowledge base.
    Solo {
        /// The tuple opening the solo partition.
        tuple: TupleId,
    },
    /// `Knowledge::refine_overflow`, with the oracle outputs that were
    /// actually consumed materialized as `(tuple, Θ(p, t))` pairs — replay
    /// must not (and cannot) re-ask the oracle.
    Refine {
        /// Boundary index of the refining cut.
        cut: usize,
        /// QPF output identifying the cut's left side.
        left_label: bool,
        /// The resolved outputs, one per overflow tuple whose interval the
        /// cut moved or whose tuple it promoted.
        outputs: Vec<(TupleId, bool)>,
    },
}

impl<P> RefinementOp<P> {
    /// Whether the op is *derived* knowledge — a refinement SP can re-derive
    /// from QPF outputs it will see again (§5.3), so losing it to a crash
    /// costs QPF, never an answer — as opposed to a *fact* (a tuple arrived
    /// or left) that nothing can re-derive. The durable commit path defers
    /// the fsync of a batch of derived ops and waits out a fact's.
    /// Exhaustive on purpose: a new variant must decide.
    pub(crate) fn is_derived(&self) -> bool {
        match self {
            RefinementOp::Split { .. } | RefinementOp::Refine { .. } => true,
            RefinementOp::Delete { .. }
            | RefinementOp::Park { .. }
            | RefinementOp::Place { .. }
            | RefinementOp::Solo { .. } => false,
        }
    }
}

/// PRKB state for one attribute.
#[derive(Debug, Clone)]
pub struct Knowledge<P> {
    pop: Pop,
    seps: Vec<Option<Separator<P>>>,
    overflow: Vec<OverflowEntry>,
    /// Ops recorded since the last [`take_ops`](Self::take_ops) drain.
    /// Empty unless [`set_recording`](Self::set_recording) enabled the
    /// journal (it is off by default: non-durable engines pay nothing).
    journal: Vec<RefinementOp<P>>,
    recording: bool,
}

impl<P: SpPredicate> Knowledge<P> {
    /// `initPRKB(T)`: an empty knowledge base over `n` tuples.
    pub fn init(n: usize) -> Self {
        Knowledge {
            pop: Pop::init(n),
            seps: Vec::new(),
            overflow: Vec::new(),
            journal: Vec::new(),
            recording: false,
        }
    }

    /// The partial order partitions.
    pub fn pop(&self) -> &Pop {
        &self.pop
    }

    /// Number of partitions `k`.
    pub fn k(&self) -> usize {
        self.pop.k()
    }

    /// The separator at boundary `i` (between ranks `i` and `i + 1`), if
    /// one is retained there.
    pub(crate) fn sep(&self, i: usize) -> Option<&Separator<P>> {
        self.seps.get(i).and_then(Option::as_ref)
    }

    /// Currently parked overflow tuples.
    pub(crate) fn overflow(&self) -> &[OverflowEntry] {
        &self.overflow
    }

    /// Whether `t` is indexed here, placed or parked.
    pub(crate) fn indexes(&self, t: TupleId) -> bool {
        self.pop.locate(t).is_some() || self.overflow.iter().any(|e| e.tuple == t)
    }

    /// Splits the partition at `rank`: the members whose bit in `left` is
    /// set (in ascending member order) form the left half, the rest the
    /// right, and `sep` is retained as the new cut between them. Live
    /// commits and WAL replay both come through here.
    ///
    /// Maintains separator alignment and overflow intervals. Callers are
    /// responsible for having oriented `left` per the update rule (§5.3 /
    /// DESIGN.md §7).
    pub(crate) fn apply_split(&mut self, rank: usize, left: SplitBits, sep: Option<Separator<P>>) {
        self.pop.split_at(rank, &left);
        if self.recording {
            self.journal.push(RefinementOp::Split {
                rank,
                left,
                sep: sep.clone(),
            });
        }
        self.seps.insert(rank, sep);
        debug_assert_eq!(self.seps.len() + 1, self.pop.k());
        for e in &mut self.overflow {
            // Old rank r > rank maps to r+1; old `rank` maps to {rank, rank+1}.
            if e.lo > rank {
                e.lo += 1;
            }
            if e.hi >= rank {
                e.hi += 1;
            }
        }
    }

    /// Deletes tuple `t` (§7.2). If its partition empties, the partition is
    /// dropped along with one adjacent separator; overflow intervals are
    /// remapped conservatively. A tuple the knowledge does not index (never
    /// placed, or already deleted) changes nothing and journals nothing.
    pub fn delete(&mut self, t: TupleId) {
        // Parked tuples can be deleted too.
        let outcome = match self.overflow.iter().position(|e| e.tuple == t) {
            Some(pos) => {
                self.overflow.swap_remove(pos);
                RemoveOutcome::Removed
            }
            None => self.pop.remove(t),
        };
        if outcome == RemoveOutcome::NotPlaced {
            return;
        }
        if self.recording {
            self.journal.push(RefinementOp::Delete { tuple: t });
        }
        let RemoveOutcome::Emptied { rank } = outcome else {
            return;
        };
        // k already decremented inside pop. Drop one adjacent separator to
        // restore alignment: the right one, so the emptied value range
        // merges into the right neighbour (into the left neighbour when the
        // last partition died).
        let merged_into = if rank < self.seps.len() {
            self.seps.remove(rank);
            rank
        } else if !self.seps.is_empty() {
            self.seps.remove(rank - 1);
            rank.saturating_sub(1)
        } else {
            0
        };
        let k = self.pop.k();
        for e in &mut self.overflow {
            if e.lo > rank {
                e.lo -= 1;
            } else if e.lo == rank {
                e.lo = merged_into.min(k.saturating_sub(1));
            }
            if e.hi > rank {
                e.hi -= 1;
            } else if e.hi == rank {
                e.hi = merged_into.min(k.saturating_sub(1));
            }
            if e.hi < e.lo {
                e.hi = e.lo;
            }
        }
        debug_assert!(self.pop.k() == 0 || self.seps.len() + 1 == self.pop.k());
    }

    /// Parks a tuple whose candidate rank interval is `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if the interval is malformed or the tuple is already placed.
    pub fn park(&mut self, t: TupleId, lo: usize, hi: usize) {
        assert!(lo <= hi && hi < self.pop.k(), "malformed interval");
        assert!(self.pop.locate(t).is_none(), "tuple {t} already placed");
        if self.recording {
            self.journal.push(RefinementOp::Park { tuple: t, lo, hi });
        }
        self.pop.ensure_slot(t);
        self.overflow.push(OverflowEntry { tuple: t, lo, hi });
    }

    /// Places a tuple directly into the partition at `rank`.
    pub(crate) fn place(&mut self, t: TupleId, rank: usize) {
        if self.recording {
            self.journal.push(RefinementOp::Place { tuple: t, rank });
        }
        self.pop.place(t, rank);
    }

    /// Opens a solo partition for the first tuple of an empty knowledge
    /// base (the `Solo` arm of an insert, §7.1).
    ///
    /// # Panics
    /// Panics if the knowledge base already has partitions.
    pub(crate) fn apply_solo(&mut self, t: TupleId) {
        if self.recording {
            self.journal.push(RefinementOp::Solo { tuple: t });
        }
        self.pop.ensure_slot(t);
        self.pop.add_solo_partition(t);
    }

    /// Narrows overflow intervals using a cut: boundary `cut` (between ranks
    /// `cut` and `cut + 1`) with `outputs(t)` giving Θ(p, t) for each parked
    /// tuple and `left_label` identifying the left side. Tuples whose
    /// interval collapses are promoted into the POP.
    ///
    /// Contract: `cut` must be the boundary of a **retained separator**
    /// whose value threshold is the predicate just evaluated (i.e. a fresh
    /// split). Cuts from *equivalent* trapdoors must not be fed here: their
    /// thresholds can differ from the boundary's retained separator inside
    /// a deletion gap, and a parked tuple dwelling in that gap would receive
    /// contradictory index-space claims (violating `lo ≤ hi`).
    ///
    /// The journal records only the outputs that moved an interval or
    /// promoted its tuple — the others change nothing on replay — and no op
    /// at all when none did.
    pub(crate) fn refine_overflow(
        &mut self,
        cut: usize,
        left_label: bool,
        outputs: impl Fn(TupleId) -> Option<bool>,
    ) {
        let mut consumed: Vec<(TupleId, bool)> = Vec::new();
        let mut i = 0;
        while i < self.overflow.len() {
            let e = &mut self.overflow[i];
            if let Some(out) = outputs(e.tuple) {
                let before = (e.lo, e.hi);
                if out == left_label {
                    e.hi = e.hi.min(cut);
                } else {
                    e.lo = e.lo.max(cut + 1);
                }
                debug_assert!(
                    e.lo <= e.hi,
                    "overflow interval emptied: tuple {} interval now [{}, {}], cut {cut}, left_label {left_label}, out {out}, k {}",
                    e.tuple,
                    e.lo,
                    e.hi,
                    self.pop.k()
                );
                if self.recording && (e.lo == e.hi || (e.lo, e.hi) != before) {
                    consumed.push((e.tuple, out));
                }
                if e.lo == e.hi {
                    let entry = self.overflow.swap_remove(i);
                    self.pop.place(entry.tuple, entry.lo);
                    continue;
                }
            }
            i += 1;
        }
        if !consumed.is_empty() {
            // Recorded after the sweep (the op needs the materialized
            // outputs), which preserves op order: the sweep above never
            // touches the journal itself.
            self.journal.push(RefinementOp::Refine {
                cut,
                left_label,
                outputs: consumed,
            });
        }
    }

    /// Turns op journaling on or off. Off (the default), the mutators record
    /// nothing and non-durable engines pay no overhead; on, every committed
    /// mutation is queued for [`take_ops`](Self::take_ops).
    pub(crate) fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Drains the ops recorded since the previous drain, in commit order.
    pub(crate) fn take_ops(&mut self) -> Vec<RefinementOp<P>> {
        std::mem::take(&mut self.journal)
    }

    /// Replays one recorded op, exactly as the original mutation ran.
    ///
    /// Replay never re-records (a recovery pass must not journal the ops it
    /// is applying); the recording flag is restored afterwards.
    ///
    /// # Errors
    /// A short description, and nothing applied, when the op does not fit
    /// this knowledge base: a rank or cut past `k`, a split whose bitmap is
    /// not one bit per member or leaves a half empty, a placement of a tuple
    /// already indexed, a malformed interval, or a refinement that would
    /// empty one. A record that passed its checksum can still be all of
    /// these, and recovery must refuse it rather than panic.
    pub fn try_apply_op(&mut self, op: RefinementOp<P>) -> Result<(), &'static str> {
        self.fits(&op)?;
        let was = std::mem::replace(&mut self.recording, false);
        match op {
            RefinementOp::Split { rank, left, sep } => self.apply_split(rank, left, sep),
            RefinementOp::Delete { tuple } => self.delete(tuple),
            RefinementOp::Park { tuple, lo, hi } => self.park(tuple, lo, hi),
            RefinementOp::Place { tuple, rank } => self.place(tuple, rank),
            RefinementOp::Solo { tuple } => self.apply_solo(tuple),
            RefinementOp::Refine {
                cut,
                left_label,
                outputs,
            } => {
                let resolved: std::collections::HashMap<TupleId, bool> =
                    outputs.into_iter().collect();
                self.refine_overflow(cut, left_label, |t| resolved.get(&t).copied());
            }
        }
        self.recording = was;
        Ok(())
    }

    /// Whether `op` can be applied here without tripping an invariant.
    fn fits(&self, op: &RefinementOp<P>) -> Result<(), &'static str> {
        let k = self.pop.k();
        match op {
            RefinementOp::Split { rank, left, .. } => {
                if *rank >= k {
                    return Err("split rank out of range");
                }
                if left.len() != self.pop.members_at(*rank).len() {
                    return Err("split bitmap is not one bit per member");
                }
                let ones = left.count_ones();
                if ones == 0 || ones == left.len() {
                    return Err("split leaves a half empty");
                }
            }
            RefinementOp::Delete { .. } => {}
            RefinementOp::Park { tuple, lo, hi } => {
                if lo > hi || *hi >= k {
                    return Err("park interval out of range");
                }
                if self.indexes(*tuple) {
                    return Err("park of an indexed tuple");
                }
            }
            RefinementOp::Place { tuple, rank } => {
                if *rank >= k {
                    return Err("place rank out of range");
                }
                if self.indexes(*tuple) {
                    return Err("place of an indexed tuple");
                }
            }
            RefinementOp::Solo { tuple } => {
                if k != 0 || self.indexes(*tuple) {
                    return Err("solo on a non-empty knowledge base");
                }
            }
            RefinementOp::Refine {
                cut,
                left_label,
                outputs,
            } => {
                if cut.saturating_add(1) >= k {
                    return Err("refine cut out of range");
                }
                for &(t, out) in outputs {
                    let Some(e) = self.overflow.iter().find(|e| e.tuple == t) else {
                        continue;
                    };
                    if (out == *left_label && e.lo > *cut) || (out != *left_label && e.hi <= *cut) {
                        return Err("refine empties an overflow interval");
                    }
                }
            }
        }
        Ok(())
    }

    /// Storage footprint in bytes: the POP's canonical form, retained
    /// separators, and overflow entries.
    pub fn storage_bytes(&self) -> usize {
        self.pop.storage_bytes()
            + self
                .seps
                .iter()
                .map(|s| 1 + s.as_ref().map_or(0, Separator::storage_bytes))
                .sum::<usize>()
            + self.overflow.len() * (4 + 8 + 8)
    }

    /// Structural invariant check (tests): POP invariants plus separator
    /// alignment and overflow interval sanity.
    ///
    /// # Panics
    /// Panics on any violation. Untrusted input paths use the non-panicking
    /// [`validate`](Self::validate) instead.
    pub fn check_invariants(&self) {
        if let Err(what) = self.validate() {
            panic!("PRKB invariant violated: {what}");
        }
    }

    /// Non-panicking twin of [`check_invariants`](Self::check_invariants),
    /// for rejecting untrusted input (e.g. snapshots read from disk).
    ///
    /// # Errors
    /// A short description of the first violated invariant.
    pub fn validate(&self) -> Result<(), &'static str> {
        self.pop.validate()?;
        if self.pop.k() == 0 {
            if !self.seps.is_empty() {
                return Err("separators on an empty POP");
            }
        } else if self.seps.len() != self.pop.k() - 1 {
            return Err("separator alignment");
        }
        for e in &self.overflow {
            if e.lo > e.hi || e.hi >= self.pop.k() {
                return Err("overflow interval");
            }
            if self.pop.locate(e.tuple).is_some() {
                return Err("parked tuple placed");
            }
        }
        Ok(())
    }

    /// Raw parts for snapshotting.
    pub(crate) fn parts(&self) -> (&Pop, &[Option<Separator<P>>], &[OverflowEntry]) {
        (&self.pop, &self.seps, &self.overflow)
    }

    /// Reassembles a knowledge base from snapshot parts.
    pub(crate) fn from_raw(
        pop: Pop,
        seps: Vec<Option<Separator<P>>>,
        overflow: Vec<OverflowEntry>,
    ) -> Self {
        Knowledge {
            pop,
            seps,
            overflow,
            journal: Vec::new(),
            recording: false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prkb_edbms::{ComparisonOp, Predicate};
    use std::collections::HashSet;

    /// Splits the partition at `rank` so that exactly the members in `left`
    /// go left: the tests and the reference twins name halves by member.
    pub(crate) fn split<P: SpPredicate>(
        kb: &mut Knowledge<P>,
        rank: usize,
        left: &[TupleId],
        sep: Option<Separator<P>>,
    ) {
        let left: HashSet<TupleId> = left.iter().copied().collect();
        let bits = kb.pop().members_at(rank).iter().map(|t| left.contains(t));
        kb.apply_split(rank, bits.collect(), sep);
    }

    fn sep(bound: u64, left_label: bool) -> Separator<Predicate> {
        Separator::Cmp {
            pred: Predicate::cmp(0, ComparisonOp::Lt, bound),
            left_label,
        }
    }

    #[test]
    fn init_and_split() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(4);
        assert_eq!(kb.k(), 1);
        split(&mut kb, 0, &[0, 1], Some(sep(5, true)));
        assert_eq!(kb.k(), 2);
        assert_eq!(kb.seps.len(), 1);
        assert!(kb.sep(0).is_some());
        kb.check_invariants();
    }

    #[test]
    fn split_without_separator_keeps_alignment() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(4);
        split(&mut kb, 0, &[0, 1], None);
        assert!(kb.sep(0).is_none());
        assert_eq!(kb.seps.len(), 1);
        kb.check_invariants();
    }

    #[test]
    fn delete_empties_partition_and_drops_right_separator() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(3);
        split(&mut kb, 0, &[0], Some(sep(5, true)));
        split(&mut kb, 1, &[1], Some(sep(9, false)));
        assert_eq!(kb.k(), 3);
        // Empty the middle partition: its right separator (index 1) dies.
        kb.delete(1);
        assert_eq!(kb.k(), 2);
        assert_eq!(kb.seps.len(), 1);
        assert!(matches!(
            kb.sep(0),
            Some(Separator::Cmp {
                left_label: true,
                ..
            })
        ));
        kb.check_invariants();
    }

    #[test]
    fn delete_first_partition_drops_its_right_separator() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(3);
        split(&mut kb, 0, &[0], Some(sep(5, true)));
        split(&mut kb, 1, &[1], Some(sep(9, false)));
        kb.delete(0); // rank 0 empties → seps[0] (bound 5) is dropped
        assert_eq!(kb.k(), 2);
        assert!(matches!(
            kb.sep(0),
            Some(Separator::Cmp {
                left_label: false,
                ..
            })
        ));
        kb.check_invariants();
    }

    #[test]
    fn deleting_parked_tuple_removes_overflow_entry() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(4);
        split(&mut kb, 0, &[0, 1], Some(sep(5, true)));
        kb.park(9, 0, 1);
        kb.delete(9);
        assert!(kb.overflow().is_empty());
        kb.check_invariants();
    }

    #[test]
    fn deleting_an_unindexed_tuple_journals_nothing() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(9);
        split(&mut kb, 0, &[0, 1, 2], Some(sep(5, true)));
        kb.park(9, 0, 1);
        kb.set_recording(true);
        kb.delete(3);
        kb.delete(9);
        assert_eq!(kb.take_ops().len(), 2, "a placed and a parked delete");
        kb.delete(3);
        kb.delete(9);
        kb.delete(999);
        assert!(kb.take_ops().is_empty(), "repeated or out-of-range deletes");
        kb.check_invariants();
    }

    /// An op that does not fit the knowledge base is refused, and refusing
    /// it changes nothing: recovery reports it instead of panicking.
    #[test]
    fn a_misfit_op_is_refused_and_changes_nothing() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(8);
        split(&mut kb, 0, &[0, 1, 2, 3], Some(sep(5, true)));
        kb.park(9, 0, 1);
        kb.park(11, 1, 1);
        let before = crate::snapshot::save(&kb);
        let bits = |b: &[bool]| b.iter().copied().collect::<SplitBits>();
        let misfits = [
            RefinementOp::Split {
                rank: 999,
                left: bits(&[true, false]),
                sep: None,
            },
            RefinementOp::Split {
                rank: 0,
                left: bits(&[true, false, true]),
                sep: None,
            },
            RefinementOp::Split {
                rank: 1,
                left: bits(&[true; 4]),
                sep: None,
            },
            RefinementOp::Place { tuple: 3, rank: 0 },
            RefinementOp::Place { tuple: 9, rank: 0 },
            RefinementOp::Place { tuple: 10, rank: 2 },
            RefinementOp::Park {
                tuple: 10,
                lo: 1,
                hi: 0,
            },
            RefinementOp::Park {
                tuple: 10,
                lo: 0,
                hi: 2,
            },
            RefinementOp::Park {
                tuple: 2,
                lo: 0,
                hi: 1,
            },
            RefinementOp::Solo { tuple: 10 },
            RefinementOp::Refine {
                cut: 1,
                left_label: true,
                outputs: vec![(9, true)],
            },
            RefinementOp::Refine {
                cut: 0,
                left_label: true,
                outputs: vec![(11, true)],
            },
        ];
        for op in misfits {
            let what = format!("{op:?}");
            assert!(kb.try_apply_op(op).is_err(), "{what} was applied");
            assert_eq!(crate::snapshot::save(&kb), before, "{what} changed the KB");
        }
        kb.check_invariants();
    }

    #[test]
    fn overflow_remap_on_partition_removal() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(3);
        split(&mut kb, 0, &[0], Some(sep(5, true)));
        split(&mut kb, 1, &[1], Some(sep(9, true)));
        kb.park(7, 1, 2);
        // Empty the middle partition (rank 1): interval endpoints at the
        // removed rank remap to the merged-into rank.
        kb.delete(1);
        assert_eq!(kb.k(), 2);
        let e = kb.overflow()[0];
        assert_eq!(e.tuple, 7);
        assert!(e.lo <= e.hi && e.hi < kb.k(), "remapped interval {e:?}");
        kb.check_invariants();
    }

    #[test]
    fn delete_last_partition_drops_left_separator() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(2);
        split(&mut kb, 0, &[0], Some(sep(5, true)));
        kb.delete(1);
        assert_eq!(kb.k(), 1);
        assert_eq!(kb.seps.len(), 0);
        kb.check_invariants();
    }

    #[test]
    fn delete_everything() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(2);
        kb.delete(0);
        kb.delete(1);
        assert_eq!(kb.k(), 0);
        kb.check_invariants();
    }

    #[test]
    fn overflow_interval_tracks_splits() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(4);
        split(&mut kb, 0, &[0, 1], Some(sep(5, true)));
        kb.park(9, 0, 1);
        // Split rank 0: interval's hi at rank 1 shifts to 2; lo at 0 stays.
        split(&mut kb, 0, &[0], Some(sep(3, true)));
        assert_eq!(
            kb.overflow()[0],
            OverflowEntry {
                tuple: 9,
                lo: 0,
                hi: 2
            }
        );
        kb.check_invariants();
    }

    #[test]
    fn refine_overflow_places_tuple() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(4);
        split(&mut kb, 0, &[0, 1], Some(sep(5, true)));
        kb.park(9, 0, 1);
        // Cut at boundary 0, left label true; tuple answered false → right.
        kb.refine_overflow(0, true, |t| (t == 9).then_some(false));
        assert!(kb.overflow().is_empty());
        assert_eq!(kb.pop().rank_of_tuple(9), Some(1));
        kb.check_invariants();
    }

    #[test]
    fn refine_overflow_narrows_without_placing() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(6);
        split(&mut kb, 0, &[0, 1], Some(sep(5, true)));
        split(&mut kb, 1, &[2, 3], Some(sep(9, true)));
        kb.park(9, 0, 2);
        kb.refine_overflow(0, true, |t| (t == 9).then_some(false));
        assert_eq!(
            kb.overflow()[0],
            OverflowEntry {
                tuple: 9,
                lo: 1,
                hi: 2
            }
        );
        kb.check_invariants();
    }

    #[test]
    fn side_interpretation() {
        let s = sep(5, true);
        assert_eq!(s.side_of(true), Side::Left);
        assert_eq!(s.side_of(false), Side::Right);
        let b: Separator<Predicate> = Separator::Between {
            pred: Predicate::between(0, 2, 8),
            edge: BetweenEdge::InteriorRight,
        };
        assert_eq!(b.side_of(true), Side::Right);
        assert_eq!(b.side_of(false), Side::Unknown);
        let b2: Separator<Predicate> = Separator::Between {
            pred: Predicate::between(0, 2, 8),
            edge: BetweenEdge::InteriorLeft,
        };
        assert_eq!(b2.side_of(true), Side::Left);
        assert_eq!(b2.side_of(false), Side::Unknown);
    }

    #[test]
    fn storage_grows_with_separators() {
        let mut kb: Knowledge<Predicate> = Knowledge::init(100);
        let base = kb.storage_bytes();
        let left: Vec<TupleId> = (0..50).collect();
        split(&mut kb, 0, &left, Some(sep(5, true)));
        assert!(kb.storage_bytes() > base);
    }
}
