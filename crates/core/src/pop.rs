//! Partial order partitions (POP) — Definition 4.2 of the paper.
//!
//! A `Pop` is an ordered sequence of disjoint, non-empty partitions of tuple
//! ids with the invariant `P₁ ↦ P₂ ↦ … ↦ P_k`: all plain values in `Pᵢ` lie
//! strictly on one side of all plain values in `Pⱼ` (i ≠ j), with the global
//! direction (ascending vs descending) unknown to the service provider.
//!
//! Partitions carry **stable ids** ([`PartId`]) so that splits (which shift
//! ranks) do not invalidate references held elsewhere (separators, overflow
//! intervals). Rank ↔ id translation is O(1) both ways.
//!
//! Each partition's members are kept in **ascending tuple id**, the order a
//! snapshot load rebuilds. A split therefore needs only one bit per member
//! ([`SplitBits`]) to say which half each goes to, and the bits mean the
//! same thing on the live KB and on one recovered from disk.

use prkb_edbms::TupleId;
use rand::Rng;

/// Stable identifier of a partition (survives rank shifts; never reused).
pub(crate) type PartId = u32;

/// Sentinel: tuple is not placed in any partition.
const NO_PART: PartId = PartId::MAX;
/// Sentinel rank for dead partitions.
const DEAD_RANK: u32 = u32::MAX;

/// The partial-order-partitions structure.
#[derive(Debug, Clone)]
pub struct Pop {
    /// rank → partition id.
    order: Vec<PartId>,
    /// partition id → current rank (DEAD_RANK when the partition is gone).
    rank: Vec<u32>,
    /// partition id → member tuple ids, ascending.
    members: Vec<Vec<TupleId>>,
    /// tuple slot → partition id (NO_PART when unplaced/deleted).
    locate: Vec<PartId>,
    /// Number of placed tuples.
    placed: usize,
}

impl Pop {
    /// `initPRKB`: all `n` tuples in one big partition (POP₁). With `n == 0`
    /// the structure starts with zero partitions.
    pub(crate) fn init(n: usize) -> Self {
        if n == 0 {
            return Pop {
                order: Vec::new(),
                rank: Vec::new(),
                members: Vec::new(),
                locate: Vec::new(),
                placed: 0,
            };
        }
        Pop {
            order: vec![0],
            rank: vec![0],
            members: vec![(0..n as TupleId).collect()],
            locate: vec![0; n],
            placed: n,
        }
    }

    /// Number of partitions `k`.
    pub fn k(&self) -> usize {
        self.order.len()
    }

    /// Current rank of partition `id`, or `None` if it no longer exists.
    pub(crate) fn rank_of(&self, id: PartId) -> Option<usize> {
        match self.rank.get(id as usize) {
            Some(&r) if r != DEAD_RANK => Some(r as usize),
            _ => None,
        }
    }

    /// Members of the partition at `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= k()`.
    pub fn members_at(&self, rank: usize) -> &[TupleId] {
        &self.members[self.order[rank] as usize]
    }

    /// Uniformly random member of the partition at `rank`
    /// (`Pᵢ.sample` in the paper).
    ///
    /// # Panics
    /// Panics if `rank >= k()`.
    pub fn sample_at<R: Rng>(&self, rank: usize, rng: &mut R) -> TupleId {
        let m = self.members_at(rank);
        m[rng.gen_range(0..m.len())]
    }

    /// Partition id containing tuple `t`, or `None` if unplaced.
    pub(crate) fn locate(&self, t: TupleId) -> Option<PartId> {
        match self.locate.get(t as usize) {
            Some(&p) if p != NO_PART => Some(p),
            _ => None,
        }
    }

    /// Rank of the partition containing tuple `t`, or `None` if unplaced.
    pub fn rank_of_tuple(&self, t: TupleId) -> Option<usize> {
        self.locate(t).and_then(|p| self.rank_of(p))
    }

    /// Ensures the locate array covers tuple id `t` (grows with the table).
    pub(crate) fn ensure_slot(&mut self, t: TupleId) {
        if t as usize >= self.locate.len() {
            self.locate.resize(t as usize + 1, NO_PART);
        }
    }

    /// Splits the partition at `rank` into two adjacent partitions: member
    /// `i` (in ascending order) goes to the left half at `rank` when bit `i`
    /// of `left` is set, else to the right half at `rank + 1` — see
    /// [`split_into`](Self::split_into).
    ///
    /// # Panics
    /// Panics unless there is one bit per member and both halves are
    /// non-empty.
    pub(crate) fn split_at(&mut self, rank: usize, left: &SplitBits) -> (PartId, PartId) {
        let members = self.members_at(rank);
        assert_eq!(left.len(), members.len(), "one split bit per member");
        let ones = left.count_ones();
        assert!(
            ones > 0 && ones < left.len(),
            "split halves must be non-empty"
        );
        let halves = halves(members, left);
        self.split_into(rank, halves)
    }

    /// Splits the partition at `rank` into its members `left`, at `rank`,
    /// and `right`, at `rank + 1`, each ascending (a stable partition) at
    /// exact capacity. The larger half (the left on a tie) keeps the
    /// partition's id and the smaller moves in under a fresh id, so that only
    /// the smaller half's `locate` entries change.
    ///
    /// Returns `(id_left, id_right)`.
    ///
    /// # Panics
    /// Panics unless both halves are non-empty.
    pub(crate) fn split_into(&mut self, rank: usize, (left, right): Halves) -> (PartId, PartId) {
        assert!(
            !left.is_empty() && !right.is_empty(),
            "split halves must be non-empty"
        );
        let id = self.order[rank];
        debug_assert_eq!(
            left.len() + right.len(),
            self.members[id as usize].len(),
            "the halves hold the partition's members"
        );
        let new_id = self.members.len() as PartId;
        let keep_left = left.len() >= right.len();
        let (kept, moved) = if keep_left {
            (left, right)
        } else {
            (right, left)
        };
        for &t in &moved {
            self.locate[t as usize] = new_id;
        }
        self.members[id as usize] = kept;
        self.members.push(moved);
        let (id_left, id_right) = match keep_left {
            true => (id, new_id),
            false => (new_id, id),
        };
        self.order[rank] = id_left;
        self.order.insert(rank + 1, id_right);
        self.rank.push(DEAD_RANK);
        // Ranks from the split one on are renumbered.
        for r in rank..self.order.len() {
            self.rank[self.order[r] as usize] = r as u32;
        }
        (id_left, id_right)
    }

    /// Places an unplaced tuple into the partition at `rank`, at its place
    /// in ascending order (an append when `t` is the newest tuple).
    ///
    /// # Panics
    /// Panics if `t` is already placed.
    pub(crate) fn place(&mut self, t: TupleId, rank: usize) {
        self.ensure_slot(t);
        assert_eq!(self.locate[t as usize], NO_PART, "tuple {t} already placed");
        let id = self.order[rank];
        let members = &mut self.members[id as usize];
        members.insert(members.partition_point(|&x| x < t), t);
        self.locate[t as usize] = id;
        self.placed += 1;
    }

    /// Rebuilds a POP from per-tuple ranks (snapshot restore).
    ///
    /// `ranks[t]` is the partition rank of tuple `t`, or `u32::MAX` for an
    /// unplaced slot. Every rank in `0..k` must be non-empty.
    ///
    /// # Errors
    /// Returns a description of the first structural violation found.
    pub(crate) fn from_ranks(ranks: &[u32], k: usize) -> Result<Self, &'static str> {
        let mut members: Vec<Vec<TupleId>> = vec![Vec::new(); k];
        let mut locate = vec![NO_PART; ranks.len()];
        let mut placed = 0usize;
        for (t, &r) in ranks.iter().enumerate() {
            if r == u32::MAX {
                continue;
            }
            let Some(m) = members.get_mut(r as usize) else {
                return Err("rank out of range");
            };
            m.push(t as TupleId);
            locate[t] = r;
            placed += 1;
        }
        if members.iter().any(Vec::is_empty) {
            return Err("empty partition in snapshot");
        }
        Ok(Pop {
            order: (0..k as PartId).collect(),
            rank: (0..k as u32).collect(),
            members,
            locate,
            placed,
        })
    }

    /// Per-tuple ranks in snapshot form (`u32::MAX` = unplaced).
    pub(crate) fn to_ranks(&self) -> Vec<u32> {
        self.locate
            .iter()
            .map(|&p| {
                if p == NO_PART {
                    u32::MAX
                } else {
                    self.rank[p as usize]
                }
            })
            .collect()
    }

    /// Seeds an empty POP with its first partition, holding just `t`
    /// (insertion into a table that started empty).
    ///
    /// # Panics
    /// Panics if the POP already has partitions — with existing partitions a
    /// new tuple must be routed by separators, never appended blindly.
    pub(crate) fn add_solo_partition(&mut self, t: TupleId) {
        assert_eq!(self.k(), 0, "solo partition only seeds an empty POP");
        self.ensure_slot(t);
        let id = self.members.len() as PartId;
        self.order.push(id);
        self.rank.push(0);
        self.members.push(vec![t]);
        self.locate[t as usize] = id;
        self.placed += 1;
    }

    /// Removes tuple `t`. If its partition becomes empty the partition is
    /// dropped and the former rank is returned in `RemoveOutcome::Emptied`.
    pub(crate) fn remove(&mut self, t: TupleId) -> RemoveOutcome {
        let Some(id) = self.locate(t) else {
            return RemoveOutcome::NotPlaced;
        };
        let members = &mut self.members[id as usize];
        let pos = members.binary_search(&t).expect("locate and members agree");
        members.remove(pos);
        self.locate[t as usize] = NO_PART;
        self.placed -= 1;
        if members.is_empty() {
            let r = self.rank[id as usize] as usize;
            self.order.remove(r);
            self.rank[id as usize] = DEAD_RANK;
            for rr in r..self.order.len() {
                self.rank[self.order[rr] as usize] = rr as u32;
            }
            RemoveOutcome::Emptied { rank: r }
        } else {
            RemoveOutcome::Removed
        }
    }

    /// Serialized storage footprint in bytes: the canonical representation
    /// is one partition id per tuple slot (4 bytes) plus the order list
    /// (4 bytes per partition) — the member lists are derivable and not
    /// counted, matching the paper's "partition information" accounting.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.locate.len() * 4 + self.order.len() * 4
    }

    /// Validates all structural invariants — partitions non-empty, disjoint
    /// and ascending, rank table consistent, locate consistent — reporting the first
    /// violated one instead of asserting, so untrusted input (e.g. a
    /// snapshot read from disk) can be rejected gracefully.
    ///
    /// # Errors
    /// A short description of the first violated invariant.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        let mut seen = std::collections::HashSet::new();
        for (r, &id) in self.order.iter().enumerate() {
            if self.rank.get(id as usize).copied() != Some(r as u32) {
                return Err("rank table broken");
            }
            let Some(m) = self.members.get(id as usize) else {
                return Err("order references unknown partition");
            };
            if m.is_empty() {
                return Err("empty partition");
            }
            if m.windows(2).any(|w| w[0] >= w[1]) {
                return Err("partition not ascending");
            }
            for &t in m {
                if !seen.insert(t) {
                    return Err("tuple in two partitions");
                }
                if self.locate.get(t as usize).copied() != Some(id) {
                    return Err("locate table broken");
                }
            }
        }
        if seen.len() != self.placed {
            return Err("placed count broken");
        }
        for (t, &p) in self.locate.iter().enumerate() {
            if p != NO_PART && !seen.contains(&(t as TupleId)) {
                return Err("ghost placement");
            }
        }
        Ok(())
    }
}

/// A split partition's members: the left half's, then the right half's.
pub(crate) type Halves = (Vec<TupleId>, Vec<TupleId>);

/// The `members` whose bit in `bits` is set, and the rest, each in order at
/// exact capacity.
///
/// Branch-free, as the bits are scattered in id order: every member is
/// written at both halves' cursors and only its own half's cursor advances.
/// While each half still has a member to come, neither cursor can pass its
/// half's end; the members after the first half is complete all belong to
/// the other, and go as one copy.
///
/// # Panics
/// Panics unless both halves are non-empty.
pub(crate) fn halves(members: &[TupleId], bits: &SplitBits) -> Halves {
    let last_set = bits.last(true).expect("a member whose bit is set");
    let last_clear = bits.last(false).expect("a member whose bit is clear");
    let both = last_set.min(last_clear) + 1;
    let ones = bits.count_ones();
    let (mut set, mut clear) = (vec![0; ones], vec![0; members.len() - ones]);
    let (mut s, mut c) = (0, 0);
    let mut put = |t: TupleId, bit: usize| {
        set[s] = t;
        clear[c] = t;
        s += bit;
        c += 1 - bit;
    };
    for (eight, &byte) in members[..both].chunks(8).zip(bits.as_bytes()) {
        let mut byte = usize::from(byte);
        // A whole eight has a fixed length, so its loop unrolls.
        match <[TupleId; 8]>::try_from(eight) {
            Ok(eight) => eight.into_iter().for_each(|t| {
                put(t, byte & 1);
                byte >>= 1;
            }),
            Err(_) => eight.iter().for_each(|&t| {
                put(t, byte & 1);
                byte >>= 1;
            }),
        }
    }
    let tail = &members[both..];
    match last_set > last_clear {
        true => set[s..].copy_from_slice(tail),
        false => clear[c..].copy_from_slice(tail),
    }
    (set, clear)
}

/// Result of [`Pop::remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemoveOutcome {
    /// The tuple was not placed anywhere (overflow or already deleted).
    NotPlaced,
    /// Removed; the partition still has members.
    Removed,
    /// Removed and the partition at the given (former) rank became empty
    /// and was dropped.
    Emptied {
        /// Rank the emptied partition had before removal.
        rank: usize,
    },
}

/// One bit per member of a partition, indexed in the partition's ascending
/// member order: bit `i` set puts the `i`-th smallest member in the left
/// half of a split. This is all a split record carries besides its rank and
/// separator — ⌈n/8⌉ bytes, least significant bit first, padding bits
/// clear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitBits {
    len: usize,
    bytes: Vec<u8>,
}

impl SplitBits {
    /// Empty, with room for `n` bits.
    pub(crate) fn with_capacity(n: usize) -> Self {
        SplitBits {
            len: 0,
            bytes: Vec::with_capacity(n.div_ceil(8)),
        }
    }

    /// `len` bits from their packed bytes (a decoded record).
    ///
    /// # Errors
    /// When `bytes` is not ⌈len/8⌉ long or a padding bit is set.
    pub(crate) fn from_bytes(len: usize, bytes: &[u8]) -> Result<Self, &'static str> {
        if bytes.len() != len.div_ceil(8) {
            return Err("split bitmap length");
        }
        if bytes
            .last()
            .is_some_and(|&b| !len.is_multiple_of(8) && b >> (len % 8) != 0)
        {
            return Err("split bitmap padding");
        }
        Ok(SplitBits {
            len,
            bytes: bytes.to_vec(),
        })
    }

    /// One bit per verdict, set where it equals `left`: eight verdicts
    /// packed into a byte by one multiply, with no branch on a verdict.
    pub(crate) fn from_verdicts(verdicts: &[bool], left: bool) -> Self {
        // Byte `i` of a little-endian word, 0 or 1, lands at bit 56 + i.
        const GATHER: u64 = 0x0102_0408_1020_4080;
        let flip = if left { 0 } else { u8::MAX };
        let pack = |eight: [bool; 8]| {
            let lanes = u64::from_le_bytes(eight.map(u8::from));
            (lanes.wrapping_mul(GATHER) >> 56) as u8 ^ flip
        };
        let mut eights = verdicts.chunks_exact(8);
        let mut bytes = Vec::with_capacity(verdicts.len().div_ceil(8));
        bytes.extend((&mut eights).map(|e| pack(e.try_into().expect("8 verdicts"))));
        let rest = eights.remainder();
        if !rest.is_empty() {
            let mut eight = [false; 8];
            eight[..rest.len()].copy_from_slice(rest);
            bytes.push(pack(eight) & ((1 << rest.len()) - 1));
        }
        SplitBits {
            len: verdicts.len(),
            bytes,
        }
    }

    /// Appends one bit.
    pub(crate) fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        self.bytes[self.len / 8] |= u8::from(bit) << (self.len % 8);
        self.len += 1;
    }

    /// Number of bits (members of the split partition).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of set bits (members of the left half), a word at a time:
    /// without `popcnt` in the baseline target a count is a software
    /// sequence, so eight bytes share one.
    pub(crate) fn count_ones(&self) -> usize {
        let mut words = self.bytes.chunks_exact(8);
        let whole: u32 = (&mut words)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")).count_ones())
            .sum();
        let tail: u32 = words.remainder().iter().map(|b| b.count_ones()).sum();
        (whole + tail) as usize
    }

    /// The index of the last bit equal to `bit`, if any.
    pub(crate) fn last(&self, bit: bool) -> Option<usize> {
        let flip = if bit { 0 } else { u8::MAX };
        let (bytes, tail) = (self.bytes.len(), self.len % 8);
        self.bytes.iter().enumerate().rev().find_map(|(at, &b)| {
            let valid = match at + 1 == bytes && tail != 0 {
                true => (1 << tail) - 1,
                false => u8::MAX,
            };
            let hits = (b ^ flip) & valid;
            (hits != 0).then(|| at * 8 + 7 - hits.leading_zeros() as usize)
        })
    }

    /// The packed bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl FromIterator<bool> for SplitBits {
    fn from_iter<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits = bits.into_iter();
        let mut out = SplitBits::with_capacity(bits.size_hint().0);
        bits.for_each(|bit| out.push(bit));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Splits the partition at `rank` so that exactly `left` goes left.
    fn split(pop: &mut Pop, rank: usize, left: &[TupleId]) -> (PartId, PartId) {
        let bits = pop.members_at(rank).iter().map(|t| left.contains(t));
        pop.split_at(rank, &bits.collect())
    }

    #[test]
    fn init_single_partition() {
        let pop = Pop::init(5);
        assert_eq!(pop.k(), 1);
        assert_eq!(pop.placed, 5);
        assert_eq!(pop.members_at(0), &[0, 1, 2, 3, 4]);
        assert_eq!(pop.rank_of_tuple(3), Some(0));
        pop.validate().unwrap();
    }

    #[test]
    fn init_empty() {
        let pop = Pop::init(0);
        assert_eq!(pop.k(), 0);
        assert_eq!(pop.placed, 0);
        pop.validate().unwrap();
    }

    #[test]
    fn split_preserves_order_and_ids() {
        let mut pop = Pop::init(6);
        let (left, right) = split(&mut pop, 0, &[0, 1, 2]);
        assert_eq!(pop.k(), 2);
        assert_eq!(pop.members_at(0), &[0, 1, 2]);
        assert_eq!(pop.members_at(1), &[3, 4, 5]);
        assert_eq!(pop.rank_of(left), Some(0));
        assert_eq!(pop.rank_of(right), Some(1));
        assert_eq!(pop.rank_of_tuple(4), Some(1));
        pop.validate().unwrap();

        // Split the middle; ranks shift.
        let (a, b) = split(&mut pop, 1, &[4]);
        assert_eq!(pop.k(), 3);
        assert_eq!(pop.members_at(1), &[4]);
        assert_eq!(pop.members_at(2), &[3, 5]);
        assert_eq!(pop.rank_of(a), Some(1));
        assert_eq!(pop.rank_of(b), Some(2));
        pop.validate().unwrap();

        // Splitting rank 0 shifts everything after it.
        split(&mut pop, 0, &[0]);
        assert_eq!(pop.k(), 4);
        assert_eq!(pop.members_at(0), &[0]);
        assert_eq!(pop.members_at(1), &[1, 2]);
        assert_eq!(pop.members_at(2), &[4]);
        assert_eq!(pop.members_at(3), &[3, 5]);
        pop.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn split_rejects_empty_half() {
        let mut pop = Pop::init(3);
        split(&mut pop, 0, &[]);
    }

    #[test]
    fn sample_is_a_member() {
        let mut pop = Pop::init(10);
        split(&mut pop, 0, &[0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = pop.sample_at(0, &mut rng);
            assert!(s < 3);
            let s = pop.sample_at(1, &mut rng);
            assert!((3..10).contains(&s));
        }
    }

    #[test]
    fn remove_and_empty_partition() {
        let mut pop = Pop::init(4);
        split(&mut pop, 0, &[0]);
        assert_eq!(pop.remove(1), RemoveOutcome::Removed);
        assert_eq!(pop.remove(1), RemoveOutcome::NotPlaced);
        assert_eq!(pop.remove(0), RemoveOutcome::Emptied { rank: 0 });
        assert_eq!(pop.k(), 1);
        assert_eq!(pop.members_at(0), &[2, 3], "an ordered remove");
        assert_eq!(pop.placed, 2);
        pop.validate().unwrap();
    }

    #[test]
    fn place_new_tuple() {
        let mut pop = Pop::init(3);
        split(&mut pop, 0, &[0]);
        pop.place(7, 1);
        assert_eq!(pop.rank_of_tuple(7), Some(1));
        assert_eq!(pop.placed, 4);
        pop.remove(1);
        pop.place(1, 1);
        assert_eq!(pop.members_at(1), &[1, 2, 7], "placed in order");
        pop.validate().unwrap();
    }

    #[test]
    fn validate_refuses_an_unordered_partition() {
        let mut pop = Pop::init(3);
        pop.members[0].swap(0, 2);
        assert_eq!(pop.validate(), Err("partition not ascending"));
    }

    #[test]
    fn split_bits_pack_lsb_first() {
        let bits: SplitBits = [true, false, false, true, true, false, false, false, true]
            .into_iter()
            .collect();
        assert_eq!((bits.len(), bits.count_ones()), (9, 4));
        assert_eq!(bits.as_bytes(), &[0b0001_1001, 0b1]);
        assert_eq!(SplitBits::from_bytes(9, bits.as_bytes()), Ok(bits));
        assert!(SplitBits::from_bytes(9, &[0xff]).is_err(), "short");
        assert!(
            SplitBits::from_bytes(9, &[0, 0b10]).is_err(),
            "padding bit set"
        );
        assert!(SplitBits::from_bytes(0, &[]).is_ok());
    }

    /// The bit-by-bit `push` loop the packed constructor replaced.
    fn pushed(verdicts: &[bool], left: bool) -> SplitBits {
        let mut bits = SplitBits::with_capacity(verdicts.len());
        verdicts.iter().for_each(|&v| bits.push(v == left));
        bits
    }

    /// The packed constructor, the word-wise `count_ones` and `last` equal
    /// the `push` loop and a count and a search bit by bit, at every length
    /// across two words, for mixed, all-true and all-false verdicts.
    #[test]
    fn packed_split_bits_equal_the_push_loop() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in 0..=130 {
            let mixed: Vec<bool> = (0..len).map(|_| rng.gen_range(0..2) == 1).collect();
            for verdicts in [mixed, vec![true; len], vec![false; len]] {
                for left in [false, true] {
                    let reference = pushed(&verdicts, left);
                    let packed = SplitBits::from_verdicts(&verdicts, left);
                    assert_eq!(packed, reference, "len {len}, left {left}");
                    let is_left: Vec<bool> = verdicts.iter().map(|&v| v == left).collect();
                    let ones = is_left.iter().filter(|&&b| b).count();
                    assert_eq!(packed.count_ones(), ones, "len {len}");
                    for bit in [false, true] {
                        let last = is_left.iter().rposition(|&b| b == bit);
                        assert_eq!(packed.last(bit), last, "len {len}, bit {bit}");
                    }
                }
            }
        }
    }

    /// `split_at` equals two filters of the members by their bits, split
    /// after split from one partition: each half's members in order, at
    /// exact capacity, every tuple's rank (so `locate`), and the invariants.
    #[test]
    fn split_at_equals_two_filters() {
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..3_000);
            let mut pop = Pop::init(n);
            // A skewed share now and then, so one half is a long tail.
            let share = [1, 2, 50, 98, 99][seed as usize % 5];
            for _ in 0..40 {
                let splittable: Vec<usize> = (0..pop.k())
                    .filter(|&r| pop.members_at(r).len() > 1)
                    .collect();
                let Some(&rank) = splittable.get(rng.gen_range(0..splittable.len().max(1))) else {
                    break;
                };
                let members = pop.members_at(rank).to_vec();
                let mut bits: Vec<bool> = members
                    .iter()
                    .map(|_| rng.gen_range(0..100) < share)
                    .collect();
                let flip = rng.gen_range(0..members.len());
                if bits.iter().all(|&b| b == bits[0]) {
                    bits[flip] = !bits[0];
                }
                let left: Vec<TupleId> = members
                    .iter()
                    .zip(&bits)
                    .filter(|e| *e.1)
                    .map(|e| *e.0)
                    .collect();
                let right: Vec<TupleId> = members
                    .iter()
                    .zip(&bits)
                    .filter(|e| !*e.1)
                    .map(|e| *e.0)
                    .collect();
                let goes_left: std::collections::HashSet<TupleId> = left.iter().copied().collect();
                let before: Vec<Option<usize>> =
                    (0..n as TupleId).map(|t| pop.rank_of_tuple(t)).collect();

                let (id_left, id_right) = pop.split_at(rank, &pushed(&bits, true));
                assert_eq!(pop.members_at(rank), left);
                assert_eq!(pop.members_at(rank + 1), right);
                assert_eq!(
                    (pop.rank_of(id_left), pop.rank_of(id_right)),
                    (Some(rank), Some(rank + 1))
                );
                for id in [id_left, id_right] {
                    let half = &pop.members[id as usize];
                    assert_eq!(half.capacity(), half.len(), "exact capacity");
                }
                for (t, was) in (0..n as TupleId).zip(before) {
                    let now = match was {
                        Some(r) if r < rank => Some(r),
                        Some(r) if r > rank => Some(r + 1),
                        Some(_) if goes_left.contains(&t) => Some(rank),
                        Some(_) => Some(rank + 1),
                        None => None,
                    };
                    assert_eq!(pop.rank_of_tuple(t), now, "tuple {t}");
                }
                pop.validate().unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_place_rejected() {
        let mut pop = Pop::init(3);
        pop.place(0, 0);
    }

    #[test]
    fn storage_accounting() {
        let pop = Pop::init(1000);
        assert_eq!(pop.storage_bytes(), 1000 * 4 + 4);
    }

    #[test]
    fn ranks_roundtrip() {
        let mut pop = Pop::init(6);
        split(&mut pop, 0, &[0, 1, 2]);
        split(&mut pop, 1, &[4]);
        pop.remove(2);
        let ranks = pop.to_ranks();
        assert_eq!(ranks[2], u32::MAX, "removed tuple unplaced");
        let rebuilt = Pop::from_ranks(&ranks, pop.k()).expect("roundtrip");
        rebuilt.validate().unwrap();
        assert_eq!(rebuilt.k(), pop.k());
        for t in 0..6u32 {
            assert_eq!(rebuilt.rank_of_tuple(t), pop.rank_of_tuple(t), "tuple {t}");
        }
    }

    #[test]
    fn from_ranks_rejects_garbage() {
        assert!(Pop::from_ranks(&[0, 5], 2).is_err(), "rank out of range");
        assert!(Pop::from_ranks(&[0, 0], 2).is_err(), "empty partition");
        assert!(Pop::from_ranks(&[u32::MAX], 0).expect("empty ok").k() == 0);
    }

    #[test]
    fn remove_first_and_last_rank_partitions() {
        let mut pop = Pop::init(3);
        split(&mut pop, 0, &[0]);
        split(&mut pop, 1, &[1]);
        assert_eq!(pop.remove(0), RemoveOutcome::Emptied { rank: 0 });
        assert_eq!(pop.k(), 2);
        assert_eq!(pop.rank_of_tuple(1), Some(0));
        assert_eq!(pop.remove(2), RemoveOutcome::Emptied { rank: 1 });
        assert_eq!(pop.k(), 1);
        pop.validate().unwrap();
    }
}
