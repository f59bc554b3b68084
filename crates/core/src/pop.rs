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
    /// of `left` is set, else to the right half at `rank + 1`. Both halves
    /// keep ascending order (a stable partition); the left half stays in the
    /// partition's own `Vec` and the right half moves to a new one.
    ///
    /// Returns `(id_left, id_right)`: the partition at `rank` keeps the old
    /// id (so the left endpoint of any range that included it stays valid);
    /// the right half gets a fresh id.
    ///
    /// # Panics
    /// Panics unless there is one bit per member and both halves are
    /// non-empty.
    pub(crate) fn split_at(&mut self, rank: usize, left: &SplitBits) -> (PartId, PartId) {
        let id = self.order[rank];
        let members = &mut self.members[id as usize];
        assert_eq!(left.len(), members.len(), "one split bit per member");
        let ones = left.count_ones();
        assert!(
            ones > 0 && ones < left.len(),
            "split halves must be non-empty"
        );
        // Branch-free, as verdicts are scattered in id order: every member
        // is written to both halves and only its own half's cursor advances
        // (so `right` has one slot of slack).
        let n = members.len();
        let mut right = vec![0; n - ones + 1];
        let (mut l, mut r) = (0, 0);
        for (at, &byte) in (0..n).step_by(8).zip(left.as_bytes()) {
            let mut byte = usize::from(byte);
            for i in at..n.min(at + 8) {
                let (t, bit) = (members[i], byte & 1);
                byte >>= 1;
                members[l] = t;
                right[r] = t;
                l += bit;
                r += 1 - bit;
            }
        }
        members.truncate(l);
        members.shrink_to_fit();
        right.truncate(r);
        let new_id = self.members.len() as PartId;
        for &t in &right {
            self.locate[t as usize] = new_id;
        }
        self.members.push(right);
        self.rank.push((rank + 1) as u32);
        self.order.insert(rank + 1, new_id);
        // Ranks after the insertion point shift right.
        for r in (rank + 2)..self.order.len() {
            self.rank[self.order[r] as usize] = r as u32;
        }
        (id, new_id)
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

    /// Number of set bits (members of the left half).
    pub(crate) fn count_ones(&self) -> usize {
        self.bytes.iter().map(|b| b.count_ones() as usize).sum()
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
    use rand::SeedableRng;

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
