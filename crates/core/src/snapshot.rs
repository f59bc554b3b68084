//! Index persistence.
//!
//! A service provider restarts; PRKB must not be rebuilt from 600 full-scan
//! queries. The snapshot is the index's canonical serialized form — the very
//! representation [`Knowledge::storage_bytes`] accounts (one rank per tuple
//! slot, the retained separator trapdoors, the overflow entries) plus a
//! small header — so `snapshot.len()` and the Table 3 numbers agree up to
//! the header.
//!
//! Format (all little-endian):
//!
//! ```text
//! magic "PRKB" | version u16 | k u64 | n_slots u64
//! ranks: n_slots × u32 (u32::MAX = unplaced slot)
//! boundaries: (k-1) × { tag u8 | [payload] }
//!     tag 0 = no separator retained
//!     tag 1 = comparison, left_label=false   tag 2 = comparison, left_label=true
//!     tag 3 = BETWEEN edge interior-left     tag 4 = BETWEEN edge interior-right
//!     payload = predicate wire encoding (absent for tag 0)
//! overflow: count u32, then count × { tuple u32 | lo u64 | hi u64 }
//! ```

use crate::knowledge::{BetweenEdge, Knowledge, OverflowEntry, Separator};
use crate::pop::Pop;
use crate::traits::SpPredicate;
use prkb_edbms::codec::{Reader, Truncated};
use prkb_edbms::{ComparisonOp, EncryptedPredicate, Predicate};
use std::fmt;

const MAGIC: &[u8; 4] = b"PRKB";
const VERSION: u16 = 1;

/// Errors raised when loading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing/incorrect magic or version.
    BadHeader,
    /// The byte stream ended or a field failed to parse.
    Truncated(&'static str),
    /// The decoded structure violates a POP invariant.
    Inconsistent(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadHeader => write!(f, "not a PRKB snapshot (bad magic/version)"),
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated at {what}"),
            SnapshotError::Inconsistent(what) => write!(f, "inconsistent snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<Truncated> for SnapshotError {
    fn from(e: Truncated) -> Self {
        SnapshotError::Truncated(e.0)
    }
}

/// Wire codec for the predicate type retained in separators.
pub trait WireCodec: Sized {
    /// Appends the canonical encoding of `self`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Decodes one value off `r`; `None` on truncated or malformed input.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl WireCodec for EncryptedPredicate {
    fn encode_into(&self, out: &mut Vec<u8>) {
        EncryptedPredicate::encode_into(self, out);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        EncryptedPredicate::decode(r)
    }
}

/// Plain predicates encode as `kind | attr | a | b` (test oracle snapshots).
impl WireCodec for Predicate {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            Predicate::Comparison { attr, op, bound } => {
                out.push(0);
                out.extend_from_slice(&attr.to_le_bytes());
                out.extend_from_slice(&op.code().to_le_bytes());
                out.extend_from_slice(&bound.to_le_bytes());
            }
            Predicate::Between { attr, lo, hi } => {
                out.push(1);
                out.extend_from_slice(&attr.to_le_bytes());
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let (kind, attr) = (r.u8().ok()?, r.u32().ok()?);
        let (a, b) = (r.u64().ok()?, r.u64().ok()?);
        match kind {
            0 => Some(Predicate::cmp(attr, ComparisonOp::from_code(a)?, b)),
            1 => Some(Predicate::between(attr, a, b)),
            _ => None,
        }
    }
}

/// Appends one boundary's separator in the tagged wire form (tags 0–4;
/// shared by snapshots and the durability layer's op journal).
pub(crate) fn encode_separator_into<P: WireCodec>(s: Option<&Separator<P>>, out: &mut Vec<u8>) {
    match s {
        None => out.push(0),
        Some(Separator::Cmp { pred, left_label }) => {
            out.push(if *left_label { 2 } else { 1 });
            pred.encode_into(out);
        }
        Some(Separator::Between { pred, edge }) => {
            out.push(match edge {
                BetweenEdge::InteriorLeft => 3,
                BetweenEdge::InteriorRight => 4,
            });
            pred.encode_into(out);
        }
    }
}

/// Decodes one tagged separator off `r`.
pub(crate) fn decode_separator<P: WireCodec>(
    r: &mut Reader<'_>,
) -> Result<Option<Separator<P>>, SnapshotError> {
    let tag = r.u8()?;
    if tag == 0 {
        return Ok(None);
    }
    let pred = P::decode(r).ok_or(SnapshotError::Truncated("separator predicate"))?;
    let sep = match tag {
        1 => Separator::Cmp {
            pred,
            left_label: false,
        },
        2 => Separator::Cmp {
            pred,
            left_label: true,
        },
        3 => Separator::Between {
            pred,
            edge: BetweenEdge::InteriorLeft,
        },
        4 => Separator::Between {
            pred,
            edge: BetweenEdge::InteriorRight,
        },
        _ => return Err(SnapshotError::Inconsistent("unknown separator tag")),
    };
    Ok(Some(sep))
}

/// Serializes a knowledge base.
pub fn save<P: SpPredicate + WireCodec>(kb: &Knowledge<P>) -> Vec<u8> {
    let (pop, seps, overflow) = kb.parts();
    let ranks = pop.to_ranks();
    let mut out = Vec::with_capacity(16 + ranks.len() * 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(pop.k() as u64).to_le_bytes());
    out.extend_from_slice(&(ranks.len() as u64).to_le_bytes());
    for r in &ranks {
        out.extend_from_slice(&r.to_le_bytes());
    }
    for s in seps {
        encode_separator_into(s.as_ref(), &mut out);
    }
    out.extend_from_slice(&(overflow.len() as u32).to_le_bytes());
    for e in overflow {
        out.extend_from_slice(&e.tuple.to_le_bytes());
        out.extend_from_slice(&(e.lo as u64).to_le_bytes());
        out.extend_from_slice(&(e.hi as u64).to_le_bytes());
    }
    out
}

/// Restores a knowledge base from a snapshot.
///
/// # Errors
/// Returns a [`SnapshotError`] on malformed input; the restored structure
/// is invariant-checked before being returned.
pub fn load<P: SpPredicate + WireCodec>(bytes: &[u8]) -> Result<Knowledge<P>, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.bytes(4)? != MAGIC || r.u16()? != VERSION {
        return Err(SnapshotError::BadHeader);
    }
    let k = r.u64()?;
    // Every slot costs 4 rank bytes and every partition is non-empty
    // (k ≤ n): both header counts are bounded before any allocation.
    let n = r.count64(4)?;
    let k = usize::try_from(k)
        .ok()
        .filter(|&k| k <= n.max(1))
        .ok_or(SnapshotError::Inconsistent("k exceeds slot count"))?;
    let pop = Pop::from_ranks(&r.u32s(n)?, k).map_err(SnapshotError::Inconsistent)?;

    let n_boundaries = k.saturating_sub(1);
    let mut seps: Vec<Option<Separator<P>>> = Vec::with_capacity(n_boundaries);
    for _ in 0..n_boundaries {
        seps.push(decode_separator(&mut r)?);
    }

    let n_overflow = r.count(20)?;
    let mut overflow = Vec::with_capacity(n_overflow);
    for _ in 0..n_overflow {
        let (tuple, lo, hi) = (r.u32()?, r.u64()? as usize, r.u64()? as usize);
        if lo > hi || (k > 0 && hi >= k) {
            return Err(SnapshotError::Inconsistent("overflow interval"));
        }
        overflow.push(OverflowEntry { tuple, lo, hi });
    }

    let kb = Knowledge::from_raw(pop, seps, overflow);
    // Final structural validation (catches e.g. parked-but-placed tuples).
    kb.validate().map_err(SnapshotError::Inconsistent)?;
    Ok(kb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert::tests::try_insert_tuple;
    use crate::md::select_one;
    use prkb_edbms::testing::PlainOracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn warmed(n: usize, cuts: usize, seed: u64) -> (Knowledge<Predicate>, PlainOracle) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..10_000u64)).collect();
        let oracle = PlainOracle::single_column(values);
        let mut kb: Knowledge<Predicate> = Knowledge::init(n);
        for _ in 0..cuts {
            let c = rng.gen_range(0..10_000u64);
            select_one(
                &mut kb,
                &oracle,
                &Predicate::cmp(0, ComparisonOp::Lt, c),
                &mut rng,
                true,
            )
            .unwrap();
        }
        (kb, oracle)
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let (kb, oracle) = warmed(2_000, 60, 1);
        let bytes = save(&kb);
        let restored: Knowledge<Predicate> = load(&bytes).expect("roundtrip");
        assert_eq!(restored.k(), kb.k());
        restored.check_invariants();

        // The restored index must answer queries identically.
        let mut rng = StdRng::seed_from_u64(2);
        let mut kb2 = restored;
        let mut kb1 = kb;
        for c in [100u64, 5_000, 9_999] {
            let p = Predicate::cmp(0, ComparisonOp::Lt, c);
            let a = select_one(&mut kb1, &oracle, &p, &mut rng, false).unwrap();
            let b = select_one(&mut kb2, &oracle, &p, &mut rng, false).unwrap();
            assert_eq!(a.sorted(), b.sorted());
        }
        // …and keep supporting inserts via the restored separators.
        let mut oracle = oracle;
        let t = oracle.insert(&[4242]);
        try_insert_tuple(&mut kb2, &oracle, t).unwrap();
        kb2.check_invariants();
    }

    #[test]
    fn snapshot_size_matches_storage_accounting() {
        let (kb, _oracle) = warmed(5_000, 100, 3);
        let bytes = save(&kb);
        let accounted = kb.storage_bytes();
        // Canonical form plus the fixed header; the accounting's per-
        // separator estimate and the wire encoding may differ by a few
        // bytes per boundary (in-memory size vs. serialized size).
        let slack = 64 + 16 * kb.k();
        assert!(
            bytes.len() <= accounted + slack && accounted <= bytes.len() + slack,
            "snapshot {} vs accounted {}",
            bytes.len(),
            accounted
        );
    }

    #[test]
    fn bad_inputs_rejected() {
        assert_eq!(
            load::<Predicate>(b"nope").unwrap_err(),
            SnapshotError::BadHeader
        );
        let (kb, _) = warmed(100, 10, 4);
        let good = save(&kb);
        // Corrupt a rank so a partition empties.
        let mut bad = good.clone();
        // ranks start at offset 22; set every rank to 0 except none → rank 1+ empty.
        let k = kb.k();
        if k > 1 {
            for i in 0..100 {
                let off = 22 + i * 4;
                bad[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
            }
            assert!(matches!(
                load::<Predicate>(&bad),
                Err(SnapshotError::Inconsistent(_))
            ));
        }
    }

    #[test]
    fn length_lying_headers_rejected_without_allocation() {
        // Hand-built header claiming u64::MAX partitions/slots: `load` must
        // reject it from the stream length alone, before any allocation.
        let mut lying = Vec::new();
        lying.extend_from_slice(MAGIC);
        lying.extend_from_slice(&VERSION.to_le_bytes());
        lying.extend_from_slice(&u64::MAX.to_le_bytes()); // k
        lying.extend_from_slice(&u64::MAX.to_le_bytes()); // n_slots
        assert!(load::<Predicate>(&lying).is_err());

        // Plausible n, absurd k.
        let (kb, _) = warmed(50, 5, 7);
        let mut bad = save(&kb);
        bad[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            load::<Predicate>(&bad),
            Err(SnapshotError::Inconsistent(_))
        ));

        // Valid stream up to an overflow count the tail cannot hold.
        let mut bad = save(&kb);
        let cnt_off = bad.len() - 4; // no overflow entries ⇒ count is last
        bad[cnt_off..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            load::<Predicate>(&bad),
            Err(SnapshotError::Truncated(_))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Hostile-input hardening: truncated, bit-flipped, and
        /// length-lying streams must always come back as a `SnapshotError`
        /// (or a still-valid knowledge base) — never a panic, never an
        /// allocation driven by an unchecked header field.
        fn hostile_streams_never_panic(
            seed in 0u64..8,
            cut in 0usize..4096,
            flips in proptest::collection::vec((0usize..4096, 0u32..8), 0..6),
        ) {
            let (kb, _) = warmed(120, 12, seed);
            let mut bytes = save(&kb);
            for &(pos, bit) in &flips {
                let len = bytes.len();
                bytes[pos % len] ^= 1 << bit;
            }
            bytes.truncate(cut % (bytes.len() + 1));
            if let Ok(restored) = load::<Predicate>(&bytes) {
                // Anything accepted must satisfy every structural invariant.
                restored.check_invariants();
            }
        }
    }

    #[test]
    fn empty_knowledge_roundtrip() {
        let kb: Knowledge<Predicate> = Knowledge::init(0);
        let restored: Knowledge<Predicate> = load(&save(&kb)).expect("roundtrip");
        assert_eq!(restored.k(), 0);
    }

    #[test]
    fn encrypted_predicate_snapshots_roundtrip() {
        // End-to-end with the real trapdoor type.
        use prkb_edbms::{DataOwner, PlainTable, SpOracle, TmConfig};
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<u64> = (0..500).map(|_| rng.gen_range(0..1_000u64)).collect();
        let plain = PlainTable::single_column("t", "x", values);
        let owner = DataOwner::with_seed(6);
        let table = owner.encrypt_table(&plain, &mut rng);
        let tm = owner.trusted_machine(TmConfig::default());
        let oracle = SpOracle::new(&table, &tm);
        let mut kb: Knowledge<EncryptedPredicate> = Knowledge::init(500);
        for c in [100u64, 400, 700, 200, 900] {
            let p = owner
                .trapdoor("t", &Predicate::cmp(0, ComparisonOp::Lt, c), &mut rng)
                .expect("valid");
            select_one(&mut kb, &oracle, &p, &mut rng, true).unwrap();
        }
        let restored: Knowledge<EncryptedPredicate> = load(&save(&kb)).expect("roundtrip");
        assert_eq!(restored.k(), kb.k());
        restored.check_invariants();
        // Restored separators still route inserts through the TM.
        let mut table = table;
        let cells = owner.encrypt_row("t", &[555], &mut rng);
        let refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
        let t = table.push_encrypted_row(&refs).expect("arity");
        let oracle = SpOracle::new(&table, &tm);
        let mut restored = restored;
        try_insert_tuple(&mut restored, &oracle, t).unwrap();
        restored.check_invariants();
    }
}
