//! Multi-dimensional range queries over Logarithmic-SRC-i.
//!
//! Per the paper's §8.2.5 description ("Logarithmic-SRC-i sent a set of
//! hashed values for keyword search for each dimension"): each dimension is
//! queried independently, the candidate sets are intersected, and the
//! survivors are confirmed through the QPF. The per-dimension candidate
//! cost is what makes its multi-dimensional scaling worse than PRKB(MD)'s.

use crate::index::{SrciClient, SrciIndex};
use prkb_edbms::{AttrId, TupleId};
use std::collections::HashMap;

/// A set of per-attribute SRC-i indexes over one table.
#[derive(Debug, Default)]
pub struct MultiDimSrci {
    dims: HashMap<AttrId, SrciIndex>,
}

impl MultiDimSrci {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the index for one attribute.
    pub fn add_dim(&mut self, attr: AttrId, index: SrciIndex) {
        self.dims.insert(attr, index);
    }

    /// The index for an attribute.
    pub fn dim(&self, attr: AttrId) -> Option<&SrciIndex> {
        self.dims.get(&attr)
    }

    /// Candidates for a conjunctive hyper-rectangle: intersection of the
    /// per-dimension candidate sets. Still contains false positives — run
    /// [`crate::index::confirm`] afterwards.
    ///
    /// # Panics
    /// Panics if a queried attribute has no index.
    pub fn candidates(&self, client: &SrciClient, ranges: &[(AttrId, u64, u64)]) -> Vec<TupleId> {
        assert!(!ranges.is_empty(), "need at least one dimension");
        let mut iter = ranges.iter();
        let &(attr0, lo0, hi0) = iter.next().expect("non-empty");
        let idx0 = self
            .dims
            .get(&attr0)
            .unwrap_or_else(|| panic!("no index for attribute {attr0}"));
        let mut current: Vec<TupleId> = idx0.candidates(client, lo0, hi0);
        for &(attr, lo, hi) in iter {
            if current.is_empty() {
                break;
            }
            let idx = self
                .dims
                .get(&attr)
                .unwrap_or_else(|| panic!("no index for attribute {attr}"));
            let other: std::collections::HashSet<TupleId> =
                idx.candidates(client, lo, hi).into_iter().collect();
            current.retain(|t| other.contains(t));
        }
        current
    }

    /// Total server-side storage across dimensions.
    pub fn storage_bytes(&self) -> usize {
        self.dims.values().map(SrciIndex::storage_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{confirm, SrciConfig};
    use prkb_edbms::testing::PlainOracle;
    use prkb_edbms::{ComparisonOp, Predicate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn client() -> SrciClient {
        SrciClient::new([5u8; 32], [6u8; 32])
    }

    #[test]
    fn multidim_conjunction_is_exact_after_confirm() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 3000usize;
        let cols: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..n).map(|_| rng.gen_range(0..50_000u64)).collect())
            .collect();
        let cfg = SrciConfig {
            domain: (0, 49_999),
            bucket_bits: 12,
        };
        let c = client();
        let mut md = MultiDimSrci::new();
        for (a, col) in cols.iter().enumerate() {
            md.add_dim(a as u32, SrciIndex::build(&c, cfg, col));
        }
        assert_eq!(md.dims.len(), 3);

        let ranges = [
            (0u32, 10_000u64, 20_000u64),
            (1, 5_000, 30_000),
            (2, 0, 25_000),
        ];
        let cands = md.candidates(&c, &ranges);
        let oracle = PlainOracle::from_columns(cols.clone());
        let preds: Vec<Predicate> = ranges
            .iter()
            .flat_map(|&(a, lo, hi)| {
                [
                    Predicate::cmp(a, ComparisonOp::Ge, lo),
                    Predicate::cmp(a, ComparisonOp::Le, hi),
                ]
            })
            .collect();
        let mut got = confirm(&oracle, &preds, &cands);
        got.sort_unstable();
        assert_eq!(got, oracle.expected_conjunction(&preds));
    }

    #[test]
    fn disjoint_dimensions_give_empty() {
        let cfg = SrciConfig {
            domain: (0, 999),
            bucket_bits: 8,
        };
        let c = client();
        let mut md = MultiDimSrci::new();
        md.add_dim(0, SrciIndex::build(&c, cfg, &[10, 20, 30]));
        md.add_dim(1, SrciIndex::build(&c, cfg, &[900, 910, 920]));
        // Dim 0 matches t0..t2, dim 1 range matches nothing.
        let cands = md.candidates(&c, &[(0, 0, 100), (1, 0, 100)]);
        assert!(cands.is_empty());
    }

    #[test]
    fn storage_sums_dimensions() {
        let cfg = SrciConfig {
            domain: (0, 999),
            bucket_bits: 8,
        };
        let c = client();
        let mut md = MultiDimSrci::new();
        md.add_dim(0, SrciIndex::build(&c, cfg, &[1, 2, 3]));
        let one = md.storage_bytes();
        md.add_dim(1, SrciIndex::build(&c, cfg, &[4, 5, 6]));
        assert!(md.storage_bytes() > one);
    }
}
