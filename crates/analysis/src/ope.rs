//! Order-preserving encryption — the contrast case of §2.1/§8.1.
//!
//! CryptDB/MONOMI process comparisons over OPE ciphertexts: efficient, but
//! `x > y ⇒ E(x) > E(y)` hands the attacker the *total order* for free —
//! "RPOI is 100% even before SP has processed any query". This module
//! implements a bulk-loaded, mOPE-style order-preserving encoding (rank ×
//! spread + keyed jitter) so the repository can demonstrate that claim
//! empirically next to the PRKB numbers.
//!
//! This is deliberately the *insecure-by-design* comparison point; nothing
//! else in the workspace uses it.

use std::collections::BTreeMap;

/// A bulk-loaded order-preserving encoder over a fixed value set.
#[derive(Debug, Clone)]
pub struct OpeTable {
    /// Plain value → ciphertext, strictly monotone.
    map: BTreeMap<u64, u64>,
}

/// SplitMix64 — keyed jitter inside each rank's gap.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = x.wrapping_add(seed).wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl OpeTable {
    /// Gap between consecutive ranks in ciphertext space.
    const SPREAD: u64 = 1 << 20;

    /// Builds the encoder over every distinct value in `values`
    /// (the data owner's bulk load).
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn build(values: &[u64], key: u64) -> Self {
        assert!(!values.is_empty(), "OPE needs data to bulk-load");
        let mut distinct: Vec<u64> = values.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let map = distinct
            .into_iter()
            .enumerate()
            .map(|(rank, v)| {
                let jitter = mix(key, v) % (Self::SPREAD / 2);
                (v, (rank as u64 + 1) * Self::SPREAD + jitter)
            })
            .collect();
        OpeTable { map }
    }

    /// Encrypts a bulk-loaded value.
    ///
    /// # Panics
    /// Panics for values not in the bulk load (a real mOPE would grow its
    /// tree interactively; out of scope for the comparison experiment).
    pub fn encrypt(&self, v: u64) -> u64 {
        *self
            .map
            .get(&v)
            .expect("value was not part of the OPE bulk load")
    }

    /// Number of distinct plaintexts encoded.
    pub fn n_distinct(&self) -> usize {
        self.map.len()
    }
}

/// What the §8.1 attacker recovers from OPE ciphertexts alone: sorting them
/// yields the full plaintext order, so the recovered chain length equals
/// the number of distinct values — RPOI = 100% with **zero** queries.
pub fn ope_rpoi(values: &[u64], key: u64) -> f64 {
    let table = OpeTable::build(values, key);
    let mut cts: Vec<(u64, u64)> = values.iter().map(|&v| (table.encrypt(v), v)).collect();
    cts.sort_unstable();
    // Count the chain the ciphertext order certifies: strictly increasing
    // ciphertexts whose plaintexts are strictly increasing too (they always
    // are, by order preservation — verified here rather than assumed).
    let mut chain = 1usize;
    for w in cts.windows(2) {
        let ((c1, p1), (c2, p2)) = (w[0], w[1]);
        if c1 < c2 {
            assert!(p1 <= p2, "order preservation violated");
            if p1 < p2 {
                chain += 1;
            }
        }
    }
    chain as f64 / table.n_distinct() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn strictly_monotone() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        let t = OpeTable::build(&values, 42);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for w in sorted.windows(2) {
            assert!(t.encrypt(w[0]) < t.encrypt(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn ciphertexts_are_not_plaintexts() {
        let t = OpeTable::build(&[1, 2, 3], 7);
        assert_ne!(t.encrypt(1), 1);
        assert_ne!(t.encrypt(2), 2);
        // Different keys give different ciphertexts.
        let t2 = OpeTable::build(&[1, 2, 3], 8);
        assert_ne!(t.encrypt(2), t2.encrypt(2));
    }

    #[test]
    fn rpoi_is_total_before_any_query() {
        let mut rng = StdRng::seed_from_u64(2);
        let values: Vec<u64> = (0..20_000)
            .map(|_| rng.gen_range(0..30_000_000u64))
            .collect();
        let rpoi = ope_rpoi(&values, 99);
        assert!(
            (rpoi - 1.0).abs() < 1e-12,
            "OPE leaks the total order: {rpoi}"
        );
    }

    #[test]
    fn duplicates_share_ciphertext() {
        let t = OpeTable::build(&[5, 5, 5, 9], 3);
        assert_eq!(t.encrypt(5), t.encrypt(5));
        assert_eq!(t.n_distinct(), 2);
    }

    #[test]
    #[should_panic(expected = "bulk load")]
    fn unknown_value_panics() {
        let t = OpeTable::build(&[1, 2], 3);
        let _ = t.encrypt(99);
    }
}
