//! Per-segment bloom filter over partition (attribute) ids.
//!
//! A segment holds a handful to a few thousand partition blocks; the read
//! path probes *every* live segment newest-first when loading a
//! partition. The bloom filter answers "definitely not here" from
//! a few bytes in memory, so a miss never touches the segment's index or
//! payload bytes — the probe economics the related SST literature leans on.
//! Standard double hashing (Kirsch–Mitzenmacher) over two splitmix64
//! streams; ~10 bits and 7 probes per key puts the false-positive rate
//! under 1%.

/// Bits per inserted key (fixed; sizing happens at construction).
const BITS_PER_KEY: usize = 10;
/// Number of probe positions per key.
const PROBES: u32 = 7;

/// A fixed-size bloom filter over `u32` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    k: u32,
    bits: Vec<u8>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Bloom {
    /// A filter sized for `n_keys` insertions (~10 bits/key, minimum one
    /// 64-bit word so the empty filter still encodes).
    pub fn with_capacity(n_keys: usize) -> Self {
        let bits = (n_keys * BITS_PER_KEY).max(64);
        Bloom {
            k: PROBES,
            bits: vec![0u8; bits.div_ceil(8)],
        }
    }

    fn positions(&self, key: u32) -> impl Iterator<Item = usize> + '_ {
        let m = (self.bits.len() * 8) as u64;
        let h1 = splitmix64(u64::from(key));
        let h2 = splitmix64(u64::from(key) ^ 0xA5A5_A5A5_DEAD_BEEF) | 1;
        (0..self.k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Inserts one key.
    pub fn insert(&mut self, key: u32) {
        let idx: Vec<usize> = self.positions(key).collect();
        for i in idx {
            self.bits[i / 8] |= 1 << (i % 8);
        }
    }

    /// `false` means the key is definitely absent; `true` means it *may* be
    /// present (bounded false-positive rate).
    pub fn maybe_contains(&self, key: u32) -> bool {
        self.positions(key)
            .collect::<Vec<_>>()
            .into_iter()
            .all(|i| self.bits[i / 8] & (1 << (i % 8)) != 0)
    }

    /// Serializes as `k u32 | n_bytes u32 | bytes`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&(self.bits.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.bits);
    }

    /// Parses an [`encode_into`](Self::encode_into) image.
    pub fn decode(bytes: &[u8]) -> Option<Bloom> {
        if bytes.len() < 8 {
            return None;
        }
        let k = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
        let n = u32::from_le_bytes(bytes[4..8].try_into().ok()?) as usize;
        if k == 0 || n == 0 || bytes.len() != 8 + n {
            return None;
        }
        Some(Bloom {
            k,
            bits: bytes[8..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_keys_always_hit() {
        let mut b = Bloom::with_capacity(100);
        for a in 0..100u32 {
            b.insert(a * 7);
        }
        for a in 0..100u32 {
            assert!(b.maybe_contains(a * 7), "false negative on {}", a * 7);
        }
    }

    #[test]
    fn absent_keys_mostly_miss() {
        let mut b = Bloom::with_capacity(64);
        for a in 0..64u32 {
            b.insert(a);
        }
        let false_pos = (1_000..11_000u32).filter(|&a| b.maybe_contains(a)).count();
        assert!(
            false_pos < 300,
            "false-positive rate too high: {false_pos}/10000"
        );
    }

    #[test]
    fn roundtrip_and_reject_garbage() {
        let mut b = Bloom::with_capacity(8);
        b.insert(3);
        let mut enc = Vec::new();
        b.encode_into(&mut enc);
        assert_eq!(Bloom::decode(&enc).unwrap(), b);
        assert!(Bloom::decode(&enc[..enc.len() - 1]).is_none());
        assert!(Bloom::decode(&[0u8; 4]).is_none());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let b = Bloom::with_capacity(0);
        assert!(!b.maybe_contains(0));
        assert!(!b.maybe_contains(42));
    }
}
