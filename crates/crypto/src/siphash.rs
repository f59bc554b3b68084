//! SipHash-2-4 (Aumasson & Bernstein), implemented from the reference
//! description. Used as the short-output keyed PRF for hot paths (bucket
//! labels in the searchable-encryption substrate) where a full HMAC-SHA256
//! would dominate the cost being measured.

/// 128-bit SipHash key.
pub type SipKey = [u8; 16];

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// Computes SipHash-2-4 of `data` under `key`, returning a 64-bit tag.
pub fn siphash24(key: &SipKey, data: &[u8]) -> u64 {
    let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8-byte slice"));
    let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8-byte slice"));

    let mut v = [
        k0 ^ 0x736f6d6570736575,
        k1 ^ 0x646f72616e646f6d,
        k0 ^ 0x6c7967656e657261,
        k1 ^ 0x7465646279746573,
    ];

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }

    // Final block: remaining bytes plus the message length in the top byte.
    let rem = chunks.remainder();
    let mut last = (data.len() as u64 & 0xff) << 56;
    for (i, b) in rem.iter().enumerate() {
        last |= (*b as u64) << (8 * i);
    }
    v[3] ^= last;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= last;

    v[2] ^= 0xff;
    sipround(&mut v);
    sipround(&mut v);
    sipround(&mut v);
    sipround(&mut v);

    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference output vectors from the SipHash reference implementation
    /// (`vectors_sip64` in the authors' C code): key = 00..0f, message =
    /// the first `i` bytes of 00,01,02,...
    const VECTORS: [[u8; 8]; 16] = [
        [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72],
        [0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74],
        [0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d],
        [0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85],
        [0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf],
        [0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18],
        [0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb],
        [0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab],
        [0x62, 0x24, 0x93, 0x9a, 0x79, 0xf5, 0xf5, 0x93],
        [0xb0, 0xe4, 0xa9, 0x0b, 0xdf, 0x82, 0x00, 0x9e],
        [0xf3, 0xb9, 0xdd, 0x94, 0xc5, 0xbb, 0x5d, 0x7a],
        [0xa7, 0xad, 0x6b, 0x22, 0x46, 0x2f, 0xb3, 0xf4],
        [0xfb, 0xe5, 0x0e, 0x86, 0xbc, 0x8f, 0x1e, 0x75],
        [0x90, 0x3d, 0x84, 0xc0, 0x27, 0x56, 0xea, 0x14],
        [0xee, 0xf2, 0x7a, 0x8e, 0x90, 0xca, 0x23, 0xf7],
        [0xe5, 0x45, 0xbe, 0x49, 0x61, 0xca, 0x29, 0xa1],
    ];

    #[test]
    fn reference_vectors() {
        let mut key = [0u8; 16];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let msg: Vec<u8> = (0u8..16).collect();
        for (len, expected) in VECTORS.iter().enumerate() {
            let got = siphash24(&key, &msg[..len]);
            assert_eq!(
                got.to_le_bytes(),
                *expected,
                "mismatch at message length {len}"
            );
        }
    }

    #[test]
    fn distinct_keys_distinct_outputs() {
        let k1 = [1u8; 16];
        let k2 = [2u8; 16];
        let msg = 42u64.to_le_bytes();
        assert_ne!(siphash24(&k1, &msg), siphash24(&k2, &msg));
    }

    #[test]
    fn matches_std_hasher_semantics_for_various_lengths() {
        // Internal consistency: chunk boundary handling at 7/8/9 bytes.
        let key = [0xabu8; 16];
        let m7 = siphash24(&key, &[1, 2, 3, 4, 5, 6, 7]);
        let m8 = siphash24(&key, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let m9 = siphash24(&key, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_ne!(m7, m8);
        assert_ne!(m8, m9);
        assert_ne!(m7, m9);
    }
}
