//! `std::arch` kernels — the crate's one `unsafe` module.
//!
//! A QPF reads one 8-byte cell, so it needs keystream bytes 0..8 of
//! ChaCha20 block 1 under that cell's nonce and nothing else.
//! [`Avx2::chacha20_x8`] computes them for eight cells in one pass: each
//! 32-bit AVX2 lane runs one block, the lanes share key and counter, and
//! every lane carries its own 96-bit nonce (each cell was sealed under an
//! independent random one). Written in safe Rust, the same transposed
//! kernel is scalarised by LLVM and is no faster than one block at a time.
//!
//! The safe [`crate::chacha20::block`] stays the reference and the
//! fallback: `ValueCipher::decrypt_slices` takes this kernel only when
//! [`Avx2::detect`] finds the feature at run time, and never on a target
//! other than `x86_64`.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::chacha20::{KEY_LEN, NONCE_LEN};

/// Cells per keystream pass.
pub(crate) const LANES: usize = 8;

/// Proof that this CPU runs AVX2: only [`Avx2::detect`] makes one, and on
/// other targets none can exist.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx2(Witness);

#[cfg(target_arch = "x86_64")]
type Witness = ();
#[cfg(not(target_arch = "x86_64"))]
type Witness = std::convert::Infallible;

impl Avx2 {
    /// `Some` when this CPU has AVX2. std caches the CPUID probe, so after
    /// the first call this is one load.
    pub(crate) fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }

    /// Keystream bytes 0..8 of block `counter` under `key` and each lane's
    /// nonce, read as a little-endian `u64` — what
    /// [`crate::chacha20::block`] returns in its first 8 bytes.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn chacha20_x8(
        self,
        key: &[u8; KEY_LEN],
        counter: u32,
        nonces: &[[u8; NONCE_LEN]; LANES],
    ) -> [u64; LANES] {
        // SAFETY: `self` exists only if `detect` found AVX2 on this CPU,
        // which is the kernel's one precondition; it reads and writes
        // nothing but its arguments and locals.
        unsafe { x86::chacha20_x8(key, counter, nonces) }
    }

    /// Unreachable: no `Avx2` exists off `x86_64`.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn chacha20_x8(
        self,
        _key: &[u8; KEY_LEN],
        _counter: u32,
        _nonces: &[[u8; NONCE_LEN]; LANES],
    ) -> [u64; LANES] {
        match self.0 {}
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::LANES;
    use crate::chacha20::{KEY_LEN, NONCE_LEN};
    use std::arch::x86_64::*;

    /// "expand 32-byte k".
    const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

    /// Little-endian word `i` of `bytes`, as the lane type.
    fn word(bytes: &[u8], i: usize) -> i32 {
        let w: [u8; 4] = bytes[4 * i..4 * i + 4].try_into().expect("4 bytes");
        u32::from_le_bytes(w) as i32
    }

    /// Rotates every 32-bit lane left by `L` (`R` = 32 − `L`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
    }

    /// The RFC 8439 quarter round on rows `a b c d` of eight states at once.
    /// The byte-aligned rotations (16, 8) are one shuffle each.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quarter(
        x: &mut [__m256i; 16],
        [a, b, c, d]: [usize; 4],
        rot16: __m256i,
        rot8: __m256i,
    ) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Eight ChaCha20 blocks, one per lane, returning words 0–1 of each.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn chacha20_x8(
        key: &[u8; KEY_LEN],
        counter: u32,
        nonces: &[[u8; NONCE_LEN]; LANES],
    ) -> [u64; LANES] {
        // Within each 4-byte lane, the source byte of each output byte.
        #[rustfmt::skip]
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        #[rustfmt::skip]
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );

        // Rows 0–12 are the same in every lane; rows 13–15 are the nonces.
        let mut init = [_mm256_setzero_si256(); 16];
        for (row, s) in init.iter_mut().zip(SIGMA) {
            *row = _mm256_set1_epi32(s as i32);
        }
        for (i, row) in init[4..12].iter_mut().enumerate() {
            *row = _mm256_set1_epi32(word(key, i));
        }
        init[12] = _mm256_set1_epi32(counter as i32);
        for (w, row) in init[13..].iter_mut().enumerate() {
            let mut column = [0i32; LANES];
            for (c, nonce) in column.iter_mut().zip(nonces) {
                *c = word(nonce, w);
            }
            *row = _mm256_loadu_si256(column.as_ptr().cast());
        }

        let mut x = init;
        for _ in 0..10 {
            quarter(&mut x, [0, 4, 8, 12], rot16, rot8);
            quarter(&mut x, [1, 5, 9, 13], rot16, rot8);
            quarter(&mut x, [2, 6, 10, 14], rot16, rot8);
            quarter(&mut x, [3, 7, 11, 15], rot16, rot8);
            quarter(&mut x, [0, 5, 10, 15], rot16, rot8);
            quarter(&mut x, [1, 6, 11, 12], rot16, rot8);
            quarter(&mut x, [2, 7, 8, 13], rot16, rot8);
            quarter(&mut x, [3, 4, 9, 14], rot16, rot8);
        }

        let mut lo = [0u32; LANES];
        let mut hi = [0u32; LANES];
        _mm256_storeu_si256(lo.as_mut_ptr().cast(), _mm256_add_epi32(x[0], init[0]));
        _mm256_storeu_si256(hi.as_mut_ptr().cast(), _mm256_add_epi32(x[1], init[1]));
        let mut out = [0u64; LANES];
        for ((o, l), h) in out.iter_mut().zip(lo).zip(hi) {
            *o = u64::from(l) | u64::from(h) << 32;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20;

    fn rfc_key() -> [u8; KEY_LEN] {
        std::array::from_fn(|i| i as u8)
    }

    fn first_word(block: [u8; chacha20::BLOCK_LEN]) -> u64 {
        u64::from_le_bytes(block[..8].try_into().expect("8 bytes"))
    }

    // RFC 8439 §2.3.2: key 00..1f, counter 1, nonce 000000090000004a00000000.
    #[test]
    fn rfc8439_block_vector_in_every_lane() {
        let Some(avx2) = Avx2::detect() else {
            eprintln!("no AVX2 on this CPU: the 8-lane kernel is not reachable");
            return;
        };
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let ks = avx2.chacha20_x8(&rfc_key(), 1, &[nonce; LANES]);
        for (lane, word) in ks.iter().enumerate() {
            assert_eq!(
                word.to_le_bytes(),
                [0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15],
                "lane {lane}"
            );
        }
    }

    #[test]
    fn every_lane_is_the_scalar_block_of_its_own_nonce() {
        let Some(avx2) = Avx2::detect() else {
            return;
        };
        let key: [u8; KEY_LEN] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0xa5);
        let nonces: [[u8; NONCE_LEN]; LANES] =
            std::array::from_fn(|lane| std::array::from_fn(|i| (lane * 31 + i * 7) as u8));
        for counter in [0, 1, u32::MAX] {
            let ks = avx2.chacha20_x8(&key, counter, &nonces);
            for (lane, nonce) in nonces.iter().enumerate() {
                let block = chacha20::block(&key, counter, nonce);
                assert_eq!(
                    ks[lane],
                    first_word(block),
                    "lane {lane}, counter {counter}"
                );
            }
        }
    }
}
