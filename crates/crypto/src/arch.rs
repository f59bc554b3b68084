//! `std::arch` kernels — the crate's one `unsafe` module.
//!
//! A cell is a 12-byte nonce, an 8-byte payload and an 8-byte tag. Opening
//! one (a QPF) and sealing one (the data owner's upload) need the same two
//! functions and nothing else: keystream bytes 0..8 of ChaCha20 block 1
//! under that cell's nonce, and the SipHash-2-4 tag of its 21-byte tag
//! input. The kernels here compute both for many cells in one pass: each
//! vector lane runs one cell, the lanes share the keys and the counter, and
//! every lane carries its own 96-bit nonce (each cell is sealed under an
//! independent random one) and its own tag input. Written in safe Rust, the
//! same transposed kernels are scalarised by LLVM and are no faster than
//! one cell at a time.
//!
//! Two tiers, each a token that only runtime detection makes:
//!
//! * [`Avx2`]: [`Avx2::chacha20_x8`] and [`Avx2::siphash_x8`], 8 cells per
//!   pass (32-bit ChaCha20 lanes; SipHash as two sets of 4 × u64 lanes,
//!   rotations by shift-or and byte or word shuffles). An open runs the
//!   two side by side; a seal runs the keystream, forms the payload and
//!   its tag words, then runs the tags;
//! * [`Avx512`]: [`Avx512::open_x16`] and [`Avx512::seal_x16`], 16 cells
//!   per pass, both functions in one kernel over the same rounds (one zmm
//!   per ChaCha20 state row, SipHash as two interleaved sets of 8 × u64
//!   lanes, rotations native).
//!
//! [`Tier::detect`] picks the widest this CPU has. The safe
//! [`crate::chacha20::block`] and [`crate::siphash::siphash24`] stay the
//! reference and the fallback: `ValueCipher::decrypt_slices` and
//! `ValueCipher::seal_into` take a kernel only when a token exists, and
//! never on a target other than `x86_64`.
//!
//! Beside the kernels sits one hint, [`prefetch`]: it asks the cache for a
//! cell's lines (`_mm_prefetch` with `_MM_HINT_T0`, which SSE, baseline on
//! `x86_64`, provides) so that an oracle batch can load the cells of its
//! next passes while this pass decrypts. A prefetch reads nothing the
//! program sees and cannot fault; off `x86_64` it does nothing.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::chacha20::KEY_LEN;
use crate::siphash::SipKey;

/// Cells per pass of the 8-lane kernels.
pub(crate) const X8: usize = 8;
/// Cells per pass of the 16-lane kernel, the widest.
pub(crate) const X16: usize = 16;

/// What a pass reads of its cells, transposed: row `r` of a field holds
/// word `r` of every lane, so each row is one vector load.
pub(crate) struct Lanes<const N: usize> {
    /// The 96-bit nonce as three little-endian words: ChaCha20 state rows
    /// 13–15.
    pub(crate) nonce: [[u32; N]; 3],
    /// The tag input as SipHash-2-4 message words, the last one already
    /// carrying the length byte.
    pub(crate) msg: [[u64; N]; 3],
}

/// Proof that this CPU runs AVX2: only [`Avx2::detect`] makes one, and on
/// other targets none can exist.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx2(Witness);

/// Proof that this CPU runs AVX-512F: only [`Avx512::detect`] makes one,
/// and on other targets none can exist.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx512(Witness);

#[cfg(target_arch = "x86_64")]
type Witness = ();
#[cfg(not(target_arch = "x86_64"))]
type Witness = std::convert::Infallible;

/// The widest pass this CPU runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Tier {
    /// No kernel: one cell at a time through the safe code.
    Scalar,
    /// 8 cells per pass.
    X8(Avx2),
    /// 16 cells per pass.
    X16(Avx512),
}

impl Tier {
    /// This CPU's tier. std caches the CPUID probe, so after the first call
    /// this is a load or two.
    pub(crate) fn detect() -> Tier {
        if let Some(wide) = Avx512::detect() {
            return Tier::X16(wide);
        }
        Avx2::detect().map_or(Tier::Scalar, Tier::X8)
    }
}

impl Avx2 {
    /// `Some` when this CPU has AVX2.
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
        nonce: &[[u32; X8]; 3],
    ) -> [u64; X8] {
        // SAFETY: `self` exists only if `detect` found AVX2 on this CPU,
        // which is the kernel's one precondition; it reads and writes
        // nothing but its arguments and locals.
        unsafe { x86::chacha20_x8(key, counter, nonce) }
    }

    /// SipHash-2-4 under `key` of each lane's three message words — what
    /// [`crate::siphash::siphash24`] returns for the 16 to 23 bytes they
    /// encode, the last word carrying the length byte.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn siphash_x8(self, key: &SipKey, msg: &[[u64; X8]; 3]) -> [u64; X8] {
        // SAFETY: as in `chacha20_x8`: AVX2 is present, and the kernel
        // touches only its arguments and locals.
        unsafe { x86::siphash_x8(key, msg) }
    }

    /// Unreachable: no `Avx2` exists off `x86_64`.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn chacha20_x8(
        self,
        _key: &[u8; KEY_LEN],
        _counter: u32,
        _nonce: &[[u32; X8]; 3],
    ) -> [u64; X8] {
        match self.0 {}
    }

    /// Unreachable: no `Avx2` exists off `x86_64`.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn siphash_x8(self, _key: &SipKey, _msg: &[[u64; X8]; 3]) -> [u64; X8] {
        match self.0 {}
    }
}

impl Avx512 {
    /// `Some` when this CPU has AVX-512F.
    pub(crate) fn detect() -> Option<Avx512> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx512f") {
            return Some(Avx512(()));
        }
        None
    }

    /// For 16 lanes at once: ChaCha20 keystream words 0–1 of block
    /// `counter` under `key` and the lane's nonce (as
    /// [`Avx2::chacha20_x8`]), and the SipHash-2-4 tag under `sip` of the
    /// lane's message words (as [`Avx2::siphash_x8`]).
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn open_x16(
        self,
        key: &[u8; KEY_LEN],
        counter: u32,
        sip: &SipKey,
        lanes: &Lanes<X16>,
    ) -> ([u64; X16], [u64; X16]) {
        // SAFETY: `self` exists only if `detect` found AVX-512F on this
        // CPU, which is the kernel's one precondition; it reads and writes
        // nothing but its arguments and locals.
        unsafe { x86::open_x16(key, counter, sip, lanes) }
    }

    /// For 16 lanes at once, each lane's value sealed under its nonce: the
    /// payload (the value xor the keystream words [`Avx512::open_x16`]
    /// computes) and the SipHash-2-4 tag under `sip` of the
    /// [`crate::cipher::tag_words`] of nonce and payload. The same rounds
    /// as `open_x16`, in one kernel.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn seal_x16(
        self,
        key: &[u8; KEY_LEN],
        counter: u32,
        sip: &SipKey,
        nonce: &[[u32; X16]; 3],
        values: &[u64; X16],
    ) -> ([u64; X16], [u64; X16]) {
        // SAFETY: as in `open_x16`: AVX-512F is present, and the kernel
        // touches only its arguments and locals.
        unsafe { x86::seal_x16(key, counter, sip, nonce, values) }
    }

    /// Unreachable: no `Avx512` exists off `x86_64`.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn open_x16(
        self,
        _key: &[u8; KEY_LEN],
        _counter: u32,
        _sip: &SipKey,
        _lanes: &Lanes<X16>,
    ) -> ([u64; X16], [u64; X16]) {
        match self.0 {}
    }

    /// Unreachable: no `Avx512` exists off `x86_64`.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn seal_x16(
        self,
        _key: &[u8; KEY_LEN],
        _counter: u32,
        _sip: &SipKey,
        _nonce: &[[u32; X16]; 3],
        _values: &[u64; X16],
    ) -> ([u64; X16], [u64; X16]) {
        match self.0 {}
    }
}

/// Asks the cache for the lines holding `bytes`: its first and its last
/// byte, since a 28-byte cell straddles two 64-byte lines at 27 of every
/// 64 offsets. A hint only — nothing is read that the caller sees, and an
/// empty slice issues nothing. A no-op on targets other than `x86_64`.
#[inline]
pub(crate) fn prefetch(bytes: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if let (Some(first), Some(last)) = (bytes.first(), bytes.last()) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: both pointers come from references into `bytes`, and a
        // prefetch only hints the cache: it reads no memory the program
        // observes, writes none, and cannot fault. SSE, which provides
        // it, is part of the `x86_64` baseline.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(first).cast());
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(last).cast());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = bytes;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, X16, X8};
    use crate::chacha20::KEY_LEN;
    use crate::cipher::tag_words;
    use crate::siphash::SipKey;
    use std::arch::x86_64::*;

    /// "expand 32-byte k".
    const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

    /// Little-endian word `i` of `key`, as the lane type.
    fn key_word(key: &[u8; KEY_LEN], i: usize) -> i32 {
        let w: [u8; 4] = key[4 * i..4 * i + 4].try_into().expect("4 bytes");
        u32::from_le_bytes(w) as i32
    }

    /// SipHash's initial `v0..v3` under `key` ("somepseudorandomly
    /// generatedbytes" xor the key), as the lane type.
    fn sip_init(key: &SipKey) -> [i64; 4] {
        let k0 = u64::from_le_bytes(key[..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(key[8..].try_into().expect("8 bytes"));
        [
            k0 ^ 0x736f6d6570736575,
            k1 ^ 0x646f72616e646f6d,
            k0 ^ 0x6c7967656e657261,
            k1 ^ 0x7465646279746573,
        ]
        .map(|v| v as i64)
    }

    /// Block words 0 and 1 of each lane (state plus its constant initial
    /// row), joined as the little-endian `u64` of keystream bytes 0..8.
    fn join<const N: usize>(w0: [u32; N], w1: [u32; N]) -> [u64; N] {
        std::array::from_fn(|i| {
            u64::from(w0[i].wrapping_add(SIGMA[0])) | u64::from(w1[i].wrapping_add(SIGMA[1])) << 32
        })
    }

    // ---- AVX2: 8 lanes per pass ------------------------------------------

    /// Rotates every 32-bit lane left by `L` (`R` = 32 − `L`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rotl32<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
    }

    /// The RFC 8439 quarter round on rows `a b c d` of eight states at once.
    /// The byte-aligned rotations (16, 8) are one shuffle each.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quarter8(
        x: &mut [__m256i; 16],
        [a, b, c, d]: [usize; 4],
        rot16: __m256i,
        rot8: __m256i,
    ) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl32::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl32::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Eight ChaCha20 blocks, one per lane, returning words 0–1 of each.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn chacha20_x8(
        key: &[u8; KEY_LEN],
        counter: u32,
        nonce: &[[u32; X8]; 3],
    ) -> [u64; X8] {
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
        let mut x = [_mm256_setzero_si256(); 16];
        for (row, s) in x.iter_mut().zip(SIGMA) {
            *row = _mm256_set1_epi32(s as i32);
        }
        for (i, row) in x[4..12].iter_mut().enumerate() {
            *row = _mm256_set1_epi32(key_word(key, i));
        }
        x[12] = _mm256_set1_epi32(counter as i32);
        for (row, column) in x[13..].iter_mut().zip(nonce) {
            *row = _mm256_loadu_si256(column.as_ptr().cast());
        }

        // Literal row indices: a loop over an index table would leave
        // them dynamic and spill the state to memory.
        for _ in 0..10 {
            quarter8(&mut x, [0, 4, 8, 12], rot16, rot8);
            quarter8(&mut x, [1, 5, 9, 13], rot16, rot8);
            quarter8(&mut x, [2, 6, 10, 14], rot16, rot8);
            quarter8(&mut x, [3, 7, 11, 15], rot16, rot8);
            quarter8(&mut x, [0, 5, 10, 15], rot16, rot8);
            quarter8(&mut x, [1, 6, 11, 12], rot16, rot8);
            quarter8(&mut x, [2, 7, 8, 13], rot16, rot8);
            quarter8(&mut x, [3, 4, 9, 14], rot16, rot8);
        }

        let mut w0 = [0u32; X8];
        let mut w1 = [0u32; X8];
        _mm256_storeu_si256(w0.as_mut_ptr().cast(), x[0]);
        _mm256_storeu_si256(w1.as_mut_ptr().cast(), x[1]);
        join(w0, w1)
    }

    /// Rotates every 64-bit lane left by `L` (`R` = 64 − `L`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rotl64<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<L>(x), _mm256_srli_epi64::<R>(x))
    }

    /// `n` SipRounds on both sets of four 64-bit lanes, interleaved.
    /// Rotation by 16 is a byte shuffle and by 32 a word shuffle; 13, 17
    /// and 21 are shift-or.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn siprounds4(sets: &mut [[__m256i; 4]; 2], n: usize, rot16: __m256i) {
        for _ in 0..n {
            for v in sets.iter_mut() {
                v[0] = _mm256_add_epi64(v[0], v[1]);
                v[1] = _mm256_xor_si256(rotl64::<13, 51>(v[1]), v[0]);
                v[0] = _mm256_shuffle_epi32::<0b10_11_00_01>(v[0]);
                v[2] = _mm256_add_epi64(v[2], v[3]);
                v[3] = _mm256_xor_si256(_mm256_shuffle_epi8(v[3], rot16), v[2]);
                v[0] = _mm256_add_epi64(v[0], v[3]);
                v[3] = _mm256_xor_si256(rotl64::<21, 43>(v[3]), v[0]);
                v[2] = _mm256_add_epi64(v[2], v[1]);
                v[1] = _mm256_xor_si256(rotl64::<17, 47>(v[1]), v[2]);
                v[2] = _mm256_shuffle_epi32::<0b10_11_00_01>(v[2]);
            }
        }
    }

    /// SipHash-2-4 of eight pre-encoded three-word messages, as two sets
    /// of four lanes.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn siphash_x8(key: &SipKey, msg: &[[u64; X8]; 3]) -> [u64; X8] {
        // Within each 8-byte lane, the source byte of each output byte.
        #[rustfmt::skip]
        let rot16 = _mm256_setr_epi8(
            6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13,
            6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13,
        );
        let init = sip_init(key);
        let mut v = [_mm256_setzero_si256(); 4];
        for (v, w) in v.iter_mut().zip(init) {
            *v = _mm256_set1_epi64x(w);
        }
        let mut sets = [v; 2];
        for words in msg {
            let m = [
                _mm256_loadu_si256(words[..4].as_ptr().cast()),
                _mm256_loadu_si256(words[4..].as_ptr().cast()),
            ];
            for (v, &m) in sets.iter_mut().zip(&m) {
                v[3] = _mm256_xor_si256(v[3], m);
            }
            siprounds4(&mut sets, 2, rot16);
            for (v, &m) in sets.iter_mut().zip(&m) {
                v[0] = _mm256_xor_si256(v[0], m);
            }
        }
        for v in sets.iter_mut() {
            v[2] = _mm256_xor_si256(v[2], _mm256_set1_epi64x(0xff));
        }
        siprounds4(&mut sets, 4, rot16);
        let mut out = [0u64; X8];
        for (v, half) in sets.iter().zip(out.chunks_exact_mut(4)) {
            let tag = _mm256_xor_si256(_mm256_xor_si256(v[0], v[1]), _mm256_xor_si256(v[2], v[3]));
            _mm256_storeu_si256(half.as_mut_ptr().cast(), tag);
        }
        out
    }

    // ---- AVX-512F: 16 lanes per pass -------------------------------------

    /// The RFC 8439 quarter round on rows `a b c d` of sixteen states at
    /// once; every rotation is one `vprold`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn quarter16(x: &mut [__m512i; 16], [a, b, c, d]: [usize; 4]) {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
    }

    /// `n` SipRounds on both sets of eight 64-bit lanes, interleaved; every
    /// rotation is one `vprolq`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn siprounds8(sets: &mut [[__m512i; 4]; 2], n: usize) {
        for _ in 0..n {
            for v in sets.iter_mut() {
                v[0] = _mm512_add_epi64(v[0], v[1]);
                v[1] = _mm512_xor_si512(_mm512_rol_epi64::<13>(v[1]), v[0]);
                v[0] = _mm512_rol_epi64::<32>(v[0]);
                v[2] = _mm512_add_epi64(v[2], v[3]);
                v[3] = _mm512_xor_si512(_mm512_rol_epi64::<16>(v[3]), v[2]);
                v[0] = _mm512_add_epi64(v[0], v[3]);
                v[3] = _mm512_xor_si512(_mm512_rol_epi64::<21>(v[3]), v[0]);
                v[2] = _mm512_add_epi64(v[2], v[1]);
                v[1] = _mm512_xor_si512(_mm512_rol_epi64::<17>(v[1]), v[2]);
                v[2] = _mm512_rol_epi64::<32>(v[2]);
            }
        }
    }

    /// Sixteen ChaCha20 blocks, one per lane, returning words 0–1 of each:
    /// rows 0–12 are the same in every lane, rows 13–15 are the nonces.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn chacha20_x16(
        key: &[u8; KEY_LEN],
        counter: u32,
        nonce: &[[u32; X16]; 3],
    ) -> [u64; X16] {
        let mut x = [_mm512_setzero_si512(); 16];
        for (row, s) in x.iter_mut().zip(SIGMA) {
            *row = _mm512_set1_epi32(s as i32);
        }
        for (i, row) in x[4..12].iter_mut().enumerate() {
            *row = _mm512_set1_epi32(key_word(key, i));
        }
        x[12] = _mm512_set1_epi32(counter as i32);
        for (row, column) in x[13..].iter_mut().zip(nonce) {
            *row = _mm512_loadu_si512(column.as_ptr().cast());
        }

        for _ in 0..10 {
            quarter16(&mut x, [0, 4, 8, 12]);
            quarter16(&mut x, [1, 5, 9, 13]);
            quarter16(&mut x, [2, 6, 10, 14]);
            quarter16(&mut x, [3, 7, 11, 15]);
            quarter16(&mut x, [0, 5, 10, 15]);
            quarter16(&mut x, [1, 6, 11, 12]);
            quarter16(&mut x, [2, 7, 8, 13]);
            quarter16(&mut x, [3, 4, 9, 14]);
        }

        let mut w0 = [0u32; X16];
        let mut w1 = [0u32; X16];
        _mm512_storeu_si512(w0.as_mut_ptr().cast(), x[0]);
        _mm512_storeu_si512(w1.as_mut_ptr().cast(), x[1]);
        join(w0, w1)
    }

    /// Sixteen SipHash-2-4 tags of pre-encoded three-word messages, as two
    /// interleaved sets of eight lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn siphash_x16(sip: &SipKey, msg: &[[u64; X16]; 3]) -> [u64; X16] {
        let mut v = [_mm512_setzero_si512(); 4];
        for (v, w) in v.iter_mut().zip(sip_init(sip)) {
            *v = _mm512_set1_epi64(w);
        }
        let mut sets = [v; 2];
        for words in msg {
            let m = [
                _mm512_loadu_si512(words[..8].as_ptr().cast()),
                _mm512_loadu_si512(words[8..].as_ptr().cast()),
            ];
            for (v, &m) in sets.iter_mut().zip(&m) {
                v[3] = _mm512_xor_si512(v[3], m);
            }
            siprounds8(&mut sets, 2);
            for (v, &m) in sets.iter_mut().zip(&m) {
                v[0] = _mm512_xor_si512(v[0], m);
            }
        }
        for v in sets.iter_mut() {
            v[2] = _mm512_xor_si512(v[2], _mm512_set1_epi64(0xff));
        }
        siprounds8(&mut sets, 4);

        let mut tags = [0u64; X16];
        for (v, half) in sets.iter().zip(tags.chunks_exact_mut(8)) {
            let tag = _mm512_xor_si512(_mm512_xor_si512(v[0], v[1]), _mm512_xor_si512(v[2], v[3]));
            _mm512_storeu_si512(half.as_mut_ptr().cast(), tag);
        }
        tags
    }

    /// Sixteen ChaCha20 blocks and sixteen SipHash-2-4 tags, one of each
    /// per lane: words 0–1 of each block, and each tag. The two functions
    /// share no data, and each has independent chains enough to fill the
    /// vector ports on its own.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn open_x16(
        key: &[u8; KEY_LEN],
        counter: u32,
        sip: &SipKey,
        lanes: &Lanes<X16>,
    ) -> ([u64; X16], [u64; X16]) {
        (
            chacha20_x16(key, counter, &lanes.nonce),
            siphash_x16(sip, &lanes.msg),
        )
    }

    /// Seals sixteen values, one per lane: the keystream of each lane's
    /// nonce, then the payload (value xor keystream), then the tag words
    /// of nonce and payload, then their tag. Returns payloads and tags.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn seal_x16(
        key: &[u8; KEY_LEN],
        counter: u32,
        sip: &SipKey,
        nonce: &[[u32; X16]; 3],
        values: &[u64; X16],
    ) -> ([u64; X16], [u64; X16]) {
        let keystream = chacha20_x16(key, counter, nonce);
        let payload = std::array::from_fn(|lane| values[lane] ^ keystream[lane]);
        let tags = siphash_x16(sip, &tag_words(nonce, &payload));
        (payload, tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::{self, NONCE_LEN};
    use crate::siphash::siphash24;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rfc_key() -> [u8; KEY_LEN] {
        std::array::from_fn(|i| i as u8)
    }

    fn first_word(block: [u8; chacha20::BLOCK_LEN]) -> u64 {
        u64::from_le_bytes(block[..8].try_into().expect("8 bytes"))
    }

    /// All-zero lanes.
    fn zeroed<const N: usize>() -> Lanes<N> {
        Lanes {
            nonce: [[0; N]; 3],
            msg: [[0; N]; 3],
        }
    }

    /// Lanes carrying `nonces` (and no tag input).
    fn with_nonces<const N: usize>(nonces: &[[u8; NONCE_LEN]; N]) -> Lanes<N> {
        let mut lanes = zeroed();
        for (lane, nonce) in nonces.iter().enumerate() {
            for (w, row) in lanes.nonce.iter_mut().enumerate() {
                row[lane] =
                    u32::from_le_bytes(nonce[4 * w..4 * w + 4].try_into().expect("4 bytes"));
            }
        }
        lanes
    }

    /// Lanes carrying SipHash's encoding of `msgs` (16 to 23 bytes each).
    fn with_messages<const N: usize>(msgs: &[Vec<u8>; N]) -> Lanes<N> {
        let mut lanes = zeroed();
        for (lane, msg) in msgs.iter().enumerate() {
            let mut padded = [0u8; 24];
            padded[..msg.len()].copy_from_slice(msg);
            padded[23] = msg.len() as u8;
            for (w, row) in lanes.msg.iter_mut().enumerate() {
                row[lane] =
                    u64::from_le_bytes(padded[8 * w..8 * w + 8].try_into().expect("8 bytes"));
            }
        }
        lanes
    }

    /// Keystream words of every lane of every tier this CPU has.
    fn keystreams(
        key: &[u8; KEY_LEN],
        counter: u32,
        nonces: &[[u8; NONCE_LEN]; X16],
    ) -> Vec<Vec<u64>> {
        let mut tiers = Vec::new();
        match Avx2::detect() {
            Some(avx2) => {
                let halves = nonces.chunks_exact(X8).map(|half| {
                    let half: &[[u8; NONCE_LEN]; X8] = half.try_into().expect("8 lanes");
                    avx2.chacha20_x8(key, counter, &with_nonces(half).nonce)
                });
                tiers.push(halves.flatten().collect());
            }
            None => eprintln!("no AVX2 on this CPU: the 8-lane kernels are not reachable"),
        }
        match Avx512::detect() {
            Some(wide) => {
                let (keystream, _) = wide.open_x16(key, counter, &[0; 16], &with_nonces(nonces));
                tiers.push(keystream.to_vec());
            }
            None => eprintln!("no AVX-512F on this CPU: the 16-lane kernel is not reachable"),
        }
        tiers
    }

    // RFC 8439 §2.3.2: key 00..1f, counter 1, nonce 000000090000004a00000000.
    #[test]
    fn rfc8439_block_vector_in_every_lane() {
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        for ks in keystreams(&rfc_key(), 1, &[nonce; X16]) {
            for (lane, word) in ks.iter().enumerate() {
                assert_eq!(
                    word.to_le_bytes(),
                    [0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15],
                    "lane {lane} of {}",
                    ks.len()
                );
            }
        }
    }

    #[test]
    fn every_lane_is_the_scalar_block_of_its_own_nonce() {
        let key: [u8; KEY_LEN] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0xa5);
        let nonces: [[u8; NONCE_LEN]; X16] =
            std::array::from_fn(|lane| std::array::from_fn(|i| (lane * 31 + i * 7) as u8));
        for counter in [0, 1, u32::MAX] {
            for ks in keystreams(&key, counter, &nonces) {
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

    /// Under the reference key 00..0f, on random 16- to 23-byte inputs
    /// (21 is a cell's tag input).
    #[test]
    fn every_siphash_lane_is_the_scalar_siphash_of_its_own_input() {
        let key: SipKey = std::array::from_fn(|i| i as u8);
        let (avx2, wide) = (Avx2::detect(), Avx512::detect());
        if avx2.is_none() {
            eprintln!("no AVX2 on this CPU: the 8-lane kernels are not reachable");
        }
        if wide.is_none() {
            eprintln!("no AVX-512F on this CPU: the 16-lane kernel is not reachable");
        }
        let mut rng = StdRng::seed_from_u64(21);
        for round in 0..64 {
            let msgs: [Vec<u8>; X16] = std::array::from_fn(|lane| {
                let len = if round % 2 == 0 { 21 } else { 16 + lane % 8 };
                let mut msg = vec![0u8; len];
                rng.fill_bytes(&mut msg);
                msg
            });
            let expected: Vec<u64> = msgs.iter().map(|m| siphash24(&key, m)).collect();
            let lanes = with_messages(&msgs);
            if let Some(avx2) = avx2 {
                for half in 0..2 {
                    let msg = lanes.msg.map(|row| {
                        <[u64; X8]>::try_from(&row[X8 * half..X8 * (half + 1)]).expect("8 lanes")
                    });
                    let tags = avx2.siphash_x8(&key, &msg);
                    assert_eq!(
                        tags[..],
                        expected[X8 * half..X8 * (half + 1)],
                        "x8, round {round}"
                    );
                }
            }
            if let Some(wide) = wide {
                let (_, tags) = wide.open_x16(&[0; KEY_LEN], 0, &key, &lanes);
                assert_eq!(tags[..], expected[..], "x16, round {round}");
            }
        }
    }
}
