//! Record ciphers for fixed-width attribute values.
//!
//! The EDBMS stores every attribute value as an independent ciphertext so
//! that the service provider can hand a single cell to the trusted machine
//! for QPF evaluation. There is one construction, [`ValueCipher`]:
//! randomized, a fresh nonce per encryption, so equal plaintexts yield
//! unlinkable ciphertexts (the paper's security baseline: SP learns nothing
//! from ciphertexts alone). It seals stored cells and trapdoor payloads
//! alike, each under its own derived key: a whole column in one
//! [`ValueCipher::seal_into`], a single cell with
//! [`ValueCipher::encrypt_into`].

use crate::arch::{self, Lanes, Tier};
use crate::chacha20::{self, NONCE_LEN};
use crate::error::CryptoError;
use crate::keys::SubKey;
use crate::prf::Prf;
use crate::siphash::{siphash24, SipKey};
use bytes::Bytes;
use rand::RngCore;

/// The widest kernel [`ValueCipher::decrypt_slices`] opens and
/// [`ValueCipher::seal_into`] seals with on this CPU — both take the same
/// tier: `"chacha20+siphash-avx512-x16"`, `"chacha20+siphash-avx2-x8"` or
/// `"scalar"`.
pub fn batch_kernel() -> &'static str {
    match Tier::detect() {
        Tier::X16(_) => "chacha20+siphash-avx512-x16",
        Tier::X8(_) => "chacha20+siphash-avx2-x8",
        Tier::Scalar => "scalar",
    }
}

/// Asks the cache to start loading `cell` (its first and last byte's
/// lines) ahead of a [`ValueCipher::decrypt_slices`] pass that will read
/// it. A hint: it changes nothing any later read returns, and does nothing
/// for an empty slice or on a target other than `x86_64`.
#[inline]
pub fn prefetch(cell: &[u8]) {
    arch::prefetch(cell);
}

/// Width of the encrypted payload (a `u64` attribute value).
pub const PAYLOAD_LEN: usize = 8;
/// Width of the integrity tag (truncated keyed SipHash).
pub const TAG_LEN: usize = 8;
/// Total ciphertext width: nonce || payload || tag.
pub const CIPHERTEXT_LEN: usize = NONCE_LEN + PAYLOAD_LEN + TAG_LEN;
/// Cells per pass of [`ValueCipher::decrypt_slices`]'s widest kernel.
pub const BATCH_LANES: usize = arch::X16;
/// The keystream block counter a cell's payload is sealed under.
const PAYLOAD_BLOCK: u32 = 1;
/// The tag input's leading byte. Every sealed cell, trapdoor and fixture was
/// tagged with it, so it stays 0 (`golden_ciphertext_bytes` pins it).
const TAG_PREFIX: u8 = 0;
/// Bytes the tag authenticates: [`TAG_PREFIX`], nonce, encrypted payload.
const TAG_INPUT_LEN: usize = 1 + NONCE_LEN + PAYLOAD_LEN;
/// The most cells left that [`ValueCipher::decrypt_slices`] settles with the
/// scalar code rather than a lane pass. Measured on an x86-64 Xeon with
/// AVX-512F: one ChaCha20 block plus one tag costs ≈ 160 ns, and a lane
/// pass costs the same at any fill, ≈ 265 ns for 16 lanes or ≈ 310 ns for
/// 8 (keystream ≈ 220, tags ≈ 55), so a lane pass wins from two cells on.
const SCALAR_PASS_MAX: usize = 1;

/// An encrypted attribute value as stored at the service provider.
///
/// Cheap to clone ([`Bytes`] is reference counted); equality is byte
/// equality of the ciphertext, which for [`ValueCipher`] says nothing about
/// plaintext equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ciphertext(Bytes);

impl Ciphertext {
    /// Wraps raw bytes (must be exactly [`CIPHERTEXT_LEN`] long).
    pub fn from_bytes(bytes: Bytes) -> Result<Self, CryptoError> {
        if bytes.len() != CIPHERTEXT_LEN {
            return Err(CryptoError::CiphertextTooShort {
                expected: CIPHERTEXT_LEN,
                actual: bytes.len(),
            });
        }
        Ok(Ciphertext(bytes))
    }

    /// Raw ciphertext bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

fn tag_key(key: &SubKey) -> SipKey {
    // Separate the tag key from the stream key under the same sub-key.
    let prf = Prf::new(*key.as_bytes());
    let t = prf.eval(b"prkb.cipher.tagkey.v1");
    t[..16].try_into().expect("16-byte slice")
}

fn compute_tag(tkey: &SipKey, nonce: &[u8; NONCE_LEN], ct: &[u8; PAYLOAD_LEN]) -> [u8; TAG_LEN] {
    let mut buf = [0u8; TAG_INPUT_LEN];
    buf[0] = TAG_PREFIX;
    buf[1..1 + NONCE_LEN].copy_from_slice(nonce);
    buf[1 + NONCE_LEN..].copy_from_slice(ct);
    siphash24(tkey, &buf).to_le_bytes()
}

/// `bytes` as a cell, if it has a cell's length.
fn cell(bytes: &[u8]) -> Result<&[u8; CIPHERTEXT_LEN], CryptoError> {
    bytes
        .try_into()
        .map_err(|_| CryptoError::CiphertextTooShort {
            expected: CIPHERTEXT_LEN,
            actual: bytes.len(),
        })
}

/// Checks `cell`'s stored tag against `expected` with a constant-shape
/// compare, and returns its still-encrypted payload.
fn verify(
    cell: &[u8; CIPHERTEXT_LEN],
    expected: [u8; TAG_LEN],
) -> Result<[u8; PAYLOAD_LEN], CryptoError> {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(&cell[NONCE_LEN + PAYLOAD_LEN..]) {
        diff |= a ^ b;
    }
    if diff != 0 {
        return Err(CryptoError::TagMismatch);
    }
    Ok(cell[NONCE_LEN..NONCE_LEN + PAYLOAD_LEN]
        .try_into()
        .expect("length checked"))
}

/// Checks `bytes`' length and integrity tag, and returns its nonce and
/// still-encrypted payload. Nothing of a cell is used before this passes.
fn authenticate(
    tkey: &SipKey,
    bytes: &[u8],
) -> Result<([u8; NONCE_LEN], [u8; PAYLOAD_LEN]), CryptoError> {
    let cell = cell(bytes)?;
    let nonce: [u8; NONCE_LEN] = cell[..NONCE_LEN].try_into().expect("length checked");
    let payload: &[u8; PAYLOAD_LEN] = cell[NONCE_LEN..NONCE_LEN + PAYLOAD_LEN]
        .try_into()
        .expect("length checked");
    let payload = verify(cell, compute_tag(tkey, &nonce, payload))?;
    Ok((nonce, payload))
}

/// Little-endian `u64` of the 8 bytes of `cell` at `at`.
fn le64(cell: &[u8; CIPHERTEXT_LEN], at: usize) -> u64 {
    u64::from_le_bytes(cell[at..at + 8].try_into().expect("8 bytes"))
}

/// The SipHash-2-4 message words of each lane's tag input — [`TAG_PREFIX`],
/// the nonce, the payload, then the length in the last byte — from its
/// nonce words and its payload (as the cell stores it, still encrypted).
pub(crate) fn tag_words<const N: usize>(
    nonce: &[[u32; N]; 3],
    payload: &[u64; N],
) -> [[u64; N]; 3] {
    let mut msg = [[0; N]; 3];
    for lane in 0..N {
        let head = u64::from(nonce[0][lane]) | u64::from(nonce[1][lane]) << 32;
        msg[0][lane] = head << 8 | u64::from(TAG_PREFIX);
        msg[1][lane] = head >> 56 | u64::from(nonce[2][lane]) << 8 | payload[lane] << 40;
        msg[2][lane] = payload[lane] >> 24 | (TAG_INPUT_LEN as u64) << 56;
    }
    msg
}

/// One pass's cells as the kernels read them: each lane's nonce words and
/// the [`tag_words`] of its tag input. A cell of the wrong length leaves
/// its nonce and payload zero; its length check fails before the lane is
/// read.
fn gather<const N: usize>(pass: &[&[u8]]) -> Lanes<N> {
    let mut nonce = [[0; N]; 3];
    let mut payload = [0; N];
    for (lane, bytes) in pass.iter().enumerate() {
        let Ok(c) = cell(bytes) else { continue };
        for (w, row) in nonce.iter_mut().enumerate() {
            row[lane] = u32::from_le_bytes(c[4 * w..4 * w + 4].try_into().expect("4 bytes"));
        }
        payload[lane] = le64(c, NONCE_LEN);
    }
    Lanes {
        msg: tag_words(&nonce, &payload),
        nonce,
    }
}

/// One seal pass: up to `N` values with their nonces, drawn in cell order.
struct Pass<const N: usize> {
    /// Cells in the pass; the lanes after them are zero.
    cells: usize,
    nonce: [[u32; N]; 3],
    values: [u64; N],
}

impl<const N: usize> Pass<N> {
    /// The first `N` of `values` (or all, if fewer), each with a nonce of
    /// one 12-byte `fill_bytes`, drawn in order as `encrypt_into` draws.
    fn draw<R: RngCore>(rng: &mut R, values: &[u64]) -> Self {
        let mut pass = Pass {
            cells: values.len().min(N),
            nonce: [[0; N]; 3],
            values: [0; N],
        };
        for (lane, &value) in values[..pass.cells].iter().enumerate() {
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            for (w, row) in pass.nonce.iter_mut().enumerate() {
                row[lane] =
                    u32::from_le_bytes(nonce[4 * w..4 * w + 4].try_into().expect("4 bytes"));
            }
            pass.values[lane] = value;
        }
        pass
    }

    /// Appends the pass's cells — nonce, payload, tag — to `out`, and
    /// returns how many.
    fn emit(&self, payload: &[u64; N], tags: &[u64; N], out: &mut Vec<u8>) -> usize {
        for lane in 0..self.cells {
            let mut cell = [0u8; CIPHERTEXT_LEN];
            for (w, row) in self.nonce.iter().enumerate() {
                cell[4 * w..4 * w + 4].copy_from_slice(&row[lane].to_le_bytes());
            }
            cell[NONCE_LEN..NONCE_LEN + PAYLOAD_LEN].copy_from_slice(&payload[lane].to_le_bytes());
            cell[NONCE_LEN + PAYLOAD_LEN..].copy_from_slice(&tags[lane].to_le_bytes());
            out.extend_from_slice(&cell);
        }
        self.cells
    }
}

/// Settles one lane pass in lane order: each cell's length, then its
/// tag against its lane's, then its plaintext. Returns how many it settled.
fn settle(
    pass: &[&[u8]],
    keystream: &[u64],
    tags: &[u64],
    out: &mut [u64],
) -> Result<usize, (usize, CryptoError)> {
    for (lane, (bytes, o)) in pass.iter().zip(out).enumerate() {
        let payload = cell(bytes).and_then(|c| verify(c, tags[lane].to_le_bytes()));
        *o = u64::from_le_bytes(payload.map_err(|e| (lane, e))?) ^ keystream[lane];
    }
    Ok(pass.len())
}

fn open_slice(key: &[u8; 32], tkey: &SipKey, bytes: &[u8]) -> Result<u64, CryptoError> {
    let (nonce, mut plain) = authenticate(tkey, bytes)?;
    chacha20::apply_keystream(key, &nonce, PAYLOAD_BLOCK, &mut plain);
    Ok(u64::from_le_bytes(plain))
}

/// Randomized value encryption: a ChaCha20 keystream with a fresh random
/// nonce plus a keyed SipHash-2-4 integrity tag.
#[derive(Clone)]
pub struct ValueCipher {
    key: [u8; 32],
    tkey: SipKey,
}

impl ValueCipher {
    /// Builds a cipher from a derived sub-key.
    pub fn new(key: SubKey) -> Self {
        ValueCipher {
            key: *key.as_bytes(),
            tkey: tag_key(&key),
        }
    }

    /// Encrypts `value` with a nonce drawn from `rng`.
    pub fn encrypt<R: RngCore>(&self, rng: &mut R, value: u64) -> Ciphertext {
        let mut out = Vec::with_capacity(CIPHERTEXT_LEN);
        self.encrypt_into(rng, value, &mut out);
        Ciphertext(Bytes::from(out))
    }

    /// Decrypts, verifying the integrity tag.
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<u64, CryptoError> {
        open_slice(&self.key, &self.tkey, ct.as_bytes())
    }

    /// Appends the ciphertext of `value` (exactly [`CIPHERTEXT_LEN`] bytes)
    /// to `out` without intermediate allocation — the hot path for bulk
    /// column encryption.
    pub fn encrypt_into<R: RngCore>(&self, rng: &mut R, value: u64, out: &mut Vec<u8>) {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        let mut payload = value.to_le_bytes();
        chacha20::apply_keystream(&self.key, &nonce, PAYLOAD_BLOCK, &mut payload);
        let tag = compute_tag(&self.tkey, &nonce, &payload);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&tag);
    }

    /// Appends the ciphertexts of `values` to `out`, one cell per value in
    /// order: byte for byte what [`ValueCipher::encrypt_into`] appends when
    /// called on each value in turn, and `rng` ends where that loop leaves
    /// it — each cell's nonce is one 12-byte `fill_bytes`, in cell order.
    ///
    /// On an x86-64 CPU with AVX2 (detected once per call), the cells are
    /// sealed through the lane kernels [`ValueCipher::decrypt_slices`]
    /// opens with: up to 16 per pass where the CPU has AVX-512F, up to 8
    /// where it has only AVX2; a last single cell is cheaper through
    /// `encrypt_into`. Otherwise — a CPU without AVX2, a target other than
    /// `x86_64` — this is the `encrypt_into` loop, which stays the
    /// reference.
    pub fn seal_into<R: RngCore>(&self, rng: &mut R, values: &[u64], out: &mut Vec<u8>) {
        self.seal_into_on(Tier::detect(), rng, values, out);
    }

    /// [`ValueCipher::seal_into`] on `tier`'s kernels.
    fn seal_into_on<R: RngCore>(&self, tier: Tier, rng: &mut R, values: &[u64], out: &mut Vec<u8>) {
        out.reserve(values.len() * CIPHERTEXT_LEN);
        let mut at = 0;
        while at < values.len() {
            let rest = &values[at..];
            at += match tier {
                Tier::X16(wide) if rest.len() > SCALAR_PASS_MAX => {
                    let pass = Pass::<{ arch::X16 }>::draw(rng, rest);
                    let (payload, tags) = wide.seal_x16(
                        &self.key,
                        PAYLOAD_BLOCK,
                        &self.tkey,
                        &pass.nonce,
                        &pass.values,
                    );
                    pass.emit(&payload, &tags, out)
                }
                Tier::X8(avx2) if rest.len() > SCALAR_PASS_MAX => {
                    let pass = Pass::<{ arch::X8 }>::draw(rng, rest);
                    let keystream = avx2.chacha20_x8(&self.key, PAYLOAD_BLOCK, &pass.nonce);
                    let payload = std::array::from_fn(|lane| pass.values[lane] ^ keystream[lane]);
                    let tags = avx2.siphash_x8(&self.tkey, &tag_words(&pass.nonce, &payload));
                    pass.emit(&payload, &tags, out)
                }
                // No kernel, or too few cells left to pay for a lane pass.
                _ => {
                    for &value in rest {
                        self.encrypt_into(rng, value, out);
                    }
                    rest.len()
                }
            };
        }
    }

    /// Decrypts a raw [`CIPHERTEXT_LEN`]-byte slice (flat column storage
    /// path), verifying the integrity tag.
    ///
    /// This is the reference [`ValueCipher::decrypt_slices`] is tested
    /// against, and the loop it falls back to.
    pub fn decrypt_slice(&self, bytes: &[u8]) -> Result<u64, CryptoError> {
        open_slice(&self.key, &self.tkey, bytes)
    }

    /// Decrypts `cells` into `out`, one value per cell, with the result of
    /// [`ValueCipher::decrypt_slice`] on each in turn.
    ///
    /// On an x86-64 CPU with AVX2 (detected once per call), the cells go
    /// through the lane kernels: one pass computes the keystream and the
    /// tags of up to 16 cells where the CPU has AVX-512F and of up to 8
    /// where it has only AVX2; a last single cell is cheaper through the
    /// scalar code. Otherwise — a CPU without AVX2, a target other than
    /// `x86_64` — this is the `decrypt_slice` loop. Either way cells are
    /// settled in order: each one's length and tag (with the same
    /// constant-shape compare) are checked before its plaintext is formed.
    ///
    /// # Errors
    /// Stops at the first cell that fails and returns its index with its
    /// error. `out` then holds the plaintexts of the cells before it;
    /// entries from the failing index on are unspecified.
    ///
    /// # Panics
    /// If `out` and `cells` differ in length.
    pub fn decrypt_slices(
        &self,
        cells: &[&[u8]],
        out: &mut [u64],
    ) -> Result<(), (usize, CryptoError)> {
        self.decrypt_slices_on(Tier::detect(), cells, out)
    }

    /// [`ValueCipher::decrypt_slices`] on `tier`'s kernels.
    fn decrypt_slices_on(
        &self,
        tier: Tier,
        cells: &[&[u8]],
        out: &mut [u64],
    ) -> Result<(), (usize, CryptoError)> {
        assert_eq!(cells.len(), out.len(), "one output per cell");
        let mut at = 0;
        while at < cells.len() {
            let (rest, out) = (&cells[at..], &mut out[at..]);
            let settled = match tier {
                Tier::X16(wide) if rest.len() > SCALAR_PASS_MAX => {
                    let pass = &rest[..rest.len().min(arch::X16)];
                    let lanes = gather::<{ arch::X16 }>(pass);
                    let (keystream, tags) =
                        wide.open_x16(&self.key, PAYLOAD_BLOCK, &self.tkey, &lanes);
                    settle(pass, &keystream, &tags, out)
                }
                Tier::X8(avx2) if rest.len() > SCALAR_PASS_MAX => {
                    let pass = &rest[..rest.len().min(arch::X8)];
                    let lanes = gather::<{ arch::X8 }>(pass);
                    let keystream = avx2.chacha20_x8(&self.key, PAYLOAD_BLOCK, &lanes.nonce);
                    let tags = avx2.siphash_x8(&self.tkey, &lanes.msg);
                    settle(pass, &keystream, &tags, out)
                }
                // No kernel, or too few cells left to pay for a lane pass.
                _ => self.decrypt_each(rest, out),
            };
            at += settled.map_err(|(i, e)| (at + i, e))?;
        }
        Ok(())
    }

    /// The `decrypt_slice` loop over `cells`; returns how many it settled.
    fn decrypt_each(
        &self,
        cells: &[&[u8]],
        out: &mut [u64],
    ) -> Result<usize, (usize, CryptoError)> {
        for (i, (cell, o)) in cells.iter().zip(out).enumerate() {
            *o = self.decrypt_slice(cell).map_err(|e| (i, e))?;
        }
        Ok(cells.len())
    }
}

impl std::fmt::Debug for ValueCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValueCipher").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{KeyPurpose, MasterKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cipher() -> ValueCipher {
        let mk = MasterKey::from_bytes([1u8; 32]);
        ValueCipher::new(mk.derive(KeyPurpose::ValueEncryption, "t", 0))
    }

    #[test]
    fn roundtrip() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(7);
        for v in [0u64, 1, 42, u64::MAX, 30_000_000] {
            let ct = c.encrypt(&mut rng, v);
            assert_eq!(c.decrypt(&ct).unwrap(), v);
            assert_eq!(ct.as_bytes().len(), CIPHERTEXT_LEN);
        }
    }

    #[test]
    fn randomized_hides_equality() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(7);
        let a = c.encrypt(&mut rng, 42);
        let b = c.encrypt(&mut rng, 42);
        assert_ne!(a, b, "equal plaintexts must be unlinkable");
    }

    #[test]
    fn tamper_detected() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(7);
        let ct = c.encrypt(&mut rng, 42);
        for i in 0..CIPHERTEXT_LEN {
            let mut bytes = ct.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let bad = Ciphertext::from_bytes(Bytes::from(bytes)).unwrap();
            assert_eq!(c.decrypt(&bad), Err(CryptoError::TagMismatch), "byte {i}");
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let mk = MasterKey::from_bytes([1u8; 32]);
        let c1 = ValueCipher::new(mk.derive(KeyPurpose::ValueEncryption, "t", 0));
        let c2 = ValueCipher::new(mk.derive(KeyPurpose::ValueEncryption, "t", 1));
        let mut rng = StdRng::seed_from_u64(7);
        let ct = c1.encrypt(&mut rng, 42);
        assert_eq!(c2.decrypt(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn slice_api_matches_owned_api() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(11);
        let mut buf = Vec::new();
        for v in [0u64, 7, u64::MAX] {
            c.encrypt_into(&mut rng, v, &mut buf);
        }
        assert_eq!(buf.len(), 3 * CIPHERTEXT_LEN);
        assert_eq!(c.decrypt_slice(&buf[..CIPHERTEXT_LEN]).unwrap(), 0);
        assert_eq!(
            c.decrypt_slice(&buf[CIPHERTEXT_LEN..2 * CIPHERTEXT_LEN])
                .unwrap(),
            7
        );
        assert_eq!(
            c.decrypt_slice(&buf[2 * CIPHERTEXT_LEN..]).unwrap(),
            u64::MAX
        );
        // Owned decrypt on slice-produced bytes also works.
        let ct = Ciphertext::from_bytes(Bytes::copy_from_slice(&buf[..CIPHERTEXT_LEN])).unwrap();
        assert_eq!(c.decrypt(&ct).unwrap(), 0);
        // Bad length rejected.
        assert!(c.decrypt_slice(&buf[..5]).is_err());
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(matches!(
            Ciphertext::from_bytes(Bytes::from_static(&[0u8; 5])),
            Err(CryptoError::CiphertextTooShort { .. })
        ));
    }

    /// The prefetch hint is invisible to loads: the bytes it was pointed at
    /// read the same after it, for an empty slice, a one-byte slice, and
    /// the last cell of a column (the one that ends the buffer).
    #[test]
    fn prefetch_changes_nothing_a_load_returns() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(9);
        let mut column = Vec::new();
        for v in 0..100u64 {
            c.encrypt_into(&mut rng, v * 3, &mut column);
        }
        let snapshot = column.clone();
        let last = &column[column.len() - CIPHERTEXT_LEN..];
        let (empty, one) = (&column[..0], &column[..1]);
        prefetch(empty);
        prefetch(one);
        prefetch(last);
        assert_eq!(empty, &[] as &[u8]);
        assert_eq!(one, &snapshot[..1]);
        assert_eq!(last, &snapshot[snapshot.len() - CIPHERTEXT_LEN..]);
        assert_eq!(c.decrypt_slice(last).unwrap(), 99 * 3);
        let mut out = [0u64];
        c.decrypt_slices(&[last], &mut out).unwrap();
        assert_eq!(out, [99 * 3]);
        assert_eq!(column, snapshot);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes the cipher seals under a fixed key and RNG. Every
    /// stored cell, trapdoor and fixture depends on them, so a change here
    /// is a format change.
    #[test]
    fn golden_ciphertext_bytes() {
        let mk = MasterKey::from_bytes([3u8; 32]);
        let val = ValueCipher::new(mk.derive(KeyPurpose::ValueEncryption, "t", 0));
        let mut rng = StdRng::seed_from_u64(42);
        let sealed: Vec<String> = [0u64, 1, 1_000_000, u64::MAX]
            .iter()
            .map(|&v| hex(val.encrypt(&mut rng, v).as_bytes()))
            .collect();
        assert_eq!(
            sealed,
            [
                "956eeb2f2632d7bd03f166b23241cb310ff69c8b1bf7fc1f94111761",
                "529f0f135767524794e34a0ed6e60d786d677041064ea6ebd8fd2161",
                "f22348245a58bc0906db803c44325fb7932f8affff67a775c6bdea9d",
                "5d6d37451c67e937a42f9e9e27f6f62ceba16e3734208260c48a2080",
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::arch::{Avx2, Avx512};
    use crate::keys::{KeyPurpose, MasterKey};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn roundtrip_any_value(v in any::<u64>(), seed in any::<u64>()) {
            let mk = MasterKey::from_bytes([9u8; 32]);
            let c = ValueCipher::new(mk.derive(KeyPurpose::ValueEncryption, "t", 0));
            let mut rng = StdRng::seed_from_u64(seed);
            let ct = c.encrypt(&mut rng, v);
            prop_assert_eq!(c.decrypt(&ct).unwrap(), v);
        }

        /// Every batch length 0..=40 — each tail of 1 to 15 lanes after
        /// whole passes — under a random key.
        #[test]
        fn decrypt_slices_equals_per_cell_decrypt_slice(key in any::<u64>(), seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = random_cipher(key);
            let flat = sealed_cells(&c, &mut rng, 40);
            let cells: Vec<&[u8]> = flat.chunks(CIPHERTEXT_LEN).collect();
            for len in 0..=cells.len() {
                let mut out = vec![0u64; len];
                c.decrypt_slices(&cells[..len], &mut out).expect("own cells");
                let reference: Vec<u64> =
                    cells[..len].iter().map(|cell| c.decrypt_slice(cell).unwrap()).collect();
                prop_assert_eq!(out, reference, "{} cells", len);
            }
        }

        /// One bad cell: the same plaintext prefix, index and error as the
        /// per-cell loop, whether a byte was flipped or the cell cut short.
        #[test]
        fn decrypt_slices_stops_at_the_first_bad_cell(
            key in any::<u64>(),
            seed in any::<u64>(),
            len in 1usize..=40,
            pick in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = random_cipher(key);
            let mut flat = sealed_cells(&c, &mut rng, len);
            let bad = pick as usize % len;
            let byte = (pick >> 32) as usize % CIPHERTEXT_LEN;
            flat[bad * CIPHERTEXT_LEN + byte] ^= 1 << ((pick >> 8) % 8);
            let mut cells: Vec<&[u8]> = flat.chunks(CIPHERTEXT_LEN).collect();
            let expected_prefix: Vec<u64> =
                cells[..bad].iter().map(|cell| c.decrypt_slice(cell).unwrap()).collect();
            let mut out = vec![0u64; len];
            let err = c.decrypt_slices(&cells, &mut out).unwrap_err();
            prop_assert_eq!(err, (bad, c.decrypt_slice(cells[bad]).unwrap_err()));
            prop_assert_eq!(err.1, CryptoError::TagMismatch);
            prop_assert_eq!(&out[..bad], &expected_prefix[..]);

            cells[bad] = &cells[bad][..byte];
            let err = c.decrypt_slices(&cells, &mut out).unwrap_err();
            prop_assert_eq!(err.0, bad);
            prop_assert!(matches!(err.1, CryptoError::CiphertextTooShort { .. }), "{:?}", err);
            prop_assert_eq!(&out[..bad], &expected_prefix[..]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Every tier this CPU has — scalar, 8 and 16 lanes — on every batch
        /// length 0..=40, clean and with one bad cell at each position: cut
        /// short, one byte long, or one flipped nonce, payload or tag byte.
        /// Each returns the scalar loop's `(index, error)` and output prefix.
        #[test]
        fn every_tier_settles_like_the_scalar_loop(key in any::<u64>(), seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = random_cipher(key);
            let flat = sealed_cells(&c, &mut rng, 40);
            let tiers = tiers();
            for len in 0..=40 {
                let clean: Vec<Vec<u8>> =
                    flat.chunks(CIPHERTEXT_LEN).take(len).map(<[u8]>::to_vec).collect();
                let mut batches = vec![(clean.clone(), None)];
                for bad in 0..len {
                    for kind in 0..5 {
                        let mut cells = clean.clone();
                        let pick = rng.next_u64() as usize;
                        let bit = 1 << (pick % 8);
                        let cell = &mut cells[bad];
                        match kind {
                            0 => cell.truncate(pick % CIPHERTEXT_LEN),
                            1 => cell.push(pick as u8),
                            2 => cell[pick % NONCE_LEN] ^= bit,
                            3 => cell[NONCE_LEN + pick % PAYLOAD_LEN] ^= bit,
                            _ => cell[NONCE_LEN + PAYLOAD_LEN + pick % TAG_LEN] ^= bit,
                        }
                        batches.push((cells, Some(bad)));
                    }
                }
                for (cells, bad) in batches {
                    let cells: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
                    let settled = bad.unwrap_or(len);
                    let mut reference = vec![0u64; len];
                    let expected = c.decrypt_slices_on(Tier::Scalar, &cells, &mut reference);
                    prop_assert_eq!(expected.clone().map_err(|(i, _)| i), bad.map_or(Ok(()), Err));
                    for &tier in &tiers {
                        let mut out = vec![0u64; len];
                        let got = c.decrypt_slices_on(tier, &cells, &mut out);
                        prop_assert_eq!(&got, &expected, "{:?}, {} cells, bad {:?}", tier, len, bad);
                        prop_assert_eq!(&out[..settled], &reference[..settled], "{:?}", tier);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every tier this CPU has, on every length 0..=40 — each tail of 1
        /// to 15 lanes after whole passes: the batched seal appends exactly
        /// the bytes of the `encrypt_into` loop under the same seed, leaves
        /// the RNG where the loop leaves it, and every cell it sealed opens
        /// through `decrypt_slices` to its value.
        #[test]
        fn every_tier_seals_like_the_encrypt_into_loop(key in any::<u64>(), seed in any::<u64>()) {
            let c = random_cipher(key);
            let mut draw = StdRng::seed_from_u64(!seed);
            let values: Vec<u64> = (0..40).map(|_| draw.next_u64()).collect();
            let mut tiers = tiers();
            tiers.push(Tier::Scalar);
            for len in 0..=values.len() {
                let values = &values[..len];
                // A byte already in `out`, which both must append after.
                let mut reference_rng = StdRng::seed_from_u64(seed);
                let mut reference = vec![0xa5];
                for &v in values {
                    c.encrypt_into(&mut reference_rng, v, &mut reference);
                }
                let next = reference_rng.next_u64();
                for &tier in &tiers {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut out = vec![0xa5];
                    c.seal_into_on(tier, &mut rng, values, &mut out);
                    prop_assert_eq!(&out, &reference, "{:?}, {} values", tier, len);
                    prop_assert_eq!(rng.next_u64(), next, "{:?}: the RNG's position", tier);
                    let cells: Vec<&[u8]> = out[1..].chunks(CIPHERTEXT_LEN).collect();
                    let mut opened = vec![0u64; len];
                    c.decrypt_slices(&cells, &mut opened).expect("own cells");
                    prop_assert_eq!(&opened[..], values, "{:?}", tier);
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = vec![0xa5];
                c.seal_into(&mut rng, values, &mut out);
                prop_assert_eq!(&out, &reference, "the detected tier, {} values", len);
            }
        }
    }

    /// The lane tiers this CPU has.
    fn tiers() -> Vec<Tier> {
        let mut tiers = Vec::new();
        match Avx2::detect() {
            Some(avx2) => tiers.push(Tier::X8(avx2)),
            None => eprintln!("no AVX2 on this CPU: the 8-lane tier is not reachable"),
        }
        match Avx512::detect() {
            Some(wide) => tiers.push(Tier::X16(wide)),
            None => eprintln!("no AVX-512F on this CPU: the 16-lane tier is not reachable"),
        }
        tiers
    }

    fn random_cipher(key: u64) -> ValueCipher {
        let mut rng = StdRng::seed_from_u64(key);
        let mk = MasterKey::generate(&mut rng);
        ValueCipher::new(mk.derive(KeyPurpose::ValueEncryption, "t", 0))
    }

    fn sealed_cells(c: &ValueCipher, rng: &mut StdRng, n: usize) -> Vec<u8> {
        let mut flat = Vec::with_capacity(n * CIPHERTEXT_LEN);
        for _ in 0..n {
            let value = rng.next_u64();
            c.encrypt_into(rng, value, &mut flat);
        }
        flat
    }
}
