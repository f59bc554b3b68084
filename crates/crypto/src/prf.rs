//! Keyed pseudorandom-function abstraction.
//!
//! The searchable-encryption substrate derives *tokens* and *labels* from
//! keywords; the EDBMS derives per-attribute keys. Both want a uniform
//! "PRF under a 32-byte key" interface with a fast short-output path.

use crate::hmac::HmacSha256;
use crate::siphash::{siphash24, SipKey};

/// A pseudorandom function keyed with 32 bytes.
///
/// * [`Prf::eval`] gives a full 32-byte output (HMAC-SHA256) — used where the
///   output itself becomes key material.
/// * [`Prf::eval64`] gives a fast 64-bit output (SipHash-2-4 under a key
///   derived once from the main key) — used for high-volume label
///   generation.
#[derive(Clone)]
pub struct Prf {
    key: [u8; 32],
    sip_key: SipKey,
}

impl Prf {
    /// Creates a PRF instance from a 32-byte key.
    pub fn new(key: [u8; 32]) -> Self {
        // Derive the SipHash sub-key so that 64-bit outputs are independent
        // of 256-bit outputs under the same logical key.
        let full = HmacSha256::mac(&key, b"prkb.prf.sipkey.v1");
        let mut sip_key = [0u8; 16];
        sip_key.copy_from_slice(&full[..16]);
        Prf { key, sip_key }
    }

    /// Full-width PRF output.
    pub fn eval(&self, input: &[u8]) -> [u8; 32] {
        HmacSha256::mac(&self.key, input)
    }

    /// Full-width PRF output over a domain-separated pair of inputs.
    pub fn eval2(&self, domain: &[u8], input: &[u8]) -> [u8; 32] {
        let mut h = HmacSha256::new(&self.key);
        h.update(&(domain.len() as u32).to_le_bytes());
        h.update(domain);
        h.update(input);
        h.finalize()
    }

    /// Fast 64-bit PRF output.
    pub fn eval64(&self, input: &[u8]) -> u64 {
        siphash24(&self.sip_key, input)
    }
}

impl std::fmt::Debug for Prf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Prf").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let prf = Prf::new([5u8; 32]);
        assert_eq!(prf.eval(b"x"), prf.eval(b"x"));
        assert_eq!(prf.eval64(b"x"), prf.eval64(b"x"));
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        let prf = Prf::new([5u8; 32]);
        assert_ne!(prf.eval(b"x"), prf.eval(b"y"));
        assert_ne!(prf.eval64(b"x"), prf.eval64(b"y"));
    }

    #[test]
    fn distinct_keys_distinct_outputs() {
        let a = Prf::new([1u8; 32]);
        let b = Prf::new([2u8; 32]);
        assert_ne!(a.eval(b"x"), b.eval(b"x"));
        assert_ne!(a.eval64(b"x"), b.eval64(b"x"));
    }

    #[test]
    fn eval2_domain_separation_is_unambiguous() {
        let prf = Prf::new([9u8; 32]);
        // ("ab", "c") must differ from ("a", "bc") — length prefixing.
        assert_ne!(prf.eval2(b"ab", b"c"), prf.eval2(b"a", b"bc"));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let prf = Prf::new([0xaa; 32]);
        let s = format!("{prf:?}");
        assert!(!s.contains("170")); // 0xaa
        assert!(!s.contains("aa"));
    }
}
