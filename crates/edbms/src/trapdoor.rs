//! Encrypted predicates (trapdoors).
//!
//! A trapdoor is what the data owner sends instead of a plaintext predicate.
//! Per the paper's model the service provider observes: a stable identity,
//! the target table and attribute, and whether it is a comparison or a
//! BETWEEN (the two are processed by different algorithms) — but never the
//! operator direction or the parameter values, which travel encrypted.

use crate::codec::Reader;
use crate::schema::AttrId;
use prkb_crypto::cipher::CIPHERTEXT_LEN;
use serde::{Deserialize, Serialize};

/// The SP-visible shape of a trapdoor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredicateKind {
    /// One of `>`, `<`, `≥`, `≤` — indistinguishable to SP (paper §3.1).
    Comparison,
    /// `BETWEEN lo AND hi` (paper Appendix A).
    Between,
}

/// An encrypted predicate as observed by the service provider.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncryptedPredicate {
    id: u64,
    table: String,
    attr: AttrId,
    kind: PredicateKind,
    /// Concatenated fixed-width ciphertext words holding the hidden
    /// operator code and parameter(s).
    payload: Vec<u8>,
}

impl EncryptedPredicate {
    /// Assembles a trapdoor (owner side; `payload` words already encrypted).
    pub(crate) fn assemble(
        id: u64,
        table: String,
        attr: AttrId,
        kind: PredicateKind,
        payload: Vec<u8>,
    ) -> Self {
        debug_assert_eq!(payload.len() % CIPHERTEXT_LEN, 0);
        EncryptedPredicate {
            id,
            table,
            attr,
            kind,
            payload,
        }
    }

    /// Unique trapdoor identity (SP-visible; lets caches key on it).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Table this trapdoor was issued for.
    pub(crate) fn table(&self) -> &str {
        &self.table
    }

    /// Attribute the predicate concerns (SP-visible per the paper).
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// Comparison vs BETWEEN (SP-visible per the paper).
    pub fn kind(&self) -> PredicateKind {
        self.kind
    }

    /// Encrypted payload words (consumed by the trusted machine).
    pub(crate) fn payload_words(&self) -> impl Iterator<Item = &[u8]> {
        self.payload.chunks_exact(CIPHERTEXT_LEN)
    }

    /// Storage footprint in bytes when the service provider retains the
    /// trapdoor (PRKB keeps separator trapdoors for insert handling; this
    /// feeds the paper's Table 3 accounting).
    pub fn storage_bytes(&self) -> usize {
        8 // id
            + self.table.len()
            + 4 // attr
            + 1 // kind
            + self.payload.len()
    }

    /// Appends the canonical wire encoding (used by index snapshots).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&(self.table.len() as u32).to_le_bytes());
        out.extend_from_slice(self.table.as_bytes());
        out.extend_from_slice(&self.attr.to_le_bytes());
        out.push(match self.kind {
            PredicateKind::Comparison => 0,
            PredicateKind::Between => 1,
        });
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Decodes one trapdoor off `r`, leaving it after the last byte read.
    /// Returns `None` on truncated or malformed input.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let id = r.u64().ok()?;
        let tlen = r.count(1).ok()?;
        let table = String::from_utf8(r.bytes(tlen).ok()?.to_vec()).ok()?;
        let attr = r.u32().ok()?;
        let kind = match r.u8().ok()? {
            0 => PredicateKind::Comparison,
            1 => PredicateKind::Between,
            _ => return None,
        };
        let plen = r.count(1).ok()?;
        if !plen.is_multiple_of(CIPHERTEXT_LEN) {
            return None;
        }
        let payload = r.bytes(plen).ok()?.to_vec();
        Some(EncryptedPredicate {
            id,
            table,
            attr,
            kind,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let p = EncryptedPredicate::assemble(
            99,
            "payroll".into(),
            3,
            PredicateKind::Between,
            vec![7u8; 2 * CIPHERTEXT_LEN],
        );
        let mut buf = vec![0xAA; 3]; // preceding junk
        let start = buf.len();
        p.encode_into(&mut buf);
        // Trailing bytes are the caller's: decode stops after its own.
        buf.push(0x55);
        let mut r = Reader::new(&buf[start..]);
        assert_eq!(EncryptedPredicate::decode(&mut r), Some(p));
        assert_eq!(r.bytes(1), Ok(&[0x55][..]));
        // Bad kind byte.
        let mut bad = buf[start..].to_vec();
        let kind_off = 8 + 4 + "payroll".len() + 4;
        bad[kind_off] = 9;
        assert!(EncryptedPredicate::decode(&mut Reader::new(&bad)).is_none());
    }

    #[test]
    fn accessors_and_storage() {
        let p = EncryptedPredicate::assemble(
            7,
            "t".into(),
            2,
            PredicateKind::Comparison,
            vec![0u8; 2 * CIPHERTEXT_LEN],
        );
        assert_eq!(p.id(), 7);
        assert_eq!(p.table(), "t");
        assert_eq!(p.attr(), 2);
        assert_eq!(p.kind(), PredicateKind::Comparison);
        assert_eq!(p.payload_words().count(), 2);
        assert_eq!(p.storage_bytes(), 8 + 1 + 4 + 1 + 2 * CIPHERTEXT_LEN);
    }
}
