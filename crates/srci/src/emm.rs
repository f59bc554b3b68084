//! Encrypted multimap (EMM) — the SSE building block of Logarithmic-SRC-i.
//!
//! Maps *keywords* (TDAG node ids) to byte payloads. The server stores only
//! PRF-derived 64-bit storage labels and ChaCha20-encrypted payload chunks:
//! without the token for a keyword it can neither locate nor decrypt an
//! entry. Lookups are by token; payload decryption happens at the caller
//! (the trusted machine in this deployment).

use prkb_crypto::chacha20;
use prkb_crypto::Prf;
use std::collections::HashMap;

/// Client-side keying material for one EMM.
#[derive(Clone)]
pub struct EmmClient {
    token_prf: Prf,
    payload_prf: Prf,
}

/// A lookup token handed to the server: the storage label plus the payload
/// key the trusted machine will decrypt with.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    label: u64,
    key: [u8; 32],
}

impl EmmClient {
    /// Derives an EMM client from two independent 32-byte keys.
    pub fn new(token_key: [u8; 32], payload_key: [u8; 32]) -> Self {
        EmmClient {
            token_prf: Prf::new(token_key),
            payload_prf: Prf::new(payload_key),
        }
    }

    /// Computes the lookup token for a keyword.
    pub fn token(&self, keyword: u64) -> Token {
        Token {
            label: self.token_prf.eval64(&keyword.to_le_bytes()),
            key: self
                .payload_prf
                .eval2(b"emm.payload", &keyword.to_le_bytes()),
        }
    }

    /// Encrypts one payload chunk for a keyword. `chunk_no` must be unique
    /// per (keyword, chunk) — it salts the nonce.
    pub fn seal(&self, token: &Token, chunk_no: u32, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; chacha20::NONCE_LEN];
        nonce[..4].copy_from_slice(&chunk_no.to_le_bytes());
        chacha20::encrypt(&token.key, &nonce, 1, plaintext)
    }

    /// Decrypts one payload chunk.
    pub fn open(&self, token: &Token, chunk_no: u32, ciphertext: &[u8]) -> Vec<u8> {
        // ChaCha20 is an involution under the same (key, nonce, counter).
        self.seal(token, chunk_no, ciphertext)
    }
}

impl std::fmt::Debug for EmmClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmmClient").finish_non_exhaustive()
    }
}

/// The server-side encrypted multimap: label → encrypted chunks.
#[derive(Debug, Default, Clone)]
pub struct Emm {
    store: HashMap<u64, Vec<Vec<u8>>>,
}

impl Emm {
    /// An empty multimap.
    pub fn new() -> Self {
        Emm::default()
    }

    /// Builds from `(keyword, payload)` pairs, sealing each payload as one
    /// chunk under its keyword.
    pub fn build(client: &EmmClient, items: impl IntoIterator<Item = (u64, Vec<u8>)>) -> Self {
        let mut emm = Emm::new();
        for (kw, payload) in items {
            emm.append(client, kw, &payload);
        }
        emm
    }

    /// Appends a payload chunk under `keyword` (dynamic insertion path).
    pub fn append(&mut self, client: &EmmClient, keyword: u64, payload: &[u8]) {
        let token = client.token(keyword);
        let chunks = self.store.entry(token.label).or_default();
        let sealed = client.seal(&token, chunks.len() as u32, payload);
        chunks.push(sealed);
    }

    /// Server-side lookup: the encrypted chunks for a token's label.
    pub fn lookup(&self, token: &Token) -> Option<&[Vec<u8>]> {
        self.store.get(&token.label).map(Vec::as_slice)
    }

    /// Lookup + decryption (trusted-machine side), concatenating chunks.
    pub fn retrieve(&self, client: &EmmClient, keyword: u64) -> Option<Vec<u8>> {
        let token = client.token(keyword);
        let chunks = self.lookup(&token)?;
        let mut out = Vec::new();
        for (i, c) in chunks.iter().enumerate() {
            out.extend_from_slice(&client.open(&token, i as u32, c));
        }
        Some(out)
    }

    /// Server-side storage footprint in bytes (labels + ciphertexts).
    pub fn storage_bytes(&self) -> usize {
        self.store
            .values()
            .map(|chunks| 8 + chunks.iter().map(|c| c.len() + 8).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> EmmClient {
        EmmClient::new([1u8; 32], [2u8; 32])
    }

    #[test]
    fn roundtrip() {
        let c = client();
        let emm = Emm::build(&c, vec![(7u64, b"hello".to_vec()), (9, b"world".to_vec())]);
        assert_eq!(emm.retrieve(&c, 7).unwrap(), b"hello");
        assert_eq!(emm.retrieve(&c, 9).unwrap(), b"world");
        assert_eq!(emm.retrieve(&c, 8), None);
        assert_eq!(emm.store.len(), 2);
    }

    #[test]
    fn append_accumulates_chunks() {
        let c = client();
        let mut emm = Emm::new();
        emm.append(&c, 5, b"ab");
        emm.append(&c, 5, b"cd");
        emm.append(&c, 5, b"ef");
        assert_eq!(emm.retrieve(&c, 5).unwrap(), b"abcdef");
        assert_eq!(emm.store.len(), 1);
    }

    #[test]
    fn server_view_is_opaque() {
        let c = client();
        let emm = Emm::build(&c, vec![(42u64, b"secret-payload".to_vec())]);
        // The stored label is not the keyword, and the ciphertext differs
        // from the plaintext.
        let token = c.token(42);
        assert_ne!(token.label, 42);
        let chunks = emm.lookup(&token).unwrap();
        assert_ne!(chunks[0].as_slice(), b"secret-payload");
        // A different client cannot find it.
        let other = EmmClient::new([9u8; 32], [9u8; 32]);
        assert!(emm.lookup(&other.token(42)).is_none());
    }

    #[test]
    fn chunk_nonces_differ() {
        let c = client();
        let mut emm = Emm::new();
        emm.append(&c, 1, b"same");
        emm.append(&c, 1, b"same");
        let token = c.token(1);
        let chunks = emm.lookup(&token).unwrap();
        assert_ne!(chunks[0], chunks[1], "distinct nonces per chunk");
        assert_eq!(emm.retrieve(&c, 1).unwrap(), b"samesame");
    }

    #[test]
    fn storage_accounting() {
        let c = client();
        let emm = Emm::build(&c, vec![(1u64, vec![0u8; 100])]);
        assert_eq!(emm.storage_bytes(), 8 + 100 + 8);
    }
}
