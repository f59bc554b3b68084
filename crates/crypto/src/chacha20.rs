//! ChaCha20 stream cipher (RFC 8439), implemented from the specification.
//!
//! This is the workhorse cipher of the EDBMS substrate: every attribute value
//! is encrypted under ChaCha20 with a per-value nonce, and every QPF
//! evaluation inside the trusted machine pays a real keystream generation to
//! decrypt its operand — which is what makes the paper's "QPF is expensive
//! relative to a plain comparison" premise hold in this reproduction.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (IETF variant).
pub const NONCE_LEN: usize = 12;
/// Keystream block size in bytes.
pub const BLOCK_LEN: usize = 64;

/// The ChaCha20 quarter round.
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte keystream block for (`key`, `nonce`, `counter`).
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    // "expand 32-byte k"
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }

    let initial = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` in place (XOR keystream starting at block
/// counter `counter`). ChaCha20 is an involution, so one function serves both
/// directions.
pub fn apply_keystream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &mut [u8],
) {
    let mut ctr = counter;
    for chunk in data.chunks_mut(BLOCK_LEN) {
        let ks = block(key, ctr, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        ctr = ctr.wrapping_add(1);
    }
}

/// Convenience: encrypt into a fresh buffer.
pub fn encrypt(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    plaintext: &[u8],
) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    apply_keystream(key, nonce, counter, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce_bytes = unhex("000000090000004a00000000");
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&nonce_bytes);
        let ks = block(&key, 1, &nonce);
        assert_eq!(
            hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce_bytes = unhex("000000000000004a00000000");
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&nonce_bytes);
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&key, &nonce, 1, plaintext);
        assert_eq!(
            hex(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn roundtrip() {
        let key = [7u8; KEY_LEN];
        let nonce = [3u8; NONCE_LEN];
        let msg = b"partial order partitions".to_vec();
        let mut buf = msg.clone();
        apply_keystream(&key, &nonce, 0, &mut buf);
        assert_ne!(buf, msg);
        apply_keystream(&key, &nonce, 0, &mut buf);
        assert_eq!(buf, msg);
    }

    #[test]
    fn counter_advances_across_blocks() {
        // Encrypting 130 bytes in one call must equal three per-block calls.
        let key = [9u8; KEY_LEN];
        let nonce = [1u8; NONCE_LEN];
        let msg = vec![0x55u8; 130];
        let whole = encrypt(&key, &nonce, 5, &msg);
        let mut parts = Vec::new();
        parts.extend_from_slice(&encrypt(&key, &nonce, 5, &msg[..64]));
        parts.extend_from_slice(&encrypt(&key, &nonce, 6, &msg[64..128]));
        parts.extend_from_slice(&encrypt(&key, &nonce, 7, &msg[128..]));
        assert_eq!(whole, parts);
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let key = [1u8; KEY_LEN];
        let a = block(&key, 0, &[0u8; NONCE_LEN]);
        let mut n2 = [0u8; NONCE_LEN];
        n2[0] = 1;
        let b = block(&key, 0, &n2);
        assert_ne!(a, b);
    }
}
