//! # prkb-crypto
//!
//! From-scratch cryptographic primitives backing the PRKB encrypted-database
//! reproduction. No external crypto crates are used: every primitive in this
//! crate is implemented from its specification and validated against
//! published test vectors in the unit tests of its module.
//!
//! The EDBMS substrate (`prkb-edbms`) uses these primitives to
//!
//! * encrypt attribute values at the data owner ([`cipher::ValueCipher`]),
//! * derive independent sub-keys per table/attribute ([`keys`], [`hkdf`]),
//! * evaluate trapdoors inside the trusted machine (decrypt-and-compare),
//!
//! and the Logarithmic-SRC-i competitor (`prkb-srci`) uses the PRF
//! ([`prf::Prf`]) to build searchable-encryption tokens.
//!
//! `arch` (private) is the one `unsafe` module: lane kernels that compute
//! the ChaCha20 keystream and the SipHash-2-4 tag of many cells in one pass,
//! which [`cipher::ValueCipher::decrypt_slices`] runs 16 cells per pass on a
//! CPU with AVX-512F and 8 on one with AVX2, with the safe code kept as
//! reference and fallback.
//!
//! Security disclaimer: the implementations are correct against test vectors
//! and constant-structure, but this crate exists to reproduce a systems
//! paper, not to ship production cryptography (no side-channel hardening).

// Unsafe is confined to the `arch` kernels; every other module is checked
// by this deny.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
mod arch;
pub mod chacha20;
pub mod cipher;
pub mod error;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod prf;
pub mod sha256;
pub mod siphash;

pub use cipher::{batch_kernel, Ciphertext, DetCipher, ValueCipher};
pub use error::CryptoError;
pub use keys::{KeyPurpose, MasterKey, SubKey};
pub use prf::Prf;
