//! # fd-crypto
//!
//! From-scratch cryptographic substrate for the
//! [Borcherding 1995](https://doi.org/10.1109/ICDCS.1995.500023)
//! reproduction.
//!
//! The paper assumes a signature scheme with three properties (its §2):
//!
//! * **S1** — a node can produce `{m}_S` iff it knows the secret key `S`
//!   and the message `m`;
//! * **S2** — for each secret key `S_i` there is a public *test predicate*
//!   `T_i` with `T_i({m}_S) = true ⇔ S = S_i`;
//! * **S3** — `S_i` cannot be extracted from signed messages or from `T_i`.
//!
//! and cites DSA and RSA as schemes satisfying them with high probability.
//! This crate provides both families, built entirely on [`fd_bigint`]:
//!
//! * [`mod@sha256`] / [`hmac`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC.
//! * [`chacha20`] / [`ChaChaDrbg`] — RFC 8439 ChaCha20 core used as a
//!   deterministic random bit generator for key generation.
//! * [`SchnorrGroup`] / [`SchnorrScheme`] — Schnorr signatures over
//!   DSA-style prime-order subgroups (the DSA family the paper cites).
//! * [`RsaScheme`] — RSA hash-and-sign with PKCS#1-v1.5-shaped padding.
//! * [`SignatureScheme`] — the object-safe trait the protocol layer uses;
//!   public keys double as the paper's *test predicates*.
//! * [`ToyScheme`] — a deliberately broken scheme (violates S1/S3) used by
//!   the adversarial test-suite to check what the protocols do when the
//!   signature assumption itself fails.
//!
//! The protocol layer consumes this crate through [`SignatureScheme`]
//! alone: the Fig. 1 key distribution exchanges public keys as test
//! predicates and proves possession by signing challenges, and the §4
//! chain signatures stack [`SignatureScheme::sign`] layers with the
//! name-embedding rule checked by Theorem 4.
//!
//! Everything is deterministic given a seed, which is what makes the
//! experiment tables (`cargo run -p fd-bench --bin report`, printed to
//! stdout) reproducible bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use fd_crypto::{SchnorrScheme, SignatureScheme};
//!
//! let scheme = SchnorrScheme::test_tiny();
//! let (sk, pk) = scheme.keypair_from_seed(7);
//! let sig = scheme.sign(&sk, b"hello")?;
//! assert!(scheme.verify(&pk, b"hello", &sig));
//! assert!(!scheme.verify(&pk, b"tampered", &sig));
//! # Ok::<(), fd_crypto::CryptoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
mod drbg;
mod dsa;
mod error;
mod group;
pub mod hmac;
mod rsa;
mod scheme;
mod schnorr;
pub mod sha256;
mod toy;

pub use drbg::ChaChaDrbg;
pub use dsa::DsaScheme;
pub use error::CryptoError;
pub use group::SchnorrGroup;
pub use rsa::RsaScheme;
pub use scheme::{PublicKey, SecretKey, Signature, SignatureScheme};
pub use schnorr::SchnorrScheme;
pub use sha256::{sha256, Sha256};
pub use toy::ToyScheme;
