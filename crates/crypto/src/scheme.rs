//! The signature-scheme abstraction used by the protocol layer.
//!
//! The paper's model (§2) is deliberately abstract: nodes hold a secret key
//! `S_i`, publish a *test predicate* `T_i`, and a signed message `{m}_S`
//! verifies under `T_i` iff `S = S_i` (properties S1–S3). The protocol layer
//! in `fd-core` works exclusively through [`SignatureScheme`] trait objects
//! and the opaque byte-wrappers below, so every protocol runs unchanged over
//! Schnorr, RSA, or the deliberately broken [`crate::ToyScheme`].

use crate::CryptoError;
use core::fmt;
use core::hash::{Hash, Hasher};
use fd_bigint::FixedBase;
use std::sync::{Arc, OnceLock};

/// A secret signing key, encoded by its scheme.
///
/// Corresponds to `S_i` in the paper. The bytes are scheme-specific and
/// opaque to the protocol layer; they never travel on the wire in correct
/// runs (adversaries may leak them — that is the G3 attack of §3.2).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SecretKey(pub Vec<u8>);

/// A public verification key — the paper's *test predicate* `T_i`.
///
/// This is exactly the object the key distribution protocol (paper Fig. 1)
/// disseminates, so it is an ordinary wire-encodable byte string, and the
/// bytes are its whole identity: `Eq`, `Hash`, `Debug` and every encoding
/// read them alone.
///
/// Beside the bytes a key carries a cache: the Schnorr and DSA verifiers
/// fill it on first use with a comb table for the key as a group element
/// (3 968 B at `s1024`), so every later verification through the same
/// handle — or a clone of it — walks the table instead of a ladder. The
/// cache is never part of the key's identity, the bytes are immutable so
/// it cannot go stale, and the table remembers the modulus it was built
/// for, so a key checked under another group takes the ladder.
#[derive(Clone)]
pub struct PublicKey {
    bytes: Vec<u8>,
    table: OnceLock<Arc<FixedBase>>,
}

/// A signature `{m}_S` detached from its message.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature(pub Vec<u8>);

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret key material.
        write!(f, "SecretKey(<{} bytes redacted>)", self.0.len())
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", short_hex(&self.bytes))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({})", short_hex(&self.0))
    }
}

fn short_hex(b: &[u8]) -> String {
    let head: String = b.iter().take(6).map(|x| format!("{x:02x}")).collect();
    if b.len() > 6 {
        format!("{head}…[{}B]", b.len())
    } else {
        format!("{head}[{}B]", b.len())
    }
}

impl PublicKey {
    /// A key from its encoded bytes, with an empty cache.
    pub fn new(bytes: Vec<u8>) -> Self {
        PublicKey {
            bytes,
            table: OnceLock::new(),
        }
    }

    /// Borrow the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The key's comb table: the cached one, or `build`'s, cached first.
    pub(crate) fn table(&self, build: impl FnOnce() -> FixedBase) -> &FixedBase {
        self.table.get_or_init(|| Arc::new(build()))
    }

    /// The cached comb table, if a verifier built one.
    pub(crate) fn cached_table(&self) -> Option<&FixedBase> {
        self.table.get().map(|t| &**t)
    }
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for PublicKey {}

impl Hash for PublicKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl Signature {
    /// Borrow the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// An object-safe signature scheme satisfying the paper's S1–S3 (or, for
/// test doubles, deliberately failing them).
///
/// Determinism: `keypair_from_seed` must be a pure function of the seed and
/// scheme parameters, and `sign` must be deterministic (nonces are derived
/// RFC 6979-style), so whole protocol runs replay bit-for-bit.
pub trait SignatureScheme: fmt::Debug + Send + Sync {
    /// Human-readable name including parameters, e.g. `"schnorr-512/160"`.
    fn name(&self) -> String;

    /// Append the bytes of [`SignatureScheme::name`] to `out`. The verify
    /// cache of `fd-core` keys every signature lookup by the scheme's
    /// name; the shipped schemes override this to write it without
    /// formatting a fresh `String`.
    fn append_name(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.name().as_bytes());
    }

    /// Deterministically generate a keypair from a seed.
    fn keypair_from_seed(&self, seed: u64) -> (SecretKey, PublicKey);

    /// Sign `msg` with `sk`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedSecretKey`] when the key bytes do not
    /// decode for this scheme.
    fn sign(&self, sk: &SecretKey, msg: &[u8]) -> Result<Signature, CryptoError>;

    /// Evaluate the test predicate: does `sig` verify for `msg` under `pk`?
    ///
    /// Malformed keys or signatures simply fail verification (return
    /// `false`) — in the paper's model there is no separate "error" outcome
    /// for the predicate.
    fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool;

    /// Nominal encoded public-key length in bytes (wire-size accounting).
    fn public_key_len(&self) -> usize;

    /// Nominal encoded signature length in bytes (wire-size accounting).
    fn signature_len(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_key_debug_redacts() {
        let sk = SecretKey(vec![1, 2, 3]);
        let s = format!("{sk:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains("01"));
    }

    #[test]
    fn append_name_writes_the_name() {
        let schemes: [Box<dyn SignatureScheme>; 5] = [
            Box::new(crate::SchnorrScheme::test_tiny()),
            Box::new(crate::SchnorrScheme::s1024()),
            Box::new(crate::DsaScheme::test_tiny()),
            Box::new(crate::RsaScheme::new(256)),
            Box::new(crate::ToyScheme::new()),
        ];
        for scheme in &schemes {
            let mut out = b"prefix".to_vec();
            scheme.append_name(&mut out);
            assert_eq!(out, [b"prefix", scheme.name().as_bytes()].concat());
        }
    }

    #[test]
    fn public_key_debug_shows_prefix() {
        let pk = PublicKey::new(vec![0xab; 20]);
        let s = format!("{pk:?}");
        assert!(s.contains("abab"));
        assert!(s.contains("20B"));
    }

    #[test]
    fn short_signature_debug() {
        let sig = Signature(vec![0x01, 0x02]);
        assert_eq!(format!("{sig:?}"), "Signature(0102[2B])");
    }
}
