//! A deliberately broken signature scheme for adversarial tests.
//!
//! The paper's guarantees (Theorems 2 and 4) hold *only if* the signature
//! scheme satisfies S1–S3. [`ToyScheme`] violates S1 and S3 on purpose: the
//! "signature" is `SHA-256(pk ‖ m)`, so anyone who has seen the public key
//! can forge. The adversarial test-suite uses it to demonstrate that the
//! failure-discovery guarantees genuinely depend on the signature
//! assumption, not on the protocol structure alone.

use crate::scheme::{PublicKey, SecretKey, Signature, SignatureScheme};
use crate::sha256::sha256_parts;
use crate::CryptoError;

/// Broken-on-purpose scheme: `pk = sk`, `sig = SHA-256(pk ‖ m)`.
///
/// **Never** use outside tests. Violates S1 (knowing `T_i` suffices to
/// sign) and S3 (the secret key *is* the test predicate).
#[derive(Debug, Clone, Default)]
pub struct ToyScheme;

impl ToyScheme {
    /// Create the toy scheme.
    pub fn new() -> Self {
        ToyScheme
    }

    /// Forge a signature from the *public* key alone — the S1 violation,
    /// packaged for adversaries in tests.
    pub fn forge(&self, pk: &PublicKey, msg: &[u8]) -> Signature {
        Signature(sha256_parts(&[b"toy", pk.as_bytes(), msg]).to_vec())
    }
}

impl SignatureScheme for ToyScheme {
    fn name(&self) -> String {
        "toy-broken".to_string()
    }

    fn keypair_from_seed(&self, seed: u64) -> (SecretKey, PublicKey) {
        let material = sha256_parts(&[b"toy-keygen", &seed.to_be_bytes()]);
        (
            SecretKey(material.to_vec()),
            PublicKey::new(material.to_vec()),
        )
    }

    fn sign(&self, sk: &SecretKey, msg: &[u8]) -> Result<Signature, CryptoError> {
        if sk.0.len() != 32 {
            return Err(CryptoError::MalformedSecretKey);
        }
        Ok(Signature(sha256_parts(&[b"toy", &sk.0, msg]).to_vec()))
    }

    fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        pk.as_bytes().len() == 32 && sig.0[..] == sha256_parts(&[b"toy", pk.as_bytes(), msg])[..]
    }

    fn public_key_len(&self) -> usize {
        32
    }

    fn signature_len(&self) -> usize {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_path_works() {
        let s = ToyScheme::new();
        let (sk, pk) = s.keypair_from_seed(1);
        let sig = s.sign(&sk, b"m").unwrap();
        assert!(s.verify(&pk, b"m", &sig));
        assert!(!s.verify(&pk, b"n", &sig));
    }

    #[test]
    fn s1_violation_forgery_succeeds() {
        let s = ToyScheme::new();
        let (_, pk) = s.keypair_from_seed(1);
        // No secret key needed:
        let forged = s.forge(&pk, b"I never said this");
        assert!(s.verify(&pk, b"I never said this", &forged));
    }

    #[test]
    fn malformed_key_errors() {
        let s = ToyScheme::new();
        assert!(s.sign(&SecretKey(vec![1]), b"m").is_err());
        assert!(!s.verify(&PublicKey::new(vec![1]), b"m", &Signature(vec![0; 32])));
    }
}
