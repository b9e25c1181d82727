//! Schnorr signatures over [`SchnorrGroup`]s.
//!
//! This is the DSA-family instantiation of the paper's S1–S3 assumption.
//! Signing is deterministic (RFC 6979-style nonce derivation), which keeps
//! whole protocol runs replayable from a single seed.

use crate::group::SchnorrGroup;
use crate::scheme::{PublicKey, SecretKey, Signature, SignatureScheme};
use crate::{ChaChaDrbg, CryptoError, Sha256};
use fd_bigint::{RandomUbig, Ubig};

/// Schnorr signature scheme: `sk = x`, `pk = g^x mod p`,
/// signature `(e, s)` with `e = H(r ‖ m)`, `s = k − x·e (mod q)`.
///
/// Verification recomputes `r' = g^s · y^e mod p` and checks
/// `H(r' ‖ m) = e` — the public key `y` is precisely the paper's test
/// predicate `T_i`. Both powers come from comb tables: the group's for
/// `g`, and one for `y` that the key handle caches on its first
/// verification (see [`SchnorrGroup::prepare`]).
///
/// ```
/// use fd_crypto::{SchnorrScheme, SignatureScheme};
/// let scheme = SchnorrScheme::test_tiny();
/// let (sk, pk) = scheme.keypair_from_seed(1);
/// let sig = scheme.sign(&sk, b"value: 42")?;
/// assert!(scheme.verify(&pk, b"value: 42", &sig));
/// # Ok::<(), fd_crypto::CryptoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SchnorrScheme {
    group: &'static SchnorrGroup,
}

impl SchnorrScheme {
    /// Scheme over an explicit (static) group.
    pub fn new(group: &'static SchnorrGroup) -> Self {
        SchnorrScheme { group }
    }

    /// Tiny test parameters (see [`SchnorrGroup::test_tiny`]).
    pub fn test_tiny() -> Self {
        Self::new(SchnorrGroup::test_tiny())
    }

    /// Historical DSA-size parameters (512/160).
    pub fn s512() -> Self {
        Self::new(SchnorrGroup::s512())
    }

    /// 1024/160 parameters.
    pub fn s1024() -> Self {
        Self::new(SchnorrGroup::s1024())
    }

    /// Modern-size parameters (2048/256).
    pub fn s2048() -> Self {
        Self::new(SchnorrGroup::s2048())
    }

    /// The underlying group.
    pub fn group(&self) -> &'static SchnorrGroup {
        self.group
    }

    /// Hash to a scalar: `H(domain ‖ parts…) mod q`, never zero.
    fn hash_to_scalar(&self, parts: &[&[u8]]) -> Ubig {
        let mut h = Sha256::new();
        h.update(b"fd-schnorr-v1")
            .update(self.group.label().as_bytes());
        for part in parts {
            h.update(part);
        }
        let e = &Ubig::from_be_bytes(&h.finalize()) % self.group.q();
        if e.is_zero() {
            Ubig::one()
        } else {
            e
        }
    }
}

impl SignatureScheme for SchnorrScheme {
    fn name(&self) -> String {
        format!("schnorr-{}", self.group.label())
    }

    fn append_name(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"schnorr-");
        out.extend_from_slice(self.group.label().as_bytes());
    }

    fn keypair_from_seed(&self, seed: u64) -> (SecretKey, PublicKey) {
        let mut material = Vec::new();
        material.extend_from_slice(b"schnorr-keygen");
        material.extend_from_slice(self.group.label().as_bytes());
        material.extend_from_slice(&seed.to_be_bytes());
        let mut rng = ChaChaDrbg::from_seed_material(&material);
        let one = Ubig::one();
        // x uniform in [1, q)
        let x = &rng.random_below(&(self.group.q() - &one)) + &one;
        let y = self.group.pow_g(&x);
        let sk = x
            .to_be_bytes_fixed(self.group.scalar_len())
            .expect("x < q fits scalar width");
        let pk = y
            .to_be_bytes_fixed(self.group.element_len())
            .expect("y < p fits element width");
        (SecretKey(sk), PublicKey::new(pk))
    }

    fn sign(&self, sk: &SecretKey, msg: &[u8]) -> Result<Signature, CryptoError> {
        let x = self
            .group
            .scalar(&sk.0)
            .ok_or(CryptoError::MalformedSecretKey)?;
        let q = self.group.q();
        // Deterministic nonce: k = H("nonce" ‖ sk ‖ m) mod q (RFC 6979 in
        // spirit; the secret key binds the nonce to the signer).
        let k = self.hash_to_scalar(&[b"nonce", &sk.0, msg]);
        let r = self.group.pow_g(&k);
        let r_bytes = r
            .to_be_bytes_fixed(self.group.element_len())
            .expect("r < p");
        let e = self.hash_to_scalar(&[b"chal", &r_bytes, msg]);
        // s = k - x*e mod q, where k and x*e mod q are both below q.
        let xe = &(&x * &e) % q;
        let s = k.checked_sub(&xe).unwrap_or_else(|| &(&k + q) - &xe);
        Ok(Signature(self.group.encode_scalar_pair(&e, &s)))
    }

    fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let Some((e, s)) = self.group.scalar_pair(&sig.0) else {
            return false;
        };
        let Some(y) = self.group.key_table(pk) else {
            return false;
        };
        // r' = g^s * y^e mod p
        let r = self.group.pow_g_mul(&s, y, &e);
        let r_bytes = match r.to_be_bytes_fixed(self.group.element_len()) {
            Some(b) => b,
            None => return false,
        };
        self.hash_to_scalar(&[b"chal", &r_bytes, msg]) == e
    }

    fn public_key_len(&self) -> usize {
        self.group.element_len()
    }

    fn signature_len(&self) -> usize {
        2 * self.group.scalar_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> SchnorrScheme {
        SchnorrScheme::test_tiny()
    }

    #[test]
    fn sign_verify_round_trip() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(1);
        let sig = s.sign(&sk, b"message").unwrap();
        assert!(s.verify(&pk, b"message", &sig));
    }

    #[test]
    fn rejects_wrong_message() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(1);
        let sig = s.sign(&sk, b"message").unwrap();
        assert!(!s.verify(&pk, b"other", &sig));
    }

    #[test]
    fn rejects_wrong_key_s2() {
        // Property S2: T_i({m}_S) = true iff S = S_i.
        let s = scheme();
        let (sk1, _) = s.keypair_from_seed(1);
        let (_, pk2) = s.keypair_from_seed(2);
        let sig = s.sign(&sk1, b"message").unwrap();
        assert!(!s.verify(&pk2, b"message", &sig));
    }

    #[test]
    fn rejects_tampered_signature() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(1);
        let sig = s.sign(&sk, b"message").unwrap();
        for i in 0..sig.0.len() {
            let mut bad = sig.clone();
            bad.0[i] ^= 0x01;
            assert!(!s.verify(&pk, b"message", &bad), "byte {i}");
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(1);
        let sig = s.sign(&sk, b"m").unwrap();
        assert!(!s.verify(&PublicKey::new(vec![]), b"m", &sig));
        assert!(!s.verify(&pk, b"m", &Signature(vec![1, 2, 3])));
        assert!(!s.verify(&PublicKey::new(vec![0; s.public_key_len()]), b"m", &sig));
        assert!(s.sign(&SecretKey(vec![9; 99]), b"m").is_err());
    }

    #[test]
    fn deterministic_keys_and_signatures() {
        let s = scheme();
        let (sk_a, pk_a) = s.keypair_from_seed(7);
        let (sk_b, pk_b) = s.keypair_from_seed(7);
        assert_eq!(pk_a, pk_b);
        assert_eq!(s.sign(&sk_a, b"x").unwrap(), s.sign(&sk_b, b"x").unwrap());
    }

    #[test]
    fn different_seeds_different_keys() {
        let s = scheme();
        let (_, pk1) = s.keypair_from_seed(1);
        let (_, pk2) = s.keypair_from_seed(2);
        assert_ne!(pk1, pk2);
    }

    #[test]
    fn lengths_advertised_match_actual() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(3);
        let sig = s.sign(&sk, b"z").unwrap();
        assert_eq!(pk.as_bytes().len(), s.public_key_len());
        assert_eq!(sig.0.len(), s.signature_len());
    }

    #[test]
    fn empty_message_signs() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(4);
        let sig = s.sign(&sk, b"").unwrap();
        assert!(s.verify(&pk, b"", &sig));
        assert!(!s.verify(&pk, b"a", &sig));
    }

    #[test]
    fn name_mentions_group() {
        assert_eq!(scheme().name(), "schnorr-tiny-96/48");
    }
}
