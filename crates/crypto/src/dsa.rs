//! DSA (Digital Signature Algorithm) over [`SchnorrGroup`]s.
//!
//! The paper cites the NIST Digital Signature Standard by name as a scheme
//! satisfying S1–S3 "with a sufficiently high probability" (§2, ref [5]).
//! This is the textbook DSA: signature `(r, s)` with
//! `r = (g^k mod p) mod q` and `s = k⁻¹·(H(m) + x·r) mod q`.
//!
//! Like [`crate::SchnorrScheme`], signing is deterministic (RFC 6979-style
//! nonce derivation from the secret key and message), so protocol runs
//! replay bit-for-bit from a seed. The rare `r = 0` / `s = 0` cases retry
//! with a counter folded into the nonce derivation, exactly as a
//! counter-mode RFC 6979 implementation would.

use crate::group::SchnorrGroup;
use crate::scheme::{PublicKey, SecretKey, Signature, SignatureScheme};
use crate::sha256::sha256_parts;
use crate::{ChaChaDrbg, CryptoError};
use fd_bigint::{modadd, modinv, modmul, RandomUbig, Ubig};

/// DSA signature scheme: `sk = x`, `pk = y = g^x mod p`, signature
/// `(r, s)` verified by recomputing `r` from `(g^{H(m)·s⁻¹} · y^{r·s⁻¹} mod
/// p) mod q`, with both powers read from comb tables as in
/// [`crate::SchnorrScheme`].
///
/// ```
/// use fd_crypto::{DsaScheme, SignatureScheme};
/// let scheme = DsaScheme::test_tiny();
/// let (sk, pk) = scheme.keypair_from_seed(1);
/// let sig = scheme.sign(&sk, b"value: 42")?;
/// assert!(scheme.verify(&pk, b"value: 42", &sig));
/// # Ok::<(), fd_crypto::CryptoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DsaScheme {
    group: &'static SchnorrGroup,
}

impl DsaScheme {
    /// Scheme over an explicit (static) group.
    pub fn new(group: &'static SchnorrGroup) -> Self {
        DsaScheme { group }
    }

    /// Tiny test parameters (see [`SchnorrGroup::test_tiny`]).
    pub fn test_tiny() -> Self {
        Self::new(SchnorrGroup::test_tiny())
    }

    /// Historical DSA-size parameters (512/160) — the sizes of the original
    /// 1994 Digital Signature Standard the paper cites.
    pub fn s512() -> Self {
        Self::new(SchnorrGroup::s512())
    }

    /// 1024/160 parameters (FIPS 186-2 sizes).
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

    fn decode_scalar(&self, bytes: &[u8]) -> Option<Ubig> {
        if bytes.len() != self.group.scalar_len() {
            return None;
        }
        let v = Ubig::from_be_bytes(bytes);
        (v < *self.group.q()).then_some(v)
    }

    /// `H(m) mod q`, the truncated message digest DSA signs.
    fn digest_scalar(&self, msg: &[u8]) -> Ubig {
        let digest = sha256_parts(&[b"fd-dsa-v1", self.group.label().as_bytes(), msg]);
        &Ubig::from_be_bytes(&digest) % self.group.q()
    }

    /// Deterministic nonce for attempt `ctr`, uniform-ish in `[1, q)`.
    fn nonce(&self, sk: &[u8], msg: &[u8], ctr: u32) -> Ubig {
        let digest = sha256_parts(&[
            b"fd-dsa-nonce-v1",
            self.group.label().as_bytes(),
            sk,
            msg,
            &ctr.to_be_bytes(),
        ]);
        let k = &Ubig::from_be_bytes(&digest) % self.group.q();
        if k.is_zero() {
            Ubig::one()
        } else {
            k
        }
    }
}

impl SignatureScheme for DsaScheme {
    fn name(&self) -> String {
        format!("dsa-{}", self.group.label())
    }

    fn keypair_from_seed(&self, seed: u64) -> (SecretKey, PublicKey) {
        let mut material = Vec::new();
        material.extend_from_slice(b"dsa-keygen");
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
            .decode_scalar(&sk.0)
            .ok_or(CryptoError::MalformedSecretKey)?;
        let q = self.group.q();
        let h = self.digest_scalar(msg);
        // Retry (with a counter in the nonce derivation) on the measure-zero
        // r = 0 or s = 0 outcomes, as FIPS 186 prescribes.
        for ctr in 0..64u32 {
            let k = self.nonce(&sk.0, msg, ctr);
            let r = &self.group.pow_g(&k) % q;
            if r.is_zero() {
                continue;
            }
            let k_inv = modinv(&k, q).expect("q prime, 0 < k < q");
            let s = modmul(&k_inv, &modadd(&h, &modmul(&x, &r, q), q), q);
            if s.is_zero() {
                continue;
            }
            let mut sig = r.to_be_bytes_fixed(self.group.scalar_len()).expect("r < q");
            sig.extend_from_slice(&s.to_be_bytes_fixed(self.group.scalar_len()).expect("s < q"));
            return Ok(Signature(sig));
        }
        // Unreachable in practice: each attempt fails with prob ~2/q.
        Err(CryptoError::MalformedSecretKey)
    }

    fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let scalar_len = self.group.scalar_len();
        if sig.0.len() != 2 * scalar_len {
            return false;
        }
        let (r, s) = match (
            self.decode_scalar(&sig.0[..scalar_len]),
            self.decode_scalar(&sig.0[scalar_len..]),
        ) {
            (Some(r), Some(s)) => (r, s),
            _ => return false,
        };
        if r.is_zero() || s.is_zero() {
            return false;
        }
        let q = self.group.q();
        let w = match modinv(&s, q) {
            Some(w) => w,
            None => return false,
        };
        let Some(y) = self.group.key_table(pk) else {
            return false;
        };
        let u1 = modmul(&self.digest_scalar(msg), &w, q);
        let u2 = modmul(&r, &w, q);
        // v = (g^u1 · y^u2 mod p) mod q
        let v = &self.group.pow_g_mul(&u1, y, &u2) % q;
        v == r
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

    fn scheme() -> DsaScheme {
        DsaScheme::test_tiny()
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
        // All-zero (r, s) is structurally well-sized but invalid.
        assert!(!s.verify(&pk, b"m", &Signature(vec![0; s.signature_len()])));
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
    fn dsa_and_schnorr_keys_differ_for_same_seed() {
        // Domain separation: the two DSA-family schemes must not share key
        // material even over the same group.
        let dsa = scheme();
        let schnorr = crate::SchnorrScheme::test_tiny();
        let (_, pk_d) = dsa.keypair_from_seed(5);
        let (_, pk_s) = schnorr.keypair_from_seed(5);
        assert_ne!(pk_d, pk_s);
    }

    #[test]
    fn schnorr_cannot_verify_dsa_signatures() {
        let dsa = scheme();
        let schnorr = crate::SchnorrScheme::test_tiny();
        let (sk, pk) = dsa.keypair_from_seed(6);
        let sig = dsa.sign(&sk, b"m").unwrap();
        assert!(!schnorr.verify(&pk, b"m", &sig));
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
    fn many_messages_round_trip() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(9);
        for i in 0..32u8 {
            let msg = vec![i; (i as usize % 7) + 1];
            let sig = s.sign(&sk, &msg).unwrap();
            assert!(s.verify(&pk, &msg, &sig), "msg {i}");
        }
    }

    #[test]
    fn name_mentions_group() {
        assert_eq!(scheme().name(), "dsa-tiny-96/48");
    }
}
