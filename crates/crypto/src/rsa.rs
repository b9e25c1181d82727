//! RSA hash-and-sign — the second signature family the paper cites.
//!
//! Keys are generated from scratch (Miller–Rabin prime search over
//! [`fd_bigint`]); signing pads `SHA-256(m)` in a PKCS#1-v1.5 shape when the
//! modulus is large enough and falls back to `H(m) mod n` for the tiny test
//! moduli. As elsewhere, only the S1–S3 *interface* matters to the protocol
//! layer.

use crate::scheme::{PublicKey, SecretKey, Signature, SignatureScheme};
use crate::sha256::sha256;
use crate::{ChaChaDrbg, CryptoError};
use fd_bigint::{gcd, modinv, modpow, prime, Ubig};

/// Public exponent: F4 = 65537.
const E: u64 = 65537;

/// RSA signature scheme with `bits`-bit moduli.
///
/// ```
/// use fd_crypto::{RsaScheme, SignatureScheme};
/// let scheme = RsaScheme::new(256); // tiny test size
/// let (sk, pk) = scheme.keypair_from_seed(9);
/// let sig = scheme.sign(&sk, b"paper")?;
/// assert!(scheme.verify(&pk, b"paper", &sig));
/// # Ok::<(), fd_crypto::CryptoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RsaScheme {
    bits: usize,
}

impl RsaScheme {
    /// Create a scheme generating `bits`-bit moduli (min 128; use ≥ 2048
    /// for anything resembling real security — small sizes are for tests).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 128`.
    pub fn new(bits: usize) -> Self {
        assert!(bits >= 128, "RSA modulus below 128 bits is not supported");
        RsaScheme { bits }
    }

    /// Modulus byte length.
    fn n_len(&self) -> usize {
        self.bits.div_ceil(8)
    }

    /// EMSA-PKCS1-v1.5-shaped encoding of the message digest, as an integer
    /// below `n`. For moduli too small to hold the padding (< 38 bytes) the
    /// digest is reduced mod `n` instead.
    fn encode_digest(&self, msg: &[u8], n: &Ubig) -> Ubig {
        let digest = sha256(msg);
        let len = self.n_len();
        if len >= 38 {
            // 0x00 0x01 FF..FF 0x00 || digest
            let mut em = Vec::with_capacity(len);
            em.push(0x00);
            em.push(0x01);
            em.resize(len - 33, 0xff);
            em.push(0x00);
            em.extend_from_slice(&digest);
            debug_assert_eq!(em.len(), len);
            Ubig::from_be_bytes(&em)
        } else {
            &Ubig::from_be_bytes(&digest) % n
        }
    }

    fn decode_sk(&self, sk: &SecretKey) -> Option<(Ubig, Ubig)> {
        let len = self.n_len();
        if sk.0.len() != 2 * len {
            return None;
        }
        let n = Ubig::from_be_bytes(&sk.0[..len]);
        let d = Ubig::from_be_bytes(&sk.0[len..]);
        (!n.is_zero() && d < n).then_some((n, d))
    }
}

impl SignatureScheme for RsaScheme {
    fn name(&self) -> String {
        format!("rsa-{}", self.bits)
    }

    fn append_name(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        write!(out, "rsa-{}", self.bits).expect("writing to a Vec never fails");
    }

    fn keypair_from_seed(&self, seed: u64) -> (SecretKey, PublicKey) {
        let mut material = Vec::new();
        material.extend_from_slice(b"rsa-keygen");
        material.extend_from_slice(&(self.bits as u64).to_be_bytes());
        material.extend_from_slice(&seed.to_be_bytes());
        let mut rng = ChaChaDrbg::from_seed_material(&material);
        let half = self.bits / 2;
        let one = Ubig::one();
        let e = Ubig::from(E);
        loop {
            let p = prime::gen_prime(half, &mut rng);
            let q = prime::gen_prime(self.bits - half, &mut rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bits() != self.bits {
                continue;
            }
            let phi = &(&p - &one) * &(&q - &one);
            if !gcd(&e, &phi).is_one() {
                continue;
            }
            let d = modinv(&e, &phi).expect("gcd(e, phi) = 1");
            let len = self.n_len();
            let n_bytes = n.to_be_bytes_fixed(len).expect("n has bits width");
            let mut sk = n_bytes.clone();
            sk.extend_from_slice(&d.to_be_bytes_fixed(len).expect("d < n"));
            return (SecretKey(sk), PublicKey::new(n_bytes));
        }
    }

    fn sign(&self, sk: &SecretKey, msg: &[u8]) -> Result<Signature, CryptoError> {
        let (n, d) = self.decode_sk(sk).ok_or(CryptoError::MalformedSecretKey)?;
        let m_int = self.encode_digest(msg, &n);
        let s = modpow(&m_int, &d, &n);
        Ok(Signature(s.to_be_bytes_fixed(self.n_len()).expect("s < n")))
    }

    fn verify(&self, pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let len = self.n_len();
        if pk.as_bytes().len() != len || sig.0.len() != len {
            return false;
        }
        let n = Ubig::from_be_bytes(pk.as_bytes());
        if n.is_zero() {
            return false;
        }
        let s = Ubig::from_be_bytes(&sig.0);
        if s >= n {
            return false;
        }
        let recovered = modpow(&s, &Ubig::from(E), &n);
        recovered == self.encode_digest(msg, &n)
    }

    fn public_key_len(&self) -> usize {
        self.n_len()
    }

    fn signature_len(&self) -> usize {
        self.n_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> RsaScheme {
        RsaScheme::new(256)
    }

    #[test]
    fn sign_verify_round_trip() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(1);
        let sig = s.sign(&sk, b"hello rsa").unwrap();
        assert!(s.verify(&pk, b"hello rsa", &sig));
        assert!(!s.verify(&pk, b"hello rsb", &sig));
    }

    #[test]
    fn cross_key_rejection() {
        let s = scheme();
        let (sk1, _) = s.keypair_from_seed(1);
        let (_, pk2) = s.keypair_from_seed(2);
        let sig = s.sign(&sk1, b"m").unwrap();
        assert!(!s.verify(&pk2, b"m", &sig));
    }

    #[test]
    fn deterministic_keygen() {
        let s = scheme();
        assert_eq!(s.keypair_from_seed(5).1, s.keypair_from_seed(5).1);
        assert_ne!(s.keypair_from_seed(5).1, s.keypair_from_seed(6).1);
    }

    #[test]
    fn pkcs_padding_path_with_large_modulus() {
        // 384-bit modulus (48 bytes >= 38) exercises the PKCS#1 branch.
        let s = RsaScheme::new(384);
        let (sk, pk) = s.keypair_from_seed(3);
        let sig = s.sign(&sk, b"padded").unwrap();
        assert!(s.verify(&pk, b"padded", &sig));
        assert!(!s.verify(&pk, b"padded!", &sig));
    }

    #[test]
    fn malformed_inputs_rejected() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(1);
        let sig = s.sign(&sk, b"m").unwrap();
        assert!(s.sign(&SecretKey(vec![1, 2]), b"m").is_err());
        assert!(!s.verify(&PublicKey::new(vec![0; 7]), b"m", &sig));
        assert!(!s.verify(&pk, b"m", &Signature(vec![0; 7])));
        // signature >= n rejected
        assert!(!s.verify(&pk, b"m", &Signature(vec![0xff; s.signature_len()])));
    }

    #[test]
    fn tampered_signature_rejected() {
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(2);
        let mut sig = s.sign(&sk, b"m").unwrap();
        sig.0[10] ^= 0x40;
        assert!(!s.verify(&pk, b"m", &sig));
    }

    #[test]
    #[should_panic(expected = "128 bits")]
    fn rejects_tiny_modulus() {
        let _ = RsaScheme::new(64);
    }

    #[test]
    fn textbook_consistency() {
        // sign then verify equals identity on the padded integer:
        // (m^d)^e = m mod n.
        let s = scheme();
        let (sk, pk) = s.keypair_from_seed(7);
        let (n, d) = s.decode_sk(&sk).unwrap();
        assert_eq!(Ubig::from_be_bytes(pk.as_bytes()), n);
        let m = Ubig::from(0xabcdef123456u64);
        let c = modpow(&m, &d, &n);
        assert_eq!(modpow(&c, &Ubig::from(E), &n), m);
    }
}
