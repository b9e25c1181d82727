//! Property-based tests for the crypto substrate: S1–S3 behaviour of every
//! scheme over arbitrary messages, seeds, and tampering, and the same
//! verdicts from a key handle whatever its table cache holds.

use fd_crypto::{
    DsaScheme, PublicKey, RsaScheme, SchnorrGroup, SchnorrScheme, Signature, SignatureScheme,
    ToyScheme,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn schemes() -> Vec<Box<dyn SignatureScheme>> {
    vec![
        Box::new(SchnorrScheme::test_tiny()),
        Box::new(RsaScheme::new(256)),
        Box::new(ToyScheme::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sign_verify_soundness(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..200)) {
        for s in schemes() {
            let (sk, pk) = s.keypair_from_seed(seed);
            let sig = s.sign(&sk, &msg).unwrap();
            prop_assert!(s.verify(&pk, &msg, &sig), "{}", s.name());
        }
    }

    #[test]
    fn cross_key_rejection_s2(seed1 in any::<u64>(), seed2 in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..100)) {
        prop_assume!(seed1 != seed2);
        for s in schemes() {
            let (sk1, pk1) = s.keypair_from_seed(seed1);
            let (_, pk2) = s.keypair_from_seed(seed2);
            prop_assume!(pk1 != pk2);
            let sig = s.sign(&sk1, &msg).unwrap();
            prop_assert!(!s.verify(&pk2, &msg, &sig), "{}", s.name());
        }
    }

    #[test]
    fn message_binding(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 1..100), flip in any::<usize>()) {
        for s in schemes() {
            let (sk, pk) = s.keypair_from_seed(seed);
            let sig = s.sign(&sk, &msg).unwrap();
            let mut other = msg.clone();
            other[flip % msg.len()] ^= 0x01;
            prop_assert!(!s.verify(&pk, &other, &sig), "{}", s.name());
        }
    }

    #[test]
    fn signature_tamper_rejection(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..50), byte in any::<usize>(), bit in 0u8..8) {
        // Schnorr + RSA only: the toy scheme is broken by design but its
        // sig is a hash, so tampering still fails; include all three.
        for s in schemes() {
            let (sk, pk) = s.keypair_from_seed(seed);
            let sig = s.sign(&sk, &msg).unwrap();
            let mut bad = sig.clone();
            let i = byte % bad.0.len();
            bad.0[i] ^= 1 << bit;
            prop_assert!(!s.verify(&pk, &msg, &bad), "{}", s.name());
        }
    }

    #[test]
    fn garbage_never_verifies(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..50), garbage in prop::collection::vec(any::<u8>(), 0..80)) {
        for s in schemes() {
            let (_, pk) = s.keypair_from_seed(seed);
            // Random bytes as signature: overwhelmingly must not verify.
            prop_assert!(!s.verify(&pk, &msg, &Signature(garbage.clone())), "{}", s.name());
        }
    }

    #[test]
    fn garbage_public_keys_never_panic(pk_bytes in prop::collection::vec(any::<u8>(), 0..80), msg in prop::collection::vec(any::<u8>(), 0..50)) {
        for s in schemes() {
            let (sk, _) = s.keypair_from_seed(1);
            let sig = s.sign(&sk, &msg).unwrap();
            // Must not panic, whatever it returns.
            let _ = s.verify(&PublicKey::new(pk_bytes.clone()), &msg, &sig);
        }
    }

    #[test]
    fn keygen_deterministic(seed in any::<u64>()) {
        for s in schemes() {
            let (_, pk1) = s.keypair_from_seed(seed);
            let (_, pk2) = s.keypair_from_seed(seed);
            prop_assert_eq!(pk1, pk2, "{}", s.name());
        }
    }
}

/// The verifiers that cache a comb table on the key handle.
fn table_schemes() -> Vec<Box<dyn SignatureScheme>> {
    vec![
        Box::new(SchnorrScheme::test_tiny()),
        Box::new(SchnorrScheme::s512()),
        Box::new(DsaScheme::test_tiny()),
    ]
}

/// A 96/48 group other than `test_tiny`: its elements have the same
/// length, so a `test_tiny` key verified under it gets a table for
/// another modulus.
fn other_tiny_group() -> &'static SchnorrGroup {
    static G: OnceLock<SchnorrGroup> = OnceLock::new();
    G.get_or_init(|| SchnorrGroup::generate(96, 48, 0x07e5_7096, "other-96/48"))
}

/// A valid signature by `seed`'s key, one with bit `bit` of byte `byte`
/// flipped, one by another key, and garbage bytes; only the first
/// verifies.
fn signatures(
    s: &dyn SignatureScheme,
    seed: u64,
    msg: &[u8],
    (byte, bit): (usize, u8),
    garbage: &[u8],
) -> [(Signature, bool); 4] {
    let (sk, _) = s.keypair_from_seed(seed);
    let (other, _) = s.keypair_from_seed(seed.wrapping_add(1));
    let valid = s.sign(&sk, msg).unwrap();
    let mut tampered = valid.clone();
    let i = byte % tampered.0.len();
    tampered.0[i] ^= 1 << bit;
    [
        (valid, true),
        (tampered, false),
        (s.sign(&other, msg).unwrap(), false),
        (Signature(garbage.to_vec()), false),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_reused_key_handle_verifies_like_a_fresh_one(
        seed in any::<u64>(),
        msg in prop::collection::vec(any::<u8>(), 0..64),
        flip in (any::<usize>(), 0u8..8),
        garbage in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        for s in table_schemes() {
            // One handle for every verification: the first builds its table.
            let (_, reused) = s.keypair_from_seed(seed);
            for (sig, verdict) in signatures(s.as_ref(), seed, &msg, flip, &garbage) {
                let fresh = PublicKey::new(reused.as_bytes().to_vec());
                prop_assert_eq!(s.verify(&fresh, &msg, &sig), verdict, "{}", s.name());
                prop_assert_eq!(s.verify(&reused, &msg, &sig), verdict, "{}", s.name());
                prop_assert_eq!(s.verify(&reused.clone(), &msg, &sig), verdict, "{}", s.name());
            }
        }
    }

    #[test]
    fn a_handle_with_a_table_for_another_group_takes_the_ladder(
        seed in any::<u64>(),
        msg in prop::collection::vec(any::<u8>(), 0..64),
        flip in (any::<usize>(), 0u8..8),
        garbage in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let other = SchnorrScheme::new(other_tiny_group());
        let (other_sk, _) = other.keypair_from_seed(seed);
        let other_sig = other.sign(&other_sk, &msg).unwrap();
        for s in [
            Box::new(SchnorrScheme::test_tiny()) as Box<dyn SignatureScheme>,
            Box::new(DsaScheme::test_tiny()),
        ] {
            let (_, handle) = s.keypair_from_seed(seed);
            // A signature that decodes under the other group fills the
            // handle's table for its modulus whenever the key is in range
            // there; the verdict is false either way.
            prop_assert!(!other.verify(&handle, &msg, &other_sig));
            for (sig, verdict) in signatures(s.as_ref(), seed, &msg, flip, &garbage) {
                prop_assert_eq!(s.verify(&handle, &msg, &sig), verdict, "{}", s.name());
            }
        }
    }
}

/// A handle first verified under `s512` answers under `s1024` (and the
/// reverse) exactly like a fresh handle, and never panics.
#[test]
fn a_handle_moved_between_group_sizes_answers_like_a_fresh_one() {
    let (s512, s1024) = (SchnorrScheme::s512(), SchnorrScheme::s1024());
    for (first, then) in [(&s512, &s1024), (&s1024, &s512)] {
        let (sk, pk) = first.keypair_from_seed(3);
        let sig = first.sign(&sk, b"m").unwrap();
        assert!(first.verify(&pk, b"m", &sig));
        let (then_sk, _) = then.keypair_from_seed(3);
        for sig in [sig, then.sign(&then_sk, b"m").unwrap()] {
            let fresh = PublicKey::new(pk.as_bytes().to_vec());
            assert_eq!(
                then.verify(&pk, b"m", &sig),
                then.verify(&fresh, b"m", &sig)
            );
        }
        // The first group's verdicts are unchanged.
        let again = first.sign(&sk, b"again").unwrap();
        assert!(first.verify(&pk, b"again", &again));
    }
}
