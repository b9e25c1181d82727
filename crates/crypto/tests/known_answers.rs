//! Known-answer digests for the DSA-family schemes.
//!
//! Report bytes carry no signature bytes, and every in-process comparison
//! links the same arithmetic, so these digests are what pins group
//! parameters, keys and signatures across changes to `fd-bigint` and the
//! group code. A changed digest means keys or signatures moved.

use fd_crypto::{DsaScheme, SchnorrGroup, SchnorrScheme, Sha256, SignatureScheme};

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn group_parameters_are_pinned() {
    let mut h = Sha256::new();
    for group in [
        SchnorrGroup::test_tiny(),
        SchnorrGroup::s512(),
        SchnorrGroup::s1024(),
    ] {
        h.update(&group.p().to_be_bytes())
            .update(&group.q().to_be_bytes())
            .update(&group.g().to_be_bytes());
    }
    assert_eq!(
        hex(h.finalize()),
        "343d75e9fff358a49cd004d95b0e1757d15d5a732b1d8bd93a92e9414b576f94"
    );
}

/// SHA-256 over `sk ‖ pk ‖ sign("m") ‖ sign("challenge 0 1 42")` for seeds
/// 1..=3; each signature must verify and must fail with one bit flipped.
fn scheme_digest(scheme: &dyn SignatureScheme) -> String {
    let mut h = Sha256::new();
    for seed in 1..=3u64 {
        let (sk, pk) = scheme.keypair_from_seed(seed);
        h.update(&sk.0).update(&pk.0);
        for msg in [&b"m"[..], b"challenge 0 1 42"] {
            let sig = scheme.sign(&sk, msg).unwrap();
            assert!(
                scheme.verify(&pk, msg, &sig),
                "{} seed {seed}",
                scheme.name()
            );
            let mut bad = sig.clone();
            bad.0[0] ^= 0x01;
            assert!(
                !scheme.verify(&pk, msg, &bad),
                "{} seed {seed}",
                scheme.name()
            );
            h.update(&sig.0);
        }
    }
    hex(h.finalize())
}

#[test]
fn keys_and_signatures_are_pinned() {
    let cases: [(Box<dyn SignatureScheme>, &str); 4] = [
        (
            Box::new(SchnorrScheme::test_tiny()),
            "c53e905e235ec682af72de214eef3674f5f2732105ec70ca2db202bf341e0d7c",
        ),
        (
            Box::new(SchnorrScheme::s1024()),
            "7985724800d419af4b314052c63cc3f0128e9d81ce99815dc7c56de087a22640",
        ),
        (
            Box::new(DsaScheme::test_tiny()),
            "dd7d7f8aa23a8d0c8ab3727fb82bb4769e81459b742ab9ac359ae0eef293e418",
        ),
        (
            Box::new(DsaScheme::s1024()),
            "615044407228f40172b3a8e9570da1571e90c16c01ac776ff90c4f6240d69209",
        ),
    ];
    for (scheme, want) in cases {
        assert_eq!(scheme_digest(scheme.as_ref()), want, "{}", scheme.name());
    }
}
