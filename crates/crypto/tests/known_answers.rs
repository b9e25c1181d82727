//! Known-answer digests for the preset groups and the signature schemes,
//! and the checks that tie the preset constants to their recipe.
//!
//! Report bytes carry no signature bytes, and every in-process comparison
//! links the same arithmetic, so these digests are what pins group
//! parameters, keys and signatures across changes to `fd-bigint` and the
//! group code. A changed digest means keys or signatures moved.

use fd_bigint::{modpow, prime::is_probable_prime, SplitMix64, Ubig};
use fd_crypto::{DsaScheme, RsaScheme, SchnorrGroup, SchnorrScheme, Sha256, SignatureScheme};

/// Each preset group with the `generate` arguments it is pinned to:
/// `(group, p_bits, q_bits, seed)`.
fn presets() -> [(&'static SchnorrGroup, usize, usize, u64); 4] {
    [
        (SchnorrGroup::test_tiny(), 96, 48, 0x7e57_0001),
        (SchnorrGroup::s512(), 512, 160, 0x5ee4_0512),
        (SchnorrGroup::s1024(), 1024, 160, 0x5ee4_1024),
        (SchnorrGroup::s2048(), 2048, 256, 0x5ee4_2048),
    ]
}

fn hex(digest: [u8; 32]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 over `p ‖ q ‖ g` of each group in turn.
fn parameters_digest(groups: &[&SchnorrGroup]) -> String {
    let mut h = Sha256::new();
    for group in groups {
        h.update(&group.p().to_be_bytes())
            .update(&group.q().to_be_bytes())
            .update(&group.g().to_be_bytes());
    }
    hex(h.finalize())
}

#[test]
fn group_parameters_are_pinned() {
    assert_eq!(
        parameters_digest(&[
            SchnorrGroup::test_tiny(),
            SchnorrGroup::s512(),
            SchnorrGroup::s1024(),
        ]),
        "343d75e9fff358a49cd004d95b0e1757d15d5a732b1d8bd93a92e9414b576f94"
    );
}

#[test]
fn s2048_parameters_are_pinned() {
    assert_eq!(
        parameters_digest(&[SchnorrGroup::s2048()]),
        "8d53bcbe6a4581a72d4ff0c729952f2285135d7255a02b51a16bf0bbba8f4d0c"
    );
}

#[test]
fn preset_groups_are_well_formed() {
    let mut rng = SplitMix64::new(1);
    for (group, p_bits, q_bits, _) in presets() {
        let (p, q, g) = (group.p(), group.q(), group.g());
        let label = group.label();
        assert!(label.ends_with(&format!("{p_bits}/{q_bits}")), "{label}");
        assert_eq!(p.bits(), p_bits, "{label}");
        assert_eq!(q.bits(), q_bits, "{label}");
        assert!((&(p - &Ubig::one()) % q).is_zero(), "{label}: q ∤ p − 1");
        assert!(!g.is_zero() && !g.is_one(), "{label}");
        assert!(modpow(g, q, p).is_one(), "{label}: g^q ≠ 1");
        assert!(is_probable_prime(p, 4, &mut rng), "{label}: p");
        assert!(is_probable_prime(q, 4, &mut rng), "{label}: q");
    }
}

/// The presets are constants; this is the recipe they come from.
#[test]
#[ignore = "runs the prime search for every preset: seconds in debug"]
fn presets_reproduce_from_generate() {
    for (group, p_bits, q_bits, seed) in presets() {
        let label = group.label();
        let fresh = SchnorrGroup::generate(p_bits, q_bits, seed, label);
        assert_eq!(fresh.p(), group.p(), "{label}");
        assert_eq!(fresh.q(), group.q(), "{label}");
        assert_eq!(fresh.g(), group.g(), "{label}");
    }
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

/// RSA keygen shares `fd_bigint::prime` with group generation, so its keys
/// pin the Miller–Rabin candidate stream.
#[test]
fn rsa_keys_and_signatures_are_pinned() {
    assert_eq!(
        scheme_digest(&RsaScheme::new(512)),
        "c769d1422d3a83cb266b540e0c2465abf227700c25209c228b1d00872a1a1e2e"
    );
}
