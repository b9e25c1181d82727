//! Cross-scheme isolation: no scheme may verify another scheme's
//! signatures or accept another scheme's keys, even when they share group
//! parameters (Schnorr and DSA both live in the same DSA-style groups).

use fd_crypto::{DsaScheme, RsaScheme, SchnorrScheme, SignatureScheme, ToyScheme};

fn schemes() -> Vec<Box<dyn SignatureScheme>> {
    vec![
        Box::new(SchnorrScheme::test_tiny()),
        Box::new(DsaScheme::test_tiny()),
        Box::new(RsaScheme::new(512)),
        Box::new(ToyScheme::new()),
    ]
}

#[test]
fn signatures_never_verify_across_schemes() {
    let all = schemes();
    for signer in &all {
        let (sk, _) = signer.keypair_from_seed(7);
        let sig = signer.sign(&sk, b"cross").unwrap();
        for verifier in &all {
            if verifier.name() == signer.name() {
                continue;
            }
            // Keys from the verifier's own world must still reject the
            // foreign signature.
            let (_, pk) = verifier.keypair_from_seed(7);
            assert!(
                !verifier.verify(&pk, b"cross", &sig),
                "{} verified a {} signature",
                verifier.name(),
                signer.name()
            );
        }
    }
}

#[test]
fn foreign_public_keys_never_verify() {
    let all = schemes();
    for signer in &all {
        let (sk, pk) = signer.keypair_from_seed(9);
        let sig = signer.sign(&sk, b"m").unwrap();
        for verifier in &all {
            if verifier.name() == signer.name() {
                continue;
            }
            assert!(
                !verifier.verify(&pk, b"m", &sig),
                "{} accepted a {} key + signature",
                verifier.name(),
                signer.name()
            );
        }
    }
}

#[test]
fn every_scheme_reports_consistent_lengths() {
    for s in schemes() {
        let (sk, pk) = s.keypair_from_seed(3);
        let sig = s.sign(&sk, b"len").unwrap();
        assert_eq!(pk.as_bytes().len(), s.public_key_len(), "{}", s.name());
        assert_eq!(sig.0.len(), s.signature_len(), "{}", s.name());
    }
}
