//! Property-based tests for the chain-signature machinery (paper §4,
//! Theorem 4): arbitrary chain shapes, arbitrary tampering, arbitrary
//! store divergence — verification must accept exactly the honest chains
//! and flag everything else.

use fd_core::chain::{ChainLayer, ChainMessage, ChainView};
use fd_core::keys::{KeyStore, Keyring};
use fd_crypto::{SchnorrScheme, Signature, SignatureScheme};
use fd_simnet::codec::{Decode, Encode, Reader};
use fd_simnet::NodeId;
use proptest::prelude::*;

const N: usize = 6;

fn rings() -> Vec<Keyring> {
    let scheme = SchnorrScheme::test_tiny();
    (0..N)
        .map(|i| Keyring::generate(&scheme, NodeId(i as u16), 12345))
        .collect()
}

fn global_store() -> KeyStore {
    let pks: Vec<_> = rings().iter().map(|r| r.pk.clone()).collect();
    KeyStore::global(NodeId(0), &pks)
}

/// Build an honest chain: origin 0, extended through `hops` (each hop a
/// node id 1..N, distinct from predecessor not required by chain rules —
/// any sequence is structurally fine as long as names match assignments).
fn honest_chain(body: &[u8], hops: &[usize]) -> (ChainMessage, NodeId) {
    let scheme = SchnorrScheme::test_tiny();
    let rings = rings();
    let mut msg = ChainMessage::originate(&scheme, &rings[0].sk, NodeId(0), body.to_vec()).unwrap();
    let mut assignee = NodeId(0);
    for &h in hops {
        msg = msg.extend(&scheme, &rings[h].sk, assignee).unwrap();
        assignee = NodeId(h as u16);
    }
    (msg, assignee)
}

fn hop_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..N, 0..4)
}

/// A chain decoder written apart from the crate's, from the codec's
/// primitives: origin, body, origin signature, then a counted list of
/// (assignee, signature) layers, and nothing after.
fn reference_decode(bytes: &[u8]) -> Option<ChainMessage> {
    let mut r = Reader::new(bytes);
    let origin = NodeId::decode(&mut r).ok()?;
    let body = r.get_bytes().ok()?.to_vec();
    let sig0 = Signature(r.get_bytes().ok()?.to_vec());
    let count = r.get_u32().ok()?;
    let mut layers = Vec::new();
    for _ in 0..count {
        let inner_assignee = NodeId::decode(&mut r).ok()?;
        let sig = Signature(r.get_bytes().ok()?.to_vec());
        layers.push(ChainLayer {
            inner_assignee,
            sig,
        });
    }
    r.is_empty().then_some(ChainMessage {
        origin,
        body,
        sig0,
        layers,
    })
}

/// `ChainView` accepts exactly what `ChainMessage::decode_exact` and the
/// reference decoder accept, and the owned decode is the reference's.
fn parsers_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let view = ChainView::parse(bytes);
    let owned = ChainMessage::decode_exact(bytes);
    prop_assert_eq!(view.is_ok(), owned.is_ok());
    prop_assert_eq!(owned.ok(), reference_decode(bytes));
    if let Ok(view) = view {
        prop_assert_eq!(view.signature_count(), 1 + view.layers().count());
    }
    Ok(())
}

/// A layer count far past the bytes that follow is refused before
/// anything is sized from it (a `u32::MAX`-layer `Vec` would abort the
/// test), and so is a count the bytes could hold whose layers are not
/// there.
#[test]
fn a_layer_count_past_the_bytes_is_refused() {
    use fd_simnet::codec::CodecError;
    let mut bytes = honest_chain(b"v", &[]).0.encode_to_vec();
    let count = bytes.len() - 4;
    bytes[count..].copy_from_slice(&u32::MAX.to_be_bytes());
    bytes.extend_from_slice(&[0; 16]);
    assert_eq!(ChainView::parse(&bytes), Err(CodecError::BadLength));
    assert_eq!(
        ChainMessage::decode_exact(&bytes),
        Err(CodecError::BadLength)
    );
    // 16 bytes hold two empty layers and part of a third.
    bytes[count..count + 4].copy_from_slice(&16u32.to_be_bytes());
    assert_eq!(ChainView::parse(&bytes), Err(CodecError::UnexpectedEnd));
    assert_eq!(
        ChainMessage::decode_exact(&bytes),
        Err(CodecError::UnexpectedEnd)
    );
    bytes[count..count + 4].copy_from_slice(&2u32.to_be_bytes());
    assert_eq!(ChainView::parse(&bytes), Err(CodecError::TrailingBytes));
    bytes.truncate(bytes.len() - 4);
    assert_eq!(ChainView::parse(&bytes).unwrap().signature_count(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn honest_chains_always_verify(body in prop::collection::vec(any::<u8>(), 0..64), hops in hop_strategy()) {
        let scheme = SchnorrScheme::test_tiny();
        let (msg, sender) = honest_chain(&body, &hops);
        let store = global_store();
        prop_assert_eq!(msg.verify(&scheme, &store, sender), Ok(sender));
        prop_assert_eq!(msg.signature_count(), hops.len() + 1);
    }

    #[test]
    fn chain_codec_round_trips(body in prop::collection::vec(any::<u8>(), 0..64), hops in hop_strategy()) {
        let (msg, _) = honest_chain(&body, &hops);
        let bytes = msg.encode_to_vec();
        prop_assert_eq!(ChainMessage::decode_exact(&bytes).unwrap(), msg);
    }

    #[test]
    fn any_byte_flip_is_detected(
        body in prop::collection::vec(any::<u8>(), 1..32),
        hops in hop_strategy(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        // Flip one bit anywhere in the encoded chain: verification must
        // fail (decode error counts as detection too).
        let scheme = SchnorrScheme::test_tiny();
        let (msg, sender) = honest_chain(&body, &hops);
        let mut bytes = msg.encode_to_vec();
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        let store = global_store();
        match ChainMessage::decode_exact(&bytes) {
            Err(_) => {} // malformed: detected
            Ok(tampered) => {
                prop_assert!(
                    tampered.verify(&scheme, &store, sender).is_err(),
                    "bit flip at byte {idx} survived verification"
                );
            }
        }
    }

    #[test]
    fn wrong_immediate_sender_always_detected(
        body in prop::collection::vec(any::<u8>(), 0..32),
        hops in prop::collection::vec(1usize..N, 1..4),
        claim in 0usize..N,
    ) {
        let scheme = SchnorrScheme::test_tiny();
        let (msg, sender) = honest_chain(&body, &hops);
        let claimed = NodeId(claim as u16);
        prop_assume!(claimed != sender);
        let store = global_store();
        prop_assert!(msg.verify(&scheme, &store, claimed).is_err());
    }

    #[test]
    fn extension_preserves_inner_verifiability(
        body in prop::collection::vec(any::<u8>(), 0..32),
        hops in hop_strategy(),
        next in 1usize..N,
    ) {
        // Extending an honest chain honestly keeps it verifiable.
        let scheme = SchnorrScheme::test_tiny();
        let (msg, sender) = honest_chain(&body, &hops);
        let rings = rings();
        let extended = msg.extend(&scheme, &rings[next].sk, sender).unwrap();
        let store = global_store();
        prop_assert_eq!(
            extended.verify(&scheme, &store, NodeId(next as u16)),
            Ok(NodeId(next as u16))
        );
    }

    #[test]
    fn divergent_store_discovers_on_foreign_layer(
        body in prop::collection::vec(any::<u8>(), 0..32),
        signer in 1usize..N,
        foreign_seed in any::<u64>(),
    ) {
        // A store that accepted a DIFFERENT predicate for `signer` must
        // fail the layer (the G3/Theorem-4 mechanism).
        let scheme = SchnorrScheme::test_tiny();
        let rings = rings();
        let msg = ChainMessage::originate(&scheme, &rings[0].sk, NodeId(0), body.clone())
            .unwrap()
            .extend(&scheme, &rings[signer].sk, NodeId(0))
            .unwrap();
        let mut store = global_store();
        let (_, foreign_pk) = scheme.keypair_from_seed(foreign_seed);
        prop_assume!(foreign_pk != rings[signer].pk);
        store.accept(NodeId(signer as u16), foreign_pk);
        prop_assert!(msg.verify(&scheme, &store, NodeId(signer as u16)).is_err());
    }

    #[test]
    fn body_is_bound_to_signature(
        body1 in prop::collection::vec(any::<u8>(), 0..32),
        body2 in prop::collection::vec(any::<u8>(), 0..32),
        hops in hop_strategy(),
    ) {
        prop_assume!(body1 != body2);
        let scheme = SchnorrScheme::test_tiny();
        let (msg, sender) = honest_chain(&body1, &hops);
        let mut swapped = msg;
        swapped.body = body2;
        let store = global_store();
        prop_assert!(swapped.verify(&scheme, &store, sender).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every wire decoder must reject (never panic on) arbitrary bytes —
    /// byzantine nodes control payloads completely, so the decoders are a
    /// direct attack surface.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = ChainMessage::decode_exact(&bytes);
        let _ = ChainView::parse(&bytes).map(|v| (v.layers().count(), v.signer_sequence(NodeId(0))));
        let _ = fd_core::fd::FdMsg::decode_exact(&bytes);
        let _ = fd_core::fd::NaMsg::decode_exact(&bytes);
        let _ = fd_core::fd::SrMsg::decode_exact(&bytes);
        let _ = fd_core::fd::VecMsg::decode_exact(&bytes);
        let _ = fd_core::ba::DsMsg::decode_exact(&bytes);
        let _ = fd_core::ba::EigMsg::decode_exact(&bytes);
        let _ = fd_core::ba::PkMsg::decode_exact(&bytes);
        let _ = fd_core::ba::DgMsg::decode_exact(&bytes);
    }

    /// Mutating any single byte of an encoded chain either fails to decode
    /// or fails to verify — flipped bits cannot survive both layers.
    #[test]
    fn single_byte_mutations_never_verify(
        hops in prop::collection::vec(1usize..N, 1..3),
        body in prop::collection::vec(any::<u8>(), 1..16),
        byte_index in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let scheme = SchnorrScheme::test_tiny();
        let (msg, sender) = honest_chain(&body, &hops);
        let mut bytes = msg.encode_to_vec();
        let i = byte_index.index(bytes.len());
        bytes[i] ^= mask;
        if let Ok(decoded) = ChainMessage::decode_exact(&bytes) {
            if decoded != msg {
                prop_assert!(
                    decoded.verify(&scheme, &global_store(), sender).is_err(),
                    "mutated chain verified (byte {i}, mask {mask:#x})"
                );
            }
        }
    }

    /// The view and the owned decoder accept the same bytes: on garbage,
    /// on every truncation of an honest chain, and on the single-byte
    /// mutations of `single_byte_mutations_never_verify`.
    #[test]
    fn chain_view_accepts_exactly_what_decode_exact_accepts(
        garbage in prop::collection::vec(any::<u8>(), 0..96),
        hops in prop::collection::vec(1usize..N, 0..3),
        body in prop::collection::vec(any::<u8>(), 0..16),
        byte_index in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        parsers_agree(&garbage)?;
        let (msg, _) = honest_chain(&body, &hops);
        let bytes = msg.encode_to_vec();
        for len in 0..=bytes.len() {
            parsers_agree(&bytes[..len])?;
        }
        let mut mutated = bytes.clone();
        mutated[byte_index.index(bytes.len())] ^= mask;
        parsers_agree(&mutated)?;
    }
}
