//! Chain signatures with the paper's §4 name-embedding rule.
//!
//! A chain-signed message has the structure
//! `{P_{k-1}, { … {P_0, {m}_{S_0}}_{S_1} … }_{S_{k-1}}}_{S_k}`:
//! the innermost payload is signed by its *origin*, and every subsequent
//! signer signs the previous document **together with the name of the node
//! the previous document is assigned to**. Verification (Theorem 4
//! discipline) assigns the outermost layer to the *immediate sender*
//! (network property N2), each inner layer to the node named just outside
//! it, and *discovers a failure* on any predicate failure or name mismatch.
//! This is what substitutes for the missing global-authentication property
//! G3: assignments may go wrong under local authentication, but never
//! silently.
//!
//! On the wire a chain is flat: `origin ‖ body ‖ sig_0 ‖ k ‖ a_0 ‖ sig_1 ‖
//! … ‖ a_{k-1} ‖ sig_k` (names two bytes; byte strings and the count `k`
//! each behind a big-endian `u32`). [`ChainView`] reads it in place and is
//! the one parser, document builder, verifier and extender; the owned
//! [`ChainMessage`] goes through it. The origin's document is the wire
//! prefix `doc_0 = origin ‖ body ‖ sig_0`, and layer `i` wraps it as
//! `doc_{i+1} = a_i ‖ doc_i ‖ sig_{i+1}` (both strings length-prefixed),
//! so one buffer holds every document:
//!
//! ```text
//! a_{k-1} len ‖ … ‖ a_0 len ‖ doc_0 ‖ len sig_1 ‖ … ‖ len sig_k
//! ```
//!
//! `doc_i` starts after the `k − i` heads of the layers outside it and
//! ends after `sig_i`. The origin signs `"fd-chain-origin-v1" ‖ origin ‖
//! body` and layer `i`'s signer `"fd-chain-layer-v1" ‖ a_i ‖ doc_i`: a tag
//! in front of a prefix of `doc_0`, or of `doc_{i+1}` short of its last
//! signature. The builder writes each tag into the bytes just in front of
//! that prefix before its signature is checked.

use crate::keys::{KeyStore, Keyring};
use crate::outcome::DiscoveryReason;
use fd_crypto::{CryptoError, SecretKey, Signature, SignatureScheme};
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, NodeId, Payload};
use std::convert::Infallible;

const ORIGIN_TAG: &[u8] = b"fd-chain-origin-v1";
const LAYER_TAG: &[u8] = b"fd-chain-layer-v1";
/// A layer's head: its embedded name and the inner document's length.
const HEAD: usize = 2 + 4;
/// Spare bytes in front of the outermost document: room for the prefix
/// one more layer signs, which also covers the origin's tag.
const ROOM: usize = LAYER_TAG.len() + HEAD;

/// One signature layer: the name of the node the *inner* document is
/// assigned to, plus the signature of this layer's signer over
/// `(inner_assignee ‖ inner document)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLayer {
    /// Whom the signer assigned the inner document to (the paper's
    /// mandatory embedded name).
    pub inner_assignee: NodeId,
    /// Signature over the canonical layer bytes.
    pub sig: Signature,
}

/// A chain-signed message (paper §4), owned. Decoding, documents,
/// verification and extension go through its encoding's [`ChainView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMessage {
    /// Claimed origin `P_0` (self-attested inside `sig0`).
    pub origin: NodeId,
    /// The innermost payload `m`.
    pub body: Vec<u8>,
    /// Origin signature `{origin ‖ m}_{S_origin}`.
    pub sig0: Signature,
    /// Outer layers, innermost first.
    pub layers: Vec<ChainLayer>,
}

impl ChainMessage {
    /// Create the innermost message `{m}_{S_origin}` (what `P_0` sends in
    /// the failure-discovery protocol, Fig. 2).
    ///
    /// # Errors
    ///
    /// Propagates signing errors for malformed secret keys.
    pub fn originate(
        scheme: &dyn SignatureScheme,
        sk: &SecretKey,
        origin: NodeId,
        body: Vec<u8>,
    ) -> Result<Self, CryptoError> {
        let mut w = Writer::new();
        w.put_raw(ORIGIN_TAG);
        origin.encode(&mut w);
        w.put_bytes(&body);
        Ok(ChainMessage {
            origin,
            sig0: scheme.sign(sk, &w.into_bytes())?,
            body,
            layers: Vec::new(),
        })
    }

    /// Run `f` on the view of this chain's encoding.
    fn view<R>(&self, f: impl FnOnce(ChainView<'_>) -> R) -> R {
        f(ChainView::parse(&self.encode_to_vec()).expect("an encoded chain parses"))
    }

    /// The canonical document bytes of the chain with its current layers
    /// (this is what the *next* signer signs, together with an assignee
    /// name).
    pub fn document(&self) -> Vec<u8> {
        let Ok(docs) = self.view(|chain| chain.documents(|_, _, _| Ok::<_, Infallible>(())));
        docs[ROOM..].to_vec()
    }

    /// Extend the chain: sign the current document together with
    /// `assignee` — the node *this* signer assigns the current document to
    /// (for an honest signer: the verified assignee, i.e. the immediate
    /// sender it received the chain from, or the origin for a bare chain).
    ///
    /// # Errors
    ///
    /// Propagates signing errors for malformed secret keys.
    pub fn extend(
        self,
        scheme: &dyn SignatureScheme,
        sk: &SecretKey,
        assignee: NodeId,
    ) -> Result<Self, CryptoError> {
        let bytes = relay(&self.encode_to_vec(), 0, scheme, sk, assignee)?;
        Ok(ChainMessage::decode_exact(&bytes).expect("a relayed chain parses"))
    }

    /// Number of signatures on the chain (origin + layers).
    pub fn signature_count(&self) -> usize {
        1 + self.layers.len()
    }

    /// Verify the chain against a local [`KeyStore`] per the Theorem 4
    /// discipline, with `immediate_sender` the node the message physically
    /// arrived from (N2).
    ///
    /// On success returns the node the *complete* message is assigned to
    /// (the outermost signer = the immediate sender; the origin for a bare
    /// chain).
    ///
    /// Every predicate evaluation goes through the store's per-run
    /// [`VerifyCache`](crate::keys::VerifyCache) when one is attached, so a
    /// chain that arrives one layer longer than one already checked costs
    /// one new `scheme.verify`. Protocol receivers do not call this
    /// directly: they screen through `keys::screen`, whose cohort layer
    /// judges each shared broadcast buffer once and replays the verdict
    /// for the other receivers.
    ///
    /// # Errors
    ///
    /// Any of these constitutes discovering a failure (the receiving node's
    /// view differs from all failure-free runs):
    ///
    /// * [`DiscoveryReason::UnknownSigner`] — no accepted predicate for a
    ///   claimed signer;
    /// * [`DiscoveryReason::BadSignature`] — a predicate failed;
    /// * [`DiscoveryReason::NameMismatch`] — a layer's embedded name differs
    ///   from this node's own assignment of the inner document.
    pub fn verify(
        &self,
        scheme: &dyn SignatureScheme,
        store: &KeyStore,
        immediate_sender: NodeId,
    ) -> Result<NodeId, DiscoveryReason> {
        self.view(|chain| chain.verify(scheme, store, &chain.signer_sequence(immediate_sender)))
    }
}

impl Encode for ChainMessage {
    fn encode(&self, w: &mut Writer) {
        self.origin.encode(w);
        w.put_bytes(&self.body);
        w.put_bytes(&self.sig0.0);
        w.put_u32(self.layers.len() as u32);
        for layer in &self.layers {
            layer.inner_assignee.encode(w);
            w.put_bytes(&layer.sig.0);
        }
    }
}

impl Decode for ChainMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let chain = ChainView::read(r)?;
        let sig = |bytes: &[u8]| Signature(bytes.to_vec());
        let layers = chain.layers().map(|(inner_assignee, bytes)| ChainLayer {
            inner_assignee,
            sig: sig(bytes),
        });
        Ok(ChainMessage {
            origin: chain.origin,
            body: chain.body.to_vec(),
            sig0: sig(chain.sig0),
            layers: layers.collect(),
        })
    }
}

/// A chain read in place from its wire bytes (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainView<'a> {
    /// The chain's wire bytes, exactly.
    bytes: &'a [u8],
    pub(crate) origin: NodeId,
    pub(crate) body: &'a [u8],
    sig0: &'a [u8],
    /// The number of layers.
    layers: usize,
}

impl<'a> ChainView<'a> {
    /// The one chain parser: read a chain from `r`, checking every length
    /// and the layer count against the bytes that remain, once and without
    /// allocating, so walking the layers afterwards cannot fail. Fails with
    /// [`CodecError::UnexpectedEnd`] or [`CodecError::BadLength`] where the
    /// bytes end before the chain does.
    pub fn read(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let mut start = r.clone();
        let origin = NodeId::decode(r)?;
        let (body, sig0) = (r.get_bytes()?, r.get_bytes()?);
        let layers = r.get_u32()? as usize;
        if layers > r.remaining() {
            return Err(CodecError::BadLength);
        }
        for _ in 0..layers {
            NodeId::decode(r)?;
            r.get_bytes()?;
        }
        Ok(ChainView {
            bytes: start.get_raw(start.remaining() - r.remaining())?,
            origin,
            body,
            sig0,
            layers,
        })
    }

    /// Parse a chain that is all of `bytes` ([`CodecError::TrailingBytes`]
    /// if it is not).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let chain = ChainView::read(&mut r)?;
        r.is_empty()
            .then_some(chain)
            .ok_or(CodecError::TrailingBytes)
    }

    /// Number of signatures on the chain (origin + layers).
    pub fn signature_count(&self) -> usize {
        1 + self.layers
    }

    /// The length of `doc_0`: origin, body and the origin's signature.
    fn doc_0_len(&self) -> usize {
        2 + 4 + self.body.len() + 4 + self.sig0.len()
    }

    /// The layers, innermost first: each one's embedded name and
    /// signature.
    pub fn layers(&self) -> impl Iterator<Item = (NodeId, &'a [u8])> + 'a {
        let mut rest = Reader::new(&self.bytes[self.doc_0_len() + 4..]);
        (0..self.layers).map(move |_| {
            let name = NodeId::decode(&mut rest).expect("read checked every layer");
            (name, rest.get_bytes().expect("read checked every layer"))
        })
    }

    /// The signer sequence implied by the chain *given* the immediate
    /// sender: origin, then each layer's signer (layer `k`'s signer is
    /// named by layer `k+1`; the outermost signer is the immediate sender).
    pub fn signer_sequence(&self, immediate_sender: NodeId) -> Vec<NodeId> {
        let named = self.layers().skip(1).map(|(name, _)| name);
        std::iter::once(self.origin)
            .chain(named)
            .chain((self.layers > 0).then_some(immediate_sender))
            .collect()
    }

    /// The one document builder: the buffer of the module docs, behind
    /// [`ROOM`] spare bytes. On the way it hands `check` each signature
    /// with the bytes it signs, innermost first — the origin's (`name` is
    /// the origin), then each layer's (`name` is its embedded name) — and
    /// stops at the first error.
    fn documents<E>(
        &self,
        mut check: impl FnMut(NodeId, &[u8], &[u8]) -> Result<(), E>,
    ) -> Result<Vec<u8>, E> {
        // Where the document the next layer wraps starts: `doc_0` first.
        let mut start = ROOM + HEAD * self.layers;
        let mut buf = Vec::with_capacity(ROOM + self.bytes.len() + 4 * self.layers);
        buf.resize(start, 0);
        buf.extend_from_slice(&self.bytes[..self.doc_0_len()]);
        let signed = start - ORIGIN_TAG.len();
        buf[signed..start].copy_from_slice(ORIGIN_TAG);
        let origin_signed = &buf[signed..start + 2 + 4 + self.body.len()];
        check(self.origin, origin_signed, self.sig0)?;
        for (name, sig) in self.layers() {
            let signed = layer_prefix(&mut buf, start, name);
            check(name, &buf[signed..], sig)?;
            start -= HEAD;
            buf.extend_from_slice(&(sig.len() as u32).to_be_bytes());
            buf.extend_from_slice(sig);
        }
        Ok(buf)
    }

    /// [`ChainMessage::verify`] against the chain's already derived
    /// [`signer_sequence`](ChainView::signer_sequence).
    pub(crate) fn verify(
        &self,
        scheme: &dyn SignatureScheme,
        store: &KeyStore,
        signers: &[NodeId],
    ) -> Result<NodeId, DiscoveryReason> {
        let mut level = 0;
        self.documents(|name, signed, sig| {
            // Layer `i` is level `i + 1`, signed by `signers[i + 1]`.
            // Theorem 4: its embedded name must match *our own*
            // assignment of the document inside it, `signers[i]`.
            if level > 0 && name != signers[level - 1] {
                return Err(DiscoveryReason::NameMismatch);
            }
            let signer = signers[level];
            level += 1;
            if store.accepted(signer).is_none() {
                Err(DiscoveryReason::UnknownSigner)
            } else if !store.assigns(scheme, signer, signed, sig) {
                Err(DiscoveryReason::BadSignature)
            } else {
                Ok(())
            }
        })?;
        Ok(signers[self.layers])
    }
}

/// Write layer `name`'s tag and head in front of the document that starts
/// at `start` and ends `buf`; returns where the bytes its signer signs
/// start.
fn layer_prefix(buf: &mut [u8], start: usize, name: NodeId) -> usize {
    let inner = (buf.len() - start) as u32;
    buf[start - ROOM..start - HEAD].copy_from_slice(LAYER_TAG);
    buf[start - HEAD..start - 4].copy_from_slice(&name.0.to_be_bytes());
    buf[start - 4..start].copy_from_slice(&inner.to_be_bytes());
    start - ROOM
}

/// The one relay: `payload` with the chain that starts `chain_offset`
/// bytes in extended by a layer naming `assignee`, signed with `sk` — its
/// layer count one higher and the layer appended; whatever precedes the
/// chain is copied as is. Panics unless the rest of `payload` is one
/// chain: relay only what screening accepted.
pub(crate) fn relay(
    payload: &[u8],
    chain_offset: usize,
    scheme: &dyn SignatureScheme,
    sk: &SecretKey,
    assignee: NodeId,
) -> Result<Vec<u8>, CryptoError> {
    let chain = ChainView::parse(&payload[chain_offset..]).expect("a relayed payload parses");
    let Ok(mut docs) = chain.documents(|_, _, _| Ok::<_, Infallible>(()));
    let signed = layer_prefix(&mut docs, ROOM, assignee);
    let sig = scheme.sign(sk, &docs[signed..])?;
    let mut out = Vec::with_capacity(payload.len() + HEAD + sig.0.len());
    out.extend_from_slice(payload);
    let count = chain_offset + chain.doc_0_len();
    out[count..count + 4].copy_from_slice(&(chain.layers as u32 + 1).to_be_bytes());
    out.extend_from_slice(&assignee.0.to_be_bytes());
    out.extend_from_slice(&(sig.0.len() as u32).to_be_bytes());
    out.extend_from_slice(&sig.0);
    Ok(out)
}

/// A wire message that is one tag byte and a chain. Chain FD's
/// [`FdMsg`](crate::fd::FdMsg), small range's
/// [`SrMsg`](crate::fd::SrMsg), Dolev–Strong's
/// [`DsMsg`](crate::ba::DsMsg), degradable agreement's
/// [`DgMsg`](crate::ba::DgMsg) and the FD→BA alarm are aliases of it, one
/// per tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMsg<const TAG: u8> {
    /// The chain-signed value.
    pub chain: ChainMessage,
}

impl<const TAG: u8> ChainMsg<TAG> {
    /// The byte every payload of this message type starts with.
    pub(crate) const TAG: u8 = TAG;

    /// The chain a payload carries, or `None` unless the payload is
    /// exactly one such message: the parser a receiver screens with.
    pub(crate) fn chain_of(payload: &[u8]) -> Option<ChainView<'_>> {
        match payload.split_first() {
            Some((&tag, chain)) if tag == TAG => ChainView::parse(chain).ok(),
            _ => None,
        }
    }

    /// A fresh chain of `body`, signed by `ring`'s owner as its origin.
    pub(crate) fn originate(
        scheme: &dyn SignatureScheme,
        ring: &Keyring,
        body: Vec<u8>,
    ) -> Payload {
        let chain = ChainMessage::originate(scheme, &ring.sk, ring.me, body)
            .expect("own keyring is well-formed");
        Self { chain }.encode_to_vec().into()
    }

    /// The honest [`relay`] of an accepted envelope: its chain, under
    /// the same tag, extended by a layer naming its immediate sender.
    pub(crate) fn relay(env: &Envelope, scheme: &dyn SignatureScheme, sk: &SecretKey) -> Payload {
        let relayed = relay(&env.payload, 1, scheme, sk, env.from);
        relayed.expect("own keyring is well-formed").into()
    }
}

impl<const TAG: u8> Encode for ChainMsg<TAG> {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG);
        self.chain.encode(w);
    }
}

impl<const TAG: u8> Decode for ChainMsg<TAG> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            tag if tag == TAG => Ok(ChainMsg {
                chain: ChainMessage::decode(r)?,
            }),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keyring;
    use fd_crypto::SchnorrScheme;

    fn setup(n: usize) -> (SchnorrScheme, Vec<Keyring>, KeyStore) {
        let scheme = SchnorrScheme::test_tiny();
        let rings: Vec<Keyring> = (0..n)
            .map(|i| Keyring::generate(&scheme, NodeId(i as u16), 11))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        let store = KeyStore::global(NodeId(0), &pks);
        (scheme, rings, store)
    }

    fn chain_through(
        scheme: &SchnorrScheme,
        rings: &[Keyring],
        body: &[u8],
        hops: &[usize],
    ) -> ChainMessage {
        let mut msg =
            ChainMessage::originate(scheme, &rings[0].sk, NodeId(0), body.to_vec()).unwrap();
        let mut assignee = NodeId(0);
        for &h in hops {
            msg = msg.extend(scheme, &rings[h].sk, assignee).unwrap();
            assignee = NodeId(h as u16);
        }
        msg
    }

    #[test]
    fn bare_chain_verifies_to_origin() {
        let (scheme, rings, store) = setup(3);
        let msg = chain_through(&scheme, &rings, b"v", &[]);
        assert_eq!(msg.verify(&scheme, &store, NodeId(0)), Ok(NodeId(0)));
        assert_eq!(msg.signature_count(), 1);
    }

    #[test]
    fn multi_layer_chain_verifies_to_sender() {
        let (scheme, rings, store) = setup(4);
        // P0 -> P1 -> P2, received from P2.
        let msg = chain_through(&scheme, &rings, b"v", &[1, 2]);
        assert_eq!(msg.verify(&scheme, &store, NodeId(2)), Ok(NodeId(2)));
        let bytes = msg.encode_to_vec();
        assert_eq!(
            ChainView::parse(&bytes).unwrap().signer_sequence(NodeId(2)),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn wrong_immediate_sender_discovered() {
        let (scheme, rings, store) = setup(4);
        let msg = chain_through(&scheme, &rings, b"v", &[1, 2]);
        // P3 forwards P2's chain without signing: outer layer now fails
        // under P3's key.
        assert_eq!(
            msg.verify(&scheme, &store, NodeId(3)),
            Err(DiscoveryReason::BadSignature)
        );
    }

    #[test]
    fn tampered_body_discovered() {
        let (scheme, rings, store) = setup(3);
        let mut msg = chain_through(&scheme, &rings, b"v", &[1]);
        msg.body = b"w".to_vec();
        assert_eq!(
            msg.verify(&scheme, &store, NodeId(1)),
            Err(DiscoveryReason::BadSignature)
        );
    }

    #[test]
    fn wrong_embedded_name_discovered() {
        let (scheme, rings, store) = setup(4);
        // P1 extends but embeds the wrong assignee name (P2 instead of P0).
        let msg = ChainMessage::originate(&scheme, &rings[0].sk, NodeId(0), b"v".to_vec())
            .unwrap()
            .extend(&scheme, &rings[1].sk, NodeId(2))
            .unwrap();
        assert_eq!(
            msg.verify(&scheme, &store, NodeId(1)),
            Err(DiscoveryReason::NameMismatch)
        );
    }

    #[test]
    fn forged_origin_discovered() {
        let (scheme, rings, store) = setup(3);
        // P1 claims a body originated at P0 but signs with its own key.
        let msg = ChainMessage::originate(&scheme, &rings[1].sk, NodeId(0), b"v".to_vec()).unwrap();
        assert_eq!(
            msg.verify(&scheme, &store, NodeId(0)),
            Err(DiscoveryReason::BadSignature)
        );
    }

    #[test]
    fn unknown_signer_discovered() {
        let (scheme, rings, _) = setup(3);
        let msg = chain_through(&scheme, &rings, b"v", &[1]);
        // A store that never accepted P1's key cannot assign the layer.
        let mut store = KeyStore::new(3, NodeId(2));
        store.accept(NodeId(0), rings[0].pk.clone());
        assert_eq!(
            msg.verify(&scheme, &store, NodeId(1)),
            Err(DiscoveryReason::UnknownSigner)
        );
    }

    #[test]
    fn equivocated_key_discovered_at_minority() {
        // The G3 attack: faulty P1 distributed pk_a to P2 and pk_b to P3.
        // P1 signs with sk_a; P2 assigns fine, P3 discovers. (Theorem 4.)
        let scheme = SchnorrScheme::test_tiny();
        let p0 = Keyring::generate(&scheme, NodeId(0), 1);
        let (sk_a, pk_a) = scheme.keypair_from_seed(1001);
        let (_, pk_b) = scheme.keypair_from_seed(1002);

        let msg = ChainMessage::originate(&scheme, &p0.sk, NodeId(0), b"v".to_vec()).unwrap();
        let msg = ChainMessage {
            origin: msg.origin,
            body: msg.body.clone(),
            sig0: msg.sig0.clone(),
            layers: vec![],
        }
        .extend(&scheme, &sk_a, NodeId(0))
        .unwrap();

        let mut store2 = KeyStore::new(4, NodeId(2));
        store2.accept(NodeId(0), p0.pk.clone());
        store2.accept(NodeId(1), pk_a);
        let mut store3 = KeyStore::new(4, NodeId(3));
        store3.accept(NodeId(0), p0.pk.clone());
        store3.accept(NodeId(1), pk_b);

        assert_eq!(msg.verify(&scheme, &store2, NodeId(1)), Ok(NodeId(1)));
        assert_eq!(
            msg.verify(&scheme, &store3, NodeId(1)),
            Err(DiscoveryReason::BadSignature)
        );
    }

    #[test]
    fn codec_round_trip() {
        let (scheme, rings, _) = setup(3);
        let msg = chain_through(&scheme, &rings, b"value", &[1, 2]);
        let bytes = msg.encode_to_vec();
        assert_eq!(ChainMessage::decode_exact(&bytes).unwrap(), msg);
    }

    #[test]
    fn document_changes_with_every_layer() {
        let (scheme, rings, _) = setup(3);
        let m0 = chain_through(&scheme, &rings, b"v", &[]);
        let m1 = chain_through(&scheme, &rings, b"v", &[1]);
        assert_ne!(m0.document(), m1.document());
    }

    /// Known answer for the five tag-plus-chain wire messages: each is its
    /// tag byte, then the chain's own encoding, and refuses the other four
    /// tags.
    #[test]
    fn chain_message_payload_bytes_are_pinned() {
        use crate::ba::fd_to_ba::AlarmMsg;
        use crate::ba::{DgMsg, DsMsg};
        use crate::fd::{FdMsg, SrMsg};
        use std::fmt::Debug;

        const TAGS: [u8; 5] = [0x10, 0x30, 0x40, 0x60, 0x68];
        fn pin<M: Encode + Decode + PartialEq + Debug>(msg: M, tag: u8, chain: &[u8]) {
            let bytes = msg.encode_to_vec();
            assert_eq!(bytes[0], tag);
            assert_eq!(&bytes[1..], chain, "tag {tag:#04x}");
            assert_eq!(M::decode_exact(&bytes).unwrap(), msg);
            for other in TAGS.into_iter().filter(|&t| t != tag) {
                let mut foreign = bytes.clone();
                foreign[0] = other;
                assert_eq!(M::decode_exact(&foreign), Err(CodecError::BadTag(other)));
            }
        }

        let (scheme, rings, _) = setup(3);
        let chain = chain_through(&scheme, &rings, b"value", &[1, 2]);
        let bytes = chain.encode_to_vec();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let pinned = [
            // origin P0, body "value", the origin's signature
            "0000 00000005 76616c7565 0000000c 4fa8c41820e750e7b942854c",
            // two layers: assignee P0 under P1's signature, P1 under P2's
            "00000002",
            "0000 0000000c 9af11b929a335d156fc54f2b",
            "0001 0000000c 52154ccf10126c9b4f9a0358",
        ];
        assert_eq!(hex, pinned.concat().replace(' ', ""));
        let chain = || chain.clone();
        pin(FdMsg { chain: chain() }, 0x10, &bytes);
        pin(SrMsg { chain: chain() }, 0x30, &bytes);
        pin(DsMsg { chain: chain() }, 0x40, &bytes);
        pin(AlarmMsg { chain: chain() }, 0x60, &bytes);
        pin(DgMsg { chain: chain() }, 0x68, &bytes);
    }

    /// Extension as it was built before chains were read in place, from
    /// the public fields alone: wrap `origin ‖ body ‖ sig0` in each layer
    /// (`assignee ‖ document ‖ sig`, byte strings length-prefixed), then
    /// sign `"fd-chain-layer-v1" ‖ assignee ‖ document`.
    fn reference_extend(
        chain: &ChainMessage,
        scheme: &SchnorrScheme,
        sk: &SecretKey,
        assignee: NodeId,
    ) -> ChainMessage {
        let mut w = Writer::new();
        chain.origin.encode(&mut w);
        w.put_bytes(&chain.body);
        w.put_bytes(&chain.sig0.0);
        let mut doc = w.into_bytes();
        for layer in &chain.layers {
            let mut w = Writer::new();
            layer.inner_assignee.encode(&mut w);
            w.put_bytes(&doc);
            w.put_bytes(&layer.sig.0);
            doc = w.into_bytes();
        }
        let mut w = Writer::new();
        w.put_raw(b"fd-chain-layer-v1");
        assignee.encode(&mut w);
        w.put_bytes(&doc);
        let mut extended = chain.clone();
        extended.layers.push(ChainLayer {
            inner_assignee: assignee,
            sig: scheme.sign(sk, &w.into_bytes()).unwrap(),
        });
        extended
    }

    /// The byte relay of one tag-plus-chain carrier against decode,
    /// reference extension and encode.
    fn relay_matches_reference<const TAG: u8>(
        chain: &ChainMessage,
        signer: &Keyring,
        from: NodeId,
    ) {
        let (scheme, sk) = (SchnorrScheme::test_tiny(), &signer.sk);
        let payload = ChainMsg::<TAG> {
            chain: chain.clone(),
        }
        .encode_to_vec();
        let env = fd_simnet::Envelope {
            from,
            to: signer.me,
            round: 1,
            payload: payload.clone().into(),
        };
        let chain = ChainMsg::<TAG>::decode_exact(&payload).unwrap().chain;
        let reference = ChainMsg::<TAG> {
            chain: reference_extend(&chain, &scheme, sk, from),
        };
        let relayed = ChainMsg::<TAG>::relay(&env, &scheme, sk);
        assert_eq!(relayed, reference.encode_to_vec(), "tag {TAG:#04x}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// For every chain carrier the byte relay writes exactly the
        /// payload that decoding, extending by the reference and encoding
        /// again writes.
        #[test]
        fn byte_relay_matches_decode_extend_encode(
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
            hops in proptest::collection::vec(1usize..5, 0..4),
            signer in 0usize..5,
            from in 0u16..5,
        ) {
            use crate::fd::VecMsg;
            let (scheme, rings, _) = setup(5);
            let chain = chain_through(&scheme, &rings, &body, &hops);
            let (signer, from) = (&rings[signer], NodeId(from));
            relay_matches_reference::<0x10>(&chain, signer, from);
            relay_matches_reference::<0x30>(&chain, signer, from);
            relay_matches_reference::<0x40>(&chain, signer, from);
            relay_matches_reference::<0x60>(&chain, signer, from);
            relay_matches_reference::<0x68>(&chain, signer, from);
            // VecMsg: a three-byte header (tag, instance) before the chain.
            let instance = NodeId(body.len() as u16);
            let payload = VecMsg { instance, chain: chain.clone() }.encode_to_vec();
            let decoded = VecMsg::decode_exact(&payload).unwrap();
            let reference = VecMsg {
                instance,
                chain: reference_extend(&decoded.chain, &scheme, &signer.sk, from),
            };
            let relayed = relay(&payload, 3, &scheme, &signer.sk, from).unwrap();
            proptest::prop_assert_eq!(relayed, reference.encode_to_vec());
            // The owned form extends through the same relay.
            let extended = chain.clone().extend(&scheme, &signer.sk, from).unwrap();
            proptest::prop_assert_eq!(extended, reference_extend(&chain, &scheme, &signer.sk, from));
        }
    }
}
