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

use crate::keys::KeyStore;
use crate::outcome::DiscoveryReason;
use fd_crypto::{SecretKey, Signature, SignatureScheme};
use fd_simnet::codec::{decode_seq, CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{NodeId, Payload};
use std::convert::Infallible;

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

impl Encode for ChainLayer {
    fn encode(&self, w: &mut Writer) {
        self.inner_assignee.encode(w);
        w.put_bytes(&self.sig.0);
    }
}

impl Decode for ChainLayer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ChainLayer {
            inner_assignee: NodeId::decode(r)?,
            sig: Signature(r.get_bytes()?.to_vec()),
        })
    }
}

/// A chain-signed message (paper §4).
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

/// Canonical bytes the origin signs.
fn origin_bytes(origin: NodeId, body: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(b"fd-chain-origin-v1");
    origin.encode(&mut w);
    w.put_bytes(body);
    w.into_bytes()
}

/// Canonical bytes a layer signer signs: `(assignee ‖ inner document)`.
fn layer_bytes(assignee: NodeId, inner_doc: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(b"fd-chain-layer-v1");
    assignee.encode(&mut w);
    w.put_bytes(inner_doc);
    w.into_bytes()
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
    ) -> Result<Self, fd_crypto::CryptoError> {
        let sig0 = scheme.sign(sk, &origin_bytes(origin, &body))?;
        Ok(ChainMessage {
            origin,
            body,
            sig0,
            layers: Vec::new(),
        })
    }

    /// The canonical document bytes of the chain with its current layers
    /// (this is what the *next* signer signs, together with an assignee
    /// name).
    pub fn document(&self) -> Vec<u8> {
        let Ok(doc) = self.document_through(self.layers.len(), |_, _| Ok::<_, Infallible>(()));
        doc
    }

    /// The document of the chain cut to its first `k` layers: the origin's
    /// signed value, wrapped in each of those layers in turn. Before
    /// wrapping layer `i` around the document, `check(i, document)` sees
    /// the inner document that layer signs; its first error ends the walk.
    /// The one place a document is built: [`ChainMessage::document`] wraps
    /// every layer, [`ChainMessage::verify`] all but the last, whose check
    /// reads only the document inside it.
    fn document_through<E>(
        &self,
        k: usize,
        mut check: impl FnMut(usize, &[u8]) -> Result<(), E>,
    ) -> Result<Vec<u8>, E> {
        let mut w = Writer::new();
        self.origin.encode(&mut w);
        w.put_bytes(&self.body);
        w.put_bytes(&self.sig0.0);
        let mut doc = w.into_bytes();
        for (i, layer) in self.layers[..k].iter().enumerate() {
            check(i, &doc)?;
            let mut w = Writer::new();
            layer.inner_assignee.encode(&mut w);
            w.put_bytes(&doc);
            w.put_bytes(&layer.sig.0);
            doc = w.into_bytes();
        }
        Ok(doc)
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
        mut self,
        scheme: &dyn SignatureScheme,
        sk: &SecretKey,
        assignee: NodeId,
    ) -> Result<Self, fd_crypto::CryptoError> {
        let sig = scheme.sign(sk, &layer_bytes(assignee, &self.document()))?;
        self.layers.push(ChainLayer {
            inner_assignee: assignee,
            sig,
        });
        Ok(self)
    }

    /// Number of signatures on the chain (origin + layers).
    pub fn signature_count(&self) -> usize {
        1 + self.layers.len()
    }

    /// The signer sequence implied by the chain *given* the immediate
    /// sender: origin, then each layer's signer (layer `k`'s signer is
    /// named by layer `k+1`; the outermost signer is the immediate sender).
    pub fn signer_sequence(&self, immediate_sender: NodeId) -> Vec<NodeId> {
        let named = self.layers.iter().skip(1).map(|layer| layer.inner_assignee);
        std::iter::once(self.origin)
            .chain(named)
            .chain((!self.layers.is_empty()).then_some(immediate_sender))
            .collect()
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
    /// one new `scheme.verify`; the document is still rebuilt layer by
    /// layer. Protocol receivers do not call this directly: they screen
    /// through `keys::screen`, whose cohort layer judges each shared
    /// broadcast buffer once and replays the verdict for the other
    /// receivers.
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
        self.verify_signers(scheme, store, &self.signer_sequence(immediate_sender))
    }

    /// [`ChainMessage::verify`] against the chain's already derived
    /// [`signer_sequence`](ChainMessage::signer_sequence), for a caller
    /// that needs the signers itself and derives them once.
    pub(crate) fn verify_signers(
        &self,
        scheme: &dyn SignatureScheme,
        store: &KeyStore,
        signers: &[NodeId],
    ) -> Result<NodeId, DiscoveryReason> {
        let assign = |signer: NodeId, msg: &[u8], sig: &Signature| {
            if store.accepted(signer).is_none() {
                Err(DiscoveryReason::UnknownSigner)
            } else if !store.assigns(scheme, signer, msg, sig) {
                Err(DiscoveryReason::BadSignature)
            } else {
                Ok(())
            }
        };
        // Innermost: the origin's own signature over (origin ‖ body).
        assign(
            self.origin,
            &origin_bytes(self.origin, &self.body),
            &self.sig0,
        )?;
        // Layer `k`, signed by `signers[k + 1]` over its inner document.
        // Theorem 4: its embedded name must match *our own* assignment of
        // that document, `signers[k]`.
        let check = |k: usize, inner: &[u8]| {
            let layer = &self.layers[k];
            if layer.inner_assignee != signers[k] {
                return Err(DiscoveryReason::NameMismatch);
            }
            assign(
                signers[k + 1],
                &layer_bytes(layer.inner_assignee, inner),
                &layer.sig,
            )
        };
        let Some(last) = self.layers.len().checked_sub(1) else {
            return Ok(self.origin);
        };
        let inner = self.document_through(last, check)?;
        check(last, &inner)?;
        Ok(signers[last + 1])
    }
}

impl Encode for ChainMessage {
    fn encode(&self, w: &mut Writer) {
        self.origin.encode(w);
        w.put_bytes(&self.body);
        w.put_bytes(&self.sig0.0);
        self.layers.as_slice().encode(w);
    }
}

impl Decode for ChainMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ChainMessage {
            origin: NodeId::decode(r)?,
            body: r.get_bytes()?.to_vec(),
            sig0: Signature(r.get_bytes()?.to_vec()),
            layers: decode_seq::<ChainLayer>(r)?,
        })
    }
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
    /// exactly one such message: the decoder a receiver screens with.
    pub(crate) fn chain_of(payload: &[u8]) -> Option<ChainMessage> {
        Self::decode_exact(payload).ok().map(|msg| msg.chain)
    }

    /// Relay an accepted payload: decode its chain, sign it over to
    /// `assignee` (see [`ChainMessage::extend`]) and encode the longer
    /// chain under the same tag.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is not such a message (relay only what
    /// screening accepted) or `sk` is malformed.
    pub(crate) fn relay(
        payload: &[u8],
        scheme: &dyn SignatureScheme,
        sk: &SecretKey,
        assignee: NodeId,
    ) -> Payload {
        let chain = Self::chain_of(payload)
            .expect("accepted payload decodes")
            .extend(scheme, sk, assignee)
            .expect("own keyring is well-formed");
        Self { chain }.encode_to_vec().into()
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
        assert_eq!(
            msg.signer_sequence(NodeId(2)),
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
}
