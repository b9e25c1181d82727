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

use crate::keys::{KeyStore, VerifyCache};
use crate::outcome::DiscoveryReason;
use fd_crypto::{SecretKey, Signature, SignatureScheme};
use fd_simnet::codec::{decode_seq, CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::NodeId;

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
        let mut doc = {
            let mut w = Writer::new();
            self.origin.encode(&mut w);
            w.put_bytes(&self.body);
            w.put_bytes(&self.sig0.0);
            w.into_bytes()
        };
        for layer in &self.layers {
            let mut w = Writer::new();
            layer.inner_assignee.encode(&mut w);
            w.put_bytes(&doc);
            w.put_bytes(&layer.sig.0);
            doc = w.into_bytes();
        }
        doc
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
        let doc = self.document();
        let sig = scheme.sign(sk, &layer_bytes(assignee, &doc))?;
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
        let mut signers = vec![self.origin];
        for k in 0..self.layers.len() {
            let signer = if k + 1 < self.layers.len() {
                self.layers[k + 1].inner_assignee
            } else {
                immediate_sender
            };
            signers.push(signer);
        }
        signers
    }

    /// Verify the chain against a local [`KeyStore`] per the Theorem 4
    /// discipline, with `immediate_sender` the node the message physically
    /// arrived from (N2).
    ///
    /// On success returns the node the *complete* message is assigned to
    /// (the outermost signer = the immediate sender; the origin for a bare
    /// chain).
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
        // Innermost: the origin's own signature over (origin ‖ body).
        if store.accepted(self.origin).is_none() {
            return Err(DiscoveryReason::UnknownSigner);
        }
        if !store.assigns(
            scheme,
            self.origin,
            &origin_bytes(self.origin, &self.body),
            &self.sig0,
        ) {
            return Err(DiscoveryReason::BadSignature);
        }

        // Walk outwards, reconstructing the document and checking each
        // layer under the key of its (implied) signer.
        let mut doc = {
            let mut w = Writer::new();
            self.origin.encode(&mut w);
            w.put_bytes(&self.body);
            w.put_bytes(&self.sig0.0);
            w.into_bytes()
        };
        let mut prev_assignee = self.origin;
        for (k, layer) in self.layers.iter().enumerate() {
            // Theorem 4: the embedded name must match *our own* assignment
            // of the inner document.
            if layer.inner_assignee != prev_assignee {
                return Err(DiscoveryReason::NameMismatch);
            }
            let signer = if k + 1 < self.layers.len() {
                self.layers[k + 1].inner_assignee
            } else {
                immediate_sender
            };
            if store.accepted(signer).is_none() {
                return Err(DiscoveryReason::UnknownSigner);
            }
            if !store.assigns(
                scheme,
                signer,
                &layer_bytes(layer.inner_assignee, &doc),
                &layer.sig,
            ) {
                return Err(DiscoveryReason::BadSignature);
            }
            let mut w = Writer::new();
            layer.inner_assignee.encode(&mut w);
            w.put_bytes(&doc);
            w.put_bytes(&layer.sig.0);
            doc = w.into_bytes();
            prev_assignee = signer;
        }
        Ok(prev_assignee)
    }

    /// [`ChainMessage::verify`] through the store's per-run
    /// [`VerifyCache`], when one is attached (identical result either
    /// way).
    ///
    /// Two memoization layers compose here. The store's signature-level
    /// cache (inside [`KeyStore::assigns`]) already spares the public-key
    /// operations, but the Theorem 4 discipline still *reconstructs and
    /// hashes* every nested submessage at every hop — `O(L²)` bytes for an
    /// `L`-layer chain. The chain-level receipt short-circuits all of it
    /// for a repeated verification of the same bytes, at the price of one
    /// encode and one linear hash.
    ///
    /// Protocol receivers do not call this directly: they screen through
    /// `keys::screen`, whose cohort layer replays one verdict per
    /// shared broadcast buffer (chain FD's dissemination to `n − t − 1`
    /// nodes, every Dolev–Strong relay broadcast) without reaching this
    /// function at all. The receipt still serves identical bytes that
    /// arrive in distinct buffers, and the cohort-free reference runs.
    ///
    /// The receipt key covers the full chain encoding, the immediate
    /// sender, *and the store's accepted predicate for every implied
    /// signer* — so stores that disagree about a faulty node's key (the G3
    /// gap) hash to different receipts and keep their genuinely different
    /// verdicts.
    ///
    /// # Errors
    ///
    /// Exactly as [`ChainMessage::verify`].
    pub fn verify_cached(
        &self,
        scheme: &dyn SignatureScheme,
        store: &KeyStore,
        immediate_sender: NodeId,
    ) -> Result<NodeId, DiscoveryReason> {
        let Some(cache) = store.cache() else {
            return self.verify(scheme, store, immediate_sender);
        };
        let encoded = self.encode_to_vec();
        let scheme_name = scheme.name();
        let sender_bytes = immediate_sender.0.to_be_bytes();
        let mut parts: Vec<&[u8]> = vec![scheme_name.as_bytes(), &sender_bytes, &encoded];
        let signers = self.signer_sequence(immediate_sender);
        for signer in &signers {
            match store.accepted(*signer) {
                // A presence marker keeps "accepted an empty predicate"
                // distinct from "accepted nothing".
                Some(pk) => {
                    parts.push(b"+");
                    parts.push(pk.as_bytes());
                }
                None => parts.push(b"-"),
            }
        }
        let key = VerifyCache::chain_key(&parts);
        if let Some(receipt) = cache.chain_get(&key) {
            return receipt;
        }
        let receipt = self.verify(scheme, store, immediate_sender);
        cache.chain_put(key, receipt.clone());
        receipt
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
}
