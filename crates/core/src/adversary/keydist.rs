//! Byzantine participants in the key distribution protocol (paper §3).

use crate::localauth::{challenge_bytes, KdMsg};
use fd_crypto::{PublicKey, SecretKey, SignatureScheme};
use fd_simnet::codec::{Decode, Encode};
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::sync::Arc;

/// Respond honestly to challenges using `sk` (helper shared by the
/// adversaries — most attacks still require *holding* the announced key,
/// which is the whole point of the protocol).
fn respond_to_challenges(
    me: NodeId,
    scheme: &dyn SignatureScheme,
    sk_for: impl Fn(NodeId) -> Option<SecretKey>,
    inbox: &[Envelope],
    out: &mut Outbox,
) {
    for env in inbox {
        let Ok(KdMsg::Challenge {
            challenger,
            challenged,
            nonce,
        }) = KdMsg::decode_exact(&env.payload)
        else {
            continue;
        };
        if challenged != me || challenger != env.from {
            continue;
        }
        let Some(sk) = sk_for(env.from) else { continue };
        let bytes = challenge_bytes(challenger, challenged, nonce);
        if let Ok(sig) = scheme.sign(&sk, &bytes) {
            out.send(
                env.from,
                KdMsg::Response {
                    challenger,
                    challenged,
                    nonce,
                    sig: sig.0,
                }
                .encode_to_vec(),
            );
        }
    }
}

/// The G3 attack (paper §3.2): announce predicate A to low-numbered peers
/// and predicate B to the rest, answering each peer's challenge with the
/// matching secret key. Both halves accept — *different* — keys for this
/// node, so assignments of its later signatures diverge. Theorem 4
/// guarantees the divergence is discovered during chain verification, never
/// silent.
pub struct EquivocatingKeyDist {
    me: NodeId,
    n: usize,
    scheme: Arc<dyn SignatureScheme>,
    key_a: (SecretKey, PublicKey),
    key_b: (SecretKey, PublicKey),
    /// Peers with id < split get predicate A.
    split: NodeId,
}

impl EquivocatingKeyDist {
    /// Create with two fresh keypairs derived from `seed`.
    pub fn new(
        me: NodeId,
        n: usize,
        scheme: Arc<dyn SignatureScheme>,
        seed: u64,
        split: NodeId,
    ) -> Self {
        let key_a = scheme.keypair_from_seed(seed ^ 0xAAAA_0001);
        let key_b = scheme.keypair_from_seed(seed ^ 0xBBBB_0002);
        EquivocatingKeyDist {
            me,
            n,
            scheme,
            key_a,
            key_b,
            split,
        }
    }

    /// The secret key matching what `peer` was told.
    pub fn key_for(&self, peer: NodeId) -> &(SecretKey, PublicKey) {
        if peer < self.split {
            &self.key_a
        } else {
            &self.key_b
        }
    }

    /// Both announced public keys `(A, B)`.
    pub fn announced(&self) -> (&PublicKey, &PublicKey) {
        (&self.key_a.1, &self.key_b.1)
    }
}

impl Node for EquivocatingKeyDist {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        match round {
            0 => {
                for peer in NodeId::all(self.n) {
                    if peer == self.me {
                        continue;
                    }
                    let pk = &self.key_for(peer).1;
                    out.send(
                        peer,
                        KdMsg::Announce {
                            pk: pk.as_bytes().to_vec(),
                        }
                        .encode_to_vec(),
                    );
                }
            }
            2 => {
                let me = self.me;
                let key_a = self.key_a.0.clone();
                let key_b = self.key_b.0.clone();
                let split = self.split;
                respond_to_challenges(
                    me,
                    self.scheme.as_ref(),
                    |peer| {
                        Some(if peer < split {
                            key_a.clone()
                        } else {
                            key_b.clone()
                        })
                    },
                    inbox,
                    out,
                );
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

impl core::fmt::Debug for EquivocatingKeyDist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EquivocatingKeyDist")
            .field("me", &self.me)
            .field("split", &self.split)
            .finish()
    }
}

/// Two cooperating faulty nodes that share one secret key (paper §3.2's G1
/// caveat): signatures by either are assigned to whichever announced the
/// key — but *consistently* by all correct nodes.
pub struct SharedKeyKeyDist {
    me: NodeId,
    n: usize,
    scheme: Arc<dyn SignatureScheme>,
    shared_sk: SecretKey,
    shared_pk: PublicKey,
}

impl SharedKeyKeyDist {
    /// Create a member of the sharing clique; all members pass the same
    /// `shared_seed`.
    pub fn new(me: NodeId, n: usize, scheme: Arc<dyn SignatureScheme>, shared_seed: u64) -> Self {
        let (shared_sk, shared_pk) = scheme.keypair_from_seed(shared_seed ^ 0x5AAE_D001);
        SharedKeyKeyDist {
            me,
            n,
            scheme,
            shared_sk,
            shared_pk,
        }
    }

    /// The shared key material (for the follow-up FD-phase adversary).
    pub fn shared(&self) -> (SecretKey, PublicKey) {
        (self.shared_sk.clone(), self.shared_pk.clone())
    }
}

impl Node for SharedKeyKeyDist {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        match round {
            0 => {
                let msg = KdMsg::Announce {
                    pk: self.shared_pk.as_bytes().to_vec(),
                }
                .encode_to_vec();
                out.broadcast(self.n, self.me, msg);
            }
            2 => {
                let sk = self.shared_sk.clone();
                respond_to_challenges(
                    self.me,
                    self.scheme.as_ref(),
                    |_| Some(sk.clone()),
                    inbox,
                    out,
                );
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

impl core::fmt::Debug for SharedKeyKeyDist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SharedKeyKeyDist")
            .field("me", &self.me)
            .finish()
    }
}

/// Announces a *correct* node's public key without holding the secret key.
/// The challenge–response step makes this hopeless: the thief cannot sign,
/// so no correct node ever accepts the stolen predicate for the thief —
/// the guarantee at the heart of the distribution protocol ("no faulty node
/// can claim a public key of a correct node for itself").
pub struct KeyThiefKeyDist {
    me: NodeId,
    n: usize,
    victim_pk: PublicKey,
}

impl KeyThiefKeyDist {
    /// Create a thief claiming `victim_pk`.
    pub fn new(me: NodeId, n: usize, victim_pk: PublicKey) -> Self {
        KeyThiefKeyDist { me, n, victim_pk }
    }
}

impl Node for KeyThiefKeyDist {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        match round {
            0 => {
                let msg = KdMsg::Announce {
                    pk: self.victim_pk.as_bytes().to_vec(),
                }
                .encode_to_vec();
                out.broadcast(self.n, self.me, msg);
            }
            2 => {
                // Best effort: answer with garbage signatures.
                for env in inbox {
                    if let Ok(KdMsg::Challenge {
                        challenger,
                        challenged,
                        nonce,
                    }) = KdMsg::decode_exact(&env.payload)
                    {
                        out.send(
                            env.from,
                            KdMsg::Response {
                                challenger,
                                challenged,
                                nonce,
                                sig: vec![0xab; 12],
                            }
                            .encode_to_vec(),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

impl core::fmt::Debug for KeyThiefKeyDist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("KeyThiefKeyDist")
            .field("me", &self.me)
            .finish()
    }
}

/// Holds its own key but signs challenge responses with the names swapped —
/// violating the Fig. 1 signing rule. No correct node accepts it.
pub struct WrongNameKeyDist {
    me: NodeId,
    n: usize,
    scheme: Arc<dyn SignatureScheme>,
    sk: SecretKey,
    pk: PublicKey,
}

impl WrongNameKeyDist {
    /// Create with a fresh keypair from `seed`.
    pub fn new(me: NodeId, n: usize, scheme: Arc<dyn SignatureScheme>, seed: u64) -> Self {
        let (sk, pk) = scheme.keypair_from_seed(seed ^ 0x3030_0003);
        WrongNameKeyDist {
            me,
            n,
            scheme,
            sk,
            pk,
        }
    }
}

impl Node for WrongNameKeyDist {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        match round {
            0 => {
                let msg = KdMsg::Announce {
                    pk: self.pk.as_bytes().to_vec(),
                }
                .encode_to_vec();
                out.broadcast(self.n, self.me, msg);
            }
            2 => {
                for env in inbox {
                    if let Ok(KdMsg::Challenge {
                        challenger,
                        challenged,
                        nonce,
                    }) = KdMsg::decode_exact(&env.payload)
                    {
                        // Swap the names in the signed bytes.
                        let bytes = challenge_bytes(challenged, challenger, nonce);
                        if let Ok(sig) = self.scheme.sign(&self.sk, &bytes) {
                            out.send(
                                env.from,
                                KdMsg::Response {
                                    challenger,
                                    challenged,
                                    nonce,
                                    sig: sig.0,
                                }
                                .encode_to_vec(),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

impl core::fmt::Debug for WrongNameKeyDist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WrongNameKeyDist")
            .field("me", &self.me)
            .finish()
    }
}
