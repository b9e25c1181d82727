//! Byzantine participants in the chain FD protocol (paper Fig. 2).

use crate::chain::{self, ChainMessage};
use crate::fd::{ChainFdParams, FdMsg};
use crate::keys::Keyring;
use fd_crypto::{SecretKey, SignatureScheme};
use fd_simnet::codec::{Decode, Encode};
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::sync::Arc;

/// What a faulty chain participant does with the chain passing through it.
#[derive(Debug, Clone)]
pub enum ChainMisbehavior {
    /// Drop the chain (crash at this hop).
    Silent,
    /// Replace the body before extending — breaks the origin signature.
    TamperBody {
        /// Replacement value.
        new_body: Vec<u8>,
    },
    /// Extend with a wrong embedded assignee name (Theorem 4 trigger).
    WrongAssigneeName {
        /// The (incorrect) name to embed.
        claim: NodeId,
    },
    /// Discard the received chain and fabricate a fresh one, self-signing a
    /// body while claiming the designated sender as origin.
    ForgeOrigin {
        /// The forged value.
        value: Vec<u8>,
    },
    /// As `P_t`, disseminate only to some recipients (the canonical split
    /// attempt against naive protocols; chain FD turns it into discovery at
    /// the starved nodes).
    PartialDissemination {
        /// Recipients to starve.
        skip: Vec<NodeId>,
    },
    /// As the *sender* with `t = 0`, originate two different values and
    /// send one to low-numbered and one to high-numbered recipients.
    EquivocateSenderT0 {
        /// Value for peers below `split`.
        value_a: Vec<u8>,
        /// Value for peers at or above `split`.
        value_b: Vec<u8>,
        /// The dividing node id.
        split: NodeId,
    },
    /// Extend the chain signing with a *different* secret key (e.g. one
    /// whose predicate was equivocated during key distribution, or a key
    /// shared by another faulty node).
    SignWithKey {
        /// The substitute secret key.
        sk: SecretKey,
    },
    /// The two-faced relay: extend the received chain *honestly* to the
    /// designated next hop(s), but simultaneously inject a competing
    /// body-tampered chain to every other node. One story continues down
    /// the chain, another is whispered to the room — Theorem 4 turns the
    /// competing copies into discoveries (unexpected message or broken
    /// origin signature), never silent disagreement.
    TwoFaced {
        /// The competing body planted in the off-chain copies.
        alt_body: Vec<u8>,
    },
}

/// A faulty chain FD participant executing one [`ChainMisbehavior`].
///
/// It follows the honest timing (acts in its designated round) but deviates
/// in content, which is the interesting adversary class — timing deviations
/// are already covered by [`super::SilentNode`] and the `UnexpectedMessage`
/// checks.
pub struct ChainFdAdversary {
    me: NodeId,
    params: ChainFdParams,
    scheme: Arc<dyn SignatureScheme>,
    keyring: Keyring,
    behavior: ChainMisbehavior,
    /// `Some` when this adversary is the sender.
    value: Option<Vec<u8>>,
}

impl ChainFdAdversary {
    /// Create the faulty automaton for node `me`.
    pub fn new(
        me: NodeId,
        params: ChainFdParams,
        scheme: Arc<dyn SignatureScheme>,
        keyring: Keyring,
        behavior: ChainMisbehavior,
        value: Option<Vec<u8>>,
    ) -> Self {
        ChainFdAdversary {
            me,
            params,
            scheme,
            keyring,
            behavior,
            value,
        }
    }

    fn forward_targets(&self) -> Vec<NodeId> {
        let i = self.me.index();
        if i < self.params.t {
            vec![NodeId(i as u16 + 1)]
        } else {
            ((self.params.t + 1)..self.params.n)
                .map(|j| NodeId(j as u16))
                .collect()
        }
    }

    fn act_as_sender(&mut self, out: &mut Outbox) {
        // A payload of its own for every send, as separate sends would be.
        let originate =
            |v: &[u8]| FdMsg::originate(self.scheme.as_ref(), &self.keyring, v.to_vec()).to_vec();
        match &self.behavior {
            ChainMisbehavior::Silent => {}
            ChainMisbehavior::EquivocateSenderT0 {
                value_a,
                value_b,
                split,
            } => {
                let (a, b) = (originate(value_a), originate(value_b));
                for j in 1..self.params.n {
                    let peer = NodeId(j as u16);
                    out.send(peer, if peer < *split { a.clone() } else { b.clone() });
                }
            }
            _ => {
                // Other behaviours degenerate to honest origination when
                // placed at the sender.
                let payload = originate(self.value.as_deref().unwrap_or(b"?"));
                if self.params.t == 0 {
                    for j in 1..self.params.n {
                        out.send(NodeId(j as u16), payload.clone());
                    }
                } else {
                    out.send(NodeId(1), payload);
                }
            }
        }
    }

    fn act_as_relay(&mut self, env: &Envelope, out: &mut Outbox) {
        if FdMsg::chain_of(&env.payload).is_none() {
            return;
        }
        let (scheme, own) = (self.scheme.as_ref(), &self.keyring.sk);
        let honest_assignee = env.from;
        // `payload`'s chain extended by a layer naming `assignee`, signed
        // with `sk` (the chain starts after the tag byte).
        let extend = |payload: &[u8], sk: &SecretKey, assignee| {
            chain::relay(payload, 1, scheme, sk, assignee).expect("key well-formed")
        };
        let relay = |sk: &SecretKey, assignee| extend(&env.payload, sk, assignee);
        // The received chain over another body, extended honestly.
        let tampered = |body: &[u8]| {
            let mut chain = FdMsg::decode_exact(&env.payload).expect("parsed").chain;
            chain.body = body.to_vec();
            extend(&FdMsg { chain }.encode_to_vec(), own, honest_assignee)
        };

        let payload = match &self.behavior {
            ChainMisbehavior::Silent => return,
            ChainMisbehavior::TamperBody { new_body } => tampered(new_body),
            ChainMisbehavior::WrongAssigneeName { claim } => relay(own, *claim),
            ChainMisbehavior::ForgeOrigin { value } => {
                let forged =
                    ChainMessage::originate(scheme, own, self.params.sender, value.clone())
                        .expect("keyring well-formed");
                // Re-build the expected number of layers by self-signing.
                let names = (0..self.me.index() as u16 - 1).map(NodeId);
                let forged = FdMsg { chain: forged }.encode_to_vec();
                let names = names.chain([honest_assignee]);
                names.fold(forged, |chain, name| extend(&chain, own, name))
            }
            ChainMisbehavior::SignWithKey { sk } => relay(sk, honest_assignee),
            ChainMisbehavior::PartialDissemination { skip } => {
                let payload = relay(own, honest_assignee);
                for target in self.forward_targets() {
                    if !skip.contains(&target) {
                        out.send(target, payload.clone());
                    }
                }
                return;
            }
            // Only meaningful at the sender; act honestly here.
            ChainMisbehavior::EquivocateSenderT0 { .. } => relay(own, honest_assignee),
            ChainMisbehavior::TwoFaced { alt_body } => {
                let payload = relay(own, honest_assignee);
                let competing = tampered(alt_body);
                let designated = self.forward_targets();
                if designated.len() > 1 {
                    // As P_t, equivocate within the dissemination set:
                    // the true chain to the first half, the competing
                    // body to the rest.
                    let mid = designated.len() / 2;
                    for target in &designated[..mid] {
                        out.send(*target, payload.clone());
                    }
                    for target in &designated[mid..] {
                        out.send(*target, competing.clone());
                    }
                } else {
                    // As an inner relay, play along on the chain and
                    // whisper the competing chain to every off-chain node.
                    for target in &designated {
                        out.send(*target, payload.clone());
                    }
                    for j in 0..self.params.n {
                        let peer = NodeId(j as u16);
                        if peer != self.me
                            && peer != self.params.sender
                            && !designated.contains(&peer)
                        {
                            out.send(peer, competing.clone());
                        }
                    }
                }
                return;
            }
        };
        for target in self.forward_targets() {
            out.send(target, payload.clone());
        }
    }
}

impl Node for ChainFdAdversary {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.me == self.params.sender {
            if round == 0 {
                self.act_as_sender(out);
            }
            return;
        }
        // A relay acts in its chain round.
        let my_round = self.me.index() as u32;
        if round == my_round && self.me.index() <= self.params.t {
            if let Some(env) = inbox.first() {
                let env = env.clone();
                self.act_as_relay(&env, out);
            }
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

impl core::fmt::Debug for ChainFdAdversary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ChainFdAdversary")
            .field("me", &self.me)
            .field("behavior", &self.behavior)
            .finish()
    }
}
