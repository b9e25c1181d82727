//! Byzantine participants in the chain FD protocol (paper Fig. 2).

use crate::chain::ChainMessage;
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
        match &self.behavior {
            ChainMisbehavior::Silent => {}
            ChainMisbehavior::EquivocateSenderT0 {
                value_a,
                value_b,
                split,
            } => {
                let mk = |v: &Vec<u8>| {
                    ChainMessage::originate(
                        self.scheme.as_ref(),
                        &self.keyring.sk,
                        self.me,
                        v.clone(),
                    )
                    .expect("keyring well-formed")
                };
                let (a, b) = (mk(value_a), mk(value_b));
                for j in 1..self.params.n {
                    let peer = NodeId(j as u16);
                    let chain = if peer < *split { a.clone() } else { b.clone() };
                    out.send(peer, FdMsg { chain }.encode_to_vec());
                }
            }
            _ => {
                // Other behaviours degenerate to honest origination when
                // placed at the sender.
                let v = self.value.clone().unwrap_or_else(|| b"?".to_vec());
                let chain =
                    ChainMessage::originate(self.scheme.as_ref(), &self.keyring.sk, self.me, v)
                        .expect("keyring well-formed");
                let payload = FdMsg { chain }.encode_to_vec();
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
        let Ok(msg) = FdMsg::decode_exact(&env.payload) else {
            return;
        };
        let received = msg.chain;
        let honest_assignee = env.from;

        let extended = match &self.behavior {
            ChainMisbehavior::Silent => return,
            ChainMisbehavior::TamperBody { new_body } => {
                let mut tampered = received;
                tampered.body = new_body.clone();
                tampered
                    .extend(self.scheme.as_ref(), &self.keyring.sk, honest_assignee)
                    .expect("keyring well-formed")
            }
            ChainMisbehavior::WrongAssigneeName { claim } => received
                .extend(self.scheme.as_ref(), &self.keyring.sk, *claim)
                .expect("keyring well-formed"),
            ChainMisbehavior::ForgeOrigin { value } => {
                let forged = ChainMessage::originate(
                    self.scheme.as_ref(),
                    &self.keyring.sk,
                    self.params.sender,
                    value.clone(),
                )
                .expect("keyring well-formed");
                // Re-build the expected number of layers by self-signing.
                let mut chain = forged;
                for k in 1..=self.me.index() - 1 {
                    chain = chain
                        .extend(self.scheme.as_ref(), &self.keyring.sk, NodeId(k as u16 - 1))
                        .expect("keyring well-formed");
                }
                chain
                    .extend(self.scheme.as_ref(), &self.keyring.sk, honest_assignee)
                    .expect("keyring well-formed")
            }
            ChainMisbehavior::SignWithKey { sk } => received
                .extend(self.scheme.as_ref(), sk, honest_assignee)
                .expect("substitute key well-formed"),
            ChainMisbehavior::PartialDissemination { skip } => {
                let extended = received
                    .extend(self.scheme.as_ref(), &self.keyring.sk, honest_assignee)
                    .expect("keyring well-formed");
                let payload = FdMsg { chain: extended }.encode_to_vec();
                for target in self.forward_targets() {
                    if !skip.contains(&target) {
                        out.send(target, payload.clone());
                    }
                }
                return;
            }
            ChainMisbehavior::EquivocateSenderT0 { .. } => {
                // Only meaningful at the sender; act honestly here.
                received
                    .extend(self.scheme.as_ref(), &self.keyring.sk, honest_assignee)
                    .expect("keyring well-formed")
            }
            ChainMisbehavior::TwoFaced { alt_body } => {
                let honest = received
                    .clone()
                    .extend(self.scheme.as_ref(), &self.keyring.sk, honest_assignee)
                    .expect("keyring well-formed");
                let payload = FdMsg { chain: honest }.encode_to_vec();
                let mut tampered = received;
                tampered.body = alt_body.clone();
                let tampered = tampered
                    .extend(self.scheme.as_ref(), &self.keyring.sk, honest_assignee)
                    .expect("keyring well-formed");
                let competing = FdMsg { chain: tampered }.encode_to_vec();
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
        let payload = FdMsg { chain: extended }.encode_to_vec();
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
