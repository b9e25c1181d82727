//! Byzantine participants in the non-authenticated witness-relay protocol.
//!
//! Without signatures the adversary can *lie freely* about values — the
//! protocol survives only through witness redundancy, which is exactly why
//! it costs `O(n·t)` messages (the comparison the paper draws in §5).

use crate::fd::{NaMsg, NonAuthParams};
use fd_simnet::codec::{Decode, Encode};
use fd_simnet::{Envelope, Node, NodeId, Outbox};

/// What a faulty witness-relay participant does.
#[derive(Debug, Clone)]
pub enum NaMisbehavior {
    /// Crash: send nothing (as sender or witness).
    Silent,
    /// As the sender, tell low-numbered nodes one value and the rest
    /// another.
    EquivocateSender {
        /// Value for peers below `split`.
        value_a: Vec<u8>,
        /// Value for peers at or above `split`.
        value_b: Vec<u8>,
        /// Dividing node id.
        split: NodeId,
    },
    /// As a witness, relay a fixed lie to everyone.
    LieRelay {
        /// The lie.
        value: Vec<u8>,
    },
    /// As a witness, relay the true value to low-numbered nodes and a lie
    /// to the rest.
    TwoFacedRelay {
        /// The lie sent to peers at or above `split`.
        lie: Vec<u8>,
        /// Dividing node id.
        split: NodeId,
    },
}

/// A faulty participant of the witness-relay protocol.
pub struct NonAuthAdversary {
    me: NodeId,
    params: NonAuthParams,
    behavior: NaMisbehavior,
    /// `Some` when this adversary is the sender.
    value: Option<Vec<u8>>,
    /// What the sender (or network) delivered to us in round 1.
    received: Option<Vec<u8>>,
}

impl NonAuthAdversary {
    /// Create the faulty automaton for node `me`.
    pub fn new(
        me: NodeId,
        params: NonAuthParams,
        behavior: NaMisbehavior,
        value: Option<Vec<u8>>,
    ) -> Self {
        NonAuthAdversary {
            me,
            params,
            behavior,
            value,
            received: None,
        }
    }
}

impl Node for NonAuthAdversary {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        match round {
            0 if self.me == self.params.sender => match &self.behavior {
                NaMisbehavior::Silent => {}
                NaMisbehavior::EquivocateSender {
                    value_a,
                    value_b,
                    split,
                } => {
                    for peer in NodeId::all(self.params.n) {
                        if peer == self.me {
                            continue;
                        }
                        let v = if peer < *split { value_a } else { value_b };
                        out.send(peer, NaMsg::Direct { value: v.clone() }.encode_to_vec());
                    }
                }
                _ => {
                    let v = self.value.clone().unwrap_or_default();
                    out.broadcast(
                        self.params.n,
                        self.me,
                        NaMsg::Direct { value: v }.encode_to_vec(),
                    );
                }
            },
            1 => {
                for env in inbox {
                    if let Ok(NaMsg::Direct { value }) = NaMsg::decode_exact(&env.payload) {
                        self.received = Some(value);
                    }
                }
                if self.params.is_witness(self.me) {
                    match &self.behavior {
                        NaMisbehavior::Silent => {}
                        NaMisbehavior::LieRelay { value } => {
                            out.broadcast(
                                self.params.n,
                                self.me,
                                NaMsg::Relay {
                                    value: Some(value.clone()),
                                }
                                .encode_to_vec(),
                            );
                        }
                        NaMisbehavior::TwoFacedRelay { lie, split } => {
                            for peer in NodeId::all(self.params.n) {
                                if peer == self.me {
                                    continue;
                                }
                                let v = if peer < *split {
                                    self.received.clone()
                                } else {
                                    Some(lie.clone())
                                };
                                out.send(peer, NaMsg::Relay { value: v }.encode_to_vec());
                            }
                        }
                        NaMisbehavior::EquivocateSender { .. } => {
                            // Witness role with a sender-only behaviour:
                            // relay honestly.
                            out.broadcast(
                                self.params.n,
                                self.me,
                                NaMsg::Relay {
                                    value: self.received.clone(),
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

impl core::fmt::Debug for NonAuthAdversary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NonAuthAdversary")
            .field("me", &self.me)
            .field("behavior", &self.behavior)
            .finish()
    }
}
