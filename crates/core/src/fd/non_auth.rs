//! The non-authenticated failure-discovery baseline: witness relay.
//!
//! The paper cites Hadzilacos–Halpern for the bound that non-authenticated
//! FD under arbitrary failures needs `O(n·t)` messages. Their concrete
//! protocol is not listed in this paper, so the reproduction uses the
//! following witness-relay protocol with `(t + 2)(n − 1) = O(n·t)` messages
//! (substitution documented in DESIGN.md §2):
//!
//! ```text
//! round 0:  P_0 → all:            v                 (n − 1 messages)
//! round 1:  P_w → all, w = 1..=t+1: relay(v_w)      ((t+1)(n − 1) messages)
//! round 2:  every node decides its direct value iff it received exactly
//!           one direct value and every witness relayed that same value;
//!           any deviation ⇒ discover failure.
//! ```
//!
//! **Why F1–F3 hold** (sketch): F1 — every node terminates at round 2.
//! F2 — among the `t + 1` witnesses at least one, `W`, is correct; `W`
//! relays one value `w` to *all* nodes; a correct node only decides a value
//! equal to every relay it received, hence equal to `w`; so all correct
//! deciders agree. F3 — a correct sender gives every node and witness the
//! same `v`, so `w = v`. No signatures anywhere — this is the baseline the
//! paper's `O(n)` authenticated protocol beats.

use crate::outcome::{DiscoveryReason, Outcome};
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox};

/// Wire messages of the witness-relay protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NaMsg {
    /// Round 0: the sender's value.
    Direct {
        /// The proposed value.
        value: Vec<u8>,
    },
    /// Round 1: a witness's relay of what it received.
    Relay {
        /// `Some(v)` if the witness received exactly one direct value;
        /// `None` if it received none (a failure it reports by relaying
        /// the gap rather than staying silent).
        value: Option<Vec<u8>>,
    },
}

const TAG_DIRECT: u8 = 0x20;
const TAG_RELAY_SOME: u8 = 0x21;
const TAG_RELAY_NONE: u8 = 0x22;

impl Encode for NaMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            NaMsg::Direct { value } => {
                w.put_u8(TAG_DIRECT);
                w.put_bytes(value);
            }
            NaMsg::Relay { value: Some(v) } => {
                w.put_u8(TAG_RELAY_SOME);
                w.put_bytes(v);
            }
            NaMsg::Relay { value: None } => w.put_u8(TAG_RELAY_NONE),
        }
    }
}

impl Decode for NaMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_DIRECT => Ok(NaMsg::Direct {
                value: r.get_bytes()?.to_vec(),
            }),
            TAG_RELAY_SOME => Ok(NaMsg::Relay {
                value: Some(r.get_bytes()?.to_vec()),
            }),
            TAG_RELAY_NONE => Ok(NaMsg::Relay { value: None }),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Static parameters of a witness-relay run.
#[derive(Debug, Clone)]
pub struct NonAuthParams {
    /// System size.
    pub n: usize,
    /// Tolerated faults; witnesses are `P_1 … P_{t+1}`.
    pub t: usize,
    /// Designated sender.
    pub sender: NodeId,
}

impl NonAuthParams {
    /// Standard parameters with `P_0` as sender.
    ///
    /// # Panics
    ///
    /// Panics unless `t + 2 <= n` (sender plus `t + 1` witnesses must fit).
    pub fn new(n: usize, t: usize) -> Self {
        assert!(t + 2 <= n, "need sender plus t+1 witnesses inside n nodes");
        NonAuthParams {
            n,
            t,
            sender: NodeId(0),
        }
    }

    /// Automaton rounds: sends in rounds 0–1, decision in round 2.
    pub fn rounds(&self) -> u32 {
        3
    }

    /// Is `node` one of the `t + 1` witnesses?
    pub fn is_witness(&self, node: NodeId) -> bool {
        let i = node.index();
        i >= 1 && i <= self.t + 1
    }
}

/// Honest participant in the witness-relay protocol.
pub struct NonAuthFdNode {
    me: NodeId,
    params: NonAuthParams,
    /// `Some(v)` on the sender.
    value: Option<Vec<u8>>,
    /// Direct values received in round 1 (should be exactly one).
    direct: Vec<Vec<u8>>,
    /// Relays received per witness index.
    relays: Vec<Option<NaMsg>>,
    malformed_seen: bool,
    outcome: Outcome,
    done: bool,
}

impl NonAuthFdNode {
    /// Create the automaton for node `me`; `value` is `Some` exactly on the
    /// sender.
    ///
    /// # Panics
    ///
    /// Panics if value presence contradicts the sender role.
    pub fn new(me: NodeId, params: NonAuthParams, value: Option<Vec<u8>>) -> Self {
        assert_eq!(
            me == params.sender,
            value.is_some(),
            "exactly the sender carries the initial value"
        );
        let n = params.n;
        NonAuthFdNode {
            me,
            params,
            value,
            direct: Vec::new(),
            relays: vec![None; n],
            malformed_seen: false,
            outcome: Outcome::Pending,
            done: false,
        }
    }

    /// The node's outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    fn my_direct_value(&self) -> Option<Vec<u8>> {
        if self.me == self.params.sender {
            return self.value.clone();
        }
        (self.direct.len() == 1).then(|| self.direct[0].clone())
    }

    fn decide(&mut self, round: u32) {
        if self.malformed_seen {
            self.outcome = Outcome::Discovered(DiscoveryReason::Malformed);
        } else if let Some(v) = self.my_direct_value() {
            let mut ok = true;
            for w in 1..=self.params.t + 1 {
                match &self.relays[w] {
                    Some(NaMsg::Relay { value: Some(rv) }) if *rv == v => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                self.outcome = Outcome::Decided(v);
            } else {
                self.outcome = Outcome::Discovered(DiscoveryReason::Equivocation);
            }
        } else if self.direct.len() > 1 {
            self.outcome = Outcome::Discovered(DiscoveryReason::UnexpectedMessage { round });
        } else {
            self.outcome = Outcome::Discovered(DiscoveryReason::MissingMessage { round });
        }
        self.done = true;
    }
}

impl Node for NonAuthFdNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.done {
            if !inbox.is_empty() && !self.outcome.is_discovered() {
                self.outcome = Outcome::Discovered(DiscoveryReason::UnexpectedMessage { round });
            }
            return;
        }
        match round {
            0 => {
                if self.me == self.params.sender {
                    let v = self.value.clone().expect("sender value");
                    out.broadcast(
                        self.params.n,
                        self.me,
                        NaMsg::Direct { value: v }.encode_to_vec(),
                    );
                }
            }
            1 => {
                // Collect direct values; witnesses relay.
                for env in inbox {
                    match NaMsg::decode_exact(&env.payload) {
                        Ok(NaMsg::Direct { value }) if env.from == self.params.sender => {
                            self.direct.push(value)
                        }
                        _ => self.malformed_seen = true,
                    }
                }
                if self.params.is_witness(self.me) {
                    let relay = NaMsg::Relay {
                        value: self.my_direct_value(),
                    };
                    out.broadcast(self.params.n, self.me, relay.encode_to_vec());
                    // A witness also "relays to itself".
                    self.relays[self.me.index()] = Some(relay);
                }
            }
            2 => {
                for env in inbox {
                    if !self.params.is_witness(env.from) {
                        self.malformed_seen = true;
                        continue;
                    }
                    match NaMsg::decode_exact(&env.payload) {
                        Ok(msg @ NaMsg::Relay { .. }) => {
                            let slot = &mut self.relays[env.from.index()];
                            if slot.is_some() {
                                self.malformed_seen = true; // duplicate relay
                            } else {
                                *slot = Some(msg);
                            }
                        }
                        _ => self.malformed_seen = true,
                    }
                }
                self.decide(round);
            }
            _ => {
                if !inbox.is_empty() {
                    self.outcome =
                        Outcome::Discovered(DiscoveryReason::UnexpectedMessage { round });
                    self.done = true;
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for NonAuthFdNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NonAuthFdNode")
            .field("me", &self.me)
            .field("outcome", &self.outcome)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_simnet::SyncNetwork;
    use std::any::Any;

    fn build(n: usize, t: usize, value: &[u8]) -> Vec<Box<dyn Node>> {
        (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                Box::new(NonAuthFdNode::new(
                    me,
                    NonAuthParams::new(n, t),
                    (i == 0).then(|| value.to_vec()),
                )) as Box<dyn Node>
            })
            .collect()
    }

    fn outcomes(net: SyncNetwork) -> Vec<Outcome> {
        net.into_nodes()
            .into_iter()
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<NonAuthFdNode>()
                    .expect("NonAuthFdNode")
                    .outcome
            })
            .collect()
    }

    #[test]
    fn failure_free_costs_t_plus_2_times_n_minus_1() {
        for (n, t) in [(4usize, 1usize), (7, 2), (10, 3), (5, 0)] {
            let mut net = SyncNetwork::new(build(n, t, b"v"));
            net.run_until_done(NonAuthParams::new(n, t).rounds());
            assert_eq!(net.stats().messages_total, (t + 2) * (n - 1), "n={n} t={t}");
            for o in outcomes(net) {
                assert_eq!(o, Outcome::Decided(b"v".to_vec()));
            }
        }
    }

    #[test]
    fn two_communication_rounds() {
        let mut net = SyncNetwork::new(build(6, 2, b"v"));
        net.run_until_done(3);
        assert_eq!(net.stats().per_round.iter().filter(|&&c| c > 0).count(), 2);
    }

    #[test]
    fn dropped_direct_value_discovered() {
        let (n, t) = (5usize, 1usize);
        let mut net = SyncNetwork::new(build(n, t, b"v"));
        // Sender's message to P3 is lost: P3 must discover, others decide.
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(3),
            fd_simnet::fault::LinkFault::Drop,
        ));
        net.run_until_done(3);
        let outs = outcomes(net);
        assert!(outs[3].is_discovered());
        assert_eq!(outs[1], Outcome::Decided(b"v".to_vec()));
    }

    #[test]
    fn dropped_relay_discovered() {
        let (n, t) = (5usize, 1usize);
        let mut net = SyncNetwork::new(build(n, t, b"v"));
        // Witness P1's relay to P4 lost: P4 discovers.
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            1,
            NodeId(1),
            NodeId(4),
            fd_simnet::fault::LinkFault::Drop,
        ));
        net.run_until_done(3);
        let outs = outcomes(net);
        assert!(outs[4].is_discovered());
    }

    #[test]
    fn corrupted_relay_discovered() {
        let (n, t) = (5usize, 2usize);
        let mut net = SyncNetwork::new(build(n, t, b"vv"));
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            1,
            NodeId(2),
            NodeId(4),
            fd_simnet::fault::LinkFault::Corrupt {
                offset: 5,
                mask: 0x80,
            },
        ));
        net.run_until_done(3);
        let outs = outcomes(net);
        assert!(outs[4].is_discovered());
    }

    #[test]
    fn codec_round_trips() {
        for msg in [
            NaMsg::Direct { value: vec![1, 2] },
            NaMsg::Relay {
                value: Some(vec![3]),
            },
            NaMsg::Relay { value: None },
        ] {
            assert_eq!(NaMsg::decode_exact(&msg.encode_to_vec()).unwrap(), msg);
        }
        assert!(NaMsg::decode_exact(&[0x99]).is_err());
    }

    #[test]
    #[should_panic(expected = "witnesses inside n")]
    fn too_many_witnesses_rejected() {
        let _ = NonAuthParams::new(3, 2);
    }
}
