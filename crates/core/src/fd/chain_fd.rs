//! The authenticated chain failure-discovery protocol (paper Fig. 2).
//!
//! ```text
//! P_0:            send {v}_{S_0} to P_1
//! P_i (1≤i<t):    receive the chain from P_{i-1}; check all signatures and
//!                 submessages; on failure discover and stop; else accept v
//!                 and send {P_{i-1}, chain}_{S_i} to P_{i+1}
//! P_t:            same check; then disseminate {P_{t-1}, chain}_{S_t} to
//!                 P_{t+1} … P_{n-1}
//! P_j (j>t):      check; accept v or discover
//! ```
//!
//! `n − 1` messages, `t + 1` communication rounds — the minimum for the
//! problem (cf. Baum-Waidner, cited by the paper). With `t = 0` the sender
//! disseminates directly.
//!
//! Every node knows exactly what a failure-free run looks like from its own
//! viewpoint (which message, with which chain structure, in which round),
//! so *any* deviation — missing message, extra message, malformed payload,
//! bad signature, wrong embedded name — is discovered (property F1's second
//! disjunct). Signature checking follows the Theorem 4 discipline in
//! [`crate::chain`], which is what makes the protocol sound under **local**
//! authentication.

use crate::chain::ChainMsg;
use crate::keys::{screen, Expect, KeyStore, Keyring, VerifyCache};
use crate::outcome::{DiscoveryReason, Outcome};
use fd_crypto::SignatureScheme;
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::sync::Arc;

/// Wire message of the chain FD protocol: a chain-signed value.
pub type FdMsg = ChainMsg<0x10>;

/// Static parameters of a chain FD run.
#[derive(Debug, Clone)]
pub struct ChainFdParams {
    /// System size.
    pub n: usize,
    /// Tolerated faults; the chain passes through `P_1 … P_t`.
    pub t: usize,
    /// Designated sender (`P_0` in the paper; configurable here).
    pub sender: NodeId,
}

impl ChainFdParams {
    /// Standard parameters with `P_0` as sender.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 2` and `t <= n - 2` (the chain plus at least one
    /// disseminated node must fit).
    pub fn new(n: usize, t: usize) -> Self {
        assert!(n >= 2, "need at least a sender and a receiver");
        assert!(t + 2 <= n, "chain P_0..P_t plus a recipient must fit in n");
        ChainFdParams {
            n,
            t,
            sender: NodeId(0),
        }
    }

    /// Automaton rounds needed: sends happen in rounds `0..=t`, the last
    /// delivery is processed in round `t + 1`.
    pub fn rounds(&self) -> u32 {
        self.t as u32 + 2
    }

    /// Chain position of a node: `Some(i)` if the node is `P_i` with
    /// `1 <= i <= t`, i.e. a chain relay.
    fn chain_position(&self, me: NodeId) -> Option<usize> {
        let i = me.index();
        (i >= 1 && i <= self.t).then_some(i)
    }
}

/// Honest participant in the chain FD protocol.
pub struct ChainFdNode {
    me: NodeId,
    params: ChainFdParams,
    scheme: Arc<dyn SignatureScheme>,
    store: KeyStore,
    keyring: Keyring,
    /// `Some(v)` on the sender.
    value: Option<Vec<u8>>,
    outcome: Outcome,
    done: bool,
}

impl ChainFdNode {
    /// Create the automaton for node `me`. `value` must be `Some` exactly
    /// on the sender.
    ///
    /// # Panics
    ///
    /// Panics if the value presence contradicts the sender role.
    pub fn new(
        me: NodeId,
        params: ChainFdParams,
        scheme: Arc<dyn SignatureScheme>,
        store: KeyStore,
        keyring: Keyring,
        value: Option<Vec<u8>>,
    ) -> Self {
        assert_eq!(
            me == params.sender,
            value.is_some(),
            "exactly the sender carries the initial value"
        );
        ChainFdNode {
            me,
            params,
            scheme,
            store,
            keyring,
            value,
            outcome: Outcome::Pending,
            done: false,
        }
    }

    /// The node's outcome (terminal once the run finished).
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    fn discover(&mut self, reason: DiscoveryReason) {
        self.outcome = Outcome::Discovered(reason);
        self.done = true;
    }

    /// Which round this node expects its (single) incoming message in.
    fn expected_round(&self) -> Option<u32> {
        if self.me == self.params.sender {
            return None;
        }
        match self.params.chain_position(self.me) {
            Some(i) => Some(i as u32),
            // Disseminated nodes hear from P_t in round t + 1 (or from the
            // sender in round 1 when t = 0).
            None => Some(self.params.t as u32 + 1),
        }
    }

    /// Expected immediate sender of the incoming message.
    fn expected_from(&self) -> NodeId {
        match self.params.chain_position(self.me) {
            Some(i) => NodeId(i as u16 - 1),
            None => NodeId(self.params.t as u16),
        }
    }

    /// Screen the one expected chain of round `round`: it must decode,
    /// start at the sender, carry `round` signatures (a relay at position
    /// `i` hears `i` in round `i`, a disseminated node `t + 1` in round
    /// `t + 1`) whose signers are exactly `P_0, P_1, …` in order, and
    /// verify. Disseminated nodes share one payload buffer from `P_t`, so
    /// all but the first replay its cohort verdict.
    fn handle_chain(&mut self, round: u32, env: &Envelope, out: &mut Outbox) {
        let expect = Expect {
            decode: FdMsg::chain_of,
            origin: Some(self.params.sender),
            count: round as usize..=round as usize,
        };
        let read = {
            let mut cohorts = self.store.cache().and_then(VerifyCache::cohorts);
            screen(
                cohorts.as_mut(),
                self.scheme.as_ref(),
                &self.store,
                env,
                round,
                expect,
                |v| {
                    v.read(|signers, _| signers.iter().enumerate().all(|(i, s)| s.index() == i))
                        .map(|body| body.to_vec())
                },
            )
        };
        let v = match read {
            Ok(v) => v,
            Err(reason) => return self.discover(reason),
        };
        if let Some(i) = self.params.chain_position(self.me) {
            // Relay: sign (previous assignee ‖ chain) and forward.
            let payload = FdMsg::relay(env, self.scheme.as_ref(), &self.keyring.sk);
            if i < self.params.t {
                out.send(NodeId(i as u16 + 1), payload);
            } else {
                // P_t disseminates to P_{t+1} … P_{n-1}, sharing one
                // payload buffer across all recipients.
                for j in (self.params.t + 1)..self.params.n {
                    out.send(NodeId(j as u16), payload.clone());
                }
            }
        }
        self.outcome = Outcome::Decided(v);
        self.done = true;
    }
}

impl Node for ChainFdNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.done {
            // A terminated node still notices protocol-violating traffic.
            if !inbox.is_empty() && !self.outcome.is_discovered() {
                self.discover(DiscoveryReason::UnexpectedMessage { round });
            }
            return;
        }
        // Sender initiates in round 0.
        if round == 0 && self.me == self.params.sender {
            let v = self.value.clone().expect("sender carries the value");
            let payload = FdMsg::originate(self.scheme.as_ref(), &self.keyring, v.clone());
            if self.params.t == 0 {
                for j in 1..self.params.n {
                    out.send(NodeId(j as u16), payload.clone());
                }
            } else {
                out.send(NodeId(1), payload);
            }
            self.outcome = Outcome::Decided(v);
            self.done = true;
            return;
        }

        let expected = self.expected_round().expect("non-senders expect a message");
        if round == expected {
            // Exactly one message from the expected predecessor.
            match inbox {
                [] => self.discover(DiscoveryReason::MissingMessage { round }),
                [env] if env.from == self.expected_from() => self.handle_chain(round, env, out),
                _ => self.discover(DiscoveryReason::UnexpectedMessage { round }),
            }
        } else if !inbox.is_empty() {
            self.discover(DiscoveryReason::UnexpectedMessage { round });
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for ChainFdNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ChainFdNode")
            .field("me", &self.me)
            .field("outcome", &self.outcome)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainMessage;
    use fd_crypto::SchnorrScheme;
    use fd_simnet::codec::Encode;
    use fd_simnet::SyncNetwork;
    use std::any::Any;

    fn build_cluster(
        n: usize,
        t: usize,
        value: &[u8],
    ) -> (Vec<Box<dyn Node>>, Arc<dyn SignatureScheme>) {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let rings: Vec<Keyring> = (0..n)
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 5))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                Box::new(ChainFdNode::new(
                    me,
                    ChainFdParams::new(n, t),
                    Arc::clone(&scheme),
                    KeyStore::global(me, &pks),
                    rings[i].clone(),
                    (i == 0).then(|| value.to_vec()),
                )) as Box<dyn Node>
            })
            .collect();
        (nodes, scheme)
    }

    fn outcomes(net: SyncNetwork) -> Vec<Outcome> {
        net.into_nodes()
            .into_iter()
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<ChainFdNode>()
                    .expect("ChainFdNode")
                    .outcome
            })
            .collect()
    }

    #[test]
    fn failure_free_run_all_decide() {
        for (n, t) in [(4usize, 1usize), (5, 2), (7, 2), (6, 0), (5, 3)] {
            let (nodes, _) = build_cluster(n, t, b"attack");
            let mut net = SyncNetwork::new(nodes);
            let params = ChainFdParams::new(n, t);
            net.run_until_done(params.rounds());
            assert_eq!(
                net.stats().messages_total,
                n - 1,
                "n={n} t={t}: paper claims n-1 messages"
            );
            for (i, o) in outcomes(net).into_iter().enumerate() {
                assert_eq!(
                    o,
                    Outcome::Decided(b"attack".to_vec()),
                    "node {i} n={n} t={t}"
                );
            }
        }
    }

    #[test]
    fn communication_rounds_are_t_plus_1() {
        let (n, t) = (7usize, 3usize);
        let (nodes, _) = build_cluster(n, t, b"v");
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(ChainFdParams::new(n, t).rounds());
        let active_rounds = net.stats().per_round.iter().filter(|&&c| c > 0).count();
        assert_eq!(active_rounds, t + 1);
    }

    #[test]
    fn missing_message_discovered() {
        // Drop P0 -> P1: P1 (and transitively everyone) must discover.
        let (n, t) = (5usize, 2usize);
        let (nodes, _) = build_cluster(n, t, b"v");
        let mut net = SyncNetwork::new(nodes);
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(1),
            fd_simnet::fault::LinkFault::Drop,
        ));
        net.run_until_done(ChainFdParams::new(n, t).rounds());
        let outs = outcomes(net);
        // Sender decided (it saw nothing wrong); every other correct node
        // discovered the missing chain.
        assert!(outs[1..].iter().all(|o| o.is_discovered()));
    }

    #[test]
    fn corrupted_chain_discovered() {
        let (n, t) = (5usize, 1usize);
        let (nodes, _) = build_cluster(n, t, b"v");
        let mut net = SyncNetwork::new(nodes);
        // Flip one byte inside P0's chain message to P1 (beyond the tag).
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(1),
            fd_simnet::fault::LinkFault::Corrupt {
                offset: 20,
                mask: 0x01,
            },
        ));
        net.run_until_done(ChainFdParams::new(n, t).rounds());
        let outs = outcomes(net);
        assert!(outs[1].is_discovered(), "P1 must notice the corruption");
    }

    #[test]
    fn duplicate_message_discovered() {
        let (n, t) = (4usize, 1usize);
        let (nodes, _) = build_cluster(n, t, b"v");
        let mut net = SyncNetwork::new(nodes);
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(1),
            fd_simnet::fault::LinkFault::Duplicate,
        ));
        net.run_until_done(ChainFdParams::new(n, t).rounds());
        let outs = outcomes(net);
        assert_eq!(
            outs[1],
            Outcome::Discovered(DiscoveryReason::UnexpectedMessage { round: 1 })
        );
    }

    #[test]
    #[should_panic(expected = "chain P_0..P_t plus a recipient")]
    fn t_too_large_rejected() {
        let _ = ChainFdParams::new(4, 3);
    }

    #[test]
    fn msg_codec_round_trip() {
        use fd_simnet::codec::Decode;
        let scheme = SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(0), 1);
        let chain = ChainMessage::originate(&scheme, &ring.sk, NodeId(0), b"x".to_vec()).unwrap();
        let msg = FdMsg { chain };
        assert_eq!(FdMsg::decode_exact(&msg.encode_to_vec()).unwrap(), msg);
        assert!(FdMsg::decode_exact(&[0xee]).is_err());
    }
}
