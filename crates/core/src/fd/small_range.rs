//! Small-value-range failure discovery: silence encodes the default.
//!
//! The paper (§5) notes that when the value range is small and known a
//! priori, "solutions with fewer messages are possible by assigning values
//! to missing messages", citing Hadzilacos–Halpern's message-optimal
//! protocols. Those protocols are not listed in this paper; the
//! reproduction implements the following sound silence-as-default variant
//! (substitution documented in DESIGN.md §2):
//!
//! ```text
//! if v = default:   nobody sends anything; every node decides `default`
//!                   after observing silence through round 2.   (0 messages)
//! if v ≠ default:
//!   round 0:  P_0 → all:    {v}_{S_0}                          (n − 1)
//!   round 1:  P_w → all:    {P_0, {v}_{S_0}}_{S_w}, w = 1..=t+1
//!                           (each witness echoes a chain-extension)
//!   round 2:  a node decides v iff the direct chain and ALL t+1 witness
//!             echoes arrived and carry the same v; decides default iff it
//!             saw complete silence; anything else ⇒ discover.
//! ```
//!
//! **Why F2 holds with silence:** a correct node deciding `v ≠ default` saw
//! `t + 1` valid witness echoes, so at least one echo came from a *correct*
//! witness, which sent the same echo to every node; hence no correct node
//! saw complete silence, so none decided `default`. Conversely all-silent
//! correct nodes imply no correct witness echoed, which implies no correct
//! node can have collected `t + 1` echoes... (one of which would be from a
//! correct witness). Validity and termination are immediate.
//!
//! The win is *workload-dependent*: runs with the default value cost 0
//! messages instead of `n − 1` (experiment T5 quantifies the crossover
//! against [`super::ChainFdNode`] as a function of the default-value
//! probability).

use crate::chain::ChainMessage;
use crate::keys::{screen, Cohorts, Expect, KeyStore, Keyring, VerifyCache};
use crate::outcome::{DiscoveryReason, Outcome};
use fd_crypto::SignatureScheme;
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::sync::Arc;

/// Wire message: a chain-signed value (bare from the sender, one layer
/// from a witness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrMsg {
    /// The chain-signed non-default value.
    pub chain: ChainMessage,
}

const TAG_SR: u8 = 0x30;

impl Encode for SrMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_SR);
        self.chain.encode(w);
    }
}

impl Decode for SrMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_SR => Ok(SrMsg {
                chain: ChainMessage::decode(r)?,
            }),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Static parameters of a small-range FD run.
#[derive(Debug, Clone)]
pub struct SmallRangeParams {
    /// System size.
    pub n: usize,
    /// Tolerated faults; witnesses are `P_1 … P_{t+1}`.
    pub t: usize,
    /// Designated sender.
    pub sender: NodeId,
    /// The a-priori-known default value that silence encodes.
    pub default_value: Vec<u8>,
}

impl SmallRangeParams {
    /// Standard parameters with `P_0` as sender and the given default.
    ///
    /// # Panics
    ///
    /// Panics unless `t + 2 <= n`.
    pub fn new(n: usize, t: usize, default_value: Vec<u8>) -> Self {
        assert!(t + 2 <= n, "need sender plus t+1 witnesses inside n nodes");
        SmallRangeParams {
            n,
            t,
            sender: NodeId(0),
            default_value,
        }
    }

    /// Automaton rounds: sends in rounds 0–1, decision in round 2.
    pub fn rounds(&self) -> u32 {
        3
    }

    /// Is `node` a witness?
    pub fn is_witness(&self, node: NodeId) -> bool {
        let i = node.index();
        i >= 1 && i <= self.t + 1
    }
}

/// Honest participant in the small-range protocol.
pub struct SmallRangeFdNode {
    me: NodeId,
    params: SmallRangeParams,
    scheme: Arc<dyn SignatureScheme>,
    store: KeyStore,
    keyring: Keyring,
    value: Option<Vec<u8>>,
    /// Verified direct value from the sender.
    direct: Option<Vec<u8>>,
    /// The verified sender chain (kept for witness echoing).
    received_chain: Option<ChainMessage>,
    /// Verified witness echo values, indexed by node.
    echoes: Vec<Option<Vec<u8>>>,
    failed: Option<DiscoveryReason>,
    outcome: Outcome,
    done: bool,
}

impl SmallRangeFdNode {
    /// Create the automaton for node `me`; `value` is `Some` exactly on the
    /// sender.
    ///
    /// # Panics
    ///
    /// Panics if value presence contradicts the sender role.
    pub fn new(
        me: NodeId,
        params: SmallRangeParams,
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
        let n = params.n;
        SmallRangeFdNode {
            me,
            params,
            scheme,
            store,
            keyring,
            value,
            direct: None,
            received_chain: None,
            echoes: vec![None; n],
            failed: None,
            outcome: Outcome::Pending,
            done: false,
        }
    }

    /// The node's outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    fn fail(&mut self, reason: DiscoveryReason) {
        if self.failed.is_none() {
            self.failed = Some(reason);
        }
    }

    /// Screen a sender-originated chain of round `round` (1: the direct
    /// chain, 2: an echo), which carries `round` signatures. A chain
    /// carrying the default value has bad structure, because silence is
    /// how the default travels.
    fn screen_chain(
        &self,
        cohorts: Option<&mut Cohorts<'_>>,
        round: u32,
        env: &Envelope,
    ) -> Result<Vec<u8>, DiscoveryReason> {
        let expect = Expect {
            decode: |p: &[u8]| SrMsg::decode_exact(p).ok().map(|m| m.chain),
            origin: Some(self.params.sender),
            count: round as usize..=round as usize,
        };
        let default = &self.params.default_value[..];
        screen(
            cohorts,
            self.scheme.as_ref(),
            &self.store,
            env,
            round,
            expect,
            |v| v.read(|_, body| body != default).map(|body| body.to_vec()),
        )
    }

    fn handle_direct(&mut self, cohorts: Option<&mut Cohorts<'_>>, env: &Envelope) {
        if env.from != self.params.sender || self.direct.is_some() {
            return self.fail(DiscoveryReason::UnexpectedMessage { round: 1 });
        }
        match self.screen_chain(cohorts, 1, env) {
            Ok(body) => {
                self.direct = Some(body);
                if self.params.is_witness(self.me) {
                    // Kept for the echo this witness signs.
                    let chain = SrMsg::decode_exact(&env.payload)
                        .expect("accepted payload decodes")
                        .chain;
                    self.received_chain = Some(chain);
                }
            }
            Err(reason) => self.fail(reason),
        }
    }

    /// An echo chain carries one witness layer over the sender's chain.
    /// With the sender outside the witness set, its two signers are
    /// always distinct.
    fn handle_echo(&mut self, cohorts: Option<&mut Cohorts<'_>>, env: &Envelope) {
        if !self.params.is_witness(env.from) || self.echoes[env.from.index()].is_some() {
            return self.fail(DiscoveryReason::UnexpectedMessage { round: 2 });
        }
        match self.screen_chain(cohorts, 2, env) {
            Ok(body) => self.echoes[env.from.index()] = Some(body),
            Err(reason) => self.fail(reason),
        }
    }

    fn decide(&mut self) {
        if let Some(reason) = self.failed.take() {
            self.outcome = Outcome::Discovered(reason);
            self.done = true;
            return;
        }
        let my_direct = if self.me == self.params.sender {
            self.value
                .clone()
                .filter(|v| *v != self.params.default_value)
        } else {
            self.direct.clone()
        };
        let echo_count = (1..=self.params.t + 1)
            .filter(|&w| self.echoes[w].is_some())
            .count();
        // The sender "echoes to itself" conceptually; witnesses count their
        // own echo.
        let complete_silence = my_direct.is_none() && echo_count == 0;
        let full_pattern = my_direct.is_some()
            && (1..=self.params.t + 1).all(|w| {
                if NodeId(w as u16) == self.me {
                    // A witness trusts its own (verified) direct value.
                    true
                } else {
                    self.echoes[w].as_deref() == my_direct.as_deref()
                }
            });
        self.outcome = if complete_silence {
            Outcome::Decided(self.params.default_value.clone())
        } else if full_pattern {
            Outcome::Decided(my_direct.expect("full pattern has a value"))
        } else {
            Outcome::Discovered(DiscoveryReason::Equivocation)
        };
        self.done = true;
    }
}

impl Node for SmallRangeFdNode {
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
                    if v != self.params.default_value {
                        let chain = ChainMessage::originate(
                            self.scheme.as_ref(),
                            &self.keyring.sk,
                            self.me,
                            v,
                        )
                        .expect("own keyring is well-formed");
                        out.broadcast(self.params.n, self.me, SrMsg { chain }.encode_to_vec());
                    }
                }
            }
            1 => {
                let cache = self.store.cache().cloned();
                let mut cohorts = cache.as_ref().and_then(VerifyCache::cohorts);
                for env in inbox {
                    self.handle_direct(cohorts.as_mut(), env);
                }
                // Witness echo: extend the verified chain and broadcast.
                if self.params.is_witness(self.me) && self.failed.is_none() {
                    if let Some(v) = self.direct.clone() {
                        let received = self
                            .received_chain
                            .clone()
                            .expect("direct implies stored chain");
                        let extended = received
                            .extend(self.scheme.as_ref(), &self.keyring.sk, self.params.sender)
                            .expect("own keyring is well-formed");
                        out.broadcast(
                            self.params.n,
                            self.me,
                            SrMsg { chain: extended }.encode_to_vec(),
                        );
                        self.echoes[self.me.index()] = Some(v);
                    }
                }
            }
            2 => {
                let cache = self.store.cache().cloned();
                let mut cohorts = cache.as_ref().and_then(VerifyCache::cohorts);
                for env in inbox {
                    self.handle_echo(cohorts.as_mut(), env);
                }
                self.decide();
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

impl core::fmt::Debug for SmallRangeFdNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SmallRangeFdNode")
            .field("me", &self.me)
            .field("outcome", &self.outcome)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_crypto::SchnorrScheme;
    use fd_simnet::SyncNetwork;
    use std::any::Any;

    fn build(n: usize, t: usize, value: &[u8]) -> Vec<Box<dyn Node>> {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let rings: Vec<Keyring> = (0..n)
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 3))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                Box::new(SmallRangeFdNode::new(
                    me,
                    SmallRangeParams::new(n, t, vec![0]),
                    Arc::clone(&scheme),
                    KeyStore::global(me, &pks),
                    rings[i].clone(),
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
                    .downcast::<SmallRangeFdNode>()
                    .expect("SmallRangeFdNode")
                    .outcome
            })
            .collect()
    }

    #[test]
    fn default_value_costs_zero_messages() {
        let (n, t) = (6usize, 2usize);
        let mut net = SyncNetwork::new(build(n, t, &[0]));
        net.run_until_done(3);
        assert_eq!(net.stats().messages_total, 0);
        for o in outcomes(net) {
            assert_eq!(o, Outcome::Decided(vec![0]));
        }
    }

    #[test]
    fn non_default_value_full_pattern() {
        let (n, t) = (6usize, 2usize);
        let mut net = SyncNetwork::new(build(n, t, &[1]));
        net.run_until_done(3);
        assert_eq!(net.stats().messages_total, (t + 2) * (n - 1));
        for (i, o) in outcomes(net).into_iter().enumerate() {
            assert_eq!(o, Outcome::Decided(vec![1]), "node {i}");
        }
    }

    #[test]
    fn partial_dissemination_never_splits_silently() {
        // Sender's broadcast to P4 and P5 dropped: witnesses still echo,
        // so P4/P5 must NOT decide the default silently.
        let (n, t) = (6usize, 1usize);
        let mut net = SyncNetwork::new(build(n, t, &[1]));
        let plan = fd_simnet::fault::FaultPlan::new()
            .with(0, NodeId(0), NodeId(4), fd_simnet::fault::LinkFault::Drop)
            .with(0, NodeId(0), NodeId(5), fd_simnet::fault::LinkFault::Drop);
        net.set_fault_plan(plan);
        net.run_until_done(3);
        let outs = outcomes(net);
        for i in [4usize, 5] {
            assert!(
                outs[i].is_discovered(),
                "node {i} must discover, not decide default: {:?}",
                outs[i]
            );
        }
    }

    #[test]
    fn suppressed_echo_discovered() {
        let (n, t) = (5usize, 1usize);
        let mut net = SyncNetwork::new(build(n, t, &[1]));
        // Witness P2's echo to P4 dropped.
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            1,
            NodeId(2),
            NodeId(4),
            fd_simnet::fault::LinkFault::Drop,
        ));
        net.run_until_done(3);
        let outs = outcomes(net);
        assert!(outs[4].is_discovered());
        assert_eq!(outs[3], Outcome::Decided(vec![1]));
    }

    #[test]
    fn sender_sending_default_explicitly_is_bad_structure() {
        // A (faulty) sender that explicitly transmits the default value
        // deviates from the silence rule; receivers discover.
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let rings: Vec<Keyring> = (0..4)
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 3))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        let mut node = SmallRangeFdNode::new(
            NodeId(1),
            SmallRangeParams::new(4, 1, vec![0]),
            Arc::clone(&scheme),
            KeyStore::global(NodeId(1), &pks),
            rings[1].clone(),
            None,
        );
        let chain =
            ChainMessage::originate(scheme.as_ref(), &rings[0].sk, NodeId(0), vec![0]).unwrap();
        let env = Envelope {
            from: NodeId(0),
            to: NodeId(1),
            round: 0,
            payload: SrMsg { chain }.encode_to_vec().into(),
        };
        let mut out = Outbox::new();
        node.on_round(1, &[env], &mut out);
        node.on_round(2, &[], &mut out);
        assert!(node.outcome().is_discovered());
    }

    #[test]
    fn codec_round_trip() {
        let scheme = SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(0), 1);
        let chain = ChainMessage::originate(&scheme, &ring.sk, NodeId(0), vec![1]).unwrap();
        let msg = SrMsg { chain };
        assert_eq!(SrMsg::decode_exact(&msg.encode_to_vec()).unwrap(), msg);
    }
}
