//! Dolev–Strong authenticated Byzantine Agreement under local
//! authentication.
//!
//! The classic algorithm: the sender signs and broadcasts its value; in
//! round `r` a node accepts a value carried by a chain of `r` distinct
//! signatures starting with the sender, adds its own signature, and relays
//! newly extracted values; after round `t + 1` a node decides the unique
//! extracted value, or the default if it extracted zero or several.
//!
//! Under **global** authentication this solves BA for any `t < n`. Under
//! the paper's **local** authentication the chain verification follows the
//! Theorem 4 discipline, so any assignment inconsistency caused by
//! equivocated keys is *discovered* — giving the protocol failure-discovery
//! semantics (the paper's §7 conjecture territory). Failure-free runs cost
//! `n(n−1)` messages, the quadratic contrast to the FD chain protocol's
//! `n − 1` (experiment T6).

use crate::chain::ChainMessage;
use crate::keys::{screen, CohortVerdict, Expect, KeyStore, Keyring, VerifyCache};
use crate::outcome::{DiscoveryReason, Outcome};
use fd_crypto::SignatureScheme;
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::sync::Arc;

/// Wire message: a signature chain carrying a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsMsg {
    /// The chain-signed value.
    pub chain: ChainMessage,
}

const TAG_DS: u8 = 0x40;

impl Encode for DsMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_DS);
        self.chain.encode(w);
    }
}

impl Decode for DsMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_DS => Ok(DsMsg {
                chain: ChainMessage::decode(r)?,
            }),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Static parameters of a Dolev–Strong run.
#[derive(Debug, Clone)]
pub struct DolevStrongParams {
    /// System size.
    pub n: usize,
    /// Tolerated faults (any `t < n` under global authentication).
    pub t: usize,
    /// Designated sender.
    pub sender: NodeId,
    /// Decision when zero or multiple values are extracted.
    pub default_value: Vec<u8>,
}

impl DolevStrongParams {
    /// Standard parameters with `P_0` as sender.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 2` and `t < n`.
    pub fn new(n: usize, t: usize, default_value: Vec<u8>) -> Self {
        assert!(n >= 2 && t < n, "need t < n and at least two nodes");
        DolevStrongParams {
            n,
            t,
            sender: NodeId(0),
            default_value,
        }
    }

    /// Automaton rounds: sends in rounds `0..=t`, decision at `t + 1`.
    pub fn rounds(&self) -> u32 {
        self.t as u32 + 2
    }
}

/// What one receiver takes from a screened chain, decided while the
/// verdict is read in place.
enum Take {
    /// An echo of a chain this node signed, or a body it already
    /// extracted: nothing to copy.
    Nothing,
    /// A body this node has not extracted yet.
    Body(Arc<[u8]>),
    /// A discovery (recorded only if it is this node's first).
    Discovery(DiscoveryReason),
}

/// Honest Dolev–Strong participant.
pub struct DolevStrongNode {
    me: NodeId,
    params: DolevStrongParams,
    scheme: Arc<dyn SignatureScheme>,
    store: KeyStore,
    keyring: Keyring,
    value: Option<Vec<u8>>,
    /// Distinct extracted values, in extraction order.
    extracted: Vec<Vec<u8>>,
    discovered: Option<DiscoveryReason>,
    outcome: Outcome,
    done: bool,
}

impl DolevStrongNode {
    /// Create the automaton for node `me`; `value` is `Some` exactly on the
    /// sender.
    ///
    /// # Panics
    ///
    /// Panics if value presence contradicts the sender role.
    pub fn new(
        me: NodeId,
        params: DolevStrongParams,
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
        DolevStrongNode {
            me,
            params,
            scheme,
            store,
            keyring,
            value,
            extracted: Vec::new(),
            discovered: None,
            outcome: Outcome::Pending,
            done: false,
        }
    }

    /// The node's outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    /// Number of distinct extracted values (diagnostics).
    pub fn extracted_count(&self) -> usize {
        self.extracted.len()
    }

    /// Read a screened chain's verdict as *this* receiver: an echo of a
    /// chain this node already signed (correct nodes relay to everyone,
    /// including previous signers) is ignored before anything else; a
    /// body this node already extracted is dropped here rather than
    /// copied out.
    fn take(&self, verdict: &CohortVerdict) -> Take {
        if verdict.signers().contains(&self.me) {
            return Take::Nothing;
        }
        match verdict.read(|_, _| true) {
            Ok(body) if self.extracted.iter().any(|e| e[..] == body[..]) => Take::Nothing,
            Ok(body) => Take::Body(Arc::clone(body)),
            Err(reason) => Take::Discovery(reason),
        }
    }

    fn decide(&mut self) {
        self.outcome = if let Some(reason) = self.discovered.take() {
            Outcome::Discovered(reason)
        } else if self.extracted.len() == 1 {
            Outcome::Decided(self.extracted[0].clone())
        } else {
            // Zero or several extracted values: the sender is provably
            // faulty; agree on the default.
            Outcome::Decided(self.params.default_value.clone())
        };
        self.done = true;
    }
}

impl Node for DolevStrongNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.done {
            // Under N1 every honest message lands by the decision round
            // (t + 1), so a later arrival proves a timing violation.
            // Recording it keeps a timing-starved default decision *loud*:
            // a schedule that delays every chain addressed to one node past
            // its horizon must not let it decide the default silently while
            // the rest decide the sender's value.
            if !inbox.is_empty() && !self.outcome.is_discovered() {
                self.outcome = Outcome::Discovered(DiscoveryReason::UnexpectedMessage { round });
            }
            return;
        }
        if round == 0 {
            if self.me == self.params.sender {
                let v = self.value.clone().expect("sender value");
                self.extracted.push(v.clone());
                let chain =
                    ChainMessage::originate(self.scheme.as_ref(), &self.keyring.sk, self.me, v)
                        .expect("own keyring well-formed");
                out.broadcast(self.params.n, self.me, DsMsg { chain }.encode_to_vec());
            }
            return;
        }
        // Rounds 1..=t+1: extract and (through round t) relay. A chain of
        // round `r` carries `r` distinct signatures starting with the
        // sender. Screening runs once per broadcast buffer and every other
        // receiver replays the verdict, under one lock of the cohort layer
        // for the whole inbox.
        let cache = self.store.cache().cloned();
        let mut cohorts = cache.as_ref().and_then(VerifyCache::cohorts);
        for env in inbox {
            let expect = Expect {
                decode: |p: &[u8]| DsMsg::decode_exact(p).ok().map(|m| m.chain),
                origin: Some(self.params.sender),
                count: round as usize..=round as usize,
            };
            let take = screen(
                cohorts.as_mut(),
                self.scheme.as_ref(),
                &self.store,
                env,
                round,
                expect,
                |v| self.take(v),
            );
            let body = match take {
                Take::Nothing => continue,
                Take::Discovery(reason) => {
                    self.discovered.get_or_insert(reason);
                    continue;
                }
                Take::Body(body) => body,
            };
            self.extracted.push(body.to_vec());
            if round <= self.params.t as u32 {
                // Relaying needs the actual chain to extend: decoded here
                // at most once per distinct extracted value per node
                // (≤ 2 per run), never per message.
                let chain = DsMsg::decode_exact(&env.payload)
                    .expect("accepted payload decodes")
                    .chain;
                let extended = chain
                    .extend(self.scheme.as_ref(), &self.keyring.sk, env.from)
                    .expect("own keyring well-formed");
                out.broadcast(
                    self.params.n,
                    self.me,
                    DsMsg { chain: extended }.encode_to_vec(),
                );
            }
        }
        if round == self.params.t as u32 + 1 {
            self.decide();
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for DolevStrongNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DolevStrongNode")
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
        let scheme: Arc<dyn SignatureScheme> = Arc::new(fd_crypto::SchnorrScheme::test_tiny());
        let rings: Vec<Keyring> = (0..n)
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 21))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                Box::new(DolevStrongNode::new(
                    me,
                    DolevStrongParams::new(n, t, b"default".to_vec()),
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
                    .downcast::<DolevStrongNode>()
                    .expect("DolevStrongNode")
                    .outcome
            })
            .collect()
    }

    #[test]
    fn failure_free_all_decide_sender_value() {
        for (n, t) in [(4usize, 1usize), (5, 2), (6, 3)] {
            let mut net = SyncNetwork::new(build(n, t, b"v"));
            net.run_until_done(DolevStrongParams::new(n, t, vec![]).rounds());
            // n-1 initial + (n-1) relays of the one new value per node.
            assert_eq!(net.stats().messages_total, n * (n - 1), "n={n} t={t}");
            for o in outcomes(net) {
                assert_eq!(o, Outcome::Decided(b"v".to_vec()));
            }
        }
    }

    #[test]
    fn silent_sender_decides_default() {
        let (n, t) = (4usize, 1usize);
        let mut nodes = build(n, t, b"v");
        nodes[0] = Box::new(crate::adversary::SilentNode { me: NodeId(0) });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(DolevStrongParams::new(n, t, b"default".to_vec()).rounds());
        let outs = outcomes_skip_sender(net);
        for o in outs {
            assert_eq!(o, Outcome::Decided(b"default".to_vec()));
        }
    }

    fn outcomes_skip_sender(net: SyncNetwork) -> Vec<Outcome> {
        net.into_nodes()
            .into_iter()
            .skip(1)
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<DolevStrongNode>()
                    .expect("DolevStrongNode")
                    .outcome
            })
            .collect()
    }

    #[test]
    fn corrupted_relay_discovered() {
        let (n, t) = (4usize, 1usize);
        let mut net = SyncNetwork::new(build(n, t, b"v"));
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(2),
            fd_simnet::fault::LinkFault::Corrupt {
                offset: 15,
                mask: 0x10,
            },
        ));
        net.run_until_done(DolevStrongParams::new(n, t, vec![]).rounds());
        let outs = outcomes(net);
        assert!(outs[2].is_discovered());
    }

    #[test]
    fn post_decision_arrival_is_discovered_not_ignored() {
        use fd_simnet::fault::{FaultPlan, LinkFault};
        use fd_simnet::EventNetwork;
        let (n, t) = (4usize, 1usize);
        let mut net = EventNetwork::new(build(n, t, b"v"));
        // Hold the sender's round-0 chain to P2 back three whole rounds:
        // it lands after P2's decision at round t + 1 = 2. P2 still
        // extracts `v` via the round-1 relays, but the late arrival is a
        // provable N1 violation and must be surfaced, not ignored — an
        // adversarial schedule that starved P2 of *all* chains would
        // otherwise let it decide the default silently.
        net.set_fault_plan(FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(2),
            LinkFault::Delay { rounds: 3 },
        ));
        net.run_until_done(8);
        let outs: Vec<Outcome> = net
            .into_nodes()
            .into_iter()
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<DolevStrongNode>()
                    .expect("DolevStrongNode")
                    .outcome
            })
            .collect();
        assert!(outs[2].is_discovered(), "late arrival ignored: {outs:?}");
        for (i, o) in outs.iter().enumerate() {
            if i != 2 {
                assert_eq!(*o, Outcome::Decided(b"v".to_vec()), "P{i}");
            }
        }
    }

    #[test]
    fn codec_round_trip() {
        let scheme = fd_crypto::SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(0), 1);
        let chain = ChainMessage::originate(&scheme, &ring.sk, NodeId(0), b"x".to_vec()).unwrap();
        let msg = DsMsg { chain };
        assert_eq!(DsMsg::decode_exact(&msg.encode_to_vec()).unwrap(), msg);
    }

    #[test]
    #[should_panic(expected = "t < n")]
    fn t_must_be_below_n() {
        let _ = DolevStrongParams::new(3, 3, vec![]);
    }
}
