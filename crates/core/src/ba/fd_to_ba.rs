//! The FD→BA extension: Byzantine Agreement whose failure-free runs cost
//! exactly the failure-discovery protocol's messages (paper §4).
//!
//! Three phases:
//!
//! 1. **FD phase** (rounds `0..=t+1`): the chain FD protocol (paper
//!    Fig. 2) runs verbatim; each node obtains a *provisional* outcome.
//! 2. **Alarm phase** (rounds `t+2..=2t+3`): a node whose provisional
//!    outcome is a discovery originates a signed ALARM; alarms are relayed
//!    Dolev–Strong style (a chain accepted at relative round `k` needs `k`
//!    distinct signatures), which guarantees **all-or-none**: either every
//!    correct node has accepted an alarm by round `2t+4`, or none has.
//!    Failure-free runs send nothing here.
//! 3. **Fallback phase** (rounds `2t+4..=3t+5`): if an alarm was accepted
//!    (or raised), all correct nodes jointly run EIG agreement on the
//!    sender's (re-broadcast) value; otherwise each node finalizes its
//!    provisional FD decision.
//!
//! Correctness sketch: if no correct node enters fallback, then no correct
//! node discovered (discovery ⇒ own alarm ⇒ own fallback), so FD's F2/F3
//! give agreement and validity on the provisional values. If any correct
//! node enters fallback, the all-or-none alarm agreement puts *every*
//! correct node into fallback, and EIG (which requires `n > 3t`) decides.
//! A correct sender re-broadcasts its original value, so validity carries
//! through the fallback as well.
//!
//! Cost: failure-free runs send `n − 1` messages — the FD protocol's exact
//! cost (experiment T6); faulty runs pay `O(n²)` alarms plus the EIG
//! fallback, which is the regime where any BA protocol pays anyway.

use crate::ba::eig::{EigNode, EigParams};
use crate::chain::ChainMessage;
use crate::fd::{ChainFdNode, ChainFdParams};
use crate::keys::{screen, Cohorts, Expect, KeyStore, Keyring, VerifyCache};
use crate::outcome::Outcome;
use fd_crypto::SignatureScheme;
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::sync::Arc;

/// Alarm wire message: a chain-signed "ALARM" marker.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AlarmMsg {
    chain: ChainMessage,
}

const TAG_ALARM: u8 = 0x60;
const ALARM_BODY: &[u8] = b"ALARM";

impl Encode for AlarmMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_ALARM);
        self.chain.encode(w);
    }
}

impl Decode for AlarmMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_ALARM => Ok(AlarmMsg {
                chain: ChainMessage::decode(r)?,
            }),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Static parameters of the FD→BA extension.
#[derive(Debug, Clone)]
pub struct FdToBaParams {
    /// System size.
    pub n: usize,
    /// Tolerated faults; the fallback requires `n > 3t`.
    pub t: usize,
    /// Designated sender.
    pub sender: NodeId,
    /// Default decision for the fallback.
    pub default_value: Vec<u8>,
}

impl FdToBaParams {
    /// Standard parameters with `P_0` as sender.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` (fallback requirement) and `t + 2 <= n`.
    pub fn new(n: usize, t: usize, default_value: Vec<u8>) -> Self {
        assert!(n > 3 * t, "the EIG fallback requires n > 3t");
        assert!(t + 2 <= n, "chain FD needs t + 2 <= n");
        FdToBaParams {
            n,
            t,
            sender: NodeId(0),
            default_value,
        }
    }

    fn t32(&self) -> u32 {
        self.t as u32
    }

    /// First round of the alarm phase.
    fn alarm_start(&self) -> u32 {
        self.t32() + 2
    }

    /// Round at which fallback entry is decided (and EIG starts).
    fn fallback_start(&self) -> u32 {
        2 * self.t32() + 4
    }

    /// Total automaton rounds: `3t + 6`.
    pub fn rounds(&self) -> u32 {
        3 * self.t32() + 6
    }
}

/// A node running the FD→BA extension.
pub struct FdToBaNode {
    me: NodeId,
    params: FdToBaParams,
    scheme: Arc<dyn SignatureScheme>,
    store: KeyStore,
    keyring: Keyring,
    value: Option<Vec<u8>>,
    inner_fd: ChainFdNode,
    alarm_seen: bool,
    alarm_relayed: bool,
    eig: Option<EigNode>,
    outcome: Outcome,
    done: bool,
    /// Alarm messages observed (diagnostics).
    alarms_accepted: usize,
}

impl FdToBaNode {
    /// Create the automaton for node `me`; `value` is `Some` exactly on the
    /// sender.
    pub fn new(
        me: NodeId,
        params: FdToBaParams,
        scheme: Arc<dyn SignatureScheme>,
        store: KeyStore,
        keyring: Keyring,
        value: Option<Vec<u8>>,
    ) -> Self {
        let inner_fd = ChainFdNode::new(
            me,
            ChainFdParams::new(params.n, params.t),
            Arc::clone(&scheme),
            store.clone(),
            keyring.clone(),
            value.clone(),
        );
        FdToBaNode {
            me,
            params,
            scheme,
            store,
            keyring,
            value,
            inner_fd,
            alarm_seen: false,
            alarm_relayed: false,
            eig: None,
            outcome: Outcome::Pending,
            done: false,
            alarms_accepted: 0,
        }
    }

    /// The node's final outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    /// Whether this node took the fallback path (diagnostics).
    pub fn used_fallback(&self) -> bool {
        self.eig.is_some()
    }

    /// Whether an alarm delivered at absolute round `round` is
    /// acceptable: inside the alarm window, carrying the alarm body, with
    /// the Dolev–Strong threshold of at least `k` distinct signers at
    /// `alarm_start + k`, and verified. Anything else is ignored.
    fn accept_alarm(&self, cohorts: Option<&mut Cohorts<'_>>, env: &Envelope, round: u32) -> bool {
        let first_delivery = self.params.alarm_start() + 1;
        let last_delivery = 2 * self.params.t32() + 3;
        if round < first_delivery || round > last_delivery {
            return false;
        }
        let k = (round - self.params.alarm_start()) as usize;
        let expect = Expect {
            decode: |p: &[u8]| AlarmMsg::decode_exact(p).ok().map(|m| m.chain),
            origin: None,
            count: k..=usize::MAX,
        };
        screen(
            cohorts,
            self.scheme.as_ref(),
            &self.store,
            env,
            round,
            expect,
            |v| v.read(|_, body| body == ALARM_BODY).is_ok(),
        )
    }

    fn handle_alarm_phase(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        // Originate own alarm at the start of the phase.
        if round == self.params.alarm_start()
            && self.inner_fd.outcome().is_discovered()
            && !self.alarm_relayed
        {
            let chain = ChainMessage::originate(
                self.scheme.as_ref(),
                &self.keyring.sk,
                self.me,
                ALARM_BODY.to_vec(),
            )
            .expect("own keyring well-formed");
            out.broadcast(self.params.n, self.me, AlarmMsg { chain }.encode_to_vec());
            self.alarm_seen = true;
            self.alarm_relayed = true;
        }
        // Accept and relay alarms.
        let cache = self.store.cache().cloned();
        let mut cohorts = cache.as_ref().and_then(VerifyCache::cohorts);
        for env in inbox {
            if self.accept_alarm(cohorts.as_mut(), env, round) {
                self.alarms_accepted += 1;
                self.alarm_seen = true;
                // Relay once, while a relay can still arrive in the window.
                if !self.alarm_relayed && round <= 2 * self.params.t32() + 2 {
                    let chain = AlarmMsg::decode_exact(&env.payload)
                        .expect("accepted payload decodes")
                        .chain;
                    let extended = chain
                        .extend(self.scheme.as_ref(), &self.keyring.sk, env.from)
                        .expect("own keyring well-formed");
                    out.broadcast(
                        self.params.n,
                        self.me,
                        AlarmMsg { chain: extended }.encode_to_vec(),
                    );
                    self.alarm_relayed = true;
                }
            }
        }
    }

    /// Split an inbox by protocol tag.
    fn split_inbox(inbox: &[Envelope]) -> (Vec<Envelope>, Vec<Envelope>, Vec<Envelope>) {
        let mut fd = Vec::new();
        let mut alarm = Vec::new();
        let mut eig = Vec::new();
        for env in inbox {
            match env.payload.first() {
                Some(&TAG_ALARM) => alarm.push(env.clone()),
                Some(&0x50) => eig.push(env.clone()),
                _ => fd.push(env.clone()),
            }
        }
        (fd, alarm, eig)
    }
}

impl Node for FdToBaNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.done {
            return;
        }
        let (fd_msgs, alarm_msgs, eig_msgs) = Self::split_inbox(inbox);

        // Phase 1: FD protocol.
        if round <= self.params.t32() + 1 {
            self.inner_fd.on_round(round, &fd_msgs, out);
        }

        // Phase 2: alarms.
        if round >= self.params.alarm_start() && round < self.params.fallback_start() {
            self.handle_alarm_phase(round, &alarm_msgs, out);
        }

        // Phase 3 entry.
        if round == self.params.fallback_start() {
            if self.alarm_seen {
                self.eig = Some(EigNode::new(
                    self.me,
                    EigParams {
                        n: self.params.n,
                        t: self.params.t,
                        sender: self.params.sender,
                        default_value: self.params.default_value.clone(),
                        base_round: self.params.fallback_start(),
                    },
                    self.value.clone(),
                ));
            } else {
                // Finalize the provisional FD decision. By the all-or-none
                // alarm argument, every correct node takes this branch
                // together, and no correct node discovered.
                self.outcome = match self.inner_fd.outcome() {
                    Outcome::Decided(v) => Outcome::Decided(v.clone()),
                    // Unreachable for a correct node (discovery implies
                    // alarm implies fallback); defensive default:
                    _ => Outcome::Decided(self.params.default_value.clone()),
                };
                self.done = true;
                return;
            }
        }

        // Phase 3: EIG fallback.
        if let Some(eig) = self.eig.as_mut() {
            eig.on_round(round, &eig_msgs, out);
            if eig.is_done() {
                self.outcome = eig.outcome().clone();
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for FdToBaNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FdToBaNode")
            .field("me", &self.me)
            .field("outcome", &self.outcome)
            .field("fallback", &self.used_fallback())
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
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 33))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                Box::new(FdToBaNode::new(
                    me,
                    FdToBaParams::new(n, t, b"default".to_vec()),
                    Arc::clone(&scheme),
                    KeyStore::global(me, &pks),
                    rings[i].clone(),
                    (i == 0).then(|| value.to_vec()),
                )) as Box<dyn Node>
            })
            .collect()
    }

    fn run(nodes: Vec<Box<dyn Node>>, n: usize, t: usize) -> (Vec<(Outcome, bool)>, usize) {
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(FdToBaParams::new(n, t, vec![]).rounds());
        let messages = net.stats().messages_total;
        let outs = net
            .into_nodes()
            .into_iter()
            .map(|b| {
                let node = (b as Box<dyn Any>)
                    .downcast::<FdToBaNode>()
                    .expect("FdToBaNode");
                (node.outcome.clone(), node.used_fallback())
            })
            .collect();
        (outs, messages)
    }

    #[test]
    fn failure_free_costs_exactly_fd_messages() {
        for (n, t) in [(4usize, 1usize), (7, 2), (5, 1)] {
            let (outs, messages) = run(build(n, t, b"v"), n, t);
            assert_eq!(messages, n - 1, "n={n} t={t}: FD-cost failure-free runs");
            for (o, fellback) in outs {
                assert_eq!(o, Outcome::Decided(b"v".to_vec()));
                assert!(!fellback);
            }
        }
    }

    #[test]
    fn dropped_chain_triggers_uniform_fallback_and_agreement() {
        let (n, t) = (7usize, 2usize);
        let nodes = build(n, t, b"v");
        let mut net = SyncNetwork::new(nodes);
        // Break the FD chain: P1's relay to P2 is dropped.
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            1,
            NodeId(1),
            NodeId(2),
            fd_simnet::fault::LinkFault::Drop,
        ));
        net.run_until_done(FdToBaParams::new(n, t, vec![]).rounds());
        let results: Vec<(Outcome, bool)> = net
            .into_nodes()
            .into_iter()
            .map(|b| {
                let node = (b as Box<dyn Any>)
                    .downcast::<FdToBaNode>()
                    .expect("FdToBaNode");
                (node.outcome.clone(), node.used_fallback())
            })
            .collect();
        // All correct nodes enter fallback together and agree; the sender
        // is correct so validity demands its value.
        for (i, (o, fellback)) in results.iter().enumerate() {
            assert!(fellback, "node {i} must take the fallback");
            assert_eq!(*o, Outcome::Decided(b"v".to_vec()), "node {i}");
        }
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn fallback_requires_n_over_3t() {
        let _ = FdToBaParams::new(6, 2, vec![]);
    }
}
