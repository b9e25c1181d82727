//! Interactive consistency: `n` parallel chain-FD instances, one per
//! sender, multiplexed over the same `t + 2` rounds.
//!
//! The paper's §7 outlook asks about "the use of local authentication with
//! other agreement protocols". Interactive consistency — every node ends
//! with the same *vector* of all nodes' values — is the canonical next
//! protocol: it is exactly `n` failure-discovery instances run
//! concurrently, with the chain of instance `s` rotated so that node
//! `(s + j) mod n` plays position `j`:
//!
//! ```text
//! instance s:  P_s → P_{s+1} → … → P_{s+t}  → broadcast to the rest
//! ```
//!
//! All instances share rounds (position `j` acts in round `j`), so the
//! whole vector costs `n · (n − 1)` messages in `t + 1` communication
//! rounds — `n` times one FD run, with no extra rounds. Every instance
//! independently satisfies F1–F3 under local authentication (each is a
//! relabeled paper-Fig. 2 run); a malformed or unattributable message is
//! a node-level discovery, exactly as in the paper's single-instance case.

use crate::chain::ChainMessage;
use crate::keys::{KeyStore, Keyring};
use crate::outcome::{DiscoveryReason, Outcome};
use fd_crypto::SignatureScheme;
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox, Payload};
use std::sync::Arc;

/// Wire message: a chain tagged with its instance (the sender whose value
/// it carries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecMsg {
    /// The instance = the designated sender of this chain.
    pub instance: NodeId,
    /// The chain-signed value.
    pub chain: ChainMessage,
}

const TAG_VEC: u8 = 0x70;

impl Encode for VecMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_VEC);
        self.instance.encode(w);
        self.chain.encode(w);
    }
}

impl Decode for VecMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_VEC => Ok(VecMsg {
                instance: NodeId::decode(r)?,
                chain: ChainMessage::decode(r)?,
            }),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Static parameters of an interactive-consistency run.
#[derive(Debug, Clone)]
pub struct VectorFdParams {
    /// System size (also the number of instances).
    pub n: usize,
    /// Tolerated faults; each rotated chain passes through `t` relays.
    pub t: usize,
}

impl VectorFdParams {
    /// Standard parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `t + 2 <= n`.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(t + 2 <= n, "chain plus a recipient must fit in n");
        VectorFdParams { n, t }
    }

    /// Automaton rounds (same as one chain FD run): `t + 2`.
    pub fn rounds(&self) -> u32 {
        self.t as u32 + 2
    }

    /// Node occupying `position` of `instance`.
    pub fn node_at(&self, instance: NodeId, position: usize) -> NodeId {
        NodeId(((instance.index() + position) % self.n) as u16)
    }

    /// Position of `node` within `instance` (0 = sender).
    pub fn position_of(&self, instance: NodeId, node: NodeId) -> usize {
        (node.index() + self.n - instance.index()) % self.n
    }
}

/// Honest participant of the interactive-consistency protocol.
pub struct VectorFdNode {
    me: NodeId,
    params: VectorFdParams,
    scheme: Arc<dyn SignatureScheme>,
    store: KeyStore,
    keyring: Keyring,
    /// This node's own input value (it is the sender of instance `me`).
    value: Vec<u8>,
    /// Per-instance outcome.
    outcomes: Vec<Outcome>,
    /// Node-level discovery (malformed/unattributable traffic): poisons
    /// every still-pending instance, since the node's whole view differs
    /// from every failure-free run.
    node_discovery: Option<DiscoveryReason>,
    done: bool,
}

impl VectorFdNode {
    /// Create the automaton for node `me` with its input `value`.
    pub fn new(
        me: NodeId,
        params: VectorFdParams,
        scheme: Arc<dyn SignatureScheme>,
        store: KeyStore,
        keyring: Keyring,
        value: Vec<u8>,
    ) -> Self {
        let n = params.n;
        VectorFdNode {
            me,
            params,
            scheme,
            store,
            keyring,
            value,
            outcomes: vec![Outcome::Pending; n],
            node_discovery: None,
            done: false,
        }
    }

    /// The per-instance outcomes (index = instance sender id).
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// The decided vector, if every instance decided.
    pub fn vector(&self) -> Option<Vec<Vec<u8>>> {
        self.outcomes
            .iter()
            .map(|o| o.decided().map(<[u8]>::to_vec))
            .collect()
    }

    fn discover_instance(&mut self, instance: NodeId, reason: DiscoveryReason) {
        if !self.outcomes[instance.index()].is_terminal() {
            self.outcomes[instance.index()] = Outcome::Discovered(reason);
        }
    }

    fn discover_node(&mut self, reason: DiscoveryReason) {
        self.node_discovery.get_or_insert(reason);
    }

    /// Structural validity of a chain for `instance` with the expected
    /// number of layers: origin and signer sequence must follow the
    /// rotation.
    fn structure_ok(
        &self,
        instance: NodeId,
        chain: &ChainMessage,
        from: NodeId,
        expected_layers: usize,
    ) -> bool {
        if chain.origin != instance || chain.layers.len() != expected_layers {
            return false;
        }
        chain
            .signer_sequence(from)
            .iter()
            .enumerate()
            .all(|(j, s)| *s == self.params.node_at(instance, j))
    }

    fn handle_msg(&mut self, round: u32, env: &Envelope, out: &mut Outbox) {
        let msg = match VecMsg::decode_exact(&env.payload) {
            Ok(m) => m,
            Err(_) => return self.discover_node(DiscoveryReason::Malformed),
        };
        let instance = msg.instance;
        if instance.index() >= self.params.n {
            return self.discover_node(DiscoveryReason::Malformed);
        }
        let my_pos = self.params.position_of(instance, self.me);
        // When should this instance reach me, and from whom?
        let (expected_round, expected_from, expected_layers) = if (1..=self.params.t)
            .contains(&my_pos)
        {
            (
                my_pos as u32,
                self.params.node_at(instance, my_pos - 1),
                my_pos - 1,
            )
        } else if my_pos > self.params.t {
            (
                self.params.t as u32 + 1,
                self.params.node_at(instance, self.params.t),
                self.params.t,
            )
        } else {
            // I am the sender of this instance: nothing should arrive.
            return self.discover_instance(instance, DiscoveryReason::UnexpectedMessage { round });
        };
        if round != expected_round
            || env.from != expected_from
            || self.outcomes[instance.index()].is_terminal()
        {
            return self.discover_instance(instance, DiscoveryReason::UnexpectedMessage { round });
        }
        if !self.structure_ok(instance, &msg.chain, env.from, expected_layers) {
            return self.discover_instance(instance, DiscoveryReason::BadStructure);
        }
        match msg
            .chain
            .verify_cached(self.scheme.as_ref(), &self.store, env.from)
        {
            Ok(_) => {
                let v = msg.chain.body.clone();
                if (1..=self.params.t).contains(&my_pos) {
                    let extended = msg
                        .chain
                        .extend(self.scheme.as_ref(), &self.keyring.sk, env.from)
                        .expect("own keyring well-formed");
                    let payload: Payload = VecMsg {
                        instance,
                        chain: extended,
                    }
                    .encode_to_vec()
                    .into();
                    if my_pos < self.params.t {
                        out.send(self.params.node_at(instance, my_pos + 1), payload);
                    } else {
                        for pos in (self.params.t + 1)..self.params.n {
                            out.send(self.params.node_at(instance, pos), payload.clone());
                        }
                    }
                }
                self.outcomes[instance.index()] = Outcome::Decided(v);
            }
            Err(reason) => self.discover_instance(instance, reason),
        }
    }
}

impl Node for VectorFdNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.done {
            if !inbox.is_empty() {
                self.discover_node(DiscoveryReason::UnexpectedMessage { round });
            }
            return;
        }
        // Round 0: originate my own instance.
        if round == 0 {
            let chain = ChainMessage::originate(
                self.scheme.as_ref(),
                &self.keyring.sk,
                self.me,
                self.value.clone(),
            )
            .expect("own keyring well-formed");
            let payload: Payload = VecMsg {
                instance: self.me,
                chain,
            }
            .encode_to_vec()
            .into();
            if self.params.t == 0 {
                for pos in 1..self.params.n {
                    out.send(self.params.node_at(self.me, pos), payload.clone());
                }
            } else {
                out.send(self.params.node_at(self.me, 1), payload);
            }
            self.outcomes[self.me.index()] = Outcome::Decided(self.value.clone());
        }

        for env in &inbox.to_vec() {
            self.handle_msg(round, env, out);
        }

        // Deadline checks: any instance due this round that is still
        // pending means its message never arrived.
        for s in 0..self.params.n {
            let instance = NodeId(s as u16);
            if self.outcomes[s].is_terminal() {
                continue;
            }
            let my_pos = self.params.position_of(instance, self.me);
            let due = if (1..=self.params.t).contains(&my_pos) {
                my_pos as u32
            } else {
                self.params.t as u32 + 1
            };
            if round >= due {
                self.discover_instance(instance, DiscoveryReason::MissingMessage { round });
            }
        }

        if round + 1 >= self.params.rounds() {
            // Apply node-level discovery to every instance, then finish.
            if let Some(reason) = self.node_discovery.take() {
                for s in 0..self.params.n {
                    self.outcomes[s] = Outcome::Discovered(reason.clone());
                }
            }
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for VectorFdNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VectorFdNode")
            .field("me", &self.me)
            .field(
                "decided",
                &self
                    .outcomes
                    .iter()
                    .filter(|o| o.decided().is_some())
                    .count(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_crypto::SchnorrScheme;
    use fd_simnet::SyncNetwork;
    use std::any::Any;

    fn build(n: usize, t: usize) -> Vec<Box<dyn Node>> {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let rings: Vec<Keyring> = (0..n)
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 15))
            .collect();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        (0..n)
            .map(|i| {
                let me = NodeId(i as u16);
                Box::new(VectorFdNode::new(
                    me,
                    VectorFdParams::new(n, t),
                    Arc::clone(&scheme),
                    KeyStore::global(me, &pks),
                    rings[i].clone(),
                    vec![i as u8, 0xAB],
                )) as Box<dyn Node>
            })
            .collect()
    }

    fn run(n: usize, t: usize) -> (Vec<VectorFdNode>, usize) {
        let mut net = SyncNetwork::new(build(n, t));
        net.run_until_done(VectorFdParams::new(n, t).rounds());
        let msgs = net.stats().messages_total;
        let nodes = net
            .into_nodes()
            .into_iter()
            .map(|b| {
                *(b as Box<dyn Any>)
                    .downcast::<VectorFdNode>()
                    .expect("VectorFdNode")
            })
            .collect();
        (nodes, msgs)
    }

    #[test]
    fn honest_run_everyone_gets_the_full_vector() {
        for (n, t) in [(4usize, 1usize), (5, 2), (7, 2), (4, 0)] {
            let (nodes, msgs) = run(n, t);
            assert_eq!(msgs, n * (n - 1), "n={n} t={t}: n parallel FD runs");
            let expected: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8, 0xAB]).collect();
            for node in &nodes {
                assert_eq!(
                    node.vector().expect("all decided"),
                    expected,
                    "n={n} t={t} node {}",
                    node.me
                );
            }
        }
    }

    #[test]
    fn rounds_match_single_instance() {
        let (n, t) = (6usize, 2usize);
        let mut net = SyncNetwork::new(build(n, t));
        net.run_until_done(VectorFdParams::new(n, t).rounds());
        assert_eq!(
            net.stats().per_round.iter().filter(|&&c| c > 0).count(),
            t + 1
        );
    }

    #[test]
    fn dropped_link_discovers_only_affected_instances() {
        let (n, t) = (5usize, 1usize);
        let mut net = SyncNetwork::new(build(n, t));
        // Kill instance-0's chain hop P0 -> P1 in round 0.
        net.set_fault_plan(fd_simnet::fault::FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(1),
            fd_simnet::fault::LinkFault::Drop,
        ));
        net.run_until_done(VectorFdParams::new(n, t).rounds());
        let nodes: Vec<VectorFdNode> = net
            .into_nodes()
            .into_iter()
            .map(|b| *(b as Box<dyn Any>).downcast::<VectorFdNode>().unwrap())
            .collect();
        // Instance 0 is discovered at P1.. (chain broken); other instances
        // decide everywhere.
        assert!(nodes[1].outcomes()[0].is_discovered());
        for s in 1..n {
            for node in &nodes {
                assert_eq!(
                    node.outcomes()[s].decided(),
                    Some(&[s as u8, 0xAB][..]),
                    "instance {s} at {}",
                    node.me
                );
            }
        }
    }

    #[test]
    fn rotation_mapping_is_consistent() {
        let p = VectorFdParams::new(7, 2);
        for s in 0..7u16 {
            for pos in 0..7usize {
                let node = p.node_at(NodeId(s), pos);
                assert_eq!(p.position_of(NodeId(s), node), pos);
            }
        }
    }

    #[test]
    fn codec_round_trip() {
        let scheme = SchnorrScheme::test_tiny();
        let ring = Keyring::generate(&scheme, NodeId(3), 1);
        let chain = ChainMessage::originate(&scheme, &ring.sk, NodeId(3), vec![7]).unwrap();
        let msg = VecMsg {
            instance: NodeId(3),
            chain,
        };
        assert_eq!(VecMsg::decode_exact(&msg.encode_to_vec()).unwrap(), msg);
    }
}
