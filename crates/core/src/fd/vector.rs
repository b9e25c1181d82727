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

use crate::chain::{relay, ChainMessage, ChainView};
use crate::keys::{screen, Cohorts, Expect, KeyStore, Keyring, VerifyCache};
use crate::outcome::{DiscoveryReason, Outcome};
use fd_crypto::SignatureScheme;
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox, Payload};
use std::sync::Arc;

/// Wire message: an instance header (tag and the sender whose value it
/// carries) in front of the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecMsg {
    /// The instance = the designated sender of this chain.
    pub instance: NodeId,
    /// The chain-signed value.
    pub chain: ChainMessage,
}

const TAG_VEC: u8 = 0x70;
/// The header's length: the tag and the instance.
const HEADER: usize = 3;

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

impl VecMsg {
    /// The instance a payload names and the chain it carries, read in
    /// place; `None` unless the payload is exactly one such message.
    fn view(payload: &[u8]) -> Option<(NodeId, ChainView<'_>)> {
        match payload {
            [TAG_VEC, hi, lo, chain @ ..] => Some((
                NodeId(u16::from_be_bytes([*hi, *lo])),
                ChainView::parse(chain).ok()?,
            )),
            _ => None,
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

    /// Screen one chain of `instance`. Whether the payload parses is
    /// settled before the instance's schedule is consulted (a malformed
    /// payload is a node-level discovery); the schedule before the chain's
    /// structure; the structure — origin `instance`, `round` signatures
    /// (the expected count whenever the schedule holds), signers
    /// following the instance's rotation — before the signatures. A
    /// message off the instance's schedule is never verified.
    fn handle_msg(
        &mut self,
        cohorts: Option<&mut Cohorts<'_>>,
        round: u32,
        env: &Envelope,
        out: &mut Outbox,
    ) {
        let instance = match VecMsg::view(&env.payload) {
            Some((instance, _)) if instance.index() < self.params.n => instance,
            _ => return self.discover_node(DiscoveryReason::Malformed),
        };
        let my_pos = self.params.position_of(instance, self.me);
        // When should this instance reach me, and from whom? (Never, if
        // I am its sender.)
        let expected = if (1..=self.params.t).contains(&my_pos) {
            Some((my_pos as u32, self.params.node_at(instance, my_pos - 1)))
        } else if my_pos > self.params.t {
            Some((
                self.params.t as u32 + 1,
                self.params.node_at(instance, self.params.t),
            ))
        } else {
            None
        };
        if expected != Some((round, env.from)) || self.outcomes[instance.index()].is_terminal() {
            return self.discover_instance(instance, DiscoveryReason::UnexpectedMessage { round });
        }
        let expect = Expect {
            decode: |p| VecMsg::view(p).map(|(_, chain)| chain),
            origin: Some(instance),
            count: round as usize..=round as usize,
        };
        let params = &self.params;
        let read = screen(
            cohorts,
            self.scheme.as_ref(),
            &self.store,
            env,
            round,
            expect,
            |v| {
                v.read(|signers, _| {
                    signers
                        .iter()
                        .enumerate()
                        .all(|(j, s)| *s == params.node_at(instance, j))
                })
                .map(|body| body.to_vec())
            },
        );
        let v = match read {
            Ok(v) => v,
            Err(reason) => return self.discover_instance(instance, reason),
        };
        if (1..=self.params.t).contains(&my_pos) {
            let sk = &self.keyring.sk;
            let relayed = relay(&env.payload, HEADER, self.scheme.as_ref(), sk, env.from);
            let payload = Payload::from(relayed.expect("own keyring well-formed"));
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
            let (scheme, instance) = (self.scheme.as_ref(), self.me);
            let chain =
                ChainMessage::originate(scheme, &self.keyring.sk, instance, self.value.clone())
                    .expect("own keyring well-formed");
            let payload = Payload::from(VecMsg { instance, chain }.encode_to_vec());
            if self.params.t == 0 {
                for pos in 1..self.params.n {
                    out.send(self.params.node_at(self.me, pos), payload.clone());
                }
            } else {
                out.send(self.params.node_at(self.me, 1), payload);
            }
            self.outcomes[self.me.index()] = Outcome::Decided(self.value.clone());
        }

        let cache = self.store.cache().cloned();
        let mut cohorts = cache.as_ref().and_then(VerifyCache::cohorts);
        for env in inbox {
            self.handle_msg(cohorts.as_mut(), round, env, out);
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

    /// Known answer for the vector FD wire message: tag `0x70`, the
    /// instance, then the chain's own encoding (here P3 → P4 → P5).
    #[test]
    fn vec_msg_payload_bytes_are_pinned() {
        let bytes = vec_msg(3, &[(3, 4), (4, 5)]);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let pinned = [
            // tag, instance P3
            "70 0003",
            // origin P3, body [3], the origin's signature
            "0003 00000001 03 0000000c 196318b065513c2973b86915",
            // two layers: assignee P3 under P4's signature, P4 under P5's
            "00000002",
            "0003 0000000c a53ed378e8618864ec44883b",
            "0004 0000000c 4bcfda5a0cb233c1da27e61e",
        ];
        assert_eq!(hex, pinned.concat().replace(' ', ""));
        let msg = VecMsg::decode_exact(&bytes).unwrap();
        assert_eq!(msg.instance, NodeId(3));
        assert_eq!(msg.chain.signature_count(), 3);
        assert_eq!(msg.encode_to_vec(), bytes);
    }

    /// A Byzantine node that sends fixed payloads in fixed rounds and
    /// nothing else.
    struct Scripted {
        me: NodeId,
        sends: Vec<(u32, NodeId, Vec<u8>)>,
    }

    impl Node for Scripted {
        fn id(&self) -> NodeId {
            self.me
        }

        fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
            for (r, to, payload) in &self.sends {
                if *r == round {
                    out.send(*to, payload.clone());
                }
            }
        }
    }

    /// The precedence cases run at n = 6, t = 2 with node 5 scripted.
    const N: usize = 6;

    fn rings() -> (Arc<dyn SignatureScheme>, Vec<Keyring>) {
        let scheme: Arc<dyn SignatureScheme> = Arc::new(SchnorrScheme::test_tiny());
        let rings = (0..N)
            .map(|i| Keyring::generate(scheme.as_ref(), NodeId(i as u16), 15))
            .collect();
        (scheme, rings)
    }

    /// `VecMsg { instance, chain }` for a chain originated by `instance`
    /// whose layers are `(assignee, signer)` pairs, innermost first.
    fn vec_msg(instance: u16, layers: &[(u16, u16)]) -> Vec<u8> {
        let (scheme, rings) = rings();
        let sk = |i: u16| &rings[usize::from(i)].sk;
        let origin = NodeId(instance);
        let mut chain =
            ChainMessage::originate(scheme.as_ref(), sk(instance), origin, vec![instance as u8])
                .unwrap();
        for &(assignee, signer) in layers {
            chain = chain
                .extend(scheme.as_ref(), sk(signer), NodeId(assignee))
                .unwrap();
        }
        VecMsg {
            instance: origin,
            chain,
        }
        .encode_to_vec()
    }

    /// Run honest nodes 0..=4 against a scripted node 5 sending `sends`,
    /// with `faults` on the links, every store on `cache`. Returns node
    /// 0's outcome for `instance` and for its own instance 0 (which only
    /// a node-level discovery overturns), and the cache's miss count.
    fn p0_sees(
        sends: &[(u32, NodeId, Vec<u8>)],
        faults: fd_simnet::fault::FaultPlan,
        cache: Option<VerifyCache>,
        instance: usize,
    ) -> (Outcome, Outcome, usize) {
        let (scheme, rings) = rings();
        let pks: Vec<_> = rings.iter().map(|r| r.pk.clone()).collect();
        let params = VectorFdParams::new(N, 2);
        let mut nodes: Vec<Box<dyn Node>> = (0..N - 1)
            .map(|i| {
                let me = NodeId(i as u16);
                let store = KeyStore::global(me, &pks);
                let store = match &cache {
                    Some(cache) => store.with_cache(cache.clone()),
                    None => store,
                };
                Box::new(VectorFdNode::new(
                    me,
                    params.clone(),
                    Arc::clone(&scheme),
                    store,
                    rings[i].clone(),
                    vec![i as u8],
                )) as Box<dyn Node>
            })
            .collect();
        nodes.push(Box::new(Scripted {
            me: NodeId(N as u16 - 1),
            sends: sends.to_vec(),
        }));
        let mut net = SyncNetwork::new(nodes);
        net.set_fault_plan(faults);
        net.run_until_done(params.rounds());
        let p0 = net.into_nodes().swap_remove(0);
        let p0 = (p0 as Box<dyn Any>)
            .downcast::<VectorFdNode>()
            .expect("VectorFdNode");
        let misses = cache.map_or(0, |c| c.misses());
        (
            p0.outcomes()[instance].clone(),
            p0.outcomes()[0].clone(),
            misses,
        )
    }

    #[test]
    fn screening_keeps_malformed_then_schedule_then_structure_then_signature() {
        use fd_simnet::fault::{FaultPlan, LinkFault};
        use DiscoveryReason::*;
        use Outcome::Discovered;
        let (p0, p3) = (NodeId(0), NodeId(3));
        // Instance 3's chain runs P3 → P4 → P5, and P5 hands it to P0 in
        // round 2; instance 1's runs P1 → P2 → P3, and P3 hands it to P0.
        let good = vec_msg(3, &[(3, 4), (4, 5)]);
        let mut bad_tag = good.clone();
        bad_tag[0] ^= 0xFF;
        let big_instance = VecMsg {
            instance: NodeId(N as u16),
            ..VecMsg::decode_exact(&good).unwrap()
        }
        .encode_to_vec();
        let mut trailing = good.clone();
        trailing.push(0);
        let mut trailing_1 = vec_msg(1, &[(1, 2), (2, 3)]);
        trailing_1.push(0);
        let cut_p3 = || FaultPlan::new().with(2, p3, p0, LinkFault::Drop);
        let node = Discovered(Malformed);
        // (label, round node 5 sends in, its payload to P0, link faults,
        // the instance P0's outcome is read for, that outcome, whether the
        // discovery is node-level and so also overturns P0's own value)
        #[rustfmt::skip]
        let cases = vec![
            ("corrupt tag", 2, bad_tag, FaultPlan::new(), 3, node.clone(), true),
            ("instance >= n", 2, big_instance, FaultPlan::new(), 3, node.clone(), true),
            ("malformed, on schedule", 2, trailing, FaultPlan::new(), 3, node.clone(), true),
            ("malformed, off schedule", 0, trailing_1, FaultPlan::new(), 1, node.clone(), true),
            ("wrong round", 1, good.clone(), FaultPlan::new(), 3,
                Discovered(UnexpectedMessage { round: 2 }), false),
            ("wrong sender", 2, vec_msg(1, &[(1, 2), (2, 3)]), cut_p3(), 1,
                Discovered(UnexpectedMessage { round: 3 }), false),
            ("wrong count", 2, vec_msg(3, &[(3, 4)]), FaultPlan::new(), 3,
                Discovered(BadStructure), false),
            ("wrong rotation", 2, vec_msg(3, &[(3, 1), (1, 5)]), FaultPlan::new(), 3,
                Discovered(BadStructure), false),
            ("bad signature", 2, vec_msg(3, &[(3, 1), (4, 5)]), FaultPlan::new(), 3,
                Discovered(BadSignature), false),
            ("wrong rotation, bad signature", 2, vec_msg(3, &[(3, 4), (1, 5)]),
                FaultPlan::new(), 3, Discovered(BadStructure), false),
            ("on schedule", 2, good, FaultPlan::new(), 3, Outcome::Decided(vec![3]), false),
        ];
        for (label, round, payload, faults, instance, expected, node_level) in cases {
            let own = if node_level {
                node.clone()
            } else {
                Outcome::Decided(vec![0])
            };
            let sends = [(round, p0, payload)];
            for cache in [
                None,
                Some(VerifyCache::new()),
                Some(VerifyCache::new().without_cohorts()),
            ] {
                let (seen, seen_own, _) = p0_sees(&sends, faults.clone(), cache, instance);
                assert_eq!((&seen, &seen_own), (&expected, &own), "{label}");
            }
        }
    }

    #[test]
    fn a_chain_off_its_schedule_is_never_verified() {
        use fd_simnet::fault::{FaultPlan, LinkFault};
        let (p0, p3) = (NodeId(0), NodeId(3));
        let cut_p3 = FaultPlan::new().with(2, p3, p0, LinkFault::Drop);
        // A well-formed chain a round early, and one from the wrong
        // sender, cost exactly what their absence costs.
        for (round, payload, faults, instance) in [
            (1, vec_msg(3, &[(3, 4), (4, 5)]), FaultPlan::new(), 3),
            (2, vec_msg(1, &[(1, 2), (2, 3)]), cut_p3, 1),
        ] {
            for cohorts in [true, false] {
                let cache = || {
                    let cache = VerifyCache::new();
                    Some(if cohorts {
                        cache
                    } else {
                        cache.without_cohorts()
                    })
                };
                let sends = [(round, p0, payload.clone())];
                let (_, _, sent) = p0_sees(&sends, faults.clone(), cache(), instance);
                let (_, _, absent) = p0_sees(&[], faults.clone(), cache(), instance);
                assert_eq!(sent, absent, "instance {instance}");
            }
        }
    }
}
