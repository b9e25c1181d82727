//! Exponential Information Gathering (EIG) Byzantine Agreement.
//!
//! The iterative formulation of the classic OM(t) algorithm of Lamport,
//! Shostak & Pease (the paper's reference [4]): `t + 1` rounds of relaying
//! build a tree of "who said who said …" values; decision is a recursive
//! majority over the tree. Requires `n > 3t`. No signatures — this is the
//! non-authenticated baseline *and* the fall-back engine of
//! [`super::FdToBaNode`].
//!
//! Message complexity is `O(n^{t+1})` values in `O(n²·t)` envelopes —
//! exactly the kind of cost the paper's authenticated approach avoids in
//! failure-free runs.

use crate::outcome::Outcome;
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::collections::HashMap;

/// Wire message: a batch of `(path, value)` tree entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EigMsg {
    /// Entries: the path identifies the tree node (sequence of relayers,
    /// starting at the sender), the value is what the last relayer claims.
    pub entries: Vec<(Vec<NodeId>, Vec<u8>)>,
}

pub(crate) const TAG_EIG: u8 = 0x50;

impl Encode for EigMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(TAG_EIG);
        w.put_u32(self.entries.len() as u32);
        for (path, value) in &self.entries {
            w.put_u16(path.len() as u16);
            for id in path {
                id.encode(w);
            }
            w.put_bytes(value);
        }
    }
}

impl Decode for EigMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_EIG => {
                let count = r.get_u32()? as usize;
                if count > r.remaining() {
                    return Err(CodecError::BadLength);
                }
                let mut entries = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let plen = r.get_u16()? as usize;
                    let mut path = Vec::with_capacity(plen.min(64));
                    for _ in 0..plen {
                        path.push(NodeId::decode(r)?);
                    }
                    entries.push((path, r.get_bytes()?.to_vec()));
                }
                Ok(EigMsg { entries })
            }
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Static parameters of an EIG run.
#[derive(Debug, Clone)]
pub struct EigParams {
    /// System size.
    pub n: usize,
    /// Tolerated faults; EIG requires `n > 3t`.
    pub t: usize,
    /// Designated sender.
    pub sender: NodeId,
    /// Default for missing values and ties.
    pub default_value: Vec<u8>,
    /// First automaton round of the protocol (0 standalone; later when
    /// embedded as the [`super::FdToBaNode`] fall-back).
    pub base_round: u32,
}

impl EigParams {
    /// Standalone parameters with `P_0` as sender.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t`.
    pub fn new(n: usize, t: usize, default_value: Vec<u8>) -> Self {
        assert!(n > 3 * t, "EIG requires n > 3t");
        EigParams {
            n,
            t,
            sender: NodeId(0),
            default_value,
            base_round: 0,
        }
    }

    /// Automaton rounds: sends in relative rounds `0..=t`, decision at
    /// `t + 1`.
    pub fn rounds(&self) -> u32 {
        self.base_round + self.t as u32 + 2
    }
}

/// Honest EIG participant.
pub struct EigNode {
    me: NodeId,
    params: EigParams,
    value: Option<Vec<u8>>,
    /// The information-gathering tree: path → claimed value.
    vals: HashMap<Vec<NodeId>, Vec<u8>>,
    outcome: Outcome,
    done: bool,
}

impl EigNode {
    /// Create the automaton for node `me`; `value` is `Some` exactly on the
    /// sender.
    ///
    /// # Panics
    ///
    /// Panics if value presence contradicts the sender role.
    pub fn new(me: NodeId, params: EigParams, value: Option<Vec<u8>>) -> Self {
        assert_eq!(
            me == params.sender,
            value.is_some(),
            "exactly the sender carries the initial value"
        );
        EigNode {
            me,
            params,
            value,
            vals: HashMap::new(),
            outcome: Outcome::Pending,
            done: false,
        }
    }

    /// The node's outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    fn ingest(&mut self, env: &Envelope, level: usize) {
        let Ok(msg) = EigMsg::decode_exact(&env.payload) else {
            return; // garbage from a faulty node: contributes nothing
        };
        for (path, value) in msg.entries {
            // Structural validity: correct level, starts at the sender,
            // distinct hops, relayer not already inside, and the relayer is
            // the actual immediate sender (N2 supplies the final hop).
            let rooted = if path.is_empty() {
                // Level 0: the sender's own broadcast.
                env.from == self.params.sender
            } else {
                path.first() == Some(&self.params.sender)
            };
            if path.len() != level || !rooted || path.contains(&env.from) {
                continue;
            }
            let mut distinct = path.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() != path.len() {
                continue;
            }
            let mut full = path;
            full.push(env.from);
            self.vals.entry(full).or_insert(value);
        }
    }

    /// Recursive majority resolution of the tree.
    fn resolve(&self, path: &[NodeId]) -> Vec<u8> {
        if path.len() == self.params.t + 1 {
            return self
                .vals
                .get(path)
                .cloned()
                .unwrap_or_else(|| self.params.default_value.clone());
        }
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut children = 0usize;
        for j in fd_simnet::NodeId::all(self.params.n) {
            if path.contains(&j) || j == self.me {
                continue;
            }
            let mut child = path.to_vec();
            child.push(j);
            *counts.entry(self.resolve(&child)).or_insert(0) += 1;
            children += 1;
        }
        // Own view of this tree node counts too.
        if let Some(v) = self.vals.get(path) {
            *counts.entry(v.clone()).or_insert(0) += 1;
            children += 1;
        }
        let _ = children;
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .map(|(v, _)| v)
            .unwrap_or_else(|| self.params.default_value.clone())
    }
}

impl Node for EigNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.done || round < self.params.base_round {
            return;
        }
        let rel = round - self.params.base_round;
        let t = self.params.t as u32;

        // Ingest deliveries: messages sent in relative round rel-1 carry
        // level rel-1 paths (before the relayer hop).
        if rel >= 1 && rel <= t + 1 {
            let envs: Vec<Envelope> = inbox.to_vec();
            for env in &envs {
                self.ingest(env, rel as usize - 1);
            }
        }

        // Send phase.
        if rel == 0 {
            if self.me == self.params.sender {
                let v = self.value.clone().expect("sender value");
                self.vals.insert(vec![self.me], v.clone());
                let msg = EigMsg {
                    entries: vec![(vec![], v)],
                };
                out.broadcast(self.params.n, self.me, msg.encode_to_vec());
            }
        } else if rel <= t {
            // Relay all level-`rel` paths not containing me.
            let entries: Vec<(Vec<NodeId>, Vec<u8>)> = self
                .vals
                .iter()
                .filter(|(path, _)| path.len() == rel as usize && !path.contains(&self.me))
                .map(|(path, value)| (path.clone(), value.clone()))
                .collect();
            if !entries.is_empty() {
                let mut entries = entries;
                entries.sort(); // deterministic wire order
                let msg = EigMsg { entries };
                out.broadcast(self.params.n, self.me, msg.encode_to_vec());
            }
        }

        if rel == t + 1 {
            self.outcome = Outcome::Decided(self.resolve(&[self.params.sender]));
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for EigNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EigNode")
            .field("me", &self.me)
            .field("tree", &self.vals.len())
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
                Box::new(EigNode::new(
                    me,
                    EigParams::new(n, t, b"default".to_vec()),
                    (i == 0).then(|| value.to_vec()),
                )) as Box<dyn Node>
            })
            .collect()
    }

    fn outcomes(net: SyncNetwork, skip: usize) -> Vec<Outcome> {
        net.into_nodes()
            .into_iter()
            .skip(skip)
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<EigNode>()
                    .expect("EigNode")
                    .outcome
            })
            .collect()
    }

    #[test]
    fn failure_free_agreement_and_validity() {
        for (n, t) in [(4usize, 1usize), (7, 2)] {
            let mut net = SyncNetwork::new(build(n, t, b"v"));
            net.run_until_done(EigParams::new(n, t, vec![]).rounds());
            for o in outcomes(net, 0) {
                assert_eq!(o, Outcome::Decided(b"v".to_vec()), "n={n} t={t}");
            }
        }
    }

    #[test]
    fn silent_sender_agreement_on_default() {
        let (n, t) = (4usize, 1usize);
        let mut nodes = build(n, t, b"v");
        nodes[0] = Box::new(crate::adversary::SilentNode { me: NodeId(0) });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(EigParams::new(n, t, b"default".to_vec()).rounds());
        for o in outcomes(net, 1) {
            assert_eq!(o, Outcome::Decided(b"default".to_vec()));
        }
    }

    #[test]
    fn equivocating_sender_still_agreement() {
        // Faulty sender gives different values; with n=4, t=1 the correct
        // nodes must still agree (classic OM(1) property).
        struct TwoFaced {
            me: NodeId,
            n: usize,
        }
        impl Node for TwoFaced {
            fn id(&self) -> NodeId {
                self.me
            }
            fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
                if round == 0 {
                    for j in 1..self.n {
                        let v = if j % 2 == 0 {
                            b"a".to_vec()
                        } else {
                            b"b".to_vec()
                        };
                        let msg = EigMsg {
                            entries: vec![(vec![], v)],
                        };
                        out.send(NodeId(j as u16), msg.encode_to_vec());
                    }
                }
            }
        }
        let (n, t) = (4usize, 1usize);
        let mut nodes = build(n, t, b"v");
        nodes[0] = Box::new(TwoFaced { me: NodeId(0), n });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(EigParams::new(n, t, b"default".to_vec()).rounds());
        let outs = outcomes(net, 1);
        let first = outs[0].decided().unwrap().to_vec();
        for o in &outs {
            assert_eq!(o.decided().unwrap(), &first[..], "agreement violated");
        }
    }

    #[test]
    fn codec_round_trip() {
        let msg = EigMsg {
            entries: vec![
                (vec![NodeId(0)], b"x".to_vec()),
                (vec![NodeId(0), NodeId(2)], b"y".to_vec()),
            ],
        };
        assert_eq!(EigMsg::decode_exact(&msg.encode_to_vec()).unwrap(), msg);
        assert!(EigMsg::decode_exact(&[0x51]).is_err());
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn requires_n_over_3t() {
        let _ = EigParams::new(6, 2, vec![]);
    }
}
