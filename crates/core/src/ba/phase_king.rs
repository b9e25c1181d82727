//! Phase-King Byzantine Agreement (Berman–Garay–Perry).
//!
//! The second non-authenticated baseline, complementing [`super::EigNode`]:
//! where EIG gathers `O(n^{t+1})` tree values, Phase King runs `t + 1`
//! phases of two broadcast rounds each and carries only *constant-size*
//! per-message state, for `O(t·n²)` messages total. The price is a tighter
//! resilience bound: **`n > 4t`** (EIG needs `n > 3t`).
//!
//! Adapted to the broadcast (designated-sender) problem the paper studies:
//! round 0 the sender broadcasts its value and every node adopts what it
//! received (default if nothing); then `t + 1` phases of
//!
//! 1. **universal exchange** — everyone broadcasts its current value and
//!    tallies the votes (own vote included);
//! 2. **king round** — the phase king broadcasts its plurality value; a
//!    node keeps its own plurality only if it had a strong majority
//!    (`count > n/2 + t`), otherwise it adopts the king's value.
//!
//! With `n > 4t` and at most `t` faults there is at least one correct king
//! among the `t + 1`, after whose phase all correct nodes hold the same
//! value and the strong-majority test keeps them locked ever after.
//!
//! Like the other full-agreement baselines this protocol always *decides*
//! (it never discovers failures) — it exists to put a message-complexity
//! number next to the authenticated protocols in experiment T7.

use crate::outcome::Outcome;
use fd_simnet::codec::{CodecError, Decode, Encode, Reader, Writer};
use fd_simnet::{Envelope, Node, NodeId, Outbox};
use std::collections::HashMap;

/// Wire message of the Phase-King protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PkMsg {
    /// Round-0 sender value.
    Initial(Vec<u8>),
    /// Universal-exchange vote.
    Vote(Vec<u8>),
    /// King's plurality value for the current phase.
    King(Vec<u8>),
}

const TAG_PK_INITIAL: u8 = 0x60;
const TAG_PK_VOTE: u8 = 0x61;
const TAG_PK_KING: u8 = 0x62;

impl Encode for PkMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            PkMsg::Initial(v) => {
                w.put_u8(TAG_PK_INITIAL);
                w.put_bytes(v);
            }
            PkMsg::Vote(v) => {
                w.put_u8(TAG_PK_VOTE);
                w.put_bytes(v);
            }
            PkMsg::King(v) => {
                w.put_u8(TAG_PK_KING);
                w.put_bytes(v);
            }
        }
    }
}

impl Decode for PkMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            TAG_PK_INITIAL => Ok(PkMsg::Initial(r.get_bytes()?.to_vec())),
            TAG_PK_VOTE => Ok(PkMsg::Vote(r.get_bytes()?.to_vec())),
            TAG_PK_KING => Ok(PkMsg::King(r.get_bytes()?.to_vec())),
            other => Err(CodecError::BadTag(other)),
        }
    }
}

/// Static parameters of a Phase-King run.
#[derive(Debug, Clone)]
pub struct PhaseKingParams {
    /// System size.
    pub n: usize,
    /// Tolerated faults; Phase King requires `n > 4t`.
    pub t: usize,
    /// Designated sender.
    pub sender: NodeId,
    /// Default for missing values.
    pub default_value: Vec<u8>,
}

impl PhaseKingParams {
    /// Standard parameters with `P_0` as sender; the king of phase `p` is
    /// node `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 4t` and `n >= 2`.
    pub fn new(n: usize, t: usize, default_value: Vec<u8>) -> Self {
        assert!(n > 4 * t, "Phase King requires n > 4t");
        assert!(n >= 2, "need at least two nodes");
        PhaseKingParams {
            n,
            t,
            sender: NodeId(0),
            default_value,
        }
    }

    /// The king of phase `p` (kings are nodes `0..=t`, one of which is
    /// correct since at most `t` are faulty).
    pub fn king(&self, phase: usize) -> NodeId {
        NodeId(phase as u16)
    }

    /// Automaton rounds: the initial broadcast, then `t + 1` phases of two
    /// rounds, then the decision round.
    pub fn rounds(&self) -> u32 {
        2 * (self.t as u32 + 1) + 2
    }

    /// Failure-free message count:
    /// `(n−1) + (t+1)·(n·(n−1) + (n−1))` — initial broadcast, then per
    /// phase a universal exchange plus the king broadcast.
    pub fn failure_free_messages(&self) -> usize {
        let n = self.n;
        (n - 1) + (self.t + 1) * (n * (n - 1) + (n - 1))
    }
}

/// Honest Phase-King participant.
pub struct PhaseKingNode {
    me: NodeId,
    params: PhaseKingParams,
    value: Option<Vec<u8>>,
    /// Current working value (the consensus variable).
    cur: Vec<u8>,
    /// Plurality value and its multiplicity from the last exchange.
    plurality: (Vec<u8>, usize),
    outcome: Outcome,
    done: bool,
}

impl PhaseKingNode {
    /// Create the automaton for node `me`; `value` is `Some` exactly on the
    /// sender.
    ///
    /// # Panics
    ///
    /// Panics if value presence contradicts the sender role.
    pub fn new(me: NodeId, params: PhaseKingParams, value: Option<Vec<u8>>) -> Self {
        assert_eq!(
            me == params.sender,
            value.is_some(),
            "exactly the sender carries the initial value"
        );
        let cur = params.default_value.clone();
        PhaseKingNode {
            me,
            params,
            value,
            cur,
            plurality: (Vec::new(), 0),
            outcome: Outcome::Pending,
            done: false,
        }
    }

    /// The node's outcome.
    pub fn outcome(&self) -> &Outcome {
        &self.outcome
    }

    /// Tally one vote per distinct peer (first message wins) plus this
    /// node's own vote; the plurality winner breaks ties toward the
    /// lexicographically smallest value so every correct node computes the
    /// same plurality from the same multiset.
    fn tally(&mut self, inbox: &[Envelope]) {
        let mut votes: HashMap<NodeId, Vec<u8>> = HashMap::new();
        votes.insert(self.me, self.cur.clone());
        for env in inbox {
            if let Ok(PkMsg::Vote(v)) = PkMsg::decode_exact(&env.payload) {
                votes.entry(env.from).or_insert(v);
            }
        }
        let mut counts: HashMap<&[u8], usize> = HashMap::new();
        for v in votes.values() {
            *counts.entry(v.as_slice()).or_insert(0) += 1;
        }
        let best = counts
            .into_iter()
            .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.cmp(va)))
            .expect("own vote always present");
        self.plurality = (best.0.to_vec(), best.1);
    }

    /// Apply the king rule for `phase` using the king's broadcast (if any).
    fn apply_king(&mut self, phase: usize, inbox: &[Envelope]) {
        let king = self.params.king(phase);
        let king_value = if king == self.me {
            Some(self.plurality.0.clone())
        } else {
            inbox.iter().find_map(|env| {
                (env.from == king)
                    .then(|| PkMsg::decode_exact(&env.payload).ok())
                    .flatten()
                    .and_then(|m| match m {
                        PkMsg::King(v) => Some(v),
                        _ => None,
                    })
            })
        };
        // Strong majority: > n/2 + t own-plurality votes ⇒ immune to the
        // king; otherwise adopt the king's value (default if king silent).
        if self.plurality.1 > self.params.n / 2 + self.params.t {
            self.cur = self.plurality.0.clone();
        } else {
            self.cur = king_value.unwrap_or_else(|| self.params.default_value.clone());
        }
    }
}

impl Node for PhaseKingNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if self.done {
            return;
        }
        let n = self.params.n;
        if round == 0 {
            if self.me == self.params.sender {
                let v = self.value.clone().expect("sender value");
                self.cur = v.clone();
                out.broadcast(n, self.me, PkMsg::Initial(v).encode_to_vec());
            }
            return;
        }
        if round == 1 {
            // Adopt the sender's value (default if silent/malformed), then
            // open phase 0 with a vote.
            if self.me != self.params.sender {
                if let Some(v) = inbox.iter().find_map(|env| {
                    (env.from == self.params.sender)
                        .then(|| PkMsg::decode_exact(&env.payload).ok())
                        .flatten()
                        .and_then(|m| match m {
                            PkMsg::Initial(v) => Some(v),
                            _ => None,
                        })
                }) {
                    self.cur = v;
                }
            }
            out.broadcast(n, self.me, PkMsg::Vote(self.cur.clone()).encode_to_vec());
            return;
        }
        // Rounds 2p+2: tally phase p's exchange; the king announces.
        // Rounds 2p+3: apply the king rule; vote for phase p+1 or decide.
        let phase = ((round - 2) / 2) as usize;
        if round.is_multiple_of(2) {
            self.tally(inbox);
            if self.params.king(phase) == self.me {
                out.broadcast(
                    n,
                    self.me,
                    PkMsg::King(self.plurality.0.clone()).encode_to_vec(),
                );
            }
        } else {
            self.apply_king(phase, inbox);
            if phase < self.params.t {
                out.broadcast(n, self.me, PkMsg::Vote(self.cur.clone()).encode_to_vec());
            } else {
                self.outcome = Outcome::Decided(self.cur.clone());
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl core::fmt::Debug for PhaseKingNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PhaseKingNode")
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
                Box::new(PhaseKingNode::new(
                    me,
                    PhaseKingParams::new(n, t, b"default".to_vec()),
                    (i == 0).then(|| value.to_vec()),
                )) as Box<dyn Node>
            })
            .collect()
    }

    fn outcomes(net: SyncNetwork, skip: usize) -> Vec<Outcome> {
        net.into_nodes()
            .into_iter()
            .skip(skip)
            .filter_map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<PhaseKingNode>()
                    .ok()
                    .map(|n| n.outcome)
            })
            .collect()
    }

    #[test]
    fn failure_free_decides_sender_value_with_predicted_messages() {
        for (n, t) in [(5usize, 1usize), (9, 2), (13, 3)] {
            let params = PhaseKingParams::new(n, t, b"default".to_vec());
            let mut net = SyncNetwork::new(build(n, t, b"v"));
            net.run_until_done(params.rounds());
            assert_eq!(
                net.stats().messages_total,
                params.failure_free_messages(),
                "n={n} t={t}"
            );
            for o in outcomes(net, 0) {
                assert_eq!(o, Outcome::Decided(b"v".to_vec()), "n={n} t={t}");
            }
        }
    }

    #[test]
    fn silent_sender_decides_default() {
        let (n, t) = (5usize, 1usize);
        let mut nodes = build(n, t, b"v");
        nodes[0] = Box::new(crate::adversary::SilentNode { me: NodeId(0) });
        let mut net = SyncNetwork::new(nodes);
        net.run_until_done(PhaseKingParams::new(n, t, b"default".to_vec()).rounds());
        for o in outcomes(net, 1) {
            assert_eq!(o, Outcome::Decided(b"default".to_vec()));
        }
    }

    #[test]
    fn noise_node_cannot_split_agreement() {
        let (n, t) = (5usize, 1usize);
        for noisy in 1..n {
            let mut nodes = build(n, t, b"v");
            nodes[noisy] = Box::new(crate::adversary::NoiseNode::new(
                NodeId(noisy as u16),
                n,
                3,
                4,
                24,
                8,
            ));
            let mut net = SyncNetwork::new(nodes);
            net.run_until_done(PhaseKingParams::new(n, t, b"default".to_vec()).rounds());
            let outs: Vec<Outcome> = net
                .into_nodes()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| *i != noisy)
                .filter_map(|(_, b)| {
                    (b as Box<dyn Any>)
                        .downcast::<PhaseKingNode>()
                        .ok()
                        .map(|n| n.outcome)
                })
                .collect();
            for o in outs {
                assert_eq!(o, Outcome::Decided(b"v".to_vec()), "noisy={noisy}");
            }
        }
    }

    #[test]
    fn ties_break_identically_everywhere() {
        // Two values with equal support: all correct nodes must pick the
        // same plurality (lexicographically smallest) and so agree.
        let (n, t) = (5usize, 1usize);
        let params = PhaseKingParams::new(n, t, b"default".to_vec());
        let mut node = PhaseKingNode::new(NodeId(1), params, None);
        node.cur = b"bbb".to_vec();
        let envs: Vec<Envelope> = [(0u16, b"aaa"), (2, b"aaa"), (3, b"bbb"), (4, b"ccc")]
            .into_iter()
            .map(|(from, v)| Envelope {
                from: NodeId(from),
                to: NodeId(1),
                round: 2,
                payload: PkMsg::Vote(v.to_vec()).encode_to_vec().into(),
            })
            .collect();
        node.tally(&envs);
        // aaa:2, bbb:2, ccc:1 → tie between aaa/bbb broken toward "aaa".
        assert_eq!(node.plurality, (b"aaa".to_vec(), 2));
    }

    #[test]
    fn duplicate_votes_from_one_peer_count_once() {
        let params = PhaseKingParams::new(5, 1, b"d".to_vec());
        let mut node = PhaseKingNode::new(NodeId(1), params, None);
        node.cur = b"x".to_vec();
        let mk = |v: &[u8]| Envelope {
            from: NodeId(2),
            to: NodeId(1),
            round: 2,
            payload: PkMsg::Vote(v.to_vec()).encode_to_vec().into(),
        };
        node.tally(&[mk(b"y"), mk(b"y"), mk(b"y")]);
        // One vote for y (peer 2), one for x (self): tie → "x" vs "y" →
        // lexicographically smallest is "x".
        assert_eq!(node.plurality, (b"x".to_vec(), 1));
    }

    #[test]
    fn codec_round_trip() {
        for msg in [
            PkMsg::Initial(b"a".to_vec()),
            PkMsg::Vote(vec![]),
            PkMsg::King(b"long value".to_vec()),
        ] {
            assert_eq!(PkMsg::decode_exact(&msg.encode_to_vec()).unwrap(), msg);
        }
    }

    #[test]
    fn rounds_formula() {
        assert_eq!(PhaseKingParams::new(5, 1, vec![]).rounds(), 6);
        assert_eq!(PhaseKingParams::new(9, 2, vec![]).rounds(), 8);
    }

    #[test]
    #[should_panic(expected = "n > 4t")]
    fn resilience_bound_enforced() {
        let _ = PhaseKingParams::new(8, 2, vec![]);
    }
}
