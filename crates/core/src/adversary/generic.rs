//! Protocol-agnostic byzantine behaviours.

use fd_crypto::ChaChaDrbg;
use fd_simnet::{Envelope, Node, NodeId, Outbox};

/// A crashed node: participates in nothing.
///
/// The weakest fault; every protocol must either tolerate it or discover it.
#[derive(Debug)]
pub struct SilentNode {
    /// Node identity.
    pub me: NodeId,
}

impl Node for SilentNode {
    fn id(&self) -> NodeId {
        self.me
    }
    fn on_round(&mut self, _round: u32, _inbox: &[Envelope], _out: &mut Outbox) {}
    fn is_done(&self) -> bool {
        true
    }
}

/// A node that floods every peer with random garbage each round.
///
/// Exercises every decode/verify path of the honest automata: anything
/// other than clean rejection or discovery is a bug.
pub struct NoiseNode {
    me: NodeId,
    n: usize,
    rng: ChaChaDrbg,
    messages_per_round: usize,
    max_len: usize,
    rounds: u32,
}

impl NoiseNode {
    /// Flood `messages_per_round` random payloads (≤ `max_len` bytes) to
    /// random peers in each of the first `rounds` rounds.
    pub fn new(
        me: NodeId,
        n: usize,
        seed: u64,
        messages_per_round: usize,
        max_len: usize,
        rounds: u32,
    ) -> Self {
        NoiseNode {
            me,
            n,
            rng: ChaChaDrbg::from_seed(seed ^ 0x4e4f_4953_4500_0000),
            messages_per_round,
            max_len,
            rounds,
        }
    }
}

impl Node for NoiseNode {
    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
        if round >= self.rounds || self.n < 2 {
            return;
        }
        for _ in 0..self.messages_per_round {
            let to = loop {
                let candidate = NodeId((self.rng.next_u64() % self.n as u64) as u16);
                if candidate != self.me {
                    break candidate;
                }
            };
            let len = (self.rng.next_u64() as usize) % (self.max_len + 1);
            let mut payload = vec![0u8; len];
            self.rng.fill_bytes(&mut payload);
            out.send(to, payload);
        }
    }

    fn is_done(&self) -> bool {
        true
    }
}

impl core::fmt::Debug for NoiseNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NoiseNode").field("me", &self.me).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_node_sends_nothing() {
        let mut node = SilentNode { me: NodeId(1) };
        let mut out = Outbox::new();
        node.on_round(0, &[], &mut out);
        assert!(out.is_empty());
        assert!(node.is_done());
    }

    #[test]
    fn noise_node_floods_deterministically() {
        let collect = |seed| {
            let mut node = NoiseNode::new(NodeId(0), 4, seed, 3, 16, 2);
            let mut all = Vec::new();
            for r in 0..3 {
                let mut out = Outbox::new();
                node.on_round(r, &[], &mut out);
                all.push(out.into_messages());
            }
            all
        };
        let a = collect(7);
        let b = collect(7);
        assert_eq!(a, b);
        assert_eq!(a[0].len(), 3);
        assert_eq!(a[1].len(), 3);
        assert!(a[2].is_empty(), "stops after configured rounds");
        // Never sends to itself.
        for round in &a {
            for (to, _) in round {
                assert_ne!(*to, NodeId(0));
            }
        }
    }
}
