//! Per-run network statistics — the raw material for every experiment table.

use crate::NodeId;

/// Message/byte/round accounting for one protocol run.
///
/// The paper's quantitative claims are message-complexity claims
/// (3n(n−1) for key distribution, n−1 per failure-discovery run,
/// O(n·t) non-authenticated), so the simulator counts everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Rounds actually executed.
    pub rounds: u32,
    /// Total messages delivered (sent to valid destinations).
    pub messages_total: usize,
    /// Total payload+header bytes on the wire.
    pub bytes_total: usize,
    /// Messages sent per round, indexed by round number.
    pub per_round: Vec<usize>,
    /// Messages sent per node, indexed by node.
    pub sent_by: Vec<usize>,
    /// Messages addressed to unknown node ids (dropped).
    pub dropped_invalid: usize,
}

impl NetStats {
    /// Create stats for an `n`-node run.
    pub fn new(n: usize) -> Self {
        NetStats {
            sent_by: vec![0; n],
            ..NetStats::default()
        }
    }

    /// Record one sent message.
    pub(crate) fn record_send(&mut self, from: NodeId, round: u32, wire_len: usize) {
        self.messages_total += 1;
        self.bytes_total += wire_len;
        let r = round as usize;
        if self.per_round.len() <= r {
            self.per_round.resize(r + 1, 0);
        }
        self.per_round[r] += 1;
        if let Some(slot) = self.sent_by.get_mut(from.index()) {
            *slot += 1;
        }
    }

    /// Record `count` sent messages sharing one sender, round, and wire
    /// size — the batched form [`record_send`](NetStats::record_send) for a
    /// compressed broadcast. Final counters are identical to calling
    /// `record_send` `count` times.
    pub(crate) fn record_send_n(
        &mut self,
        from: NodeId,
        round: u32,
        wire_len: usize,
        count: usize,
    ) {
        self.messages_total += count;
        self.bytes_total += wire_len * count;
        let r = round as usize;
        if self.per_round.len() <= r {
            self.per_round.resize(r + 1, 0);
        }
        self.per_round[r] += count;
        if let Some(slot) = self.sent_by.get_mut(from.index()) {
            *slot += count;
        }
    }

    /// Add the counts of sends another engine worker or mesh node
    /// recorded over the same rounds (per-round and per-node counts add up
    /// elementwise; `rounds` is left alone).
    pub fn merge(&mut self, other: &NetStats) {
        self.messages_total += other.messages_total;
        self.bytes_total += other.bytes_total;
        self.dropped_invalid += other.dropped_invalid;
        for (mine, theirs) in [
            (&mut self.per_round, &other.per_round),
            (&mut self.sent_by, &other.sent_by),
        ] {
            if mine.len() < theirs.len() {
                mine.resize(theirs.len(), 0);
            }
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    /// Merge another run's statistics into this one (for cumulative
    /// amortization accounting, experiment F1).
    pub fn absorb(&mut self, other: &NetStats) {
        self.rounds += other.rounds;
        self.messages_total += other.messages_total;
        self.bytes_total += other.bytes_total;
        self.dropped_invalid += other.dropped_invalid;
        if self.sent_by.len() < other.sent_by.len() {
            self.sent_by.resize(other.sent_by.len(), 0);
        }
        for (i, v) in other.sent_by.iter().enumerate() {
            self.sent_by[i] += v;
        }
        self.per_round.extend_from_slice(&other.per_round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = NetStats::new(2);
        s.record_send(NodeId(0), 0, 10);
        s.record_send(NodeId(0), 1, 20);
        s.record_send(NodeId(1), 1, 30);
        assert_eq!(s.messages_total, 3);
        assert_eq!(s.bytes_total, 60);
        assert_eq!(s.per_round, vec![1, 2]);
        assert_eq!(s.sent_by, vec![2, 1]);
    }

    #[test]
    fn absorb_sums() {
        let mut a = NetStats::new(2);
        a.record_send(NodeId(0), 0, 5);
        a.rounds = 1;
        let mut b = NetStats::new(2);
        b.record_send(NodeId(1), 0, 7);
        b.rounds = 2;
        a.absorb(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.messages_total, 2);
        assert_eq!(a.bytes_total, 12);
        assert_eq!(a.sent_by, vec![1, 1]);
    }

    #[test]
    fn record_send_n_matches_n_single_records() {
        let mut batched = NetStats::new(3);
        batched.record_send_n(NodeId(1), 2, 10, 4);
        let mut single = NetStats::new(3);
        for _ in 0..4 {
            single.record_send(NodeId(1), 2, 10);
        }
        assert_eq!(batched, single);
    }

    #[test]
    fn merge_adds_counts_of_the_same_rounds() {
        let mut a = NetStats::new(3);
        a.record_send(NodeId(0), 1, 10);
        a.rounds = 2;
        let mut b = NetStats::new(3);
        b.record_send_n(NodeId(2), 1, 5, 2);
        b.dropped_invalid = 1;
        a.merge(&b);
        assert_eq!(a.messages_total, 3);
        assert_eq!(a.bytes_total, 20);
        assert_eq!(a.per_round, vec![0, 3]);
        assert_eq!(a.sent_by, vec![1, 0, 2]);
        assert_eq!(a.dropped_invalid, 1);
        assert_eq!(a.rounds, 2);
    }

    #[test]
    fn unknown_sender_ignored_gracefully() {
        let mut s = NetStats::new(1);
        s.record_send(NodeId(9), 0, 1); // out of range: counted globally only
        assert_eq!(s.messages_total, 1);
        assert_eq!(s.sent_by, vec![0]);
    }
}
