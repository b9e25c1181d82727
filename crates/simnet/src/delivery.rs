//! The delivery representation both in-process engines share.
//!
//! Sends wait for their delivery round as [`Record`]s: one per
//! point-to-point message, one per broadcast and one per scatter over the
//! whole system (each standing for `n − 1` logical messages; a scatter
//! hands each receiver its own window of one shared buffer). Before a
//! round runs, [`Delivery::new`] indexes its records by destination with
//! one counting sort, and [`Delivery::inbound`] materializes one
//! receiver's envelopes, in send order, just before that receiver runs —
//! into an [`Arena`] the engine reuses, never into per-receiver inboxes
//! built up front.

use crate::node::OutOp;
use crate::{Envelope, NetStats, Node, NodeId, Payload};

/// Largest supported system, 65 534 nodes: the in-process engines mark a
/// broadcast and a scatter record with the two highest `u16` ids, so
/// neither names a node.
pub const MAX_NODES: usize = u16::MAX as usize - 1;

/// Check that `nodes[i].id() == NodeId(i)` (senders are stamped from
/// positions, N2) and that the system fits [`MAX_NODES`].
///
/// # Panics
///
/// Panics on the first mismatched id or on more than 65 534 nodes.
pub(crate) fn check_nodes(nodes: &[Box<dyn Node>]) {
    assert!(
        nodes.len() <= MAX_NODES,
        "{} nodes, at most {MAX_NODES} supported",
        nodes.len()
    );
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(
            node.id(),
            NodeId(i as u16),
            "node at index {i} reports id {}",
            node.id()
        );
    }
}

/// A sent message as an engine parks it until its delivery round.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    /// The shared payload; for a scatter, the first receiver's window.
    pub(crate) payload: Payload,
    /// Sender (stamped by the engine, N2).
    pub(crate) from: NodeId,
    /// Destination, [`Record::BROADCAST`] or [`Record::SCATTER`].
    pub(crate) to: NodeId,
    /// Round the message was sent in (what [`Envelope::round`] carries
    /// and what fault plans key on).
    pub(crate) round: u32,
}

impl Record {
    /// `to` of a broadcast record: every node of the system but `from`.
    pub(crate) const BROADCAST: NodeId = NodeId(u16::MAX);

    /// `to` of a scatter record: every node of the system but `from`, the
    /// k-th of them receiving `payload.stride(k)`.
    pub(crate) const SCATTER: NodeId = NodeId(u16::MAX - 1);

    /// Whether the record stands for one message to every other node.
    fn is_fan_out(&self) -> bool {
        self.to == Record::BROADCAST || self.to == Record::SCATTER
    }

    /// Whether node `me` of the system receives a copy.
    pub(crate) fn covers(&self, me: NodeId) -> bool {
        self.to == me || (self.is_fan_out() && self.from != me)
    }

    /// Which window of a scatter `to` receives: its rank among the nodes
    /// other than the sender.
    fn window(&self, to: NodeId) -> Option<usize> {
        (self.to == Record::SCATTER).then(|| to.index() - usize::from(to > self.from))
    }

    /// The copy delivered to `to`.
    pub(crate) fn envelope(&self, to: NodeId) -> Envelope {
        Envelope {
            from: self.from,
            to,
            round: self.round,
            payload: match self.window(to) {
                Some(k) => self.payload.stride(k),
                None => self.payload.clone(),
            },
        }
    }
}

/// Append a node's queued sends to `records` in send order and count
/// them in `stats`. A broadcast or scatter over the whole system from its
/// sender stays one record; any other expands per destination in
/// ascending id order, and a destination outside the `n`-node system is
/// counted as `dropped_invalid` and dropped.
pub(crate) fn push_ops(
    ops: impl IntoIterator<Item = OutOp>,
    from: NodeId,
    round: u32,
    n: usize,
    records: &mut Vec<Record>,
    stats: &mut NetStats,
) {
    let mut invalid = 0;
    let mut push = |to: NodeId, count: usize, payload: Payload| {
        stats.record_send_n(from, round, Envelope::wire_len_with(payload.len()), count);
        records.push(Record {
            payload,
            from,
            to,
            round,
        });
    };
    for op in ops {
        match op {
            OutOp::Send(to, payload) if to.index() < n => push(to, 1, payload),
            OutOp::Send(..) => invalid += 1,
            OutOp::Broadcast {
                n: bn,
                skip,
                payload,
            } if bn == n && skip == from => {
                if n > 1 {
                    push(Record::BROADCAST, n - 1, payload);
                }
            }
            OutOp::Scatter { n: sn, skip, first } if sn == n && skip == from => {
                if n > 1 {
                    push(Record::SCATTER, n - 1, first);
                }
            }
            op => op.for_each_message(|to, payload| {
                if to.index() < n {
                    push(to, 1, payload);
                } else {
                    invalid += 1;
                }
            }),
        }
    }
    stats.dropped_invalid += invalid;
}

/// One round's records, indexed by destination. Positions count the
/// records of all segments in order, so walking positions upward is send
/// order.
#[derive(Debug)]
pub(crate) struct Delivery<'a> {
    segments: &'a [Vec<Record>],
    /// Position of each segment's first record, then the total.
    starts: Vec<u32>,
    /// `ends[i]` is where node `i`'s slice of `index` ends; it starts
    /// where node `i − 1`'s ends (at 0 for node 0).
    ends: Vec<u32>,
    /// Positions of the point-to-point records, grouped by destination
    /// (a counting sort, so ascending within each group).
    index: Vec<u32>,
    /// Positions of the broadcast and scatter records, ascending.
    fan_outs: Vec<u32>,
    /// Logical messages the records stand for.
    messages: usize,
}

impl<'a> Delivery<'a> {
    /// Index `segments`, whose records all have destinations below `n`
    /// (or are broadcasts or scatters), walking them in order.
    pub(crate) fn new(segments: &'a [Vec<Record>], n: usize) -> Self {
        let mut starts = Vec::with_capacity(segments.len() + 1);
        let mut ends = vec![0u32; n];
        let mut fan_outs = Vec::new();
        let mut pos = 0u32;
        for segment in segments {
            starts.push(pos);
            for record in segment {
                if record.is_fan_out() {
                    fan_outs.push(pos);
                } else {
                    ends[record.to.index()] += 1;
                }
                pos += 1;
            }
        }
        starts.push(pos);
        // Counts to starts; each start then walks to its end as the
        // positions are filed.
        let mut total = 0;
        for slot in &mut ends {
            let count = *slot;
            *slot = total;
            total += count;
        }
        let mut index = vec![0u32; total as usize];
        for (pos, record) in (0u32..).zip(segments.iter().flatten()) {
            if !record.is_fan_out() {
                let slot = &mut ends[record.to.index()];
                index[*slot as usize] = pos;
                *slot += 1;
            }
        }
        let messages = total as usize + fan_outs.len() * n.saturating_sub(1);
        Delivery {
            segments,
            starts,
            ends,
            index,
            fan_outs,
            messages,
        }
    }

    /// Logical messages this round delivers (before link faults).
    pub(crate) fn messages(&self) -> usize {
        self.messages
    }

    /// Node `me`'s envelopes in send order: its point-to-point records
    /// merged with the broadcasts and scatters of every other sender.
    pub(crate) fn inbound(&self, me: NodeId) -> Inbound<'_> {
        let i = me.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Inbound {
            delivery: self,
            me,
            one: &self.index[start as usize..self.ends[i] as usize],
            all: &self.fan_outs,
            segment: 0,
        }
    }
}

/// Iterator of [`Delivery::inbound`].
#[derive(Debug)]
pub(crate) struct Inbound<'a> {
    delivery: &'a Delivery<'a>,
    me: NodeId,
    /// Point-to-point positions still to deliver.
    one: &'a [u32],
    /// Broadcast and scatter positions still to deliver.
    all: &'a [u32],
    /// Segment of the last position read (positions only grow).
    segment: usize,
}

impl<'a> Inbound<'a> {
    /// The next record addressed to `me`, with its position.
    fn next_record(&mut self) -> Option<(u32, &'a Record)> {
        loop {
            let pos = match (self.one.split_first(), self.all.split_first()) {
                (Some((&one, rest)), Some((&all, _))) if one < all => {
                    self.one = rest;
                    one
                }
                (_, Some((&all, rest))) => {
                    self.all = rest;
                    all
                }
                (Some((&one, rest)), None) => {
                    self.one = rest;
                    one
                }
                (None, None) => return None,
            };
            let starts = &self.delivery.starts;
            while starts[self.segment + 1] <= pos {
                self.segment += 1;
            }
            let record =
                &self.delivery.segments[self.segment][(pos - starts[self.segment]) as usize];
            if record.covers(self.me) {
                return Some((pos, record));
            }
        }
    }
}

impl Iterator for Inbound<'_> {
    type Item = Envelope;

    fn next(&mut self) -> Option<Envelope> {
        self.next_record()
            .map(|(_, record)| record.envelope(self.me))
    }
}

/// A reused inbox buffer that receivers fill one after another.
///
/// Consecutive receivers of a round mostly get the same records — every
/// broadcast and scatter but their own — so [`Arena::refill`] keeps each
/// envelope whose record is unchanged at its index and only rewrites its
/// destination, and for a scatter its window in place: a payload handle
/// is cloned, and later released, once per change between receivers
/// rather than once per receiver.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    /// The current receiver's inbox.
    pub(crate) inbox: Vec<Envelope>,
    /// Position of the record each leading entry of `inbox` was
    /// materialized from, in the delivery last refilled from.
    sources: Vec<u32>,
}

impl Arena {
    /// Empty the inbox for a receiver assembled by hand.
    pub(crate) fn clear(&mut self) {
        self.inbox.clear();
        self.sources.clear();
    }

    /// Forget which records the inbox came from: call before refilling
    /// from a new [`Delivery`], whose positions name other records.
    pub(crate) fn forget(&mut self) {
        self.sources.clear();
    }

    /// Make the inbox exactly `me`'s envelopes of `delivery`, in send
    /// order, equal to what [`Delivery::inbound`] yields.
    pub(crate) fn refill(&mut self, delivery: &Delivery<'_>, me: NodeId) {
        let mut records = delivery.inbound(me);
        let mut k = 0;
        while let Some((pos, record)) = records.next_record() {
            // `sources` covers a prefix of `inbox`, at least `0..k`.
            if self.sources.get(k) == Some(&pos) {
                let slot = &mut self.inbox[k];
                slot.to = me;
                if let Some(window) = record.window(me) {
                    slot.payload.restride(&record.payload, window);
                }
            } else {
                let envelope = record.envelope(me);
                match self.inbox.get_mut(k) {
                    Some(slot) => *slot = envelope,
                    None => self.inbox.push(envelope),
                }
                match self.sources.get_mut(k) {
                    Some(slot) => *slot = pos,
                    None => self.sources.push(pos),
                }
            }
            k += 1;
        }
        self.inbox.truncate(k);
        self.sources.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outbox;

    #[test]
    fn a_record_is_no_larger_than_an_envelope() {
        assert!(std::mem::size_of::<Record>() <= std::mem::size_of::<Envelope>());
    }

    fn records(n: usize, from: NodeId, fill: impl FnOnce(&mut Outbox)) -> (Vec<Record>, NetStats) {
        let mut out = Outbox::new();
        fill(&mut out);
        let mut records = Vec::new();
        let mut stats = NetStats::new(n);
        push_ops(out.into_ops(), from, 0, n, &mut records, &mut stats);
        (records, stats)
    }

    #[test]
    fn broadcasts_stay_compressed_only_over_the_whole_system() {
        let (recs, stats) = records(4, NodeId(1), |out| {
            out.broadcast(4, NodeId(1), b"a");
            out.broadcast(6, NodeId(1), b"b");
            out.broadcast(4, NodeId(2), b"c");
            out.send(NodeId(9), b"d");
        });
        let dests: Vec<u16> = recs.iter().map(|r| r.to.0).collect();
        assert_eq!(dests, [u16::MAX, 0, 2, 3, 0, 1, 3]);
        assert_eq!(stats.messages_total, 3 + 3 + 3);
        assert_eq!(stats.dropped_invalid, 2 + 1);
        assert_eq!(stats.sent_by, [0, 9, 0, 0]);
    }

    /// One 2-byte window per peer of `n` from `from`: `[from, rank]`.
    fn windows(n: usize, from: NodeId) -> Vec<u8> {
        let peers = NodeId::all(n).filter(|&peer| peer != from);
        peers
            .enumerate()
            .flat_map(|(rank, _)| [from.0 as u8, rank as u8])
            .collect()
    }

    #[test]
    fn a_whole_system_scatter_is_one_record_and_each_receiver_gets_its_window() {
        let n = 5;
        let from = NodeId(2);
        let (recs, stats) = records(n, from, |out| out.scatter(n, from, windows(n, from), 2));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].to, Record::SCATTER);
        assert_eq!(stats.messages_total, n - 1);
        assert_eq!(stats.bytes_total, (n - 1) * Envelope::wire_len_with(2));
        assert_eq!(stats.dropped_invalid, 0);
        let segments = [recs];
        let delivery = Delivery::new(&segments, n);
        assert_eq!(delivery.messages(), n - 1);
        for (rank, me) in NodeId::all(n).filter(|&me| me != from).enumerate() {
            let inbox: Vec<Envelope> = delivery.inbound(me).collect();
            assert_eq!(inbox.len(), 1, "node {me}");
            assert_eq!(inbox[0].payload, [2, rank as u8], "node {me}");
            assert!(inbox[0].payload.shares_buffer_with(&segments[0][0].payload));
        }
        assert_eq!(delivery.inbound(from).count(), 0);
    }

    #[test]
    fn a_scatter_over_another_n_expands_per_destination() {
        // Over 6 ids in a 4-node system: ids 4 and 5 are dropped.
        let (recs, stats) = records(4, NodeId(1), |out| {
            out.scatter(6, NodeId(1), windows(6, NodeId(1)), 2);
        });
        let sent: Vec<(u16, Vec<u8>)> = recs.iter().map(|r| (r.to.0, r.payload.to_vec())).collect();
        assert_eq!(sent, [(0, vec![1, 0]), (2, vec![1, 1]), (3, vec![1, 2])]);
        assert_eq!(stats.messages_total, 3);
        assert_eq!(stats.dropped_invalid, 2);
        // Over 3 ids in a 4-node system: two messages, nothing dropped.
        let (recs, stats) = records(4, NodeId(0), |out| {
            out.scatter(3, NodeId(0), windows(3, NodeId(0)), 2);
        });
        let dests: Vec<u16> = recs.iter().map(|r| r.to.0).collect();
        assert_eq!(dests, [1, 2]);
        assert_eq!((stats.messages_total, stats.dropped_invalid), (2, 0));
    }

    #[test]
    fn refilling_the_arena_rewindows_scatters_in_place() {
        let n = 6;
        let mut segment = Vec::new();
        for from in NodeId::all(n) {
            let (recs, _) = records(n, from, |out| {
                out.scatter(n, from, windows(n, from), 2);
                out.broadcast(n, from, vec![from.0 as u8]);
            });
            segment.extend(recs);
        }
        let segments = [segment];
        let delivery = Delivery::new(&segments, n);
        let mut arena = Arena::default();
        for me in NodeId::all(n) {
            arena.refill(&delivery, me);
            let expected: Vec<Envelope> = delivery.inbound(me).collect();
            assert_eq!(arena.inbox, expected, "node {me}");
            for (env, want) in arena.inbox.iter().zip(&expected) {
                assert_eq!(env.payload.ident(), want.payload.ident(), "node {me}");
            }
        }
        // One handle per record in the records, one per envelope of the
        // last receiver: the refills moved windows, they kept no clones.
        let scatter = &segments[0][0].payload;
        assert_eq!(scatter.ref_count(), 1 + 1);
    }

    #[test]
    fn refilling_one_arena_receiver_after_receiver_matches_inbound() {
        let n = 5;
        let mut segments = vec![Vec::new(), Vec::new()];
        for from in NodeId::all(n) {
            let (records, _) = records(n, from, |out| {
                out.broadcast(n, from, vec![from.0 as u8]);
                if from.0 % 2 == 0 {
                    out.send(NodeId((from.0 + 1) % n as u16), vec![from.0 as u8, 1]);
                }
            });
            segments[usize::from(from.0 >= 3)].extend(records);
        }
        let delivery = Delivery::new(&segments, n);
        let mut arena = Arena::default();
        for round in 0..2 {
            for me in NodeId::all(n) {
                arena.refill(&delivery, me);
                let expected: Vec<Envelope> = delivery.inbound(me).collect();
                assert_eq!(arena.inbox, expected, "round {round}, node {me}");
                // What an engine appends after the records (reordered
                // messages, a rusher's preview) is overwritten next time.
                arena.inbox.push(expected[0].clone());
            }
            arena.clear();
        }
    }

    #[test]
    fn inbound_merges_sends_and_broadcasts_in_send_order_across_segments() {
        let n = 3;
        let (a, _) = records(n, NodeId(0), |out| {
            out.send(NodeId(2), b"0a");
            out.broadcast(n, NodeId(0), b"0b");
        });
        let (b, _) = records(n, NodeId(1), |out| {
            out.broadcast(n, NodeId(1), b"1a");
            out.send(NodeId(1), b"1b");
            out.send(NodeId(2), b"1c");
        });
        let segments = [a, Vec::new(), b];
        let delivery = Delivery::new(&segments, n);
        assert_eq!(delivery.messages(), 1 + 2 + 2 + 1 + 1);
        let seen = |me: u16| -> Vec<Vec<u8>> {
            delivery
                .inbound(NodeId(me))
                .inspect(|env| assert_eq!(env.to, NodeId(me)))
                .map(|env| env.payload.to_vec())
                .collect()
        };
        assert_eq!(seen(0), [b"1a".to_vec()]);
        assert_eq!(seen(1), [b"0b".to_vec(), b"1b".to_vec()]);
        assert_eq!(
            seen(2),
            [
                b"0a".to_vec(),
                b"0b".to_vec(),
                b"1a".to_vec(),
                b"1c".to_vec()
            ]
        );
    }
}
