//! The deterministic round-synchronous simulator.

use crate::delivery::{self, Arena, Delivery, Record};
use crate::fault::{self, FaultPlan, LinkFault};
use crate::{Envelope, NetStats, Node, NodeId, Outbox};

/// Rounds that deliver fewer messages than this step every node on the
/// calling thread: below it, spawning a worker costs more than the round.
const PARALLEL_MIN_DELIVERIES: usize = 256;

/// Round-synchronous network simulator (paper §2 model).
///
/// Owns the node automata and drives them in lock-step rounds: everything
/// sent in round `r` is delivered at the start of round `r + 1`, reliably
/// (N1) and with the sender stamped by the simulator (N2). Execution is
/// fully deterministic for any worker count (see
/// [`SyncNetwork::set_workers`]): message order within a round is
/// sender-id order, then send order.
///
/// A round's sends wait as compressed records (a broadcast or a scatter is
/// one record for `n − 1` messages) in one segment per worker's id range. The next
/// round indexes them by destination once and materializes each
/// receiver's inbox, link faults applied, into a reused arena just before
/// the receiver runs — the same delivery path as [`crate::EventNetwork`].
pub struct SyncNetwork {
    nodes: Vec<Box<dyn Node>>,
    /// Records sent in the round just executed, awaiting delivery: one
    /// segment per worker's id range, in id order, then the rushing
    /// nodes' segment — walking them in order is sender-id order.
    sent: Vec<Vec<Record>>,
    /// Threads that may step one round's nodes (at least 1).
    workers: usize,
    /// Messages held back by a [`LinkFault::Delay`], with the round in
    /// which they become deliverable, in the order they were held.
    parked: Vec<(u32, Envelope)>,
    round: u32,
    stats: NetStats,
    faults: FaultPlan,
    /// Nodes with rushing power (see [`SyncNetwork::set_rushing`]).
    rushing: Vec<NodeId>,
    /// End-of-round wall-clock marks (µs since [`SyncNetwork::enable_round_marks`]),
    /// one per executed round. `None` when observability is off.
    round_marks: Option<Vec<u64>>,
    /// Wall-clock epoch for `round_marks`.
    marks_epoch: Option<std::time::Instant>,
    /// Peak in-flight queue depth seen at any round boundary (only tracked
    /// while round marks are enabled).
    max_queue_depth: usize,
}

impl SyncNetwork {
    /// Build a network from node automata.
    ///
    /// # Panics
    ///
    /// Panics if `nodes[i].id() != NodeId(i)` — ids must match positions so
    /// the simulator can stamp senders (N2) — or on more than 65 534 nodes.
    pub fn new(nodes: Vec<Box<dyn Node>>) -> Self {
        delivery::check_nodes(&nodes);
        let n = nodes.len();
        SyncNetwork {
            nodes,
            sent: Vec::new(),
            workers: 1,
            parked: Vec::new(),
            round: 0,
            stats: NetStats::new(n),
            faults: FaultPlan::new(),
            rushing: Vec::new(),
            round_marks: None,
            marks_epoch: None,
            max_queue_depth: 0,
        }
    }

    /// Enable end-of-round timestamping. The sync engine has no virtual
    /// clock, so marks are monotonic wall-clock microseconds measured from
    /// this call; they are *not* deterministic and must never feed an
    /// equivalence surface. Also starts tracking the peak in-flight queue
    /// depth observed at round boundaries.
    pub fn enable_round_marks(&mut self) {
        self.round_marks = Some(Vec::new());
        self.marks_epoch = Some(std::time::Instant::now());
    }

    /// End-of-round marks recorded so far (µs since
    /// [`SyncNetwork::enable_round_marks`]), or `None` when observability
    /// is off.
    pub fn round_marks(&self) -> Option<&[u64]> {
        self.round_marks.as_deref()
    }

    /// Peak in-flight queue depth observed at round boundaries, or `None`
    /// when round marks were never enabled.
    pub fn max_queue_depth(&self) -> Option<usize> {
        self.round_marks.as_ref().map(|_| self.max_queue_depth)
    }

    /// Step each round's non-rushing nodes on up to `workers` threads
    /// (default 1; 0 counts as 1). The nodes are split into contiguous id
    /// ranges: the calling thread runs the first, scoped threads the rest.
    /// Every range reads the round's one shared destination index,
    /// materializes each of its receivers' inboxes in its own reused
    /// arena, and turns its nodes' sends into records in its own segment;
    /// the segments are delivered in id order — so delivery order,
    /// statistics and every node's inputs are the same for any worker
    /// count. Rounds delivering fewer than 256 messages use the calling
    /// thread alone.
    ///
    /// That holds as long as nodes share no state whose outcome depends
    /// on the order they touch it in: a verification cache shared by every
    /// node of a protocol run counts hits and misses by arrival, and its
    /// mutexes serialize the workers anyway, so protocol runs keep one
    /// worker. A node that panics on a worker thread re-raises its own
    /// panic payload on the calling thread.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Install a link-fault plan (deliberate N1 violations for tests).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Grant *rushing* power to the given (byzantine) nodes: in every
    /// round they act **after** all other nodes and additionally see the
    /// messages those nodes addressed to them **in the same round**,
    /// appended to their regular inbox. This is the standard strongest
    /// adversary of the synchronous model — it can adapt its round-`r`
    /// messages to the correct nodes' round-`r` messages.
    ///
    /// The previewed envelopes are still delivered normally in round
    /// `r + 1` (the rusher merely peeks early), so a rushing node sees
    /// them twice; honest automata are never rushing, and adversaries
    /// don't care. N2 is unaffected: the rusher still cannot spoof its
    /// sender stamp.
    pub fn set_rushing(&mut self, nodes: Vec<NodeId>) {
        self.rushing = nodes;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for the degenerate empty network.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The next round number to execute.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &dyn Node {
        self.nodes[id.index()].as_ref()
    }

    /// Consume the network, returning the automata for outcome inspection.
    pub fn into_nodes(self) -> Vec<Box<dyn Node>> {
        self.nodes
    }

    /// Consume the network, returning the automata *and* the statistics by
    /// move — the report path's alternative to `stats().clone()` +
    /// `into_nodes()`.
    pub fn finish(self) -> (Vec<Box<dyn Node>>, NetStats) {
        (self.nodes, self.stats)
    }

    /// Send records parked for the next round: one per point-to-point
    /// message and one per broadcast or scatter over the whole system.
    pub fn parked_records(&self) -> usize {
        self.sent.iter().map(Vec::len).sum()
    }

    /// `true` when every node reports [`Node::is_done`].
    pub fn all_done(&self) -> bool {
        self.nodes.iter().all(|n| n.is_done())
    }

    /// Execute one synchronous round.
    pub fn step(&mut self) {
        let round = self.round;
        let n = self.nodes.len();
        let previous = std::mem::take(&mut self.sent);
        let delivery = Delivery::new(&previous, n);
        // Held messages due now, grouped by receiver in the order they
        // were held (a stable sort).
        let (mut matured, held) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition::<Vec<_>, _>(|&(due, _)| due <= round);
        self.parked = held;
        matured.sort_by_key(|(_, env)| env.to);
        let input = RoundInput {
            round,
            n,
            delivery: &delivery,
            matured: &matured,
            faults: &self.faults,
            rushing: &self.rushing,
        };

        // Non-rushing nodes act first, one contiguous id range per worker;
        // rushing nodes act last and additionally preview the current
        // round's messages addressed to them (see
        // [`SyncNetwork::set_rushing`]).
        let workers = if delivery.messages() + matured.len() < PARALLEL_MIN_DELIVERIES {
            1
        } else {
            self.workers
        };
        let chunk = n.div_ceil(workers).max(1);
        let mut ranges = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut chunks = self
                .nodes
                .chunks_mut(chunk)
                .enumerate()
                .map(|(r, nodes)| (r * chunk, nodes));
            let first = chunks.next();
            let spawned: Vec<_> = chunks
                .map(|(base, nodes)| scope.spawn(move || input.step_range(base, nodes)))
                .collect();
            if let Some((base, nodes)) = first {
                ranges.push(input.step_range(base, nodes));
            }
            for worker in spawned {
                match worker.join() {
                    Ok(range) => ranges.push(range),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        let sent_before = self.stats.messages_total;
        let mut sent = Vec::with_capacity(ranges.len() + 1);
        for range in ranges {
            self.stats.merge(&range.stats);
            self.parked.extend(range.parked);
            sent.push(range.records);
        }
        let mut rushed = Vec::new();
        let mut arena = Arena::default();
        for me in NodeId::all(n).filter(|id| self.rushing.contains(id)) {
            let inbox = input.inbox(me, &mut arena, &mut self.parked);
            inbox.extend(
                sent.iter()
                    .chain([&rushed])
                    .flatten()
                    .filter(|record| record.covers(me))
                    .map(|record| record.envelope(me)),
            );
            let mut out = Outbox::new();
            self.nodes[me.index()].on_round(round, inbox, &mut out);
            delivery::push_ops(out.into_ops(), me, round, n, &mut rushed, &mut self.stats);
        }
        sent.push(rushed);
        let in_flight = self.stats.messages_total - sent_before;
        self.sent = sent;

        self.round += 1;
        self.stats.rounds = self.round;
        if let Some(marks) = self.round_marks.as_mut() {
            let epoch = self.marks_epoch.expect("marks epoch set with round_marks");
            marks.push(u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX));
            let depth = in_flight + self.parked.len();
            self.max_queue_depth = self.max_queue_depth.max(depth);
        }
    }

    /// Run until every node is done (checked *after* at least one round) or
    /// `max_rounds` is reached. Returns the number of rounds executed.
    pub fn run_until_done(&mut self, max_rounds: u32) -> u32 {
        while self.round < max_rounds {
            self.step();
            if self.all_done() && self.sent.iter().all(Vec::is_empty) && self.parked.is_empty() {
                break;
            }
        }
        self.round
    }
}

/// What every worker of one round reads.
#[derive(Clone, Copy)]
struct RoundInput<'a> {
    round: u32,
    n: usize,
    /// The previous round's records, indexed by destination.
    delivery: &'a Delivery<'a>,
    /// Held messages due this round, grouped by receiver.
    matured: &'a [(u32, Envelope)],
    faults: &'a FaultPlan,
    rushing: &'a [NodeId],
}

/// What one id range produced in a round.
struct RangeOutput {
    /// Its nodes' sends, in id order, then send order.
    records: Vec<Record>,
    /// Those sends' statistics.
    stats: NetStats,
    /// Messages its receivers' link faults held back.
    parked: Vec<(u32, Envelope)>,
}

impl RoundInput<'_> {
    /// Materialize `me`'s inbox in `arena`: its held messages due now
    /// first (they are older), then the previous round's messages in send
    /// order with link faults applied — a delayed one goes to `parked` —
    /// then the reordered ones.
    fn inbox<'b>(
        &self,
        me: NodeId,
        arena: &'b mut Arena,
        parked: &mut Vec<(u32, Envelope)>,
    ) -> &'b mut Vec<Envelope> {
        let lo = self.matured.partition_point(|(_, env)| env.to < me);
        let hi = self.matured.partition_point(|(_, env)| env.to <= me);
        let matured = &self.matured[lo..hi];
        if matured.is_empty() && self.faults.is_empty() {
            arena.refill(self.delivery, me);
            return &mut arena.inbox;
        }
        arena.clear();
        let inbox = &mut arena.inbox;
        inbox.extend(matured.iter().map(|(_, env)| env.clone()));
        let mut late = Vec::new();
        for env in self.delivery.inbound(me) {
            match self.faults.lookup(env.round, env.from, env.to) {
                // A zero-round delay is a no-op (as on the event engine,
                // where it adds zero ticks).
                Some(LinkFault::Delay { rounds }) if rounds > 0 => {
                    parked.push((self.round.saturating_add(rounds), env));
                }
                fault => fault::deliver(fault, env, inbox, &mut late),
            }
        }
        inbox.append(&mut late);
        inbox
    }

    /// Step one contiguous id range, `base` being its first id: each
    /// non-rushing node runs on its materialized inbox and its sends join
    /// the range's segment in send order.
    fn step_range(&self, base: usize, nodes: &mut [Box<dyn Node>]) -> RangeOutput {
        let mut output = RangeOutput {
            records: Vec::new(),
            stats: NetStats::new(self.n),
            parked: Vec::new(),
        };
        let mut arena = Arena::default();
        for (i, node) in nodes.iter_mut().enumerate() {
            let me = NodeId((base + i) as u16);
            if self.rushing.contains(&me) {
                continue;
            }
            let inbox = self.inbox(me, &mut arena, &mut output.parked);
            let mut out = Outbox::new();
            node.on_round(self.round, inbox, &mut out);
            delivery::push_ops(
                out.into_ops(),
                me,
                self.round,
                self.n,
                &mut output.records,
                &mut output.stats,
            );
        }
        output
    }
}

impl core::fmt::Debug for SyncNetwork {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SyncNetwork")
            .field("n", &self.nodes.len())
            .field("round", &self.round)
            .field("records", &self.parked_records())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// Sends its id to every peer in round 0, then records what it saw.
    struct Echo {
        id: NodeId,
        n: usize,
        seen: Vec<(NodeId, Vec<u8>)>,
    }

    impl Node for Echo {
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
            if round == 0 {
                out.broadcast(self.n, self.id, [self.id.0 as u8]);
            }
            for env in inbox {
                self.seen.push((env.from, env.payload.to_vec()));
            }
        }
        fn is_done(&self) -> bool {
            self.seen.len() + 1 >= self.n
        }
    }

    fn echo_net(n: usize) -> SyncNetwork {
        let nodes: Vec<Box<dyn Node>> = (0..n)
            .map(|i| {
                Box::new(Echo {
                    id: NodeId(i as u16),
                    n,
                    seen: Vec::new(),
                }) as Box<dyn Node>
            })
            .collect();
        SyncNetwork::new(nodes)
    }

    #[test]
    fn rushing_node_previews_current_round() {
        // Node 2 is rushing: in round 0 it must already see the round-0
        // messages the others addressed to it.
        let mut net = echo_net(3);
        net.set_rushing(vec![NodeId(2)]);
        net.step();
        let rusher = (net.node(NodeId(2)) as &dyn Any)
            .downcast_ref::<Echo>()
            .unwrap();
        let seen0: Vec<NodeId> = rusher.seen.iter().map(|(f, _)| *f).collect();
        assert_eq!(seen0, vec![NodeId(0), NodeId(1)], "preview in round 0");
        // Non-rushing nodes saw nothing yet.
        let honest = (net.node(NodeId(0)) as &dyn Any)
            .downcast_ref::<Echo>()
            .unwrap();
        assert!(honest.seen.is_empty());
    }

    #[test]
    fn rushing_preview_does_not_consume_delivery() {
        // The previewed messages are still delivered normally next round.
        let mut net = echo_net(3);
        net.set_rushing(vec![NodeId(2)]);
        net.step();
        net.step();
        let rusher = (net.node(NodeId(2)) as &dyn Any)
            .downcast_ref::<Echo>()
            .unwrap();
        // Preview (2) + regular delivery (2) = 4 sightings.
        assert_eq!(rusher.seen.len(), 4);
    }

    #[test]
    fn rushing_does_not_change_honest_traffic_or_stats() {
        let mut plain = echo_net(4);
        plain.run_until_done(5);
        let mut rushed = echo_net(4);
        rushed.set_rushing(vec![NodeId(3)]);
        rushed.run_until_done(5);
        assert_eq!(plain.stats().messages_total, rushed.stats().messages_total);
    }

    #[test]
    fn full_mesh_exchange() {
        let mut net = echo_net(5);
        let rounds = net.run_until_done(10);
        assert_eq!(rounds, 2); // send in 0, receive in 1
        assert_eq!(net.stats().messages_total, 20); // n(n-1)
        let nodes = net.into_nodes();
        for node in &nodes {
            let echo = (&**node as &dyn Any).downcast_ref::<Echo>().unwrap();
            assert_eq!(echo.seen.len(), 4);
        }
    }

    #[test]
    fn sender_is_stamped_not_spoofable() {
        // The Echo node puts its id in the payload; check envelope.from
        // always matches, as stamped by the simulator.
        let mut net = echo_net(3);
        net.run_until_done(5);
        let nodes = net.into_nodes();
        for node in nodes {
            let echo = (&*node as &dyn Any).downcast_ref::<Echo>().unwrap();
            for (from, payload) in &echo.seen {
                assert_eq!(from.0 as u8, payload[0]);
            }
        }
    }

    #[test]
    fn drop_fault_suppresses_delivery() {
        let mut net = echo_net(3);
        net.set_fault_plan(FaultPlan::new().with(0, NodeId(0), NodeId(1), LinkFault::Drop));
        net.run_until_done(5);
        let nodes = net.into_nodes();
        let victim = (&*nodes[1] as &dyn Any).downcast_ref::<Echo>().unwrap();
        assert_eq!(victim.seen.len(), 1); // only P2's message arrived
    }

    #[test]
    fn corrupt_fault_flips_byte() {
        let mut net = echo_net(2);
        net.set_fault_plan(FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(1),
            LinkFault::Corrupt {
                offset: 0,
                mask: 0xff,
            },
        ));
        net.run_until_done(5);
        let nodes = net.into_nodes();
        let victim = (&*nodes[1] as &dyn Any).downcast_ref::<Echo>().unwrap();
        assert_eq!(victim.seen[0].1[0], 0xff); // 0 ^ 0xff
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let mut net = echo_net(2);
        net.set_fault_plan(FaultPlan::new().with(0, NodeId(0), NodeId(1), LinkFault::Duplicate));
        net.run_until_done(5);
        let nodes = net.into_nodes();
        let victim = (&*nodes[1] as &dyn Any).downcast_ref::<Echo>().unwrap();
        assert_eq!(victim.seen.len(), 2);
    }

    #[test]
    fn delay_fault_postpones_delivery() {
        let mut net = echo_net(3);
        net.set_fault_plan(FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(1),
            LinkFault::Delay { rounds: 2 },
        ));
        net.step(); // round 0: sends
        net.step(); // round 1: P2's message arrives, P0's is held
        {
            let victim = (net.node(NodeId(1)) as &dyn Any)
                .downcast_ref::<Echo>()
                .unwrap();
            assert_eq!(victim.seen.len(), 1);
            assert_eq!(victim.seen[0].0, NodeId(2));
        }
        net.step(); // round 2: still held (due round 3)
        net.step(); // round 3: delayed message matures
        let victim = (net.node(NodeId(1)) as &dyn Any)
            .downcast_ref::<Echo>()
            .unwrap();
        assert_eq!(victim.seen.len(), 2);
        assert_eq!(victim.seen[1].0, NodeId(0));
    }

    #[test]
    fn delayed_messages_keep_run_alive() {
        let mut net = echo_net(2);
        net.set_fault_plan(FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(1),
            LinkFault::Delay { rounds: 3 },
        ));
        // Without the delayed-buffer check the run would stop after round 1
        // (all nodes claim done, in_flight empty) and lose the message.
        net.run_until_done(10);
        let nodes = net.into_nodes();
        let victim = (&*nodes[1] as &dyn Any).downcast_ref::<Echo>().unwrap();
        assert_eq!(victim.seen.len(), 1, "delayed message still delivered");
    }

    #[test]
    fn reorder_fault_moves_message_last() {
        let mut net = echo_net(3);
        // P0 -> P2 reordered: P2 must see P1's message first.
        net.set_fault_plan(FaultPlan::new().with(0, NodeId(0), NodeId(2), LinkFault::Reorder));
        net.run_until_done(5);
        let nodes = net.into_nodes();
        let victim = (&*nodes[2] as &dyn Any).downcast_ref::<Echo>().unwrap();
        let froms: Vec<NodeId> = victim.seen.iter().map(|(f, _)| *f).collect();
        assert_eq!(froms, vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn invalid_destination_dropped_and_counted() {
        struct Stray {
            id: NodeId,
        }
        impl Node for Stray {
            fn id(&self) -> NodeId {
                self.id
            }
            fn on_round(&mut self, round: u32, _inbox: &[Envelope], out: &mut Outbox) {
                if round == 0 {
                    out.send(NodeId(99), vec![1]);
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let mut net = SyncNetwork::new(vec![Box::new(Stray { id: NodeId(0) })]);
        net.run_until_done(3);
        assert_eq!(net.stats().messages_total, 0);
        assert_eq!(net.stats().dropped_invalid, 1);
    }

    /// Broadcasts `[id, round, seq]` in rounds 0..4, plus one stray send
    /// to an unknown id in round 1; records every delivery in order.
    /// `panic_in` makes it panic in that round.
    struct Gossip {
        id: NodeId,
        n: usize,
        panic_in: Option<u32>,
        seen: Vec<Envelope>,
    }

    impl Node for Gossip {
        fn id(&self) -> NodeId {
            self.id
        }
        fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
            if self.panic_in == Some(round) {
                panic!("node {} gives up in round {round}", self.id.0);
            }
            self.seen.extend_from_slice(inbox);
            if round < 4 {
                let id = self.id.0 as u8;
                for (seq, peer) in NodeId::all(self.n).filter(|&p| p != self.id).enumerate() {
                    out.send(peer, vec![id, round as u8, seq as u8]);
                }
            }
            if round == 1 {
                out.send(NodeId(self.n as u16 + 3), vec![0]);
            }
        }
    }

    /// 24 gossiping nodes (552 deliveries a round, above the parallel
    /// threshold) on `workers` threads.
    fn gossip_net(workers: usize, panic_at: Option<(NodeId, u32)>) -> SyncNetwork {
        let n = 24;
        let nodes: Vec<Box<dyn Node>> = NodeId::all(n)
            .map(|id| {
                Box::new(Gossip {
                    id,
                    n,
                    panic_in: panic_at.and_then(|(who, round)| (who == id).then_some(round)),
                    seen: Vec::new(),
                }) as Box<dyn Node>
            })
            .collect();
        let mut net = SyncNetwork::new(nodes);
        net.set_workers(workers);
        net
    }

    #[test]
    fn worker_count_never_changes_delivery_or_stats() {
        let faults = FaultPlan::new()
            .with(1, NodeId(2), NodeId(3), LinkFault::Drop)
            .with(
                1,
                NodeId(9),
                NodeId(17),
                LinkFault::Corrupt {
                    offset: 2,
                    mask: 0x5a,
                },
            )
            .with(1, NodeId(20), NodeId(4), LinkFault::Duplicate)
            .with(2, NodeId(11), NodeId(0), LinkFault::Delay { rounds: 2 })
            .with(2, NodeId(23), NodeId(12), LinkFault::Reorder);
        let run = |workers: usize| {
            let mut net = gossip_net(workers, None);
            net.set_fault_plan(faults.clone());
            // Node 10 sits inside a worker's id range and rushes.
            net.set_rushing(vec![NodeId(10)]);
            net.enable_round_marks();
            net.run_until_done(8);
            let marks = net.round_marks().map(<[u64]>::len);
            let (nodes, stats) = net.finish();
            let seen: Vec<Vec<Envelope>> = nodes
                .into_iter()
                .map(|node| (node as Box<dyn Any>).downcast::<Gossip>().unwrap().seen)
                .collect();
            (seen, stats, marks)
        };
        let serial = run(1);
        assert_eq!(serial.1.dropped_invalid, 24, "one stray send per node");
        assert_eq!(serial.2, Some(8));
        assert_eq!(run(3), serial);
    }

    /// The panic payload's message.
    fn panic_message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_worker_panic_surfaces_with_its_own_message() {
        for workers in [1, 3] {
            // Node 21 is in the last of three ranges: a spawned worker.
            let mut net = gossip_net(workers, Some((NodeId(21), 1)));
            net.step();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.step()))
                .expect_err("node 21 panics in round 1");
            assert_eq!(
                panic_message(panic.as_ref()),
                "node 21 gives up in round 1",
                "{workers} workers"
            );
        }
    }

    #[test]
    #[should_panic(expected = "reports id")]
    fn mismatched_ids_rejected() {
        let nodes: Vec<Box<dyn Node>> = vec![Box::new(Echo {
            id: NodeId(5),
            n: 1,
            seen: Vec::new(),
        })];
        let _ = SyncNetwork::new(nodes);
    }

    #[test]
    fn max_rounds_bounds_execution() {
        struct Chatter {
            id: NodeId,
        }
        impl Node for Chatter {
            fn id(&self) -> NodeId {
                self.id
            }
            fn on_round(&mut self, _round: u32, _inbox: &[Envelope], out: &mut Outbox) {
                out.send(NodeId(1 - self.id.0), vec![0]);
            }
        }
        let mut net = SyncNetwork::new(vec![
            Box::new(Chatter { id: NodeId(0) }),
            Box::new(Chatter { id: NodeId(1) }),
        ]);
        assert_eq!(net.run_until_done(7), 7);
        assert_eq!(net.stats().messages_total, 14);
    }
}
