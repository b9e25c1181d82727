//! The deterministic round-synchronous simulator.

use crate::fault::{FaultPlan, LinkFault};
use crate::{Envelope, NetStats, Node, NodeId, Outbox};

/// Round-synchronous network simulator (paper §2 model).
///
/// Owns the node automata and drives them in lock-step rounds: everything
/// sent in round `r` is delivered at the start of round `r + 1`, reliably
/// (N1) and with the sender stamped by the simulator (N2). Execution is
/// fully deterministic: message order within a round is sender-id order,
/// then send order.
pub struct SyncNetwork {
    nodes: Vec<Box<dyn Node>>,
    /// Messages sent in the round just executed, awaiting delivery.
    in_flight: Vec<Envelope>,
    /// Messages held back by a [`LinkFault::Delay`], keyed by the round in
    /// which they become deliverable.
    delayed: Vec<(u32, Envelope)>,
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
    /// the simulator can stamp senders (N2).
    pub fn new(nodes: Vec<Box<dyn Node>>) -> Self {
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.id(),
                NodeId(i as u16),
                "node at index {i} reports id {}",
                node.id()
            );
        }
        let n = nodes.len();
        SyncNetwork {
            nodes,
            in_flight: Vec::new(),
            delayed: Vec::new(),
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

    /// `true` when every node reports [`Node::is_done`].
    pub fn all_done(&self) -> bool {
        self.nodes.iter().all(|n| n.is_done())
    }

    /// Execute one synchronous round.
    pub fn step(&mut self) {
        let round = self.round;
        let n = self.nodes.len();

        // Distribute in-flight messages into per-node inboxes,
        // applying any installed link faults. Delayed messages whose hold
        // expired this round are delivered first (they are older), and
        // reordered messages are appended after everything else.
        let mut inboxes: Vec<Vec<Envelope>> = (0..n).map(|_| Vec::new()).collect();
        let mut reordered: Vec<Vec<Envelope>> = (0..n).map(|_| Vec::new()).collect();
        let mut held = Vec::new();
        for (due, env) in std::mem::take(&mut self.delayed) {
            if due <= round {
                inboxes[env.to.index()].push(env);
            } else {
                held.push((due, env));
            }
        }
        self.delayed = held;
        for env in self.in_flight.drain(..) {
            match self.faults.lookup(env.round, env.from, env.to) {
                Some(LinkFault::Drop) => continue,
                Some(LinkFault::Corrupt { offset, mask }) => {
                    let mut env = env;
                    // Copy-on-write: sibling deliveries sharing the buffer
                    // must not observe the corruption.
                    if offset < env.payload.len() {
                        env.payload.make_mut()[offset] ^= mask;
                    }
                    inboxes[env.to.index()].push(env);
                }
                Some(LinkFault::Duplicate) => {
                    inboxes[env.to.index()].push(env.clone());
                    inboxes[env.to.index()].push(env);
                }
                // A zero-round delay is a no-op (as on the event engine,
                // where it adds zero ticks).
                Some(LinkFault::Delay { rounds: 0 }) => inboxes[env.to.index()].push(env),
                Some(LinkFault::Delay { rounds }) => {
                    self.delayed.push((round.saturating_add(rounds), env));
                }
                Some(LinkFault::Reorder) => reordered[env.to.index()].push(env),
                None => inboxes[env.to.index()].push(env),
            }
        }
        for (inbox, late) in inboxes.iter_mut().zip(reordered) {
            inbox.extend(late);
        }

        // Run every node on its inbox; collect new messages. Non-rushing
        // nodes act first (in id order); rushing nodes act last and
        // additionally preview the current round's messages addressed to
        // them (see [`SyncNetwork::set_rushing`]).
        let order: Vec<usize> = (0..n)
            .filter(|i| !self.rushing.contains(&NodeId(*i as u16)))
            .chain((0..n).filter(|i| self.rushing.contains(&NodeId(*i as u16))))
            .collect();
        for i in order {
            let from = NodeId(i as u16);
            let mut inbox = std::mem::take(&mut inboxes[i]);
            if self.rushing.contains(&from) {
                inbox.extend(
                    self.in_flight
                        .iter()
                        .filter(|env| env.round == round && env.to == from)
                        .cloned(),
                );
            }
            let mut out = Outbox::new();
            self.nodes[i].on_round(round, &inbox, &mut out);
            for (to, payload) in out.into_messages() {
                if to.index() >= n {
                    self.stats.dropped_invalid += 1;
                    continue;
                }
                let env = Envelope {
                    from,
                    to,
                    round,
                    payload,
                };
                self.stats.record_send(from, round, env.wire_len());
                self.in_flight.push(env);
            }
        }

        self.round += 1;
        self.stats.rounds = self.round;
        if let Some(marks) = self.round_marks.as_mut() {
            let epoch = self.marks_epoch.expect("marks epoch set with round_marks");
            marks.push(u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX));
            let depth = self.in_flight.len() + self.delayed.len();
            self.max_queue_depth = self.max_queue_depth.max(depth);
        }
    }

    /// Run until every node is done (checked *after* at least one round) or
    /// `max_rounds` is reached. Returns the number of rounds executed.
    pub fn run_until_done(&mut self, max_rounds: u32) -> u32 {
        while self.round < max_rounds {
            self.step();
            if self.all_done() && self.in_flight.is_empty() && self.delayed.is_empty() {
                break;
            }
        }
        self.round
    }
}

impl core::fmt::Debug for SyncNetwork {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SyncNetwork")
            .field("n", &self.nodes.len())
            .field("round", &self.round)
            .field("in_flight", &self.in_flight.len())
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
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
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
        let rusher = net.node(NodeId(2)).as_any().downcast_ref::<Echo>().unwrap();
        let seen0: Vec<NodeId> = rusher.seen.iter().map(|(f, _)| *f).collect();
        assert_eq!(seen0, vec![NodeId(0), NodeId(1)], "preview in round 0");
        // Non-rushing nodes saw nothing yet.
        let honest = net.node(NodeId(0)).as_any().downcast_ref::<Echo>().unwrap();
        assert!(honest.seen.is_empty());
    }

    #[test]
    fn rushing_preview_does_not_consume_delivery() {
        // The previewed messages are still delivered normally next round.
        let mut net = echo_net(3);
        net.set_rushing(vec![NodeId(2)]);
        net.step();
        net.step();
        let rusher = net.node(NodeId(2)).as_any().downcast_ref::<Echo>().unwrap();
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
            let echo = node.as_any().downcast_ref::<Echo>().unwrap();
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
            let echo = node.as_any().downcast_ref::<Echo>().unwrap();
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
        let victim = nodes[1].as_any().downcast_ref::<Echo>().unwrap();
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
        let victim = nodes[1].as_any().downcast_ref::<Echo>().unwrap();
        assert_eq!(victim.seen[0].1[0], 0xff); // 0 ^ 0xff
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let mut net = echo_net(2);
        net.set_fault_plan(FaultPlan::new().with(0, NodeId(0), NodeId(1), LinkFault::Duplicate));
        net.run_until_done(5);
        let nodes = net.into_nodes();
        let victim = nodes[1].as_any().downcast_ref::<Echo>().unwrap();
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
            let victim = net.node(NodeId(1)).as_any().downcast_ref::<Echo>().unwrap();
            assert_eq!(victim.seen.len(), 1);
            assert_eq!(victim.seen[0].0, NodeId(2));
        }
        net.step(); // round 2: still held (due round 3)
        net.step(); // round 3: delayed message matures
        let victim = net.node(NodeId(1)).as_any().downcast_ref::<Echo>().unwrap();
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
        let victim = nodes[1].as_any().downcast_ref::<Echo>().unwrap();
        assert_eq!(victim.seen.len(), 1, "delayed message still delivered");
    }

    #[test]
    fn reorder_fault_moves_message_last() {
        let mut net = echo_net(3);
        // P0 -> P2 reordered: P2 must see P1's message first.
        net.set_fault_plan(FaultPlan::new().with(0, NodeId(0), NodeId(2), LinkFault::Reorder));
        net.run_until_done(5);
        let nodes = net.into_nodes();
        let victim = nodes[2].as_any().downcast_ref::<Echo>().unwrap();
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
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn into_any(self: Box<Self>) -> Box<dyn Any> {
                self
            }
        }
        let mut net = SyncNetwork::new(vec![Box::new(Stray { id: NodeId(0) })]);
        net.run_until_done(3);
        assert_eq!(net.stats().messages_total, 0);
        assert_eq!(net.stats().dropped_invalid, 1);
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
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn into_any(self: Box<Self>) -> Box<dyn Any> {
                self
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
