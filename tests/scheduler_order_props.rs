//! Property wall for the hybrid event scheduler (PR8): the flat
//! delivery ring + binary-heap fallback must deliver every message in
//! exactly the same total order as the pure `(deliver_at, seq)` binary
//! heap it replaced, for arbitrary delivery streams — round-aligned
//! ties, unaligned jitter, per-message delay overrides, and rushing
//! previews included. The reference ordering is recovered by
//! `EventNetwork::set_reference_scheduler(true)`, which forces every
//! delivery through the heap and disables broadcast compression.
//!
//! A second wall pins the engines to each other: `SyncNetwork` on any
//! worker count delivers exactly what `EventNetwork` does under
//! synchronous latency, link faults and rushers included. A third pins a
//! scatter (`Outbox::scatter`, one record for `n − 1` windows) to the
//! per-message sends it stands for, on both engines.

use local_auth_fd::simnet::event::TICKS_PER_ROUND;
use local_auth_fd::simnet::fault::{FaultPlan, LinkFault};
use local_auth_fd::simnet::{
    Envelope, EventNetwork, LatencySpec, NetStats, Node, NodeId, Outbox, SchedCounters, SyncNetwork,
};
use proptest::prelude::*;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// One scripted send: a full broadcast or a unicast to a fixed peer.
#[derive(Debug, Clone, Copy)]
enum Op {
    Broadcast,
    Send(NodeId),
}

/// A node that replays a per-round send script and records every
/// delivery it observes, in observation order. Payloads embed
/// `(sender, round, op index)` so the recorded sequences pin the *total*
/// delivery order, not just multiset equality.
struct Sprayer {
    id: NodeId,
    n: usize,
    script: Vec<Vec<Op>>,
    seen: Vec<(u32, NodeId, Vec<u8>)>,
}

impl Node for Sprayer {
    fn id(&self) -> NodeId {
        self.id
    }
    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        if let Some(ops) = self.script.get(round as usize) {
            for (k, op) in ops.iter().enumerate() {
                let payload = vec![self.id.0 as u8, round as u8, k as u8];
                match op {
                    Op::Broadcast => out.broadcast(self.n, self.id, payload),
                    Op::Send(to) => out.send(*to, payload),
                }
            }
        }
        for env in inbox {
            self.seen.push((round, env.from, env.payload.to_vec()));
        }
    }
}

/// A complete scheduling scenario: node scripts plus everything that
/// shapes `(deliver_at, seq)` — the jitter model, per-send-index delay
/// overrides, and an optional rushing node.
#[derive(Debug, Clone)]
struct Plan {
    n: usize,
    send_rounds: usize,
    extra: u32,
    seed: u64,
    scripts: Vec<Vec<Vec<Op>>>,
    overrides: HashMap<u64, u64>,
    rusher: Option<NodeId>,
}

impl Plan {
    /// Rounds to execute: enough for the slowest admissible delivery
    /// (jitter up to `1 + extra` rounds, overrides up to 3 rounds) to
    /// land, plus drain slack.
    fn steps(&self) -> usize {
        self.send_rounds + self.extra as usize + 6
    }
}

type Seen = Vec<Vec<(u32, NodeId, Vec<u8>)>>;

fn run_plan(plan: &Plan, reference: bool) -> (Seen, NetStats, SchedCounters) {
    let nodes: Vec<Box<dyn Node>> = (0..plan.n)
        .map(|i| {
            Box::new(Sprayer {
                id: NodeId(i as u16),
                n: plan.n,
                script: plan.scripts[i].clone(),
                seen: Vec::new(),
            }) as Box<dyn Node>
        })
        .collect();
    let mut net = EventNetwork::new(nodes);
    net.set_latency(LatencySpec::Jitter { extra: plan.extra }, &[], plan.seed);
    if !plan.overrides.is_empty() {
        net.set_delay_overrides(Arc::new(plan.overrides.clone()));
    }
    if let Some(r) = plan.rusher {
        net.set_rushing(vec![r]);
    }
    net.set_reference_scheduler(reference);
    for _ in 0..plan.steps() {
        net.step();
    }
    let sched = net.sched_counters();
    let stats = net.stats().clone();
    let seen = net
        .into_nodes()
        .into_iter()
        .map(|b| (b as Box<dyn Any>).downcast::<Sprayer>().unwrap().seen)
        .collect();
    (seen, stats, sched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core equivalence property. `extra = 0` degenerates to pure
    /// synchrony (everything round-aligned — maximal tie pressure on the
    /// ring's send-order invariant); `extra > 0` mixes aligned and
    /// unaligned arrivals across the ring/heap boundary; overrides pin
    /// individual send indices to aligned or unaligned ticks; a rusher
    /// (when drawn) previews same-round traffic addressed to it.
    #[test]
    fn hybrid_ring_heap_matches_pure_heap_total_order(
        n in 3usize..7,
        send_rounds in 1usize..4,
        extra in 0u32..3,
        seed in any::<u64>(),
        ops_raw in prop::collection::vec(
            (any::<usize>(), any::<usize>(), 0u8..4, any::<usize>()),
            0..24,
        ),
        overrides_raw in prop::collection::vec(
            (any::<u64>(), any::<bool>(), 1u64..4, any::<u64>()),
            0..6,
        ),
        rush_pick in any::<usize>(),
        use_rusher in any::<bool>(),
    ) {
        // Bucket the flat op stream into per-(sender, round) scripts,
        // preserving draw order within each bucket.
        let mut scripts = vec![vec![Vec::new(); send_rounds]; n];
        for (sender_pick, round_pick, kind, target_pick) in &ops_raw {
            let sender = sender_pick % n;
            let round = round_pick % send_rounds;
            let op = if *kind == 0 {
                Op::Broadcast
            } else {
                // A unicast, possibly to self (the engine must treat it
                // identically on both paths).
                Op::Send(NodeId((target_pick % n) as u16))
            };
            scripts[sender][round].push(op);
        }
        let mut overrides = HashMap::new();
        for (key_pick, aligned, whole_rounds, ticks_raw) in &overrides_raw {
            let ticks = if *aligned {
                whole_rounds * TICKS_PER_ROUND
            } else {
                1 + ticks_raw % (3 * TICKS_PER_ROUND)
            };
            overrides.insert(key_pick % 64, ticks);
        }
        let plan = Plan {
            n,
            send_rounds,
            extra,
            seed,
            scripts,
            overrides,
            rusher: use_rusher.then(|| NodeId((rush_pick % n) as u16)),
        };

        let (hybrid_seen, hybrid_stats, hybrid_sched) = run_plan(&plan, false);
        let (ref_seen, ref_stats, ref_sched) = run_plan(&plan, true);

        prop_assert_eq!(
            &hybrid_seen, &ref_seen,
            "delivery order diverged: {plan:?}"
        );
        prop_assert_eq!(&hybrid_stats, &ref_stats, "stats diverged: {plan:?}");
        // The reference scheduler must never touch the ring, and the two
        // modes must account for exactly the same logical message count.
        prop_assert_eq!(ref_sched.ring_enqueued, 0);
        prop_assert_eq!(
            hybrid_sched.ring_enqueued + hybrid_sched.heap_enqueued,
            ref_sched.heap_enqueued
        );
        // Pure synchrony with no overrides is fully round-aligned: the
        // hybrid must route *everything* through the ring.
        if extra == 0 && plan.overrides.is_empty() {
            prop_assert_eq!(hybrid_sched.heap_enqueued, 0, "{plan:?}");
        }
    }

    /// Determinism rider: the hybrid schedule is a pure function of the
    /// plan — running it twice yields byte-identical observations.
    #[test]
    fn hybrid_schedule_is_replayable(
        n in 3usize..6,
        extra in 0u32..3,
        seed in any::<u64>(),
    ) {
        let scripts = (0..n)
            .map(|_| vec![vec![Op::Broadcast, Op::Send(NodeId(0))]])
            .collect();
        let plan = Plan {
            n,
            send_rounds: 1,
            extra,
            seed,
            scripts,
            overrides: HashMap::new(),
            rusher: None,
        };
        let a = run_plan(&plan, false);
        let b = run_plan(&plan, false);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }
}

/// One scripted send of the delivery-order wall below.
#[derive(Debug, Clone, Copy)]
enum Mixed {
    /// A broadcast over the whole system.
    Broadcast,
    /// A broadcast over `n + 2` ids: the two ids past the system are
    /// counted as `dropped_invalid`.
    WideBroadcast,
    /// A unicast to a node of the system (possibly the sender itself).
    Send(NodeId),
    /// A unicast to an id ≥ n, counted as `dropped_invalid`.
    Stray,
    /// One `len`-byte window per peer of the whole system or, when
    /// `wide`, of `n + 2` ids (the two past the system are counted as
    /// `dropped_invalid`).
    Scatter { wide: bool, len: usize },
}

/// Replays a per-round script mixing every kind of send and records
/// every delivery in observation order.
struct Mixer {
    id: NodeId,
    n: usize,
    script: Vec<Vec<Mixed>>,
    /// Send each scatter as its per-peer messages instead.
    expand_scatters: bool,
    seen: Vec<(u32, NodeId, Vec<u8>)>,
}

impl Node for Mixer {
    fn id(&self) -> NodeId {
        self.id
    }
    fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
        for env in inbox {
            self.seen.push((round, env.from, env.payload.to_vec()));
        }
        let ops = self
            .script
            .get(round as usize)
            .map_or(&[][..], Vec::as_slice);
        for (k, op) in ops.iter().enumerate() {
            let payload = vec![self.id.0 as u8, round as u8, k as u8, 0x5a];
            match *op {
                Mixed::Broadcast => out.broadcast(self.n, self.id, payload),
                Mixed::WideBroadcast => out.broadcast(self.n + 2, self.id, payload),
                Mixed::Send(to) => out.send(to, payload),
                Mixed::Stray => out.send(NodeId((self.n + k) as u16), payload),
                Mixed::Scatter { wide, len } => {
                    let n = if wide { self.n + 2 } else { self.n };
                    let peers: Vec<NodeId> = NodeId::all(n).filter(|&p| p != self.id).collect();
                    // Each peer's window names the sender, round, op and
                    // the peer's rank, so a wrong window shows.
                    let buf: Vec<u8> = (0..peers.len())
                        .flat_map(|rank| {
                            let head = [self.id.0 as u8, round as u8, k as u8, rank as u8];
                            (0..len).map(move |j| head.get(j).copied().unwrap_or(0x5c))
                        })
                        .collect();
                    if self.expand_scatters {
                        for (rank, peer) in peers.into_iter().enumerate() {
                            out.send(peer, buf[rank * len..(rank + 1) * len].to_vec());
                        }
                    } else {
                        out.scatter(n, self.id, buf, len);
                    }
                }
            }
        }
    }
}

/// A delivery-order scenario: scripts, a link-fault plan and up to two
/// rushers.
#[derive(Debug, Clone)]
struct MixedPlan {
    n: usize,
    rounds: usize,
    scripts: Vec<Vec<Vec<Mixed>>>,
    faults: FaultPlan,
    rushers: Vec<NodeId>,
    expand_scatters: bool,
}

fn mixers(plan: &MixedPlan) -> Vec<Box<dyn Node>> {
    NodeId::all(plan.n)
        .map(|id| {
            Box::new(Mixer {
                id,
                n: plan.n,
                script: plan.scripts[id.index()].clone(),
                expand_scatters: plan.expand_scatters,
                seen: Vec::new(),
            }) as Box<dyn Node>
        })
        .collect()
}

fn mixer_seen(nodes: Vec<Box<dyn Node>>) -> Seen {
    nodes
        .into_iter()
        .map(|b| (b as Box<dyn Any>).downcast::<Mixer>().unwrap().seen)
        .collect()
}

/// Every send round, plus two rounds for the longest delay and one to
/// deliver.
fn mixed_steps(plan: &MixedPlan) -> usize {
    plan.rounds + 3
}

/// Draws of `(round, from, to, kind, byte)` as a link-fault plan: drop,
/// corrupt, duplicate, delay by 1–2 rounds or reorder.
fn fault_plan(raw: &[(usize, usize, usize, u8, u8)], n: usize, rounds: usize) -> FaultPlan {
    let mut faults = FaultPlan::new();
    for (round_pick, from_pick, to_pick, kind, byte) in raw {
        let fault = match kind {
            0 => LinkFault::Drop,
            1 => LinkFault::Corrupt {
                offset: usize::from(byte % 4),
                mask: byte | 1,
            },
            2 => LinkFault::Duplicate,
            3 => LinkFault::Delay {
                rounds: u32::from(byte % 2) + 1,
            },
            _ => LinkFault::Reorder,
        };
        let from = NodeId((from_pick % n) as u16);
        let to = NodeId((to_pick % n) as u16);
        faults = faults.with((round_pick % rounds) as u32, from, to, fault);
    }
    faults
}

fn run_sync(plan: &MixedPlan, workers: usize) -> (Seen, NetStats) {
    let mut net = SyncNetwork::new(mixers(plan));
    net.set_workers(workers);
    net.set_fault_plan(plan.faults.clone());
    net.set_rushing(plan.rushers.clone());
    for _ in 0..mixed_steps(plan) {
        net.step();
    }
    let (nodes, stats) = net.finish();
    (mixer_seen(nodes), stats)
}

fn run_event(plan: &MixedPlan, reference: bool) -> (Seen, NetStats) {
    let mut net = EventNetwork::new(mixers(plan));
    net.set_fault_plan(plan.faults.clone());
    net.set_rushing(plan.rushers.clone());
    net.set_reference_scheduler(reference);
    for _ in 0..mixed_steps(plan) {
        net.step();
    }
    let (nodes, stats, _) = net.finish();
    (mixer_seen(nodes), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The delivery-order wall between the engines: `SyncNetwork` on
    /// one, two and three workers delivers exactly what `EventNetwork`
    /// delivers under synchronous latency, on the hybrid and on the
    /// reference scheduler — every node's `(round, from, payload)`
    /// sequence and the whole `NetStats` — for scripts that mix unicasts,
    /// broadcasts, broadcasts past the system and sends to unknown ids,
    /// under random link faults and up to two rushers (a later rusher
    /// previews an earlier one's sends). `dense` gives
    /// every node a round-0 broadcast, so from n = 17 on a round carries
    /// more than the 256 deliveries below which the sync engine stays on
    /// one thread.
    #[test]
    fn sync_engine_on_any_worker_count_delivers_what_the_event_engine_does(
        n in 3usize..41,
        rounds in 1usize..4,
        dense in any::<bool>(),
        ops_raw in prop::collection::vec(
            (any::<usize>(), any::<usize>(), 0u8..6, any::<usize>()),
            0..48,
        ),
        faults_raw in prop::collection::vec(
            (any::<usize>(), any::<usize>(), any::<usize>(), 0u8..5, any::<u8>()),
            0..24,
        ),
        rush_picks in prop::collection::vec(any::<usize>(), 0..3),
    ) {
        let mut scripts = vec![vec![Vec::new(); rounds]; n];
        if dense {
            for script in &mut scripts {
                script[0].push(Mixed::Broadcast);
            }
        }
        for (sender_pick, round_pick, kind, target_pick) in &ops_raw {
            let op = match kind {
                0 | 1 => Mixed::Broadcast,
                2 => Mixed::WideBroadcast,
                3 => Mixed::Stray,
                _ => Mixed::Send(NodeId((target_pick % n) as u16)),
            };
            scripts[sender_pick % n][round_pick % rounds].push(op);
        }
        let faults = fault_plan(&faults_raw, n, rounds);
        let plan = MixedPlan {
            n,
            rounds,
            scripts,
            faults,
            rushers: rush_picks.iter().map(|pick| NodeId((pick % n) as u16)).collect(),
            expand_scatters: false,
        };

        let hybrid = run_event(&plan, false);
        prop_assert_eq!(&run_event(&plan, true), &hybrid, "reference scheduler: {plan:?}");
        for workers in [1, 2, 3] {
            prop_assert_eq!(&run_sync(&plan, workers), &hybrid, "{workers} workers: {plan:?}");
        }
    }

    /// The scatter wall: a run whose nodes scatter equals the same run
    /// with each scatter replaced by its per-peer sends — every node's
    /// `(round, from, payload)` sequence and the whole `NetStats` — on the
    /// sync engine with one, two and three workers and on the event
    /// engine's hybrid and reference schedulers, under random link faults
    /// and up to two rushers. Scatters over the whole system stay one
    /// record; scatters over `n + 2` ids expand and count the ids past the
    /// system as `dropped_invalid`; empty windows are scattered too. With
    /// `dense` every node scatters in round 0, so from n = 17 on the round
    /// runs on every sync worker.
    #[test]
    fn a_scatter_delivers_what_its_expanded_sends_do(
        n in 2usize..41,
        rounds in 1usize..4,
        dense in any::<bool>(),
        ops_raw in prop::collection::vec(
            (any::<usize>(), any::<usize>(), 0u8..6, any::<usize>()),
            0..48,
        ),
        faults_raw in prop::collection::vec(
            (any::<usize>(), any::<usize>(), any::<usize>(), 0u8..5, any::<u8>()),
            0..24,
        ),
        rush_picks in prop::collection::vec(any::<usize>(), 0..3),
    ) {
        let mut scripts = vec![vec![Vec::new(); rounds]; n];
        if dense {
            for script in &mut scripts {
                script[0].push(Mixed::Scatter { wide: false, len: 5 });
            }
        }
        for (sender_pick, round_pick, kind, target_pick) in &ops_raw {
            let op = match kind {
                0 | 1 => Mixed::Scatter { wide: false, len: 1 + target_pick % 6 },
                2 => Mixed::Scatter { wide: false, len: 0 },
                3 => Mixed::Scatter { wide: true, len: 5 },
                4 => Mixed::Broadcast,
                _ => Mixed::Send(NodeId((target_pick % n) as u16)),
            };
            scripts[sender_pick % n][round_pick % rounds].push(op);
        }
        let plan = MixedPlan {
            n,
            rounds,
            scripts,
            faults: fault_plan(&faults_raw, n, rounds),
            rushers: rush_picks.iter().map(|pick| NodeId((pick % n) as u16)).collect(),
            expand_scatters: false,
        };
        let expanded = MixedPlan { expand_scatters: true, ..plan.clone() };

        let hybrid = run_event(&plan, false);
        prop_assert_eq!(&run_event(&expanded, false), &hybrid, "hybrid: {plan:?}");
        prop_assert_eq!(&run_event(&expanded, true), &hybrid, "expanded, reference: {plan:?}");
        prop_assert_eq!(&run_event(&plan, true), &hybrid, "reference: {plan:?}");
        for workers in [1, 2, 3] {
            prop_assert_eq!(&run_sync(&plan, workers), &hybrid, "{workers} workers: {plan:?}");
            prop_assert_eq!(
                &run_sync(&expanded, workers), &hybrid, "expanded, {workers} workers: {plan:?}"
            );
        }
    }
}
