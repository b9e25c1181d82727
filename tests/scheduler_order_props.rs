//! Property wall for the hybrid event scheduler (PR8): the flat
//! delivery ring + binary-heap fallback must deliver every message in
//! exactly the same total order as the pure `(deliver_at, seq)` binary
//! heap it replaced, for arbitrary delivery streams — round-aligned
//! ties, unaligned jitter, per-message delay overrides, and rushing
//! previews included. The reference ordering is recovered by
//! `EventNetwork::set_reference_scheduler(true)`, which forces every
//! delivery through the heap and disables broadcast compression.

use local_auth_fd::simnet::event::{SeededJitter, TICKS_PER_ROUND};
use local_auth_fd::simnet::{
    Envelope, EventNetwork, NetStats, Node, NodeId, Outbox, SchedCounters,
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
    net.set_latency(Box::new(SeededJitter {
        seed: plan.seed,
        extra: plan.extra,
    }));
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
