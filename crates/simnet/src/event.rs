//! The deterministic discrete-event network simulator.
//!
//! [`SyncNetwork`](crate::SyncNetwork) can only express the paper's
//! round-synchronous model: everything sent in round `r` arrives at
//! `r + 1`, in lockstep. [`EventNetwork`] runs the *same* [`Node`]
//! automata under a priority-queue scheduler with **virtual time**:
//!
//! * every message is scheduled by `(deliver_at, seq)`, so execution is
//!   byte-deterministic for a given seed and latency model — `seq` is a
//!   global send counter that breaks ties exactly like the synchronous
//!   engine's sender-order delivery;
//! * the scheduler is a *hybrid*: round-aligned arrivals (the dominant
//!   case — synchronous and fixed delays are whole rounds) park in a flat
//!   ring of per-boundary buckets, which preserves send order for free;
//!   only out-of-band arrivals (jitter, per-message overrides) pay for a
//!   binary heap. Broadcasts and scatters with a uniform round-aligned
//!   delay stay *compressed*: one record stands for `n − 1` messages. A matured
//!   bucket is indexed by destination once, and each receiver's
//!   envelopes are materialized into a reused arena just before it runs
//!   — the delivery path [`SyncNetwork`](crate::SyncNetwork) uses too
//!   (see [`SchedCounters`]);
//! * a [`LatencySpec`] decides each message's flight time in virtual
//!   ticks ([`TICKS_PER_ROUND`] per round), drawn from a seed inside the
//!   envelope [`LatencySpec::tick_bounds`] gives for the send round, with
//!   optional directed per-link overrides ([`LinkLatencySpec`]);
//! * round boundaries are derived from timeouts instead of lockstep: node
//!   automata still see `on_round(r, …)`, but round `r` fires when virtual
//!   time reaches `r · TICKS_PER_ROUND`, and a message is in round `r`'s
//!   inbox iff its delivery time is at or before that boundary. Existing
//!   protocols run unmodified.
//!
//! Under [`LatencySpec::Synchronous`] the event engine reproduces the
//! synchronous engine *exactly* — same inbox contents and order, same
//! statistics, same outcomes (see the cross-validation tests). Under
//! [`LatencySpec::Jitter`] / [`LatencySpec::PartialSynchrony`] messages
//! may arrive rounds late, which the paper's protocols surface as
//! *discovered* timing failures, never as silent disagreement.

use crate::delivery::{self, Arena, Delivery, Record};
use crate::fault::{self, FaultPlan, LinkFault};
use crate::node::OutOp;
use crate::{Envelope, NetStats, Node, NodeId, Outbox, Payload};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Virtual ticks per protocol round. Latency specs express flight times
/// in ticks, so sub-round jitter is expressible while round boundaries
/// stay exact multiples.
pub const TICKS_PER_ROUND: u64 = 1024;

/// A per-message flight-time override map, keyed by send index (the k-th
/// message handed to the transport, counting from 0) and valued in virtual
/// ticks. Shared by handle: a search loop re-running the same schedule
/// hands the same `Arc` to every episode instead of deep-cloning the map
/// (see [`EventNetwork::set_delay_overrides`]).
pub type DelayOverrides = Arc<HashMap<u64, u64>>;

/// Which simulation engine drives a run (CLI / sweep selector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    /// The lockstep round-synchronous engine ([`crate::SyncNetwork`]).
    Sync,
    /// The discrete-event engine ([`EventNetwork`]).
    Event,
}

impl Engine {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Sync => "sync",
            Engine::Event => "event",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Result<Engine, String> {
        Ok(match name {
            "sync" | "round" => Engine::Sync,
            "event" | "des" => Engine::Event,
            other => return Err(format!("unknown engine {other} (sync|event)")),
        })
    }
}

impl core::fmt::Display for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Message timing: each spec's [`tick_bounds`](LatencySpec::tick_bounds)
/// envelope bounds every flight time, and [`delay`](LatencySpec::delay)
/// draws one inside it from a seed. The event engine, the cluster delay
/// shim and the scheduler search all time messages through this one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatencySpec {
    /// Every message takes exactly one round — the paper's N1 model.
    Synchronous,
    /// Every message takes exactly `rounds` rounds.
    Fixed {
        /// Flight time in whole rounds (≥ 1).
        rounds: u32,
    },
    /// Seeded per-message jitter: flight time uniform in
    /// `[1 round, (1 + extra) rounds]` at tick granularity.
    Jitter {
        /// Maximum extra flight time in rounds.
        extra: u32,
    },
    /// Partial synchrony: jittery like [`LatencySpec::Jitter`] before the
    /// global stabilization round `gst`, exactly synchronous from `gst` on.
    PartialSynchrony {
        /// Global stabilization time, as a round number.
        gst: u32,
        /// Maximum extra flight time in rounds before `gst`.
        extra: u32,
    },
}

impl LatencySpec {
    /// Collapse specs that are byte-equivalent to [`LatencySpec::Synchronous`]
    /// (`fixed:1`, `jitter:0`, partial synchrony with `gst = 0` or
    /// `extra = 0`) onto it, so the strict closed-form and cross-validation
    /// checks keyed on `Synchronous` apply to them too.
    pub fn normalize(self) -> LatencySpec {
        match self {
            LatencySpec::Fixed { rounds: 1 }
            | LatencySpec::Jitter { extra: 0 }
            | LatencySpec::PartialSynchrony { gst: 0, .. }
            | LatencySpec::PartialSynchrony { extra: 0, .. } => LatencySpec::Synchronous,
            other => other,
        }
    }

    /// How many automaton rounds a protocol needing `base` rounds under
    /// synchrony may need under this latency (every hop can stretch, plus
    /// slack for the final deliveries to drain).
    pub fn round_budget(self, base: u32) -> u32 {
        let stretch = |extra: u32| {
            base.saturating_mul(extra.saturating_add(1))
                .saturating_add(2)
        };
        match self {
            LatencySpec::Synchronous => base,
            LatencySpec::Fixed { rounds } => stretch(rounds.max(1) - 1),
            LatencySpec::Jitter { extra } => stretch(extra),
            LatencySpec::PartialSynchrony { gst, extra } => gst.saturating_add(stretch(extra)),
        }
    }

    /// The envelope of flight times this spec can assign to a message sent
    /// in `round`, as an inclusive `(min, max)` range in virtual ticks.
    ///
    /// This is the contract the adversarial scheduler search is bound by:
    /// a delivery schedule is *admissible* for a spec iff every per-message
    /// delay lies within these bounds. Degenerate specs (`sync`, `fixed:D`,
    /// post-GST partial synchrony) have `min == max` — there is no schedule
    /// freedom to search over.
    pub fn tick_bounds(self, round: u32) -> (u64, u64) {
        let t = TICKS_PER_ROUND;
        match self {
            LatencySpec::Synchronous => (t, t),
            LatencySpec::PartialSynchrony { gst, .. } if round >= gst => (t, t),
            LatencySpec::Fixed { rounds } => {
                let d = u64::from(rounds.max(1)) * t;
                (d, d)
            }
            LatencySpec::Jitter { extra } | LatencySpec::PartialSynchrony { extra, .. } => {
                (t, u64::from(extra.saturating_add(1)) * t)
            }
        }
    }

    /// Flight time in virtual ticks for a message sent from `from` to `to`
    /// in `round`: the envelope's one value when it has one, else a draw
    /// inside it from `(seed, from, to, round)`. The same inputs always
    /// give the same delay, so a run is replayable from its seed.
    pub fn delay(self, seed: u64, from: NodeId, to: NodeId, round: u32) -> u64 {
        self.uniform_delay(round)
            .unwrap_or_else(|| self.draw(round, mix(seed, from, to, round)))
    }

    /// The flight time every message sent in `round` gets, when the
    /// envelope admits only one. This is the event engine's broadcast
    /// fast-path gate: a uniform, round-aligned delay lets an `n`-way
    /// broadcast travel as a single compressed delivery record.
    pub fn uniform_delay(self, round: u32) -> Option<u64> {
        let (lo, hi) = self.tick_bounds(round);
        (lo == hi).then_some(lo)
    }

    /// The delay inside `round`'s envelope that the random word `rand`
    /// selects, uniformly when `rand` is.
    pub fn draw(self, round: u32, rand: u64) -> u64 {
        let (lo, hi) = self.tick_bounds(round);
        lo + rand % (hi - lo + 1)
    }

    /// Whether any round's envelope admits more than one delay — i.e.
    /// whether an adversarial scheduler has any freedom at all. `false`
    /// for [`LatencySpec::Synchronous`] and [`LatencySpec::Fixed`], whose
    /// schedules are fully determined.
    pub fn has_schedule_freedom(self) -> bool {
        !matches!(
            self.normalize(),
            LatencySpec::Synchronous | LatencySpec::Fixed { .. }
        )
    }

    /// Stable machine-readable name (used in reports and CLI flags).
    pub fn name(self) -> String {
        match self {
            LatencySpec::Synchronous => "sync".to_string(),
            LatencySpec::Fixed { rounds } => format!("fixed:{rounds}"),
            LatencySpec::Jitter { extra } => format!("jitter:{extra}"),
            LatencySpec::PartialSynchrony { gst, extra } => format!("psync:{gst}:{extra}"),
        }
    }

    /// Parse a CLI name: `sync`, `fixed:D`, `jitter:E`, `psync:GST:E`.
    pub fn parse(spec: &str) -> Result<LatencySpec, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default();
        // A sanity cap: round budgets scale with these parameters, so an
        // absurd value would make a run step through billions of (empty)
        // rounds rather than fail fast.
        const MAX_PARAM: u32 = 10_000;
        let mut num = |what: &str| -> Result<u32, String> {
            let v = parts
                .next()
                .ok_or_else(|| format!("latency {spec}: missing {what}"))?
                .parse::<u32>()
                .map_err(|e| format!("latency {spec}: {what}: {e}"))?;
            if v > MAX_PARAM {
                return Err(format!(
                    "latency {spec}: {what} {v} is unreasonably large (max {MAX_PARAM})"
                ));
            }
            Ok(v)
        };
        let parsed = match head {
            "sync" | "synchronous" => LatencySpec::Synchronous,
            "fixed" => {
                let rounds = num("rounds")?;
                if rounds == 0 {
                    return Err(format!("latency {spec}: rounds must be >= 1"));
                }
                LatencySpec::Fixed { rounds }
            }
            "jitter" => LatencySpec::Jitter {
                extra: num("extra")?,
            },
            "psync" | "partial" => LatencySpec::PartialSynchrony {
                gst: num("gst")?,
                extra: num("extra")?,
            },
            other => {
                return Err(format!(
                    "unknown latency {other} (sync|fixed:D|jitter:E|psync:GST:E)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("latency {spec}: trailing components"));
        }
        Ok(parsed.normalize())
    }
}

impl Default for LatencySpec {
    /// [`LatencySpec::Synchronous`] — the paper's N1 timing.
    fn default() -> Self {
        LatencySpec::Synchronous
    }
}

impl core::fmt::Display for LatencySpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.name())
    }
}

/// SplitMix-style avalanche over (seed, from, to, round) — deterministic
/// per-message randomness without any state.
fn mix(seed: u64, from: NodeId, to: NodeId, round: u32) -> u64 {
    let mut z = seed
        ^ (u64::from(from.0) << 48)
        ^ (u64::from(to.0) << 32)
        ^ u64::from(round)
        ^ 0x4C41_5445_4E43; // "LATENC" salt
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A per-link latency override: messages on the link are timed by `spec`
/// instead of the base [`LatencySpec`] (see [`EventNetwork::set_latency`]).
///
/// Overrides are *directed*: `0:1:fixed:4` slows messages from `P0` to
/// `P1` but not the reverse link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LinkLatencySpec {
    /// Sender side of the directed link.
    pub from: NodeId,
    /// Receiver side of the directed link.
    pub to: NodeId,
    /// The latency spec applied to this link.
    pub spec: LatencySpec,
}

impl LinkLatencySpec {
    /// Parse a CLI spec `FROM:TO:MODEL[:ARG...]`, e.g. `0:1:fixed:4` or
    /// `2:5:jitter:3`.
    pub fn parse(raw: &str) -> Result<LinkLatencySpec, String> {
        let mut parts = raw.splitn(3, ':');
        let mut node = |what: &str| -> Result<NodeId, String> {
            parts
                .next()
                .ok_or_else(|| format!("link latency {raw}: missing {what}"))?
                .parse::<u16>()
                .map(NodeId)
                .map_err(|e| format!("link latency {raw}: {what}: {e}"))
        };
        let from = node("from")?;
        let to = node("to")?;
        if from == to {
            return Err(format!("link latency {raw}: from and to must differ"));
        }
        let spec = LatencySpec::parse(
            parts
                .next()
                .ok_or_else(|| format!("link latency {raw}: missing latency model"))?,
        )
        .map_err(|e| format!("link latency {raw}: {e}"))?;
        Ok(LinkLatencySpec { from, to, spec })
    }

    /// Stable machine-readable name, round-tripping through [`parse`].
    ///
    /// [`parse`]: LinkLatencySpec::parse
    pub fn name(&self) -> String {
        format!("{}:{}:{}", self.from.index(), self.to.index(), self.spec)
    }
}

impl core::fmt::Display for LinkLatencySpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A delivery scheduled out-of-band (unaligned delay); the heap orders by
/// `(at, seq)` ascending.
#[derive(Debug)]
struct QueuedEvent {
    at: u64,
    seq: u64,
    env: Envelope,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Scheduler/arena counters exposed for observability: how delivery
/// traffic split between the flat ring and the binary-heap fallback, and
/// the inbox arena's high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Logical messages scheduled through the flat ring (round-aligned
    /// delays; broadcasts counted expanded).
    pub ring_enqueued: u64,
    /// Messages scheduled through the binary-heap fallback (unaligned
    /// delays, or everything under the reference scheduler).
    pub heap_enqueued: u64,
    /// Peak number of envelopes materialized in the per-node inbox arena.
    pub arena_hwm: usize,
}

/// Discrete-event network simulator.
///
/// Drives the same [`Node`] automata as [`crate::SyncNetwork`], but message
/// delivery times come from a [`LatencySpec`] over virtual time instead of
/// lockstep rounds. Determinism: the event queue is ordered by
/// `(deliver_at, seq)` where `seq` is the global send counter, so for a
/// fixed seed, latency, and fault plan the execution — inbox
/// contents, inbox order, statistics — is byte-identical across runs.
pub struct EventNetwork {
    nodes: Vec<Box<dyn Node>>,
    /// Heap fallback for out-of-band deliveries: jittered delays, schedule
    /// overrides — anything whose arrival tick is not a round boundary.
    /// Under the reference scheduler it carries *everything*.
    heap: BinaryHeap<QueuedEvent>,
    /// The flat delivery ring: one bucket of compressed delivery records
    /// per upcoming round boundary. `ring[k]` matures at round
    /// `ring_base + k`. Buckets are in send (= seq) order by construction,
    /// so maturing a bucket needs no sorting.
    ring: VecDeque<Vec<Record>>,
    /// Round index of `ring.front()`.
    ring_base: u64,
    /// Heap deliveries popped for the current boundary, filed per node in
    /// `(deliver_at, seq)` order.
    pending: Vec<Vec<Envelope>>,
    /// Reorder-faulted messages, appended after everything else at the
    /// boundary.
    pending_reordered: Vec<Vec<Envelope>>,
    /// Logical messages still in flight (ring records counted expanded).
    in_flight: u64,
    /// Reused per-node inbox arena: envelopes are materialized into this
    /// buffer at each boundary, and the buffer and the envelopes that stay
    /// the same are recycled across nodes (see `Arena::refill`).
    arena: Arena,
    now: u64,
    seq: u64,
    round: u32,
    stats: NetStats,
    faults: FaultPlan,
    /// The base latency, its per-link overrides and the seed of their
    /// draws; see [`EventNetwork::set_latency`].
    latency: LatencySpec,
    links: Vec<LinkLatencySpec>,
    seed: u64,
    rushing: Vec<NodeId>,
    /// Per-message flight-time overrides keyed by *send index* (the k-th
    /// message handed to the transport, counting from 0). See
    /// [`EventNetwork::set_delay_overrides`].
    delay_overrides: DelayOverrides,
    /// When enabled, the applied flight time of every sent message, in
    /// send order.
    delay_log: Option<Vec<(u32, u64)>>,
    /// Messages handed to the transport so far — the key space of
    /// `delay_overrides` and the index space of `delay_log`.
    sent: u64,
    /// Force every delivery through the binary heap (the pre-ring
    /// scheduler). Used by equivalence tests as the reference ordering.
    reference_scheduler: bool,
    /// Ring/heap/arena counters; see [`SchedCounters`].
    sched: SchedCounters,
    /// End-of-round virtual-tick marks, one per executed round. `None`
    /// when observability is off.
    round_marks: Option<Vec<u64>>,
    /// End-of-round wall-clock marks (µs since `enable_round_marks`) and
    /// their epoch, recorded beside `round_marks`.
    wall_marks: Option<(std::time::Instant, Vec<u64>)>,
    /// Peak number of deliveries in flight seen at any round boundary
    /// (only tracked while round marks are enabled).
    max_queue_depth: usize,
}

impl EventNetwork {
    /// Build a network from node automata (synchronous latency by default).
    ///
    /// # Panics
    ///
    /// Panics if `nodes[i].id() != NodeId(i)` — ids must match positions so
    /// the simulator can stamp senders (N2) — or on more than 65 534 nodes.
    pub fn new(nodes: Vec<Box<dyn Node>>) -> Self {
        delivery::check_nodes(&nodes);
        let n = nodes.len();
        EventNetwork {
            nodes,
            heap: BinaryHeap::new(),
            ring: VecDeque::new(),
            ring_base: 0,
            pending: (0..n).map(|_| Vec::new()).collect(),
            pending_reordered: (0..n).map(|_| Vec::new()).collect(),
            in_flight: 0,
            arena: Arena::default(),
            now: 0,
            seq: 0,
            round: 0,
            stats: NetStats::new(n),
            faults: FaultPlan::new(),
            latency: LatencySpec::Synchronous,
            links: Vec::new(),
            seed: 0,
            rushing: Vec::new(),
            delay_overrides: Arc::new(HashMap::new()),
            delay_log: None,
            sent: 0,
            reference_scheduler: false,
            sched: SchedCounters::default(),
            round_marks: None,
            wall_marks: None,
            max_queue_depth: 0,
        }
    }

    /// Enable end-of-round timestamping. Marks are *virtual ticks* — the
    /// round-boundary time after each executed round — so for a fixed seed,
    /// latency, and fault plan they are byte-identical across runs
    /// and machines (the same determinism contract as the event queue
    /// itself). Also starts tracking the peak number of deliveries in
    /// flight observed at round boundaries, and records wall-clock marks
    /// beside the virtual ones ([`EventNetwork::wall_marks`]).
    pub fn enable_round_marks(&mut self) {
        self.round_marks = Some(Vec::new());
        self.wall_marks = Some((std::time::Instant::now(), Vec::new()));
    }

    /// End-of-round marks recorded so far (virtual ticks), or `None` when
    /// observability is off.
    pub fn round_marks(&self) -> Option<&[u64]> {
        self.round_marks.as_deref()
    }

    /// End-of-round wall-clock marks recorded so far, in µs since
    /// [`EventNetwork::enable_round_marks`], or `None` when observability
    /// is off. Unlike the virtual-tick marks they are *not*
    /// deterministic and must never feed an equivalence surface.
    pub fn wall_marks(&self) -> Option<&[u64]> {
        self.wall_marks.as_ref().map(|(_, marks)| marks.as_slice())
    }

    /// Peak deliveries-in-flight observed at round boundaries, or `None`
    /// when round marks were never enabled.
    pub fn max_queue_depth(&self) -> Option<usize> {
        self.round_marks.as_ref().map(|_| self.max_queue_depth)
    }

    /// Time messages by `spec`, except on the directed links that `links`
    /// override (the last override naming a link wins), drawing every
    /// delay from `seed` (default: [`LatencySpec::Synchronous`], no
    /// overrides). Any override turns the compressed-broadcast fast path
    /// off, since one destination may get a different delay.
    pub fn set_latency(&mut self, spec: LatencySpec, links: &[LinkLatencySpec], seed: u64) {
        self.latency = spec;
        self.links = links.to_vec();
        self.seed = seed;
    }

    /// The flight time of a message sent from `from` to `to` in `round`
    /// before any override or fault.
    fn link_delay(&self, from: NodeId, to: NodeId, round: u32) -> u64 {
        self.links
            .iter()
            .rev()
            .find(|link| link.from == from && link.to == to)
            .map_or(self.latency, |link| link.spec)
            .delay(self.seed, from, to, round)
    }

    /// Install per-message flight-time overrides, keyed by send index (the
    /// k-th message handed to the transport, counting from 0) and valued in
    /// virtual ticks.
    ///
    /// This is the adversarial scheduler's hook: an override *replaces* the
    /// drawn delay for exactly that message (still clamped to ≥ 1 tick;
    /// [`LinkFault::Delay`] faults are added on top afterwards, exactly as
    /// for drawn delays). Because execution is a pure function of the node
    /// automata, the latency, the fault plan,
    /// and these overrides, re-installing the same override map replays a
    /// schedule byte-for-byte — the replay contract behind
    /// `fd_core::schedsearch`'s schedule certificates.
    ///
    /// The map is taken by [`Arc`] handle ([`DelayOverrides`]) so callers
    /// replaying one schedule many times — the scheduler search runs the
    /// same certificate on thousands of fresh networks — share it instead
    /// of paying an O(messages) copy per run.
    pub fn set_delay_overrides(&mut self, overrides: DelayOverrides) {
        self.delay_overrides = overrides;
    }

    /// Record the applied flight time of every sent message (send round and
    /// pre-fault delay in ticks, in send order), readable afterwards via
    /// [`EventNetwork::delay_log`]. Off by default — the log costs memory
    /// proportional to the message count.
    pub fn enable_delay_log(&mut self) {
        self.delay_log = Some(Vec::new());
    }

    /// The applied per-message delays, if [`EventNetwork::enable_delay_log`]
    /// was called: entry `k` is `(send_round, ticks)` of the k-th sent
    /// message. Feeding these back through
    /// [`EventNetwork::set_delay_overrides`] on a fresh network reproduces
    /// the run exactly.
    pub fn delay_log(&self) -> Option<&[(u32, u64)]> {
        self.delay_log.as_deref()
    }

    /// Install a link-fault plan (timing and N1 violations for tests).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Force every delivery through the binary heap, disabling the flat
    /// ring and the compressed-broadcast fast path. The heap scheduler is
    /// the original `(deliver_at, seq)` reference ordering; equivalence
    /// tests run it against the hybrid to pin total delivery order.
    pub fn set_reference_scheduler(&mut self, on: bool) {
        self.reference_scheduler = on;
    }

    /// Ring/heap/arena counters accumulated so far.
    pub fn sched_counters(&self) -> SchedCounters {
        self.sched
    }

    /// Grant *rushing* power to the given (byzantine) nodes — the same
    /// semantics as [`crate::SyncNetwork::set_rushing`]: they act after all
    /// other nodes at each round boundary and preview the messages those
    /// nodes addressed to them in the same round.
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

    /// Current virtual time in ticks.
    pub fn now(&self) -> u64 {
        self.now
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

    /// Consume the network, returning the automata, the statistics, and
    /// the recorded delay log by move — the report path's alternative to
    /// `stats().clone()` + `delay_log().to_vec()` + `into_nodes()`.
    #[allow(clippy::type_complexity)]
    pub fn finish(self) -> (Vec<Box<dyn Node>>, NetStats, Option<Vec<(u32, u64)>>) {
        (self.nodes, self.stats, self.delay_log)
    }

    /// `true` when every node reports [`Node::is_done`].
    pub fn all_done(&self) -> bool {
        self.nodes.iter().all(|n| n.is_done())
    }

    /// Apply delivery-time faults and file the message into its inbox.
    /// Delay was already applied when the delivery was scheduled.
    fn deliver(&mut self, env: Envelope) {
        let to = env.to.index();
        let fault = self.faults.lookup(env.round, env.from, env.to);
        fault::deliver(
            fault,
            env,
            &mut self.pending[to],
            &mut self.pending_reordered[to],
        );
    }

    /// Park `record` in the ring bucket for round-boundary `at` (must be a
    /// multiple of [`TICKS_PER_ROUND`], strictly in the future).
    fn ring_push(&mut self, at: u64, record: Record) {
        debug_assert!(at.is_multiple_of(TICKS_PER_ROUND));
        let idx = (at / TICKS_PER_ROUND - self.ring_base) as usize;
        if self.ring.len() <= idx {
            self.ring.resize_with(idx + 1, Vec::new);
        }
        self.ring[idx].push(record);
    }

    /// Advance virtual time to the next round boundary and execute it.
    pub fn step(&mut self) {
        let round = self.round;
        let boundary = u64::from(round) * TICKS_PER_ROUND;
        self.now = boundary;

        // Mature this boundary's ring bucket and index it by destination.
        // Records are already in send (= seq) order; all of them arrive
        // exactly at the boundary.
        let n = self.nodes.len();
        let bucket: Vec<Record> = if self.ring_base == u64::from(round) {
            self.ring_base += 1;
            self.ring.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        let bucket = [bucket];
        let delivery = Delivery::new(&bucket, n);
        self.in_flight -= delivery.messages() as u64;
        self.arena.forget();

        // Drain heap events due at or before the boundary into the pending
        // inboxes in (deliver_at, seq) order. In hybrid mode the heap only
        // holds unaligned deliveries (strictly before the boundary), so
        // they sort ahead of every bucket record; under the reference
        // scheduler the heap carries everything, aligned included.
        while let Some(ev) = self.heap.peek() {
            if ev.at > boundary {
                break;
            }
            let ev = self.heap.pop().expect("peeked");
            self.in_flight -= 1;
            self.deliver(ev.env);
        }

        // Run every node on its inbox, non-rushers first in id order, then
        // rushers (who preview this round's traffic addressed to them).
        let order: Vec<usize> = (0..n)
            .filter(|i| !self.rushing.contains(&NodeId(*i as u16)))
            .chain((0..n).filter(|i| self.rushing.contains(&NodeId(*i as u16))))
            .collect();
        let mut sent_this_round: Vec<Envelope> = Vec::new();
        for i in order {
            self.run_node(i, round, &delivery, &mut sent_this_round);
        }

        self.round = round + 1;
        self.stats.rounds = self.round;
        if let Some(marks) = self.round_marks.as_mut() {
            marks.push(u64::from(self.round) * TICKS_PER_ROUND);
            self.max_queue_depth = self.max_queue_depth.max(self.in_flight as usize);
        }
        if let Some((epoch, marks)) = self.wall_marks.as_mut() {
            marks.push(u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }

    /// Assemble node `i`'s inbox into the arena, run its round, and
    /// dispatch its outbox.
    fn run_node(
        &mut self,
        i: usize,
        round: u32,
        delivery: &Delivery<'_>,
        sent_this_round: &mut Vec<Envelope>,
    ) {
        let me = NodeId(i as u16);
        let arena = &mut self.arena;
        if self.pending[i].is_empty() && self.faults.is_empty() {
            // Only this node's records of the matured bucket.
            arena.refill(delivery, me);
        } else {
            // Heap deliveries first (strictly earlier arrival ticks in
            // hybrid mode; everything in reference mode), then the bucket's
            // records, each through the same per-delivery fault dispatch as
            // `deliver` (a delay was applied at send time).
            arena.clear();
            arena.inbox.append(&mut self.pending[i]);
            for env in delivery.inbound(me) {
                let fault = self.faults.lookup(env.round, env.from, env.to);
                fault::deliver(fault, env, &mut arena.inbox, &mut self.pending_reordered[i]);
            }
        }
        // …then reorder-faulted messages, then a rusher's preview.
        let inbox = &mut arena.inbox;
        inbox.append(&mut self.pending_reordered[i]);
        if self.rushing.contains(&me) {
            inbox.extend(sent_this_round.iter().filter(|env| env.to == me).cloned());
        }

        let mut out = Outbox::new();
        self.nodes[i].on_round(round, inbox, &mut out);
        self.sched.arena_hwm = self.sched.arena_hwm.max(inbox.len());

        self.dispatch_outbox(me, round, out, sent_this_round);
    }

    /// Schedule a node's queued sends. A broadcast or scatter over the
    /// whole system from its sender rides the compressed fast path — one
    /// ring record and one batched statistics update for `n − 1` logical
    /// messages — whenever nothing per-message-observable is active;
    /// everything else expands through [`EventNetwork::send_one`] in
    /// exactly the per-message order.
    fn dispatch_outbox(
        &mut self,
        from: NodeId,
        round: u32,
        out: Outbox,
        sent_this_round: &mut Vec<Envelope>,
    ) {
        let n = self.nodes.len();
        // Per-message machinery that the compressed path cannot feed:
        // faults (per-link lookups), delay logging/overrides
        // (send-index keyed), rushing previews, and the reference
        // scheduler itself.
        let fast_eligible = !self.reference_scheduler
            && self.faults.is_empty()
            && self.delay_log.is_none()
            && self.delay_overrides.is_empty()
            && self.rushing.is_empty();
        let uniform = if fast_eligible && self.links.is_empty() {
            self.latency
                .uniform_delay(round)
                .map(|d| d.max(1))
                .filter(|d| d.is_multiple_of(TICKS_PER_ROUND))
        } else {
            None
        };
        for op in out.into_ops() {
            match (op, uniform) {
                (
                    OutOp::Broadcast {
                        n: bn,
                        skip,
                        payload,
                    },
                    Some(delay),
                ) if bn == n && skip == from => {
                    self.ring_fan_out(delay, from, round, Record::BROADCAST, payload);
                }
                (OutOp::Scatter { n: sn, skip, first }, Some(delay)) if sn == n && skip == from => {
                    self.ring_fan_out(delay, from, round, Record::SCATTER, first);
                }
                (op, _) => op.for_each_message(|to, payload| {
                    self.send_one(from, round, to, payload, sent_this_round);
                }),
            }
        }
    }

    /// Park a broadcast or scatter (`to`) of `n − 1` logical messages as
    /// one ring record `delay` ticks ahead, counted as those messages.
    fn ring_fan_out(&mut self, delay: u64, from: NodeId, round: u32, to: NodeId, payload: Payload) {
        let count = self.nodes.len().saturating_sub(1);
        if count == 0 {
            return;
        }
        self.stats
            .record_send_n(from, round, Envelope::wire_len_with(payload.len()), count);
        self.sent += count as u64;
        self.seq += count as u64;
        self.in_flight += count as u64;
        self.sched.ring_enqueued += count as u64;
        self.ring_push(
            self.now + delay,
            Record {
                payload,
                from,
                to,
                round,
            },
        );
    }

    /// Schedule one message exactly as the legacy per-message path did,
    /// then route it: round-aligned arrivals park in the flat ring,
    /// anything else (or everything, under the reference scheduler) goes
    /// through the binary heap.
    fn send_one(
        &mut self,
        from: NodeId,
        round: u32,
        to: NodeId,
        payload: Payload,
        sent_this_round: &mut Vec<Envelope>,
    ) {
        if to.index() >= self.nodes.len() {
            self.stats.dropped_invalid += 1;
            return;
        }
        let env = Envelope {
            from,
            to,
            round,
            payload,
        };
        self.stats.record_send(from, round, env.wire_len());
        let mut delay = self
            .delay_overrides
            .get(&self.sent)
            .copied()
            .unwrap_or_else(|| self.link_delay(from, to, round))
            .max(1);
        if let Some(log) = self.delay_log.as_mut() {
            log.push((round, delay));
        }
        self.sent += 1;
        if let Some(LinkFault::Delay { rounds }) = self.faults.lookup(round, from, to) {
            delay += u64::from(rounds) * TICKS_PER_ROUND;
        }
        // The preview copy is only needed while a rusher is active.
        if !self.rushing.is_empty() {
            sent_this_round.push(env.clone());
        }
        self.seq += 1;
        self.in_flight += 1;
        let at = self.now + delay;
        if !self.reference_scheduler && at.is_multiple_of(TICKS_PER_ROUND) {
            self.sched.ring_enqueued += 1;
            self.ring_push(
                at,
                Record {
                    payload: env.payload,
                    from,
                    to,
                    round,
                },
            );
        } else {
            self.sched.heap_enqueued += 1;
            self.heap.push(QueuedEvent {
                at,
                seq: self.seq,
                env,
            });
        }
    }

    /// Run until every node is done and no message is in flight (checked
    /// after at least one round), or `max_rounds` is reached. Returns the
    /// number of rounds executed.
    pub fn run_until_done(&mut self, max_rounds: u32) -> u32 {
        while self.round < max_rounds {
            self.step();
            if self.all_done()
                && self.in_flight == 0
                && self.pending.iter().all(Vec::is_empty)
                && self.pending_reordered.iter().all(Vec::is_empty)
            {
                break;
            }
        }
        self.round
    }
}

impl core::fmt::Debug for EventNetwork {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventNetwork")
            .field("n", &self.nodes.len())
            .field("round", &self.round)
            .field("now", &self.now)
            .field("in_flight", &self.in_flight)
            .field("latency", &self.latency)
            .field("links", &self.links)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncNetwork;
    use std::any::Any;

    /// Sends its id to every peer in round 0, then records what it saw and
    /// in which round it saw it.
    struct Echo {
        id: NodeId,
        n: usize,
        seen: Vec<(u32, NodeId, Vec<u8>)>,
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
                self.seen.push((round, env.from, env.payload.to_vec()));
            }
        }
        fn is_done(&self) -> bool {
            self.seen.len() + 1 >= self.n
        }
    }

    fn echo_nodes(n: usize) -> Vec<Box<dyn Node>> {
        (0..n)
            .map(|i| {
                Box::new(Echo {
                    id: NodeId(i as u16),
                    n,
                    seen: Vec::new(),
                }) as Box<dyn Node>
            })
            .collect()
    }

    fn seen(net: EventNetwork) -> Vec<Vec<(u32, NodeId, Vec<u8>)>> {
        net.into_nodes()
            .into_iter()
            .map(|b| (b as Box<dyn Any>).downcast::<Echo>().unwrap().seen)
            .collect()
    }

    #[test]
    fn synchronous_latency_matches_sync_network_exactly() {
        let mut sync = SyncNetwork::new(echo_nodes(5));
        let sync_rounds = sync.run_until_done(10);
        let mut event = EventNetwork::new(echo_nodes(5));
        let event_rounds = event.run_until_done(10);
        assert_eq!(sync_rounds, event_rounds);
        assert_eq!(sync.stats(), event.stats());
        let sync_seen: Vec<_> = sync
            .into_nodes()
            .into_iter()
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<Echo>()
                    .unwrap()
                    .seen
                    .iter()
                    .map(|(_, f, p)| (*f, p.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let event_seen: Vec<_> = seen(event)
            .into_iter()
            .map(|s| s.into_iter().map(|(_, f, p)| (f, p)).collect::<Vec<_>>())
            .collect();
        assert_eq!(sync_seen, event_seen);
    }

    #[test]
    fn runs_are_deterministic_across_repeats() {
        let run = |seed| {
            let mut net = EventNetwork::new(echo_nodes(6));
            net.set_latency(LatencySpec::Jitter { extra: 2 }, &[], seed);
            net.run_until_done(12);
            let stats = net.stats().clone();
            (stats, seen(net))
        };
        assert_eq!(run(9), run(9));
        // Different seeds reshuffle arrival rounds.
        let (_, a) = run(1);
        let (_, b) = run(2);
        assert_ne!(a, b, "different jitter seeds produced identical timing");
    }

    #[test]
    fn jitter_spreads_arrivals_across_rounds() {
        let mut net = EventNetwork::new(echo_nodes(6));
        net.set_latency(LatencySpec::Jitter { extra: 2 }, &[], 3);
        net.run_until_done(12);
        let all: Vec<u32> = seen(net)
            .into_iter()
            .flatten()
            .map(|(round, _, _)| round)
            .collect();
        assert!(all.iter().all(|&r| (1..=3).contains(&r)));
        assert!(
            all.iter().any(|&r| r > 1),
            "extra=2 jitter never delayed anything"
        );
    }

    #[test]
    fn fixed_delay_shifts_every_arrival() {
        let mut net = EventNetwork::new(echo_nodes(4));
        net.set_latency(LatencySpec::Fixed { rounds: 3 }, &[], 0);
        net.run_until_done(10);
        for node in seen(net) {
            assert!(node.iter().all(|&(round, _, _)| round == 3));
        }
    }

    #[test]
    fn partial_synchrony_is_synchronous_after_gst() {
        struct TwoShot {
            id: NodeId,
            n: usize,
            seen: Vec<(u32, NodeId)>,
        }
        impl Node for TwoShot {
            fn id(&self) -> NodeId {
                self.id
            }
            fn on_round(&mut self, round: u32, inbox: &[Envelope], out: &mut Outbox) {
                // Broadcast in round 0 (before gst) and round 5 (after).
                if round == 0 || round == 5 {
                    out.broadcast(self.n, self.id, [round as u8]);
                }
                for env in inbox {
                    self.seen.push((round, env.from));
                }
            }
        }
        let nodes: Vec<Box<dyn Node>> = (0..5)
            .map(|i| {
                Box::new(TwoShot {
                    id: NodeId(i),
                    n: 5,
                    seen: Vec::new(),
                }) as Box<dyn Node>
            })
            .collect();
        let mut net = EventNetwork::new(nodes);
        net.set_latency(LatencySpec::PartialSynchrony { gst: 5, extra: 3 }, &[], 11);
        for _ in 0..8 {
            net.step();
        }
        for boxed in net.into_nodes() {
            let node = (boxed as Box<dyn Any>).downcast::<TwoShot>().unwrap();
            // Post-gst messages arrive exactly one round later.
            assert!(node
                .seen
                .iter()
                .filter(|(r, _)| *r > 5)
                .all(|(r, _)| *r == 6));
        }
    }

    #[test]
    fn per_link_override_slows_one_link() {
        let mut net = EventNetwork::new(echo_nodes(3));
        let slow = LinkLatencySpec {
            from: NodeId(0),
            to: NodeId(1),
            spec: LatencySpec::Fixed { rounds: 4 },
        };
        net.set_latency(LatencySpec::Synchronous, &[slow], 0);
        net.run_until_done(10);
        let all = seen(net);
        // P1 got P2's message in round 1 and P0's only in round 4.
        let rounds_at_p1: Vec<(u32, NodeId)> = all[1].iter().map(|&(r, f, _)| (r, f)).collect();
        assert_eq!(rounds_at_p1, vec![(1, NodeId(2)), (4, NodeId(0))]);
    }

    #[test]
    fn delay_fault_adds_whole_rounds() {
        let mut net = EventNetwork::new(echo_nodes(3));
        net.set_fault_plan(FaultPlan::new().with(
            0,
            NodeId(0),
            NodeId(1),
            LinkFault::Delay { rounds: 2 },
        ));
        net.run_until_done(10);
        let all = seen(net);
        let arrivals: Vec<(u32, NodeId)> = all[1].iter().map(|&(r, f, _)| (r, f)).collect();
        assert_eq!(arrivals, vec![(1, NodeId(2)), (3, NodeId(0))]);
    }

    #[test]
    fn zero_round_delay_is_a_noop_on_both_engines() {
        let plan = FaultPlan::new().with(0, NodeId(0), NodeId(1), LinkFault::Delay { rounds: 0 });
        let mut sync = SyncNetwork::new(echo_nodes(3));
        sync.set_fault_plan(plan.clone());
        let sync_rounds = sync.run_until_done(6);
        let mut event = EventNetwork::new(echo_nodes(3));
        event.set_fault_plan(plan);
        let event_rounds = event.run_until_done(6);
        assert_eq!(sync_rounds, event_rounds);
        assert_eq!(sync.stats(), event.stats());
        // The message still arrived in round 1 on both engines.
        let all = seen(event);
        assert_eq!(
            all[1].iter().map(|&(r, f, _)| (r, f)).collect::<Vec<_>>(),
            vec![(1, NodeId(0)), (1, NodeId(2))]
        );
    }

    #[test]
    fn reorder_fault_moves_message_last_in_round() {
        let mut net = EventNetwork::new(echo_nodes(3));
        net.set_fault_plan(FaultPlan::new().with(0, NodeId(0), NodeId(2), LinkFault::Reorder));
        net.run_until_done(5);
        let all = seen(net);
        let froms: Vec<NodeId> = all[2].iter().map(|&(_, f, _)| f).collect();
        assert_eq!(froms, vec![NodeId(1), NodeId(0)]);
    }

    #[test]
    fn drop_corrupt_duplicate_match_sync_semantics() {
        let plan = FaultPlan::new()
            .with(0, NodeId(0), NodeId(1), LinkFault::Drop)
            .with(0, NodeId(2), NodeId(1), LinkFault::Duplicate)
            .with(
                0,
                NodeId(0),
                NodeId(2),
                LinkFault::Corrupt {
                    offset: 0,
                    mask: 0xff,
                },
            );
        let mut sync = SyncNetwork::new(echo_nodes(4));
        sync.set_fault_plan(plan.clone());
        sync.run_until_done(6);
        let mut event = EventNetwork::new(echo_nodes(4));
        event.set_fault_plan(plan);
        event.run_until_done(6);
        assert_eq!(sync.stats(), event.stats());
        let sync_seen: Vec<Vec<(NodeId, Vec<u8>)>> = sync
            .into_nodes()
            .into_iter()
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<Echo>()
                    .unwrap()
                    .seen
                    .iter()
                    .map(|(_, f, p)| (*f, p.clone()))
                    .collect()
            })
            .collect();
        let event_seen: Vec<Vec<(NodeId, Vec<u8>)>> = seen(event)
            .into_iter()
            .map(|s| s.into_iter().map(|(_, f, p)| (f, p)).collect())
            .collect();
        assert_eq!(sync_seen, event_seen);
    }

    #[test]
    fn rushing_preview_matches_sync_semantics() {
        let mut sync = SyncNetwork::new(echo_nodes(3));
        sync.set_rushing(vec![NodeId(2)]);
        sync.run_until_done(5);
        let mut event = EventNetwork::new(echo_nodes(3));
        event.set_rushing(vec![NodeId(2)]);
        event.run_until_done(5);
        assert_eq!(sync.stats(), event.stats());
        let rushed = seen(event);
        // Preview (2 messages in round 0) + regular delivery (2 in round 1).
        assert_eq!(rushed[2].len(), 4);
        assert!(rushed[2][..2].iter().all(|&(r, _, _)| r == 0));
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
        let mut net = EventNetwork::new(vec![Box::new(Stray { id: NodeId(0) })]);
        net.run_until_done(3);
        assert_eq!(net.stats().messages_total, 0);
        assert_eq!(net.stats().dropped_invalid, 1);
    }

    #[test]
    #[should_panic(expected = "reports id")]
    fn mismatched_ids_rejected() {
        let _ = EventNetwork::new(vec![Box::new(Echo {
            id: NodeId(5),
            n: 1,
            seen: Vec::new(),
        })]);
    }

    #[test]
    fn virtual_time_tracks_round_boundaries() {
        let mut net = EventNetwork::new(echo_nodes(3));
        assert_eq!(net.now(), 0);
        net.step();
        assert_eq!(net.round(), 1);
        net.step();
        assert_eq!(net.now(), TICKS_PER_ROUND);
    }

    #[test]
    fn latency_spec_parse_round_trips() {
        for spec in [
            LatencySpec::Synchronous,
            LatencySpec::Fixed { rounds: 2 },
            LatencySpec::Jitter { extra: 3 },
            LatencySpec::PartialSynchrony { gst: 4, extra: 1 },
        ] {
            assert_eq!(LatencySpec::parse(&spec.name()).unwrap(), spec);
        }
        // Specs byte-equivalent to synchrony normalize onto it, so the
        // strict checks keyed on Synchronous still apply.
        for sync_alias in ["fixed:1", "jitter:0", "psync:0:3", "psync:3:0"] {
            assert_eq!(
                LatencySpec::parse(sync_alias).unwrap(),
                LatencySpec::Synchronous,
                "{sync_alias}"
            );
        }
        assert!(LatencySpec::parse("warp:9").is_err());
        assert!(LatencySpec::parse("fixed:0").is_err());
        assert!(LatencySpec::parse("jitter").is_err());
        assert!(LatencySpec::parse("sync:1").is_err());
        assert!(LatencySpec::parse("jitter:4294967295").is_err());
        assert!(LatencySpec::parse("fixed:10001").is_err());
        assert_eq!(Engine::parse("event").unwrap(), Engine::Event);
        assert!(Engine::parse("quantum").is_err());
    }

    #[test]
    fn delay_override_replaces_model_delay_for_one_message() {
        // Baseline: everything arrives in round 1.
        let mut net = EventNetwork::new(echo_nodes(3));
        net.enable_delay_log();
        net.run_until_done(10);
        let log: Vec<(u32, u64)> = net.delay_log().unwrap().to_vec();
        assert_eq!(log.len(), 6);
        assert!(log.iter().all(|&(r, d)| r == 0 && d == TICKS_PER_ROUND));

        // Override the very first sent message (P0 -> P1 under id order)
        // to take three rounds; everything else is untouched.
        let mut net = EventNetwork::new(echo_nodes(3));
        net.set_delay_overrides(Arc::new(HashMap::from([(0u64, 3 * TICKS_PER_ROUND)])));
        net.enable_delay_log();
        net.run_until_done(10);
        assert_eq!(net.delay_log().unwrap()[0], (0, 3 * TICKS_PER_ROUND));
        let all = seen(net);
        let at_p1: Vec<(u32, NodeId)> = all[1].iter().map(|&(r, f, _)| (r, f)).collect();
        assert_eq!(at_p1, vec![(1, NodeId(2)), (3, NodeId(0))]);
    }

    #[test]
    fn replaying_a_delay_log_reproduces_the_run_exactly() {
        let run = |overrides: HashMap<u64, u64>| {
            let mut net = EventNetwork::new(echo_nodes(6));
            net.set_latency(LatencySpec::Jitter { extra: 2 }, &[], 5);
            net.set_delay_overrides(Arc::new(overrides));
            net.enable_delay_log();
            net.run_until_done(15);
            let stats = net.stats().clone();
            let log: Vec<(u32, u64)> = net.delay_log().unwrap().to_vec();
            (stats, log, seen(net))
        };
        let (stats, log, observed) = run(HashMap::new());
        // Replay the recorded schedule through the override hook on a
        // fresh network with a *different* base latency: identical run.
        let schedule: HashMap<u64, u64> = log
            .iter()
            .enumerate()
            .map(|(i, &(_, d))| (i as u64, d))
            .collect();
        let mut replay = EventNetwork::new(echo_nodes(6));
        replay.set_delay_overrides(Arc::new(schedule));
        replay.enable_delay_log();
        replay.run_until_done(15);
        assert_eq!(replay.stats(), &stats);
        assert_eq!(replay.delay_log().unwrap(), &log[..]);
        assert_eq!(seen(replay), observed);
    }

    #[test]
    fn link_latency_spec_parses_and_builds_per_link() {
        let link = LinkLatencySpec::parse("0:1:fixed:4").unwrap();
        assert_eq!(link.from, NodeId(0));
        assert_eq!(link.to, NodeId(1));
        assert_eq!(link.spec, LatencySpec::Fixed { rounds: 4 });
        assert_eq!(LinkLatencySpec::parse(&link.name()).unwrap(), link);
        assert!(LinkLatencySpec::parse("0:0:fixed:4").is_err());
        assert!(LinkLatencySpec::parse("0:1").is_err());
        assert!(LinkLatencySpec::parse("0:1:warp").is_err());
        assert!(LinkLatencySpec::parse("x:1:sync").is_err());

        let mut net = EventNetwork::new(echo_nodes(3));
        net.set_latency(LatencySpec::Synchronous, &[link], 1);
        net.run_until_done(10);
        let all = seen(net);
        let at_p1: Vec<(u32, NodeId)> = all[1].iter().map(|&(r, f, _)| (r, f)).collect();
        assert_eq!(at_p1, vec![(1, NodeId(2)), (4, NodeId(0))]);
    }

    #[test]
    fn tick_bounds_describe_each_spec_envelope() {
        let t = TICKS_PER_ROUND;
        assert_eq!(LatencySpec::Synchronous.tick_bounds(0), (t, t));
        assert_eq!(
            LatencySpec::Fixed { rounds: 3 }.tick_bounds(5),
            (3 * t, 3 * t)
        );
        assert_eq!(LatencySpec::Jitter { extra: 2 }.tick_bounds(9), (t, 3 * t));
        let ps = LatencySpec::PartialSynchrony { gst: 4, extra: 1 };
        assert_eq!(ps.tick_bounds(3), (t, 2 * t));
        assert_eq!(ps.tick_bounds(4), (t, t));
        // Every drawn delay lies within the advertised bounds.
        for spec in [
            LatencySpec::Jitter { extra: 2 },
            LatencySpec::PartialSynchrony { gst: 2, extra: 3 },
        ] {
            for round in 0..6u32 {
                let (lo, hi) = spec.tick_bounds(round);
                for (a, b) in [(0u16, 1u16), (1, 2), (3, 0)] {
                    let d = spec.delay(11, NodeId(a), NodeId(b), round);
                    assert!((lo..=hi).contains(&d), "{spec:?} round {round}: {d}");
                }
            }
        }
    }

    #[test]
    fn latency_draws_match_known_answers() {
        // Values the engine has always drawn for these inputs: a change
        // here changes every jittered run, certificate and report.
        let (p0, p1, p2, p3, p4) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4));
        let jitter = LatencySpec::Jitter { extra: 2 };
        assert_eq!(jitter.delay(5, p0, p1, 0), 2352);
        assert_eq!(jitter.delay(5, p3, p0, 2), 2428);
        assert_eq!(jitter.delay(5, p1, p2, 7), 1946);
        assert_eq!(jitter.uniform_delay(0), None);
        let psync = LatencySpec::PartialSynchrony { gst: 2, extra: 3 };
        assert_eq!(psync.delay(11, p0, p1, 0), 1751);
        assert_eq!(psync.delay(11, p0, p1, 1), 2514);
        assert_eq!(psync.delay(11, p0, p1, 2), 1024);
        assert_eq!(psync.delay(11, p4, p2, 1), 1193);
        assert_eq!(psync.uniform_delay(1), None);
        assert_eq!(psync.uniform_delay(2), Some(TICKS_PER_ROUND));
        assert_eq!(
            LatencySpec::Fixed { rounds: 0 }.uniform_delay(3),
            Some(TICKS_PER_ROUND)
        );

        // `sync` base, `0:1:jitter:2` override, seed 9, round 3: the
        // override draws on its link, the base times the reverse link.
        let mut net = EventNetwork::new(echo_nodes(3));
        let link = LinkLatencySpec::parse("0:1:jitter:2").unwrap();
        net.set_latency(LatencySpec::Synchronous, &[link], 9);
        assert_eq!(net.link_delay(p0, p1, 3), 2855);
        assert_eq!(net.link_delay(p1, p0, 3), TICKS_PER_ROUND);
        // The last override naming a link wins.
        let first = LinkLatencySpec::parse("0:1:fixed:4").unwrap();
        net.set_latency(LatencySpec::Synchronous, &[first, link], 9);
        assert_eq!(net.link_delay(p0, p1, 3), 2855);
        net.set_latency(LatencySpec::Synchronous, &[link, first], 9);
        assert_eq!(net.link_delay(p0, p1, 3), 4 * TICKS_PER_ROUND);
    }

    #[test]
    fn hybrid_scheduler_matches_reference_heap_exactly() {
        // Same automata, same latency, same faults — one run on the
        // ring+heap hybrid, one forced entirely through the heap. The
        // total delivery order (per node, per round, per sender) and the
        // statistics must be identical.
        let latency = |k: usize| -> (LatencySpec, u64) {
            match k {
                0 => (LatencySpec::Synchronous, 0),
                1 => (LatencySpec::Fixed { rounds: 2 }, 0),
                2 => (LatencySpec::Jitter { extra: 2 }, 7),
                3 => (LatencySpec::PartialSynchrony { gst: 2, extra: 3 }, 13),
                _ => (LatencySpec::Synchronous, 0),
            }
        };
        let faulty = FaultPlan::new()
            .with(0, NodeId(0), NodeId(1), LinkFault::Reorder)
            .with(0, NodeId(2), NodeId(3), LinkFault::Duplicate)
            .with(0, NodeId(4), NodeId(0), LinkFault::Delay { rounds: 2 });
        for k in 0..5usize {
            let plan = if k == 4 {
                faulty.clone()
            } else {
                FaultPlan::new()
            };
            let run = |reference: bool| {
                let mut net = EventNetwork::new(echo_nodes(6));
                net.set_reference_scheduler(reference);
                let (spec, seed) = latency(k);
                net.set_latency(spec, &[], seed);
                net.set_fault_plan(plan.clone());
                net.run_until_done(20);
                (net.stats().clone(), net.sched_counters(), seen(net))
            };
            let (fast_stats, fast_sched, fast_seen) = run(false);
            let (ref_stats, ref_sched, ref_seen) = run(true);
            assert_eq!(fast_stats, ref_stats, "scenario {k}: stats diverged");
            assert_eq!(fast_seen, ref_seen, "scenario {k}: delivery order diverged");
            // The reference run schedules everything through the heap.
            assert_eq!(ref_sched.ring_enqueued, 0, "scenario {k}");
            assert_eq!(
                ref_sched.heap_enqueued,
                fast_sched.ring_enqueued + fast_sched.heap_enqueued,
                "scenario {k}: hybrid lost or invented messages"
            );
        }
    }

    #[test]
    fn sched_counters_split_ring_and_heap_traffic() {
        // Pure synchrony: every delivery is round-aligned → all ring.
        let mut net = EventNetwork::new(echo_nodes(4));
        net.run_until_done(6);
        let sched = net.sched_counters();
        assert_eq!(sched.ring_enqueued, 12);
        assert_eq!(sched.heap_enqueued, 0);
        // Each node materializes 3 envelopes in round 1.
        assert_eq!(sched.arena_hwm, 3);

        // Jitter: unaligned delays fall back to the heap.
        let mut net = EventNetwork::new(echo_nodes(4));
        net.set_latency(LatencySpec::Jitter { extra: 2 }, &[], 3);
        net.run_until_done(12);
        let sched = net.sched_counters();
        assert_eq!(sched.ring_enqueued + sched.heap_enqueued, 12);
        assert!(
            sched.heap_enqueued > 0,
            "extra=2 jitter produced no unaligned delay"
        );

        // Reference mode: everything through the heap, even under synchrony.
        let mut net = EventNetwork::new(echo_nodes(4));
        net.set_reference_scheduler(true);
        net.run_until_done(6);
        let sched = net.sched_counters();
        assert_eq!(sched.ring_enqueued, 0);
        assert_eq!(sched.heap_enqueued, 12);
    }

    #[test]
    fn broadcast_fast_path_keeps_stats_and_order() {
        // A broadcast under synchrony travels compressed; the observable
        // surface (stats, per-node inboxes) must match the expanded form
        // byte for byte. Compare against SyncNetwork, the original oracle.
        let mut sync = SyncNetwork::new(echo_nodes(8));
        sync.run_until_done(10);
        let mut event = EventNetwork::new(echo_nodes(8));
        event.run_until_done(10);
        assert_eq!(sync.stats(), event.stats());
        // All 56 sends rode the ring as compressed broadcasts.
        assert_eq!(event.sched_counters().ring_enqueued, 56);
        assert_eq!(event.sched_counters().heap_enqueued, 0);
        let sync_seen: Vec<_> = sync
            .into_nodes()
            .into_iter()
            .map(|b| {
                (b as Box<dyn Any>)
                    .downcast::<Echo>()
                    .unwrap()
                    .seen
                    .iter()
                    .map(|(_, f, p)| (*f, p.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let event_seen: Vec<_> = seen(event)
            .into_iter()
            .map(|s| s.into_iter().map(|(_, f, p)| (f, p)).collect::<Vec<_>>())
            .collect();
        assert_eq!(sync_seen, event_seen);
    }

    #[test]
    fn fast_path_disengages_per_observable_feature() {
        // Per-message-observable features force the expanded path; the
        // witness is one log entry per *logical* message, which a
        // compressed broadcast could not produce.
        let mut net = EventNetwork::new(echo_nodes(3));
        net.enable_delay_log();
        net.run_until_done(6);
        assert_eq!(net.delay_log().unwrap().len(), 6);
    }

    #[test]
    fn round_budget_covers_worst_case_stretch() {
        assert_eq!(LatencySpec::Synchronous.round_budget(5), 5);
        assert_eq!(LatencySpec::Fixed { rounds: 2 }.round_budget(5), 12);
        assert_eq!(LatencySpec::Jitter { extra: 1 }.round_budget(5), 12);
        assert_eq!(
            LatencySpec::PartialSynchrony { gst: 3, extra: 1 }.round_budget(5),
            15
        );
        // Absurd parameters saturate instead of overflowing.
        assert_eq!(
            LatencySpec::Jitter { extra: u32::MAX }.round_budget(5),
            u32::MAX
        );
        assert_eq!(
            LatencySpec::PartialSynchrony {
                gst: u32::MAX,
                extra: u32::MAX
            }
            .round_budget(5),
            u32::MAX
        );
    }
}
