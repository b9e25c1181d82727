//! Cluster orchestration: fix a configuration, drive node sets, collect
//! reports.
//!
//! A [`Cluster`] fixes `(n, t, scheme, seed)` plus the execution
//! environment (engine, latency, link overrides, faults); every run
//! derived from it is deterministic. *What* to run is described by a
//! [`crate::spec::RunSpec`] and executed through [`Cluster::run`] (one
//! shot) or a [`crate::spec::Session`] (many runs amortizing one key
//! distribution) — see [`crate::spec`] for the execution API.
//!
//! [`Cluster`] drives each run on the configured [`Engine`]: the lockstep
//! [`SyncNetwork`] (paper §2 model, the default) or the discrete-event
//! [`EventNetwork`] with a configurable [`LatencySpec`]. Under
//! [`LatencySpec::Synchronous`] the two engines are byte-identical (the
//! sweep engine cross-validates this); other latency specs expose timing
//! behaviour the synchronous model cannot express.

use crate::ba::Grade;
use crate::keys::{KeyStore, Keyring, PredicateTable};
use crate::localauth::{KdAnomaly, KeyDistNode, KEYDIST_ROUNDS};
use crate::outcome::Outcome;
use fd_crypto::SignatureScheme;
use fd_simnet::fault::FaultPlan;
use fd_simnet::{
    Engine, EventNetwork, LatencySpec, LinkLatencySpec, NetStats, Node, NodeId, SchedCounters,
    SyncNetwork,
};
use std::any::Any;
use std::sync::Arc;

/// A per-message delivery schedule for the event engine, keyed by send
/// index and valued in virtual ticks (see
/// [`EventNetwork::set_delay_overrides`]). Shared by handle all the way
/// into the network, so a search loop re-running the same schedule never
/// copies the map.
pub type Schedule = fd_simnet::DelayOverrides;

/// A function that replaces selected honest nodes with adversaries.
///
/// Return `Some(node)` to substitute the node at `id`, `None` to keep the
/// honest automaton.
pub type Substitution<'a> = &'a mut dyn FnMut(NodeId) -> Option<Box<dyn Node>>;

/// Result of driving a node set to completion on some engine.
pub(crate) struct DriveReport {
    /// The automata, for outcome extraction.
    pub nodes: Vec<Box<dyn Node>>,
    /// Message statistics of the run.
    pub stats: NetStats,
    /// Per-message `(send_round, ticks)` delays in send order, when the
    /// engine recorded them (event engine with delay logging enabled).
    pub delay_log: Option<Vec<(u32, u64)>>,
    /// End-of-round marks when the engine recorded them: wall-clock µs on
    /// the sync engine, virtual ticks on the event engine (see
    /// [`crate::obs::SpanClock`]).
    pub round_marks: Option<Vec<u64>>,
    /// Peak delivery-queue depth observed at round boundaries, when the
    /// engine recorded round marks.
    pub max_queue_depth: Option<usize>,
    /// Scheduler counters (ring vs heap routing, arena high-water mark);
    /// `None` on the sync engine, which has no delivery scheduler.
    pub sched: Option<SchedCounters>,
}

/// Fixed configuration for a family of deterministic runs.
#[derive(Clone)]
pub struct Cluster {
    /// System size.
    pub n: usize,
    /// Tolerated faults.
    pub t: usize,
    /// The signature scheme (test predicate family).
    pub scheme: Arc<dyn SignatureScheme>,
    /// Seed from which all key material and nonces derive.
    pub seed: u64,
    /// Which engine executes the runs (default: [`Engine::Sync`]).
    pub engine: Engine,
    /// Latency model for event-engine runs (default: synchronous).
    pub latency: LatencySpec,
    /// Per-link latency overrides for event-engine runs (default: none).
    pub link_latency: Vec<LinkLatencySpec>,
    /// Link faults installed on every run (default: none).
    pub faults: FaultPlan,
    /// Per-message delivery schedule for event-engine runs (default:
    /// none — the latency model decides every delay).
    pub schedule: Option<Schedule>,
    /// Record applied per-message delays into [`FdRunReport::delay_log`]
    /// (event engine only; default: off).
    pub record_delays: bool,
    /// Force the event engine's reference heap scheduler instead of the
    /// flat-ring fast path (default: off — the fast path is on). Results
    /// are identical either way; the equivalence tests pin that down.
    pub reference_scheduler: bool,
    /// A verification cache installed on every run's key stores in place
    /// of the private per-run one `None` (the default) gives each run.
    /// Sharing one across runs is sound and cannot change report bytes
    /// (see [`crate::keys::VerifyCache`]), but its cohort layer pins
    /// every broadcast payload it judges for the life of the cache, so
    /// nothing long-lived installs one: this is the equivalence tests'
    /// hook for a [`without_cohorts`](crate::keys::VerifyCache::without_cohorts)
    /// reference run.
    pub verify_cache: Option<crate::keys::VerifyCache>,
    /// Record phase observability data (end-of-round marks, queue depths,
    /// verification timing, cache counters) into
    /// [`FdRunReport::phases`]. Off by default; never serialized into
    /// [`FdRunReport::to_json`], so the equivalence surfaces are
    /// untouched either way.
    pub obs: bool,
}

/// Result of a key distribution run.
#[derive(Debug)]
pub struct KeyDistReport {
    /// Per-node key stores; `None` for substituted (faulty) nodes.
    pub stores: Vec<Option<KeyStore>>,
    /// Message statistics of the run.
    pub stats: NetStats,
    /// Anomalies each honest node recorded.
    pub anomalies: Vec<(NodeId, Vec<KdAnomaly>)>,
    /// End-of-round wall-clock marks, in µs since the key distribution
    /// began (so round 0 also covers key generation), when it ran on the
    /// sync engine with observability on; `None` otherwise. Never part of
    /// an equivalence surface.
    pub round_marks: Option<Vec<u64>>,
    /// The shared predicate table the stores intern against, when the run
    /// used one (honest-case allocation profile: `O(n)` distinct keys —
    /// see [`PredicateTable::distinct_allocations`]). `None` for
    /// hand-assembled reports.
    pub predicates: Option<Arc<PredicateTable>>,
    /// Every node's keyring, indexed by node — the ones key distribution
    /// generated, kept so no run generates a key again.
    pub rings: Vec<Keyring>,
}

impl KeyDistReport {
    /// The store of an honest node.
    ///
    /// # Panics
    ///
    /// Panics if the node was substituted by an adversary.
    pub fn store(&self, id: NodeId) -> &KeyStore {
        self.stores[id.index()]
            .as_ref()
            .expect("store of an honest node")
    }

    /// The keyring of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ring(&self, id: NodeId) -> &Keyring {
        &self.rings[id.index()]
    }
}

/// Result of one failure-discovery (or agreement) run.
#[derive(Debug)]
pub struct FdRunReport {
    /// Per-node outcome; `None` for substituted (faulty) nodes.
    pub outcomes: Vec<Option<Outcome>>,
    /// Message statistics of the run.
    pub stats: NetStats,
    /// Which nodes took the BA fallback (only for FD→BA runs; empty
    /// otherwise).
    pub used_fallback: Vec<bool>,
    /// Per-node decision grades (only for degradable-agreement runs; empty
    /// otherwise; `None` within the vector for substituted nodes).
    pub grades: Vec<Option<Grade>>,
    /// Per-message `(send_round, ticks)` delays in send order, when the
    /// cluster recorded them ([`Cluster::with_delay_log`]). This is the
    /// raw material of a schedule certificate: feeding the delays back via
    /// [`Cluster::with_schedule`] replays the run exactly.
    pub delay_log: Option<Vec<(u32, u64)>>,
    /// Phase-attributed observability breakdown, populated only when the
    /// cluster ran with [`Cluster::with_obs`]. Deliberately **not**
    /// serialized by [`FdRunReport::to_json`]: the byte-identical
    /// equivalence surfaces must not depend on whether tracing was on.
    pub phases: Option<crate::obs::PhaseBreakdown>,
}

impl FdRunReport {
    /// Outcomes of the honest nodes.
    pub fn correct_outcomes(&self) -> Vec<Outcome> {
        self.outcomes.iter().flatten().cloned().collect()
    }

    /// `true` iff every honest node decided exactly `v`.
    pub fn all_decided(&self, v: &[u8]) -> bool {
        self.outcomes
            .iter()
            .flatten()
            .all(|o| o.decided() == Some(v))
    }

    /// `true` iff any honest node discovered a failure.
    pub fn any_discovery(&self) -> bool {
        self.outcomes.iter().flatten().any(|o| o.is_discovered())
    }

    /// Serialize as deterministic JSON (stable field order, no floats, no
    /// timestamps): two byte-identical runs produce byte-identical JSON.
    /// This is the comparison surface of the API-equivalence tests.
    pub fn to_json(&self) -> String {
        crate::wire::report_to_value(self).to_json()
    }
}

impl Cluster {
    /// Fix a cluster configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `t + 2 <= n` (the common requirement of the FD
    /// protocols here).
    pub fn new(n: usize, t: usize, scheme: Arc<dyn SignatureScheme>, seed: u64) -> Self {
        assert!(t + 2 <= n, "require t + 2 <= n");
        Cluster {
            n,
            t,
            scheme,
            seed,
            engine: Engine::Sync,
            latency: LatencySpec::Synchronous,
            link_latency: Vec::new(),
            faults: FaultPlan::new(),
            schedule: None,
            record_delays: false,
            reference_scheduler: false,
            verify_cache: None,
            obs: false,
        }
    }

    /// Select the execution engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the latency model (only meaningful with [`Engine::Event`]).
    /// Specs byte-equivalent to synchrony are normalized onto
    /// [`LatencySpec::Synchronous`].
    pub fn with_latency(mut self, latency: LatencySpec) -> Self {
        self.latency = latency.normalize();
        self
    }

    /// Install per-link latency overrides on top of the base latency model
    /// (only meaningful with [`Engine::Event`]).
    pub fn with_link_latency(mut self, link_latency: Vec<LinkLatencySpec>) -> Self {
        self.link_latency = link_latency;
        self
    }

    /// Install a link-fault plan on every run derived from this cluster.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Install (or clear) a per-message delivery schedule on event-engine
    /// runs — the adversarial scheduler search's hook into the cluster.
    pub fn with_schedule(mut self, schedule: Option<Schedule>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Record applied per-message delays into [`FdRunReport::delay_log`]
    /// on event-engine runs.
    pub fn with_delay_log(mut self) -> Self {
        self.record_delays = true;
        self
    }

    /// Route event-engine deliveries through the reference heap scheduler
    /// (see [`Cluster::reference_scheduler`]). Combined with
    /// [`crate::keys::VerifyCache::without_cohorts`] via
    /// [`Cluster::with_verify_cache`], this is the fully unbatched,
    /// unshared baseline the perf-equivalence tests compare against.
    pub fn with_reference_scheduler(mut self, on: bool) -> Self {
        self.reference_scheduler = on;
        self
    }

    /// Install a verification cache shared by every run on this cluster
    /// (see [`Cluster::verify_cache`] — the reference-run hook; the cache
    /// retains what it judged until it is dropped).
    pub fn with_verify_cache(mut self, cache: crate::keys::VerifyCache) -> Self {
        self.verify_cache = Some(cache);
        self
    }

    /// Record phase observability data into [`FdRunReport::phases`] on
    /// every run (see [`Cluster::obs`]). [`Cluster::run_traced`] is the
    /// usual entry point; this builder is the low-level switch.
    pub fn with_obs(mut self) -> Self {
        self.obs = true;
        self
    }

    /// Drive a node set to completion on the configured engine. The round
    /// budget is stretched for non-synchronous latency and for the largest
    /// installed delay fault, so late messages still land within the run
    /// instead of silently degrading into drops. `workers` threads step
    /// each sync-engine round (see [`SyncNetwork::set_workers`]); the event
    /// engine always runs on the calling thread.
    pub(crate) fn drive(
        &self,
        nodes: Vec<Box<dyn Node>>,
        base_rounds: u32,
        workers: usize,
    ) -> DriveReport {
        let delay_slack = self.faults.max_delay_rounds();
        match self.engine {
            Engine::Sync => {
                let mut net = SyncNetwork::new(nodes);
                net.set_workers(workers);
                if !self.faults.is_empty() {
                    net.set_fault_plan(self.faults.clone());
                }
                if self.obs {
                    net.enable_round_marks();
                }
                net.run_until_done(base_rounds.saturating_add(delay_slack));
                let round_marks = net.round_marks().map(<[u64]>::to_vec);
                let max_queue_depth = net.max_queue_depth();
                let (nodes, stats) = net.finish();
                DriveReport {
                    stats,
                    nodes,
                    delay_log: None,
                    round_marks,
                    max_queue_depth,
                    sched: None,
                }
            }
            Engine::Event => {
                // The slowest of the base model and any per-link override
                // bounds how far a message can stretch.
                let budget = self
                    .link_latency
                    .iter()
                    .map(|link| link.spec.round_budget(base_rounds))
                    .fold(self.latency.round_budget(base_rounds), u32::max);
                let mut net = EventNetwork::new(nodes);
                net.set_latency(LinkLatencySpec::build_model(
                    self.latency,
                    &self.link_latency,
                    self.seed,
                ));
                if let Some(schedule) = &self.schedule {
                    net.set_delay_overrides(Arc::clone(schedule));
                }
                if self.record_delays {
                    net.enable_delay_log();
                }
                if self.obs {
                    net.enable_round_marks();
                }
                if !self.faults.is_empty() {
                    net.set_fault_plan(self.faults.clone());
                }
                if self.reference_scheduler {
                    net.set_reference_scheduler(true);
                }
                net.run_until_done(budget.saturating_add(delay_slack));
                let round_marks = net.round_marks().map(<[u64]>::to_vec);
                let max_queue_depth = net.max_queue_depth();
                let sched = net.sched_counters();
                let (nodes, stats, delay_log) = net.finish();
                DriveReport {
                    stats,
                    delay_log,
                    nodes,
                    round_marks,
                    max_queue_depth,
                    sched: Some(sched),
                }
            }
        }
    }

    /// The deterministic keyring of node `id`.
    pub fn keyring(&self, id: NodeId) -> Keyring {
        Keyring::generate(self.scheme.as_ref(), id, self.seed)
    }

    /// Trusted-dealer stores (global authentication baseline): every node
    /// holds everyone's true predicate, zero messages spent. All `n`
    /// stores share one predicate table — `O(n)` distinct allocations.
    pub fn global_stores(&self) -> Vec<KeyStore> {
        let table = PredicateTable::from_rings(&self.keyrings());
        (0..self.n)
            .map(|i| KeyStore::global_shared(NodeId(i as u16), table.keys()))
            .collect()
    }

    /// A trusted-dealer key distribution report: shared global stores,
    /// zero messages spent, the predicate table attached. The setup of
    /// the large-`n` counter tests and benchmark layer rows.
    pub fn dealer_keydist(&self) -> KeyDistReport {
        let rings = self.keyrings();
        let table = Arc::new(PredicateTable::from_rings(&rings));
        let stores = (0..self.n)
            .map(|i| Some(KeyStore::global_shared(NodeId(i as u16), table.keys())))
            .collect();
        KeyDistReport {
            stores,
            stats: NetStats::new(self.n),
            anomalies: Vec::new(),
            round_marks: None,
            predicates: Some(table),
            rings,
        }
    }

    /// Every node's keyring, indexed by node.
    pub(crate) fn keyrings(&self) -> Vec<Keyring> {
        (0..self.n)
            .map(|i| self.keyring(NodeId(i as u16)))
            .collect()
    }

    /// Run the key distribution protocol with all nodes honest.
    pub fn run_key_distribution(&self) -> KeyDistReport {
        self.run_key_distribution_with(&mut |_| None)
    }

    /// Run key distribution with selected nodes replaced by adversaries,
    /// stepping each sync-engine round on every available core (see
    /// [`Cluster::run_key_distribution_on`]).
    ///
    /// Honest nodes intern announced predicates against one shared
    /// [`PredicateTable`], so the honest case builds all stores from
    /// `O(n)` distinct key allocations (the table is returned on the
    /// report for allocation-profile assertions).
    pub fn run_key_distribution_with(&self, substitute: Substitution<'_>) -> KeyDistReport {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        self.run_key_distribution_on(workers, substitute)
    }

    /// [`Cluster::run_key_distribution_with`] on exactly `workers` threads
    /// per sync-engine round (event-engine rounds stay on the calling
    /// thread). The report is identical for any worker count: within a
    /// round each node's work depends only on its own inbox, and honest
    /// nodes share only the intern table and the scheme's lazily built
    /// tables, which answer the same whatever order they are called in.
    /// A substitute must not share order-dependent state either.
    pub fn run_key_distribution_on(
        &self,
        workers: usize,
        substitute: Substitution<'_>,
    ) -> KeyDistReport {
        let started = std::time::Instant::now();
        // One pass of key generation feeds both the honest keyrings and
        // the shared table the stores intern against.
        let rings = self.keyrings();
        let table = Arc::new(PredicateTable::from_rings(&rings));
        let mut honest = vec![false; self.n];
        let nodes: Vec<Box<dyn Node>> = (0..self.n)
            .map(|i| {
                let me = NodeId(i as u16);
                match substitute(me) {
                    Some(adversary) => adversary,
                    None => {
                        honest[i] = true;
                        Box::new(
                            KeyDistNode::new(
                                me,
                                self.n,
                                Arc::clone(&self.scheme),
                                rings[i].clone(),
                                self.seed,
                            )
                            .with_intern_table(Arc::clone(&table)),
                        )
                    }
                }
            })
            .collect();
        let lead_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let report = self.drive(nodes, KEYDIST_ROUNDS, workers);
        let round_marks = match self.engine {
            Engine::Sync => report.round_marks.map(|marks| {
                marks
                    .iter()
                    .map(|&mark| lead_us.saturating_add(mark))
                    .collect()
            }),
            Engine::Event => None,
        };
        let stats = report.stats;
        let mut stores = Vec::with_capacity(self.n);
        let mut anomalies = Vec::new();
        for (i, boxed) in report.nodes.into_iter().enumerate() {
            if honest[i] {
                let node = (boxed as Box<dyn Any>)
                    .downcast::<KeyDistNode>()
                    .expect("honest slot holds KeyDistNode");
                let (store, _ring, anoms) = node.into_parts();
                anomalies.push((NodeId(i as u16), anoms));
                stores.push(Some(store));
            } else {
                stores.push(None);
            }
        }
        KeyDistReport {
            stores,
            stats,
            anomalies,
            round_marks,
            predicates: Some(table),
            rings,
        }
    }

    /// Run interactive consistency (`n` parallel chain-FD instances; see
    /// [`crate::fd::VectorFdNode`]). `values[i]` is node `i`'s input.
    ///
    /// Vector FD takes one input *per node* rather than a single sender
    /// value, so it stays outside the [`RunSpec`](crate::spec::RunSpec)
    /// surface; this is its home.
    ///
    /// Returns per-node *vector* outcomes flattened into an
    /// [`FdRunReport`]-like structure: `outcomes[i]` is `Some(Decided(v))`
    /// only if node `i` decided the *full* vector; the detailed
    /// per-instance outcomes are in the second component.
    ///
    /// # Panics
    ///
    /// Panics unless `values.len() == n`.
    pub fn run_vector(
        &self,
        keydist: &KeyDistReport,
        values: &[Vec<u8>],
    ) -> (FdRunReport, Vec<Vec<Outcome>>) {
        assert_eq!(values.len(), self.n, "one input value per node");
        let params = crate::fd::VectorFdParams::new(self.n, self.t);
        let rounds = params.rounds();
        // One shared verification cache per run, as in `run_with_keys`:
        // each instance's disseminated chain is judged once per store view.
        let cache = self.verify_cache.clone().unwrap_or_default();
        let nodes: Vec<Box<dyn Node>> = (0..self.n)
            .map(|i| {
                let me = NodeId(i as u16);
                Box::new(crate::fd::VectorFdNode::new(
                    me,
                    params.clone(),
                    Arc::clone(&self.scheme),
                    keydist.store(me).clone().with_cache(cache.clone()),
                    keydist.ring(me).clone(),
                    values[i].clone(),
                )) as Box<dyn Node>
            })
            .collect();
        let report = self.drive(nodes, rounds, 1);
        let stats = report.stats;
        let delay_log = report.delay_log;
        let mut outcomes = Vec::with_capacity(self.n);
        let mut per_instance = Vec::with_capacity(self.n);
        for boxed in report.nodes {
            let node = (boxed as Box<dyn Any>)
                .downcast::<crate::fd::VectorFdNode>()
                .expect("VectorFdNode");
            let summary = match node.vector() {
                Some(vector) => {
                    // Canonical encoding of the decided vector.
                    let mut flat = Vec::new();
                    for v in &vector {
                        flat.extend_from_slice(&(v.len() as u32).to_be_bytes());
                        flat.extend_from_slice(v);
                    }
                    Outcome::Decided(flat)
                }
                None => node
                    .outcomes()
                    .iter()
                    .find(|o| o.is_discovered())
                    .cloned()
                    .unwrap_or(Outcome::Pending),
            };
            outcomes.push(Some(summary));
            per_instance.push(node.outcomes().to_vec());
        }
        (
            FdRunReport {
                outcomes,
                stats,
                used_fallback: Vec::new(),
                grades: Vec::new(),
                delay_log,
                phases: None,
            },
            per_instance,
        )
    }
}

impl core::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.n)
            .field("t", &self.t)
            .field("scheme", &self.scheme.name())
            .field("seed", &self.seed)
            .field("engine", &self.engine)
            .field("latency", &self.latency)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::spec::{Protocol, RunSpec, Session};

    fn cluster(n: usize, t: usize) -> Cluster {
        Cluster::new(n, t, Arc::new(fd_crypto::SchnorrScheme::test_tiny()), 99)
    }

    fn spec(protocol: Protocol, value: &[u8]) -> RunSpec {
        RunSpec::new(protocol, value.to_vec()).with_default_value(b"d".to_vec())
    }

    #[test]
    fn keydist_then_many_cheap_runs() {
        let mut session = Session::new(cluster(6, 1));
        let kd = session.keydist();
        assert_eq!(kd.stats.messages_total, metrics::keydist_messages(6));
        for (_, anoms) in &kd.anomalies {
            assert!(anoms.is_empty());
        }
        for k in 0..5u8 {
            let run = session.run(&RunSpec::new(Protocol::ChainFd, vec![k]));
            assert_eq!(run.stats.messages_total, metrics::chain_fd_messages(6));
            assert!(run.all_decided(&[k]));
            assert!(!run.any_discovery());
        }
        assert_eq!(session.keydist_runs(), 1);
    }

    #[test]
    fn non_auth_baseline_costs_more() {
        let c = cluster(8, 2);
        let auth = c.run(&spec(Protocol::ChainFd, b"v")).stats.messages_total;
        let non_auth = c.run(&spec(Protocol::NonAuthFd, b"v"));
        assert!(non_auth.all_decided(b"v"));
        assert_eq!(
            non_auth.stats.messages_total,
            metrics::non_auth_messages(8, 2)
        );
        assert!(non_auth.stats.messages_total > auth);
    }

    #[test]
    fn global_stores_work_without_keydist() {
        // The paper's point inverted: FD protocols designed for global
        // authentication run on locally distributed keys; conversely our
        // implementation runs identically on dealer-provided stores.
        let c = cluster(5, 1);
        let kd = c.dealer_keydist();
        let mut session = Session::with_keydist(c, kd);
        let run = session.run(&spec(Protocol::ChainFd, b"x"));
        assert!(run.all_decided(b"x"));
        assert_eq!(session.keydist_runs(), 0, "dealer stores, no keydist run");
    }

    #[test]
    fn small_range_default_free_and_nondefault_works() {
        let mut session = Session::new(cluster(6, 1));
        let free =
            session.run(&RunSpec::new(Protocol::SmallRange, vec![0]).with_default_value(vec![0]));
        assert_eq!(free.stats.messages_total, 0);
        assert!(free.all_decided(&[0]));
        let paid =
            session.run(&RunSpec::new(Protocol::SmallRange, vec![1]).with_default_value(vec![0]));
        assert!(paid.all_decided(&[1]));
        assert_eq!(
            paid.stats.messages_total,
            metrics::small_range_messages(6, 1, false)
        );
        assert_eq!(session.keydist_runs(), 1);
    }

    #[test]
    fn dolev_strong_quadratic_failure_free() {
        let run = cluster(5, 1).run(&spec(Protocol::DolevStrong, b"v"));
        assert!(run.all_decided(b"v"));
        assert_eq!(run.stats.messages_total, 5 * 4);
    }

    #[test]
    fn fd_to_ba_failure_free_fd_cost() {
        let run = cluster(7, 2).run(&spec(Protocol::FdToBa, b"v"));
        assert!(run.all_decided(b"v"));
        assert_eq!(run.stats.messages_total, 6); // n - 1
        assert!(run.used_fallback.iter().all(|f| !f));
    }

    #[test]
    fn phase_king_quadratic_baseline() {
        let run = cluster(5, 1).run(&spec(Protocol::PhaseKing, b"v"));
        assert!(run.all_decided(b"v"));
        assert_eq!(run.stats.messages_total, metrics::phase_king_messages(5, 1));
    }

    #[test]
    fn degradable_failure_free_grade_two() {
        let run = cluster(7, 2).run(&spec(Protocol::Degradable, b"v"));
        assert!(run.all_decided(b"v"));
        assert_eq!(run.stats.messages_total, metrics::degradable_messages(7));
        assert_eq!(run.grades.len(), 7);
        assert!(run.grades.iter().all(|g| *g == Some(crate::ba::Grade::Two)));
    }

    #[test]
    fn event_engine_reproduces_sync_engine_exactly() {
        let sync = cluster(7, 2);
        let event = sync.clone().with_engine(fd_simnet::Engine::Event);
        let kd_s = sync.setup_keydist();
        let kd_e = event.setup_keydist();
        assert_eq!(kd_s.stats, kd_e.stats);
        let run_s = sync.run(&spec(Protocol::ChainFd, b"v"));
        let run_e = event.run(&spec(Protocol::ChainFd, b"v"));
        assert_eq!(run_s.stats, run_e.stats);
        assert_eq!(run_s.outcomes, run_e.outcomes);
        assert_eq!(run_s.to_json(), run_e.to_json());
    }

    #[test]
    fn jittery_event_runs_never_silently_disagree() {
        let c = cluster(6, 1)
            .with_engine(fd_simnet::Engine::Event)
            .with_latency(fd_simnet::LatencySpec::Jitter { extra: 1 });
        // The session's keydist runs in the quiet synchronous setup phase
        // regardless of the cluster's latency model.
        let mut session = Session::new(c);
        let run = session.run(&spec(Protocol::ChainFd, b"v"));
        // Late messages may be discovered as timing failures, but any two
        // decided values must agree.
        let decided: std::collections::BTreeSet<Vec<u8>> = run
            .correct_outcomes()
            .iter()
            .filter_map(|o| o.decided().map(<[u8]>::to_vec))
            .collect();
        assert!(decided.len() <= 1, "silent disagreement under jitter");
    }

    #[test]
    fn cluster_fault_plan_reaches_the_run() {
        use fd_simnet::fault::{FaultPlan, LinkFault};
        for engine in [fd_simnet::Engine::Sync, fd_simnet::Engine::Event] {
            let faulted = cluster(5, 1)
                .with_engine(engine)
                .with_faults(FaultPlan::new().with(0, NodeId(0), NodeId(1), LinkFault::Drop));
            let run = faulted.run(&spec(Protocol::ChainFd, b"v"));
            assert!(run.any_discovery(), "dropped chain must be discovered");
        }
    }

    #[test]
    fn interactive_consistency_via_runner() {
        let c = cluster(5, 1);
        let kd = c.setup_keydist();
        let values: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i, i + 10]).collect();
        let (report, per_instance) = c.run_vector(&kd, &values);
        // n parallel FD runs cost n(n-1) messages.
        assert_eq!(report.stats.messages_total, 5 * 4);
        // Every node decided every instance with the right value.
        for node_outcomes in &per_instance {
            for (s, o) in node_outcomes.iter().enumerate() {
                assert_eq!(o.decided(), Some(&values[s][..]));
            }
        }
        // Summaries agree across nodes.
        let first = report.outcomes[0].clone();
        for o in &report.outcomes {
            assert_eq!(o, &first);
        }
    }

    #[test]
    fn shared_verify_cache_does_not_change_report_bytes() {
        let private = cluster(6, 1);
        let shared = private
            .clone()
            .with_verify_cache(crate::keys::VerifyCache::new());
        let spec = RunSpec::new(Protocol::ChainFd, b"v".to_vec());
        let kd_p = private.setup_keydist();
        let kd_s = shared.setup_keydist();
        // Two runs on the shared cache (the second hits it) stay
        // byte-identical to private-cache runs.
        let baseline = private.run_with_keys(&spec, Some(&kd_p)).to_json();
        assert_eq!(shared.run_with_keys(&spec, Some(&kd_s)).to_json(), baseline);
        assert_eq!(shared.run_with_keys(&spec, Some(&kd_s)).to_json(), baseline);
    }

    #[test]
    fn reference_scheduler_and_unbatched_verify_reproduce_fast_path() {
        // The two tentpole optimizations (flat-ring scheduler, cohort
        // verification) both have an explicit off switch; turning both off
        // must reproduce the optimized report byte for byte.
        let fast = cluster(7, 2).with_engine(fd_simnet::Engine::Event);
        let reference = fast
            .clone()
            .with_reference_scheduler(true)
            .with_verify_cache(crate::keys::VerifyCache::new().without_cohorts());
        for protocol in Protocol::ALL.into_iter().filter(|p| p.needs_keys()) {
            let spec = spec(protocol, b"v");
            assert_eq!(
                fast.run(&spec).to_json(),
                reference.run(&spec).to_json(),
                "{protocol}"
            );
        }
    }

    #[test]
    fn obs_exposes_scheduler_counters_on_the_event_engine() {
        let c = cluster(6, 1)
            .with_engine(fd_simnet::Engine::Event)
            .with_obs();
        let run = c.run(&spec(Protocol::DolevStrong, b"v"));
        let phases = run.phases.expect("obs on");
        // Synchronous latency: every delivery is round-aligned, so the
        // fast path takes all of it.
        assert_eq!(phases.ring_enqueued, 6 * 5);
        assert_eq!(phases.heap_enqueued, 0);
        assert_eq!(phases.ring_ratio_pct(), Some(100));
        assert!(phases.arena_hwm >= 5, "arena saw a full fan-in");

        let reference = c.clone().with_reference_scheduler(true);
        let run = reference.run(&spec(Protocol::DolevStrong, b"v"));
        let phases = run.phases.expect("obs on");
        assert_eq!(phases.ring_enqueued, 0);
        assert_eq!(phases.heap_enqueued, 6 * 5);
        assert_eq!(phases.ring_ratio_pct(), Some(0));

        // The sync engine has no scheduler: counters stay zero.
        let sync = cluster(6, 1).with_obs();
        let run = sync.run(&spec(Protocol::DolevStrong, b"v"));
        let phases = run.phases.expect("obs on");
        assert_eq!((phases.ring_enqueued, phases.heap_enqueued), (0, 0));
        assert_eq!(phases.ring_ratio_pct(), None);
    }

    #[test]
    fn substitution_marks_faulty_slots() {
        let c = cluster(5, 1);
        let kd = c.run_key_distribution_with(&mut |id| {
            (id == NodeId(4))
                .then(|| Box::new(crate::adversary::SilentNode { me: NodeId(4) }) as Box<dyn Node>)
        });
        assert!(kd.stores[4].is_none());
        // Honest nodes accepted everyone but the silent node.
        for i in 0..4 {
            assert_eq!(kd.stores[i].as_ref().unwrap().accepted_count(), 4);
        }
    }
}
