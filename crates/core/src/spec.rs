//! The unified execution API: one typed [`RunSpec`] per protocol run,
//! executed via [`Cluster::run`], with [`Session`] making the paper's
//! keydist amortization a first-class object.
//!
//! Borcherding's central claim is economic: *one* `3n(n−1)`-message key
//! distribution amortizes across arbitrarily many `n−1`-message
//! failure-discovery runs (§6). The API mirrors that shape directly:
//!
//! * a [`RunSpec`] is a plain value describing **what** to run — protocol,
//!   sender input, default value, a declarative
//!   [`AdversarySpec`], and an optional
//!   per-message delivery schedule;
//! * a [`Cluster`] (from [`crate::runner`]) describes **where** — `(n, t,
//!   scheme, seed)` plus engine, latency, link overrides, and faults;
//! * [`Cluster::run`] executes a spec end to end (running the setup-phase
//!   key distribution itself when the protocol needs keys), and
//! * a [`Session`] owns a cluster, lazily runs the key distribution
//!   **once**, and executes many specs against the cached stores — the
//!   amortization pattern, directly benchmarkable via
//!   [`Session::messages_spent`].
//!
//! Every layer above the core — the sweep matrix, the scheduler search,
//! the `lafd` CLI, the examples, and the tests — executes
//! protocols through this entry point; there are no per-protocol
//! `Cluster::run_*` methods.
//!
//! ```
//! use fd_core::spec::{Protocol, RunSpec, Session};
//! use fd_core::runner::Cluster;
//! use std::sync::Arc;
//!
//! let cluster = Cluster::new(7, 2, Arc::new(fd_crypto::SchnorrScheme::test_tiny()), 42);
//! let mut session = Session::new(cluster);
//!
//! // Many runs, one key distribution (paper §6 amortization).
//! for k in 0..5u8 {
//!     let run = session.run(&RunSpec::new(Protocol::ChainFd, vec![k]));
//!     assert!(run.all_decided(&[k]));
//!     assert_eq!(run.stats.messages_total, 6); // n − 1
//! }
//! assert_eq!(session.keydist_runs(), 1);
//! assert_eq!(session.messages_spent(), 3 * 7 * 6 + 5 * 6);
//! ```

use crate::adversary::AdversarySpec;
use crate::ba::{
    DegradableNode, DegradableParams, DolevStrongNode, DolevStrongParams, FdToBaNode, FdToBaParams,
    Grade, PhaseKingNode, PhaseKingParams,
};
use crate::fd::{
    ChainFdNode, ChainFdParams, NonAuthFdNode, NonAuthParams, SmallRangeFdNode, SmallRangeParams,
};
use crate::keys::{KeyStore, Keyring};
use crate::metrics;
use crate::outcome::Outcome;
use crate::runner::{Cluster, FdRunReport, KeyDistReport, Schedule, Substitution};
use fd_crypto::{DsaScheme, RsaScheme, SchnorrScheme, SignatureScheme};
use fd_simnet::fault::FaultPlan;
use fd_simnet::{Engine, LatencySpec, LinkLatencySpec, Node, NodeId};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

type NewScheme = fn() -> Arc<dyn SignatureScheme>;

/// The scheme table: canonical name, accepted aliases, constructor.
///
/// This is the single table shared by the `lafd` CLI, the sweep, the
/// schedule search, the wire format, and the service shards (shard and
/// session keys compare canonical names, so one table keeps "same scheme"
/// meaning the same thing everywhere).
const SCHEMES: [(&str, &[&str], NewScheme); 9] = [
    ("tiny", &["schnorr-tiny"], || {
        Arc::new(SchnorrScheme::test_tiny())
    }),
    ("dsa-tiny", &["dsa"], || Arc::new(DsaScheme::test_tiny())),
    ("s512", &[], || Arc::new(SchnorrScheme::s512())),
    ("s1024", &[], || Arc::new(SchnorrScheme::s1024())),
    ("s2048", &[], || Arc::new(SchnorrScheme::s2048())),
    ("dsa512", &[], || Arc::new(DsaScheme::s512())),
    ("dsa1024", &[], || Arc::new(DsaScheme::s1024())),
    ("rsa512", &[], || Arc::new(RsaScheme::new(512))),
    ("rsa1024", &[], || Arc::new(RsaScheme::new(1024))),
];

/// The canonical name and constructor of a name in [`SCHEMES`].
fn scheme_entry(name: &str) -> Result<(&'static str, NewScheme), String> {
    SCHEMES
        .iter()
        .find(|(canonical, aliases, _)| *canonical == name || aliases.contains(&name))
        .map(|&(canonical, _, build)| (canonical, build))
        .ok_or_else(|| {
            let names: Vec<&str> = SCHEMES.iter().map(|entry| entry.0).collect();
            format!("unknown scheme {name} ({})", names.join("|"))
        })
}

/// The canonical name of a scheme name or alias (`"dsa"` → `"dsa-tiny"`).
pub fn canonical_scheme(name: &str) -> Result<&'static str, String> {
    scheme_entry(name).map(|(canonical, _)| canonical)
}

/// Look up a signature scheme by any name of the scheme table.
pub fn scheme_by_name(name: &str) -> Result<Arc<dyn SignatureScheme>, String> {
    scheme_entry(name).map(|(_, build)| build())
}

/// The protocols a [`RunSpec`] can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Protocol {
    /// Authenticated chain FD (paper Fig. 2): `n − 1` messages.
    ChainFd,
    /// Non-authenticated witness relay: `(t + 2)(n − 1)` messages.
    NonAuthFd,
    /// Small-value-range FD, run with a non-default value.
    SmallRange,
    /// The FD→BA extension (failure-free runs at FD cost).
    FdToBa,
    /// Degradable (crusader/graded) agreement.
    Degradable,
    /// Dolev–Strong authenticated BA baseline.
    DolevStrong,
    /// Phase-King non-authenticated BA baseline (`n > 4t`).
    PhaseKing,
}

impl Protocol {
    /// Every protocol, in canonical order.
    pub const ALL: [Protocol; 7] = [
        Protocol::ChainFd,
        Protocol::NonAuthFd,
        Protocol::SmallRange,
        Protocol::FdToBa,
        Protocol::Degradable,
        Protocol::DolevStrong,
        Protocol::PhaseKing,
    ];

    /// Stable machine-readable name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::ChainFd => "chain_fd",
            Protocol::NonAuthFd => "non_auth_fd",
            Protocol::SmallRange => "small_range",
            Protocol::FdToBa => "fd_to_ba",
            Protocol::Degradable => "degradable",
            Protocol::DolevStrong => "dolev_strong",
            Protocol::PhaseKing => "phase_king",
        }
    }

    /// Parse a CLI name (several aliases accepted).
    pub fn parse(name: &str) -> Result<Protocol, String> {
        Ok(match name {
            "chain" | "chainfd" | "chain_fd" | "fd" => Protocol::ChainFd,
            "nonauth" | "non_auth" | "non_auth_fd" => Protocol::NonAuthFd,
            "small" | "small_range" => Protocol::SmallRange,
            "ba" | "fd_to_ba" => Protocol::FdToBa,
            "degrade" | "degradable" => Protocol::Degradable,
            "ds" | "dolev_strong" => Protocol::DolevStrong,
            "king" | "phase_king" => Protocol::PhaseKing,
            other => {
                return Err(format!(
                    "unknown protocol {other} \
                     (chain|nonauth|small|ba|degrade|ds|king)"
                ))
            }
        })
    }

    /// Whether the protocol runs on locally distributed keys.
    pub fn needs_keys(self) -> bool {
        !matches!(self, Protocol::NonAuthFd | Protocol::PhaseKing)
    }

    /// Whether the `(n, t)` shape satisfies the protocol's resilience
    /// requirement.
    pub fn admissible(self, n: usize, t: usize) -> bool {
        if t + 2 > n {
            return false;
        }
        match self {
            Protocol::ChainFd | Protocol::NonAuthFd | Protocol::SmallRange => true,
            Protocol::FdToBa | Protocol::Degradable => n > 3 * t,
            Protocol::DolevStrong => true,
            Protocol::PhaseKing => n > 4 * t,
        }
    }

    /// The paper's closed-form failure-free message count.
    pub fn expected_messages(self, n: usize, t: usize) -> usize {
        match self {
            Protocol::ChainFd | Protocol::FdToBa => metrics::chain_fd_messages(n),
            Protocol::NonAuthFd => metrics::non_auth_messages(n, t),
            Protocol::SmallRange => metrics::small_range_messages(n, t, false),
            Protocol::Degradable => metrics::degradable_messages(n),
            Protocol::DolevStrong => metrics::dolev_strong_messages(n),
            Protocol::PhaseKing => metrics::phase_king_messages(n, t),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one protocol run needs, as a plain value.
///
/// Construct with [`RunSpec::new`] and refine with the `with_*` builders;
/// execute with [`Cluster::run`] or [`Session::run`]. A spec is `Clone`
/// and `Send`, so fan-out layers (the sweep's thread pool, the scheduler
/// search's parallel restarts) pass specs around instead of closures.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The protocol to execute.
    pub protocol: Protocol,
    /// The sender's input value.
    pub input: Vec<u8>,
    /// The default value of protocols that have one (small-range FD and
    /// the BA family); ignored by the others.
    pub default_value: Vec<u8>,
    /// Which nodes are corrupt and how ([`AdversarySpec::Honest`] by
    /// default).
    pub adversary: AdversarySpec,
    /// Per-message delivery schedule for event-engine runs (`None`: the
    /// latency model decides every delay). This is the scheduler search's
    /// per-episode hook.
    pub schedule: Option<Schedule>,
}

impl RunSpec {
    /// A failure-free spec with default value `b"default"`.
    pub fn new(protocol: Protocol, input: impl Into<Vec<u8>>) -> Self {
        RunSpec {
            protocol,
            input: input.into(),
            default_value: b"default".to_vec(),
            adversary: AdversarySpec::Honest,
            schedule: None,
        }
    }

    /// Set the default value.
    #[must_use]
    pub fn with_default_value(mut self, default_value: impl Into<Vec<u8>>) -> Self {
        self.default_value = default_value.into();
        self
    }

    /// Set the adversary.
    #[must_use]
    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// Install a per-message delivery schedule for this run.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }
}

/// The single description of a run, shared by the `lafd` CLI subcommands,
/// the sweep's scenarios, the schedule search, the wire format, and the
/// service: every flag set, matrix row, search, and JSON request builds a
/// `(Cluster, RunSpec)` pair through this builder, so validation rules
/// live in exactly one place.
///
/// Unlike [`Cluster::new`] (which panics on a bad shape), [`build`]
/// returns `Err` with a CLI-quality message — the service turns these
/// into error responses instead of dying.
///
/// ```
/// use fd_core::spec::{Protocol, SpecBuilder};
///
/// let (cluster, spec) = SpecBuilder::new(Protocol::ChainFd, 7)
///     .with_input(b"v".to_vec())
///     .build()
///     .unwrap();
/// assert_eq!(cluster.t, 2); // ⌊(n−1)/3⌋ default
/// assert!(cluster.run(&spec).all_decided(b"v"));
/// ```
///
/// [`build`]: SpecBuilder::build
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    /// The protocol to execute.
    pub protocol: Protocol,
    /// System size.
    pub n: usize,
    /// Tolerated faults; `None` derives the classic `⌊(n−1)/3⌋` clamped
    /// to `n − 2` (see [`SpecBuilder::resolved_t`]).
    pub t: Option<usize>,
    /// Determinism seed (key material, nonces, jitter).
    pub seed: u64,
    /// Signature-scheme name, resolved via [`scheme_by_name`].
    pub scheme: String,
    /// Execution engine.
    pub engine: Engine,
    /// Latency model (event engine only).
    pub latency: LatencySpec,
    /// Per-link latency overrides (event engine only).
    pub link_latency: Vec<LinkLatencySpec>,
    /// Link faults installed on the cluster (CLI only — no wire form).
    pub faults: FaultPlan,
    /// The sender's input value.
    pub input: Vec<u8>,
    /// Default value for the protocols that have one.
    pub default_value: Vec<u8>,
    /// Which nodes are corrupt and how.
    pub adversary: AdversarySpec,
    /// Per-message delivery schedule (event engine only).
    pub schedule: Option<Schedule>,
}

impl SpecBuilder {
    /// A failure-free synchronous request with the conventional defaults:
    /// seed 1, the tiny test scheme, derived `t`, input `b"value"`,
    /// default value `b"default"`.
    pub fn new(protocol: Protocol, n: usize) -> Self {
        SpecBuilder {
            protocol,
            n,
            t: None,
            seed: 1,
            scheme: "tiny".to_string(),
            engine: Engine::Sync,
            latency: LatencySpec::Synchronous,
            link_latency: Vec::new(),
            faults: FaultPlan::new(),
            input: b"value".to_vec(),
            default_value: b"default".to_vec(),
            adversary: AdversarySpec::Honest,
            schedule: None,
        }
    }

    /// Set the fault budget explicitly.
    #[must_use]
    pub fn with_t(mut self, t: usize) -> Self {
        self.t = Some(t);
        self
    }

    /// Set the determinism seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the signature scheme by name, stored under its canonical name
    /// so aliases share service shards and sessions. An unknown name is
    /// kept as given and rejected by [`build`].
    ///
    /// [`build`]: SpecBuilder::build
    #[must_use]
    pub fn with_scheme(mut self, scheme: &str) -> Self {
        self.scheme = canonical_scheme(scheme).unwrap_or(scheme).to_string();
        self
    }

    /// Select the execution engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Set the latency model (normalized like [`Cluster::with_latency`]).
    #[must_use]
    pub fn with_latency(mut self, latency: LatencySpec) -> Self {
        self.latency = latency.normalize();
        self
    }

    /// Install per-link latency overrides.
    #[must_use]
    pub fn with_link_latency(mut self, link_latency: Vec<LinkLatencySpec>) -> Self {
        self.link_latency = link_latency;
        self
    }

    /// Install a link-fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the sender's input value.
    #[must_use]
    pub fn with_input(mut self, input: impl Into<Vec<u8>>) -> Self {
        self.input = input.into();
        self
    }

    /// Set the default value.
    #[must_use]
    pub fn with_default_value(mut self, default_value: impl Into<Vec<u8>>) -> Self {
        self.default_value = default_value.into();
        self
    }

    /// Set the adversary.
    #[must_use]
    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// Install (or clear) a per-message delivery schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Option<Schedule>) -> Self {
        self.schedule = schedule;
        self
    }

    /// The effective fault budget: explicit `t`, or the classic
    /// `⌊(n−1)/3⌋` clamped to `n − 2`.
    pub fn resolved_t(&self) -> usize {
        self.t
            .unwrap_or_else(|| ((self.n.saturating_sub(1)) / 3).min(self.n.saturating_sub(2)))
    }

    /// Whether the run breaks the network model N1 itself: link faults, a
    /// non-synchronous latency, or per-link overrides (see
    /// [`crate::sweep::classify`]).
    pub fn network_faulted(&self) -> bool {
        !self.faults.is_empty()
            || self.latency != LatencySpec::Synchronous
            || !self.link_latency.is_empty()
    }

    /// Whether the paper's failure-free contract applies — the closed-form
    /// message count and a unanimous decision on the sender's input: an
    /// honest adversary on an intact network.
    pub fn failure_free(&self) -> bool {
        self.adversary.is_honest() && !self.network_faulted()
    }

    /// Check every constraint [`build`] enforces without constructing
    /// anything — the service validates requests up front so execution
    /// can never hit a `Cluster` panic.
    ///
    /// [`build`]: SpecBuilder::build
    pub fn validate(&self) -> Result<(), String> {
        let t = self.resolved_t();
        if self.n > fd_simnet::MAX_NODES {
            return Err(format!("n {} exceeds the node-id space", self.n));
        }
        if t + 2 > self.n {
            return Err(format!("require t + 2 <= n (t {t}, n {})", self.n));
        }
        if !self.protocol.admissible(self.n, t) {
            return Err(format!(
                "protocol {} is inadmissible at n {}, t {t}",
                self.protocol, self.n
            ));
        }
        scheme_by_name(&self.scheme)?;
        if self.engine == Engine::Sync {
            if self.latency != LatencySpec::Synchronous {
                return Err(format!(
                    "latency {} needs the event engine",
                    self.latency.name()
                ));
            }
            if !self.link_latency.is_empty() {
                return Err("link latency overrides need the event engine".to_string());
            }
            if self.schedule.is_some() {
                return Err("delivery schedules need the event engine".to_string());
            }
        }
        for link in &self.link_latency {
            for end in [link.from, link.to] {
                if end.index() >= self.n {
                    return Err(format!(
                        "link latency {} names node {} outside 0..{}",
                        link.name(),
                        end.index(),
                        self.n
                    ));
                }
            }
        }
        for node in self.adversary.corrupt_set() {
            if node.index() >= self.n {
                return Err(format!(
                    "adversary corrupts node {} outside 0..{}",
                    node.index(),
                    self.n
                ));
            }
        }
        if !self.adversary.applies_to(self.protocol) {
            return Err(format!(
                "adversary {} cannot speak protocol {}",
                self.adversary.name(),
                self.protocol
            ));
        }
        Ok(())
    }

    /// Build the cluster half of the request (validated).
    pub fn build_cluster(&self) -> Result<Cluster, String> {
        self.validate()?;
        Ok(Cluster::new(
            self.n,
            self.resolved_t(),
            scheme_by_name(&self.scheme)?,
            self.seed,
        )
        .with_engine(self.engine)
        .with_latency(self.latency)
        .with_link_latency(self.link_latency.clone())
        .with_faults(self.faults.clone()))
    }

    /// Build the validated `(Cluster, RunSpec)` pair this request
    /// describes.
    pub fn build(&self) -> Result<(Cluster, RunSpec), String> {
        let cluster = self.build_cluster()?;
        let mut spec = RunSpec::new(self.protocol, self.input.clone())
            .with_default_value(self.default_value.clone())
            .with_adversary(self.adversary.clone());
        if let Some(schedule) = &self.schedule {
            spec = spec.with_schedule(Arc::clone(schedule));
        }
        Ok((cluster, spec))
    }
}

impl Cluster {
    /// Execute one spec end to end: when the protocol needs keys, run the
    /// setup-phase key distribution first ([`Cluster::setup_keydist`]),
    /// then the protocol run. For many runs against one key distribution,
    /// use a [`Session`] — that is the paper's amortization pattern.
    ///
    /// # Panics
    ///
    /// Panics if the spec's adversary cannot speak the protocol (see
    /// [`AdversarySpec::applies_to`]).
    pub fn run(&self, spec: &RunSpec) -> FdRunReport {
        let keydist = self.keydist_for(spec.protocol);
        self.run_with_keys(spec, keydist.as_ref())
    }

    /// The setup-phase key distribution a protocol needs on this cluster:
    /// `Some` exactly when [`Protocol::needs_keys`] (see
    /// [`Cluster::setup_keydist`] for the timing discipline).
    pub fn keydist_for(&self, protocol: Protocol) -> Option<KeyDistReport> {
        protocol.needs_keys().then(|| self.setup_keydist())
    }

    /// Run the key distribution in the quiet setup phase: always under
    /// synchronous latency and without link faults, per-link overrides, or
    /// schedule overrides — keys are established before the network's
    /// timing or fault behaviour matters (paper §3: the protocol itself is
    /// proved in the synchronous model).
    pub fn setup_keydist(&self) -> KeyDistReport {
        self.clone()
            .with_latency(LatencySpec::Synchronous)
            .with_link_latency(Vec::new())
            .with_faults(fd_simnet::fault::FaultPlan::new())
            .run_key_distribution()
    }

    /// Execute one spec against an already established key distribution
    /// (or `None` for the key-free protocols). This is the amortizing
    /// entry point [`Session`] builds on.
    ///
    /// # Panics
    ///
    /// Panics if the protocol needs keys and `keydist` is `None`, or if
    /// the spec's adversary cannot speak the protocol.
    pub fn run_with_keys(&self, spec: &RunSpec, keydist: Option<&KeyDistReport>) -> FdRunReport {
        assert!(
            spec.adversary.applies_to(spec.protocol),
            "adversary {} cannot speak protocol {}",
            spec.adversary.name(),
            spec.protocol
        );
        let mut substitute = spec.adversary.substitution(self, keydist);
        self.dispatch(
            spec.protocol,
            keydist,
            spec.input.clone(),
            spec.default_value.clone(),
            spec.schedule.as_ref(),
            &mut *substitute,
        )
    }

    /// The single per-protocol dispatch point: build the node set, drive
    /// it on the configured engine, extract outcomes (plus the FD→BA
    /// fallback flags and degradable grades where they exist).
    pub(crate) fn dispatch(
        &self,
        protocol: Protocol,
        keydist: Option<&KeyDistReport>,
        value: Vec<u8>,
        default_value: Vec<u8>,
        schedule: Option<&Schedule>,
        substitute: Substitution<'_>,
    ) -> FdRunReport {
        let keys = || keydist.expect("protocol needs a key distribution");
        // One shared verification cache per run: every node's store routes
        // signature checks and chain verdicts through it, so a chain
        // received by many nodes is judged once (see
        // [`crate::keys::VerifyCache`] for why sharing across stores is
        // sound even under G3 disagreement). A cluster-installed cache
        // ([`Cluster::with_verify_cache`]) replaces it — the equivalence
        // tests' hook for a cohort-free reference; no production path
        // installs one, because a cache must not outlive its run.
        let cache = self.verify_cache.clone().unwrap_or_default();
        // Observability arms the wall-clock accumulator on the run's cache
        // handle and snapshots the counters so an installed cache yields
        // per-run deltas. Neither changes results or report bytes.
        let cache = if self.obs { cache.with_timing() } else { cache };
        let obs_base = self.obs.then(|| (cache.hits(), cache.misses()));
        let rounds = self.protocol_rounds(protocol, &default_value);
        let nodes = self.assemble(substitute, |me| {
            let slot_keys = protocol.needs_keys().then(|| {
                let kd = keys();
                let store = kd.store(me).clone().with_cache(cache.clone());
                (store, kd.ring(me).clone())
            });
            self.honest_node(protocol, me, slot_keys, &value, &default_value)
        });
        // One worker: the run's nodes share `cache` (see
        // `SyncNetwork::set_workers`).
        let drive = self.drive(nodes, rounds, 1, schedule);
        let phases = crate::obs::PhaseBreakdown::from_drive(
            self.engine,
            drive.round_marks,
            drive.max_queue_depth,
            drive.sched,
        );
        let mut outcomes = Vec::with_capacity(self.n);
        let (mut used_fallback, mut grades) = (Vec::new(), Vec::new());
        for node in drive.nodes {
            let (outcome, fallback, grade) = extract_slot(protocol, node);
            outcomes.push(outcome);
            if protocol == Protocol::FdToBa {
                used_fallback.push(fallback);
            }
            if protocol == Protocol::Degradable {
                grades.push(grade);
            }
        }
        let mut report = FdRunReport {
            outcomes,
            stats: drive.stats,
            used_fallback,
            grades,
            delay_log: drive.delay_log,
            phases,
        };
        if let Some((hits0, misses0)) = obs_base {
            if let Some(phases) = report.phases.as_mut() {
                phases.cache_hits = (cache.hits().saturating_sub(hits0)) as u64;
                phases.cache_misses = (cache.misses().saturating_sub(misses0)) as u64;
                phases.verify_us = cache.verify_wall_us().unwrap_or(0);
                if let Some(table) = keydist.and_then(|kd| kd.predicates.as_ref()) {
                    phases.interned = table.interned_count() as u64;
                    phases.fresh = table.fresh_count() as u64;
                }
            }
        }
        report
    }

    /// Build the node set for one run: each slot gets the adversary's
    /// substitute or the honest automaton from `honest`.
    fn assemble(
        &self,
        substitute: Substitution<'_>,
        mut honest: impl FnMut(NodeId) -> Box<dyn Node>,
    ) -> Vec<Box<dyn Node>> {
        (0..self.n)
            .map(|i| {
                let me = NodeId(i as u16);
                match substitute(me) {
                    Some(adversary) => adversary,
                    None => honest(me),
                }
            })
            .collect()
    }

    /// The protocol-phase round budget of `protocol`.
    pub(crate) fn protocol_rounds(&self, protocol: Protocol, default_value: &[u8]) -> u32 {
        let (n, t, default) = (self.n, self.t, default_value.to_vec());
        match protocol {
            Protocol::ChainFd => ChainFdParams::new(n, t).rounds(),
            Protocol::NonAuthFd => NonAuthParams::new(n, t).rounds(),
            Protocol::SmallRange => SmallRangeParams::new(n, t, default).rounds(),
            Protocol::DolevStrong => DolevStrongParams::new(n, t, default).rounds(),
            Protocol::PhaseKing => PhaseKingParams::new(n, t, default).rounds(),
            Protocol::Degradable => DegradableParams::new(n, t, default).rounds(),
            Protocol::FdToBa => FdToBaParams::new(n, t, default).rounds(),
        }
    }

    /// Slot `me`'s honest automaton for `protocol`: the one per-protocol
    /// constructor behind [`Cluster::run`] and every cluster worker.
    /// `keys` is the slot's key store (carrying the run's verification
    /// cache) and keyring, given exactly when [`Protocol::needs_keys`].
    ///
    /// # Panics
    ///
    /// Panics if the protocol needs keys and `keys` is `None`.
    pub(crate) fn honest_node(
        &self,
        protocol: Protocol,
        me: NodeId,
        keys: Option<(KeyStore, Keyring)>,
        value: &[u8],
        default_value: &[u8],
    ) -> Box<dyn Node> {
        let (n, t, default) = (self.n, self.t, default_value.to_vec());
        let scheme = Arc::clone(&self.scheme);
        let keyed = || keys.expect("protocol needs a key store");
        let input = |sender: NodeId| (me == sender).then(|| value.to_vec());
        match protocol {
            Protocol::ChainFd => {
                let params = ChainFdParams::new(n, t);
                let ((store, ring), value) = (keyed(), input(params.sender));
                Box::new(ChainFdNode::new(me, params, scheme, store, ring, value))
            }
            Protocol::NonAuthFd => {
                let params = NonAuthParams::new(n, t);
                let value = input(params.sender);
                Box::new(NonAuthFdNode::new(me, params, value))
            }
            Protocol::SmallRange => {
                let params = SmallRangeParams::new(n, t, default);
                let ((store, ring), value) = (keyed(), input(params.sender));
                Box::new(SmallRangeFdNode::new(
                    me, params, scheme, store, ring, value,
                ))
            }
            Protocol::DolevStrong => {
                let params = DolevStrongParams::new(n, t, default);
                let ((store, ring), value) = (keyed(), input(params.sender));
                Box::new(DolevStrongNode::new(me, params, scheme, store, ring, value))
            }
            Protocol::PhaseKing => {
                let params = PhaseKingParams::new(n, t, default);
                let value = input(params.sender);
                Box::new(PhaseKingNode::new(me, params, value))
            }
            Protocol::Degradable => {
                let params = DegradableParams::new(n, t, default);
                let ((store, ring), value) = (keyed(), input(params.sender));
                Box::new(DegradableNode::new(me, params, scheme, store, ring, value))
            }
            Protocol::FdToBa => {
                let params = FdToBaParams::new(n, t, default);
                let ((store, ring), value) = (keyed(), input(params.sender));
                Box::new(FdToBaNode::new(me, params, scheme, store, ring, value))
            }
        }
    }
}

/// One slot's `(outcome, used_fallback, grade)` after a run: a node that
/// is not the protocol's honest automaton (an adversary substitute)
/// yields `(None, false, None)`.
pub(crate) fn extract_slot(
    protocol: Protocol,
    node: Box<dyn Node>,
) -> (Option<Outcome>, bool, Option<Grade>) {
    let any: Box<dyn Any> = node;
    let plain = |outcome: Option<&Outcome>| (outcome.cloned(), false, None);
    match protocol {
        Protocol::ChainFd => plain(
            any.downcast::<ChainFdNode>()
                .ok()
                .as_deref()
                .map(ChainFdNode::outcome),
        ),
        Protocol::NonAuthFd => plain(
            any.downcast::<NonAuthFdNode>()
                .ok()
                .as_deref()
                .map(NonAuthFdNode::outcome),
        ),
        Protocol::SmallRange => plain(
            any.downcast::<SmallRangeFdNode>()
                .ok()
                .as_deref()
                .map(SmallRangeFdNode::outcome),
        ),
        Protocol::DolevStrong => plain(
            any.downcast::<DolevStrongNode>()
                .ok()
                .as_deref()
                .map(DolevStrongNode::outcome),
        ),
        Protocol::PhaseKing => plain(
            any.downcast::<PhaseKingNode>()
                .ok()
                .as_deref()
                .map(PhaseKingNode::outcome),
        ),
        Protocol::Degradable => match any.downcast::<DegradableNode>() {
            Ok(n) => (Some(n.outcome().clone()), false, n.grade()),
            Err(_) => (None, false, None),
        },
        Protocol::FdToBa => match any.downcast::<FdToBaNode>() {
            Ok(n) => (Some(n.outcome().clone()), n.used_fallback(), None),
            Err(_) => (None, false, None),
        },
    }
}

/// A cluster plus a lazily established, cached key distribution: the
/// paper's "pay `3n(n−1)` once, then `n−1` per run" amortization as an
/// object.
///
/// The first executed spec whose protocol needs keys triggers the
/// setup-phase key distribution ([`Cluster::setup_keydist`]); every later
/// spec reuses the cached stores. [`Session::keydist_runs`] and
/// [`Session::messages_spent`] expose the accounting that experiment F1
/// (paper Fig. 1 economics) measures.
#[derive(Debug)]
pub struct Session {
    cluster: Cluster,
    keydist: Option<KeyDistReport>,
    keydist_runs: usize,
    runs: usize,
    run_messages: usize,
}

impl Session {
    /// Open a session on a cluster. No key distribution runs until the
    /// first spec that needs one.
    pub fn new(cluster: Cluster) -> Self {
        Session {
            cluster,
            keydist: None,
            keydist_runs: 0,
            runs: 0,
            run_messages: 0,
        }
    }

    /// Open a session with externally provided stores (e.g. the
    /// trusted-dealer baseline of [`Cluster::global_stores`]); no key
    /// distribution will run.
    pub fn with_keydist(cluster: Cluster, keydist: KeyDistReport) -> Self {
        Session {
            cluster,
            keydist: Some(keydist),
            keydist_runs: 0,
            runs: 0,
            run_messages: 0,
        }
    }

    /// The cluster this session executes on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Establish (or return the cached) key distribution.
    pub fn keydist(&mut self) -> &KeyDistReport {
        if self.keydist.is_none() {
            self.keydist = Some(self.cluster.setup_keydist());
            self.keydist_runs += 1;
        }
        self.keydist.as_ref().expect("just established")
    }

    /// The cached key distribution, if one was established or provided.
    pub fn keydist_report(&self) -> Option<&KeyDistReport> {
        self.keydist.as_ref()
    }

    /// Messages the session's key distribution cost, if one ran (or was
    /// provided).
    pub fn keydist_messages(&self) -> Option<usize> {
        self.keydist.as_ref().map(|kd| kd.stats.messages_total)
    }

    /// How many key distributions this session executed — the amortization
    /// claim is that this stays at 1 for any number of runs.
    pub fn keydist_runs(&self) -> usize {
        self.keydist_runs
    }

    /// Protocol runs executed so far.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Total messages spent: the (single) key distribution plus every
    /// protocol run — the cumulative-cost curve of paper Fig. 1.
    pub fn messages_spent(&self) -> usize {
        self.keydist_messages().unwrap_or(0) + self.run_messages
    }

    /// Execute one spec, reusing (or lazily establishing) the session's
    /// key distribution.
    pub fn run(&mut self, spec: &RunSpec) -> FdRunReport {
        let keys = if spec.protocol.needs_keys() {
            self.keydist();
            self.keydist.as_ref()
        } else {
            None
        };
        let report = self.cluster.run_with_keys(spec, keys);
        self.runs += 1;
        self.run_messages += report.stats.messages_total;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryKind, AdversarySpec};

    fn cluster(n: usize, t: usize) -> Cluster {
        Cluster::new(n, t, Arc::new(fd_crypto::SchnorrScheme::test_tiny()), 99)
    }

    #[test]
    fn session_amortizes_exactly_one_keydist() {
        let mut session = Session::new(cluster(6, 1));
        assert_eq!(session.keydist_runs(), 0);
        for k in 0..5u8 {
            let run = session.run(&RunSpec::new(Protocol::ChainFd, vec![k]));
            assert!(run.all_decided(&[k]));
            assert_eq!(run.stats.messages_total, metrics::chain_fd_messages(6));
        }
        assert_eq!(session.keydist_runs(), 1);
        assert_eq!(session.runs(), 5);
        assert_eq!(
            session.messages_spent(),
            metrics::keydist_messages(6) + 5 * metrics::chain_fd_messages(6)
        );
    }

    #[test]
    fn key_free_protocols_never_trigger_keydist() {
        let mut session = Session::new(cluster(8, 2));
        let run = session.run(&RunSpec::new(Protocol::NonAuthFd, b"v".to_vec()));
        assert!(run.all_decided(b"v"));
        assert_eq!(session.keydist_runs(), 0);
        assert_eq!(session.keydist_messages(), None);
    }

    #[test]
    fn one_shot_run_matches_session_run() {
        let c = cluster(5, 1);
        let spec = RunSpec::new(Protocol::DolevStrong, b"v".to_vec()).with_default_value(b"d");
        let one_shot = c.run(&spec);
        let mut session = Session::new(c);
        let amortized = session.run(&spec);
        assert_eq!(one_shot.to_json(), amortized.to_json());
    }

    #[test]
    fn every_protocol_runs_failure_free_through_the_spec() {
        for protocol in Protocol::ALL {
            let (n, t) = (9, 2); // admissible for the whole lineup
            let mut session = Session::new(cluster(n, t));
            let run = session.run(&RunSpec::new(protocol, b"v".to_vec()).with_default_value(
                // Small-range pays for non-default values; use the
                // input as default to keep the run failure-free-cheap
                // where the protocol allows it.
                b"d".to_vec(),
            ));
            assert!(run.all_decided(b"v"), "{protocol} failed");
            assert_eq!(
                run.stats.messages_total,
                protocol.expected_messages(n, t),
                "{protocol} missed its closed form"
            );
        }
    }

    #[test]
    fn scripted_adversary_reaches_the_run() {
        let mut session = Session::new(cluster(6, 1));
        let run = session.run(
            &RunSpec::new(Protocol::ChainFd, b"v".to_vec())
                .with_adversary(AdversarySpec::scripted(AdversaryKind::SilentRelay)),
        );
        assert!(run.outcomes[1].is_none(), "relay slot marked faulty");
        assert!(run.any_discovery(), "silent relay must be discovered");
    }

    #[test]
    fn equivocating_relay_is_discovered_never_silent() {
        for n in [5usize, 7, 9] {
            let t = (n - 1) / 3;
            let mut session = Session::new(cluster(n, t));
            let run = session.run(
                &RunSpec::new(Protocol::ChainFd, b"v".to_vec())
                    .with_adversary(AdversarySpec::scripted(AdversaryKind::Equivocate)),
            );
            let decided: std::collections::BTreeSet<Vec<u8>> = run
                .correct_outcomes()
                .iter()
                .filter_map(|o| o.decided().map(<[u8]>::to_vec))
                .collect();
            assert!(
                decided.len() <= 1 || run.any_discovery(),
                "n={n}: two-faced relay caused silent disagreement"
            );
            assert!(run.any_discovery(), "n={n}: equivocation went unnoticed");
        }
    }

    #[test]
    fn custom_adversary_escape_hatch_works() {
        use crate::adversary::SilentNode;
        let mut session = Session::new(cluster(5, 1));
        let spec = RunSpec::new(Protocol::ChainFd, b"v".to_vec()).with_adversary(
            AdversarySpec::custom(|id| {
                (id == NodeId(1)).then(|| Box::new(SilentNode { me: NodeId(1) }) as Box<dyn Node>)
            }),
        );
        let run = session.run(&spec);
        assert!(run.any_discovery());
    }

    #[test]
    #[should_panic(expected = "cannot speak protocol")]
    fn inapplicable_adversary_panics() {
        let c = cluster(5, 1);
        let spec = RunSpec::new(Protocol::DolevStrong, b"v".to_vec())
            .with_adversary(AdversarySpec::scripted(AdversaryKind::TamperBody));
        let _ = c.run(&spec);
    }

    #[test]
    fn report_json_is_deterministic_and_complete() {
        let c = cluster(5, 1);
        let spec = RunSpec::new(Protocol::FdToBa, b"v".to_vec());
        let a = c.run(&spec).to_json();
        let b = c.run(&spec).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"outcomes\""));
        assert!(a.contains("\"used_fallback\""));
        assert!(a.contains("\"grades\""));
    }
}
