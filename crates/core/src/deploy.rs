//! The deployment layer: multi-process agreement runs over a discovery
//! registry and the non-blocking socket mesh.
//!
//! Everything below `lafd cluster` lives here:
//!
//! * [`Registry`] — a small TCP discovery service speaking the
//!   [`crate::wire`] registry dialect in newline-delimited wire-v1, one
//!   line per request and per reply, with three verbs: workers register
//!   `(node, addr)` and block until the full roster is known (the one
//!   wait of a run), and deposit a [`WorkerSummary`] at teardown; the
//!   orchestrator collects the summaries. One registry serves many runs,
//!   keyed by run id.
//! * [`registry_call`] — the one-shot client used by workers and the
//!   orchestrator (one request line, one reply line, one connection, over
//!   [`crate::service::call`]).
//! * [`run_worker`] — the whole life of one worker process: build the
//!   [`Cluster`](crate::runner::Cluster) from a wire request, register, mesh up
//!   once ([`MeshPeers`]), run the key distribution and then the
//!   protocol as two [`NonblockingMesh`] phases over that one mesh, close
//!   it, and tear down with a summary. Any transport or registry
//!   failure is returned as an error — the CLI maps it to a nonzero exit
//!   code, so a lost or hung peer is always loud.
//! * [`Generation`] — the supervisor's side of one generation of worker
//!   processes: spawn them with stdout on a shared exit socket, learn of
//!   their exits from it (EOF once all have exited), classify each exit
//!   ([`ExitKind`]), and end the generation at its first failed worker
//!   by stopping every worker still running.
//! * [`supervise`] — the generation loop behind `lafd cluster`: spawn
//!   the registry and each generation, and let [`Policy`] decide after
//!   each one to restart, degrade to the crash adversary ([`degraded`])
//!   or abort. [`run_campaigns`] runs `lafd chaos`'s fault campaigns
//!   through it into a [`ChaosReport`].
//! * [`assemble_report`] — fold the `n` deposited summaries back into
//!   the standard [`FdRunReport`]. Because the mesh reproduces the sync
//!   engine's delivery order and early-termination rule exactly, the
//!   assembled report's counters are **byte-identical** to
//!   [`Cluster::run`](crate::runner::Cluster::run) for the same spec and seed (the cluster
//!   cross-validation tests compare `to_json()` output directly).
//!
//! Phase discipline mirrors [`Cluster::run`](crate::runner::Cluster::run): key distribution always
//! runs synchronously (paper §3), then the protocol phase runs with the
//! spec's adversary substitution. A non-synchronous latency spec becomes
//! a wall-clock [`DelayShim`] on the protocol-phase links — virtual-tick
//! delays scaled to real time — which stretches socket timing without
//! changing the round structure, so counters stay comparable.

use crate::keys;
use crate::localauth::{KeyDistNode, KEYDIST_ROUNDS};
use crate::runner::{FdRunReport, KeyDistReport};
use crate::service::{self, CallError};
use crate::spec::{Protocol, SpecBuilder};
use crate::wire::{
    registry_reply_from_json, registry_reply_to_json, registry_request_from_json,
    registry_request_to_json, RegistryReply, RegistryRequest, WorkerSummary,
};
use fd_simnet::transport::chaos::{
    transient, with_retry, ChaosInjector, ChaosPhase, ChaosSpec, RetryCtx, RetryPolicy,
    CHAOS_KILL_EXIT, COLLATERAL_EXIT,
};
use fd_simnet::transport::{DelayShim, MeshPeers, MeshRun, NonblockingMesh, TransportError};
use fd_simnet::{LatencySpec, NetStats, NodeId};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

mod campaign;
mod supervise;

pub use campaign::{
    chaos_expected, default_campaigns, run_campaigns, Campaign, CampaignRow, ChaosOutcome,
    ChaosReport,
};
pub use supervise::{
    degraded, supervise, Aborted, ClusterConfig, Policy, Resilience, Step, Supervised,
};

/// Why a [`registry_call`] failed, sorted for the retry policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The exchange failed on the connection (connect, send, or a lost,
    /// cut-off, over-long or non-UTF-8 reply): worth retrying.
    Transient(String),
    /// The registry refused the request, its reply is no registry reply,
    /// or the address does not resolve: final.
    Final(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Transient(error) | RegistryError::Final(error) => f.write_str(error),
        }
    }
}

impl From<RegistryError> for String {
    fn from(error: RegistryError) -> String {
        error.to_string()
    }
}

/// One registry round trip on a fresh connection ([`service::call`]):
/// send the request line, await the reply line. `timeout` bounds the
/// connect and every read and write, the blocking wait of a register
/// request included.
pub fn registry_call(
    addr: &str,
    request: &RegistryRequest,
    timeout: Duration,
) -> Result<RegistryReply, RegistryError> {
    let line = registry_request_to_json(request);
    let reply = service::call(addr, line, Some(timeout)).map_err(|error| match error {
        CallError::Address(e) => RegistryError::Final(format!("registry address {addr:?}: {e}")),
        error => RegistryError::Transient(format!("registry {addr}: {error}")),
    })?;
    match registry_reply_from_json(&reply).map_err(RegistryError::Final)? {
        RegistryReply::Error { error } => Err(RegistryError::Final(format!("registry: {error}"))),
        reply => Ok(reply),
    }
}

/// [`registry_call`] under a retry policy: transient failures back off
/// (capped, seeded jitter) and retry up to the budget; an exhausted
/// budget surfaces as the typed [`TransportError::Exhausted`]. Safe
/// because every registry operation is idempotent per `(run, node,
/// incarnation)`: re-registering the same address and re-depositing a
/// summary land in the same state, and a collect only reads.
pub fn registry_call_with(
    addr: &str,
    request: &RegistryRequest,
    timeout: Duration,
    node: NodeId,
    retry: &RetryCtx,
    chaos: Option<&ChaosInjector>,
) -> Result<RegistryReply, TransportError> {
    with_retry(node, "registry call", retry, transient, |attempt| {
        if let Some(inj) = chaos {
            if inj.refuse_connect("registry", attempt) {
                return Err(TransportError::Io {
                    node,
                    context: "registry call".to_string(),
                    error: "chaos: connection refused".to_string(),
                });
            }
        }
        registry_call(addr, request, timeout).map_err(|error| match error {
            RegistryError::Transient(error) => TransportError::Io {
                node,
                context: "registry call".to_string(),
                error,
            },
            RegistryError::Final(detail) => TransportError::Protocol { node, detail },
        })
    })
}

// ---------------------------------------------------------------------
// Registry service
// ---------------------------------------------------------------------

#[derive(Default)]
struct RunState {
    /// Highest incarnation admitted for this run. A register or teardown
    /// from a higher incarnation advances the generation and clears all
    /// state below; one from a lower incarnation is fenced with a typed
    /// error — a stale worker can never corrupt the restarted run.
    generation: u64,
    roster: BTreeMap<usize, String>,
    summaries: Vec<WorkerSummary>,
}

/// Admit `incarnation` into the run: advance (and reset) the generation
/// if it is newer, fence it if it is stale.
fn admit(slot: &mut RunState, incarnation: u64) -> Result<(), u64> {
    if incarnation > slot.generation {
        slot.generation = incarnation;
        slot.roster.clear();
        slot.summaries.clear();
    }
    if incarnation < slot.generation {
        Err(slot.generation)
    } else {
        Ok(())
    }
}

struct RegistryState {
    runs: Mutex<HashMap<String, RunState>>,
    changed: Condvar,
}

/// The discovery registry behind `lafd registry`: a threaded TCP service
/// answering [`RegistryRequest`] lines (register, teardown, collect) on
/// the accept loop of [`crate::service`]. A register request blocks
/// (bounded by [`Registry::with_wait_limit`]) until the rest of the run
/// has registered; the other two answer at once.
pub struct Registry {
    listener: TcpListener,
    state: RegistryState,
    wait_limit: Duration,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("addr", &self.listener.local_addr().ok())
            .field("wait_limit", &self.wait_limit)
            .finish()
    }
}

impl Registry {
    /// Bind the registry (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> std::io::Result<Registry> {
        Ok(Registry {
            listener: TcpListener::bind(addr)?,
            state: RegistryState {
                runs: Mutex::new(HashMap::new()),
                changed: Condvar::new(),
            },
            wait_limit: Duration::from_secs(120),
        })
    }

    /// The bound address (workers connect here).
    ///
    /// # Panics
    ///
    /// Panics if the listener has no local address (cannot happen for a
    /// successfully bound socket).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Bound the blocking wait of register requests; expiry answers with
    /// a registry error ("roster incomplete") instead of holding the
    /// connection forever. A connection whose request is still unfinished
    /// this long after its accept (or its last reply) is closed.
    #[must_use]
    pub fn with_wait_limit(mut self, wait_limit: Duration) -> Self {
        self.wait_limit = wait_limit;
        self
    }

    /// Accept and serve connections forever, one thread per connection
    /// (registry traffic is a handful of exchanges per worker per run).
    pub fn serve(&self) {
        let never = AtomicBool::new(false);
        service::serve_lines(&self.listener, &never, Some(self.wait_limit), |line| {
            let request = line
                .map_err(|bad| bad.to_string())
                .and_then(registry_request_from_json);
            let reply = match request {
                Ok(request) => answer(request, &self.state, self.wait_limit),
                Err(error) => {
                    // Malformed traffic gets a typed error reply (and a
                    // log line) rather than a silently dropped connection.
                    eprintln!("lafd registry: rejecting malformed request: {error}");
                    RegistryReply::Error { error }
                }
            };
            registry_reply_to_json(&reply)
        });
    }
}

fn answer(request: RegistryRequest, state: &RegistryState, wait_limit: Duration) -> RegistryReply {
    let error = |error: String| RegistryReply::Error { error };
    match request {
        RegistryRequest::Register {
            run,
            node,
            n,
            addr,
            incarnation,
        } => {
            let mut runs = state.runs.lock().expect("registry lock");
            let slot = runs.entry(run.clone()).or_default();
            if let Err(generation) = admit(slot, incarnation) {
                return error(format!(
                    "run {run:?}: node {node} fenced (incarnation {incarnation} < generation {generation})"
                ));
            }
            if let Some(existing) = slot.roster.get(&node) {
                if *existing != addr {
                    return error(format!(
                        "run {run:?}: node {node} already registered at {existing}"
                    ));
                }
            }
            slot.roster.insert(node, addr);
            state.changed.notify_all();
            let (runs, timeout) = state
                .changed
                .wait_timeout_while(runs, wait_limit, |runs| {
                    runs.get(&run)
                        .is_none_or(|s| s.generation == incarnation && s.roster.len() < n)
                })
                .expect("registry lock");
            let Some(slot) = runs.get(&run) else {
                return error(format!("run {run:?} vanished while registering"));
            };
            if slot.generation != incarnation {
                return error(format!(
                    "run {run:?}: node {node} fenced (incarnation {incarnation} < generation {})",
                    slot.generation
                ));
            }
            if timeout.timed_out() {
                return error(format!(
                    "run {run:?}: roster incomplete after {wait_limit:?}"
                ));
            }
            let roster = &slot.roster;
            if roster.len() > n || roster.keys().any(|&k| k >= n) {
                return error(format!("run {run:?}: roster exceeds n = {n}"));
            }
            RegistryReply::Roster {
                peers: roster.iter().map(|(&k, v)| (k, v.clone())).collect(),
            }
        }
        RegistryRequest::Teardown {
            run,
            node,
            summary,
            incarnation,
        } => {
            let mut runs = state.runs.lock().expect("registry lock");
            let slot = runs.entry(run.clone()).or_default();
            if let Err(generation) = admit(slot, incarnation) {
                return error(format!(
                    "run {run:?}: node {node} fenced at teardown (incarnation {incarnation} < generation {generation})"
                ));
            }
            // Idempotent per (node, generation): a retried deposit whose
            // first ack was lost just overwrites its own record.
            if let Some(existing) = slot.summaries.iter_mut().find(|s| s.node == node) {
                *existing = summary;
            } else {
                slot.summaries.push(summary);
            }
            state.changed.notify_all();
            RegistryReply::Ack
        }
        RegistryRequest::Collect { run } => {
            let runs = state.runs.lock().expect("registry lock");
            RegistryReply::Summaries {
                workers: runs
                    .get(&run)
                    .map(|s| s.summaries.clone())
                    .unwrap_or_default(),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker lifecycle
// ---------------------------------------------------------------------

/// Everything a worker process needs besides the run description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerConfig {
    /// Registry address (`host:port`).
    pub registry: String,
    /// Run identifier shared by the whole cluster.
    pub run: String,
    /// This worker's slot.
    pub node: usize,
    /// Transport/registry no-progress deadline.
    pub io_deadline: Duration,
    /// Wall-clock duration of one virtual round for the delay shim; the
    /// shim engages only when the spec's latency is non-synchronous and
    /// this is nonzero.
    pub round_wall: Duration,
    /// Restart generation this worker runs as (0 on first launch). The
    /// registry fences anything below the highest incarnation it has
    /// admitted for the run.
    pub incarnation: u64,
    /// Interface the mesh listener binds (and advertises — it must be
    /// reachable by peers). `127.0.0.1` for single-host runs.
    pub bind: String,
    /// Retry policy for registry calls and mesh connects/handshakes.
    pub retry: RetryPolicy,
    /// Optional chaos campaign driving deterministic fault injection.
    pub chaos: Option<ChaosSpec>,
}

/// Largest `--io-deadline-secs` / `--wait-limit-secs` accepted (one
/// day): every deadline derived from it, up to the supervisor's
/// `4 × io_deadline + 30 s` guard, stays far inside `Instant`'s range.
pub const MAX_DEADLINE_SECS: u64 = 86_400;

/// Parse a deadline flag in whole seconds. Zero is refused (no socket
/// accepts a zero timeout, so every worker would burn its retries first)
/// and so is anything past [`MAX_DEADLINE_SECS`] (the deadline sums
/// would overflow) — before anything is spawned.
pub fn parse_deadline_secs(flag: &str, raw: &str) -> Result<u64, String> {
    let secs: u64 = raw.parse().map_err(|e| format!("{flag}: {e}"))?;
    if (1..=MAX_DEADLINE_SECS).contains(&secs) {
        Ok(secs)
    } else {
        Err(format!(
            "{flag} {secs}: must be between 1 and {MAX_DEADLINE_SECS} seconds"
        ))
    }
}

impl WorkerConfig {
    /// A localhost worker with the [`ClusterConfig`] defaults.
    pub fn localhost(registry: String, run: String, node: usize, io_deadline: Duration) -> Self {
        let cluster = ClusterConfig {
            io_deadline,
            ..ClusterConfig::default()
        };
        cluster.worker(registry, run, node, 0)
    }

    /// The `cluster-worker` command line (after the subcommand) of this
    /// worker running the wire-v1 `request`. The deadline is written in
    /// whole seconds and the round wall in whole microseconds; the retry
    /// policy is not written (workers run the default).
    pub fn to_args(&self, request: &str) -> Vec<String> {
        let mut args: Vec<String> = [
            "--registry",
            &self.registry,
            "--run",
            &self.run,
            "--node",
            &self.node.to_string(),
            "--incarnation",
            &self.incarnation.to_string(),
            "--bind",
            &self.bind,
            "--io-deadline-secs",
            &self.io_deadline.as_secs().to_string(),
            "--round-wall-us",
            &self.round_wall.as_micros().to_string(),
            "--request",
            request,
        ]
        .map(str::to_string)
        .to_vec();
        if let Some(chaos) = &self.chaos {
            args.extend(["--chaos".to_string(), chaos.to_spec_string()]);
        }
        args
    }
}

/// Why a worker could not finish, sorted for the supervisor: a chaos
/// kill is charged to the victim's restart budget; collateral failures
/// (a vanished peer, an expired deadline or retry budget, a broken
/// registry exchange) restart the generation without blame; anything
/// else is a genuine bug and fails the run.
#[derive(Debug, Clone)]
pub enum WorkerFailure {
    /// A chaos kill rule fired at `phase`.
    Killed {
        /// The phase label (`"keydist"`, `"round:3"`, `"teardown"`).
        phase: String,
    },
    /// The transport failed during `phase`.
    Transport {
        /// Which lifecycle step broke.
        phase: &'static str,
        /// The typed transport failure.
        error: TransportError,
    },
    /// A registry exchange was refused (fencing, an incomplete roster, a
    /// bad request).
    Registry(String),
    /// Configuration or build errors — never retried.
    Other(String),
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerFailure::Killed { phase } => write!(f, "chaos kill at phase {phase}"),
            WorkerFailure::Transport { phase, error } => write!(f, "{phase}: {error}"),
            WorkerFailure::Registry(error) => write!(f, "registry: {error}"),
            WorkerFailure::Other(error) => f.write_str(error),
        }
    }
}

impl WorkerFailure {
    /// The process exit code the CLI maps this failure to:
    /// [`CHAOS_KILL_EXIT`] for kills (charged to the victim),
    /// [`COLLATERAL_EXIT`] for failures a restart can heal, and 1 for
    /// genuine bugs.
    pub fn exit_code(&self) -> i32 {
        match self {
            WorkerFailure::Killed { .. } => i32::from(CHAOS_KILL_EXIT),
            WorkerFailure::Registry(_) => i32::from(COLLATERAL_EXIT),
            WorkerFailure::Transport { error, .. } => match error {
                TransportError::Protocol { .. } | TransportError::WorkerPanic { .. } => 1,
                _ => i32::from(COLLATERAL_EXIT),
            },
            WorkerFailure::Other(_) => 1,
        }
    }
}

/// Run one worker end to end: register, mesh up, key distribution and
/// the protocol phase over that one mesh, close, teardown with a
/// [`WorkerSummary`]. Every failure path returns a typed
/// [`WorkerFailure`] — the CLI maps it to the exit-code scheme the
/// supervisor classifies restarts by. Chaos injections (if configured)
/// are replayed to stderr as sorted `chaos[...]` trace lines on every
/// exit path, so two runs with the same seed can be compared
/// byte-for-byte.
pub fn run_worker(cfg: &WorkerConfig, builder: &SpecBuilder) -> Result<(), WorkerFailure> {
    let chaos = cfg
        .chaos
        .as_ref()
        .map(|spec| ChaosInjector::new(spec.clone(), cfg.node, cfg.incarnation));
    let retry = RetryCtx::new(
        cfg.retry,
        (cfg.node as u64) ^ cfg.incarnation.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let result = run_worker_inner(cfg, builder, chaos.as_ref(), &retry);
    if let Some(inj) = &chaos {
        // One write syscall per pre-formatted line: n workers share the
        // supervisor's stderr pipe, and only single-write lines under
        // PIPE_BUF are atomic — `eprintln!` may split one line across
        // several writes and tear against a sibling process.
        let stderr = std::io::stderr();
        let mut out = stderr.lock();
        for event in inj.trace() {
            let line = format!("chaos[node={} inc={}] {event}\n", cfg.node, cfg.incarnation);
            let _ = out.write_all(line.as_bytes());
        }
    }
    result
}

fn run_worker_inner(
    cfg: &WorkerConfig,
    builder: &SpecBuilder,
    chaos: Option<&ChaosInjector>,
    retry: &RetryCtx,
) -> Result<(), WorkerFailure> {
    let (cluster, spec) = builder.build().map_err(WorkerFailure::Other)?;
    if !cluster.link_latency.is_empty() {
        return Err(WorkerFailure::Other(
            "per-link latency overrides are not supported by lafd cluster".to_string(),
        ));
    }
    let n = cluster.n;
    if cfg.node >= n {
        return Err(WorkerFailure::Other(format!(
            "node {} out of range for n = {n}",
            cfg.node
        )));
    }
    let me = NodeId(cfg.node as u16);
    let bind_addr = format!("{}:0", cfg.bind);
    let listener = TcpListener::bind(&bind_addr).map_err(|e| WorkerFailure::Transport {
        phase: "bind",
        error: TransportError::Bind {
            node: me,
            addr: bind_addr.clone(),
            error: e.to_string(),
        },
    })?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| WorkerFailure::Other(format!("listener address: {e}")))?;

    // Registration is the run's one wait: the reply arrives once all n
    // workers have announced themselves, and every listener is bound.
    let registry = |request: RegistryRequest| {
        registry_call_with(&cfg.registry, &request, cfg.io_deadline, me, retry, chaos)
            .map_err(registry_failure)
    };
    let reply = registry(RegistryRequest::Register {
        run: cfg.run.clone(),
        node: cfg.node,
        n,
        addr: my_addr.to_string(),
        incarnation: cfg.incarnation,
    })?;
    let RegistryReply::Roster { peers } = reply else {
        return Err(WorkerFailure::Registry(format!(
            "unexpected registry reply to register: {reply:?}"
        )));
    };
    if peers.len() != n || peers.iter().enumerate().any(|(i, (slot, _))| *slot != i) {
        return Err(WorkerFailure::Registry(format!(
            "incomplete roster: {peers:?}"
        )));
    }
    let addrs = peers
        .iter()
        .map(|(slot, addr)| {
            addr.parse::<SocketAddr>()
                .map_err(|e| WorkerFailure::Registry(format!("roster addr for node {slot}: {e}")))
        })
        .collect::<Result<Vec<SocketAddr>, WorkerFailure>>()?;

    if let Some(inj) = chaos {
        if inj.should_kill(ChaosPhase::Keydist) {
            return Err(WorkerFailure::Killed {
                phase: ChaosPhase::Keydist.label(),
            });
        }
    }

    // One mesh carries both phases, as local authentication (paper §3)
    // sets up keys over the links the protocol then uses.
    let mut mesh = MeshPeers::establish_with(me, &listener, &addrs, cfg.io_deadline, retry, chaos)
        .map_err(|e| WorkerFailure::Transport {
            phase: "mesh",
            error: e,
        })?;

    // Phase 1 — key distribution, always synchronous (paper §3), all
    // nodes honest (the adversary only enters the protocol phase, as in
    // `Cluster::run`).
    let mut kd_anomalies = Vec::new();
    let mut kd_stats = NetStats::new(n);
    let mut keydist: Option<KeyDistReport> = None;
    if spec.protocol.needs_keys() {
        let rings = cluster.keyrings();
        let table = Arc::new(keys::PredicateTable::from_rings(&rings));
        let node = KeyDistNode::new(
            me,
            n,
            Arc::clone(&cluster.scheme),
            rings[cfg.node].clone(),
            cluster.seed,
        )
        .with_intern_table(Arc::clone(&table));
        let run: MeshRun = NonblockingMesh::new(KEYDIST_ROUNDS)
            .with_io_deadline(cfg.io_deadline)
            .run(Box::new(node), &mut mesh)
            .map_err(|e| WorkerFailure::Transport {
                phase: "keydist phase",
                error: e,
            })?;
        kd_stats = run.stats;
        kd_stats.rounds = run.rounds;
        let node = (run.node as Box<dyn Any>)
            .downcast::<KeyDistNode>()
            .expect("keydist slot holds KeyDistNode");
        let (own_store, _ring, anoms) = node.into_parts();
        kd_anomalies = anoms;
        // A sparse report: only this worker's store exists in this
        // process. Adversary substitution only ever reads the corrupt
        // slot's own store, so this is sufficient.
        let mut stores: Vec<Option<keys::KeyStore>> = (0..n).map(|_| None).collect();
        stores[cfg.node] = Some(own_store);
        keydist = Some(KeyDistReport {
            stores,
            stats: kd_stats.clone(),
            anomalies: vec![(me, kd_anomalies.clone())],
            round_marks: None,
            crypto_time: None,
            predicates: Some(table),
            rings,
        });
    }

    // Phase 2 — the protocol, with the spec's adversary substitution for
    // this slot and an optional wall-clock delay shim on the links.
    let rounds = cluster.protocol_rounds(spec.protocol, &spec.default_value);
    let node = match spec.adversary.substitution(&cluster, keydist.as_ref())(me) {
        Some(adversary) => adversary,
        None => {
            let keys = keydist.as_ref().map(|kd| {
                let store = kd
                    .store(me)
                    .clone()
                    .with_cache(keys::VerifyCache::default());
                (store, kd.ring(me).clone())
            });
            cluster.honest_node(spec.protocol, me, keys, &spec.input, &spec.default_value)
        }
    };
    let mut protocol = NonblockingMesh::new(rounds).with_io_deadline(cfg.io_deadline);
    if cluster.latency.normalize() != LatencySpec::Synchronous && !cfg.round_wall.is_zero() {
        protocol = protocol.with_delay_shim(DelayShim {
            latency: cluster.latency,
            seed: cluster.seed,
            round_wall: cfg.round_wall,
        });
    }
    if let Some(inj) = chaos {
        // `round:k` kills and frame stalls fire inside the protocol
        // phase — the mesh owns both.
        protocol = protocol.with_chaos(inj.clone());
    }
    let run: MeshRun = protocol
        .run(node, &mut mesh)
        .and_then(|run| mesh.close().map(|()| run))
        .map_err(|e| match e {
            TransportError::Killed { phase, .. } => WorkerFailure::Killed { phase },
            error => WorkerFailure::Transport {
                phase: "protocol phase",
                error,
            },
        })?;
    let (outcome, used_fallback, grade) = crate::spec::extract_slot(spec.protocol, run.node);

    let summary = WorkerSummary {
        node: cfg.node,
        outcome,
        used_fallback,
        grade,
        rounds: run.rounds,
        messages: run.stats.messages_total,
        bytes: run.stats.bytes_total,
        per_round: run.stats.per_round,
        dropped: run.stats.dropped_invalid,
        kd_rounds: kd_stats.rounds,
        kd_messages: kd_stats.messages_total,
        kd_bytes: kd_stats.bytes_total,
        kd_per_round: kd_stats.per_round,
        kd_anomalies: kd_anomalies.len(),
        incarnation: cfg.incarnation,
        retries: retry.retries(),
    };
    if let Some(inj) = chaos {
        if inj.should_kill(ChaosPhase::Teardown) {
            return Err(WorkerFailure::Killed {
                phase: ChaosPhase::Teardown.label(),
            });
        }
    }
    let reply = registry(RegistryRequest::Teardown {
        run: cfg.run.clone(),
        node: cfg.node,
        summary,
        incarnation: cfg.incarnation,
    })?;
    match reply {
        RegistryReply::Ack => Ok(()),
        other => Err(WorkerFailure::Registry(format!(
            "unexpected registry reply to teardown: {other:?}"
        ))),
    }
}

/// Map a typed registry-call failure into the worker taxonomy:
/// registry-level refusals keep their message; connection-level failures
/// (including exhausted retry budgets) stay typed transport errors.
fn registry_failure(error: TransportError) -> WorkerFailure {
    match error {
        TransportError::Protocol { detail, .. } => WorkerFailure::Registry(detail),
        error => WorkerFailure::Transport {
            phase: "registry",
            error,
        },
    }
}

// ---------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------

/// How long the supervisor waits on a live generation before sweeping
/// its workers with `try_wait`: the first failed worker of a partial
/// failure (some workers exited, others not) is noticed within one
/// sweep, and it ends the generation.
const SWEEP: Duration = Duration::from_millis(20);

/// Nap between reap sweeps once every worker has closed the exit socket
/// (a process closes its descriptors just before it becomes waitable).
const REAP_NAP: Duration = Duration::from_millis(1);

/// How one worker process left its generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Exited 0.
    Ok,
    /// Crash-style exit (chaos kill, signal, unknown code): charged to the
    /// slot's restart budget.
    Crash,
    /// [`COLLATERAL_EXIT`]: a failure a restart can heal (lost peer,
    /// expired deadline or retry budget, broken registry exchange) — the
    /// generation restarts without blaming the slot.
    Collateral,
    /// Exit 1 or a panic (101): a genuine bug; restarting would only mask
    /// it.
    Bug,
    /// Still running when another worker of its generation failed, and
    /// killed by the supervisor; not classified. (A worker that exited
    /// on its own before the kill landed is classified by its code.)
    Excluded,
}

impl ExitKind {
    /// Classify an exit status by the code scheme of
    /// [`WorkerFailure::exit_code`].
    fn of(status: ExitStatus) -> ExitKind {
        match status.code() {
            Some(0) => ExitKind::Ok,
            Some(code) if code == i32::from(COLLATERAL_EXIT) => ExitKind::Collateral,
            Some(1 | 101) => ExitKind::Bug,
            _ => ExitKind::Crash,
        }
    }
}

/// One worker's exit as the supervisor classified it.
#[derive(Debug, Clone)]
pub struct GenExit {
    /// The worker's slot.
    pub node: usize,
    /// The classification.
    pub kind: ExitKind,
    /// A human-readable line for stderr.
    pub desc: String,
}

impl GenExit {
    /// Classify worker `node`'s reaped `status`. A worker the supervisor
    /// `stopped` and that died of a signal died of the stop.
    fn of(node: usize, status: std::io::Result<ExitStatus>, stopped: bool) -> GenExit {
        let (kind, desc) = match status {
            Ok(status) if stopped && status.code().is_none() => (
                ExitKind::Excluded,
                format!("worker {node} stopped by the supervisor (generation lost)"),
            ),
            Ok(status) => (
                ExitKind::of(status),
                format!("worker {node} exited with {status}"),
            ),
            Err(e) => (ExitKind::Crash, format!("worker {node}: wait failed: {e}")),
        };
        GenExit { node, kind, desc }
    }
}

/// A child process that is killed and reaped when dropped — on every
/// exit path, panics included — so nothing the supervisor starts can
/// outlive it.
#[derive(Debug)]
pub struct KillOnDrop(pub Child);

impl KillOnDrop {
    /// Kill the child unless it has already exited, reap it, and return
    /// the status it left with.
    fn stop(&mut self) -> std::io::Result<ExitStatus> {
        let _ = self.0.kill();
        self.0.wait()
    }
}

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One generation of worker processes under supervision.
///
/// Every worker's stdout is a duplicate of one end of a Unix socket pair;
/// the supervisor keeps only the other end and blocks reading it. The
/// socket is the exit signal: a process's descriptors close when it
/// exits, so EOF means every worker has exited and the generation is
/// reaped at once instead of on the next sweep. Bytes a worker does
/// write to stdout are forwarded. Dropping a generation kills and reaps
/// every worker not yet reaped.
#[derive(Debug)]
pub struct Generation {
    workers: Vec<(usize, KillOnDrop)>,
    exits: UnixStream,
}

impl Generation {
    /// Spawn one process per `(node, command)` with its stdout on the
    /// generation's exit socket (replacing the command's own stdout
    /// setting). A failed spawn kills and reaps the workers already
    /// started.
    pub fn spawn(workers: impl IntoIterator<Item = (usize, Command)>) -> Result<Self, String> {
        let (exits, worker_end) =
            UnixStream::pair().map_err(|e| format!("worker exit socket: {e}"))?;
        exits
            .set_read_timeout(Some(SWEEP))
            .map_err(|e| format!("worker exit socket: {e}"))?;
        let mut generation = Generation {
            workers: Vec::new(),
            exits,
        };
        for (node, mut cmd) in workers {
            let stdout = worker_end
                .try_clone()
                .map_err(|e| format!("exit socket for worker {node}: {e}"))?;
            let child = cmd
                .stdout(Stdio::from(OwnedFd::from(stdout)))
                .spawn()
                .map_err(|e| format!("spawn worker {node}: {e}"))?;
            generation.workers.push((node, KillOnDrop(child)));
        }
        Ok(generation)
    }

    /// Wait for every worker and classify its exit, forwarding worker
    /// stdout bytes to `out`. Errors if the whole-run guard
    /// (`4 × io_deadline + 30 s`) expires. The first sweep that reaps a
    /// failed worker ends the generation: every worker still running is
    /// stopped and reaped, and marked [`ExitKind::Excluded`] unless it
    /// exited on its own before the stop landed.
    pub fn wait(
        mut self,
        io_deadline: Duration,
        out: &mut impl Write,
    ) -> Result<Vec<GenExit>, String> {
        let guard_after = io_deadline
            .saturating_mul(4)
            .saturating_add(Duration::from_secs(30));
        // A deadline beyond `Instant`'s range is no deadline.
        let guard = Instant::now().checked_add(guard_after);
        let mut exits: Vec<GenExit> = Vec::new();
        let mut all_closed = false;
        let mut buf = [0u8; 4096];
        loop {
            // Wait before the first sweep too, so workers that exit
            // together are reaped together.
            if all_closed {
                std::thread::sleep(REAP_NAP);
            } else {
                all_closed = self.read_exits(&mut buf, out)?;
            }
            for (node, mut child) in std::mem::take(&mut self.workers) {
                match child.0.try_wait().transpose() {
                    None => self.workers.push((node, child)),
                    Some(status) => exits.push(GenExit::of(node, status, false)),
                }
            }
            if exits.iter().any(|exit| exit.kind != ExitKind::Ok) {
                for (node, mut child) in std::mem::take(&mut self.workers) {
                    exits.push(GenExit::of(node, child.stop(), true));
                }
            }
            if self.workers.is_empty() {
                return Ok(exits);
            }
            if guard.is_some_and(|guard| Instant::now() > guard) {
                let stuck: Vec<String> = self.workers.iter().map(|(n, _)| n.to_string()).collect();
                // Dropping `self` kills and reaps the stuck workers.
                return Err(format!(
                    "cluster run exceeded the {}s guard with workers [{}] still running",
                    guard_after.as_secs(),
                    stuck.join(", ")
                ));
            }
        }
    }

    /// Block on the exit socket for at most one [`SWEEP`] (its read
    /// timeout), forwarding any worker stdout bytes to `out`. Returns
    /// whether every worker has closed its end (EOF).
    fn read_exits(&mut self, buf: &mut [u8], out: &mut impl Write) -> Result<bool, String> {
        match self.exits.read(buf) {
            Ok(0) => Ok(true),
            Ok(len) => {
                out.write_all(&buf[..len])
                    .and_then(|()| out.flush())
                    .map_err(|e| format!("forward worker stdout: {e}"))?;
                Ok(false)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(format!("worker exit socket: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Report assembly
// ---------------------------------------------------------------------

/// Key-distribution totals of a cluster run, aggregated across workers
/// (these live outside the [`FdRunReport`], mirroring how the setup
/// phase is reported in-process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTotals {
    /// Key-distribution rounds (0 for key-free protocols).
    pub kd_rounds: u32,
    /// Key-distribution messages across all workers.
    pub kd_messages: usize,
    /// Key-distribution bytes across all workers.
    pub kd_bytes: usize,
    /// Anomalies recorded across all workers.
    pub kd_anomalies: usize,
}

/// Fold the `n` worker summaries into the standard [`FdRunReport`] plus
/// the keydist totals. Errors on a missing/duplicate slot or on workers
/// disagreeing about the executed round count — either means the
/// transport broke, and the orchestrator must fail loudly.
pub fn assemble_report(
    protocol: Protocol,
    n: usize,
    summaries: &[WorkerSummary],
) -> Result<(FdRunReport, ClusterTotals), String> {
    let mut by_slot: Vec<Option<&WorkerSummary>> = vec![None; n];
    for summary in summaries {
        if summary.node >= n {
            return Err(format!("summary for out-of-range node {}", summary.node));
        }
        if by_slot[summary.node].replace(summary).is_some() {
            return Err(format!("duplicate summary for node {}", summary.node));
        }
    }
    let ordered = by_slot
        .iter()
        .enumerate()
        .map(|(slot, s)| s.ok_or_else(|| format!("no summary from node {slot}")))
        .collect::<Result<Vec<&WorkerSummary>, String>>()?;

    let rounds = ordered[0].rounds;
    let kd_rounds = ordered[0].kd_rounds;
    let mut stats = NetStats::new(n);
    stats.rounds = rounds;
    let mut totals = ClusterTotals {
        kd_rounds,
        kd_messages: 0,
        kd_bytes: 0,
        kd_anomalies: 0,
    };
    for summary in &ordered {
        if summary.rounds != rounds || summary.kd_rounds != kd_rounds {
            return Err(format!(
                "node {} disagrees on executed rounds ({}/{} vs {rounds}/{kd_rounds})",
                summary.node, summary.rounds, summary.kd_rounds
            ));
        }
        stats.messages_total += summary.messages;
        stats.bytes_total += summary.bytes;
        stats.dropped_invalid += summary.dropped;
        stats.sent_by[summary.node] = summary.messages;
        for (r, count) in summary.per_round.iter().enumerate() {
            if stats.per_round.len() <= r {
                stats.per_round.resize(r + 1, 0);
            }
            stats.per_round[r] += count;
        }
        totals.kd_messages += summary.kd_messages;
        totals.kd_bytes += summary.kd_bytes;
        totals.kd_anomalies += summary.kd_anomalies;
    }

    let report = FdRunReport {
        outcomes: ordered.iter().map(|s| s.outcome.clone()).collect(),
        stats,
        used_fallback: match protocol {
            Protocol::FdToBa => ordered.iter().map(|s| s.used_fallback).collect(),
            _ => Vec::new(),
        },
        grades: match protocol {
            Protocol::Degradable => ordered.iter().map(|s| s.grade).collect(),
            _ => Vec::new(),
        },
        delay_log: None,
        phases: None,
    };
    Ok((report, totals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::FlagError;
    use crate::spec::SpecBuilder;

    fn spawn_registry(wait_limit: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let registry = Registry::bind("127.0.0.1:0")
            .expect("bind registry")
            .with_wait_limit(wait_limit);
        let addr = registry.local_addr();
        let handle = std::thread::spawn(move || registry.serve());
        (addr, handle)
    }

    #[test]
    fn registry_roster_reaches_every_registrant() {
        let (addr, _handle) = spawn_registry(Duration::from_secs(10));
        let addr = addr.to_string();
        let n = 3;
        let mut joins = Vec::new();
        for node in 0..n {
            let addr = addr.clone();
            joins.push(std::thread::spawn(move || {
                registry_call(
                    &addr,
                    &RegistryRequest::Register {
                        run: "t0".to_string(),
                        node,
                        n,
                        addr: format!("127.0.0.1:{}", 7000 + node),
                        incarnation: 0,
                    },
                    Duration::from_secs(10),
                )
            }));
        }
        for join in joins {
            let reply = join.join().expect("register thread").expect("register ok");
            let RegistryReply::Roster { peers } = reply else {
                panic!("expected roster, got {reply:?}");
            };
            assert_eq!(peers.len(), n);
            assert_eq!(peers[1], (1, "127.0.0.1:7001".to_string()));
        }
    }

    #[test]
    fn registry_register_times_out_loudly_when_a_worker_is_missing() {
        let (addr, _handle) = spawn_registry(Duration::from_millis(300));
        let started = Instant::now();
        let err = registry_call(
            &addr.to_string(),
            &RegistryRequest::Register {
                run: "t1".to_string(),
                node: 0,
                n: 2,
                addr: "127.0.0.1:7000".to_string(),
                incarnation: 0,
            },
            Duration::from_secs(10),
        )
        .expect_err("register must fail, not hang");
        assert!(
            matches!(&err, RegistryError::Final(e) if e.contains("incomplete")),
            "unexpected error: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the 300 ms wait limit took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn multiprocess_phases_reproduce_the_sync_report() {
        // Worker threads standing in for worker processes: identical
        // code path (run_worker) minus the re-exec.
        let (registry, _handle) = spawn_registry(Duration::from_secs(30));
        let registry = registry.to_string();
        let n = 4;
        let builder = SpecBuilder::new(Protocol::ChainFd, n)
            .with_seed(11)
            .with_input(b"v".to_vec());
        let mut joins = Vec::new();
        for node in 0..n {
            let registry = registry.clone();
            let builder = builder.clone();
            joins.push(std::thread::spawn(move || {
                run_worker(
                    &WorkerConfig::localhost(
                        registry,
                        "t2".to_string(),
                        node,
                        Duration::from_secs(30),
                    ),
                    &builder,
                )
            }));
        }
        for join in joins {
            join.join().expect("worker thread").expect("worker ok");
        }
        let reply = registry_call(
            &registry,
            &RegistryRequest::Collect {
                run: "t2".to_string(),
            },
            Duration::from_secs(10),
        )
        .expect("collect ok");
        let RegistryReply::Summaries { workers } = reply else {
            panic!("expected summaries, got {reply:?}");
        };
        let (report, totals) =
            assemble_report(Protocol::ChainFd, n, &workers).expect("assemble ok");

        let (cluster, spec) = builder.build().expect("build spec");
        let reference = cluster.run(&spec);
        assert_eq!(report.to_json(), reference.to_json());
        let kd = cluster.setup_keydist();
        assert_eq!(totals.kd_messages, kd.stats.messages_total);
        assert_eq!(totals.kd_bytes, kd.stats.bytes_total);
        assert_eq!(totals.kd_rounds, kd.stats.rounds);
    }

    #[test]
    fn stale_incarnations_are_fenced_and_newer_ones_reset_the_run() {
        let (addr, _handle) = spawn_registry(Duration::from_secs(10));
        let addr = addr.to_string();
        let register = |incarnation: u64, node: usize| {
            registry_call(
                &addr,
                &RegistryRequest::Register {
                    run: "fence".to_string(),
                    node,
                    n: 1,
                    addr: format!("127.0.0.1:{}", 7100 + node),
                    incarnation,
                },
                Duration::from_secs(10),
            )
        };
        // Generation 2 opens the run (n = 1, so registering completes).
        register(2, 0).expect("incarnation 2 admitted");
        // A stale incarnation is refused with a typed fencing error.
        let err = register(1, 0).expect_err("incarnation 1 must be fenced");
        assert!(
            matches!(&err, RegistryError::Final(e) if e.contains("fenced")),
            "unexpected error: {err}"
        );
        // A newer incarnation resets the roster: node 0 can re-register
        // at a different address without a clash.
        registry_call(
            &addr,
            &RegistryRequest::Register {
                run: "fence".to_string(),
                node: 0,
                n: 1,
                addr: "127.0.0.1:7999".to_string(),
                incarnation: 3,
            },
            Duration::from_secs(10),
        )
        .expect("incarnation 3 resets the roster");
        // And the stale incarnation's teardown is fenced too.
        let err = registry_call(
            &addr,
            &RegistryRequest::Teardown {
                run: "fence".to_string(),
                node: 0,
                summary: summary(2),
                incarnation: 2,
            },
            Duration::from_secs(10),
        )
        .expect_err("stale teardown must be fenced");
        assert!(
            matches!(&err, RegistryError::Final(e) if e.contains("fenced")),
            "unexpected error: {err}"
        );
    }

    /// A summary with zero counters and 4 retries, from `incarnation`.
    fn summary(incarnation: u64) -> WorkerSummary {
        WorkerSummary {
            node: 0,
            outcome: None,
            used_fallback: false,
            grade: None,
            rounds: 1,
            messages: 0,
            bytes: 0,
            per_round: vec![0],
            dropped: 0,
            kd_rounds: 0,
            kd_messages: 0,
            kd_bytes: 0,
            kd_per_round: Vec::new(),
            kd_anomalies: 0,
            incarnation,
            retries: 4,
        }
    }

    #[test]
    fn teardown_is_idempotent_per_incarnation() {
        let (addr, _handle) = spawn_registry(Duration::from_secs(10));
        let addr = addr.to_string();
        let summary = summary(1);
        let deposit = || {
            registry_call(
                &addr,
                &RegistryRequest::Teardown {
                    run: "dup".to_string(),
                    node: 0,
                    summary: summary.clone(),
                    incarnation: 1,
                },
                Duration::from_secs(10),
            )
        };
        // A retried deposit (lost ack) lands in the same state.
        deposit().expect("first deposit");
        deposit().expect("retried deposit is idempotent");
        let reply = registry_call(
            &addr,
            &RegistryRequest::Collect {
                run: "dup".to_string(),
            },
            Duration::from_secs(10),
        )
        .expect("collect");
        let RegistryReply::Summaries { workers } = reply else {
            panic!("expected summaries, got {reply:?}");
        };
        assert_eq!(workers, vec![summary]);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn the_worker_argv_round_trips() {
        let cluster = ClusterConfig {
            io_deadline: Duration::from_secs(7),
            round_wall: Duration::from_micros(2_500),
            chaos: Some(ChaosSpec::parse("seed=5;kill=1@round:1xinf;connect=10").expect("spec")),
            bind: "0.0.0.0".to_string(),
            ..ClusterConfig::default()
        };
        let cfg = cluster.worker("127.0.0.1:4700".to_string(), "run-a".to_string(), 2, 3);
        let builder = SpecBuilder::new(Protocol::ChainFd, 4).with_input(b"say \"hi\"".to_vec());
        let request = crate::wire::request_to_json(&builder, Some("id \"q\"")).expect("request");
        assert!(
            request.contains("\\\""),
            "the request carries escaped quotes: {request}"
        );
        let args = cfg.to_args(&request);
        assert!(args.ends_with(&argv(&["--chaos", "seed=5;kill=1@round:1xinf;connect=10"])));
        assert_eq!(WorkerConfig::from_args(&args), Ok((cfg, request)));
    }

    #[test]
    fn worker_flags_left_out_take_the_cluster_defaults() {
        let args = argv(&[
            "--registry",
            "r:1",
            "--run",
            "x",
            "--node",
            "1",
            "--request",
            "{}",
        ]);
        let local = WorkerConfig::localhost("r:1".into(), "x".into(), 1, Duration::from_secs(60));
        assert_eq!(
            WorkerConfig::from_args(&args),
            Ok((local, "{}".to_string()))
        );
    }

    #[test]
    fn bad_worker_argv_yields_typed_errors() {
        let parse = |args: &[&str]| WorkerConfig::from_args(&argv(args)).expect_err("refused");
        let missing = parse(&["--registry", "r:1", "--run", "x", "--node", "1"]);
        assert_eq!(
            missing.to_string(),
            "cluster-worker needs --registry, --run, --node, and --request"
        );
        assert!(matches!(missing, FlagError::Missing("cluster-worker", _)));
        assert_eq!(
            parse(&["--frob", "1"]),
            FlagError::Unknown("cluster-worker", "--frob".to_string())
        );
        assert_eq!(parse(&["--run"]), FlagError::NoValue("--run".to_string()));
        let FlagError::BadValue(flag, message) = parse(&["--node", "two"]) else {
            panic!("a non-numeric --node is a bad value");
        };
        assert_eq!(
            (flag.as_str(), message.as_str()),
            ("--node", "--node: invalid digit found in string")
        );
        for secs in ["0", "86401"] {
            assert_eq!(
                parse(&["--io-deadline-secs", secs]),
                FlagError::BadValue(
                    "--io-deadline-secs".to_string(),
                    format!("--io-deadline-secs {secs}: must be between 1 and 86400 seconds")
                )
            );
        }
    }

    /// A generation of `sh -c SCRIPT` children, node `i` running
    /// `scripts[i]`.
    fn sh_generation(scripts: &[&str]) -> Generation {
        Generation::spawn(scripts.iter().enumerate().map(|(node, script)| {
            let mut cmd = Command::new("sh");
            cmd.args(["-c", script]);
            (node, cmd)
        }))
        .expect("spawn sh children")
    }

    fn kinds(mut exits: Vec<GenExit>) -> Vec<ExitKind> {
        exits.sort_by_key(|exit| exit.node);
        exits.into_iter().map(|exit| exit.kind).collect()
    }

    #[test]
    fn a_generation_is_reaped_when_its_workers_exit_not_on_the_next_sweep() {
        let mut walls: Vec<Duration> = (0..5)
            .map(|_| {
                let generation = sh_generation(&["exit 0"; 8]);
                let started = Instant::now();
                let exits = generation
                    .wait(Duration::from_secs(10), &mut Vec::new())
                    .expect("clean generation");
                let took = started.elapsed();
                assert_eq!(kinds(exits), [ExitKind::Ok; 8]);
                took
            })
            .collect();
        walls.sort();
        // A sweep-only supervisor finds freshly spawned children still
        // running and sleeps one whole 20 ms sweep before it looks again.
        assert!(
            walls[2] < Duration::from_millis(10),
            "median reap of 8 exiting children took {:?} ({walls:?})",
            walls[2]
        );
    }

    #[test]
    fn exits_classify_by_code_and_signal() {
        use ExitKind::{Bug, Collateral, Crash, Ok};
        // One worker per generation: the sweep reaps each exit, while a
        // sibling still running beside a failure would be stopped.
        for (script, kind) in [
            ("exit 0", Ok),
            ("exit 45", Collateral),
            ("exit 46", Crash),
            ("exit 1", Bug),
            ("exit 101", Bug),
            ("kill -9 $$", Crash),
        ] {
            let exits = sh_generation(&[script])
                .wait(Duration::from_secs(10), &mut Vec::new())
                .expect("the child exits");
            assert_eq!(kinds(exits), [kind], "{script}");
        }
    }

    #[test]
    fn the_first_failed_worker_ends_its_generation_at_once() {
        use ExitKind::{Collateral, Crash, Excluded};
        for (culprit, kind) in [("exit 46", Crash), ("exit 45", Collateral)] {
            let generation = sh_generation(&[culprit, "exec sleep 30"]);
            let started = Instant::now();
            let exits = generation
                .wait(Duration::from_secs(60), &mut Vec::new())
                .expect("the failure ends the generation, not the guard");
            let took = started.elapsed();
            assert_eq!(kinds(exits), [kind, Excluded], "{culprit}");
            assert!(
                took < Duration::from_secs(1),
                "{culprit}: straggler stopped after {took:?}"
            );
        }
    }

    #[test]
    fn a_stopped_worker_that_exited_on_its_own_keeps_its_code() {
        use std::os::unix::process::ExitStatusExt;
        let of = |raw: i32, stopped: bool| GenExit::of(3, Ok(ExitStatus::from_raw(raw)), stopped);
        // A crash that raced the stop is still charged to its slot.
        assert_eq!(of(46 << 8, true).kind, ExitKind::Crash);
        assert_eq!(of(45 << 8, true).kind, ExitKind::Collateral);
        // SIGKILL is the stop itself; reaped by a sweep it is a crash.
        assert_eq!(of(9, true).kind, ExitKind::Excluded);
        assert_eq!(of(9, false).kind, ExitKind::Crash);
    }

    #[test]
    fn worker_stdout_bytes_are_forwarded() {
        let generation = sh_generation(&["echo from-0", "echo from-1"]);
        let mut out = Vec::new();
        let exits = generation
            .wait(Duration::from_secs(10), &mut out)
            .expect("clean generation");
        assert_eq!(kinds(exits), [ExitKind::Ok; 2]);
        let mut lines: Vec<&str> = std::str::from_utf8(&out).expect("utf-8").lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, ["from-0", "from-1"]);
    }
}
