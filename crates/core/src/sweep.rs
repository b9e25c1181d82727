//! Parallel scenario sweeps over `{engine × latency × protocol × n × t ×
//! adversary × scheme × seed}`.
//!
//! A [`SweepMatrix`] declares the axes; [`SweepMatrix::scenarios`] expands
//! them into the cartesian product, dropping combinations that violate a
//! protocol's admissibility bound (`t + 2 ≤ n`, `n > 3t` for the agreement
//! extensions, `n > 4t` for Phase King), pair an adversary with a
//! protocol it cannot speak, or pair the synchronous engine with a latency
//! model it cannot express. [`run_sweep`] fans the scenarios out across a
//! thread pool — every [`crate::runner::Cluster`] run is deterministic and
//! independent, so the sweep is embarrassingly parallel and its report is
//! byte-identical regardless of thread count.
//!
//! Each scenario's measured message count is checked against the paper's
//! closed-form expressions in [`crate::metrics`], and its outcomes are
//! classified so that the one state the paper forbids — two correct nodes
//! deciding different values with nobody discovering a failure — is
//! surfaced as [`SweepOutcome::SilentDisagreement`] and fails the row.
//!
//! Two latency-related rules apply on top:
//!
//! * **Cross-validation.** An event-engine scenario under
//!   [`LatencySpec::Synchronous`] is also executed on the synchronous
//!   engine, and the row fails unless message counts, bytes, and per-node
//!   outcomes match exactly ([`ScenarioRow::cross_ok`]).
//! * **Relaxed formulas under timing faults.** Under non-synchronous
//!   latency the closed forms no longer apply (late messages are
//!   *discovered* as timing failures); such rows only demand the safety
//!   property — no silent disagreement.
//!
//! ```
//! use fd_core::sweep::{run_sweep, SweepMatrix};
//!
//! let matrix = SweepMatrix::quick();
//! let report = run_sweep(&matrix, 2);
//! assert!(report.all_ok());
//! assert!(report.rows.len() >= 8);
//! ```

use crate::adversary::AdversarySpec;
use crate::metrics;
use crate::pool;
use crate::runner::{Cluster, FdRunReport};
use crate::schedsearch::{self, Score, SearchConfig, Strategy};
use crate::spec::{RunSpec, Session};
use fd_crypto::{DsaScheme, SchnorrScheme, SignatureScheme};
use fd_simnet::{Engine, LatencySpec, LinkLatencySpec};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

// The sweep's protocol and adversary axes migrated into the unified
// execution API ([`crate::spec`] / [`crate::adversary`]); re-exported
// here so matrix declarations (and old imports) keep reading naturally.
pub use crate::adversary::AdversaryKind;
pub use crate::spec::Protocol;

/// Signature-scheme selector (sweeps measure message counts, which are
/// crypto-independent, so the tiny test groups are the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchemeSpec {
    /// Schnorr over the tiny test group (fast; the default).
    Tiny,
    /// DSA over the tiny test group.
    DsaTiny,
    /// Schnorr over a 512-bit group (slow; for wire-size sweeps).
    S512,
}

impl SchemeSpec {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeSpec::Tiny => "tiny",
            SchemeSpec::DsaTiny => "dsa-tiny",
            SchemeSpec::S512 => "s512",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Result<SchemeSpec, String> {
        Ok(match name {
            "tiny" | "schnorr-tiny" => SchemeSpec::Tiny,
            "dsa-tiny" | "dsa" => SchemeSpec::DsaTiny,
            "s512" => SchemeSpec::S512,
            other => return Err(format!("unknown scheme {other} (tiny|dsa-tiny|s512)")),
        })
    }

    /// Instantiate the scheme.
    pub fn build(self) -> Arc<dyn SignatureScheme> {
        match self {
            SchemeSpec::Tiny => Arc::new(SchnorrScheme::test_tiny()),
            SchemeSpec::DsaTiny => Arc::new(DsaScheme::test_tiny()),
            SchemeSpec::S512 => Arc::new(SchnorrScheme::s512()),
        }
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Rule deriving the fault budgets swept for each system size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRule {
    /// The classic `t = ⌊(n−1)/3⌋` (clamped to `n − 2`).
    Classic,
    /// An explicit list of budgets; inadmissible `(n, t)` pairs are
    /// dropped per protocol.
    Explicit(Vec<usize>),
}

impl FaultRule {
    /// The budgets to try for a system of size `n`.
    pub fn budgets(&self, n: usize) -> Vec<usize> {
        match self {
            FaultRule::Classic => vec![(n.saturating_sub(1) / 3).min(n.saturating_sub(2))],
            FaultRule::Explicit(list) => list.clone(),
        }
    }
}

/// The adversarial-scheduler axis of a sweep: every event-engine row
/// whose latency envelope leaves schedule freedom (and that carries no
/// per-link override) additionally runs a bounded schedule search and
/// records the worst schedule found (see [`crate::schedsearch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchAxis {
    /// Protocol executions each row's search may spend.
    pub budget: usize,
    /// Search strategy.
    pub strategy: Strategy,
}

/// The axes of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepMatrix {
    /// Protocols to run.
    pub protocols: Vec<Protocol>,
    /// System sizes.
    pub sizes: Vec<usize>,
    /// Fault-budget rule.
    pub fault_rule: FaultRule,
    /// Adversaries to inject.
    pub adversaries: Vec<AdversaryKind>,
    /// Signature schemes.
    pub schemes: Vec<SchemeSpec>,
    /// RNG seeds (each seed derives fresh key material and a fresh value).
    pub seeds: Vec<u64>,
    /// Execution engines.
    pub engines: Vec<Engine>,
    /// Latency models (event engine only; the synchronous engine is
    /// paired exclusively with [`LatencySpec::Synchronous`]).
    pub latencies: Vec<LatencySpec>,
    /// Per-link latency overrides applied to every event-engine row
    /// (default: none). Rows with overrides are treated like
    /// timing-faulted rows: no closed-form expectation, no
    /// cross-validation, but silent disagreement still fails them.
    pub link_latency: Vec<LinkLatencySpec>,
    /// Optional adversarial scheduler search (default: off). Attaches to
    /// event-engine rows whose latency has schedule freedom
    /// ([`LatencySpec::has_schedule_freedom`]); rows under degenerate
    /// latency or with per-link overrides skip it.
    pub search: Option<SearchAxis>,
}

impl SweepMatrix {
    /// The default matrix behind `lafd sweep`: five protocols, three
    /// sizes, honest and silent-relay runs, two seeds — 60 scenarios.
    pub fn default_matrix() -> Self {
        SweepMatrix {
            protocols: vec![
                Protocol::ChainFd,
                Protocol::NonAuthFd,
                Protocol::FdToBa,
                Protocol::Degradable,
                Protocol::DolevStrong,
            ],
            sizes: vec![4, 7, 10],
            fault_rule: FaultRule::Classic,
            adversaries: vec![AdversaryKind::None, AdversaryKind::SilentRelay],
            schemes: vec![SchemeSpec::Tiny],
            seeds: vec![1, 2],
            engines: vec![Engine::Sync],
            latencies: vec![LatencySpec::Synchronous],
            link_latency: Vec::new(),
            search: None,
        }
    }

    /// A small failure-free matrix for tests and doctests (8 scenarios).
    pub fn quick() -> Self {
        SweepMatrix {
            protocols: vec![Protocol::ChainFd, Protocol::NonAuthFd],
            sizes: vec![4, 6],
            fault_rule: FaultRule::Classic,
            adversaries: vec![AdversaryKind::None],
            schemes: vec![SchemeSpec::Tiny],
            seeds: vec![1, 2],
            engines: vec![Engine::Sync],
            latencies: vec![LatencySpec::Synchronous],
            link_latency: Vec::new(),
            search: None,
        }
    }

    /// The cross-validation matrix: the default protocols on the event
    /// engine under synchronous latency, so every row re-runs on the
    /// synchronous engine and must match byte-for-byte
    /// ([`ScenarioRow::cross_ok`]).
    pub fn cross_validation() -> Self {
        SweepMatrix {
            engines: vec![Engine::Event],
            sizes: vec![4, 7],
            ..SweepMatrix::default_matrix()
        }
    }

    /// The timing-fault matrix: jitter, partial synchrony, and a uniform
    /// two-round delay on the event engine (48 scenarios). Late messages
    /// surface as discovered timing failures; the rows assert that none of
    /// them ever becomes silent disagreement.
    pub fn latency_matrix() -> Self {
        SweepMatrix {
            protocols: vec![
                Protocol::ChainFd,
                Protocol::NonAuthFd,
                Protocol::FdToBa,
                Protocol::DolevStrong,
            ],
            sizes: vec![4, 7],
            fault_rule: FaultRule::Classic,
            adversaries: vec![AdversaryKind::None],
            schemes: vec![SchemeSpec::Tiny],
            seeds: vec![1, 2],
            engines: vec![Engine::Event],
            latencies: vec![
                LatencySpec::Jitter { extra: 1 },
                LatencySpec::PartialSynchrony { gst: 2, extra: 1 },
                LatencySpec::Fixed { rounds: 2 },
            ],
            link_latency: Vec::new(),
            search: None,
        }
    }

    /// Expand the axes into concrete scenarios, skipping inadmissible
    /// `(protocol, n, t)` shapes, `(protocol, adversary)` pairs, and
    /// `(engine, latency)` pairs. The order is the deterministic
    /// nested-loop order of the axes.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        // Normalization can collapse distinct specs (e.g. `sync` and
        // `fixed:1`) onto the same pair; emit each pair once.
        let mut seen_pairs = BTreeSet::new();
        for &engine in &self.engines {
            for &latency in &self.latencies {
                // Specs equivalent to synchrony keep the strict checks.
                let latency = latency.normalize();
                // The synchronous engine has no notion of latency.
                if engine == Engine::Sync && latency != LatencySpec::Synchronous {
                    continue;
                }
                if !seen_pairs.insert((engine, latency)) {
                    continue;
                }
                for &protocol in &self.protocols {
                    for &n in &self.sizes {
                        for t in self.fault_rule.budgets(n) {
                            if !protocol.admissible(n, t) {
                                continue;
                            }
                            for &adversary in &self.adversaries {
                                if !adversary.applies_to(protocol) {
                                    continue;
                                }
                                // Injected adversaries replace relay P_1, which
                                // only participates meaningfully when t >= 1.
                                if adversary != AdversaryKind::None && t == 0 {
                                    continue;
                                }
                                for &scheme in &self.schemes {
                                    for &seed in &self.seeds {
                                        out.push(Scenario {
                                            protocol,
                                            n,
                                            t,
                                            adversary,
                                            scheme,
                                            seed,
                                            engine,
                                            latency,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One fully specified run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Protocol under test.
    pub protocol: Protocol,
    /// System size.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// Injected behaviour.
    pub adversary: AdversaryKind,
    /// Signature scheme.
    pub scheme: SchemeSpec,
    /// Determinism seed.
    pub seed: u64,
    /// Execution engine.
    pub engine: Engine,
    /// Latency model (event engine only).
    pub latency: LatencySpec,
}

impl Scenario {
    /// The value the sender proposes in this scenario (derived from the
    /// seed so different seeds exercise different payloads).
    pub fn value(&self) -> Vec<u8> {
        format!("sweep-value-{}", self.seed).into_bytes()
    }

    /// Whether the paper's failure-free expectations (closed-form message
    /// count, everyone decides the sender's value) apply: no adversary and
    /// no timing faults.
    pub fn strict(&self) -> bool {
        self.adversary == AdversaryKind::None && self.latency == LatencySpec::Synchronous
    }

    /// The [`RunSpec`] this scenario executes: the seeded value, the
    /// sweep's fixed default value, and the scripted adversary at the
    /// first chain relay.
    pub fn spec(&self) -> RunSpec {
        RunSpec::new(self.protocol, self.value())
            .with_default_value(b"sweep-default".to_vec())
            .with_adversary(AdversarySpec::scripted(self.adversary))
    }

    /// The cluster this scenario executes on (before the engine choice of
    /// a cross-validation twin is applied).
    pub fn cluster(&self) -> Cluster {
        Cluster::new(self.n, self.t, self.scheme.build(), self.seed)
            .with_engine(self.engine)
            .with_latency(self.latency)
    }
}

/// Classification of a run's correct-node outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepOutcome {
    /// Every correct node decided the same value.
    AllDecided,
    /// At least one correct node discovered a failure.
    Discovered,
    /// Some nodes are still pending, but no two decided differently.
    Incomplete,
    /// Two correct nodes decided different values and nobody discovered —
    /// the state the paper's F-properties forbid. Always a failure.
    SilentDisagreement,
}

impl SweepOutcome {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SweepOutcome::AllDecided => "all_decided",
            SweepOutcome::Discovered => "discovered",
            SweepOutcome::Incomplete => "incomplete",
            SweepOutcome::SilentDisagreement => "silent_disagreement",
        }
    }
}

impl fmt::Display for SweepOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of the adversarial scheduler search attached to one row by
/// [`SweepMatrix::search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchRowSummary {
    /// The strategy the row's search used.
    pub strategy: Strategy,
    /// Episodes executed.
    pub episodes: usize,
    /// The worst (highest-scoring) schedule found.
    pub best: Score,
    /// Whether the best schedule's certificate replayed exactly.
    pub replay_ok: bool,
}

/// Measurements and checks from one executed scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioRow {
    /// The scenario that produced this row.
    pub scenario: Scenario,
    /// Key-distribution messages, for protocols that ran one.
    pub keydist_messages: Option<usize>,
    /// Whether the key distribution matched `3n(n−1)` (vacuously true
    /// when no key distribution ran).
    pub keydist_ok: bool,
    /// Messages of the protocol run itself.
    pub messages: usize,
    /// Wire bytes of the protocol run.
    pub bytes: usize,
    /// Rounds in which at least one message was sent.
    pub comm_rounds: usize,
    /// The closed-form expectation (failure-free scenarios only).
    pub expected_messages: Option<usize>,
    /// Outcome classification over the correct nodes.
    pub outcome: SweepOutcome,
    /// Whether the decided value matched the sender's input (failure-free
    /// scenarios only; vacuously true otherwise).
    pub value_ok: bool,
    /// Whether the synchronous-engine twin run matched exactly (event
    /// engine under synchronous latency only; vacuously true otherwise).
    pub cross_ok: bool,
    /// The row's adversarial scheduler search, when the matrix carried a
    /// [`SearchAxis`] and the row ran on the event engine.
    pub search: Option<SearchRowSummary>,
}

impl ScenarioRow {
    /// Whether the failure-free closed-form expectations applied to this
    /// row — an adversary, a non-synchronous latency, or a per-link
    /// override each waives them.
    fn strict(&self) -> bool {
        self.expected_messages.is_some()
    }

    /// Whether the row upholds every check that applies to it:
    /// failure-free synchronous rows must decide the sender's value at
    /// exactly the closed-form message count; adversarial or timing-faulted
    /// rows must never exhibit silent disagreement; event-engine rows under
    /// synchronous latency must match their synchronous-engine twin; a
    /// schedule search must never find silent disagreement and its best
    /// certificate must replay (loud findings are recorded, not failures).
    pub fn ok(&self) -> bool {
        let formula_ok = self
            .expected_messages
            .is_none_or(|expected| expected == self.messages);
        let outcome_ok = if self.strict() {
            self.outcome == SweepOutcome::AllDecided
        } else {
            self.outcome != SweepOutcome::SilentDisagreement
        };
        let search_ok = self
            .search
            .as_ref()
            .is_none_or(|s| !s.best.silent_disagreement && s.replay_ok);
        formula_ok && outcome_ok && self.keydist_ok && self.value_ok && self.cross_ok && search_ok
    }
}

/// Aggregated results of a sweep, in scenario order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// One row per scenario.
    pub rows: Vec<ScenarioRow>,
    /// The matrix-wide per-link latency overrides the rows ran under
    /// (empty for plain sweeps). Recorded so an archived report remains
    /// self-describing: link overrides waive the closed-form and
    /// cross-validation checks, which is otherwise invisible per row.
    pub link_latency: Vec<LinkLatencySpec>,
}

impl SweepReport {
    /// Whether every row passed its checks.
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(ScenarioRow::ok)
    }

    /// The rows that failed their checks.
    pub fn failures(&self) -> Vec<&ScenarioRow> {
        self.rows.iter().filter(|r| !r.ok()).collect()
    }

    /// Total messages across all runs (including key distributions).
    pub fn messages_total(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.messages + r.keydist_messages.unwrap_or(0))
            .sum()
    }

    /// Serialize as deterministic JSON (stable field order, no floats, no
    /// timestamps): rerunning the same matrix yields identical bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"link_latency\": [");
        for (i, link) in self.link_latency.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('"');
            s.push_str(&link.name());
            s.push('"');
        }
        s.push_str("],\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sc = &row.scenario;
            s.push_str("    {");
            push_json_str(&mut s, "protocol", sc.protocol.name());
            s.push_str(&format!(", \"n\": {}, \"t\": {}, ", sc.n, sc.t));
            push_json_str(&mut s, "adversary", sc.adversary.name());
            s.push_str(", ");
            push_json_str(&mut s, "scheme", sc.scheme.name());
            s.push_str(&format!(", \"seed\": {}, ", sc.seed));
            push_json_str(&mut s, "engine", sc.engine.name());
            s.push_str(", ");
            push_json_str(&mut s, "latency", &sc.latency.name());
            match row.keydist_messages {
                Some(m) => s.push_str(&format!(", \"keydist_messages\": {m}")),
                None => s.push_str(", \"keydist_messages\": null"),
            }
            s.push_str(&format!(
                ", \"messages\": {}, \"bytes\": {}, \"comm_rounds\": {}",
                row.messages, row.bytes, row.comm_rounds
            ));
            match row.expected_messages {
                Some(m) => s.push_str(&format!(", \"expected_messages\": {m}")),
                None => s.push_str(", \"expected_messages\": null"),
            }
            s.push_str(", ");
            push_json_str(&mut s, "outcome", row.outcome.name());
            s.push_str(&format!(", \"cross_ok\": {}", row.cross_ok));
            match &row.search {
                Some(sr) => s.push_str(&format!(
                    ", \"search\": {{\"strategy\": \"{}\", \"episodes\": {}, \
                     \"best\": \"{}\", \"replay_ok\": {}}}",
                    sr.strategy, sr.episodes, sr.best, sr.replay_ok
                )),
                None => s.push_str(", \"search\": null"),
            }
            s.push_str(&format!(", \"ok\": {}}}", row.ok()));
            if i + 1 < self.rows.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"summary\": {{\"scenarios\": {}, \"ok\": {}, \"failed\": {}, \"messages_total\": {}}}\n",
            self.rows.len(),
            self.rows.iter().filter(|r| r.ok()).count(),
            self.failures().len(),
            self.messages_total()
        ));
        s.push_str("}\n");
        s
    }

    /// Render as a markdown table plus a summary line (deterministic).
    pub fn to_markdown(&self) -> String {
        let mut s = String::from("# lafd sweep report\n\n");
        if !self.link_latency.is_empty() {
            let links: Vec<String> = self
                .link_latency
                .iter()
                .map(LinkLatencySpec::name)
                .collect();
            s.push_str(&format!(
                "Per-link latency overrides: `{}` (closed-form and \
                 cross-validation checks waived on event rows).\n\n",
                links.join("`, `")
            ));
        }
        s.push_str(
            "| protocol | n | t | adversary | scheme | seed | engine | latency | keydist | msgs | formula | bytes | rounds | outcome | search | ok |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
        for row in &self.rows {
            let sc = &row.scenario;
            let keydist = row
                .keydist_messages
                .map_or_else(|| "—".to_string(), |m| m.to_string());
            let formula = row
                .expected_messages
                .map_or_else(|| "—".to_string(), |m| m.to_string());
            let search = row.search.as_ref().map_or_else(
                || "—".to_string(),
                |sr| format!("{}:{}", sr.strategy, sr.best),
            );
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                sc.protocol,
                sc.n,
                sc.t,
                sc.adversary,
                sc.scheme,
                sc.seed,
                sc.engine,
                sc.latency,
                keydist,
                row.messages,
                formula,
                row.bytes,
                row.comm_rounds,
                row.outcome,
                search,
                if row.ok() { "yes" } else { "NO" },
            ));
        }
        s.push_str(&format!(
            "\n{} scenarios, {} ok, {} failed, {} total messages.\n",
            self.rows.len(),
            self.rows.iter().filter(|r| r.ok()).count(),
            self.failures().len(),
            self.messages_total()
        ));
        s
    }
}

fn push_json_str(s: &mut String, key: &str, value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\": \"");
    for c in value.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Where a sweep's scenario runs actually execute.
///
/// The sweep logic — matrix expansion, closed-form expectations,
/// cross-validation, outcome classification — is independent of *where* a
/// run happens. This seam carries exactly the part that moves: produce
/// the keydist message count and the [`FdRunReport`] for one scenario on
/// one engine. [`LocalExecutor`] runs in-process; `lafd sweep --remote`
/// implements the same trait over the `lafd serve` wire protocol, and the
/// report bytes are identical either way (the service integration tests
/// assert this).
///
/// The scheduler-search axis always runs locally — it is a tight
/// schedule-mutation loop around one scenario, not a batch of independent
/// runs, so shipping it over the wire would serialize the search.
pub trait ScenarioExecutor: Sync {
    /// Execute `scenario` on `engine` (the cross-validation twin passes
    /// [`Engine::Sync`] here regardless of `scenario.engine`) with the
    /// matrix-wide per-link overrides, returning the keydist message
    /// count (for protocols that ran one) and the run report.
    fn execute(
        &self,
        scenario: &Scenario,
        engine: Engine,
        link_latency: &[LinkLatencySpec],
    ) -> Result<(Option<usize>, FdRunReport), String>;
}

/// The in-process executor: a fresh [`Session`] per scenario. Per-link
/// latency overrides only apply on the event engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalExecutor;

impl ScenarioExecutor for LocalExecutor {
    fn execute(
        &self,
        scenario: &Scenario,
        engine: Engine,
        link_latency: &[LinkLatencySpec],
    ) -> Result<(Option<usize>, FdRunReport), String> {
        let cluster = Cluster::new(
            scenario.n,
            scenario.t,
            scenario.scheme.build(),
            scenario.seed,
        )
        .with_engine(engine)
        .with_latency(scenario.latency)
        .with_link_latency(if engine == Engine::Event {
            link_latency.to_vec()
        } else {
            Vec::new()
        });
        let mut session = Session::new(cluster);
        let run = session.run(&scenario.spec());
        Ok((session.keydist_messages(), run))
    }
}

/// Execute one scenario with the default extras (no per-link overrides,
/// no schedule search) — see [`run_scenario_with`].
pub fn run_scenario(scenario: &Scenario) -> ScenarioRow {
    run_scenario_with(scenario, &[], None)
}

/// Execute one scenario with the matrix-wide extras: per-link latency
/// overrides and the optional scheduler-search axis.
///
/// Rows with per-link overrides are treated like timing-faulted rows —
/// the closed-form expectations and the synchronous-engine
/// cross-validation are waived, and [`classify`] runs with
/// `network_faulted = true` — but silent disagreement still fails them.
pub fn run_scenario_with(
    scenario: &Scenario,
    link_latency: &[LinkLatencySpec],
    search: Option<SearchAxis>,
) -> ScenarioRow {
    run_scenario_with_executor(scenario, link_latency, search, &LocalExecutor)
        .expect("the local executor is infallible")
}

/// [`run_scenario_with`] through an explicit [`ScenarioExecutor`] — the
/// entry point remote sweeps use. Errors surface the executor's failure
/// (a lost connection, a service-side rejection); the local executor
/// never errors.
pub fn run_scenario_with_executor(
    scenario: &Scenario,
    link_latency: &[LinkLatencySpec],
    search: Option<SearchAxis>,
    executor: &dyn ScenarioExecutor,
) -> Result<ScenarioRow, String> {
    let has_links = !link_latency.is_empty() && scenario.engine == Engine::Event;
    let (keydist_messages, run) = executor.execute(scenario, scenario.engine, link_latency)?;
    let keydist_ok = keydist_messages.is_none_or(|m| m == metrics::keydist_messages(scenario.n));

    // Cross-validation: the event engine under synchronous latency must
    // reproduce the synchronous engine exactly — message counts, bytes,
    // and every node's outcome. Per-link overrides change delivery times,
    // so they waive the comparison.
    let cross_ok = if scenario.engine == Engine::Event
        && scenario.latency == LatencySpec::Synchronous
        && !has_links
    {
        let (twin_keydist, twin) = executor.execute(scenario, Engine::Sync, &[])?;
        twin_keydist == keydist_messages && twin.stats == run.stats && twin.outcomes == run.outcomes
    } else {
        true
    };

    let outcome = classify(
        &run,
        scenario.latency != LatencySpec::Synchronous || has_links,
    );
    let strict = scenario.strict() && !has_links;
    let expected_messages =
        strict.then(|| scenario.protocol.expected_messages(scenario.n, scenario.t));
    let value_ok = !strict || run.all_decided(&scenario.value());

    // The scheduler-search axis: hunt for the worst admissible schedule
    // of this row's scenario. The search only applies where it can learn
    // anything: event-engine rows whose latency envelope leaves schedule
    // freedom (`sync`/`fixed:D` rows would replay the baseline `budget`
    // times), and rows without per-link overrides (the search explores
    // the base spec's envelope, which a per-link override changes — a
    // summary of the linkless scenario would misdescribe the row).
    let search = search
        .filter(|_| {
            scenario.engine == Engine::Event
                && scenario.latency.has_schedule_freedom()
                && !has_links
        })
        .map(|axis| {
            let config = SearchConfig {
                scheme: scenario.scheme,
                latency: scenario.latency,
                adversary: scenario.adversary,
                strategy: axis.strategy,
                budget: axis.budget.max(1),
                ..SearchConfig::new(scenario.protocol, scenario.n, scenario.t, scenario.seed)
            };
            let report = schedsearch::run_search(&config)
                .expect("admissible scenario yields a valid search config");
            SearchRowSummary {
                strategy: axis.strategy,
                episodes: report.episodes.len(),
                best: report.best_score,
                replay_ok: report.replay_ok,
            }
        });

    Ok(ScenarioRow {
        scenario: *scenario,
        keydist_messages,
        keydist_ok,
        messages: run.stats.messages_total,
        bytes: run.stats.bytes_total,
        comm_rounds: run.stats.per_round.iter().filter(|&&x| x > 0).count(),
        expected_messages,
        outcome,
        value_ok,
        cross_ok,
        search,
    })
}

/// Classify the correct-node outcomes of a run.
///
/// `network_faulted` says whether the run violated the network model N1
/// itself (non-synchronous latency or injected link faults). In that case
/// — and only then — engaging the FD→BA fallback counts as discovery
/// evidence: the fallback fires after a node's provisional FD outcome was
/// a discovery (which the final BA decision then deliberately erases), and
/// the alarm phase's all-or-none guarantee is proved *under* N1, so a
/// broken network can legitimately split the fallback decision — loudly,
/// not silently. Under an intact network (`network_faulted = false`,
/// byzantine nodes only) the paper guarantees agreement, and a fallback
/// split remains classified as [`SweepOutcome::SilentDisagreement`].
pub fn classify(run: &FdRunReport, network_faulted: bool) -> SweepOutcome {
    let outs = run.correct_outcomes();
    let any_discovery = outs.iter().any(crate::Outcome::is_discovered)
        || (network_faulted && run.used_fallback.iter().any(|&f| f));
    let decided: BTreeSet<Vec<u8>> = outs
        .iter()
        .filter_map(|o| o.decided().map(<[u8]>::to_vec))
        .collect();
    if decided.len() > 1 && !any_discovery {
        return SweepOutcome::SilentDisagreement;
    }
    if any_discovery {
        return SweepOutcome::Discovered;
    }
    if !outs.is_empty() && outs.iter().all(|o| o.decided().is_some()) {
        return SweepOutcome::AllDecided;
    }
    SweepOutcome::Incomplete
}

/// Run every scenario of the matrix across `threads` worker threads and
/// collect the rows in scenario order.
///
/// Each scenario is deterministic and self-contained, so the report is
/// identical for any thread count (see the determinism tests).
pub fn run_sweep(matrix: &SweepMatrix, threads: usize) -> SweepReport {
    run_sweep_with(matrix, threads, &LocalExecutor).expect("the local executor is infallible")
}

/// [`run_sweep`] through an explicit [`ScenarioExecutor`] — `lafd sweep
/// --remote` passes a wire-backed executor here to drive a live `lafd
/// serve` instance. Fails on the first executor error (partial remote
/// sweeps would silently misreport coverage).
pub fn run_sweep_with(
    matrix: &SweepMatrix,
    threads: usize,
    executor: &dyn ScenarioExecutor,
) -> Result<SweepReport, String> {
    let scenarios = matrix.scenarios();
    let rows = pool::parallel_indexed(scenarios.len(), threads, |index| {
        run_scenario_with_executor(
            &scenarios[index],
            &matrix.link_latency,
            matrix.search,
            executor,
        )
    })
    .into_iter()
    .collect::<Result<Vec<ScenarioRow>, String>>()?;
    Ok(SweepReport {
        rows,
        link_latency: matrix.link_latency.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_expansion_filters_inadmissible_shapes() {
        let matrix = SweepMatrix {
            protocols: vec![Protocol::PhaseKing, Protocol::ChainFd],
            sizes: vec![5, 9],
            fault_rule: FaultRule::Explicit(vec![2]),
            adversaries: vec![AdversaryKind::None],
            schemes: vec![SchemeSpec::Tiny],
            seeds: vec![1],
            ..SweepMatrix::quick()
        };
        let scenarios = matrix.scenarios();
        // Phase King needs n > 4t: n=5,t=2 is dropped, n=9,t=2 stays.
        assert!(scenarios
            .iter()
            .all(|s| s.protocol != Protocol::PhaseKing || s.n == 9));
        assert_eq!(
            scenarios
                .iter()
                .filter(|s| s.protocol == Protocol::ChainFd)
                .count(),
            2
        );
    }

    #[test]
    fn chain_adversaries_only_pair_with_chain_fd() {
        let matrix = SweepMatrix {
            protocols: vec![Protocol::ChainFd, Protocol::DolevStrong],
            sizes: vec![5],
            fault_rule: FaultRule::Explicit(vec![1]),
            adversaries: vec![AdversaryKind::TamperBody, AdversaryKind::SilentRelay],
            schemes: vec![SchemeSpec::Tiny],
            seeds: vec![1],
            ..SweepMatrix::quick()
        };
        for s in matrix.scenarios() {
            assert!(s.adversary.applies_to(s.protocol), "{s:?}");
        }
    }

    #[test]
    fn failure_free_rows_match_formulas() {
        let report = run_sweep(&SweepMatrix::quick(), 2);
        assert!(report.all_ok(), "failures: {:?}", report.failures());
        for row in &report.rows {
            assert_eq!(row.expected_messages, Some(row.messages));
            assert_eq!(row.outcome, SweepOutcome::AllDecided);
        }
    }

    #[test]
    fn adversarial_rows_never_silently_disagree() {
        let matrix = SweepMatrix {
            protocols: vec![Protocol::ChainFd],
            sizes: vec![5, 7],
            fault_rule: FaultRule::Classic,
            adversaries: vec![
                AdversaryKind::SilentRelay,
                AdversaryKind::CrashRelay,
                AdversaryKind::TamperBody,
                AdversaryKind::ForgeOrigin,
                AdversaryKind::WrongAssignee,
            ],
            schemes: vec![SchemeSpec::Tiny],
            seeds: vec![1, 2, 3],
            ..SweepMatrix::quick()
        };
        let report = run_sweep(&matrix, 4);
        assert!(report.all_ok(), "failures: {:?}", report.failures());
        for row in &report.rows {
            assert_ne!(row.outcome, SweepOutcome::SilentDisagreement, "{row:?}");
        }
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let matrix = SweepMatrix::quick();
        let serial = run_sweep(&matrix, 1);
        let parallel = run_sweep(&matrix, 8);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.to_markdown(), parallel.to_markdown());
    }

    #[test]
    fn default_matrix_is_at_least_24_scenarios_and_green() {
        let matrix = SweepMatrix::default_matrix();
        let scenarios = matrix.scenarios();
        assert!(scenarios.len() >= 24, "only {} scenarios", scenarios.len());
        let report = run_sweep(&matrix, 4);
        assert!(report.all_ok(), "failures: {:?}", report.failures());
    }

    #[test]
    fn sync_engine_never_pairs_with_latency_models() {
        let matrix = SweepMatrix {
            engines: vec![Engine::Sync, Engine::Event],
            latencies: vec![LatencySpec::Synchronous, LatencySpec::Jitter { extra: 1 }],
            ..SweepMatrix::quick()
        };
        let scenarios = matrix.scenarios();
        assert!(scenarios
            .iter()
            .all(|s| s.engine == Engine::Event || s.latency == LatencySpec::Synchronous));
        // sync+sync, event+sync, event+jitter — three engine/latency pairs.
        let pairs: BTreeSet<(Engine, String)> = scenarios
            .iter()
            .map(|s| (s.engine, s.latency.name()))
            .collect();
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn normalized_duplicate_latencies_emit_each_pair_once() {
        // `fixed:1` normalizes onto `sync`; the pair must not run twice.
        let base = SweepMatrix::quick();
        let doubled = SweepMatrix {
            engines: vec![Engine::Event],
            latencies: vec![
                LatencySpec::Synchronous,
                LatencySpec::Fixed { rounds: 1 },
                LatencySpec::Jitter { extra: 0 },
            ],
            ..base.clone()
        };
        let single = SweepMatrix {
            engines: vec![Engine::Event],
            latencies: vec![LatencySpec::Synchronous],
            ..base
        };
        assert_eq!(doubled.scenarios(), single.scenarios());
    }

    #[test]
    fn cross_validation_matrix_matches_sync_engine() {
        let matrix = SweepMatrix {
            protocols: vec![Protocol::ChainFd, Protocol::Degradable],
            sizes: vec![5],
            seeds: vec![1],
            ..SweepMatrix::cross_validation()
        };
        let report = run_sweep(&matrix, 2);
        assert!(report.all_ok(), "failures: {:?}", report.failures());
        for row in &report.rows {
            assert_eq!(row.scenario.engine, Engine::Event);
            assert!(row.cross_ok, "{row:?}");
        }
    }

    #[test]
    fn latency_matrix_has_zero_silent_disagreements() {
        let matrix = SweepMatrix {
            sizes: vec![4],
            seeds: vec![1],
            ..SweepMatrix::latency_matrix()
        };
        let report = run_sweep(&matrix, 4);
        assert!(report.all_ok(), "failures: {:?}", report.failures());
        for row in &report.rows {
            assert_ne!(row.outcome, SweepOutcome::SilentDisagreement, "{row:?}");
            // Timing-faulted rows carry no formula expectation.
            assert_eq!(row.expected_messages, None);
        }
    }

    #[test]
    fn search_axis_attaches_only_where_the_scheduler_has_freedom() {
        let matrix = SweepMatrix {
            protocols: vec![Protocol::ChainFd],
            sizes: vec![5],
            seeds: vec![1],
            engines: vec![Engine::Sync, Engine::Event],
            latencies: vec![LatencySpec::Synchronous, LatencySpec::Jitter { extra: 1 }],
            search: Some(SearchAxis {
                budget: 3,
                strategy: Strategy::Random,
            }),
            ..SweepMatrix::quick()
        };
        let report = run_sweep(&matrix, 2);
        assert!(report.all_ok(), "failures: {:?}", report.failures());
        for row in &report.rows {
            // Degenerate envelopes (sync engine, or event under `sync`
            // latency) would replay the baseline `budget` times; only
            // jittery event rows carry a search.
            if row.scenario.engine == Engine::Event && row.scenario.latency.has_schedule_freedom() {
                let search = row.search.as_ref().expect("jittery event rows searched");
                assert_eq!(search.episodes, 3);
                assert!(search.replay_ok, "{row:?}");
                assert!(!search.best.silent_disagreement, "{row:?}");
            } else {
                assert!(row.search.is_none(), "{row:?}");
            }
        }
        assert!(report.rows.iter().any(|r| r.search.is_some()));
        // The search result is part of the deterministic report surface.
        assert_eq!(report.to_json(), run_sweep(&matrix, 1).to_json());
    }

    #[test]
    fn search_axis_skips_rows_with_link_overrides() {
        let matrix = SweepMatrix {
            protocols: vec![Protocol::ChainFd],
            sizes: vec![5],
            seeds: vec![1],
            engines: vec![Engine::Event],
            latencies: vec![LatencySpec::Jitter { extra: 1 }],
            link_latency: vec![LinkLatencySpec::parse("0:1:fixed:2").unwrap()],
            search: Some(SearchAxis {
                budget: 3,
                strategy: Strategy::Random,
            }),
            ..SweepMatrix::quick()
        };
        let report = run_sweep(&matrix, 1);
        assert!(report.all_ok(), "failures: {:?}", report.failures());
        // The search explores the base envelope only; attaching it to a
        // row whose delivery times include a per-link override would
        // misdescribe the row, so it is skipped.
        assert!(report.rows.iter().all(|r| r.search.is_none()));
    }

    #[test]
    fn search_finding_silent_disagreement_fails_the_row() {
        let mut row = run_scenario(&SweepMatrix::quick().scenarios()[0]);
        assert!(row.ok());
        row.search = Some(SearchRowSummary {
            strategy: Strategy::Greedy,
            episodes: 5,
            best: Score {
                silent_disagreement: true,
                ..Score::default()
            },
            replay_ok: true,
        });
        assert!(!row.ok(), "silent-disagreement finding must fail the row");
        row.search.as_mut().unwrap().best.silent_disagreement = false;
        assert!(row.ok(), "loud findings are recorded, not failures");
        row.search.as_mut().unwrap().replay_ok = false;
        assert!(!row.ok(), "a non-replaying certificate must fail the row");
    }

    #[test]
    fn link_latency_rows_waive_formulas_but_not_safety() {
        let link = LinkLatencySpec::parse("0:1:fixed:3").unwrap();
        let matrix = SweepMatrix {
            protocols: vec![Protocol::ChainFd, Protocol::FdToBa],
            sizes: vec![5],
            seeds: vec![1, 2],
            engines: vec![Engine::Event],
            link_latency: vec![link],
            ..SweepMatrix::quick()
        };
        let report = run_sweep(&matrix, 2);
        assert!(report.all_ok(), "failures: {:?}", report.failures());
        for row in &report.rows {
            // The slow link is a timing fault: no closed-form expectation,
            // no silent disagreement.
            assert_eq!(row.expected_messages, None, "{row:?}");
            assert_ne!(row.outcome, SweepOutcome::SilentDisagreement, "{row:?}");
        }
        // At least one run must actually notice the three-round link.
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.outcome == SweepOutcome::Discovered),
            "a 3-round link on the chain path should be discovered: {report:?}"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run_sweep(&SweepMatrix::quick(), 2);
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(
            json.matches("\"protocol\"").count(),
            report.rows.len(),
            "one protocol key per row"
        );
        assert!(json.contains("\"summary\""));
    }
}
