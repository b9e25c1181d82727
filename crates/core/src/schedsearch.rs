//! Adversarial scheduler search over the event engine — the repo's
//! lightweight Jepsen/TLC analogue.
//!
//! The paper claims its failure-discovery guarantees against a *worst-case*
//! adversary, but a sweep ([`crate::sweep`]) only samples fixed latency
//! models: every row draws its delivery schedule from a seeded
//! distribution and nobody *searches* for the schedule that breaks
//! agreement. This module adds that search. It attacks one run, described
//! like a sweep row by a [`SpecBuilder`] ([`SearchConfig::spec`]). Within
//! the admissible envelope of the run's [`LatencySpec`] (see
//! [`LatencySpec::tick_bounds`]) it explores
//! per-message delivery-time assignments, maximizing a lexicographic
//! scoring objective:
//!
//! 1. **silent disagreement** — two correct nodes decide different values
//!    and nobody discovers a failure (the state the paper forbids; finding
//!    one is a reproduction bug),
//! 2. **loud disagreement** — different decisions, but discovered,
//! 3. **FD→BA fallback engagement** — the schedule forced the expensive
//!    fallback path,
//! 4. **message-count anomaly** — distance from the failure-free
//!    closed-form message count.
//!
//! Two strategies are implemented: [`Strategy::Random`] (seeded random
//! restarts: every episode draws a fresh full schedule) and
//! [`Strategy::Greedy`] (hill-climbing: each episode perturbs one
//! message's delay and keeps the change only if the score strictly
//! improves). Both are bounded by a *budget* of protocol executions.
//!
//! Every episode yields a replayable **schedule certificate**
//! ([`ScheduleCert`]): the search seed plus the full per-message delay
//! assignment recorded from the run. Re-installing the certificate through
//! [`EventNetwork::set_delay_overrides`] on a fresh network re-executes
//! the schedule byte-for-byte — [`run_search`] verifies this for the best
//! certificate it returns ([`SearchReport::replay_ok`]), and [`replay`]
//! lets tests re-check any certificate independently. The best one is
//! published as the `best` object of [`SearchReport::to_json`].
//!
//! Schedule-search runs are classified like *timing-faulted* rows: the
//! scheduler violates the paper's N1 timing by construction, so FD→BA
//! fallback engagement counts as discovery evidence (loud, not silent) —
//! see [`crate::sweep::classify`].
//!
//! [`EventNetwork::set_delay_overrides`]: fd_simnet::EventNetwork::set_delay_overrides
//!
//! ```
//! use fd_core::schedsearch::{run_search, SearchConfig, Strategy};
//! use fd_core::sweep::Protocol;
//!
//! let report = run_search(&SearchConfig {
//!     budget: 4,
//!     ..SearchConfig::new(Protocol::ChainFd, 5, 1, 7)
//! })
//! .unwrap();
//! assert!(report.replay_ok);
//! assert!(!report.silent_found(), "paper property violated");
//! ```

use crate::pool;
use crate::runner::{FdRunReport, KeyDistReport, Schedule};
use crate::spec::SpecBuilder;
use crate::sweep::{classify, scenario, Protocol, SweepOutcome};
use crate::wire::Value;
use fd_simnet::{Engine, LatencySpec};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// How the search explores the schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strategy {
    /// Seeded random restarts: every episode draws a fresh full schedule
    /// uniformly within the latency bounds.
    Random,
    /// Greedy hill-climbing: every episode perturbs one message's delay
    /// and keeps the perturbation only on strict score improvement.
    Greedy,
}

impl Strategy {
    /// Every strategy, in canonical order.
    pub const ALL: [Strategy; 2] = [Strategy::Random, Strategy::Greedy];

    /// Stable machine-readable name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Greedy => "greedy",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Result<Strategy, String> {
        Ok(match name {
            "random" | "restarts" => Strategy::Random,
            "greedy" | "hillclimb" => Strategy::Greedy,
            other => return Err(format!("unknown strategy {other} (random|greedy)")),
        })
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The search objective, ordered lexicographically: silent disagreement
/// dominates loud disagreement dominates fallback engagement dominates the
/// message-count anomaly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Two correct nodes decided differently with no discovery — the state
    /// the paper's F-properties forbid. A search that maximizes this to
    /// `true` has found a reproduction bug.
    pub silent_disagreement: bool,
    /// Two correct nodes decided differently, but at least one correct
    /// node (or the engaged fallback) discovered a failure.
    pub loud_disagreement: bool,
    /// At least one node took the FD→BA fallback path.
    pub fallback_engaged: bool,
    /// Absolute distance of the measured message count from the
    /// failure-free closed form.
    pub message_anomaly: u64,
}

impl Score {
    fn key(&self) -> (bool, bool, bool, u64) {
        (
            self.silent_disagreement,
            self.loud_disagreement,
            self.fallback_engaged,
            self.message_anomaly,
        )
    }

    /// `true` when the run was indistinguishable from a clean one.
    pub fn is_clean(&self) -> bool {
        self.key() == (false, false, false, 0)
    }

    /// Compact label for report tables, most severe component first.
    pub fn label(&self) -> String {
        if self.silent_disagreement {
            "SILENT_DISAGREEMENT".to_string()
        } else if self.loud_disagreement {
            "loud_disagreement".to_string()
        } else if self.fallback_engaged {
            "fallback".to_string()
        } else if self.message_anomaly > 0 {
            format!("anomaly:{}", self.message_anomaly)
        } else {
            "clean".to_string()
        }
    }
}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A fully specified search: the run under attack plus a strategy and a
/// budget of protocol executions.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The run under attack, on the event engine. Its latency is the
    /// envelope the scheduler must stay within, and its seed feeds key
    /// material, the base latency model, *and* the search's own
    /// randomness — one seed makes the whole search replayable.
    pub spec: SpecBuilder,
    /// Search strategy.
    pub strategy: Strategy,
    /// Number of episodes the search may spend (≥ 1; episode 0 is always
    /// the unperturbed baseline). Each episode is one protocol execution,
    /// except under partial synchrony where admissibility enforcement may
    /// re-execute an episode up to three times (see the module docs).
    pub budget: usize,
}

impl SearchConfig {
    /// A search with the defaults used by `lafd search`: the sweep's run
    /// ([`crate::sweep::scenario`]) on the event engine, jitter with two
    /// extra rounds of freedom, the tiny scheme, no byzantine node (the
    /// scheduler is the only adversary), random restarts, budget 100.
    pub fn new(protocol: Protocol, n: usize, t: usize, seed: u64) -> Self {
        SearchConfig {
            spec: scenario(protocol, n, t, seed)
                .with_engine(Engine::Event)
                .with_latency(LatencySpec::Jitter { extra: 2 }),
            strategy: Strategy::Random,
            budget: 100,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.budget == 0 {
            return Err("search budget must be at least 1".to_string());
        }
        if self.spec.engine != Engine::Event {
            return Err("the schedule search needs the event engine".to_string());
        }
        self.spec.validate()
    }
}

/// One message's scheduled flight time within a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perturbation {
    /// Send index (the k-th message handed to the transport).
    pub index: u64,
    /// The round in which the message was sent (for bound validation).
    pub round: u32,
    /// Flight time in virtual ticks.
    pub ticks: u64,
}

/// A byte-deterministic, replayable delivery schedule: the search seed
/// plus the full per-message delay assignment of one episode.
///
/// Re-executing the certificate on a fresh [`fd_simnet::EventNetwork`]
/// (via the per-message delay-override hook) reproduces the generating
/// run exactly — message counts, wire bytes, and per-node outcomes.
#[derive(Debug, Clone)]
pub struct ScheduleCert {
    /// The scenario shape the schedule attacks.
    pub config: SearchConfig,
    /// The episode that produced this schedule.
    pub episode: usize,
    /// The full delay assignment, one entry per sent message in send
    /// order.
    pub perturbations: Vec<Perturbation>,
}

impl ScheduleCert {
    /// The certificate as an override map for
    /// [`fd_simnet::EventNetwork::set_delay_overrides`] /
    /// [`crate::spec::RunSpec::with_schedule`].
    pub fn schedule(&self) -> Schedule {
        Arc::new(
            self.perturbations
                .iter()
                .map(|p| (p.index, p.ticks))
                .collect::<HashMap<u64, u64>>(),
        )
    }

    /// Check that every scheduled delay lies within the latency spec's
    /// admissible envelope for the round it was sent in.
    pub fn validate(&self) -> Result<(), String> {
        for p in &self.perturbations {
            let (lo, hi) = self.config.spec.latency.tick_bounds(p.round);
            if !(lo..=hi).contains(&p.ticks) {
                return Err(format!(
                    "perturbation {} (round {}): {} ticks outside [{lo}, {hi}]",
                    p.index, p.round, p.ticks
                ));
            }
        }
        Ok(())
    }
}

/// Measurements from one search episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodeRow {
    /// Episode number (0 is the unperturbed baseline).
    pub episode: usize,
    /// Objective value of the episode's run.
    pub score: Score,
    /// Messages of the protocol run.
    pub messages: usize,
    /// Wire bytes of the protocol run.
    pub bytes: usize,
    /// Outcome classification (schedule-search runs count as
    /// timing-faulted, so fallback engagement is discovery evidence).
    pub outcome: SweepOutcome,
    /// Whether this episode became the search's new incumbent.
    pub accepted: bool,
}

/// The full result of one search: every episode, the best certificate,
/// and the replay verification of that certificate.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The search that produced this report.
    pub config: SearchConfig,
    /// One row per executed episode, in execution order.
    pub episodes: Vec<EpisodeRow>,
    /// The best (worst-for-the-protocol) schedule found.
    pub best: ScheduleCert,
    /// The best episode's score.
    pub best_score: Score,
    /// The best episode's message count.
    pub best_messages: usize,
    /// The best episode's wire bytes.
    pub best_bytes: usize,
    /// The best episode's outcome classification.
    pub best_outcome: SweepOutcome,
    /// Whether replaying [`SearchReport::best`] on a fresh network
    /// reproduced the episode exactly (messages, bytes, outcome, and the
    /// full delay log).
    pub replay_ok: bool,
}

impl SearchReport {
    /// Episodes whose runs were distinguishable from a clean run — loud
    /// outcomes are *findings*, recorded but not failures.
    pub fn findings(&self) -> Vec<&EpisodeRow> {
        self.episodes
            .iter()
            .filter(|e| !e.score.is_clean())
            .collect()
    }

    /// `true` iff any episode exhibited silent disagreement — the one
    /// result that fails a search.
    pub fn silent_found(&self) -> bool {
        self.episodes.iter().any(|e| e.score.silent_disagreement)
    }

    /// Whether the search upholds its contract: no silent disagreement
    /// discovered and the best certificate replays exactly.
    pub fn ok(&self) -> bool {
        !self.silent_found() && self.replay_ok
    }

    /// Serialize as deterministic JSON (stable field order, no floats, no
    /// timestamps): rerunning the same config yields identical bytes.
    pub fn to_json(&self) -> String {
        let (c, spec) = (&self.config, &self.config.spec);
        let config = Value::obj(vec![
            ("protocol", spec.protocol.name().into()),
            ("n", spec.n.into()),
            ("t", spec.resolved_t().into()),
            ("scheme", spec.scheme.as_str().into()),
            ("seed", spec.seed.into()),
            ("latency", spec.latency.name().into()),
            ("adversary", spec.adversary.kind_name().into()),
            ("strategy", c.strategy.name().into()),
            ("budget", c.budget.into()),
        ]);
        let episodes = self.episodes.iter().map(|e| {
            Value::obj(vec![
                ("episode", e.episode.into()),
                ("score", e.score.label().into()),
                ("messages", e.messages.into()),
                ("bytes", e.bytes.into()),
                ("outcome", e.outcome.name().into()),
                ("accepted", e.accepted.into()),
            ])
        });
        let perturbations = self.best.perturbations.iter().map(|p| {
            Value::obj(vec![
                ("index", p.index.into()),
                ("round", p.round.into()),
                ("ticks", p.ticks.into()),
            ])
        });
        let best = Value::obj(vec![
            ("episode", self.best.episode.into()),
            ("score", self.best_score.label().into()),
            ("messages", self.best_messages.into()),
            ("bytes", self.best_bytes.into()),
            ("outcome", self.best_outcome.name().into()),
            ("perturbations", Value::Arr(perturbations.collect())),
        ]);
        let summary = Value::obj(vec![
            ("episodes", self.episodes.len().into()),
            ("findings", self.findings().len().into()),
            ("silent_found", self.silent_found().into()),
            ("replay_ok", self.replay_ok.into()),
        ]);
        Value::obj(vec![
            ("config", config),
            ("episodes", Value::Arr(episodes.collect())),
            ("best", best),
            ("summary", summary),
        ])
        .to_document()
    }

    /// Render as markdown (deterministic): the config, a findings table,
    /// and the best certificate summary.
    pub fn to_markdown(&self) -> String {
        let (c, spec) = (&self.config, &self.config.spec);
        let mut s = String::from("# lafd search report\n\n");
        s.push_str(&format!(
            "Protocol **{}**, n = {}, t = {}, scheme {}, seed {}, latency `{}`, \
             adversary {}, strategy **{}**, budget {}.\n\n",
            spec.protocol,
            spec.n,
            spec.resolved_t(),
            spec.scheme,
            spec.seed,
            spec.latency,
            spec.adversary.kind_name(),
            c.strategy,
            c.budget
        ));
        let findings = self.findings();
        if findings.is_empty() {
            s.push_str("No episode was distinguishable from a clean run.\n\n");
        } else {
            s.push_str("| episode | score | messages | bytes | outcome | accepted |\n");
            s.push_str("|---|---|---|---|---|---|\n");
            for e in &findings {
                s.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} |\n",
                    e.episode,
                    e.score,
                    e.messages,
                    e.bytes,
                    e.outcome,
                    if e.accepted { "yes" } else { "no" }
                ));
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "Worst schedule: episode {} scoring **{}** ({} messages, {} bytes, {}), \
             certificate of {} per-message delays; replay {}.\n",
            self.best.episode,
            self.best_score,
            self.best_messages,
            self.best_bytes,
            self.best_outcome,
            self.best.perturbations.len(),
            if self.replay_ok {
                "reproduced the run exactly"
            } else {
                "FAILED to reproduce the run"
            }
        ));
        s.push_str(&format!(
            "\n{} episodes, {} findings, silent disagreement {}.\n",
            self.episodes.len(),
            findings.len(),
            if self.silent_found() {
                "**FOUND (BUG)**"
            } else {
                "never observed"
            }
        ));
        s
    }
}

/// What one schedule (a certificate or an episode) measured when executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayResult {
    /// Objective value of the run.
    pub score: Score,
    /// Messages of the protocol run.
    pub messages: usize,
    /// Wire bytes of the protocol run.
    pub bytes: usize,
    /// Outcome classification.
    pub outcome: SweepOutcome,
    /// The full per-message delay assignment the run actually used.
    pub delay_log: Vec<(u32, u64)>,
}

/// SplitMix-style avalanche combining two words — the search's only
/// source of randomness, so every episode is a pure function of
/// `(config.spec.seed, episode, proposal)`.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x5343_4845_4453; // "SCHEDS" salt
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Score one executed run. Schedule-search runs are always classified as
/// timing-faulted (`network_faulted = true` in [`classify`]): the
/// adversarial scheduler violates N1 by construction, so FD→BA fallback
/// engagement is discovery evidence — a fallback split is *loud*, never
/// silent.
pub fn score_run(run: &FdRunReport, expected_messages: usize) -> (Score, SweepOutcome) {
    let outcome = classify(run, true);
    let outs = run.correct_outcomes();
    let fallback_engaged = run.used_fallback.iter().any(|&f| f);
    let any_discovery = outs.iter().any(crate::Outcome::is_discovered) || fallback_engaged;
    let decided: BTreeSet<Vec<u8>> = outs
        .iter()
        .filter_map(|o| o.decided().map(<[u8]>::to_vec))
        .collect();
    let score = Score {
        silent_disagreement: outcome == SweepOutcome::SilentDisagreement,
        loud_disagreement: decided.len() > 1 && any_discovery,
        fallback_engaged,
        message_anomaly: run.stats.messages_total.abs_diff(expected_messages) as u64,
    };
    (score, outcome)
}

/// Execute the config's run under the given schedule (or the base
/// latency model when `None`), reusing a precomputed key distribution.
/// One episode = one build of the config's [`SpecBuilder`] with the
/// episode's schedule — builders are plain data, which is what lets
/// random restarts fan out across threads.
fn execute(
    config: &SearchConfig,
    keydist: &Option<KeyDistReport>,
    schedule: Option<Schedule>,
) -> ReplayResult {
    let spec = &config.spec;
    let (cluster, run_spec) = spec
        .clone()
        .with_schedule(schedule)
        .build()
        .expect("search configs are validated before execution");
    let run = cluster
        .with_delay_log()
        .run_with_keys(&run_spec, keydist.as_ref());
    let expected = spec.protocol.expected_messages(spec.n, spec.resolved_t());
    let (score, outcome) = score_run(&run, expected);
    ReplayResult {
        score,
        messages: run.stats.messages_total,
        bytes: run.stats.bytes_total,
        outcome,
        delay_log: run.delay_log.unwrap_or_default(),
    }
}

/// Execute a proposed schedule and force the *result* to be admissible.
///
/// Proposal delays are drawn from the bounds of the round each message
/// was sent in during the incumbent run — but applying them can shift a
/// later message into a round with tighter bounds (only possible under
/// [`LatencySpec::PartialSynchrony`], whose envelope narrows at the GST
/// boundary). Any recorded delay outside its actual round's envelope is
/// clamped and the episode re-executed, up to three passes; if the log
/// still violates the envelope the episode falls back to the unperturbed
/// baseline, which the latency model keeps admissible by construction.
/// Every certificate the search emits therefore passes
/// [`ScheduleCert::validate`].
fn execute_admissible(
    config: &SearchConfig,
    keydist: &Option<KeyDistReport>,
    overrides: Option<HashMap<u64, u64>>,
) -> ReplayResult {
    let mut schedule = overrides;
    for _ in 0..3 {
        let result = execute(config, keydist, schedule.clone().map(Arc::new));
        let clamps: Vec<(u64, u64)> = result
            .delay_log
            .iter()
            .enumerate()
            .filter_map(|(i, &(round, ticks))| {
                let (lo, hi) = config.spec.latency.tick_bounds(round);
                if (lo..=hi).contains(&ticks) {
                    None
                } else {
                    Some((i as u64, ticks.clamp(lo, hi)))
                }
            })
            .collect();
        if clamps.is_empty() {
            return result;
        }
        let mut map = schedule.unwrap_or_default();
        map.extend(clamps);
        schedule = Some(map);
    }
    execute(config, keydist, None)
}

/// The key distribution every episode of a search reuses: keys are
/// established in the quiet synchronous setup phase, outside the
/// scheduler's reach (see [`crate::runner::Cluster::keydist_for`]).
fn setup_keys(config: &SearchConfig) -> Option<KeyDistReport> {
    config
        .spec
        .build_cluster()
        .expect("search configs are validated before execution")
        .keydist_for(config.spec.protocol)
}

/// Turn a recorded delay log into a certificate.
fn cert_from_log(config: &SearchConfig, episode: usize, log: &[(u32, u64)]) -> ScheduleCert {
    ScheduleCert {
        config: config.clone(),
        episode,
        perturbations: log
            .iter()
            .enumerate()
            .map(|(i, &(round, ticks))| Perturbation {
                index: i as u64,
                round,
                ticks,
            })
            .collect(),
    }
}

/// Run the search single-threaded. Deterministic: the same config
/// produces a byte-identical [`SearchReport`] (and JSON/markdown
/// rendering) on every invocation — and the same bytes as
/// [`run_search_parallel`] at any thread count.
///
/// # Errors
///
/// Returns an error for a zero budget, a run off the event engine, or a
/// run [`SpecBuilder::validate`] rejects.
pub fn run_search(config: &SearchConfig) -> Result<SearchReport, String> {
    run_search_parallel(config, 1)
}

/// Run the search with random restarts fanned out across `threads`
/// workers (the sweep's thread-pool primitive, `fd_core`'s internal pool).
///
/// Every [`Strategy::Random`] episode is a pure function of
/// `(config.spec.seed, episode)` applied to the episode-0 baseline, so
/// restarts are embarrassingly parallel; results are merged in episode
/// (seed) order, which keeps the report byte-identical for any thread
/// count. [`Strategy::Greedy`] is inherently sequential (each episode
/// perturbs the incumbent) and ignores `threads`.
///
/// # Errors
///
/// Returns an error for a zero budget, a run off the event engine, or a
/// run [`SpecBuilder::validate`] rejects.
pub fn run_search_parallel(config: &SearchConfig, threads: usize) -> Result<SearchReport, String> {
    config.validate()?;
    let keydist = setup_keys(config);

    // Episode 0: the unperturbed baseline (the latency model's own
    // schedule) seeds both strategies.
    let baseline = execute(config, &keydist, None);
    let mut episodes = vec![EpisodeRow {
        episode: 0,
        score: baseline.score,
        messages: baseline.messages,
        bytes: baseline.bytes,
        outcome: baseline.outcome,
        accepted: true,
    }];
    let mut best: (usize, ReplayResult) = (0, baseline.clone());

    match config.strategy {
        Strategy::Random => {
            // Each restart draws a fresh full schedule: one delay per
            // message of the *baseline's* log, uniform within the round's
            // bounds. Messages beyond the proposal (the perturbed run may
            // send in different rounds) fall back to the base model.
            // Referencing the baseline rather than the incumbent is a
            // deliberate change from the original sequential search: an
            // accepted episode's log can differ from the baseline's (more
            // messages, later rounds), so the two variants can visit
            // different schedules for the same seed — but only
            // baseline-referenced draws make episodes independent, which
            // is what the fan-out below needs for thread-count-invariant
            // reports.
            let reference = baseline.delay_log;
            let results = pool::parallel_indexed(config.budget.saturating_sub(1), threads, |i| {
                let episode = i + 1;
                let eseed = mix(config.spec.seed, episode as u64);
                let overrides: HashMap<u64, u64> = reference
                    .iter()
                    .enumerate()
                    .map(|(k, &(round, _))| {
                        let rand = mix(eseed, k as u64);
                        (k as u64, config.spec.latency.draw(round, rand))
                    })
                    .collect();
                execute_admissible(config, &keydist, Some(overrides))
            });
            // Merge in episode (seed) order: byte-deterministic for any
            // thread count.
            for (i, result) in results.into_iter().enumerate() {
                let episode = i + 1;
                let accepted = result.score > best.1.score;
                episodes.push(EpisodeRow {
                    episode,
                    score: result.score,
                    messages: result.messages,
                    bytes: result.bytes,
                    outcome: result.outcome,
                    accepted,
                });
                if accepted {
                    best = (episode, result);
                }
            }
        }
        Strategy::Greedy => {
            // Hill-climb: perturb one message's delay per episode, keep
            // the perturbation only on strict improvement. Accepted
            // perturbations accumulate in the override map.
            let mut overrides: HashMap<u64, u64> = HashMap::new();
            for episode in 1..config.budget {
                let eseed = mix(config.spec.seed, episode as u64);
                let current = &best.1;
                if current.delay_log.is_empty() {
                    break; // nothing to perturb (the run sent no messages)
                }
                let index = (mix(eseed, 0) % current.delay_log.len() as u64) as usize;
                let round = current.delay_log[index].0;
                let ticks = config.spec.latency.draw(round, mix(eseed, 1));
                let mut proposal = overrides.clone();
                proposal.insert(index as u64, ticks);
                let result = execute_admissible(config, &keydist, Some(proposal.clone()));
                let accepted = result.score > current.score;
                episodes.push(EpisodeRow {
                    episode,
                    score: result.score,
                    messages: result.messages,
                    bytes: result.bytes,
                    outcome: result.outcome,
                    accepted,
                });
                if accepted {
                    overrides = proposal;
                    best = (episode, result);
                }
            }
        }
    }

    // The best episode's full recorded schedule is the certificate;
    // it must lie within the latency envelope (execute_admissible
    // guarantees this, and the baseline is admissible by construction)
    // and replaying it must reproduce the episode exactly.
    let cert = cert_from_log(config, best.0, &best.1.delay_log);
    cert.validate()
        .map_err(|e| format!("internal error: inadmissible certificate emitted: {e}"))?;
    let replayed = execute(config, &keydist, Some(cert.schedule()));
    let replay_ok = replayed == best.1;

    Ok(SearchReport {
        config: config.clone(),
        episodes,
        best: cert,
        best_score: best.1.score,
        best_messages: best.1.messages,
        best_bytes: best.1.bytes,
        best_outcome: best.1.outcome,
        replay_ok,
    })
}

/// Re-execute a certificate on a fresh cluster and network, measuring the
/// run from scratch (key distribution included). Used by tests and the
/// CLI to confirm a certificate stands on its own.
pub fn replay(cert: &ScheduleCert) -> ReplayResult {
    let keydist = setup_keys(&cert.config);
    execute(&cert.config, &keydist, Some(cert.schedule()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryKind, AdversarySpec};

    fn config(protocol: Protocol, strategy: Strategy, seed: u64) -> SearchConfig {
        SearchConfig {
            strategy,
            budget: 6,
            ..SearchConfig::new(protocol, 5, 1, seed)
        }
    }

    #[test]
    fn score_orders_lexicographically() {
        let clean = Score::default();
        let anomaly = Score {
            message_anomaly: 9,
            ..clean
        };
        let fallback = Score {
            fallback_engaged: true,
            ..clean
        };
        let loud = Score {
            loud_disagreement: true,
            ..clean
        };
        let silent = Score {
            silent_disagreement: true,
            ..clean
        };
        assert!(clean < anomaly && anomaly < fallback && fallback < loud && loud < silent);
        assert!(clean.is_clean() && !anomaly.is_clean());
        assert_eq!(silent.label(), "SILENT_DISAGREEMENT");
        assert_eq!(anomaly.label(), "anomaly:9");
    }

    #[test]
    fn search_is_deterministic_and_replayable() {
        for strategy in Strategy::ALL {
            let cfg = config(Protocol::ChainFd, strategy, 7);
            let a = run_search(&cfg).unwrap();
            let b = run_search(&cfg).unwrap();
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{strategy}: report not deterministic"
            );
            assert!(a.replay_ok, "{strategy}: best cert did not replay");
            assert!(!a.silent_found(), "{strategy}: silent disagreement");
            assert_eq!(a.episodes.len(), cfg.budget);
        }
    }

    #[test]
    fn certs_stay_within_latency_bounds() {
        for strategy in Strategy::ALL {
            let report = run_search(&config(Protocol::ChainFd, strategy, 3)).unwrap();
            report.best.validate().unwrap();
            assert!(!report.best.perturbations.is_empty());
        }
    }

    #[test]
    fn independent_replay_matches_the_report() {
        let report = run_search(&config(Protocol::FdToBa, Strategy::Random, 11)).unwrap();
        let replayed = replay(&report.best);
        assert_eq!(replayed.score, report.best_score);
        assert_eq!(replayed.messages, report.best_messages);
        assert_eq!(replayed.bytes, report.best_bytes);
        assert_eq!(replayed.outcome, report.best_outcome);
    }

    #[test]
    fn degenerate_sync_latency_has_no_schedule_freedom() {
        let base = SearchConfig::new(Protocol::ChainFd, 5, 1, 2);
        let cfg = SearchConfig {
            spec: base.spec.with_latency(LatencySpec::Synchronous),
            budget: 4,
            ..base
        };
        let report = run_search(&cfg).unwrap();
        // Every schedule the search can draw equals the baseline.
        assert!(report.episodes.iter().all(|e| e.score.is_clean()));
        assert!(report.replay_ok);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(run_search(&SearchConfig {
            budget: 0,
            ..SearchConfig::new(Protocol::ChainFd, 5, 1, 1)
        })
        .is_err());
        assert!(run_search(&SearchConfig {
            ..SearchConfig::new(Protocol::PhaseKing, 5, 2, 1)
        })
        .is_err());
        let base = SearchConfig::new(Protocol::DolevStrong, 5, 1, 1);
        let tamper = AdversarySpec::scripted(AdversaryKind::TamperBody);
        for spec in [
            base.spec.clone().with_adversary(tamper),
            base.spec
                .clone()
                .with_engine(Engine::Sync)
                .with_latency(LatencySpec::Synchronous),
        ] {
            assert!(run_search(&SearchConfig {
                spec,
                ..base.clone()
            })
            .is_err());
        }
    }
}
