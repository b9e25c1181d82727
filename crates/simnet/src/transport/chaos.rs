//! Deterministic fault injection and retry/backoff for the deployment
//! transports.
//!
//! The chaos layer turns the multi-process cluster into the same kind of
//! assertable object the simulated engines already are: every injected
//! fault — a refused connect, a handshake reset, a delayed accept, a
//! partial-write stall, a process kill at a named phase — is drawn from a
//! [`ChaosSpec`] by a **stateless seeded hash** over `(seed, node,
//! incarnation, site, key, attempt)`. Nothing depends on wall-clock
//! timing or arrival order, so the same seed replays the same injection
//! trace byte for byte, and a recovered run's report is byte-identical to
//! the fault-free one.
//!
//! Recovery has two tiers, mirroring the paper's fault taxonomy:
//!
//! * **Transient transport faults** (refuse/reset/delay/stall) are healed
//!   *inside* a worker by [`RetryPolicy`] — capped exponential backoff
//!   with seeded jitter around every connect/handshake and registry call.
//!   An exhausted budget surfaces as the typed
//!   [`TransportError::Exhausted`], never
//!   a hang.
//! * **Process kills** ([`ChaosPhase`]-scoped) end the worker with
//!   [`TransportError::Killed`]; the
//!   `lafd cluster` supervisor restarts the run under an incremented
//!   incarnation number (fencing stale sessions at the registry) up to
//!   `--max-restarts`, and degrades to crash-adversary semantics when a
//!   node stays dead — parity with the in-process `silent:I` scripted
//!   adversary.
//!
//! Kill rules fire while `incarnation < times`, so a transient kill
//! (`times = 1`) hits the first incarnation only and the restarted run is
//! clean, while a persistent kill (`xinf`) models a machine that never
//! comes back.

use super::TransportError;
use crate::NodeId;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker exit code for a chaos-injected kill (the supervisor counts it
/// against the victim's restart budget).
pub const CHAOS_KILL_EXIT: u8 = 46;

/// Worker exit code for a collateral failure — a peer vanished, a
/// deadline or retry budget expired, a registry wait broke. The supervisor
/// restarts the generation without blaming this worker.
pub const COLLATERAL_EXIT: u8 = 45;

// ---------------------------------------------------------------------
// Seeded decisions
// ---------------------------------------------------------------------

/// SplitMix-style avalanche — the same stateless idiom the event engine's
/// [`crate::event`] latency models use for per-message randomness.
fn mix(parts: &[u64]) -> u64 {
    let mut z = 0x43_48_41_4F_53u64; // "CHAOS" salt
    for &p in parts {
        z ^= p;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a over the site label keeps distinct call sites independent.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------
// ChaosSpec
// ---------------------------------------------------------------------

/// A phase a kill rule can target, mirroring the worker lifecycle:
/// key distribution, a specific protocol round, or teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPhase {
    /// After registering, right before the worker establishes its mesh
    /// for key distribution and the protocol.
    Keydist,
    /// Entering protocol round `k` (before the round executes — nothing
    /// of round `k` reaches the wire).
    Round(u32),
    /// After the protocol phase, before the teardown deposit.
    Teardown,
}

impl ChaosPhase {
    /// Stable label used in specs and traces.
    pub fn label(&self) -> String {
        match self {
            ChaosPhase::Keydist => "keydist".to_string(),
            ChaosPhase::Round(k) => format!("round:{k}"),
            ChaosPhase::Teardown => "teardown".to_string(),
        }
    }

    /// Parse a phase label (`keydist`, `round:K`, `teardown`).
    pub fn parse(text: &str) -> Result<ChaosPhase, String> {
        match text {
            "keydist" => Ok(ChaosPhase::Keydist),
            "teardown" => Ok(ChaosPhase::Teardown),
            other => match other.strip_prefix("round:") {
                Some(k) => k
                    .parse()
                    .map(ChaosPhase::Round)
                    .map_err(|e| format!("chaos phase {other:?}: {e}")),
                None => Err(format!(
                    "chaos phase {other:?} (expected keydist, round:K, or teardown)"
                )),
            },
        }
    }
}

/// One kill rule: node `node` dies at `phase` while `incarnation <
/// times`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillRule {
    /// The victim slot.
    pub node: usize,
    /// Where in the lifecycle the process dies.
    pub phase: ChaosPhase,
    /// How many incarnations the rule fires for (`u64::MAX` = every
    /// incarnation — a machine that never comes back).
    pub times: u64,
}

/// A declarative, seeded fault-injection campaign. Parsed from the
/// `--chaos` CLI syntax: semicolon-separated clauses,
///
/// ```text
/// seed=7;kill=2@round:1;kill=0@keydist x inf;connect=30;reset=20;accept-delay=50:5;stall=25:2
/// ```
///
/// * `seed=S` — determinism seed (default 0).
/// * `kill=NODE@PHASE[xTIMES]` — repeatable; `TIMES` defaults to 1,
///   `xinf` fires every incarnation.
/// * `connect=PCT` — percent of connect attempts refused.
/// * `reset=PCT` — percent of handshakes reset after connecting.
/// * `accept-delay=PCT:MS` — percent of accepted handshakes held `MS`
///   milliseconds.
/// * `stall=PCT:MS` — percent of outgoing frames written halfway, then
///   stalled `MS` milliseconds before the rest follows.
///
/// Percentages are integers (0–100) so the spec stays `Eq` and the wire
/// form round-trips exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSpec {
    /// Determinism seed: the entire injection trace is a pure function of
    /// `(seed, node, incarnation)`.
    pub seed: u64,
    /// Process-kill rules.
    pub kills: Vec<KillRule>,
    /// Percent of connect attempts refused before dialing.
    pub connect_refuse_pct: u8,
    /// Percent of handshakes reset right after the TCP connect.
    pub reset_pct: u8,
    /// `(percent, millis)`: delayed accepts.
    pub accept_delay: Option<(u8, u64)>,
    /// `(percent, millis)`: partial-write stalls.
    pub stall: Option<(u8, u64)>,
}

fn parse_pct(v: &str, what: &str) -> Result<u8, String> {
    let pct: u8 = v.parse().map_err(|e| format!("chaos {what}: {e}"))?;
    if pct > 100 {
        return Err(format!("chaos {what}: {pct} is not a percentage"));
    }
    Ok(pct)
}

fn parse_pct_ms(v: &str, what: &str) -> Result<(u8, u64), String> {
    let (pct, ms) = v
        .split_once(':')
        .ok_or_else(|| format!("chaos {what}: expected PCT:MS, got {v:?}"))?;
    Ok((
        parse_pct(pct, what)?,
        ms.parse()
            .map_err(|e| format!("chaos {what} millis: {e}"))?,
    ))
}

impl ChaosSpec {
    /// Parse the `--chaos` clause syntax (see the type docs).
    pub fn parse(text: &str) -> Result<ChaosSpec, String> {
        let mut spec = ChaosSpec::default();
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("chaos clause {clause:?}: expected key=value"))?;
            match key.trim() {
                "seed" => {
                    spec.seed = value.parse().map_err(|e| format!("chaos seed: {e}"))?;
                }
                "kill" => {
                    let (node_phase, times) = match value.split_once('x') {
                        Some((head, "inf")) => (head.trim(), u64::MAX),
                        Some((head, times)) => (
                            head.trim(),
                            times
                                .trim()
                                .parse()
                                .map_err(|e| format!("chaos kill repeat: {e}"))?,
                        ),
                        None => (value, 1),
                    };
                    let (node, phase) = node_phase
                        .split_once('@')
                        .ok_or_else(|| format!("chaos kill {value:?}: expected NODE@PHASE"))?;
                    spec.kills.push(KillRule {
                        node: node
                            .trim()
                            .parse()
                            .map_err(|e| format!("chaos kill node: {e}"))?,
                        phase: ChaosPhase::parse(phase.trim())?,
                        times,
                    });
                }
                "connect" => spec.connect_refuse_pct = parse_pct(value, "connect")?,
                "reset" => spec.reset_pct = parse_pct(value, "reset")?,
                "accept-delay" => spec.accept_delay = Some(parse_pct_ms(value, "accept-delay")?),
                "stall" => spec.stall = Some(parse_pct_ms(value, "stall")?),
                other => return Err(format!("unknown chaos clause {other:?}")),
            }
        }
        Ok(spec)
    }

    /// The canonical clause form ([`ChaosSpec::parse`] is its inverse).
    pub fn to_spec_string(&self) -> String {
        let mut clauses = vec![format!("seed={}", self.seed)];
        for kill in &self.kills {
            let times = match kill.times {
                1 => String::new(),
                u64::MAX => "xinf".to_string(),
                times => format!("x{times}"),
            };
            clauses.push(format!("kill={}@{}{times}", kill.node, kill.phase.label()));
        }
        if self.connect_refuse_pct > 0 {
            clauses.push(format!("connect={}", self.connect_refuse_pct));
        }
        if self.reset_pct > 0 {
            clauses.push(format!("reset={}", self.reset_pct));
        }
        if let Some((pct, ms)) = self.accept_delay {
            clauses.push(format!("accept-delay={pct}:{ms}"));
        }
        if let Some((pct, ms)) = self.stall {
            clauses.push(format!("stall={pct}:{ms}"));
        }
        clauses.join(";")
    }

    /// A copy with every kill rule for `dead` nodes removed — the
    /// supervisor uses this for the degraded generation (the dead slots
    /// run the crash adversary; killing them again would be a loop).
    #[must_use]
    pub fn without_kills_for(&self, dead: &[usize]) -> ChaosSpec {
        let mut spec = self.clone();
        spec.kills.retain(|kill| !dead.contains(&kill.node));
        spec
    }
}

// ---------------------------------------------------------------------
// ChaosInjector
// ---------------------------------------------------------------------

/// The per-process face of a [`ChaosSpec`]: every decision is a pure
/// function of `(spec.seed, node, incarnation, site, key, attempt)`, and
/// every *fired* injection is recorded in a shared trace. Clone-cheap —
/// clones share the trace.
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    spec: ChaosSpec,
    node: usize,
    incarnation: u64,
    trace: Arc<Mutex<Vec<String>>>,
}

impl ChaosInjector {
    /// Build the injector for one `(node, incarnation)` of a campaign.
    pub fn new(spec: ChaosSpec, node: usize, incarnation: u64) -> ChaosInjector {
        ChaosInjector {
            spec,
            node,
            incarnation,
            trace: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The spec the injector draws from.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    fn draw(&self, site: &str, key: u64, attempt: u64) -> u64 {
        mix(&[
            self.spec.seed,
            self.node as u64,
            self.incarnation,
            site_hash(site),
            key,
            attempt,
        ])
    }

    fn fire(&self, event: String) {
        self.trace.lock().expect("chaos trace lock").push(event);
    }

    /// Does a kill rule fire at `phase` for this `(node, incarnation)`?
    /// Records the kill in the trace when it does.
    pub fn should_kill(&self, phase: ChaosPhase) -> bool {
        let fires = self
            .spec
            .kills
            .iter()
            .any(|k| k.node == self.node && k.phase == phase && self.incarnation < k.times);
        if fires {
            self.fire(format!("kill phase={}", phase.label()));
        }
        fires
    }

    /// Refuse connect attempt `attempt` at `site` (before dialing)?
    pub fn refuse_connect(&self, site: &str, attempt: u64) -> bool {
        let fires = self.spec.connect_refuse_pct > 0
            && self.draw("connect", site_hash(site), attempt) % 100
                < u64::from(self.spec.connect_refuse_pct);
        if fires {
            self.fire(format!("refuse-connect site={site} attempt={attempt}"));
        }
        fires
    }

    /// Reset the handshake to `peer` on attempt `attempt` (drop the
    /// connection right after the TCP connect, before the id byte)?
    pub fn reset_handshake(&self, peer: usize, attempt: u64) -> bool {
        let fires = self.spec.reset_pct > 0
            && self.draw("reset", peer as u64, attempt) % 100 < u64::from(self.spec.reset_pct);
        if fires {
            self.fire(format!("reset-handshake peer={peer} attempt={attempt}"));
        }
        fires
    }

    /// Hold the accepted handshake from `peer` before meshing it in?
    pub fn accept_delay(&self, peer: usize) -> Option<Duration> {
        let (pct, ms) = self.spec.accept_delay?;
        let fires = pct > 0 && self.draw("accept", peer as u64, 0) % 100 < u64::from(pct);
        if fires {
            self.fire(format!("accept-delay peer={peer} ms={ms}"));
            return Some(Duration::from_millis(ms));
        }
        None
    }

    /// Stall the `idx`-th frame to `peer` in `round` halfway through the
    /// write?
    pub fn stall(&self, peer: usize, round: u32, idx: u64) -> Option<Duration> {
        let (pct, ms) = self.spec.stall?;
        let key = (peer as u64) << 32 | u64::from(round);
        let fires = pct > 0 && self.draw("stall", key, idx) % 100 < u64::from(pct);
        if fires {
            self.fire(format!("stall peer={peer} round={round} idx={idx} ms={ms}"));
            return Some(Duration::from_millis(ms));
        }
        None
    }

    /// Every fired injection so far, in canonical (sorted) order — the
    /// replayable trace. Two runs of the same `(seed, node, incarnation)`
    /// produce identical traces.
    pub fn trace(&self) -> Vec<String> {
        let mut trace = self.trace.lock().expect("chaos trace lock").clone();
        trace.sort();
        trace
    }

    /// Number of injections fired so far.
    pub fn injected(&self) -> u64 {
        self.trace.lock().expect("chaos trace lock").len() as u64
    }

    /// The `(node, incarnation)` the injector draws for.
    pub fn identity(&self) -> (usize, u64) {
        (self.node, self.incarnation)
    }
}

// ---------------------------------------------------------------------
// Retry with capped exponential backoff + seeded jitter
// ---------------------------------------------------------------------

/// Capped exponential backoff: attempt `k` (0-based) sleeps
/// `min(cap, base · 2^k)`, scaled by a seeded jitter factor in
/// `[0.5, 1.0)` so colliding workers spread out deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try counts; `1` disables retry).
    pub max_attempts: u32,
    /// Backoff base.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(40),
            cap: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (attempt once, fail loud).
    pub fn once() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retrying after failed attempt `attempt`
    /// (0-based), jittered by `seed`.
    pub fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(self.cap);
        // Jitter factor in [1/2, 1): keeps backoff monotone in
        // expectation while decorrelating concurrent retriers.
        let jitter = mix(&[seed, u64::from(attempt), 0x4A49_5454]) % 512;
        exp.mul_f64(0.5 + (jitter as f64) / 1024.0)
    }
}

/// Shared retry context for one worker: the policy, the jitter seed, and
/// a counter the worker surfaces through its summary.
#[derive(Debug, Clone)]
pub struct RetryCtx {
    /// The backoff policy.
    pub policy: RetryPolicy,
    /// Jitter seed (derive from the run seed + node for decorrelation).
    pub jitter_seed: u64,
    counter: Arc<std::sync::atomic::AtomicU64>,
}

impl RetryCtx {
    /// A context with the given policy and jitter seed.
    pub fn new(policy: RetryPolicy, jitter_seed: u64) -> RetryCtx {
        RetryCtx {
            policy,
            jitter_seed,
            counter: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// How many retries (attempts after the first) have been spent.
    pub fn retries(&self) -> u64 {
        self.counter.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn record_retry(&self) {
        self.counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Default for RetryCtx {
    fn default() -> Self {
        RetryCtx::new(RetryPolicy::default(), 0)
    }
}

/// Run `op` under the retry policy: transient failures (as judged by
/// `retryable`) are retried with capped, jittered backoff; success or a
/// non-retryable failure returns immediately; an exhausted budget returns
/// the typed [`TransportError::Exhausted`] carrying the final error. With
/// retry disabled ([`RetryPolicy::once`]) the single attempt's error
/// passes through untouched — no `Exhausted` wrapper around a budget that
/// never existed.
///
/// `op` receives the 0-based attempt number (chaos injection keys off
/// it).
pub fn with_retry<T>(
    node: NodeId,
    context: &str,
    ctx: &RetryCtx,
    retryable: impl Fn(&TransportError) -> bool,
    mut op: impl FnMut(u64) -> Result<T, TransportError>,
) -> Result<T, TransportError> {
    let attempts = ctx.policy.max_attempts.max(1);
    let mut last: Option<TransportError> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(ctx.policy.backoff(attempt - 1, ctx.jitter_seed));
            ctx.record_retry();
        }
        match op(u64::from(attempt)) {
            Ok(value) => return Ok(value),
            Err(e) if retryable(&e) && attempt + 1 < attempts => last = Some(e),
            Err(e) if retryable(&e) && attempts > 1 => {
                return Err(TransportError::Exhausted {
                    node,
                    context: context.to_string(),
                    attempts,
                    last: e.to_string(),
                })
            }
            Err(e) => return Err(e),
        }
    }
    // Unreachable: the loop always returns. Kept for totality.
    Err(TransportError::Exhausted {
        node,
        context: context.to_string(),
        attempts,
        last: last.map(|e| e.to_string()).unwrap_or_default(),
    })
}

/// The default judgement of what is worth retrying: connection-level
/// failures that a healthy peer heals (refused/reset connects, broken
/// handshakes, plain socket errors). Deadlines, kills, protocol
/// violations, and already-exhausted budgets are final.
pub fn transient(error: &TransportError) -> bool {
    matches!(
        error,
        TransportError::Connect { .. }
            | TransportError::Handshake { .. }
            | TransportError::Io { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_spec_round_trips_through_the_clause_syntax() {
        let text = "seed=7;kill=2@round:1;kill=0@keydistxinf;kill=3@teardownx2;connect=30;reset=20;accept-delay=50:5;stall=25:2";
        let spec = ChaosSpec::parse(text).expect("parse");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.kills.len(), 3);
        assert_eq!(
            spec.kills[0],
            KillRule {
                node: 2,
                phase: ChaosPhase::Round(1),
                times: 1
            }
        );
        assert_eq!(spec.kills[1].times, u64::MAX);
        assert_eq!(spec.kills[2].times, 2);
        assert_eq!(spec.connect_refuse_pct, 30);
        assert_eq!(spec.stall, Some((25, 2)));
        let reparsed = ChaosSpec::parse(&spec.to_spec_string()).expect("reparse");
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn chaos_spec_rejects_malformed_clauses() {
        for bad in [
            "seed",
            "kill=2",
            "kill=2@round:x",
            "connect=101",
            "stall=50",
            "frobnicate=1",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn injection_decisions_are_deterministic_and_trace_identically() {
        let spec = ChaosSpec::parse("seed=11;connect=40;reset=30;stall=50:1;accept-delay=60:1")
            .expect("parse");
        let run = |spec: &ChaosSpec| {
            let inj = ChaosInjector::new(spec.clone(), 3, 0);
            for attempt in 0..6 {
                let _ = inj.refuse_connect("peer2", attempt);
                let _ = inj.reset_handshake(2, attempt);
            }
            for peer in 0..4 {
                let _ = inj.accept_delay(peer);
                for idx in 0..3 {
                    let _ = inj.stall(peer, 1, idx);
                }
            }
            inj.trace()
        };
        let a = run(&spec);
        let b = run(&spec);
        assert_eq!(a, b, "same seed must fire the same injections");
        assert!(!a.is_empty(), "spec with high percentages must fire");
        let other = ChaosSpec {
            seed: 12,
            ..spec.clone()
        };
        assert_ne!(run(&other), a, "a different seed must diverge");
    }

    #[test]
    fn kill_rules_respect_incarnation_budgets() {
        let spec =
            ChaosSpec::parse("kill=1@round:2;kill=2@keydistx3;kill=3@teardownxinf").expect("parse");
        // times = 1: first incarnation only.
        assert!(ChaosInjector::new(spec.clone(), 1, 0).should_kill(ChaosPhase::Round(2)));
        assert!(!ChaosInjector::new(spec.clone(), 1, 1).should_kill(ChaosPhase::Round(2)));
        // wrong phase or node: never.
        assert!(!ChaosInjector::new(spec.clone(), 1, 0).should_kill(ChaosPhase::Round(1)));
        assert!(!ChaosInjector::new(spec.clone(), 0, 0).should_kill(ChaosPhase::Round(2)));
        // times = 3: incarnations 0..3.
        assert!(ChaosInjector::new(spec.clone(), 2, 2).should_kill(ChaosPhase::Keydist));
        assert!(!ChaosInjector::new(spec.clone(), 2, 3).should_kill(ChaosPhase::Keydist));
        // xinf: forever.
        assert!(ChaosInjector::new(spec.clone(), 3, 900).should_kill(ChaosPhase::Teardown));
        // stripping for degraded generations removes the rule.
        let stripped = spec.without_kills_for(&[3]);
        assert!(!ChaosInjector::new(stripped, 3, 900).should_kill(ChaosPhase::Teardown));
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(40),
            cap: Duration::from_millis(500),
        };
        for attempt in 0..8 {
            let full = Duration::from_millis(40)
                .saturating_mul(2u32.pow(attempt))
                .min(Duration::from_millis(500));
            let b = policy.backoff(attempt, 9);
            assert!(
                b >= full.mul_f64(0.5) && b < full,
                "attempt {attempt}: {b:?}"
            );
            assert_eq!(b, policy.backoff(attempt, 9), "jitter must be seeded");
        }
    }

    #[test]
    fn with_retry_recovers_then_exhausts_loudly() {
        let ctx = RetryCtx::new(
            RetryPolicy {
                max_attempts: 4,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
            7,
        );
        let flaky = |fail_until: u64| {
            let ctx = ctx.clone();
            move |attempt: u64| -> Result<u64, TransportError> {
                let _ = &ctx;
                if attempt < fail_until {
                    Err(TransportError::Connect {
                        node: NodeId(0),
                        peer: NodeId(1),
                        error: "synthetic refuse".to_string(),
                    })
                } else {
                    Ok(attempt)
                }
            }
        };
        let ok = with_retry(NodeId(0), "test", &ctx, transient, flaky(2)).expect("recovers");
        assert_eq!(ok, 2);
        assert_eq!(ctx.retries(), 2);

        let err =
            with_retry(NodeId(0), "test", &ctx, transient, flaky(99)).expect_err("must exhaust");
        match err {
            TransportError::Exhausted { attempts, last, .. } => {
                assert_eq!(attempts, 4);
                assert!(last.contains("refuse"), "{last}");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }

        // Non-retryable errors pass through untouched.
        let fatal = with_retry(NodeId(0), "test", &ctx, transient, |_| {
            Err::<(), _>(TransportError::Protocol {
                node: NodeId(0),
                detail: "bad frame".to_string(),
            })
        })
        .expect_err("fatal");
        assert!(matches!(fatal, TransportError::Protocol { .. }));
    }
}
