//! The supervisor behind `lafd cluster`: worker generations under the
//! paper's `t` bound. Up to `t` slots dead past their restart budget
//! degrade the run to crash-adversary semantics; more than `t` fail it.
//!
//! [`Policy`] is that rule as a pure step over one generation's
//! [`GenExit`]s; [`supervise`] runs the processes around it.

use super::{assemble_report, registry_call, ClusterTotals, ExitKind, GenExit, Generation};
use super::{KillOnDrop, WorkerConfig};
use crate::adversary::{AdversaryKind, AdversarySpec};
use crate::runner::FdRunReport;
use crate::spec::SpecBuilder;
use crate::wire::{self, RegistryReply, RegistryRequest};
use fd_simnet::transport::chaos::{ChaosSpec, RetryPolicy};
use fd_simnet::NodeId;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How `lafd cluster` runs its workers, beyond the run shape. Every
/// worker's [`WorkerConfig`] is derived from it ([`ClusterConfig::worker`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Transport/registry no-progress deadline (`--io-deadline-secs`,
    /// whole seconds on the worker command line).
    pub io_deadline: Duration,
    /// Wall-clock duration of one virtual round for the delay shim
    /// (`--round-wall-us`).
    pub round_wall: Duration,
    /// Crashes each worker slot may accrue before it is declared dead
    /// (`--max-restarts`).
    pub max_restarts: u64,
    /// Deterministic fault campaign injected into every worker
    /// (`--chaos SPEC`).
    pub chaos: Option<ChaosSpec>,
    /// External registry address (`--registry ADDR`); `None` spawns a
    /// private localhost registry child.
    pub registry: Option<String>,
    /// Interface workers bind and advertise (`--bind HOST`).
    pub bind: String,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            io_deadline: Duration::from_secs(60),
            round_wall: Duration::ZERO,
            max_restarts: 1,
            chaos: None,
            registry: None,
            bind: "127.0.0.1".to_string(),
        }
    }
}

impl ClusterConfig {
    /// Worker `node`'s configuration in generation `incarnation` of run
    /// `run` on the registry at `registry`.
    pub fn worker(
        &self,
        registry: String,
        run: String,
        node: usize,
        incarnation: u64,
    ) -> WorkerConfig {
        WorkerConfig {
            registry,
            run,
            node,
            io_deadline: self.io_deadline,
            round_wall: self.round_wall,
            incarnation,
            bind: self.bind.clone(),
            retry: RetryPolicy::default(),
            chaos: self.chaos.clone(),
        }
    }
}

/// `builder` with the slots in `dead` scripted as silent relays: the
/// crash adversary a degraded cluster run reproduces (parity with
/// `--crash`).
pub fn degraded(builder: &SpecBuilder, dead: &[usize]) -> SpecBuilder {
    builder.clone().with_adversary(AdversarySpec::scripted_at(
        AdversaryKind::SilentRelay,
        dead.iter().map(|&node| NodeId(node as u16)).collect(),
    ))
}

/// Resilience counters of one supervised cluster run.
#[derive(Debug, Clone)]
pub struct Resilience {
    /// Worker generations launched (1 = the first try succeeded).
    pub generations: u64,
    /// Transport/registry retries summed over the final generation's
    /// worker summaries (0 when the run failed).
    pub retries: u64,
    /// Slots declared dead past their restart budget (sorted).
    pub dead: Vec<usize>,
    /// Whether the run finished (or failed) under crash-adversary
    /// degradation.
    pub degraded: bool,
}

/// A supervised cluster run that produced a report.
#[derive(Debug)]
pub struct Supervised {
    /// The report, byte-comparable with the in-process run.
    pub report: FdRunReport,
    /// Key-distribution totals across workers.
    pub totals: ClusterTotals,
    /// How the run got there.
    pub resilience: Resilience,
}

/// A supervised cluster run that failed, with the counters it reached.
#[derive(Debug, Clone)]
pub struct Aborted {
    /// Why the run failed.
    pub error: String,
    /// The generations launched and the slots declared dead.
    pub resilience: Resilience,
}

/// What the supervisor does after a generation ([`Policy::step`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Every worker exited cleanly: collect the generation's summaries.
    Collect,
    /// Relaunch after crashes of these slots (in exit order), each
    /// within its budget.
    Restart(Vec<usize>),
    /// Relaunch after collateral failures only, with this many such
    /// generations still allowed.
    Flake(u32),
    /// Relaunch degraded to crash-adversary semantics at every slot
    /// declared dead so far (sorted).
    Degrade(Vec<usize>),
    /// Give up; the run fails loudly.
    Abort(String),
}

/// The restart/degrade/abort policy of a supervised run, free of
/// processes: it sees each generation's classified exits and nothing
/// else.
///
/// A crash is charged to its slot; a slot with more than `max_restarts`
/// crashes is dead. Up to `t` dead slots degrade the run (unless it
/// already scripts an adversary); more fail it, and so does a dead slot
/// crashing again under degradation or a genuine bug. Collateral-only
/// generations restart on a budget of [`Policy::FLAKES`], and
/// `n · (max_restarts + 1) + 4` generations stop any run.
#[derive(Debug, Clone)]
pub struct Policy {
    t: usize,
    max_restarts: u64,
    scripted: bool,
    max_generations: u64,
    generation: u64,
    crashes: BTreeMap<usize, u64>,
    dead: Vec<usize>,
    degraded: bool,
    flakes_left: u32,
}

impl Policy {
    /// Collateral-only generations a run may lose.
    pub const FLAKES: u32 = 3;

    /// The policy for runs of `builder` with `max_restarts` crashes
    /// allowed per slot.
    pub fn new(builder: &SpecBuilder, max_restarts: u64) -> Self {
        Policy {
            t: builder.resolved_t(),
            max_restarts,
            scripted: !builder.adversary.is_honest(),
            // Every slot may burn its full restart budget, plus the
            // degraded generation and the flakes.
            max_generations: (builder.n as u64)
                .saturating_mul(max_restarts.saturating_add(1))
                .saturating_add(4),
            generation: 0,
            crashes: BTreeMap::new(),
            dead: Vec::new(),
            degraded: false,
            flakes_left: Self::FLAKES,
        }
    }

    /// The generation to launch (or being run) next, from 0.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The slots declared dead so far (sorted).
    pub fn dead(&self) -> &[usize] {
        &self.dead
    }

    /// Whether the run is degraded to crash-adversary semantics.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Decide what follows the generation whose workers exited as
    /// `exits`. Every relaunch advances [`Policy::generation`].
    pub fn step(&mut self, exits: &[GenExit]) -> Step {
        let mut crashed: Vec<usize> = Vec::new();
        let mut bug: Option<&str> = None;
        let mut clean = true;
        for exit in exits {
            clean &= exit.kind == ExitKind::Ok;
            match exit.kind {
                ExitKind::Crash => crashed.push(exit.node),
                ExitKind::Bug => bug = Some(&exit.desc),
                _ => {}
            }
        }
        if clean {
            return Step::Collect;
        }
        if let Some(desc) = bug {
            return Step::Abort(format!("{desc} — a genuine failure, not a crash"));
        }
        let step = if crashed.is_empty() {
            if self.flakes_left == 0 {
                return Step::Abort(
                    "collateral failures exhausted the flake budget; the cluster cannot make progress"
                        .to_string(),
                );
            }
            self.flakes_left -= 1;
            Step::Flake(self.flakes_left)
        } else {
            let mut fatal: Option<String> = None;
            for &node in &crashed {
                if self.dead.contains(&node) {
                    fatal = Some(format!("worker {node} crashed again after degradation"));
                }
                *self.crashes.entry(node).or_insert(0) += 1;
            }
            if let Some(error) = fatal {
                return Step::Abort(error);
            }
            let newly_dead: Vec<usize> = self
                .crashes
                .iter()
                .filter(|&(node, &count)| count > self.max_restarts && !self.dead.contains(node))
                .map(|(&node, _)| node)
                .collect();
            if newly_dead.is_empty() {
                Step::Restart(crashed)
            } else {
                self.dead.extend(newly_dead);
                self.dead.sort_unstable();
                let dead = &self.dead;
                if dead.len() > self.t {
                    return Step::Abort(format!(
                        "workers {dead:?} are dead past their restart budget — {} crash failures exceed t = {}",
                        dead.len(),
                        self.t
                    ));
                }
                if self.scripted {
                    return Step::Abort(format!(
                        "workers {dead:?} are dead past their restart budget and the run already scripts an adversary; cannot degrade"
                    ));
                }
                self.degraded = true;
                Step::Degrade(self.dead.clone())
            }
        };
        self.generation += 1;
        if self.generation >= self.max_generations {
            return Step::Abort(format!(
                "restart budget exhausted after {} generations",
                self.generation
            ));
        }
        step
    }
}

/// A run id unique to one supervised run of this process, so runs that
/// share an external registry (every campaign of one `lafd chaos`
/// included) never meet each other's rosters or generations.
fn run_id(builder: &SpecBuilder) -> String {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    format!(
        "cluster-{}-n{}-seed{}-p{}-r{}",
        builder.protocol.name(),
        builder.n,
        builder.seed,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    )
}

/// Spawn `exe registry` on an ephemeral localhost port and read the
/// address it announces on its first stdout line.
fn spawn_registry(exe: &Path, wait_limit: Duration) -> Result<(KillOnDrop, String), String> {
    let mut child = KillOnDrop(
        Command::new(exe)
            .args(["registry", "--listen", "127.0.0.1:0", "--wait-limit-secs"])
            .arg(wait_limit.as_secs().to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn registry: {e}"))?,
    );
    let mut line = String::new();
    let stdout = child.0.stdout.take().expect("stdout was piped");
    let _ = BufReader::new(stdout).read_line(&mut line);
    let addr = line.trim().strip_prefix("registry listening on ");
    let addr = addr.ok_or_else(|| format!("registry did not announce an address (got {line:?})"));
    Ok((child, addr?.to_string()))
}

/// Run a cluster of `exe cluster-worker` processes under supervision.
///
/// Each generation re-registers under an incremented incarnation that
/// the registry fences stale sessions by; [`Policy`] decides after each
/// one whether to restart, degrade (to [`degraded`]`(builder, dead)`,
/// with the dead slots' kill rules stripped from the chaos spec) or
/// abort. Launch lines and worker stdout go to `out`; exit and restart
/// diagnostics to stderr. Unless `cfg.registry` names one, a private
/// registry child (`exe registry`) lives across the generations and is
/// stopped on every way out.
pub fn supervise(
    exe: &Path,
    builder: &SpecBuilder,
    cfg: &ClusterConfig,
    out: &mut impl Write,
) -> Result<Supervised, Aborted> {
    let mut policy = Policy::new(builder, cfg.max_restarts);
    let mut launched: u64 = 0;
    let run = run_id(builder);
    let mut registry_child: Option<KillOnDrop> = None;
    let addr = match &cfg.registry {
        Some(addr) => Ok(addr.clone()),
        None => spawn_registry(exe, cfg.io_deadline).map(|(child, addr)| {
            registry_child = Some(child);
            addr
        }),
    };
    let outcome = addr.and_then(|addr| loop {
        let generation = policy.generation();
        let mut shape = builder.clone();
        let mut gen_cfg = cfg.clone();
        if policy.degraded() {
            shape = degraded(builder, policy.dead());
            gen_cfg.chaos = cfg
                .chaos
                .as_ref()
                .map(|spec| spec.without_kills_for(policy.dead()));
        }
        let request = wire::request_to_json(&shape, None)?;
        let workers = Generation::spawn((0..builder.n).map(|node| {
            let worker = gen_cfg.worker(addr.clone(), run.clone(), node, generation);
            let mut cmd = Command::new(exe);
            cmd.arg("cluster-worker").args(worker.to_args(&request));
            (node, cmd)
        }))?;
        launched += 1;
        writeln!(
            out,
            "cluster {}: registry at {addr}, {} worker processes launched (generation {generation})",
            builder.protocol.name(),
            builder.n
        )
        .map_err(|e| format!("write: {e}"))?;
        let exits = workers.wait(cfg.io_deadline, out)?;
        for exit in exits.iter().filter(|exit| exit.kind != ExitKind::Ok) {
            eprintln!("error: {} (generation {generation})", exit.desc);
        }
        match policy.step(&exits) {
            Step::Collect => break collect(&addr, &run, cfg.io_deadline),
            Step::Restart(crashed) => eprintln!(
                "cluster: restarting after crash of worker(s) {crashed:?} (generation {} next)",
                policy.generation()
            ),
            Step::Flake(flakes_left) => eprintln!(
                "cluster: generation {generation} lost to collateral failures; restarting ({flakes_left} flakes left)"
            ),
            Step::Degrade(dead) => eprintln!(
                "cluster: degrading to crash-adversary semantics — nodes {dead:?} presumed crashed (silent-relay, parity with --crash)"
            ),
            Step::Abort(error) => break Err(error),
        }
    });
    drop(registry_child);
    let resilience = Resilience {
        generations: launched,
        retries: 0,
        dead: policy.dead,
        degraded: policy.degraded,
    };
    let aborted = |error: String| Aborted {
        error,
        resilience: resilience.clone(),
    };
    let summaries = outcome.map_err(aborted)?;
    let (report, totals) =
        assemble_report(builder.protocol, builder.n, &summaries).map_err(aborted)?;
    Ok(Supervised {
        report,
        totals,
        resilience: Resilience {
            retries: summaries.iter().map(|worker| worker.retries).sum(),
            ..resilience
        },
    })
}

/// Collect the final generation's summaries while the registry is still
/// up (each new generation cleared every older one).
fn collect(
    addr: &str,
    run: &str,
    io_deadline: Duration,
) -> Result<Vec<wire::WorkerSummary>, String> {
    let request = RegistryRequest::Collect {
        run: run.to_string(),
    };
    match registry_call(addr, &request, io_deadline) {
        Ok(RegistryReply::Summaries { workers }) => Ok(workers),
        Ok(other) => Err(format!("registry returned {other:?} instead of summaries")),
        Err(e) => Err(format!("collect summaries: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Protocol;
    use ExitKind::{Bug, Collateral, Crash, Excluded, Ok};

    /// The policy of `lafd cluster chain -n 4 --t T` with the default
    /// restart budget of 1.
    fn policy(t: usize) -> Policy {
        let builder = SpecBuilder::new(Protocol::ChainFd, 4).with_t(t);
        Policy::new(&builder, ClusterConfig::default().max_restarts)
    }

    /// A generation of 4 workers: `kinds[i]` for slot `i`.
    fn generation(kinds: [ExitKind; 4]) -> Vec<GenExit> {
        (0..4)
            .map(|node| GenExit {
                node,
                kind: kinds[node],
                desc: format!("worker {node} exited ({:?})", kinds[node]),
            })
            .collect()
    }

    /// Step `policy` through `generations`, returning every decision.
    fn steps<const G: usize>(policy: &mut Policy, generations: [[ExitKind; 4]; G]) -> Vec<Step> {
        generations
            .into_iter()
            .map(|kinds| policy.step(&generation(kinds)))
            .collect()
    }

    #[test]
    fn a_clean_generation_is_collected() {
        let mut p = policy(1);
        assert_eq!(steps(&mut p, [[Ok; 4]]), [Step::Collect]);
        assert_eq!(p.generation(), 0);
    }

    #[test]
    fn a_crash_within_its_budget_restarts() {
        let mut p = policy(1);
        let step = steps(&mut p, [[Ok, Crash, Collateral, Excluded]]);
        assert_eq!(step, [Step::Restart(vec![1])]);
        assert_eq!(
            (p.generation(), p.dead(), p.degraded()),
            (1, &[][..], false)
        );
    }

    #[test]
    fn a_slot_past_its_budget_within_t_degrades_the_run() {
        let mut p = policy(1);
        let crash_1 = [Collateral, Crash, Collateral, Collateral];
        assert_eq!(
            steps(&mut p, [crash_1, crash_1, [Ok; 4]]),
            [
                Step::Restart(vec![1]),
                Step::Degrade(vec![1]),
                Step::Collect
            ]
        );
        assert_eq!(
            (p.generation(), p.dead(), p.degraded()),
            (2, &[1][..], true)
        );
    }

    #[test]
    fn more_dead_slots_than_t_abort_and_keep_the_dead_set() {
        let mut p = policy(1);
        let crash_0_1 = [Crash, Crash, Collateral, Excluded];
        let decided = steps(&mut p, [crash_0_1, crash_0_1]);
        assert_eq!(decided[0], Step::Restart(vec![0, 1]));
        assert_eq!(
            decided[1],
            Step::Abort(
                "workers [0, 1] are dead past their restart budget — 2 crash failures exceed t = 1"
                    .to_string()
            )
        );
        assert_eq!((p.generation(), p.dead()), (1, &[0, 1][..]));
        // The same two slots fit a budget of t = 2.
        let mut p = policy(2);
        let decided = steps(&mut p, [crash_0_1, crash_0_1]);
        assert_eq!(decided[1], Step::Degrade(vec![0, 1]));
    }

    #[test]
    fn a_dead_slot_crashing_again_after_degradation_aborts() {
        let mut p = policy(1);
        let crash_1 = [Ok, Crash, Collateral, Collateral];
        let decided = steps(&mut p, [crash_1, crash_1, crash_1]);
        assert_eq!(
            decided[2],
            Step::Abort("worker 1 crashed again after degradation".to_string())
        );
    }

    #[test]
    fn a_run_that_scripts_an_adversary_cannot_degrade() {
        let scripted = degraded(&SpecBuilder::new(Protocol::ChainFd, 4).with_t(1), &[3]);
        let mut p = Policy::new(&scripted, 1);
        let crash_1 = [Ok, Crash, Collateral, Collateral];
        let Step::Abort(error) = steps(&mut p, [crash_1, crash_1]).remove(1) else {
            panic!("a dead slot under a scripted adversary must abort");
        };
        assert!(
            error.ends_with("already scripts an adversary; cannot degrade"),
            "{error}"
        );
    }

    #[test]
    fn a_bug_aborts_even_beside_a_crash() {
        let mut p = policy(1);
        let Step::Abort(error) = p.step(&generation([Crash, Bug, Ok, Ok])) else {
            panic!("a bug must abort");
        };
        assert_eq!(
            error,
            "worker 1 exited (Bug) — a genuine failure, not a crash"
        );
    }

    #[test]
    fn collateral_only_generations_restart_until_the_flake_budget_runs_out() {
        let mut p = policy(1);
        let flake = [Collateral, Excluded, Collateral, Ok];
        assert_eq!(
            steps(&mut p, [flake; 4]),
            [
                Step::Flake(2),
                Step::Flake(1),
                Step::Flake(0),
                Step::Abort(
                    "collateral failures exhausted the flake budget; the cluster cannot make progress"
                        .to_string()
                ),
            ]
        );
        assert_eq!(p.generation(), u64::from(Policy::FLAKES));
    }

    /// Run `lafd chaos`-style round-1 kills of `slots` (each rule firing
    /// for `times` incarnations, and stripped once its slot is dead)
    /// through the policy of an `n`-worker run at `t`. `charge` picks
    /// which of a generation's firing slots are reaped as crashes; the
    /// rest of that generation is stopped. Returns the terminal step, the
    /// dead set and the generations launched.
    fn run_kills(
        n: usize,
        t: usize,
        slots: &[usize],
        times: u64,
        charge: fn(&[usize]) -> &[usize],
    ) -> (Step, Vec<usize>, u64) {
        let builder = SpecBuilder::new(Protocol::ChainFd, n).with_t(t);
        let mut p = Policy::new(&builder, ClusterConfig::default().max_restarts);
        loop {
            let firing: Vec<usize> = slots
                .iter()
                .copied()
                .filter(|slot| p.generation() < times && !p.dead().contains(slot))
                .collect();
            let crashed = charge(&firing);
            let exits: Vec<GenExit> = (0..n)
                .map(|node| {
                    let kind = if crashed.contains(&node) {
                        Crash
                    } else if firing.is_empty() {
                        Ok
                    } else {
                        Excluded
                    };
                    GenExit {
                        node,
                        kind,
                        desc: format!("worker {node} exited ({kind:?})"),
                    }
                })
                .collect();
            if let step @ (Step::Collect | Step::Abort(_)) = p.step(&exits) {
                return (step, p.dead().to_vec(), p.generation() + 1);
            }
        }
    }

    #[test]
    fn crashes_split_across_generations_reach_the_same_end_as_crashes_together() {
        // (n, t, killed slots, incarnations each kill fires for): the
        // `kill-beyond-t` campaigns at t = 1 and t = 2, and a transient
        // two-slot kill.
        let cases = [
            (4, 1, &[0, 1][..], u64::MAX),
            (8, 2, &[0, 1, 2], u64::MAX),
            (4, 1, &[0, 1], 1),
        ];
        for (n, t, slots, times) in cases {
            let (end, dead) = if times == u64::MAX {
                let error = format!(
                    "workers {slots:?} are dead past their restart budget — {} crash failures exceed t = {t}",
                    slots.len()
                );
                (Step::Abort(error), slots)
            } else {
                (Step::Collect, &[][..])
            };
            let together = run_kills(n, t, slots, times, |firing| firing);
            // A stop racing the other crashes charges one per generation,
            // whichever the sweep happened to reap first.
            let lowest = run_kills(n, t, slots, times, |firing| &firing[..firing.len().min(1)]);
            let highest = run_kills(n, t, slots, times, |firing| {
                &firing[firing.len().saturating_sub(1)..]
            });
            for run in [&together, &lowest, &highest] {
                assert_eq!(
                    (&run.0, &run.1[..]),
                    (&end, dead),
                    "{slots:?} at t = {t}: {run:?}, together {together:?}"
                );
            }
        }
    }

    #[test]
    fn the_generation_backstop_stops_a_run() {
        let mut p = policy(1);
        assert_eq!(p.max_generations, 4 * 2 + 4);
        p.max_generations = 2;
        let crash_2 = [Ok, Ok, Crash, Ok];
        assert_eq!(
            steps(&mut p, [crash_2, [Collateral; 4]]),
            [
                Step::Restart(vec![2]),
                Step::Abort("restart budget exhausted after 2 generations".to_string())
            ]
        );
    }
}
