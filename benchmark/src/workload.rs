//! The end-to-end pass: set-up, then one closed-loop timed phase through the
//! real `lafd` binary, every op checked.

use crate::calib::Speed;
use crate::check::{self, Checked};
use crate::gen::{self, Op, Workload};
use crate::json::Json;
use crate::proc::{self, Conn, Server, Watchdog};
use fd_core::runner::KeyDistReport;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Set-up is repeated in the measured runs and its median reported, so one
/// slow spawn does not decide `setup_s`: five times, or three once that has
/// taken three seconds. The short legs of the traced pass report no
/// `setup_s` and set up once.
fn more_setup(limit: Limit, reps: &[Duration]) -> bool {
    match limit {
        Limit::Cycles(_) => reps.is_empty(),
        Limit::Seconds(_) => {
            reps.len() < 3 || (reps.len() < 5 && reps.iter().sum::<Duration>().as_secs_f64() < 3.0)
        }
    }
}

/// What every pass needs: the binary under test, a scratch directory inside
/// the checkout, and the hung-child watchdog.
pub struct Ctx {
    pub lafd: PathBuf,
    pub work: PathBuf,
    pub watchdog: Watchdog,
}

/// Scratch directory inside the checkout (under the ignored target dir).
pub fn work_dir() -> Result<PathBuf, String> {
    let work = proc::target_dir().join("lafd-benchmark-work");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    Ok(work)
}

impl Ctx {
    /// Starts the watchdog thread, so the process is multi-threaded from
    /// here on.
    pub fn new(lafd: PathBuf) -> Result<Ctx, String> {
        let work = work_dir()?;
        // Start each run with an empty post-mortem log.
        let _ = std::fs::remove_file(work.join("children.stderr"));
        Ok(Ctx {
            lafd,
            work,
            watchdog: Watchdog::start(),
        })
    }

    fn stderr_log(&self) -> PathBuf {
        self.work.join("children.stderr")
    }
}

/// When the timed phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Wall-clock seconds (the measured runs).
    Seconds(f64),
    /// Whole cycles per client (the short legs of the traced pass).
    Cycles(usize),
}

/// One checked op: its position in the cycle and its client-side latency
/// (at reference speed where the pass is speed-corrected).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub pos: usize,
    pub ms: f64,
    /// Server-reported execution time (serve workloads only).
    pub exec_us: Option<f64>,
}

/// Service counters over the timed phase (serve workloads only).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    pub keydist_reuse_pct: f64,
    pub evictions: f64,
    pub queue_peak: f64,
}

/// Everything one end-to-end pass measured.
#[derive(Debug, Default)]
pub struct E2e {
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    pub samples: Vec<Sample>,
    /// Length of the timed phase: wall seconds, or on a speed-corrected pass
    /// the seconds its ops would have taken at reference speed.
    pub elapsed_s: f64,
    pub setup_s: f64,
    pub peak_rss_kb: u64,
    pub msgs_per_op: f64,
    pub bytes_per_op: f64,
    /// The benchmark's own CPU over wall during the timed phase, percent.
    pub loadgen_busy_pct: f64,
    pub service: Option<ServiceCounters>,
    /// Median speed probe of a speed-corrected pass, in milliseconds.
    pub probe_ms: Option<f64>,
}

impl E2e {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }
}

/// Key distributions computed once per `(n, scheme, seed)` for the
/// byte-identity references of the serve workloads.
#[derive(Default)]
struct References {
    keys: HashMap<(usize, String, u64), KeyDistReport>,
}

impl References {
    fn report(&mut self, op: &Op) -> String {
        let (cluster, spec) = op.builder.build().expect("generated ops validate");
        let b = &op.builder;
        let keydist = self
            .keys
            .entry((b.n, b.scheme.clone(), b.seed))
            .or_insert_with(|| cluster.setup_keydist());
        let keydist = spec.protocol.needs_keys().then_some(&*keydist);
        cluster.run_with_keys(&spec, keydist).to_json()
    }
}

/// Sums over the first complete cycle of every client.
#[derive(Default)]
struct FirstCycle {
    ops: usize,
    messages: usize,
    bytes: usize,
}

impl FirstCycle {
    fn add(&mut self, checked: Checked) {
        self.ops += 1;
        self.messages += checked.messages;
        self.bytes += checked.bytes;
    }

    fn merge(&mut self, other: &FirstCycle) {
        self.ops += other.ops;
        self.messages += other.messages;
        self.bytes += other.bytes;
    }

    /// Mean messages and bytes per op, once `expected` ops were seen.
    fn means(&self, expected: usize) -> Option<(f64, f64)> {
        (self.ops == expected && expected > 0).then(|| {
            (
                self.messages as f64 / self.ops as f64,
                self.bytes as f64 / self.ops as f64,
            )
        })
    }
}

/// Run one process-per-op op through the real binary and check it.
fn process_op(
    ctx: &Ctx,
    workload: Workload,
    op: &Op,
    reference: Option<&str>,
) -> Result<(Checked, proc::Exit), String> {
    let mut cmd = Command::new(&ctx.lafd);
    if workload == Workload::ClusterChaos {
        let b = &op.builder;
        cmd.args(["cluster", "chain", "-n", &b.n.to_string()])
            .args(["--t", &b.resolved_t().to_string()])
            .args(["--seed", &b.seed.to_string()])
            .args(["--scheme", &b.scheme])
            .args(["--value", std::str::from_utf8(&b.input).expect("hex text")]);
        if let Some(chaos) = &op.chaos {
            cmd.args(["--chaos", chaos]);
        }
    } else {
        let spec = ctx.work.join("op.json");
        std::fs::write(&spec, gen::request_line(op))
            .map_err(|e| format!("writing {}: {e}", spec.display()))?;
        cmd.arg("run").arg("--spec").arg(&spec);
    }
    let exit = proc::run_to_exit(&mut cmd, &ctx.watchdog, &ctx.stderr_log())?;
    if exit.timed_out {
        return Err(format!("op exceeded the {:?} deadline", proc::OP_DEADLINE));
    }
    if exit.code != Some(0) {
        return Err(format!("lafd exited with {:?}", exit.code));
    }
    // `lafd cluster` prints progress lines first; the report is the last line.
    let report = exit.stdout.lines().last().unwrap_or("");
    let checked = check::check_report(op, report, reference)?;
    Ok((checked, exit))
}

fn median_secs(reps: &[Duration]) -> f64 {
    let secs: Vec<f64> = reps.iter().map(Duration::as_secs_f64).collect();
    crate::stats::median(&secs).expect("at least one set-up repetition")
}

fn limit_reached(limit: Limit, started: Instant, index: usize, cycle: usize) -> bool {
    match limit {
        Limit::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        Limit::Cycles(c) => index >= c * cycle,
    }
}

/// The process-per-op workloads: `lafd run --spec` and `lafd cluster`.
fn run_processes(ctx: &Ctx, workload: Workload, seed: u64, limit: Limit) -> Result<E2e, String> {
    let cycle = workload.cycle_len();
    // Byte identity: the first op of the cold workloads; every op of the
    // cluster workload (n = 8 is cheap), the killed ones included.
    let every_op = workload == Workload::ClusterChaos;
    let referenced = if every_op { cycle } else { 1 };
    // The measured runs of the CPU-bound workloads report times at reference
    // speed (see `calib`); the short legs of the traced pass stay raw like
    // the in-process replicas they are compared with.
    let mut speed = Speed::new(workload.speed_corrected() && matches!(limit, Limit::Seconds(_)))?;

    // Set-up: the references of the first cycle, and a warm-up through the
    // real binary (one op; a whole cycle where ops are cheap) so the first
    // timed op finds it paged in. Warm-up ops come from the complemented
    // seed, outside the generated stream.
    let mut reps = Vec::new();
    let mut references: Vec<String> = Vec::new();
    while more_setup(limit, &reps) {
        let started = Instant::now();
        references = (0..referenced)
            .map(|i| check::reference_report(&gen::op(workload, seed, 0, i)))
            .collect();
        for i in 0..referenced {
            let warm = gen::op(workload, !seed, 0, reps.len() * cycle + i);
            process_op(ctx, workload, &warm, None)
                .map_err(|e| format!("{}: warm-up op failed: {e}", workload.name()))?;
        }
        let took = started.elapsed();
        reps.push(took.mul_f64(speed.factor()?));
    }

    let mut out = E2e {
        setup_s: median_secs(&reps),
        ..E2e::default()
    };
    let mut first = FirstCycle::default();
    let started = Instant::now();
    let cpu0 = proc::self_cpu_seconds();
    let mut index = 0;
    while !limit_reached(limit, started, index, cycle) {
        let op_started = Instant::now();
        let op = gen::op(workload, seed, 0, index);
        let computed;
        let reference = if index < referenced {
            Some(references[index].as_str())
        } else if every_op {
            computed = check::reference_report(&op);
            Some(computed.as_str())
        } else {
            None
        };
        out.attempted += 1;
        let outcome = process_op(ctx, workload, &op, reference);
        // The phase is as long as its ops (and the loop around them) took,
        // each at the speed the probes on both sides of it read; the probes
        // themselves are no part of it.
        let took = op_started.elapsed();
        let factor = speed.factor()?;
        out.elapsed_s += took.as_secs_f64() * factor;
        match outcome {
            Ok((checked, exit)) => {
                out.peak_rss_kb = out.peak_rss_kb.max(exit.maxrss_kb);
                out.samples.push(Sample {
                    pos: index % cycle,
                    ms: exit.wall.as_secs_f64() * 1e3 * factor,
                    exec_us: None,
                });
                if index < cycle {
                    first.add(checked);
                }
            }
            // A broken program has no speed: the first op of each kind must
            // be right before anything is timed.
            Err(e) if index < cycle => {
                return Err(format!("{} op {index}: {e}", workload.name()));
            }
            Err(e) => {
                out.failed += 1;
                out.first_failure.get_or_insert(format!("op {index}: {e}"));
            }
        }
        index += 1;
    }
    out.loadgen_busy_pct =
        (proc::self_cpu_seconds() - cpu0) / started.elapsed().as_secs_f64() * 100.0;
    out.probe_ms = speed.median_probe_ms();
    (out.msgs_per_op, out.bytes_per_op) = first
        .means(cycle)
        .ok_or_else(|| format!("{}: no complete cycle ran", workload.name()))?;
    Ok(out)
}

/// What one serve client brings back from the timed phase.
#[derive(Default)]
struct ClientRun {
    attempted: usize,
    failed: usize,
    first_failure: Option<String>,
    samples: Vec<Sample>,
    first: FirstCycle,
    shards: BTreeSet<usize>,
    fatal: Option<String>,
}

/// One serve client: the connection's closed loop on this thread, the checks
/// on a second one. The program's own response decoder is slow enough on big
/// reports (see `wire.response_decode_n256_us`) that checking in the loop
/// would throttle the client it is measuring.
fn serve_client(
    workload: Workload,
    seed: u64,
    client: usize,
    conn: &mut Conn,
    references: &[String],
    limit: Limit,
) -> ClientRun {
    let cycle = workload.cycle_len();
    let abort = AtomicBool::new(false);
    let (answers, inbox) = mpsc::channel::<(usize, Duration, Result<String, String>)>();
    std::thread::scope(|scope| {
        let checker = scope.spawn(|| {
            let mut run = ClientRun::default();
            for (index, took, answer) in inbox {
                let op = gen::op(workload, seed, client, index);
                let reference = references.get(index).map(String::as_str);
                run.attempted += 1;
                match answer.and_then(|line| check::check_response(&op, &line, reference)) {
                    Ok(reply) => {
                        run.shards.insert(reply.shard);
                        run.samples.push(Sample {
                            pos: index % cycle,
                            ms: took.as_secs_f64() * 1e3,
                            exec_us: Some(reply.wall_us as f64),
                        });
                        if index < cycle {
                            run.first.add(reply.checked);
                        }
                    }
                    // A broken program has no speed (see `run_processes`).
                    Err(e) if index < cycle => {
                        run.fatal
                            .get_or_insert(format!("client {client} op {index}: {e}"));
                        abort.store(true, Ordering::SeqCst);
                    }
                    Err(e) => {
                        run.failed += 1;
                        run.first_failure
                            .get_or_insert(format!("client {client} op {index}: {e}"));
                    }
                }
            }
            run
        });
        let started = Instant::now();
        let mut index = 0;
        while !limit_reached(limit, started, index, cycle) && !abort.load(Ordering::SeqCst) {
            let request = gen::request_line(&gen::op(workload, seed, client, index));
            let sent = Instant::now();
            let answer = conn.call(&request);
            if answers.send((index, sent.elapsed(), answer)).is_err() {
                break;
            }
            index += 1;
        }
        drop(answers);
        checker.join().expect("checker thread panicked")
    })
}

/// The `service` object of a `{"op": "metrics"}` reply.
fn service_metrics(conn: &mut Conn) -> Result<Json, String> {
    let line = conn.call("{\"op\": \"metrics\"}")?;
    Json::parse(&line)?
        .get("service")
        .cloned()
        .ok_or_else(|| "metrics reply has no service object".to_string())
}

fn counter(service: &Json, key: &str) -> Result<f64, String> {
    service
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("metrics reply has no {key}"))
}

/// The serve workloads: one `lafd serve`, sessions warmed in set-up.
fn run_serve(ctx: &Ctx, workload: Workload, seed: u64, limit: Limit) -> Result<E2e, String> {
    let clients = workload.clients();
    let cycle = workload.cycle_len();

    // Set-up: spawn the server, connect, warm every session with one keyed
    // request. The last repetition's server runs the timed phase.
    let mut reps = Vec::new();
    let mut live: Option<(Server, Vec<Conn>)> = None;
    while more_setup(limit, &reps) {
        if let Some((server, conns)) = live.take() {
            drop(conns);
            server.shutdown()?;
        }
        let started = Instant::now();
        let server = Server::spawn(&ctx.lafd, &ctx.watchdog)?;
        let mut conns = Vec::new();
        for client in 0..clients {
            let mut conn = Conn::open(&server.addr)?;
            for k in 0..workload.sessions_per_client() {
                let op = gen::op(workload, seed, client, k);
                let line = conn.call(&gen::request_line(&op))?;
                let response = fd_core::wire::response_from_json(&line)?;
                check::check_report(&op, &response.report_json, None)
                    .map_err(|e| format!("{}: warming a session: {e}", workload.name()))?;
            }
            conns.push(conn);
        }
        reps.push(started.elapsed());
        live = Some((server, conns));
    }
    let (server, mut conns) = live.expect("at least one set-up repetition");

    // Byte-identity references for the first occurrence of every distinct
    // request: the first cycle of every client.
    let mut cache = References::default();
    let references: Vec<Vec<String>> = (0..clients)
        .map(|client| {
            (0..cycle)
                .map(|i| cache.report(&gen::op(workload, seed, client, i)))
                .collect()
        })
        .collect();
    drop(cache);

    let mut control = Conn::open(&server.addr)?;
    let before = service_metrics(&mut control)?;
    let started = Instant::now();
    let cpu0 = proc::self_cpu_seconds();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&references)
            .enumerate()
            .map(|(client, (conn, refs))| {
                scope.spawn(move || serve_client(workload, seed, client, conn, refs, limit))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let loadgen_busy_pct = (proc::self_cpu_seconds() - cpu0) / elapsed_s * 100.0;
    let after = service_metrics(&mut control)?;
    let peak_rss_kb = server.vm_hwm_kb().ok_or("cannot read the server's VmHWM")?;
    drop(control);
    drop(conns);
    server.shutdown()?;

    let mut out = E2e {
        setup_s: median_secs(&reps),
        elapsed_s,
        loadgen_busy_pct,
        peak_rss_kb,
        ..E2e::default()
    };
    let mut first = FirstCycle::default();
    let mut shards = BTreeSet::new();
    for run in runs {
        if let Some(fatal) = run.fatal {
            return Err(format!("{}: {fatal}", workload.name()));
        }
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.first_failure = out.first_failure.or(run.first_failure);
        out.samples.extend(run.samples);
        first.merge(&run.first);
        shards.extend(run.shards);
    }
    if shards.len() != clients {
        return Err(format!(
            "{}: {clients} connections reached shards {shards:?}; each must have its own",
            workload.name()
        ));
    }
    (out.msgs_per_op, out.bytes_per_op) = first
        .means(cycle * clients)
        .ok_or_else(|| format!("{}: no complete cycle ran", workload.name()))?;

    let delta = |key: &str| Ok::<f64, String>(counter(&after, key)? - counter(&before, key)?);
    let (fresh, reused) = (delta("keydist_runs")?, delta("keydist_reused")?);
    let queue_peak = after
        .get("queue_peak")
        .and_then(Json::as_arr)
        .map(|peaks| peaks.iter().filter_map(Json::as_f64).fold(0.0, f64::max))
        .ok_or("metrics reply has no queue_peak")?;
    out.service = Some(ServiceCounters {
        keydist_reuse_pct: if fresh + reused > 0.0 {
            reused * 100.0 / (fresh + reused)
        } else {
            0.0
        },
        evictions: delta("evictions")?,
        queue_peak,
    });
    Ok(out)
}

/// Set up and run one workload end to end.
pub fn run_e2e(ctx: &Ctx, workload: Workload, seed: u64, limit: Limit) -> Result<E2e, String> {
    if workload.is_serve() {
        run_serve(ctx, workload, seed, limit)
    } else {
        run_processes(ctx, workload, seed, limit)
    }
}

/// One `lafd cluster` op with worker 3 killed at `phase`, outside any timed
/// phase (the traced pass times `kill=3@keydist` with it).
pub fn cluster_op_killed_at(ctx: &Ctx, seed: u64, phase: &str) -> Result<Duration, String> {
    let mut op = gen::op(Workload::ClusterChaos, seed, 0, 0);
    op.chaos = Some(format!("seed={};kill=3@{phase}", op.builder.seed));
    let reference = check::reference_report(&op);
    let (_, exit) = process_op(ctx, Workload::ClusterChaos, &op, Some(&reference))?;
    Ok(exit.wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cycle_means_need_the_complete_cycle() {
        let mut first = FirstCycle::default();
        for messages in [7, 7, 7, 7] {
            first.add(Checked {
                messages,
                bytes: 100,
            });
        }
        // Four of five ops: the cycle is not complete, so there is no mean.
        assert_eq!(first.means(5), None);
        first.add(Checked {
            messages: 12,
            bytes: 300,
        });
        assert_eq!(first.means(5), Some((8.0, 140.0)));
        // Ops past the first cycle are never added by the callers; a count
        // that overshoots is as wrong as one that falls short.
        assert_eq!(first.means(4), None);
        assert_eq!(FirstCycle::default().means(0), None);
    }

    #[test]
    fn limits_count_cycles_per_client() {
        let now = Instant::now();
        assert!(!limit_reached(Limit::Cycles(2), now, 9, 5));
        assert!(limit_reached(Limit::Cycles(2), now, 10, 5));
        assert!(limit_reached(Limit::Seconds(0.0), now, 0, 5));
    }

    #[test]
    fn serve_references_reuse_one_keydist_and_match_cluster_run() {
        let mut cache = References::default();
        for i in 0..Workload::ServeWarm.cycle_len() {
            let op = gen::op(Workload::ServeWarm, 5, 0, i);
            assert_eq!(cache.report(&op), check::reference_report(&op), "op {i}");
        }
        assert_eq!(cache.keys.len(), 2);
    }
}
