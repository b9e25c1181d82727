//! `lafd` — command-line driver for the local-auth-fd reproduction.
//!
//! [`USAGE`] (printed by a bare `lafd`) lists every subcommand and flag.
//!
//! Every command line is read by `fd_core::flags`, one reader per
//! subcommand; this binary only dispatches, calls the library and
//! prints. Every subcommand that executes a protocol run goes through
//! one request path: flags build a [`SpecBuilder`] (a search and every
//! sweep row carry one too), the builder validates the shape, and
//! execution happens via [`SpecBuilder::build`] — the same object the
//! `lafd serve` wire format serializes, so a flag invocation and a
//! service request are provably the same run. `lafd serve` is
//! `fd_core::service::FdService`, `lafd sweep --remote` is
//! `fd_core::sweep::RemoteExecutor`, and `lafd cluster` / `lafd chaos` /
//! `lafd cluster-worker` are `fd_core::deploy::{supervise, run_campaigns,
//! run_worker}`. The multi-run, key-rotation and two-faced-sender demos
//! live in `examples/`.

use local_auth_fd::core::deploy::{self, ClusterConfig, WorkerConfig};
use local_auth_fd::core::flags::{
    self, ChaosArgs, ReportOuts, RunInvocation, ServeOpts, SweepArgs,
};
use local_auth_fd::core::metrics;
use local_auth_fd::core::schedsearch::{run_search_parallel, SearchConfig};
use local_auth_fd::core::service::{self, FdService};
use local_auth_fd::core::spec::{Session, SpecBuilder};
use local_auth_fd::core::sweep::{
    classify, run_sweep_with, LocalExecutor, RemoteExecutor, SweepOutcome,
};
use local_auth_fd::core::wire;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Every subcommand and its flags, with defaults. `NAME` is any name of
/// the scheme table (`fd_core::spec::scheme_by_name`), made canonical
/// where the flag is parsed.
const USAGE: &str = "\
usage: lafd <run|serve|search|sweep|cluster|chaos|registry> ...
lafd run      <chain|nonauth|small|ba|degrade|ds|king> [-n 7] [--t T] [--seed S]
              [--value V] [--scheme NAME] [--engine sync|event]
              [--latency sync|fixed:D|jitter:E|psync:GST:E]
              [--link-latency FROM:TO:MODEL[:ARG]]
              [--adversary none|silent|crash|tamper|forge|wrongname|equivocate[:NODES]]
              [--crash I] [--drop R:FROM:TO] [--corrupt R:FROM:TO:OFF:MASK]
              [--delay R:FROM:TO:BY] [--reorder R:FROM:TO]
              [--trace OUT.json] [--trace-folded OUT.folded]
lafd run      --spec FILE.json   # one wire-v1 request (the `lafd serve` format)
lafd serve    [--shards 2] [--max-sessions 8]
              [--stdin [--clients C] | --listen HOST:PORT | --unix PATH]
              [--metrics PATH] [--metrics-format json|prometheus]
              # --unix replaces only a stale socket at PATH
lafd search   <protocol> [--budget N] [--strategy random|greedy] [-n 8] [--t T]
              [--seed S] [--scheme NAME] [--latency jitter:2] [--adversary KIND[:NODES]]
              [--threads N] [--json PATH] [--md PATH]
lafd sweep    [--protocols all|chain,nonauth,ba,degrade,ds,king,small]
              [--sizes 4,7,10] [--faults auto|0,1,2] [--adversaries none,silent,...]
              [--schemes tiny,dsa-tiny,...] [--seeds 1,2] [--engines sync,event]
              [--latencies sync,jitter:1,psync:2:1] [--link-latency FROM:TO:MODEL[:ARG]]
              [--search N[:STRATEGY]] [--remote ADDR] [--threads N]
              [--json PATH] [--md PATH]
lafd cluster  <protocol> [-n 7] [--t T] [--seed S] [--scheme NAME] [--value V]
              [--adversary KIND[:NODES]] [--crash I] [--latency SPEC]
              [--io-deadline-secs 60] [--round-wall-us 0] [--chaos SPEC]
              [--max-restarts 1] [--registry ADDR] [--bind HOST]
              # a registry plus one worker process per node; restarts crashed
              # workers with incarnation fencing; last stdout line is the report
              # JSON of `lafd run`; exit 0 clean/recovered, 2 degraded to the
              # crash adversary, 1 failed
lafd chaos    <protocol> [cluster flags] [--campaign NAME=SPEC]... [--json PATH]
              # seeded fault campaigns; SPEC: seed=S;kill=N@keydist|round:K|teardown
              # [xTIMES|xinf];connect=PCT;reset=PCT;accept-delay=PCT:MS;stall=PCT:MS
lafd registry [--listen 127.0.0.1:0] [--wait-limit-secs 120]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "sweep" => exec(flags::sweep(rest), cmd_sweep),
        "run" => exec(flags::run(rest), cmd_run),
        "serve" => exec(flags::serve(rest), cmd_serve),
        "search" => exec(flags::search(rest), cmd_search),
        "registry" => exec(flags::registry(rest), cmd_registry),
        "cluster" => exec(flags::cluster(rest), cmd_cluster),
        "cluster-worker" => cmd_cluster_worker(rest).unwrap_or_else(fail),
        "chaos" => exec(flags::chaos(rest), cmd_chaos),
        other => refuse(format!("unknown command {other}")),
    }
}

/// How a command ends: its exit code, or an error that exits 1.
type Exit = Result<ExitCode, String>;

/// Run `cmd` on the command line `read` accepted, or refuse the line.
fn exec<A>(read: Result<A, String>, cmd: fn(A) -> Exit) -> ExitCode {
    match read {
        Ok(args) => cmd(args).unwrap_or_else(fail),
        Err(error) => refuse(error),
    }
}

/// A command line that cannot run: the error, the usage, exit 1.
fn refuse(error: String) -> ExitCode {
    say(&format!("error: {error}\n{USAGE}"));
    ExitCode::FAILURE
}

/// A command that could not finish: the error, exit 1.
fn fail(error: String) -> ExitCode {
    say(&format!("error: {error}"));
    ExitCode::FAILURE
}

/// Write `text` and a newline to stderr in one `write_all`. Cluster
/// workers share the supervisor's stderr pipe, and only a single write
/// under `PIPE_BUF` is atomic: `eprintln!` may split one line across
/// several writes and tear against a sibling process's line.
fn say(text: &str) {
    let _ = std::io::stderr()
        .lock()
        .write_all(format!("{text}\n").as_bytes());
}

/// Stdout for report lines. A reader that closes the pipe early (`lafd
/// run chain | head -1`) wants no more: from then on every line is
/// dropped quietly and the command still ends with its own exit code.
/// Any other write error fails the write, which `outln!` turns into a
/// panic as `println!` does.
struct Out;

/// Set once stdout's reader has gone.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

impl Out {
    /// Run one stdout operation unless the reader has gone; a
    /// `BrokenPipe` marks it gone and counts as done.
    fn or_closed<T>(
        done: T,
        op: impl FnOnce(&mut io::StdoutLock<'static>) -> io::Result<T>,
    ) -> io::Result<T> {
        if STDOUT_CLOSED.load(Ordering::Relaxed) {
            return Ok(done);
        }
        match op(&mut io::stdout().lock()) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                STDOUT_CLOSED.store(true, Ordering::Relaxed);
                Ok(done)
            }
            result => result,
        }
    }
}

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Out::or_closed(buf.len(), |stdout| stdout.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        Out::or_closed((), |stdout| stdout.flush())
    }
}

/// `print!` through [`Out`].
macro_rules! out {
    ($($arg:tt)*) => {
        write!(Out, $($arg)*)
            .and_then(|()| Out.flush())
            .expect("failed printing to stdout")
    };
}

/// `println!` through [`Out`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// Write `contents` to `path` when one was given and note it on stderr as
/// `{what} written to {path}`; false (after an error line) if the write
/// failed.
fn save(path: Option<&String>, contents: String, what: &str) -> bool {
    let Some(path) = path else {
        return true;
    };
    let written = std::fs::write(path, contents);
    match &written {
        Ok(()) => eprintln!("{what} written to {path}"),
        Err(e) => eprintln!("error: writing {path}: {e}"),
    }
    written.is_ok()
}

/// Save a `search` or `sweep` report (`what`) where `--json` and `--md`
/// asked for it; false if a write failed.
fn save_reports(outs: &ReportOuts, what: &str, json: String, md: String) -> bool {
    save(outs.json.as_ref(), json, &format!("{what}: JSON report"))
        && save(outs.md.as_ref(), md, &format!("{what}: markdown report"))
}

fn cmd_run(invocation: RunInvocation) -> Exit {
    let (builder, trace_outs) = match invocation {
        RunInvocation::Flags(builder, outs) => (*builder, outs),
        RunInvocation::SpecFile(path) => return cmd_run_spec_file(&path),
    };
    let t = builder.resolved_t();
    let (cluster, spec) = builder.build().expect("validated by flags::run");

    outln!(
        "run {}: n = {}, t = {t}, engine = {}, latency = {}, adversary = {}, \
         {} link override(s), {} link fault(s)",
        builder.protocol,
        builder.n,
        builder.engine,
        builder.latency,
        builder.adversary.name(),
        builder.link_latency.len(),
        builder.faults.len(),
    );

    let mut start = std::time::Instant::now();
    let run = if trace_outs.requested() {
        // The traced path measures keydist/run/report phases itself and
        // exports them; the untraced path keeps the zero-overhead Session.
        let (run, trace) = cluster.run_traced(&spec);
        if let Some(p) = &run.phases {
            if let Some(kd_us) = p.keydist_us {
                outln!(
                    "key distribution (setup phase): {} rounds, {kd_us} µs",
                    p.keydist_rounds
                );
            }
            outln!(
                "phases ({}): {} rounds traced, verify {} µs, cache {}/{} hit/miss, \
                 peak queue depth {}",
                p.clock.name(),
                p.round_marks.len(),
                p.verify_us,
                p.cache_hits,
                p.cache_misses,
                p.max_queue_depth,
            );
        }
        let chrome = trace_outs.chrome.as_ref();
        let folded = trace_outs.folded.as_ref();
        if !save(chrome, trace.to_chrome_json(), "run: Chrome trace")
            || !save(folded, trace.to_folded(), "run: folded stacks")
        {
            return Ok(ExitCode::FAILURE);
        }
        run
    } else {
        let mut session = Session::new(cluster);
        let kd_start = std::time::Instant::now();
        if builder.protocol.needs_keys() {
            let kd = session.keydist();
            outln!(
                "key distribution (setup phase): {} messages (3n(n-1) = {}), {:.2?}",
                kd.stats.messages_total,
                metrics::keydist_messages(builder.n),
                kd_start.elapsed(),
            );
        }
        start = std::time::Instant::now();
        session.run(&spec)
    };
    let elapsed = start.elapsed();

    let outcome = classify(&run, builder.network_faulted());
    let expected = builder
        .failure_free()
        .then(|| builder.protocol.expected_messages(builder.n, t));
    let formula = expected.map_or_else(|| "—".to_string(), |m| m.to_string());
    outln!(
        "{}: {} messages (formula {formula}), {} bytes, {} comm rounds, {elapsed:.2?}",
        builder.protocol,
        run.stats.messages_total,
        run.stats.bytes_total,
        run.stats.per_round.iter().filter(|&&x| x > 0).count(),
    );
    if builder.n <= 16 {
        for (i, o) in run.outcomes.iter().enumerate() {
            // Degradable agreement reports a confidence grade per node.
            let grade = run
                .grades
                .get(i)
                .copied()
                .flatten()
                .map_or_else(String::new, |g| format!(" (grade {g:?})"));
            match o {
                Some(o) => outln!("  P{i}: {o}{grade}"),
                None => outln!("  P{i}: (faulty)"),
            }
        }
    } else {
        let outs = run.correct_outcomes();
        let decided = outs.iter().filter(|o| o.decided().is_some()).count();
        let discovered = outs.iter().filter(|o| o.is_discovered()).count();
        outln!(
            "  outcomes: {decided} decided, {discovered} discovered, {} pending",
            outs.len() - decided - discovered
        );
    }
    outln!("classification: {outcome}");
    if outcome == SweepOutcome::SilentDisagreement {
        return Err(SILENT.to_string());
    }
    // A clean run (no faults, no crash, synchronous latency) is held to
    // the paper's failure-free contract: closed-form message count and a
    // unanimous decision on the sender's value.
    if let Some(expected) = expected {
        let sent = run.stats.messages_total;
        if sent != expected {
            return Err(format!(
                "clean run sent {sent} messages, formula says {expected}"
            ));
        }
        if outcome != SweepOutcome::AllDecided || !run.all_decided(&builder.input) {
            return Err("clean run did not unanimously decide the sender's value".to_string());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The error of a run that ended in silent disagreement.
const SILENT: &str = "silent disagreement — the state the paper forbids";

/// `lafd run --spec FILE.json`: execute one wire-v1 request (the exact
/// format `lafd serve` reads) and print the report JSON to stdout.
fn cmd_run_spec_file(path: &str) -> Exit {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let in_file = |e: String| format!("{path}: {e}");
    let (builder, id) = wire::request_from_json(raw.trim()).map_err(in_file)?;
    builder.validate().map_err(in_file)?;
    if let Some(id) = id {
        eprintln!("run --spec: request id {id}");
    }
    let (cluster, spec) = builder.build().expect("validated above");
    let run = cluster.run(&spec);
    outln!("{}", run.to_json());
    if classify(&run, builder.network_faulted()) == SweepOutcome::SilentDisagreement {
        return Err(SILENT.to_string());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(opts: ServeOpts) -> Exit {
    let service = FdService::start(opts.service);
    let served = if let Some(addr) = &opts.listen {
        std::net::TcpListener::bind(addr)
            .map_err(|e| format!("binding {addr}: {e}"))
            .map(|listener| {
                let local = listener
                    .local_addr()
                    .map_or(addr.clone(), |a| a.to_string());
                eprintln!("serve: listening on {local}");
                service.serve(&listener);
            })
    } else if let Some(path) = &opts.unix {
        service::bind_unix(path)
            .map_err(|e| format!("binding {path}: {e}"))
            .map(|listener| {
                eprintln!("serve: listening on {path}");
                service.serve(&listener);
                let _ = std::fs::remove_file(path);
            })
    } else {
        // Default (and `--stdin`) mode: read the whole batch from stdin,
        // answer on stdout in input order.
        let clients = opts.clients.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        });
        match service.serve_batch(&mut std::io::stdin().lock(), clients) {
            Ok(responses) => {
                eprintln!(
                    "serve: {} requests on {} shards, {clients} clients",
                    responses.len(),
                    opts.service.shards,
                );
                for response in responses {
                    outln!("{response}");
                }
                Ok(())
            }
            Err(e) => Err(format!("reading stdin: {e}")),
        }
    };
    // Drain every in-flight run, then report service-lifetime metrics as
    // `lafd-serve-v1` JSON (or Prometheus text exposition).
    let metrics = service.shutdown_with(opts.metrics_format);
    let wrote = match &opts.metrics {
        Some(path) => std::fs::write(path, &metrics)
            .map(|()| eprintln!("serve: metrics written to {path}"))
            .map_err(|e| format!("writing {path}: {e}")),
        None => {
            eprintln!("{metrics}");
            Ok(())
        }
    };
    served.and(wrote).map(|()| ExitCode::SUCCESS)
}

fn cmd_search((config, outs): (SearchConfig, ReportOuts)) -> Exit {
    let spec = &config.spec;
    eprintln!(
        "search: {} n = {} t = {} latency = {} strategy = {} budget = {} threads = {}",
        spec.protocol,
        spec.n,
        spec.resolved_t(),
        spec.latency,
        config.strategy,
        config.budget,
        outs.threads
    );
    let start = std::time::Instant::now();
    let report = run_search_parallel(&config, outs.threads)?;
    eprintln!("search: finished in {:?}", start.elapsed());

    out!("{}", report.to_markdown());

    if !save_reports(&outs, "search", report.to_json(), report.to_markdown()) {
        return Ok(ExitCode::FAILURE);
    }

    if report.silent_found() {
        return Err("the search found silent disagreement — the state the paper forbids".into());
    }
    if !report.replay_ok {
        return Err("the best schedule certificate did not replay identically".to_string());
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Deployment layer: `lafd registry`, `lafd cluster`, `lafd chaos`,
// `lafd cluster-worker` (all logic in `fd_core::deploy`)
// ---------------------------------------------------------------------

fn cmd_registry((listen, wait_limit_secs): (String, Option<u64>)) -> Exit {
    let registry =
        deploy::Registry::bind(&listen).map_err(|e| format!("registry bind {listen}: {e}"))?;
    let registry = match wait_limit_secs {
        Some(secs) => registry.with_wait_limit(Duration::from_secs(secs)),
        None => registry,
    };
    // The orchestrator (and shell scripts) scrape the bound address from
    // this exact line — keep it first and flushed.
    outln!("registry listening on {}", registry.local_addr());
    registry.serve();
    Ok(ExitCode::SUCCESS)
}

/// This binary, which the supervisor re-executes as registry and workers.
fn lafd_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the lafd binary to re-exec: {e}"))
}

fn cmd_cluster((builder, cfg): (SpecBuilder, ClusterConfig)) -> Exit {
    let supervised = lafd_exe()
        .and_then(|exe| deploy::supervise(&exe, &builder, &cfg, &mut Out).map_err(|e| e.error))
        .map_err(|e| format!("lafd cluster aborted: {e}"))?;
    let totals = &supervised.totals;
    let report = &supervised.report;
    let res = &supervised.resilience;
    outln!(
        "key distribution: {} messages, {} bytes, {} rounds, {} anomalies",
        totals.kd_messages,
        totals.kd_bytes,
        totals.kd_rounds,
        totals.kd_anomalies
    );
    outln!(
        "{}: {} messages, {} bytes, {} rounds",
        builder.protocol.name(),
        report.stats.messages_total,
        report.stats.bytes_total,
        report.stats.rounds
    );
    outln!(
        "resilience: generations={} retries={} dead={:?} degraded={}",
        res.generations,
        res.retries,
        res.dead,
        res.degraded
    );
    // The machine-readable result is the last stdout line, so scripts (and
    // the cross-validation tests) can compare it byte-for-byte with the
    // in-process engines' `FdRunReport::to_json`.
    outln!("{}", report.to_json());
    // Loud grade: a degraded run finished, but only by presuming crashed
    // workers — scripts must be able to tell this apart from a clean
    // recovery.
    Ok(if res.degraded {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

/// `lafd chaos`: run seeded fault campaigns over the supervised cluster
/// (`fd_core::deploy::run_campaigns`) and print the robustness report.
/// Exit 0 iff every campaign behaved.
fn cmd_chaos(chaos: ChaosArgs) -> Exit {
    let ChaosArgs {
        builder,
        cluster,
        campaigns,
        json,
    } = chaos;
    let exe = lafd_exe()?;
    let report = deploy::run_campaigns(&exe, &builder, &cluster, &campaigns, &mut Out)?;
    let doc = report.to_json();
    if let Some(path) = json {
        std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("write {path}: {e}"))?;
    }
    // Machine-readable robustness matrix as the last stdout line.
    outln!("{doc}");
    if !report.ok() {
        return Err("at least one chaos campaign diverged from its expected outcome".to_string());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_cluster_worker(args: &[String]) -> Exit {
    let (cfg, request) = WorkerConfig::from_args(args)?;
    let node = cfg.node;
    let (builder, _id) = wire::request_from_json(&request)
        .map_err(|e| format!("cluster worker {node}: bad --request: {e}"))?;
    if let Err(failure) = deploy::run_worker(&cfg, &builder) {
        say(&format!("error: cluster worker {node}: {failure}"));
        // The exit code is the supervisor's classification channel:
        // chaos kills are charged to the slot's restart budget,
        // collateral failures restart the generation without blame,
        // and genuine bugs abort the run.
        std::process::exit(failure.exit_code());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(sweep: SweepArgs) -> Exit {
    let (matrix, threads, remote) = (&sweep.matrix, sweep.outs.threads, &sweep.remote);
    let scenarios = matrix.scenarios().len();
    if scenarios == 0 {
        return Err("the matrix expands to zero admissible scenarios".to_string());
    }
    match remote {
        Some(addr) => eprintln!("sweep: {scenarios} scenarios on {threads} clients -> {addr}"),
        None => eprintln!("sweep: {scenarios} scenarios on {threads} threads"),
    }
    let start = std::time::Instant::now();
    let report = match remote {
        Some(addr) => run_sweep_with(matrix, threads, &RemoteExecutor { addr: addr.clone() }),
        None => run_sweep_with(matrix, threads, &LocalExecutor),
    }?;
    let elapsed = start.elapsed();

    out!("{}", report.to_markdown());
    eprintln!("sweep: finished in {elapsed:?}");

    if !save_reports(&sweep.outs, "sweep", report.to_json(), report.to_markdown()) {
        return Ok(ExitCode::FAILURE);
    }

    if !report.all_ok() {
        eprintln!(
            "sweep: {} of {} scenarios FAILED their checks",
            report.failures().len(),
            scenarios
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
