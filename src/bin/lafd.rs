//! `lafd` — command-line driver for the local-auth-fd reproduction.
//!
//! [`USAGE`] (printed by a bare `lafd`) lists every subcommand and flag.
//!
//! Every subcommand that executes a protocol run goes through one request
//! path: flags build a [`SpecBuilder`] ([`Shape`] holds the flags `run`
//! and `cluster` share; a search and every sweep row carry one too), the
//! builder validates the shape, and execution happens via
//! [`SpecBuilder::build`] — the same object the `lafd serve` wire format
//! serializes, so a flag invocation and a service request are provably
//! the same run. The binary only parses flags, calls the library and
//! prints: `lafd serve` is `fd_core::service::FdService`, `lafd sweep
//! --remote` is `fd_core::sweep::RemoteExecutor`, and `lafd cluster` /
//! `lafd chaos` / `lafd cluster-worker` are `fd_core::deploy::{supervise,
//! run_campaigns, run_worker}`. The multi-run, key-rotation and
//! two-faced-sender demos live in `examples/`.

use local_auth_fd::core::adversary::AdversarySpec;
use local_auth_fd::core::deploy::{self, parse_deadline_secs, ClusterConfig, WorkerConfig};
use local_auth_fd::core::flags::Flags;
use local_auth_fd::core::metrics;
use local_auth_fd::core::schedsearch::{run_search_parallel, SearchConfig, Strategy};
use local_auth_fd::core::service::{self, FdService, MetricsFormat, ServiceConfig};
use local_auth_fd::core::spec::{canonical_scheme, Protocol, Session, SpecBuilder};
use local_auth_fd::core::sweep::{
    classify, run_sweep_with, scenario, AdversaryKind, FaultRule, LocalExecutor, RemoteExecutor,
    SearchAxis, SweepMatrix, SweepOutcome,
};
use local_auth_fd::core::wire;
use local_auth_fd::simnet::fault::LinkFault;
use local_auth_fd::simnet::transport::chaos::ChaosSpec;
use local_auth_fd::simnet::{Engine, LatencySpec, LinkLatencySpec, NodeId};
use std::io::Write;
use std::process::ExitCode;
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
              [--seed S] [--scheme NAME] [--latency jitter:2] [--adversary KIND]
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
        "sweep" => parse_sweep_matrix(rest).map_or_else(refuse, cmd_sweep),
        "run" => parse_run(rest).map_or_else(refuse, cmd_run),
        "serve" => parse_serve(rest).map_or_else(refuse, cmd_serve),
        "search" => parse_search(rest).map_or_else(refuse, cmd_search),
        "registry" => parse_registry(rest).map_or_else(refuse, cmd_registry),
        "cluster" => parse_cluster(rest).map_or_else(refuse, cmd_cluster),
        "cluster-worker" => cmd_cluster_worker(rest),
        "chaos" => parse_chaos(rest).map_or_else(refuse, cmd_chaos),
        other => refuse(format!("unknown command {other}")),
    }
}

/// A command line that cannot run: the error, the usage, exit 1.
fn refuse(error: String) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
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

/// The run-shape flags `lafd run` and `lafd cluster` (and, through it,
/// `lafd chaos`) share: `-n/--n`, `--t`, `--seed`, `--scheme`, `--value`,
/// `--latency`, `--adversary`, and the `--crash I` sugar.
struct Shape {
    builder: SpecBuilder,
    crash: Option<usize>,
    adversary_given: bool,
}

impl Shape {
    /// The CLI defaults for a run of the protocol named `proto`.
    fn new(proto: &str) -> Result<Self, String> {
        Ok(Shape {
            builder: SpecBuilder::new(Protocol::parse(proto)?, 7)
                .with_input(b"attack at dawn".to_vec())
                .with_default_value(b"default".to_vec()),
            crash: None,
            adversary_given: false,
        })
    }

    /// Consume `flag` (taking its value from `flags`) if it is a shape
    /// flag; `Ok(false)` leaves it to the caller's own flag set.
    fn flag(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, String> {
        let builder = &mut self.builder;
        match flag {
            "-n" | "--n" => builder.n = flags.parse("--n")?,
            "--t" => builder.t = Some(flags.parse("--t")?),
            "--seed" => builder.seed = flags.parse("--seed")?,
            "--scheme" => builder.scheme = canonical_scheme(&flags.value()?)?.to_string(),
            "--value" => builder.input = flags.value()?.into_bytes(),
            "--latency" => builder.latency = LatencySpec::parse(&flags.value()?)?.normalize(),
            "--adversary" => {
                builder.adversary = AdversarySpec::parse(&flags.value()?)?;
                self.adversary_given = true;
            }
            "--crash" => self.crash = Some(flags.parse("--crash")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolve `--crash I` — sugar for a silent adversary at node I — once
    /// the whole flag list (which may set `--n` later) has been parsed.
    fn apply_crash(&mut self) -> Result<(), String> {
        let Some(crash) = self.crash else {
            return Ok(());
        };
        if self.adversary_given {
            return Err("--crash and --adversary cannot be combined".to_string());
        }
        if crash >= self.builder.n {
            return Err(format!(
                "--crash {crash} is out of range for n = {}",
                self.builder.n
            ));
        }
        self.builder = deploy::degraded(&self.builder, &[crash]);
        Ok(())
    }
}

/// Parse `R:FROM:TO` plus `extra` trailing numeric components.
fn parse_link_spec(spec: &str, extra: usize) -> Result<(u32, NodeId, NodeId, Vec<u64>), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 + extra {
        return Err(format!(
            "fault spec {spec}: expected {} colon-separated fields",
            3 + extra
        ));
    }
    let num = |i: usize, what: &str| -> Result<u64, String> {
        parts[i]
            .parse::<u64>()
            .map_err(|e| format!("fault spec {spec}: {what}: {e}"))
    };
    let node = |i: usize, what: &str| -> Result<NodeId, String> {
        let raw = num(i, what)?;
        u16::try_from(raw)
            .map(NodeId)
            .map_err(|_| format!("fault spec {spec}: {what} {raw} exceeds the node-id range"))
    };
    let raw_round = num(0, "round")?;
    let round = u32::try_from(raw_round)
        .map_err(|_| format!("fault spec {spec}: round {raw_round} exceeds the round range"))?;
    let from = node(1, "from")?;
    let to = node(2, "to")?;
    let rest = (3..parts.len())
        .map(|i| num(i, "parameter"))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok((round, from, to, rest))
}

/// Trace-export destinations of one `lafd run` (presentation flags, not
/// part of the run shape the [`SpecBuilder`] validates).
#[derive(Default)]
struct TraceOuts {
    /// `--trace PATH`: Chrome trace-event JSON.
    chrome: Option<String>,
    /// `--trace-folded PATH`: inferno-compatible folded stacks.
    folded: Option<String>,
}

impl TraceOuts {
    fn requested(&self) -> bool {
        self.chrome.is_some() || self.folded.is_some()
    }
}

/// How `lafd run` was invoked: flags building a request, or a wire-v1
/// request file (`--spec FILE`, the `lafd serve` format).
enum RunInvocation {
    Flags(Box<SpecBuilder>, TraceOuts),
    SpecFile(String),
}

fn parse_run(args: &[String]) -> Result<RunInvocation, String> {
    let Some((proto, rest)) = args.split_first() else {
        return Err(
            "run needs a protocol (chain|nonauth|small|ba|degrade|ds|king) or --spec FILE"
                .to_string(),
        );
    };
    if proto == "--spec" {
        let [path] = rest else {
            return Err("--spec takes exactly one file path and no other flags".to_string());
        };
        return Ok(RunInvocation::SpecFile(path.clone()));
    }
    let mut shape = Shape::new(proto)?;
    let mut trace_outs = TraceOuts::default();
    let mut engine_given = false;
    // Node ids referenced by fault specs, validated against n once the
    // whole flag list (which may set --n later) has been parsed.
    // (SpecBuilder::validate covers link-latency and adversary ranges; the
    // link-fault plan is CLI-only and checked here.)
    let mut fault_nodes: Vec<NodeId> = Vec::new();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        if shape.flag(flag, &mut flags)? {
            continue;
        }
        match flag {
            "--engine" => {
                shape.builder.engine = Engine::parse(&flags.value()?)?;
                engine_given = true;
            }
            "--link-latency" => {
                let link = LinkLatencySpec::parse(&flags.value()?)?;
                shape.builder.link_latency.push(link);
            }
            "--trace" => trace_outs.chrome = Some(flags.value()?),
            "--trace-folded" => trace_outs.folded = Some(flags.value()?),
            "--drop" => {
                let (r, from, to, _) = parse_link_spec(&flags.value()?, 0)?;
                fault_nodes.extend([from, to]);
                shape.builder.faults = shape.builder.faults.with(r, from, to, LinkFault::Drop);
            }
            "--corrupt" => {
                let (r, from, to, ps) = parse_link_spec(&flags.value()?, 2)?;
                fault_nodes.extend([from, to]);
                let fault = LinkFault::Corrupt {
                    offset: usize::try_from(ps[0])
                        .map_err(|_| format!("--corrupt: offset {} too large", ps[0]))?,
                    mask: u8::try_from(ps[1])
                        .map_err(|_| format!("--corrupt: mask {} exceeds a byte", ps[1]))?,
                };
                shape.builder.faults = shape.builder.faults.with(r, from, to, fault);
            }
            "--delay" => {
                let (r, from, to, ps) = parse_link_spec(&flags.value()?, 1)?;
                fault_nodes.extend([from, to]);
                let rounds = u32::try_from(ps[0])
                    .ok()
                    .filter(|&r| r <= 10_000)
                    .ok_or_else(|| {
                        format!(
                            "--delay: {} rounds is unreasonably large (max 10000)",
                            ps[0]
                        )
                    })?;
                let fault = LinkFault::Delay { rounds };
                shape.builder.faults = shape.builder.faults.with(r, from, to, fault);
            }
            "--reorder" => {
                let (r, from, to, _) = parse_link_spec(&flags.value()?, 0)?;
                fault_nodes.extend([from, to]);
                shape.builder.faults = shape.builder.faults.with(r, from, to, LinkFault::Reorder);
            }
            other => return Err(format!("unknown run flag {other}")),
        }
    }
    // A latency model implies the event engine; the lockstep engine cannot
    // express one. An *explicit* --engine sync contradicting it is an
    // error, not a silent override. (SpecBuilder::validate would reject
    // the contradiction too; resolving it here keeps the flag UX — the
    // builder itself never auto-upgrades.)
    let builder = &mut shape.builder;
    if builder.latency != LatencySpec::Synchronous && builder.engine == Engine::Sync {
        if engine_given {
            return Err(format!(
                "--engine sync cannot express --latency {}; use --engine event",
                builder.latency
            ));
        }
        builder.engine = Engine::Event;
    }
    // Per-link overrides likewise only exist on the event engine.
    if !builder.link_latency.is_empty() && builder.engine == Engine::Sync {
        if engine_given {
            return Err(
                "--engine sync cannot express --link-latency; use --engine event".to_string(),
            );
        }
        builder.engine = Engine::Event;
    }
    if let Some(bad) = fault_nodes.iter().find(|id| id.index() >= builder.n) {
        return Err(format!(
            "fault spec references node {bad} but n = {}",
            builder.n
        ));
    }
    shape.apply_crash()?;
    shape.builder.validate()?;
    Ok(RunInvocation::Flags(Box::new(shape.builder), trace_outs))
}

fn cmd_run(invocation: RunInvocation) -> ExitCode {
    let (builder, trace_outs) = match invocation {
        RunInvocation::Flags(builder, outs) => (*builder, outs),
        RunInvocation::SpecFile(path) => return cmd_run_spec_file(&path),
    };
    let t = builder.resolved_t();
    let (cluster, spec) = builder.build().expect("validated by parse_run");

    println!(
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
                println!(
                    "key distribution (setup phase): {} rounds, {kd_us} µs",
                    p.keydist_rounds
                );
            }
            println!(
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
            return ExitCode::FAILURE;
        }
        run
    } else {
        let mut session = Session::new(cluster);
        let kd_start = std::time::Instant::now();
        if builder.protocol.needs_keys() {
            let kd = session.keydist();
            println!(
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
    println!(
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
                Some(o) => println!("  P{i}: {o}{grade}"),
                None => println!("  P{i}: (faulty)"),
            }
        }
    } else {
        let outs = run.correct_outcomes();
        let decided = outs.iter().filter(|o| o.decided().is_some()).count();
        let discovered = outs.iter().filter(|o| o.is_discovered()).count();
        println!(
            "  outcomes: {decided} decided, {discovered} discovered, {} pending",
            outs.len() - decided - discovered
        );
    }
    println!("classification: {outcome}");
    if outcome == SweepOutcome::SilentDisagreement {
        eprintln!("error: silent disagreement — the state the paper forbids");
        return ExitCode::FAILURE;
    }
    // A clean run (no faults, no crash, synchronous latency) is held to
    // the paper's failure-free contract: closed-form message count and a
    // unanimous decision on the sender's value.
    if let Some(expected) = expected {
        if run.stats.messages_total != expected {
            eprintln!(
                "error: clean run sent {} messages, formula says {expected}",
                run.stats.messages_total
            );
            return ExitCode::FAILURE;
        }
        if outcome != SweepOutcome::AllDecided || !run.all_decided(&builder.input) {
            eprintln!("error: clean run did not unanimously decide the sender's value");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `lafd run --spec FILE.json`: execute one wire-v1 request (the exact
/// format `lafd serve` reads) and print the report JSON to stdout.
fn cmd_run_spec_file(path: &str) -> ExitCode {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {path}: {e}"))
        .and_then(|raw| {
            let in_file = |e: String| format!("{path}: {e}");
            let (builder, id) = wire::request_from_json(raw.trim()).map_err(in_file)?;
            builder.validate().map_err(in_file)?;
            Ok((builder, id))
        });
    let (builder, id) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(id) = id {
        eprintln!("run --spec: request id {id}");
    }
    let (cluster, spec) = builder.build().expect("validated above");
    let run = cluster.run(&spec);
    println!("{}", run.to_json());
    if classify(&run, builder.network_faulted()) == SweepOutcome::SilentDisagreement {
        eprintln!("error: silent disagreement — the state the paper forbids");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Configuration of one `lafd serve` invocation.
struct ServeOpts {
    shards: usize,
    max_sessions: usize,
    /// Concurrent batch clients; the default is one per CPU.
    clients: Option<usize>,
    stdin: bool,
    listen: Option<String>,
    unix: Option<String>,
    metrics: Option<String>,
    metrics_format: MetricsFormat,
}

fn parse_serve(args: &[String]) -> Result<ServeOpts, String> {
    let mut opts = ServeOpts {
        shards: 2,
        max_sessions: 8,
        clients: None,
        stdin: false,
        listen: None,
        unix: None,
        metrics: None,
        metrics_format: MetricsFormat::Json,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--shards" => {
                opts.shards = flags.parse("--shards")?;
                if opts.shards == 0 || opts.shards > 256 {
                    return Err("--shards must be in 1..=256".to_string());
                }
            }
            "--max-sessions" => {
                opts.max_sessions = flags.parse("--max-sessions")?;
                if opts.max_sessions == 0 {
                    return Err("--max-sessions must be at least 1".to_string());
                }
            }
            "--clients" => {
                let clients = flags.parse("--clients")?;
                if clients == 0 {
                    return Err("--clients must be at least 1".to_string());
                }
                opts.clients = Some(clients);
            }
            "--stdin" => opts.stdin = true,
            "--listen" => opts.listen = Some(flags.value()?),
            "--unix" => opts.unix = Some(flags.value()?),
            "--metrics" => opts.metrics = Some(flags.value()?),
            "--metrics-format" => opts.metrics_format = MetricsFormat::parse(&flags.value()?)?,
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    if opts.listen.is_some() && opts.unix.is_some() {
        return Err("--listen and --unix are mutually exclusive".to_string());
    }
    if opts.stdin && (opts.listen.is_some() || opts.unix.is_some()) {
        return Err("--stdin does not compose with --listen/--unix".to_string());
    }
    // Only the stdin batch runs concurrent clients of its own.
    if opts.clients.is_some() && (opts.listen.is_some() || opts.unix.is_some()) {
        return Err("--clients only applies to the stdin batch, not --listen/--unix".to_string());
    }
    Ok(opts)
}

fn cmd_serve(opts: ServeOpts) -> ExitCode {
    let service = FdService::start(ServiceConfig {
        shards: opts.shards,
        max_sessions: opts.max_sessions,
    });
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
                    opts.shards,
                );
                for response in responses {
                    println!("{response}");
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
    match served.and(wrote) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type SearchArgs = (SearchConfig, usize, Option<String>, Option<String>);

fn parse_search(args: &[String]) -> Result<SearchArgs, String> {
    let Some((proto, rest)) = args.split_first() else {
        return Err("search needs a protocol (chain|nonauth|small|ba|degrade|ds|king)".to_string());
    };
    let mut config = SearchConfig::new(Protocol::parse(proto)?, 8, 2, 1);
    let spec = &mut config.spec;
    // `t` follows `--n` unless `--t` is given.
    spec.t = None;
    let mut threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json_path = None;
    let mut md_path = None;
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "-n" | "--n" => spec.n = flags.parse("--n")?,
            "--t" => spec.t = Some(flags.parse("--t")?),
            "--seed" => spec.seed = flags.parse("--seed")?,
            "--scheme" => spec.scheme = canonical_scheme(&flags.value()?)?.to_string(),
            // Kept as given: the report names the latency the user asked for.
            "--latency" => spec.latency = LatencySpec::parse(&flags.value()?)?,
            "--adversary" => {
                spec.adversary = AdversarySpec::scripted(AdversaryKind::parse(&flags.value()?)?);
            }
            "--strategy" => config.strategy = Strategy::parse(&flags.value()?)?,
            "--budget" => {
                config.budget = flags.parse("--budget")?;
                if config.budget == 0 || config.budget > 100_000 {
                    return Err("--budget must be in 1..=100000".to_string());
                }
            }
            "--threads" => {
                threads = flags.parse("--threads")?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--json" => json_path = Some(flags.value()?),
            "--md" => md_path = Some(flags.value()?),
            other => return Err(format!("unknown search flag {other}")),
        }
    }
    // The attacked run's input derives from its final seed.
    spec.input = scenario(spec.protocol, spec.n, spec.resolved_t(), spec.seed).input;
    Ok((config, threads, json_path, md_path))
}

fn cmd_search((config, threads, json_path, md_path): SearchArgs) -> ExitCode {
    let spec = &config.spec;
    eprintln!(
        "search: {} n = {} t = {} latency = {} strategy = {} budget = {} threads = {}",
        spec.protocol,
        spec.n,
        spec.resolved_t(),
        spec.latency,
        config.strategy,
        config.budget,
        threads
    );
    let start = std::time::Instant::now();
    let report = match run_search_parallel(&config, threads) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("search: finished in {:?}", start.elapsed());

    print!("{}", report.to_markdown());

    if !save(json_path.as_ref(), report.to_json(), "search: JSON report")
        || !save(
            md_path.as_ref(),
            report.to_markdown(),
            "search: markdown report",
        )
    {
        return ExitCode::FAILURE;
    }

    if report.silent_found() {
        eprintln!("error: the search found silent disagreement — the state the paper forbids");
        return ExitCode::FAILURE;
    }
    if !report.replay_ok {
        eprintln!("error: the best schedule certificate did not replay identically");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// Deployment layer: `lafd registry`, `lafd cluster`, `lafd chaos`,
// `lafd cluster-worker` (all logic in `fd_core::deploy`)
// ---------------------------------------------------------------------

/// `lafd registry` flags: the listen address and the optional
/// `--wait-limit-secs` (the registry's own default otherwise).
fn parse_registry(args: &[String]) -> Result<(String, Option<u64>), String> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut wait_limit_secs = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--listen" => listen = flags.value()?,
            "--wait-limit-secs" => {
                wait_limit_secs = Some(parse_deadline_secs(flag, &flags.value()?)?);
            }
            other => return Err(format!("unknown registry flag {other}")),
        }
    }
    Ok((listen, wait_limit_secs))
}

fn cmd_registry((listen, wait_limit_secs): (String, Option<u64>)) -> ExitCode {
    let registry = match deploy::Registry::bind(&listen) {
        Ok(r) => match wait_limit_secs {
            Some(secs) => r.with_wait_limit(Duration::from_secs(secs)),
            None => r,
        },
        Err(e) => {
            eprintln!("error: registry bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The orchestrator (and shell scripts) scrape the bound address from
    // this exact line — keep it first and flushed.
    println!("registry listening on {}", registry.local_addr());
    let _ = std::io::stdout().flush();
    registry.serve();
    ExitCode::SUCCESS
}

fn parse_cluster(args: &[String]) -> Result<(SpecBuilder, ClusterConfig), String> {
    let Some((proto, rest)) = args.split_first() else {
        return Err(
            "cluster needs a protocol (chain|nonauth|small|ba|degrade|ds|king)".to_string(),
        );
    };
    let mut shape = Shape::new(proto)?;
    let mut cfg = ClusterConfig::default();
    let mut round_wall_given = false;
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        if shape.flag(flag, &mut flags)? {
            continue;
        }
        match flag {
            "--io-deadline-secs" => {
                let secs = parse_deadline_secs(flag, &flags.value()?)?;
                cfg.io_deadline = Duration::from_secs(secs);
            }
            "--round-wall-us" => {
                cfg.round_wall = Duration::from_micros(flags.parse("--round-wall-us")?);
                round_wall_given = true;
            }
            "--max-restarts" => cfg.max_restarts = flags.parse("--max-restarts")?,
            "--chaos" => cfg.chaos = Some(ChaosSpec::parse(&flags.value()?)?),
            "--registry" => cfg.registry = Some(flags.value()?),
            "--bind" => cfg.bind = flags.value()?,
            other => return Err(format!("unknown cluster flag {other}")),
        }
    }
    shape.apply_crash()?;
    let mut builder = shape.builder;
    // A latency model on the cluster is a wall-clock delay shim over the
    // socket mesh. It needs a nonzero round-wall to scale ticks against;
    // default 2ms per round when the user asked for latency but gave none.
    // The shape still validates against the event engine (the lockstep
    // engine cannot express a latency model).
    if builder.latency != LatencySpec::Synchronous {
        builder.engine = Engine::Event;
        if !round_wall_given {
            cfg.round_wall = Duration::from_micros(2_000);
        }
    }
    builder.validate()?;
    Ok((builder, cfg))
}

/// This binary, which the supervisor re-executes as registry and workers.
fn lafd_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the lafd binary to re-exec: {e}"))
}

fn cmd_cluster((builder, cfg): (SpecBuilder, ClusterConfig)) -> ExitCode {
    let supervised = lafd_exe().and_then(|exe| {
        deploy::supervise(&exe, &builder, &cfg, &mut std::io::stdout()).map_err(|e| e.error)
    });
    let supervised = match supervised {
        Ok(supervised) => supervised,
        Err(e) => {
            eprintln!("error: lafd cluster aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    let totals = &supervised.totals;
    let report = &supervised.report;
    let res = &supervised.resilience;
    println!(
        "key distribution: {} messages, {} bytes, {} rounds, {} anomalies",
        totals.kd_messages, totals.kd_bytes, totals.kd_rounds, totals.kd_anomalies
    );
    println!(
        "{}: {} messages, {} bytes, {} rounds",
        builder.protocol.name(),
        report.stats.messages_total,
        report.stats.bytes_total,
        report.stats.rounds
    );
    println!(
        "resilience: generations={} retries={} dead={:?} degraded={}",
        res.generations, res.retries, res.dead, res.degraded
    );
    // The machine-readable result is the last stdout line, so scripts (and
    // the cross-validation tests) can compare it byte-for-byte with the
    // in-process engines' `FdRunReport::to_json`.
    println!("{}", report.to_json());
    if res.degraded {
        // Loud grade: the run finished, but only by presuming crashed
        // workers — scripts must be able to tell this apart from a clean
        // recovery.
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

type ChaosArgs = (
    SpecBuilder,
    ClusterConfig,
    Vec<deploy::Campaign>,
    Option<String>,
);

/// `lafd chaos` flags: the campaigns, the `--json` path, and the
/// `lafd cluster` flags the rest of the line holds.
fn parse_chaos(args: &[String]) -> Result<ChaosArgs, String> {
    let mut campaigns = Vec::new();
    let mut json_out = None;
    let mut cluster_args: Vec<String> = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--campaign" => {
                let value = flags.value()?;
                let (name, spec) = value
                    .split_once('=')
                    .ok_or_else(|| format!("--campaign {value:?}: expected NAME=SPEC"))?;
                campaigns.push(deploy::Campaign::parse(name, spec)?);
            }
            "--json" => json_out = Some(flags.value()?),
            other => cluster_args.push(other.to_string()),
        }
    }
    let (builder, cfg) = parse_cluster(&cluster_args)?;
    if cfg.chaos.is_some() {
        return Err("lafd chaos takes --campaign NAME=SPEC, not --chaos".to_string());
    }
    if campaigns.is_empty() {
        campaigns = deploy::default_campaigns(builder.seed, builder.resolved_t());
    }
    Ok((builder, cfg, campaigns, json_out))
}

/// `lafd chaos`: run seeded fault campaigns over the supervised cluster
/// (`fd_core::deploy::run_campaigns`) and print the robustness report.
/// Exit 0 iff every campaign behaved.
fn cmd_chaos((builder, cfg, campaigns, json_out): ChaosArgs) -> ExitCode {
    let report = lafd_exe().and_then(|exe| {
        deploy::run_campaigns(&exe, &builder, &cfg, &campaigns, &mut std::io::stdout())
    });
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = report.to_json();
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("error: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Machine-readable robustness matrix as the last stdout line.
    println!("{doc}");
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: at least one chaos campaign diverged from its expected outcome");
        ExitCode::FAILURE
    }
}

fn cmd_cluster_worker(args: &[String]) -> ExitCode {
    let (cfg, request) = match WorkerConfig::from_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let node = cfg.node;
    let builder = match wire::request_from_json(&request) {
        Ok((builder, _id)) => builder,
        Err(e) => {
            eprintln!("error: cluster worker {node}: bad --request: {e}");
            return ExitCode::FAILURE;
        }
    };
    match deploy::run_worker(&cfg, &builder) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: cluster worker {node}: {failure}");
            // The exit code is the supervisor's classification channel:
            // chaos kills are charged to the slot's restart budget,
            // collateral failures restart the generation without blame,
            // and genuine bugs abort the run.
            std::process::exit(failure.exit_code());
        }
    }
}

/// Parse a comma-separated list with an element parser.
fn parse_list<T>(
    raw: &str,
    what: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, String> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s.trim()))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("--{what} needs at least one entry"));
    }
    Ok(items)
}

/// Parsed `lafd sweep` flags: the matrix, worker threads, JSON/markdown
/// output paths, and the optional remote service address.
struct SweepArgs {
    matrix: SweepMatrix,
    threads: usize,
    json_path: Option<String>,
    md_path: Option<String>,
    remote: Option<String>,
}

fn parse_sweep_matrix(args: &[String]) -> Result<SweepArgs, String> {
    let mut matrix = SweepMatrix::default_matrix();
    let mut threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json_path = None;
    let mut md_path = None;
    let mut remote = None;

    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--protocols" => {
                let raw = flags.value()?;
                matrix.protocols = if raw == "all" {
                    Protocol::ALL.to_vec()
                } else {
                    parse_list(&raw, "protocols", Protocol::parse)?
                };
            }
            "--sizes" => {
                matrix.sizes = parse_list(&flags.value()?, "sizes", |s| {
                    let n: usize = s.parse().map_err(|e| format!("--sizes: {e}"))?;
                    if n < 2 {
                        return Err(format!("--sizes: need n >= 2 (got {n})"));
                    }
                    if n > u16::MAX as usize {
                        return Err(format!("--sizes: {n} exceeds the node-id range"));
                    }
                    Ok(n)
                })?;
            }
            "--faults" => {
                let raw = flags.value()?;
                matrix.fault_rule = if raw == "auto" {
                    FaultRule::Classic
                } else {
                    FaultRule::Explicit(parse_list(&raw, "faults", |s| {
                        s.parse::<usize>().map_err(|e| format!("--faults: {e}"))
                    })?)
                };
            }
            "--adversaries" => {
                matrix.adversaries =
                    parse_list(&flags.value()?, "adversaries", AdversaryKind::parse)?;
            }
            "--schemes" => {
                matrix.schemes = parse_list(&flags.value()?, "schemes", canonical_scheme)?
            }
            "--seeds" => {
                matrix.seeds = parse_list(&flags.value()?, "seeds", |s| {
                    s.parse::<u64>().map_err(|e| format!("--seeds: {e}"))
                })?;
            }
            "--engines" => matrix.engines = parse_list(&flags.value()?, "engines", Engine::parse)?,
            "--latencies" => {
                matrix.latencies = parse_list(&flags.value()?, "latencies", LatencySpec::parse)?;
            }
            "--link-latency" => {
                matrix
                    .link_latency
                    .push(LinkLatencySpec::parse(&flags.value()?)?);
            }
            "--search" => {
                let raw = flags.value()?;
                let (budget_raw, strategy) = match raw.split_once(':') {
                    Some((b, s)) => (b.to_string(), Strategy::parse(s)?),
                    None => (raw.clone(), Strategy::Random),
                };
                let budget: usize = budget_raw
                    .parse()
                    .map_err(|e| format!("--search: budget: {e}"))?;
                if budget == 0 || budget > 10_000 {
                    return Err("--search budget must be in 1..=10000".to_string());
                }
                matrix.search = Some(SearchAxis { budget, strategy });
            }
            "--threads" => {
                threads = flags.parse("--threads")?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--json" => json_path = Some(flags.value()?),
            "--md" => md_path = Some(flags.value()?),
            "--remote" => remote = Some(flags.value()?),
            other => return Err(format!("unknown sweep flag {other}")),
        }
    }
    // The schedule search mutates adversarial delivery orders in-process;
    // the wire protocol has no way to ship a search axis to a service.
    if remote.is_some() && matrix.search.is_some() {
        return Err(
            "--remote does not compose with --search (the search runs locally)".to_string(),
        );
    }
    // Link overrides must reference nodes that exist in every swept size,
    // and both link overrides and the search axis need the event engine.
    let max_link_id = matrix
        .link_latency
        .iter()
        .flat_map(|l| [l.from.index(), l.to.index()])
        .max();
    if let (Some(max_id), Some(&min_n)) = (max_link_id, matrix.sizes.iter().min()) {
        if max_id >= min_n {
            return Err(format!(
                "--link-latency references node {max_id} but the smallest swept size is {min_n}"
            ));
        }
    }
    if (!matrix.link_latency.is_empty() || matrix.search.is_some())
        && !matrix.engines.contains(&Engine::Event)
    {
        return Err(
            "--link-latency / --search need the event engine (add --engines event)".to_string(),
        );
    }
    // The search explores the base latency envelope; per-link overrides
    // change the delivery times it would have to attack. Rather than
    // silently skipping every row, reject the combination.
    if matrix.search.is_some() && !matrix.link_latency.is_empty() {
        return Err("--search does not compose with --link-latency yet".to_string());
    }
    if matrix.search.is_some() && !matrix.latencies.iter().any(|l| l.has_schedule_freedom()) {
        return Err(
            "--search needs a latency with schedule freedom (e.g. --latencies jitter:1)"
                .to_string(),
        );
    }
    Ok(SweepArgs {
        matrix,
        threads,
        json_path,
        md_path,
        remote,
    })
}

fn cmd_sweep(sweep: SweepArgs) -> ExitCode {
    let SweepArgs {
        matrix,
        threads,
        json_path,
        md_path,
        remote,
    } = sweep;
    let scenarios = matrix.scenarios().len();
    if scenarios == 0 {
        eprintln!("error: the matrix expands to zero admissible scenarios");
        return ExitCode::FAILURE;
    }
    match &remote {
        Some(addr) => eprintln!("sweep: {scenarios} scenarios on {threads} clients -> {addr}"),
        None => eprintln!("sweep: {scenarios} scenarios on {threads} threads"),
    }
    let start = std::time::Instant::now();
    let result = match &remote {
        Some(addr) => run_sweep_with(&matrix, threads, &RemoteExecutor { addr: addr.clone() }),
        None => run_sweep_with(&matrix, threads, &LocalExecutor),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();

    print!("{}", report.to_markdown());
    eprintln!("sweep: finished in {elapsed:?}");

    if !save(json_path.as_ref(), report.to_json(), "sweep: JSON report")
        || !save(
            md_path.as_ref(),
            report.to_markdown(),
            "sweep: markdown report",
        )
    {
        return ExitCode::FAILURE;
    }

    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "sweep: {} of {} scenarios FAILED their checks",
            report.failures().len(),
            scenarios
        );
        ExitCode::FAILURE
    }
}
