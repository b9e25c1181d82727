//! `lafd` — command-line driver for the local-auth-fd reproduction.
//!
//! ```text
//! lafd run      <protocol> [-n 256] [--t T] [--seed 1] [--value V]
//!               [--scheme tiny|s512|s1024|rsa512] [--engine sync|event]
//!               [--latency sync|fixed:D|jitter:E|psync:GST:E]
//!               [--link-latency FROM:TO:MODEL[:ARG]]
//!               [--adversary KIND[:NODES]] [--crash I]
//!               [--drop R:FROM:TO] [--corrupt R:FROM:TO:OFF:MASK]
//!               [--delay R:FROM:TO:BY] [--reorder R:FROM:TO]
//! lafd run      --spec FILE.json   # wire-v1 request (the `lafd serve` format)
//! lafd run      <protocol> --trace out.json [--trace-folded out.folded]
//!               # Chrome trace-event + folded-stack phase traces
//! lafd serve    [--shards 2] [--max-sessions 8] [--stdin] [--listen ADDR]
//!               [--unix PATH] [--clients C] [--metrics PATH]
//!               [--metrics-format json|prometheus]
//! lafd search   <protocol> [--budget N] [--strategy random|greedy] [-n 8]
//!               [--t T] [--seed S] [--latency jitter:2] [--adversary none]
//!               [--threads N] [--json PATH] [--md PATH]
//! lafd registry [--listen 127.0.0.1:0] [--wait-limit-secs 120]
//! lafd cluster  <protocol> [-n 7] [--t T] [--seed S] [--scheme tiny|...]
//!               [--value V] [--adversary KIND[:NODES]] [--crash I]
//!               [--latency sync|fixed:D|jitter:E|psync:GST:E]
//!               [--io-deadline-secs 60] [--round-wall-us 0]
//!               [--chaos SPEC] [--max-restarts 1] [--registry ADDR]
//!               [--bind HOST]
//!               # one OS process per node over a discovery registry and
//!               # a non-blocking socket mesh; last stdout line is the
//!               # standard report JSON (byte-identical to `lafd run`);
//!               # exit 0 = clean/recovered, 2 = degraded to the crash
//!               # adversary, 1 = failed
//! lafd chaos    <protocol> [-n 4] [--t T] [--seed S] [--max-restarts 1]
//!               [--campaign NAME=SPEC]... [--json PATH]
//!               # seeded fault campaigns over the supervised cluster;
//!               # SPEC: seed=S;kill=N@PHASE[xK|xinf];connect=PCT;
//!               # reset=PCT;accept-delay=PCT:MS;stall=PCT:MS
//! lafd sweep    [--protocols all|chain,nonauth,ba,degrade,ds,king,small]
//!               [--sizes 4,7,10] [--faults auto|0,1,2] [--adversaries none,silent,...]
//!               [--schemes tiny,dsa-tiny,s512] [--seeds 1,2]
//!               [--engines sync,event] [--latencies sync,jitter:1,psync:2:1]
//!               [--link-latency FROM:TO:MODEL[:ARG]] [--search N[:STRATEGY]]
//!               [--remote ADDR] [--threads N] [--json PATH] [--md PATH]
//! ```
//!
//! Every subcommand that executes a protocol run goes through one request
//! path: flags build a [`SpecBuilder`] ([`Shape`] holds the flags `run`
//! and `cluster` share), the builder validates the shape, and execution
//! happens via [`SpecBuilder::build`] — the same object the `lafd serve`
//! wire format serializes, so a flag invocation and a service request are
//! provably the same run. The multi-run, key-rotation and two-faced-sender
//! demos live in `examples/`.

use local_auth_fd::core::adversary::AdversarySpec;
use local_auth_fd::core::metrics;
use local_auth_fd::core::runner::FdRunReport;
use local_auth_fd::core::schedsearch::{run_search_parallel, SearchConfig, Strategy};
use local_auth_fd::core::service::{FdService, MetricsFormat, ServiceConfig};
use local_auth_fd::core::spec::{Protocol, Session, SpecBuilder};
use local_auth_fd::core::sweep::{
    classify, run_sweep_with, AdversaryKind, FaultRule, LocalExecutor, Scenario, ScenarioExecutor,
    SchemeSpec, SearchAxis, SweepMatrix, SweepOutcome,
};
use local_auth_fd::core::wire;
use local_auth_fd::simnet::fault::LinkFault;
use local_auth_fd::simnet::transport::chaos::ChaosSpec;
use local_auth_fd::simnet::{Engine, LatencySpec, LinkLatencySpec, NodeId};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: lafd <run|serve|search|sweep|cluster|chaos|registry> ...\n\
         run: lafd run <chain|nonauth|small|ba|degrade|ds|king> [-n N] [--t T] [--seed S] \
         [--scheme tiny|s512|s1024|s2048|dsa512|dsa1024|rsa512|rsa1024] [--value V] \
         [--engine sync|event] [--latency sync|fixed:D|jitter:E|psync:GST:E] \
         [--link-latency FROM:TO:MODEL[:ARG]] \
         [--adversary none|silent|crash|tamper|forge|wrongname|equivocate[:NODES]] \
         [--drop R:FROM:TO] [--corrupt R:FROM:TO:OFF:MASK] [--delay R:FROM:TO:BY] \
         [--reorder R:FROM:TO] [--crash I] [--trace OUT.json] [--trace-folded OUT.folded] \
         — or: lafd run --spec FILE.json\n\
         serve: lafd serve [--shards N] [--max-sessions K] [--stdin] [--listen HOST:PORT] \
         [--unix PATH] [--clients C] [--metrics PATH] [--metrics-format json|prometheus]\n\
         search: lafd search <protocol> [--budget N] [--strategy random|greedy] [-n N] \
         [--t T] [--seed S] [--latency jitter:2] [--adversary none|silent|...] \
         [--threads N] [--json PATH] [--md PATH]\n\
         sweep flags: [--protocols all|LIST] [--sizes LIST] [--faults auto|LIST] \
         [--adversaries LIST] [--schemes LIST] [--seeds LIST] [--engines LIST] \
         [--latencies LIST] [--link-latency SPEC] [--search N[:STRATEGY]] \
         [--remote HOST:PORT] [--threads N] [--json PATH] [--md PATH]\n\
         cluster: lafd cluster <chain|nonauth|small|ba|degrade|ds|king> [-n N] [--t T] \
         [--seed S] [--scheme NAME] [--value V] [--adversary KIND[:NODES]] [--crash I] \
         [--latency SPEC] [--io-deadline-secs S] [--round-wall-us U] [--chaos SPEC] \
         [--max-restarts K] [--registry ADDR] [--bind HOST] \
         — spawns a registry plus one worker process per node, restarts crashed \
         workers with incarnation fencing, degrades to the crash adversary past \
         the budget (exit 2)\n\
         chaos: lafd chaos <protocol> [-n N] [--t T] [--seed S] [--max-restarts K] \
         [--campaign NAME=SPEC]... [--json PATH] — seeded fault campaigns; SPEC \
         clauses: seed=S;kill=N@keydist|round:K|teardown[xTIMES|xinf];connect=PCT;\
         reset=PCT;accept-delay=PCT:MS;stall=PCT:MS\n\
         registry: lafd registry [--listen HOST:PORT] [--wait-limit-secs S]"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    match cmd.as_str() {
        "sweep" => cmd_sweep(rest),
        "run" => cmd_run(rest),
        "serve" => cmd_serve(rest),
        "search" => cmd_search(rest),
        "registry" => cmd_registry(rest),
        "cluster" => cmd_cluster(rest),
        "cluster-worker" => cmd_cluster_worker(rest),
        "chaos" => cmd_chaos(rest),
        other => {
            eprintln!("error: unknown command {other}");
            usage();
            ExitCode::FAILURE
        }
    }
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

    /// Consume `flag` (taking its value from `grab`) if it is a shape
    /// flag; `Ok(false)` leaves it to the caller's own flag set.
    fn flag(
        &mut self,
        flag: &str,
        grab: &mut dyn FnMut() -> Result<String, String>,
    ) -> Result<bool, String> {
        let builder = &mut self.builder;
        match flag {
            "-n" | "--n" => builder.n = grab()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--t" => builder.t = Some(grab()?.parse().map_err(|e| format!("--t: {e}"))?),
            "--seed" => builder.seed = grab()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--scheme" => builder.scheme = grab()?,
            "--value" => builder.input = grab()?.into_bytes(),
            "--latency" => builder.latency = LatencySpec::parse(&grab()?)?.normalize(),
            "--adversary" => {
                builder.adversary = AdversarySpec::parse(&grab()?)?;
                self.adversary_given = true;
            }
            "--crash" => {
                self.crash = Some(grab()?.parse().map_err(|e| format!("--crash: {e}"))?);
            }
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
        self.builder.adversary =
            AdversarySpec::scripted_at(AdversaryKind::SilentRelay, vec![NodeId(crash as u16)]);
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
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        if shape.flag(flag, &mut grab)? {
            continue;
        }
        match flag.as_str() {
            "--engine" => {
                shape.builder.engine = Engine::parse(&grab()?)?;
                engine_given = true;
            }
            "--link-latency" => {
                let link = LinkLatencySpec::parse(&grab()?)?;
                shape.builder.link_latency.push(link);
            }
            "--trace" => trace_outs.chrome = Some(grab()?),
            "--trace-folded" => trace_outs.folded = Some(grab()?),
            "--drop" => {
                let (r, from, to, _) = parse_link_spec(&grab()?, 0)?;
                fault_nodes.extend([from, to]);
                shape.builder.faults = shape.builder.faults.with(r, from, to, LinkFault::Drop);
            }
            "--corrupt" => {
                let (r, from, to, ps) = parse_link_spec(&grab()?, 2)?;
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
                let (r, from, to, ps) = parse_link_spec(&grab()?, 1)?;
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
                let (r, from, to, _) = parse_link_spec(&grab()?, 0)?;
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

fn cmd_run(args: &[String]) -> ExitCode {
    let (builder, trace_outs) = match parse_run(args) {
        Ok(RunInvocation::Flags(builder, outs)) => (*builder, outs),
        Ok(RunInvocation::SpecFile(path)) => return cmd_run_spec_file(&path),
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
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
        for (path, rendered, what) in [
            (&trace_outs.chrome, trace.to_chrome_json(), "Chrome trace"),
            (&trace_outs.folded, trace.to_folded(), "folded stacks"),
        ] {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, rendered) {
                    eprintln!("error: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("run: {what} written to {path}");
            }
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

    let network_faulted = !builder.faults.is_empty()
        || builder.latency != LatencySpec::Synchronous
        || !builder.link_latency.is_empty();
    let outcome = classify(&run, network_faulted);
    let clean = builder.adversary.is_honest() && !network_faulted;
    let formula = clean
        .then(|| builder.protocol.expected_messages(builder.n, t))
        .map_or_else(|| "—".to_string(), |m| m.to_string());
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
    if clean {
        let expected = builder.protocol.expected_messages(builder.n, t);
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
/// format `lafd serve` accepts) and print the report JSON to stdout.
fn cmd_run_spec_file(path: &str) -> ExitCode {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (builder, id) = match wire::request_from_json(raw.trim()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = builder.validate() {
        eprintln!("error: {path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(id) = id {
        eprintln!("run --spec: request id {id}");
    }
    let (cluster, spec) = builder.build().expect("validated above");
    let run = cluster.run(&spec);
    println!("{}", run.to_json());
    let network_faulted =
        builder.latency != LatencySpec::Synchronous || !builder.link_latency.is_empty();
    if classify(&run, network_faulted) == SweepOutcome::SilentDisagreement {
        eprintln!("error: silent disagreement — the state the paper forbids");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Configuration of one `lafd serve` invocation.
struct ServeOpts {
    shards: usize,
    max_sessions: usize,
    clients: usize,
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
        clients: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        stdin: false,
        listen: None,
        unix: None,
        metrics: None,
        metrics_format: MetricsFormat::Json,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--shards" => {
                opts.shards = grab()?.parse().map_err(|e| format!("--shards: {e}"))?;
                if opts.shards == 0 || opts.shards > 256 {
                    return Err("--shards must be in 1..=256".to_string());
                }
            }
            "--max-sessions" => {
                opts.max_sessions = grab()?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?;
                if opts.max_sessions == 0 {
                    return Err("--max-sessions must be at least 1".to_string());
                }
            }
            "--clients" => {
                opts.clients = grab()?.parse().map_err(|e| format!("--clients: {e}"))?;
                if opts.clients == 0 {
                    return Err("--clients must be at least 1".to_string());
                }
            }
            "--stdin" => opts.stdin = true,
            "--listen" => opts.listen = Some(grab()?),
            "--unix" => opts.unix = Some(grab()?),
            "--metrics" => opts.metrics = Some(grab()?),
            "--metrics-format" => opts.metrics_format = MetricsFormat::parse(&grab()?)?,
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    if opts.listen.is_some() && opts.unix.is_some() {
        return Err("--listen and --unix are mutually exclusive".to_string());
    }
    if opts.stdin && (opts.listen.is_some() || opts.unix.is_some()) {
        return Err("--stdin does not compose with --listen/--unix".to_string());
    }
    Ok(opts)
}

/// Answer one request line: control verbs (`{"op": "metrics"}`,
/// `{"op": "shutdown"}`) are handled here; everything else is a wire-v1
/// `RunSpec` request routed into the service.
fn dispatch_line(
    request: &str,
    service: &FdService,
    stop: &std::sync::atomic::AtomicBool,
) -> String {
    if let Ok(value) = wire::Value::parse(request) {
        if let Some(op) = value.get("op").and_then(wire::Value::as_str) {
            return match op {
                // JSON metrics are one line, which fits the
                // newline-delimited reply framing; Prometheus text is
                // inherently multi-line and ends with a `# EOF` line so
                // line-framed clients know where the document stops.
                "metrics" => value
                    .get("format")
                    .and_then(wire::Value::as_str)
                    .map_or(Ok(MetricsFormat::Json), MetricsFormat::parse)
                    .map_or_else(|e| wire::error_to_json(None, &e), |f| service.metrics_in(f)),
                "shutdown" => {
                    stop.store(true, std::sync::atomic::Ordering::SeqCst);
                    "{\"ok\": true, \"draining\": true}".to_string()
                }
                other => wire::error_to_json(None, &format!("unknown op {other}")),
            };
        }
    }
    service.submit_line(request)
}

/// Longest request line `lafd serve` accepts, on a socket or on stdin.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Send one newline-terminated frame in exactly one write. With the
/// terminator in a write of its own, Nagle's algorithm holds it back
/// until the peer's delayed ACK fires (~40 ms per frame).
fn write_frame(out: &mut impl Write, mut frame: String) -> std::io::Result<()> {
    frame.push('\n');
    out.write_all(frame.as_bytes())?;
    out.flush()
}

/// What [`read_request_line`] found.
enum RequestLine {
    /// `line` holds one request (newline-terminated, or cut off by end
    /// of input).
    Complete,
    /// `line` passed [`MAX_REQUEST_LINE`] bytes without a newline.
    TooLong,
    /// End of input with nothing pending.
    Eof,
}

/// Append the next request line to `line`, never holding more than
/// [`MAX_REQUEST_LINE`] + 1 bytes. On an I/O error (a read timeout, on a
/// socket) the bytes read so far stay in `line` and the call can simply
/// be repeated.
fn read_request_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> std::io::Result<RequestLine> {
    let room = (MAX_REQUEST_LINE + 1).saturating_sub(line.len());
    let read = reader.take(room as u64).read_until(b'\n', line)?;
    Ok(if line.ends_with(b"\n") {
        RequestLine::Complete
    } else if line.len() > MAX_REQUEST_LINE {
        RequestLine::TooLong
    } else if read == 0 {
        RequestLine::Eof
    } else {
        RequestLine::Complete
    })
}

/// The error frame answering a [`RequestLine::TooLong`] line.
fn oversized_line_response() -> String {
    wire::error_to_json(
        None,
        &format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
    )
}

/// The trimmed text of a request line, or the error frame answering one
/// that is not UTF-8.
fn request_text(line: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(line)
        .map(str::trim)
        .map_err(|e| wire::error_to_json(None, &format!("request line is not UTF-8: {e}")))
}

/// Serve one accepted connection: newline-delimited requests in, one
/// response frame per request out (see [`write_frame`]). A request line
/// past [`MAX_REQUEST_LINE`] is answered with one error frame and the
/// connection closed, so a client that never sends a newline cannot grow
/// the server. The stream carries a read timeout so an idle connection
/// notices the shutdown flag.
fn handle_connection<S: Read + Write>(
    stream: S,
    service: &FdService,
    stop: &std::sync::atomic::AtomicBool,
) {
    use std::sync::atomic::Ordering;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        match read_request_line(&mut reader, &mut line) {
            Ok(RequestLine::Eof) => break,
            Ok(RequestLine::TooLong) => {
                let _ = write_frame(reader.get_mut(), oversized_line_response());
                break;
            }
            Ok(RequestLine::Complete) => {
                let response = match request_text(&line) {
                    Ok("") => None,
                    Ok(request) => Some(dispatch_line(request, service, stop)),
                    Err(error) => Some(error),
                };
                line.clear();
                let Some(response) = response else { continue };
                if write_frame(reader.get_mut(), response).is_err() {
                    break;
                }
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            // A timed-out read leaves any partial line in the buffer;
            // keep it and poll the shutdown flag.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Accept loop shared by the TCP and Unix listeners: poll a non-blocking
/// accept, hand each connection to a scoped thread, exit when a client
/// sends `{"op": "shutdown"}`.
fn accept_loop<S, A>(mut accept: A, service: &FdService, stop: &std::sync::atomic::AtomicBool)
where
    S: Read + Write + Send,
    A: FnMut() -> Result<Option<S>, String>,
{
    use std::sync::atomic::Ordering;
    std::thread::scope(|scope| loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accept() {
            Ok(Some(stream)) => {
                scope.spawn(move || handle_connection(stream, service, stop));
            }
            Ok(None) => std::thread::sleep(std::time::Duration::from_millis(25)),
            Err(e) => {
                eprintln!("serve: accept: {e}");
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        }
    });
}

fn serve_tcp(
    service: &FdService,
    addr: &str,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking {addr}: {e}"))?;
    match listener.local_addr() {
        Ok(local) => eprintln!("serve: listening on {local}"),
        Err(_) => eprintln!("serve: listening on {addr}"),
    }
    accept_loop(
        || match listener.accept() {
            Ok((stream, _peer)) => {
                stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.set_nodelay(true))
                    .and_then(|()| {
                        stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))
                    })
                    .map_err(|e| format!("configuring connection: {e}"))?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(format!("{e}")),
        },
        service,
        stop,
    );
    Ok(())
}

#[cfg(unix)]
fn serve_unix(
    service: &FdService,
    path: &str,
    stop: &std::sync::atomic::AtomicBool,
) -> Result<(), String> {
    // A stale socket file from a crashed server would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener =
        std::os::unix::net::UnixListener::bind(path).map_err(|e| format!("binding {path}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking {path}: {e}"))?;
    eprintln!("serve: listening on {path}");
    accept_loop(
        || match listener.accept() {
            Ok((stream, _peer)) => {
                stream
                    .set_nonblocking(false)
                    .and_then(|()| {
                        stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))
                    })
                    .map_err(|e| format!("configuring connection: {e}"))?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(format!("{e}")),
        },
        service,
        stop,
    );
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(not(unix))]
fn serve_unix(
    _service: &FdService,
    _path: &str,
    _stop: &std::sync::atomic::AtomicBool,
) -> Result<(), String> {
    Err("--unix is only available on Unix platforms".to_string())
}

/// A stdin batch: the well-formed request lines in input order, plus the
/// error frame of every line refused at the framing level (too long, not
/// UTF-8) with its position in the batch's output, ascending.
type Batch = (Vec<String>, Vec<(usize, String)>);

/// Read the whole `--stdin` batch, skipping blank lines. The bytes of a
/// line past [`MAX_REQUEST_LINE`] are discarded as they are read.
fn read_batch(input: &mut impl BufRead) -> std::io::Result<Batch> {
    let (mut lines, mut rejected) = (Vec::new(), Vec::new());
    let mut line = Vec::new();
    loop {
        match read_request_line(input, &mut line)? {
            RequestLine::Eof => return Ok((lines, rejected)),
            RequestLine::Complete => match request_text(&line) {
                Ok("") => {}
                Ok(request) => lines.push(request.to_string()),
                Err(error) => rejected.push((lines.len() + rejected.len(), error)),
            },
            RequestLine::TooLong => {
                rejected.push((lines.len() + rejected.len(), oversized_line_response()));
                // Discard the rest of the line in bounded pieces.
                while !line.ends_with(b"\n") {
                    line.clear();
                    if input.take(1 << 16).read_until(b'\n', &mut line)? == 0 {
                        break;
                    }
                }
            }
        }
        line.clear();
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let opts = match parse_serve(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let service = FdService::start(ServiceConfig {
        shards: opts.shards,
        max_sessions: opts.max_sessions,
    });
    let stop = std::sync::atomic::AtomicBool::new(false);
    let served = if let Some(addr) = &opts.listen {
        serve_tcp(&service, addr, &stop)
    } else if let Some(path) = &opts.unix {
        serve_unix(&service, path, &stop)
    } else {
        // Default (and `--stdin`) mode: read the whole batch from stdin,
        // answer on stdout in input order.
        match read_batch(&mut std::io::stdin().lock()) {
            Ok((lines, rejected)) => {
                eprintln!(
                    "serve: {} requests on {} shards, {} clients",
                    lines.len() + rejected.len(),
                    opts.shards,
                    opts.clients
                );
                let mut responses = service.submit_batch(&lines, opts.clients);
                for (at, error) in rejected {
                    responses.insert(at, error);
                }
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
    let mut t_given: Option<usize> = None;
    let mut threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json_path = None;
    let mut md_path = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "-n" | "--n" => config.n = grab()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--t" => t_given = Some(grab()?.parse().map_err(|e| format!("--t: {e}"))?),
            "--seed" => config.seed = grab()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--scheme" => config.scheme = SchemeSpec::parse(&grab()?)?,
            "--latency" => config.latency = LatencySpec::parse(&grab()?)?,
            "--adversary" => config.adversary = AdversaryKind::parse(&grab()?)?,
            "--strategy" => config.strategy = Strategy::parse(&grab()?)?,
            "--budget" => {
                config.budget = grab()?.parse().map_err(|e| format!("--budget: {e}"))?;
                if config.budget == 0 || config.budget > 100_000 {
                    return Err("--budget must be in 1..=100000".to_string());
                }
            }
            "--threads" => {
                threads = grab()?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--json" => json_path = Some(grab()?),
            "--md" => md_path = Some(grab()?),
            other => return Err(format!("unknown search flag {other}")),
        }
    }
    if config.n > u16::MAX as usize {
        return Err(format!(
            "--n {} exceeds the node-id range (max {})",
            config.n,
            u16::MAX
        ));
    }
    config.t = t_given
        .unwrap_or_else(|| ((config.n.saturating_sub(1)) / 3).min(config.n.saturating_sub(2)));
    Ok((config, threads, json_path, md_path))
}

fn cmd_search(args: &[String]) -> ExitCode {
    let (config, threads, json_path, md_path) = match parse_search(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "search: {} n = {} t = {} latency = {} strategy = {} budget = {} threads = {}",
        config.protocol,
        config.n,
        config.t,
        config.latency,
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

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("search: JSON report written to {path}");
    }
    if let Some(path) = md_path {
        if let Err(e) = std::fs::write(&path, report.to_markdown()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("search: markdown report written to {path}");
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
// Deployment layer: `lafd registry`, `lafd cluster`, `lafd cluster-worker`
// ---------------------------------------------------------------------

/// Largest `--io-deadline-secs` / `--wait-limit-secs` accepted (one
/// day): every deadline derived from it, up to the supervisor's
/// `4 × io_deadline + 30 s` guard, stays far inside `Instant`'s range.
const MAX_DEADLINE_SECS: u64 = 86_400;

/// Parse a deadline flag in whole seconds. Zero is refused (no socket
/// accepts a zero timeout, so every worker would burn its retries first)
/// and so is anything past [`MAX_DEADLINE_SECS`] (the deadline sums
/// would overflow) — before anything is spawned.
fn parse_deadline_secs(flag: &str, raw: &str) -> Result<u64, String> {
    let secs: u64 = raw.parse().map_err(|e| format!("{flag}: {e}"))?;
    if (1..=MAX_DEADLINE_SECS).contains(&secs) {
        Ok(secs)
    } else {
        Err(format!(
            "{flag} {secs}: must be between 1 and {MAX_DEADLINE_SECS} seconds"
        ))
    }
}

fn cmd_registry(args: &[String]) -> ExitCode {
    use local_auth_fd::core::deploy::Registry;
    let mut listen = "127.0.0.1:0".to_string();
    let mut wait_limit_secs: u64 = 120;
    let mut it = args.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(flag) = it.next() {
            let mut grab = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--listen" => listen = grab()?,
                "--wait-limit-secs" => {
                    wait_limit_secs = parse_deadline_secs(flag, &grab()?)?;
                }
                other => return Err(format!("unknown registry flag {other}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        usage();
        return ExitCode::FAILURE;
    }
    let registry = match Registry::bind(&listen) {
        Ok(r) => r.with_wait_limit(std::time::Duration::from_secs(wait_limit_secs)),
        Err(e) => {
            eprintln!("error: registry bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The orchestrator (and shell scripts) scrape the bound address from
    // this exact line — keep it first and flushed.
    println!("registry listening on {}", registry.local_addr());
    let _ = std::io::stdout().flush();
    match registry.serve() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: registry accept loop: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flags of `lafd cluster` beyond the run shape.
#[derive(Debug, Clone)]
struct ClusterOpts {
    io_deadline_secs: u64,
    round_wall_us: u64,
    /// Crashes each worker slot may accrue before it is declared dead
    /// (`--max-restarts`, default 1).
    max_restarts: u64,
    /// Deterministic fault campaign injected into every worker
    /// (`--chaos SPEC`).
    chaos: Option<ChaosSpec>,
    /// External registry address (`--registry ADDR`); `None` spawns a
    /// private localhost registry child.
    registry: Option<String>,
    /// Interface workers bind and advertise (`--bind HOST`).
    bind: String,
}

fn parse_cluster(args: &[String]) -> Result<(SpecBuilder, ClusterOpts), String> {
    let Some((proto, rest)) = args.split_first() else {
        return Err(
            "cluster needs a protocol (chain|nonauth|small|ba|degrade|ds|king)".to_string(),
        );
    };
    let mut shape = Shape::new(proto)?;
    let mut opts = ClusterOpts {
        io_deadline_secs: 60,
        round_wall_us: 0,
        max_restarts: 1,
        chaos: None,
        registry: None,
        bind: "127.0.0.1".to_string(),
    };
    let mut round_wall_given = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        if shape.flag(flag, &mut grab)? {
            continue;
        }
        match flag.as_str() {
            "--io-deadline-secs" => {
                opts.io_deadline_secs = parse_deadline_secs(flag, &grab()?)?;
            }
            "--round-wall-us" => {
                opts.round_wall_us = grab()?
                    .parse()
                    .map_err(|e| format!("--round-wall-us: {e}"))?;
                round_wall_given = true;
            }
            "--max-restarts" => {
                opts.max_restarts = grab()?
                    .parse()
                    .map_err(|e| format!("--max-restarts: {e}"))?;
            }
            "--chaos" => opts.chaos = Some(ChaosSpec::parse(&grab()?)?),
            "--registry" => opts.registry = Some(grab()?),
            "--bind" => opts.bind = grab()?,
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
            opts.round_wall_us = 2_000;
        }
    }
    builder.validate()?;
    Ok((builder, opts))
}

/// Resilience counters of one supervised cluster run.
struct Resilience {
    /// Worker generations launched (1 = the first try succeeded).
    generations: u64,
    /// Transport/registry retries summed over the final generation's
    /// worker summaries.
    retries: u64,
    /// Slots declared dead past their restart budget (sorted).
    dead: Vec<usize>,
    /// Whether the run finished under crash-adversary degradation.
    degraded: bool,
}

/// A supervised cluster run that produced a report.
struct Supervised {
    report: FdRunReport,
    totals: local_auth_fd::core::deploy::ClusterTotals,
    resilience: Resilience,
}

/// Run a cluster under supervision: launch worker generations, restart
/// crashed slots up to `--max-restarts` (each generation re-registers
/// under an incremented incarnation the registry fences stale sessions
/// by), and degrade to crash-adversary semantics when a slot dies past
/// its budget — exactly the in-process `silent:I` scripted adversary, so
/// the degraded report stays byte-comparable. A failure beyond `t` dead
/// slots, a genuine worker bug, or an exhausted restart/flake budget
/// aborts loudly.
fn run_supervised(builder: &SpecBuilder, opts: &ClusterOpts) -> Result<Supervised, String> {
    use local_auth_fd::core::deploy::{self, ExitKind};
    use std::collections::HashMap;
    use std::process::{Command, Stdio};
    use std::time::Duration;

    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the lafd binary to re-exec: {e}"))?;
    // With an external registry several clusters may share one namespace;
    // the pid suffix keeps this invocation's run id unique there.
    let run_id = match &opts.registry {
        Some(_) => format!(
            "cluster-{}-n{}-seed{}-p{}",
            builder.protocol.name(),
            builder.n,
            builder.seed,
            std::process::id()
        ),
        None => format!(
            "cluster-{}-n{}-seed{}",
            builder.protocol.name(),
            builder.n,
            builder.seed
        ),
    };

    // The registry is a child process too (unless `--registry` points at
    // an external one), so `lafd cluster` exercises the exact discovery
    // path a hand-rolled deployment would use. It lives across worker
    // generations; incarnation fencing keeps its state consistent. The
    // guard kills and reaps it on every way out of this function, a panic
    // included.
    let mut registry_child: Option<deploy::KillOnDrop> = None;
    let addr = match &opts.registry {
        Some(addr) => addr.clone(),
        None => {
            let child = registry_child.insert(deploy::KillOnDrop(
                Command::new(&exe)
                    .args([
                        "registry",
                        "--listen",
                        "127.0.0.1:0",
                        "--wait-limit-secs",
                        &opts.io_deadline_secs.to_string(),
                    ])
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(|e| format!("spawn registry: {e}"))?,
            ));
            let mut line = String::new();
            let stdout = child.0.stdout.take().expect("stdout was piped");
            let _ = BufReader::new(stdout).read_line(&mut line);
            match line.trim().strip_prefix("registry listening on ") {
                Some(addr) => addr.to_string(),
                None => {
                    return Err(format!(
                        "registry did not announce an address (got {line:?})"
                    ))
                }
            }
        }
    };

    let t = builder.resolved_t();
    let mut crash_count: HashMap<usize, u64> = HashMap::new();
    let mut dead: Vec<usize> = Vec::new();
    let mut degraded = false;
    let mut flake_budget: u32 = 3;
    // Backstop against pathological chaos specs: every slot may burn its
    // full restart budget, plus the degraded generation and the flakes.
    let max_generations = (builder.n as u64)
        .saturating_mul(opts.max_restarts.saturating_add(1))
        .saturating_add(4);
    let mut generation: u64 = 0;
    let io_deadline = Duration::from_secs(opts.io_deadline_secs);

    let outcome = loop {
        if generation >= max_generations {
            break Err(format!(
                "restart budget exhausted after {generation} generations"
            ));
        }
        // The generation's effective shape: once slots are declared dead
        // the run degrades to the scripted crash adversary at exactly
        // those slots (parity with `--crash`), and their kill rules are
        // stripped so the stand-in automata survive.
        let mut effective = builder.clone();
        let mut chaos = opts.chaos.clone();
        if degraded {
            effective = effective.with_adversary(AdversarySpec::scripted_at(
                AdversaryKind::SilentRelay,
                dead.iter().map(|&node| NodeId(node as u16)).collect(),
            ));
            chaos = chaos.map(|spec| spec.without_kills_for(&dead));
        }
        let request = wire::request_to_json(&effective, None)?;
        let chaos_arg = chaos.as_ref().map(ChaosSpec::to_spec_string);
        let workers = (0..builder.n).map(|node| {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "cluster-worker",
                "--registry",
                &addr,
                "--run",
                &run_id,
                "--node",
                &node.to_string(),
                "--incarnation",
                &generation.to_string(),
                "--bind",
                &opts.bind,
                "--io-deadline-secs",
                &opts.io_deadline_secs.to_string(),
                "--round-wall-us",
                &opts.round_wall_us.to_string(),
                "--request",
                &request,
            ]);
            if let Some(spec) = &chaos_arg {
                cmd.args(["--chaos", spec]);
            }
            (node, cmd)
        });
        let workers = match deploy::Generation::spawn(workers) {
            Ok(workers) => workers,
            Err(e) => break Err(e),
        };
        println!(
            "cluster {}: registry at {addr}, {} worker processes launched (generation {generation})",
            builder.protocol.name(),
            builder.n
        );

        let exits = match workers.wait(io_deadline, &mut std::io::stdout()) {
            Ok(exits) => exits,
            Err(e) => break Err(e),
        };
        let mut culprits: Vec<usize> = Vec::new();
        let mut bug: Option<String> = None;
        let mut clean = true;
        for exit in &exits {
            if exit.kind != ExitKind::Ok {
                clean = false;
                eprintln!("error: {} (generation {generation})", exit.desc);
            }
            match exit.kind {
                ExitKind::Crash => culprits.push(exit.node),
                ExitKind::Bug => bug = Some(exit.desc.clone()),
                _ => {}
            }
        }
        if clean {
            // Collect the final generation's summaries while the registry
            // is still up (each new generation cleared every older one).
            let collected = deploy::registry_call(
                &addr,
                &wire::RegistryRequest::Collect {
                    run: run_id.clone(),
                },
                io_deadline,
            );
            break match collected {
                Ok(wire::RegistryReply::Summaries { workers }) => Ok(workers),
                Ok(other) => Err(format!("registry returned {other:?} instead of summaries")),
                Err(e) => Err(format!("collect summaries: {e}")),
            };
        }
        if let Some(desc) = bug {
            break Err(format!("{desc} — a genuine failure, not a crash"));
        }
        if culprits.is_empty() {
            // Collateral-only generation: nobody to blame; restart on a
            // small flake budget so transient stalls cannot loop forever.
            if flake_budget == 0 {
                break Err(
                    "collateral failures exhausted the flake budget; the cluster cannot make progress"
                        .to_string(),
                );
            }
            flake_budget -= 1;
            eprintln!(
                "cluster: generation {generation} lost to collateral failures; restarting ({flake_budget} flakes left)"
            );
        } else {
            let mut fatal: Option<String> = None;
            for &node in &culprits {
                if dead.contains(&node) {
                    fatal = Some(format!("worker {node} crashed again after degradation"));
                }
                *crash_count.entry(node).or_insert(0) += 1;
            }
            if let Some(e) = fatal {
                break Err(e);
            }
            let mut newly_dead: Vec<usize> = crash_count
                .iter()
                .filter(|&(node, &count)| count > opts.max_restarts && !dead.contains(node))
                .map(|(&node, _)| node)
                .collect();
            newly_dead.sort_unstable();
            if newly_dead.is_empty() {
                let list: Vec<String> = culprits.iter().map(|n| n.to_string()).collect();
                eprintln!(
                    "cluster: restarting after crash of worker(s) [{}] (generation {} next)",
                    list.join(", "),
                    generation + 1
                );
            } else {
                dead.extend(newly_dead);
                dead.sort_unstable();
                let list: Vec<String> = dead.iter().map(|n| n.to_string()).collect();
                if dead.len() > t {
                    break Err(format!(
                        "workers [{}] are dead past their restart budget — {} crash failures exceed t = {t}",
                        list.join(", "),
                        dead.len()
                    ));
                }
                if !builder.adversary.is_honest() {
                    break Err(format!(
                        "workers [{}] are dead past their restart budget and the run already scripts an adversary; cannot degrade",
                        list.join(", ")
                    ));
                }
                degraded = true;
                eprintln!(
                    "cluster: degrading to crash-adversary semantics — nodes [{}] presumed crashed (silent-relay, parity with --crash)",
                    list.join(", ")
                );
            }
        }
        generation += 1;
    };

    drop(registry_child);
    let summaries = outcome?;
    let retries: u64 = summaries.iter().map(|worker| worker.retries).sum();
    let (report, totals) = deploy::assemble_report(builder.protocol, builder.n, &summaries)?;
    Ok(Supervised {
        report,
        totals,
        resilience: Resilience {
            generations: generation + 1,
            retries,
            dead,
            degraded,
        },
    })
}

fn cmd_cluster(args: &[String]) -> ExitCode {
    let (builder, opts) = match parse_cluster(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let supervised = match run_supervised(&builder, &opts) {
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
    let dead: Vec<String> = res.dead.iter().map(|n| n.to_string()).collect();
    println!(
        "resilience: generations={} retries={} dead=[{}] degraded={}",
        res.generations,
        res.retries,
        dead.join(", "),
        res.degraded
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

/// The outcome a chaos spec should produce under a given fault budget:
/// slots whose kill rules outlive the restart budget stay down, so up to
/// `t` of them degrade the run and more than `t` must fail it.
fn chaos_expected(spec: &ChaosSpec, t: usize, max_restarts: u64) -> &'static str {
    let mut persistent: Vec<usize> = spec
        .kills
        .iter()
        .filter(|kill| kill.times > max_restarts)
        .map(|kill| kill.node)
        .collect();
    persistent.sort_unstable();
    persistent.dedup();
    if persistent.len() > t {
        "failed"
    } else if !persistent.is_empty() {
        "degraded"
    } else {
        "recovered"
    }
}

/// `lafd chaos`: sweep seeded fault campaigns over the supervised cluster
/// and emit a robustness report. Each campaign is classified recovered /
/// degraded / failed, checked against the outcome its spec predicts, and
/// (where a report was produced) compared byte-for-byte against the
/// matching in-process reference run. Exit 0 iff every campaign behaved.
fn cmd_chaos(args: &[String]) -> ExitCode {
    use wire::Value::{Arr, Bool, Int, Obj, Str};
    let mut campaigns: Vec<(String, String)> = Vec::new();
    let mut json_out: Option<String> = None;
    let mut cluster_args: Vec<String> = Vec::new();
    let mut it = args.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(flag) = it.next() {
            let mut grab = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--campaign" => {
                    let value = grab()?;
                    let (name, spec) = value
                        .split_once('=')
                        .ok_or_else(|| format!("--campaign {value:?}: expected NAME=SPEC"))?;
                    campaigns.push((name.to_string(), spec.to_string()));
                }
                "--json" => json_out = Some(grab()?),
                other => cluster_args.push(other.to_string()),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        usage();
        return ExitCode::FAILURE;
    }
    let (builder, opts) = match parse_cluster(&cluster_args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if opts.chaos.is_some() {
        eprintln!("error: lafd chaos takes --campaign NAME=SPEC, not --chaos");
        return ExitCode::FAILURE;
    }
    let t = builder.resolved_t();
    let seed = builder.seed;
    if campaigns.is_empty() {
        // The default matrix: pure network noise (must recover in place),
        // a transient kill (must recover via restart), a slot that never
        // comes back (must degrade if the budget allows), and more dead
        // slots than t (must fail loudly).
        campaigns.push((
            "noise".to_string(),
            format!("seed={seed};connect=25;reset=15;accept-delay=30:2;stall=30:2"),
        ));
        if t >= 1 {
            campaigns.push((
                "kill-one-transient".to_string(),
                format!("seed={seed};kill=1@round:1;connect=10"),
            ));
            campaigns.push((
                "kill-one-dead".to_string(),
                format!("seed={seed};kill=1@round:1xinf"),
            ));
            let beyond: Vec<String> = (0..=t)
                .map(|node| format!("kill={node}@round:1xinf"))
                .collect();
            campaigns.push((
                "kill-beyond-t".to_string(),
                format!("seed={seed};{}", beyond.join(";")),
            ));
        }
    }
    // The fault-free reference every recovered campaign must reproduce
    // byte-for-byte.
    let reference = match builder.clone().build() {
        Ok((cluster, spec)) => cluster.run(&spec).to_json(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows: Vec<wire::Value> = Vec::new();
    let mut all_ok = true;
    for (name, spec_text) in &campaigns {
        let spec = match ChaosSpec::parse(spec_text) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: campaign {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let expected = chaos_expected(&spec, t, opts.max_restarts);
        let mut campaign_opts = opts.clone();
        campaign_opts.chaos = Some(spec);
        println!("chaos campaign {name}: spec {spec_text}");
        let result = run_supervised(&builder, &campaign_opts);
        let (outcome, generations, retries, dead, matches) = match &result {
            Ok(supervised) => {
                let res = &supervised.resilience;
                let outcome = if res.degraded {
                    "degraded"
                } else {
                    "recovered"
                };
                // A degraded run must match the in-process run scripted
                // with the same crash set — the degradation contract.
                let expected_report = if res.degraded {
                    let degraded_builder =
                        builder.clone().with_adversary(AdversarySpec::scripted_at(
                            AdversaryKind::SilentRelay,
                            res.dead.iter().map(|&node| NodeId(node as u16)).collect(),
                        ));
                    match degraded_builder.build() {
                        Ok((cluster, spec)) => cluster.run(&spec).to_json(),
                        Err(e) => {
                            eprintln!("error: campaign {name}: degraded reference: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    reference.clone()
                };
                (
                    outcome,
                    res.generations,
                    res.retries,
                    res.dead.clone(),
                    supervised.report.to_json() == expected_report,
                )
            }
            Err(e) => {
                eprintln!("error: campaign {name}: {e}");
                ("failed", 0, 0, Vec::new(), true)
            }
        };
        let ok = outcome == expected && matches;
        all_ok &= ok;
        let dead_list: Vec<String> = dead.iter().map(|n| n.to_string()).collect();
        println!(
            "chaos campaign {name}: {outcome} (expected {expected}) generations={generations} retries={retries} dead=[{}] report-match={matches}",
            dead_list.join(", ")
        );
        rows.push(Obj(vec![
            ("name".to_string(), Str(name.clone())),
            ("spec".to_string(), Str(spec_text.clone())),
            ("expected".to_string(), Str(expected.to_string())),
            ("outcome".to_string(), Str(outcome.to_string())),
            ("generations".to_string(), Int(generations.into())),
            ("retries".to_string(), Int(retries.into())),
            (
                "dead".to_string(),
                Arr(dead.iter().map(|&node| Int(node as i128)).collect()),
            ),
            ("report_match".to_string(), Bool(matches)),
            ("ok".to_string(), Bool(ok)),
        ]));
    }
    let doc = Obj(vec![
        (
            "schema".to_string(),
            Str("lafd-chaos-report-v1".to_string()),
        ),
        (
            "protocol".to_string(),
            Str(builder.protocol.name().to_string()),
        ),
        ("n".to_string(), Int(builder.n as i128)),
        ("t".to_string(), Int(t as i128)),
        ("max_restarts".to_string(), Int(opts.max_restarts.into())),
        ("campaigns".to_string(), Arr(rows)),
        ("ok".to_string(), Bool(all_ok)),
    ])
    .to_json();
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("error: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Machine-readable robustness matrix as the last stdout line.
    println!("{doc}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: at least one chaos campaign diverged from its expected outcome");
        ExitCode::FAILURE
    }
}

fn cmd_cluster_worker(args: &[String]) -> ExitCode {
    use local_auth_fd::core::deploy;
    let mut registry: Option<String> = None;
    let mut run: Option<String> = None;
    let mut node: Option<usize> = None;
    let mut request: Option<String> = None;
    let mut io_deadline_secs: u64 = 60;
    let mut round_wall_us: u64 = 0;
    let mut incarnation: u64 = 0;
    let mut bind = "127.0.0.1".to_string();
    let mut chaos: Option<ChaosSpec> = None;
    let mut it = args.iter();
    let parsed = (|| -> Result<(), String> {
        while let Some(flag) = it.next() {
            let mut grab = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {flag} needs a value"))
            };
            match flag.as_str() {
                "--registry" => registry = Some(grab()?),
                "--run" => run = Some(grab()?),
                "--node" => node = Some(grab()?.parse().map_err(|e| format!("--node: {e}"))?),
                "--request" => request = Some(grab()?),
                "--io-deadline-secs" => {
                    io_deadline_secs = parse_deadline_secs(flag, &grab()?)?;
                }
                "--round-wall-us" => {
                    round_wall_us = grab()?
                        .parse()
                        .map_err(|e| format!("--round-wall-us: {e}"))?;
                }
                "--incarnation" => {
                    incarnation = grab()?.parse().map_err(|e| format!("--incarnation: {e}"))?;
                }
                "--bind" => bind = grab()?,
                "--chaos" => chaos = Some(ChaosSpec::parse(&grab()?)?),
                other => return Err(format!("unknown cluster-worker flag {other}")),
            }
        }
        Ok(())
    })();
    let (registry, run, node, request) = match (parsed, registry, run, node, request) {
        (Ok(()), Some(registry), Some(run), Some(node), Some(request)) => {
            (registry, run, node, request)
        }
        (Err(e), ..) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        _ => {
            eprintln!("error: cluster-worker needs --registry, --run, --node, and --request");
            return ExitCode::FAILURE;
        }
    };
    // Test hook: the CI cluster-smoke job and the integration tests kill
    // one worker before it registers, to prove a vanished process surfaces
    // as a loud orchestrator failure rather than a hang.
    if std::env::var("LAFD_CLUSTER_KILL_NODE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .is_some_and(|victim| victim == node)
    {
        eprintln!("worker {node}: exiting early (LAFD_CLUSTER_KILL_NODE test hook)");
        std::process::exit(43);
    }
    let builder = match wire::request_from_json(&request) {
        Ok((builder, _id)) => builder,
        Err(e) => {
            eprintln!("error: cluster worker {node}: bad --request: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = deploy::WorkerConfig {
        registry,
        run,
        node,
        io_deadline: std::time::Duration::from_secs(io_deadline_secs),
        round_wall: std::time::Duration::from_micros(round_wall_us),
        incarnation,
        bind,
        retry: Default::default(),
        chaos,
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

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--protocols" => {
                let raw = grab()?;
                matrix.protocols = if raw == "all" {
                    Protocol::ALL.to_vec()
                } else {
                    parse_list(&raw, "protocols", Protocol::parse)?
                };
            }
            "--sizes" => {
                matrix.sizes = parse_list(&grab()?, "sizes", |s| {
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
                let raw = grab()?;
                matrix.fault_rule = if raw == "auto" {
                    FaultRule::Classic
                } else {
                    FaultRule::Explicit(parse_list(&raw, "faults", |s| {
                        s.parse::<usize>().map_err(|e| format!("--faults: {e}"))
                    })?)
                };
            }
            "--adversaries" => {
                matrix.adversaries = parse_list(&grab()?, "adversaries", AdversaryKind::parse)?;
            }
            "--schemes" => matrix.schemes = parse_list(&grab()?, "schemes", SchemeSpec::parse)?,
            "--seeds" => {
                matrix.seeds = parse_list(&grab()?, "seeds", |s| {
                    s.parse::<u64>().map_err(|e| format!("--seeds: {e}"))
                })?;
            }
            "--engines" => matrix.engines = parse_list(&grab()?, "engines", Engine::parse)?,
            "--latencies" => {
                matrix.latencies = parse_list(&grab()?, "latencies", LatencySpec::parse)?;
            }
            "--link-latency" => {
                matrix.link_latency.push(LinkLatencySpec::parse(&grab()?)?);
            }
            "--search" => {
                let raw = grab()?;
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
                threads = grab()?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--json" => json_path = Some(grab()?),
            "--md" => md_path = Some(grab()?),
            "--remote" => remote = Some(grab()?),
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

/// A [`ScenarioExecutor`] that ships each sweep scenario to a running
/// `lafd serve` instance as a wire-format request and decodes the
/// response report. One TCP connection per scenario keeps the executor
/// trivially `Sync`; the service amortizes keydist across scenarios that
/// share a session key, so the connection cost is the cheap part. The
/// request leaves as one frame on a `TCP_NODELAY` socket, the same
/// framing rule the server follows (see [`write_frame`]).
struct RemoteExecutor {
    addr: String,
}

impl RemoteExecutor {
    fn call(&self, request: String) -> Result<wire::WireResponse, String> {
        let mut stream = std::net::TcpStream::connect(&self.addr)
            .map_err(|e| format!("connecting to {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .and_then(|()| write_frame(&mut stream, request))
            .map_err(|e| format!("sending request to {}: {e}", self.addr))?;
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .map_err(|e| format!("reading response from {}: {e}", self.addr))?;
        if reply.trim().is_empty() {
            return Err(format!("service at {} closed without replying", self.addr));
        }
        wire::response_from_json(reply.trim())
    }
}

impl ScenarioExecutor for RemoteExecutor {
    fn execute(
        &self,
        scenario: &Scenario,
        engine: Engine,
        link_latency: &[LinkLatencySpec],
    ) -> Result<(Option<usize>, FdRunReport), String> {
        let builder = SpecBuilder::new(scenario.protocol, scenario.n)
            .with_t(scenario.t)
            .with_seed(scenario.seed)
            .with_scheme(scenario.scheme.name())
            .with_engine(engine)
            .with_latency(scenario.latency)
            .with_link_latency(if engine == Engine::Event {
                link_latency.to_vec()
            } else {
                Vec::new()
            })
            .with_input(scenario.value())
            .with_default_value(b"sweep-default".to_vec())
            .with_adversary(AdversarySpec::scripted(scenario.adversary));
        let request = wire::request_to_json(&builder, None)?;
        let response = self.call(request)?;
        let report = response.report?;
        Ok((response.keydist_messages, report))
    }
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let sweep = match parse_sweep_matrix(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
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

    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("sweep: JSON report written to {path}");
    }
    if let Some(path) = md_path {
        if let Err(e) = std::fs::write(&path, report.to_markdown()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("sweep: markdown report written to {path}");
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
