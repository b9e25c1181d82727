//! Every `lafd` command line and the worker argv are read here. Each
//! subcommand has one reader, `&[String] -> Result<…, String>`, whose
//! error text is what `lafd` prints after `error: `; the binary only
//! dispatches to them and prints. All of them walk their arguments with
//! [`Flags`], and flags that several commands take have one arm each:
//! the run shape (`-n`, `--t`, `--seed`, `--scheme`, `--latency`,
//! `--adversary`), the cluster settings `lafd cluster` shares with the
//! worker argv ([`WorkerConfig::from_args`]), and the `--threads`,
//! `--json`, `--md` of `search` and `sweep` ([`ReportOuts`]).

use crate::adversary::{AdversaryKind, AdversarySpec};
use crate::deploy::{self, parse_deadline_secs, Campaign, ClusterConfig, WorkerConfig};
use crate::schedsearch::{SearchConfig, Strategy};
use crate::service::{MetricsFormat, ServiceConfig};
use crate::spec::{canonical_scheme, Protocol, SpecBuilder};
use crate::sweep::{scenario, FaultRule, SearchAxis, SweepMatrix};
use fd_simnet::fault::LinkFault;
use fd_simnet::transport::chaos::ChaosSpec;
use fd_simnet::{Engine, LatencySpec, LinkLatencySpec, NodeId};
use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::time::Duration;

/// Why a command line was refused. The rendered messages are part of the
/// CLI contract (scripts grep them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// This flag was the last argument, so its value is missing.
    NoValue(String),
    /// This flag's value does not parse or is out of range; the message
    /// names the flag.
    BadValue(String, String),
    /// The command (first) takes no such flag (second).
    Unknown(&'static str, String),
    /// The command (first) lacks its required flags (second, a phrase).
    Missing(&'static str, &'static str),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::NoValue(flag) => write!(f, "flag {flag} needs a value"),
            FlagError::BadValue(_, message) => f.write_str(message),
            FlagError::Unknown(command, flag) => write!(f, "unknown {command} flag {flag}"),
            FlagError::Missing(command, required) => write!(f, "{command} needs {required}"),
        }
    }
}

impl From<FlagError> for String {
    fn from(error: FlagError) -> String {
        error.to_string()
    }
}

/// A cursor over `--flag value` pairs: [`Flags::next_flag`] yields each
/// flag, and [`Flags::value`] / [`Flags::parse`] consume the argument
/// after it.
#[derive(Debug)]
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Walk `args` from the start.
    pub fn new(args: &'a [String]) -> Self {
        Flags {
            args: args.iter(),
            flag: "",
        }
    }

    /// The next argument, taken as a flag.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    /// The value of the current flag.
    pub fn value(&mut self) -> Result<String, FlagError> {
        let flag = self.flag;
        self.args
            .next()
            .cloned()
            .ok_or_else(|| FlagError::NoValue(flag.to_string()))
    }

    /// The value of the current flag parsed as `T`; a parse failure
    /// reads `{name}: {error}`.
    pub fn parse<T: FromStr>(&mut self, name: &str) -> Result<T, FlagError>
    where
        T::Err: fmt::Display,
    {
        let value = self.value()?;
        value
            .parse()
            .map_err(|e| FlagError::BadValue(name.to_string(), format!("{name}: {e}")))
    }

    /// The value of the current flag as a count in `range`; one outside
    /// reads `{name} must be at least {start}` (no upper bound) or
    /// `{name} must be in {start}..={end}`.
    pub fn count(&mut self, name: &str, range: RangeInclusive<usize>) -> Result<usize, FlagError> {
        let count = self.parse(name)?;
        if range.contains(&count) {
            return Ok(count);
        }
        let (start, end) = range.into_inner();
        let message = if end == usize::MAX {
            format!("{name} must be at least {start}")
        } else {
            format!("{name} must be in {start}..={end}")
        };
        Err(FlagError::BadValue(name.to_string(), message))
    }

    /// The current flag, refused as not one of `command`'s.
    pub fn unknown(&self, command: &'static str) -> FlagError {
        FlagError::Unknown(command, self.flag.to_string())
    }
}

/// What `search` and `cluster` (and `chaos`) lack without an argument.
const PROTOCOL: &str = "a protocol (chain|nonauth|small|ba|degrade|ds|king)";

/// Read `flag` if it is a run-shape flag every protocol-running command
/// takes: `-n/--n`, `--t`, `--seed`, `--scheme` (made canonical),
/// `--latency` and `--adversary KIND[:NODES]`. `Ok(false)` leaves it to
/// the caller.
fn shape_flag(builder: &mut SpecBuilder, flag: &str, flags: &mut Flags) -> Result<bool, String> {
    match flag {
        "-n" | "--n" => builder.n = flags.parse("--n")?,
        "--t" => builder.t = Some(flags.parse("--t")?),
        "--seed" => builder.seed = flags.parse("--seed")?,
        "--scheme" => builder.scheme = canonical_scheme(&flags.value()?)?.to_string(),
        "--latency" => builder.latency = LatencySpec::parse(&flags.value()?)?,
        "--adversary" => builder.adversary = AdversarySpec::parse(&flags.value()?)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// The run shape of `lafd run` and `lafd cluster` (and, through it,
/// `lafd chaos`): the shape flags plus `--value` and the `--crash I`
/// sugar.
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
        match flag {
            "--value" => self.builder.input = flags.value()?.into_bytes(),
            "--crash" => self.crash = Some(flags.parse("--crash")?),
            _ => {
                self.adversary_given |= flag == "--adversary";
                return shape_flag(&mut self.builder, flag, flags);
            }
        }
        Ok(true)
    }

    /// The builder, with `--crash I` — sugar for a silent adversary at
    /// node I — resolved once the whole flag list (which may set `--n`
    /// later) has been read.
    fn resolve_crash(self) -> Result<SpecBuilder, String> {
        let Some(crash) = self.crash else {
            return Ok(self.builder);
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
        Ok(deploy::degraded(&self.builder, &[crash]))
    }
}

/// A latency model or per-link latency overrides imply the event engine:
/// the lockstep engine can express neither. An explicit `--engine sync`
/// (`engine_given`) contradicting them is an error, not a silent
/// override. ([`SpecBuilder::validate`] rejects the contradiction too;
/// the builder itself never upgrades.)
fn imply_event_engine(builder: &mut SpecBuilder, engine_given: bool) -> Result<(), String> {
    let needs = if builder.latency != LatencySpec::Synchronous {
        format!("--latency {}", builder.latency)
    } else if !builder.link_latency.is_empty() {
        "--link-latency".to_string()
    } else {
        return Ok(());
    };
    if builder.engine == Engine::Sync {
        if engine_given {
            return Err(format!(
                "--engine sync cannot express {needs}; use --engine event"
            ));
        }
        builder.engine = Engine::Event;
    }
    Ok(())
}

/// One link fault of `lafd run`: `flag` is `--drop` or `--reorder`
/// (`spec` = `R:FROM:TO`), `--delay` (`R:FROM:TO:BY`, at most 10 000
/// rounds) or `--corrupt` (`R:FROM:TO:OFF:MASK`, a one-byte mask).
pub fn link_fault(flag: &str, spec: &str) -> Result<(u32, NodeId, NodeId, LinkFault), String> {
    let fields = match flag {
        "--drop" | "--reorder" => 3,
        "--delay" => 4,
        "--corrupt" => 5,
        other => return Err(format!("{other} is not a link-fault flag")),
    };
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != fields {
        return Err(format!(
            "fault spec {spec}: expected {fields} colon-separated fields"
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
    let params = (3..fields)
        .map(|i| num(i, "parameter"))
        .collect::<Result<Vec<u64>, String>>()?;
    let fault = match (flag, params.as_slice()) {
        ("--delay", &[by]) => LinkFault::Delay {
            rounds: u32::try_from(by)
                .ok()
                .filter(|&r| r <= 10_000)
                .ok_or_else(|| format!("{flag}: {by} rounds is unreasonably large (max 10000)"))?,
        },
        ("--corrupt", &[offset, mask]) => LinkFault::Corrupt {
            offset: usize::try_from(offset)
                .map_err(|_| format!("{flag}: offset {offset} too large"))?,
            mask: u8::try_from(mask).map_err(|_| format!("{flag}: mask {mask} exceeds a byte"))?,
        },
        ("--reorder", _) => LinkFault::Reorder,
        _ => LinkFault::Drop,
    };
    Ok((round, from, to, fault))
}

/// Trace-export destinations of one `lafd run` (presentation flags, not
/// part of the run shape the [`SpecBuilder`] validates).
#[derive(Debug, Default)]
pub struct TraceOuts {
    /// `--trace PATH`: Chrome trace-event JSON.
    pub chrome: Option<String>,
    /// `--trace-folded PATH`: inferno-compatible folded stacks.
    pub folded: Option<String>,
}

impl TraceOuts {
    /// Whether any trace export was asked for.
    pub fn requested(&self) -> bool {
        self.chrome.is_some() || self.folded.is_some()
    }
}

/// How `lafd run` was invoked: flags building a request, or a wire-v1
/// request file (`--spec FILE`, the `lafd serve` format).
#[derive(Debug)]
pub enum RunInvocation {
    /// A validated run shape and its trace exports.
    Flags(Box<SpecBuilder>, TraceOuts),
    /// The path given to `--spec`.
    SpecFile(String),
}

/// `lafd run PROTOCOL [flags]` or `lafd run --spec FILE`. A returned
/// builder validates.
pub fn run(args: &[String]) -> Result<RunInvocation, String> {
    const NEEDS: &str = "a protocol (chain|nonauth|small|ba|degrade|ds|king) or --spec FILE";
    let (proto, rest) = args.split_first().ok_or(FlagError::Missing("run", NEEDS))?;
    if proto == "--spec" {
        let [path] = rest else {
            return Err("--spec takes exactly one file path and no other flags".to_string());
        };
        return Ok(RunInvocation::SpecFile(path.clone()));
    }
    let mut shape = Shape::new(proto)?;
    let mut trace_outs = TraceOuts::default();
    let mut engine_given = false;
    // Node ids referenced by fault specs, checked against n once the
    // whole flag list (which may set --n later) has been read.
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
            "--drop" | "--corrupt" | "--delay" | "--reorder" => {
                let (round, from, to, fault) = link_fault(flag, &flags.value()?)?;
                fault_nodes.extend([from, to]);
                shape.builder.faults = shape.builder.faults.with(round, from, to, fault);
            }
            _ => return Err(flags.unknown("run").into()),
        }
    }
    imply_event_engine(&mut shape.builder, engine_given)?;
    let n = shape.builder.n;
    if let Some(bad) = fault_nodes.iter().find(|id| id.index() >= n) {
        return Err(format!("fault spec references node {bad} but n = {n}"));
    }
    let builder = shape.resolve_crash()?;
    builder.validate()?;
    Ok(RunInvocation::Flags(Box::new(builder), trace_outs))
}

/// Configuration of one `lafd serve` invocation.
#[derive(Debug, Default)]
pub struct ServeOpts {
    /// `--shards` (1..=256) and `--max-sessions` (at least 1); 2 and 8
    /// unless given.
    pub service: ServiceConfig,
    /// `--clients`: concurrent batch clients; the default is one per CPU.
    pub clients: Option<usize>,
    /// `--stdin`: answer one batch read from stdin (also the default).
    pub stdin: bool,
    /// `--listen HOST:PORT`: serve TCP.
    pub listen: Option<String>,
    /// `--unix PATH`: serve a Unix socket.
    pub unix: Option<String>,
    /// `--metrics PATH`: where the final metrics go (stderr otherwise).
    pub metrics: Option<String>,
    /// `--metrics-format json|prometheus`.
    pub metrics_format: MetricsFormat,
}

/// `lafd serve [flags]`.
pub fn serve(args: &[String]) -> Result<ServeOpts, String> {
    let mut opts = ServeOpts::default();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--shards" => opts.service.shards = flags.count("--shards", 1..=256)?,
            "--max-sessions" => {
                opts.service.max_sessions = flags.count("--max-sessions", 1..=usize::MAX)?;
            }
            "--clients" => opts.clients = Some(flags.count("--clients", 1..=usize::MAX)?),
            "--stdin" => opts.stdin = true,
            "--listen" => opts.listen = Some(flags.value()?),
            "--unix" => opts.unix = Some(flags.value()?),
            "--metrics" => opts.metrics = Some(flags.value()?),
            "--metrics-format" => opts.metrics_format = MetricsFormat::parse(&flags.value()?)?,
            _ => return Err(flags.unknown("serve").into()),
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

/// Worker threads and report paths of `lafd search` and `lafd sweep`.
#[derive(Debug)]
pub struct ReportOuts {
    /// `--threads N` (at least 1); the default is one per CPU.
    pub threads: usize,
    /// `--json PATH`: the JSON report.
    pub json: Option<String>,
    /// `--md PATH`: the markdown report.
    pub md: Option<String>,
}

impl ReportOuts {
    fn new() -> Self {
        ReportOuts {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            json: None,
            md: None,
        }
    }

    /// Consume `flag` if it is one of these; `Ok(false)` leaves it to the
    /// caller.
    fn flag(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, String> {
        match flag {
            "--threads" => self.threads = flags.count("--threads", 1..=usize::MAX)?,
            "--json" => self.json = Some(flags.value()?),
            "--md" => self.md = Some(flags.value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// `lafd search PROTOCOL [flags]`. The search's run is not validated
/// here: [`crate::schedsearch::run_search_parallel`] refuses an invalid
/// one.
pub fn search(args: &[String]) -> Result<(SearchConfig, ReportOuts), String> {
    let (proto, rest) = args
        .split_first()
        .ok_or(FlagError::Missing("search", PROTOCOL))?;
    let mut config = SearchConfig::new(Protocol::parse(proto)?, 8, 2, 1);
    // `t` follows `--n` unless `--t` is given.
    config.spec.t = None;
    let mut outs = ReportOuts::new();
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        if shape_flag(&mut config.spec, flag, &mut flags)? || outs.flag(flag, &mut flags)? {
            continue;
        }
        match flag {
            "--strategy" => config.strategy = Strategy::parse(&flags.value()?)?,
            "--budget" => config.budget = flags.count("--budget", 1..=100_000)?,
            _ => return Err(flags.unknown("search").into()),
        }
    }
    // The attacked run's input derives from its final seed.
    let spec = &mut config.spec;
    spec.input = scenario(spec.protocol, spec.n, spec.resolved_t(), spec.seed).input;
    Ok((config, outs))
}

/// Read `raw` as a comma-separated list with an element parser.
fn list<T>(
    raw: &str,
    what: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s.trim()))
        .collect::<Result<Vec<T>, String>>()?;
    if items.is_empty() {
        return Err(format!("--{what} needs at least one entry"));
    }
    Ok(items)
}

/// `lafd sweep` flags: the matrix, worker threads and report paths, and
/// the optional remote service address.
#[derive(Debug)]
pub struct SweepArgs {
    /// The scenario matrix.
    pub matrix: SweepMatrix,
    /// `--threads`, `--json`, `--md`.
    pub outs: ReportOuts,
    /// `--remote ADDR`: run every row on this `lafd serve`.
    pub remote: Option<String>,
}

/// `lafd sweep [flags]`.
pub fn sweep(args: &[String]) -> Result<SweepArgs, String> {
    let mut matrix = SweepMatrix::default_matrix();
    let mut outs = ReportOuts::new();
    let mut remote = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        if outs.flag(flag, &mut flags)? {
            continue;
        }
        match flag {
            "--protocols" => {
                let raw = flags.value()?;
                matrix.protocols = if raw == "all" {
                    Protocol::ALL.to_vec()
                } else {
                    list(&raw, "protocols", Protocol::parse)?
                };
            }
            "--sizes" => {
                matrix.sizes = list(&flags.value()?, "sizes", |s| {
                    let n: usize = s.parse().map_err(|e| format!("--sizes: {e}"))?;
                    if n < 2 {
                        return Err(format!("--sizes: need n >= 2 (got {n})"));
                    }
                    if n > fd_simnet::MAX_NODES {
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
                    FaultRule::Explicit(list(&raw, "faults", |s| {
                        s.parse::<usize>().map_err(|e| format!("--faults: {e}"))
                    })?)
                };
            }
            "--adversaries" => {
                matrix.adversaries = list(&flags.value()?, "adversaries", AdversaryKind::parse)?;
            }
            "--schemes" => matrix.schemes = list(&flags.value()?, "schemes", canonical_scheme)?,
            "--seeds" => {
                matrix.seeds = list(&flags.value()?, "seeds", |s| {
                    s.parse::<u64>().map_err(|e| format!("--seeds: {e}"))
                })?;
            }
            "--engines" => matrix.engines = list(&flags.value()?, "engines", Engine::parse)?,
            "--latencies" => {
                matrix.latencies = list(&flags.value()?, "latencies", LatencySpec::parse)?;
            }
            "--link-latency" => {
                matrix
                    .link_latency
                    .push(LinkLatencySpec::parse(&flags.value()?)?);
            }
            "--search" => {
                let raw = flags.value()?;
                let (budget_raw, strategy) = match raw.split_once(':') {
                    Some((b, s)) => (b, Strategy::parse(s)?),
                    None => (raw.as_str(), Strategy::Random),
                };
                let budget: usize = budget_raw
                    .parse()
                    .map_err(|e| format!("--search: budget: {e}"))?;
                if budget == 0 || budget > 10_000 {
                    return Err("--search budget must be in 1..=10000".to_string());
                }
                matrix.search = Some(SearchAxis { budget, strategy });
            }
            "--remote" => remote = Some(flags.value()?),
            _ => return Err(flags.unknown("sweep").into()),
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
        outs,
        remote,
    })
}

/// `lafd registry` flags: the listen address and the optional
/// `--wait-limit-secs` (the registry's own default otherwise).
pub fn registry(args: &[String]) -> Result<(String, Option<u64>), String> {
    let mut listen = "127.0.0.1:0".to_string();
    let mut wait_limit_secs = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--listen" => listen = flags.value()?,
            "--wait-limit-secs" => {
                wait_limit_secs = Some(parse_deadline_secs(flag, &flags.value()?)?);
            }
            _ => return Err(flags.unknown("registry").into()),
        }
    }
    Ok((listen, wait_limit_secs))
}

/// Read `flag` into `cfg` if it is a setting `lafd cluster` passes on to
/// every worker: `--io-deadline-secs`, `--round-wall-us`, `--chaos`,
/// `--bind`. `Ok(false)` leaves it to the caller.
fn cluster_setting(
    cfg: &mut ClusterConfig,
    flag: &str,
    flags: &mut Flags,
) -> Result<bool, FlagError> {
    let bad = |message: String| FlagError::BadValue(flag.to_string(), message);
    match flag {
        "--io-deadline-secs" => {
            let secs = parse_deadline_secs(flag, &flags.value()?).map_err(bad)?;
            cfg.io_deadline = Duration::from_secs(secs);
        }
        "--round-wall-us" => {
            cfg.round_wall = Duration::from_micros(flags.parse("--round-wall-us")?);
        }
        "--chaos" => cfg.chaos = Some(ChaosSpec::parse(&flags.value()?).map_err(bad)?),
        "--bind" => cfg.bind = flags.value()?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// `lafd cluster PROTOCOL [flags]`. The returned builder validates.
pub fn cluster(args: &[String]) -> Result<(SpecBuilder, ClusterConfig), String> {
    let (proto, rest) = args
        .split_first()
        .ok_or(FlagError::Missing("cluster", PROTOCOL))?;
    let mut shape = Shape::new(proto)?;
    let mut cfg = ClusterConfig::default();
    let mut round_wall_given = false;
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        round_wall_given |= flag == "--round-wall-us";
        if shape.flag(flag, &mut flags)? || cluster_setting(&mut cfg, flag, &mut flags)? {
            continue;
        }
        match flag {
            "--max-restarts" => cfg.max_restarts = flags.parse("--max-restarts")?,
            "--registry" => cfg.registry = Some(flags.value()?),
            _ => return Err(flags.unknown("cluster").into()),
        }
    }
    let mut builder = shape.resolve_crash()?;
    // A latency model on the cluster is a wall-clock delay shim over the
    // socket mesh. It needs a nonzero round-wall to scale ticks against;
    // default 2ms per round when the user asked for latency but gave none.
    // The shape still validates against the event engine.
    imply_event_engine(&mut builder, false)?;
    if builder.latency != LatencySpec::Synchronous && !round_wall_given {
        cfg.round_wall = Duration::from_micros(2_000);
    }
    builder.validate()?;
    Ok((builder, cfg))
}

/// `lafd chaos` flags.
#[derive(Debug)]
pub struct ChaosArgs {
    /// The run shape (`lafd cluster` flags), validated.
    pub builder: SpecBuilder,
    /// The cluster settings (`lafd cluster` flags, never `--chaos`).
    pub cluster: ClusterConfig,
    /// `--campaign NAME=SPEC`s, or the default campaigns when none.
    pub campaigns: Vec<Campaign>,
    /// `--json PATH`: where the robustness report goes too.
    pub json: Option<String>,
}

/// `lafd chaos PROTOCOL [cluster flags] [--campaign NAME=SPEC]...
/// [--json PATH]`: the campaigns and `--json` are read here, every other
/// argument by [`cluster`].
pub fn chaos(args: &[String]) -> Result<ChaosArgs, String> {
    let mut campaigns = Vec::new();
    let mut json = None;
    let mut cluster_args: Vec<String> = Vec::new();
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--campaign" => {
                let value = flags.value()?;
                let (name, spec) = value
                    .split_once('=')
                    .ok_or_else(|| format!("--campaign {value:?}: expected NAME=SPEC"))?;
                campaigns.push(Campaign::parse(name, spec)?);
            }
            "--json" => json = Some(flags.value()?),
            other => cluster_args.push(other.to_string()),
        }
    }
    let (builder, cfg) = cluster(&cluster_args)?;
    if cfg.chaos.is_some() {
        return Err("lafd chaos takes --campaign NAME=SPEC, not --chaos".to_string());
    }
    if campaigns.is_empty() {
        campaigns = deploy::default_campaigns(builder.seed, builder.resolved_t());
    }
    Ok(ChaosArgs {
        builder,
        cluster: cfg,
        campaigns,
        json,
    })
}

impl WorkerConfig {
    /// Parse a [`WorkerConfig::to_args`] command line back into the
    /// configuration and the request JSON. `--registry`, `--run`,
    /// `--node` and `--request` are required; the rest default as in
    /// [`ClusterConfig::default`].
    pub fn from_args(args: &[String]) -> Result<(WorkerConfig, String), FlagError> {
        let mut cfg = ClusterConfig::default();
        let (mut registry, mut run, mut node, mut request) = (None, None, None, None);
        let mut incarnation = 0;
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next_flag() {
            if cluster_setting(&mut cfg, flag, &mut flags)? {
                continue;
            }
            match flag {
                "--registry" => registry = Some(flags.value()?),
                "--run" => run = Some(flags.value()?),
                "--node" => node = Some(flags.parse("--node")?),
                "--request" => request = Some(flags.value()?),
                "--incarnation" => incarnation = flags.parse("--incarnation")?,
                _ => return Err(flags.unknown("cluster-worker")),
            }
        }
        match (registry, run, node, request) {
            (Some(registry), Some(run), Some(node), Some(request)) => {
                Ok((cfg.worker(registry, run, node, incarnation), request))
            }
            _ => Err(FlagError::Missing(
                "cluster-worker",
                "--registry, --run, --node, and --request",
            )),
        }
    }
}
