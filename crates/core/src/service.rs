//! The sharded session service behind `lafd serve`.
//!
//! The paper's Fig. 1 economics — one `3n(n−1)`-message key distribution
//! amortized over many `n−1`-message runs — only pay off when *many
//! callers* share key material. A [`Session`](crate::spec::Session)
//! amortizes for one in-process caller; [`FdService`] extends the same
//! shape to a long-lived process serving wire requests:
//!
//! * Requests (wire-v1 lines, see [`crate::wire`]) are routed to a fixed
//!   **shard** by `(n, scheme)` — every request for one key-material
//!   universe lands on the same worker thread, so shard state needs no
//!   locks.
//! * Each shard holds a bounded pool of **pre-warmed sessions** keyed by
//!   `(n, scheme, seed)`: the key distribution report and its interned
//!   [`PredicateTable`](crate::keys::PredicateTable) are established on
//!   first use and reused by every later request with the same key, with
//!   least-recently-used eviction past [`ServiceConfig::max_sessions`]
//!   entries per shard. That is *all* a session retains: every request
//!   runs with the private per-run [`VerifyCache`](crate::keys::VerifyCache)
//!   of a direct [`Cluster::run`]. The cache's cohort layer pins each
//!   broadcast payload buffer for the life of the cache and is keyed by
//!   allocation address, so it can never hit across runs — a cache that
//!   outlived its run would only retain a few kB per request, forever.
//! * Execution still goes through [`Cluster::run_with_keys`] on the
//!   request's own cluster configuration (engine, latency, schedule), so
//!   a service response's report is **byte-identical** to the same
//!   request executed via a direct [`Cluster::run`] — keydist reuse is
//!   invisible in the bytes, which the service integration tests assert.
//! * Nothing in the service grows per request: the latency and
//!   eviction-age percentiles are computed over the most recent
//!   [`SAMPLE_WINDOW`] samples per shard, everything else is a counter.
//! * [`FdService::shutdown`] is a graceful drain: queued requests finish,
//!   workers join, and the final metrics snapshot is returned as one
//!   `lafd-serve-v1` JSON document: per-cell `wall_us`/`messages`/`bytes`
//!   rows plus service-level throughput: runs/sec, keydist reuse ratio,
//!   and p50/p99 request latency.
//! * The front end, [`FdService::serve`] on a TCP or Unix [`Listener`]
//!   and [`FdService::serve_batch`] on stdin, reads newline-delimited
//!   frames of at most [`MAX_REQUEST_LINE`] bytes. It is the one line
//!   protocol of the workspace: the discovery registry
//!   ([`crate::deploy::Registry`]) is served by the same accept loop, and
//!   [`call`] is the one client of both.
//!
//! [`Cluster::run`]: crate::runner::Cluster::run
//! [`Cluster::run_with_keys`]: crate::runner::Cluster::run_with_keys

use crate::pool::{self, ShardWorkers};
use crate::runner::KeyDistReport;
use crate::spec::SpecBuilder;
use crate::wire::{self, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::str::Utf8Error;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of an [`FdService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker shards. Requests are routed by `(n, scheme)`, so two shards
    /// serve two disjoint key-material universes concurrently.
    pub shards: usize,
    /// Pre-warmed sessions kept per shard; the least-recently-used entry
    /// is evicted past this bound.
    pub max_sessions: usize,
}

impl Default for ServiceConfig {
    /// Two shards, eight sessions each — the shape of the acceptance
    /// benchmark.
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            max_sessions: 8,
        }
    }
}

/// One queued request: a validated builder plus the reply channel.
struct Job {
    builder: SpecBuilder,
    id: Option<String>,
    reply: mpsc::Sender<String>,
}

/// A pre-warmed session slot: everything reusable across runs that share
/// `(n, scheme, seed)`.
struct PooledSession {
    /// The established key distribution (`None` until a key-needing
    /// protocol first arrives — key-free traffic never pays for one).
    keydist: Option<KeyDistReport>,
    keydist_messages: Option<usize>,
    key_allocs: usize,
    /// LRU clock value of the most recent use.
    last_used: u64,
    /// Wall-clock instant of the most recent use (feeds the eviction-age
    /// histogram: how stale a slot was when the LRU bound pushed it out).
    last_touch: Instant,
}

/// One aggregated `protocol × n × t × engine × scheme` metrics cell: one
/// `results` row of the `lafd-serve-v1` document.
#[derive(Debug, Default, Clone)]
struct Cell {
    runs: usize,
    wall_us: u128,
    messages: usize,
    bytes: usize,
    comm_rounds: usize,
    key_allocs: usize,
}

/// Samples each shard keeps per series for the percentile estimates.
/// Below this many samples the percentiles are exact over the shard's
/// whole history; past it they describe the most recent window.
pub const SAMPLE_WINDOW: usize = 4096;

/// Upper bounds (µs) of the eviction-age histogram buckets.
const EVICTION_BUCKETS_US: [u64; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// One sample series in constant memory: the most recent
/// [`SAMPLE_WINDOW`] samples (for percentiles) plus the lifetime count
/// and sum (for the Prometheus `_count`/`_sum` counters).
#[derive(Debug, Default)]
struct SampleWindow {
    /// Insertion-ordered until full, then a ring overwriting the oldest.
    recent: Vec<u64>,
    count: usize,
    sum: u128,
}

impl SampleWindow {
    fn record(&mut self, value: u64) {
        if self.recent.len() < SAMPLE_WINDOW {
            self.recent.push(value);
        } else {
            self.recent[self.count % SAMPLE_WINDOW] = value;
        }
        self.count += 1;
        self.sum += u128::from(value);
    }
}

/// Per-shard counters, written only by the shard's worker thread.
#[derive(Debug, Default)]
struct ShardStats {
    runs: usize,
    errors: usize,
    keydist_runs: usize,
    keydist_reused: usize,
    evictions: usize,
    latencies_us: SampleWindow,
    /// Session-pool occupancy after the most recent job on this shard.
    pool_sessions: usize,
    /// Peak session-pool occupancy.
    pool_peak: usize,
    /// Age (µs since last use) of each evicted session.
    eviction_ages_us: SampleWindow,
    /// Lifetime eviction counts per [`EVICTION_BUCKETS_US`] bound.
    eviction_buckets: [usize; EVICTION_BUCKETS_US.len()],
    cells: BTreeMap<(String, usize, usize, String, String), Cell>,
}

/// The sharded session service: see the module docs for the shape.
///
/// ```
/// use fd_core::service::{FdService, ServiceConfig};
/// use fd_core::spec::{Protocol, SpecBuilder};
/// use fd_core::wire;
///
/// let service = FdService::start(ServiceConfig::default());
/// let request = wire::request_to_json(
///     &SpecBuilder::new(Protocol::ChainFd, 6).with_input(b"v".to_vec()),
///     Some("r0"),
/// )
/// .unwrap();
/// let response = wire::response_from_json(&service.submit_line(&request)).unwrap();
/// assert!(response.report.unwrap().all_decided(b"v"));
/// let metrics = service.shutdown();
/// assert!(metrics.contains("\"runs_per_sec\""));
/// ```
pub struct FdService {
    workers: ShardWorkers<Job>,
    stats: Arc<Vec<Mutex<ShardStats>>>,
    /// Per-shard queue-depth gauges: incremented on submit, decremented
    /// when the shard worker picks the job up.
    queue_depths: Arc<Vec<AtomicUsize>>,
    /// Per-shard peak queue depth.
    queue_peaks: Arc<Vec<AtomicUsize>>,
    /// Errors rejected before reaching a shard (parse/validation).
    front_errors: AtomicUsize,
    started: Instant,
    /// Set by a `{"op": "shutdown"}` request; ends [`FdService::serve`].
    stop: AtomicBool,
}

/// Rendering of a service metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The `lafd-serve-v1` JSON document (default).
    #[default]
    Json,
    /// Prometheus text exposition (one metric per line, `# EOF`
    /// terminated so line-framed wire clients can find the end).
    Prometheus,
}

impl MetricsFormat {
    /// Parse a CLI/wire format name (`json` or `prometheus`).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "json" => Ok(MetricsFormat::Json),
            "prometheus" | "prom" => Ok(MetricsFormat::Prometheus),
            other => Err(format!(
                "unknown metrics format \"{other}\" (expected json or prometheus)"
            )),
        }
    }
}

impl FdService {
    /// Start the worker shards (empty session pools — sessions pre-warm
    /// on first use and stay warm).
    pub fn start(config: ServiceConfig) -> FdService {
        let shards = config.shards.max(1);
        let max_sessions = config.max_sessions.max(1);
        let stats: Arc<Vec<Mutex<ShardStats>>> = Arc::new(
            (0..shards)
                .map(|_| Mutex::new(ShardStats::default()))
                .collect(),
        );
        let queue_depths: Arc<Vec<AtomicUsize>> =
            Arc::new((0..shards).map(|_| AtomicUsize::new(0)).collect());
        let queue_peaks: Arc<Vec<AtomicUsize>> =
            Arc::new((0..shards).map(|_| AtomicUsize::new(0)).collect());
        let workers = ShardWorkers::spawn(shards, |shard| {
            let stats = Arc::clone(&stats);
            let queue_depths = Arc::clone(&queue_depths);
            let mut sessions: HashMap<(usize, String, u64), PooledSession> = HashMap::new();
            let mut clock: u64 = 0;
            move |job: Job| {
                queue_depths[shard].fetch_sub(1, Ordering::Relaxed);
                let response = catch_unwind(AssertUnwindSafe(|| {
                    execute(
                        &mut sessions,
                        &mut clock,
                        max_sessions,
                        shard,
                        &stats[shard],
                        &job.builder,
                        job.id.as_deref(),
                    )
                }))
                .unwrap_or_else(|_| {
                    stats[shard].lock().expect("shard stats poisoned").errors += 1;
                    wire::error_to_json(job.id.as_deref(), "internal: run panicked")
                });
                // A gone client is not the worker's problem.
                let _ = job.reply.send(response);
            }
        });
        FdService {
            workers,
            stats,
            queue_depths,
            queue_peaks,
            front_errors: AtomicUsize::new(0),
            started: Instant::now(),
            stop: AtomicBool::new(false),
        }
    }

    /// The shard a `(n, scheme)` pair routes to (FNV-1a over both).
    pub fn shard_of(&self, n: usize, scheme: &str) -> usize {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for &b in scheme.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        for b in (n as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        (h % self.workers.shards() as u64) as usize
    }

    /// Handle one wire-v1 request line end to end: parse, validate, route
    /// to the owning shard, execute, and return the response line.
    /// Malformed or invalid requests are answered (never dropped) with a
    /// wire error response.
    pub fn submit_line(&self, line: &str) -> String {
        self.submit_parsed(Value::parse(line.trim()))
    }

    /// [`FdService::submit_line`] on a line already parsed (or refused by
    /// the parser), so no line is parsed twice.
    fn submit_parsed(&self, line: Result<Value, String>) -> String {
        match self.admit(line) {
            Ok((builder, id)) => self.submit(builder, id),
            Err(refused) => refused,
        }
    }

    /// Decode and validate a parsed request line, or answer it with a
    /// wire error response (counted as a front-end error). Validating up
    /// front means a shard worker can never hit a `Cluster` panic on a
    /// bad request shape.
    fn admit(&self, line: Result<Value, String>) -> Result<(SpecBuilder, Option<String>), String> {
        let (builder, id) = line
            .and_then(|value| wire::request_from_value(&value))
            .map_err(|e| {
                self.front_errors.fetch_add(1, Ordering::Relaxed);
                wire::error_to_json(None, &e)
            })?;
        if let Err(e) = builder.validate() {
            self.front_errors.fetch_add(1, Ordering::Relaxed);
            return Err(wire::error_to_json(id.as_deref(), &e));
        }
        Ok((builder, id))
    }

    /// Route an admitted request to its shard and wait for the response.
    fn submit(&self, builder: SpecBuilder, id: Option<String>) -> String {
        let shard = self.shard_of(builder.n, &builder.scheme);
        let (reply, receiver) = mpsc::channel();
        let depth = self.queue_depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peaks[shard].fetch_max(depth, Ordering::Relaxed);
        if let Err(e) = self.workers.submit(
            shard,
            Job {
                builder,
                id: id.clone(),
                reply,
            },
        ) {
            self.queue_depths[shard].fetch_sub(1, Ordering::Relaxed);
            self.front_errors.fetch_add(1, Ordering::Relaxed);
            return wire::error_to_json(id.as_deref(), &e);
        }
        receiver
            .recv()
            .unwrap_or_else(|_| wire::error_to_json(id.as_deref(), "worker dropped the request"))
    }

    /// Handle a batch of request lines from `clients` concurrent client
    /// threads, returning responses in input order (the stdin batch mode
    /// of `lafd serve`, and the concurrency test harness).
    ///
    /// The first keyed request of each session (`n`, scheme, seed) in
    /// input order runs before any later one of that session, so it is
    /// the one that warms the session and reports `keydist_reused: false`,
    /// and every later one reports `true`, whatever `clients` is. (A
    /// session evicted from a full pool mid-batch re-warms in arrival
    /// order.)
    pub fn submit_batch(&self, lines: &[String], clients: usize) -> Vec<String> {
        let requests: Vec<_> = lines
            .iter()
            .map(|line| self.admit(Value::parse(line.trim())))
            .collect();
        let mut sessions = HashSet::new();
        let (warming, warm): (Vec<usize>, Vec<usize>) = (0..lines.len()).partition(|&i| {
            matches!(&requests[i], Ok((b, _))
                if b.protocol.needs_keys() && sessions.insert((b.n, b.scheme.clone(), b.seed)))
        });
        let mut responses = vec![String::new(); lines.len()];
        for phase in [warming, warm] {
            let answered = pool::parallel_indexed(phase.len(), clients.max(1), |k| match &requests
                [phase[k]]
            {
                Ok((builder, id)) => self.submit(builder.clone(), id.clone()),
                Err(refused) => refused.clone(),
            });
            for (i, response) in phase.into_iter().zip(answered) {
                responses[i] = response;
            }
        }
        responses
    }

    /// Gather a consistent snapshot of every counter and gauge.
    fn snapshot(&self, elapsed_us: u128) -> MetricsSnapshot {
        gather(
            &self.stats,
            self.front_errors.load(Ordering::Relaxed),
            elapsed_us,
            &self.queue_depths,
            &self.queue_peaks,
        )
    }

    /// A live metrics snapshot: one line of `lafd-serve-v1` JSON, or
    /// Prometheus text exposition ending with a `# EOF` line so
    /// line-framed wire clients can find the document boundary.
    pub fn metrics(&self, format: MetricsFormat) -> String {
        self.snapshot(self.started.elapsed().as_micros())
            .render(format)
    }

    /// Graceful drain: stop accepting requests, finish everything queued,
    /// join the workers, and return the final metrics snapshot.
    pub fn shutdown(self) -> String {
        self.shutdown_with(MetricsFormat::Json)
    }

    /// [`FdService::shutdown`] with the final snapshot rendered in the
    /// requested format (`lafd serve --metrics-format`).
    pub fn shutdown_with(mut self, format: MetricsFormat) -> String {
        let elapsed = self.started.elapsed().as_micros();
        self.workers.join();
        self.snapshot(elapsed).render(format)
    }

    /// Answer one request line from a socket client. The control verbs
    /// `{"op": "metrics"}` (optionally with `"format": "prometheus"`) and
    /// `{"op": "shutdown"}`, which makes [`FdService::serve`] return, are
    /// handled here; every other line goes to [`FdService::submit_line`].
    pub fn answer(&self, line: &str) -> String {
        let line = Value::parse(line.trim());
        if let Ok(value) = &line {
            if let Some(op) = value.get("op").and_then(Value::as_str) {
                return match op {
                    // JSON metrics are one line, which fits the
                    // newline-delimited reply framing; Prometheus text is
                    // multi-line and ends with `# EOF`.
                    "metrics" => value
                        .get("format")
                        .and_then(Value::as_str)
                        .map_or(Ok(MetricsFormat::Json), MetricsFormat::parse)
                        .map_or_else(|e| wire::error_to_json(None, &e), |f| self.metrics(f)),
                    "shutdown" => {
                        self.stop.store(true, Ordering::SeqCst);
                        Value::obj(vec![("ok", true.into()), ("draining", true.into())]).to_json()
                    }
                    other => wire::error_to_json(None, &format!("unknown op {other}")),
                };
            }
        }
        self.submit_parsed(line)
    }

    /// Serve `listener` until a client sends `{"op": "shutdown"}`, one
    /// thread per connection, and return once every connection has
    /// closed. Accept blocks; the connection that answers the shutdown
    /// wakes it with [`Listener::wake`]. A line the framing refuses is
    /// answered with a wire error response.
    pub fn serve<L: Listener>(&self, listener: &L) {
        serve_lines(listener, &self.stop, None, |line| match line {
            Ok(request) => self.answer(request),
            Err(bad) => refusal(&bad),
        });
    }

    /// Answer a whole batch (`lafd serve --stdin`): read `input` to its
    /// end, skipping blank lines, submit the requests from `clients`
    /// concurrent threads, and return one response per line in input
    /// order. A line the framing refuses (past [`MAX_REQUEST_LINE`], or
    /// not UTF-8) is answered in its place with an error response, and
    /// the bytes of an over-long line are discarded as they are read.
    pub fn serve_batch(&self, input: &mut impl BufRead, clients: usize) -> io::Result<Vec<String>> {
        // `rejected` holds each refused line's position in the output.
        let (mut lines, mut rejected) = (Vec::new(), Vec::new());
        let mut line = Vec::new();
        loop {
            match read_frame(input, &mut line, MAX_REQUEST_LINE)? {
                Frame::Eof => break,
                Frame::Complete => match line_text(&line) {
                    Ok("") => {}
                    Ok(request) => lines.push(request.to_string()),
                    Err(bad) => rejected.push((lines.len() + rejected.len(), refusal(&bad))),
                },
                Frame::TooLong => {
                    rejected.push((lines.len() + rejected.len(), refusal(&BadLine::TooLong)));
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
        let mut responses = self.submit_batch(&lines, clients);
        for (at, error) in rejected {
            responses.insert(at, error);
        }
        Ok(responses)
    }
}

/// The service's wire error response to a line the framing refuses.
fn refusal(bad: &BadLine) -> String {
    wire::error_to_json(None, &bad.to_string())
}

/// Longest request line a server reads, on a socket or in a batch.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Longest reply line [`call`] reads: far above any run report, registry
/// roster or summary set, and a bound on what a misbehaving server can
/// make a client hold.
pub const MAX_REPLY_LINE: usize = 16 << 20;

/// Send one newline-terminated frame in exactly one write. With the
/// terminator in a write of its own, Nagle's algorithm holds it back
/// until the peer's delayed ACK fires (~40 ms per frame).
fn write_frame(out: &mut impl Write, mut frame: String) -> io::Result<()> {
    frame.push('\n');
    out.write_all(frame.as_bytes())?;
    out.flush()
}

/// What [`read_frame`] found.
enum Frame {
    /// `line` holds one line (newline-terminated, or cut off by end of
    /// input).
    Complete,
    /// `line` passed the cap without a newline.
    TooLong,
    /// End of input with nothing pending.
    Eof,
}

/// Append the next line to `line`, never holding more than `max` + 1
/// bytes. On an I/O error (a read timeout, on a socket) the bytes read so
/// far stay in `line` and the call can simply be repeated.
fn read_frame(reader: &mut impl BufRead, line: &mut Vec<u8>, max: usize) -> io::Result<Frame> {
    let room = (max + 1).saturating_sub(line.len());
    let read = reader.take(room as u64).read_until(b'\n', line)?;
    Ok(if line.ends_with(b"\n") {
        Frame::Complete
    } else if line.len() > max {
        Frame::TooLong
    } else if read == 0 {
        Frame::Eof
    } else {
        Frame::Complete
    })
}

/// A request line the framing refuses. Each server answers it in its own
/// dialect, with this text.
#[derive(Debug)]
pub(crate) enum BadLine {
    /// Past [`MAX_REQUEST_LINE`] bytes: answered, then the connection
    /// closes, so a client that never sends a newline cannot grow the
    /// server.
    TooLong,
    /// Not UTF-8: answered, and the connection reads on.
    NotUtf8(Utf8Error),
}

impl fmt::Display for BadLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BadLine::TooLong => write!(f, "request line exceeds {MAX_REQUEST_LINE} bytes"),
            BadLine::NotUtf8(e) => write!(f, "request line is not UTF-8: {e}"),
        }
    }
}

/// The trimmed text of a request line.
fn line_text(line: &[u8]) -> Result<&str, BadLine> {
    std::str::from_utf8(line)
        .map(str::trim)
        .map_err(BadLine::NotUtf8)
}

/// The accept loop of every line server (`lafd serve` and `lafd
/// registry`): serve `listener` until `stop` is set, one thread per
/// connection, and return once every connection has closed. Each
/// non-blank request line gets the one reply line `answer` returns for
/// it; `answer` also renders the lines the framing refuses. The
/// connection that answers with `stop` set wakes the blocked accept.
/// With a `wait_limit`, a connection whose next request is not complete
/// that long after its accept or its last reply is closed. An accept
/// error is logged and retried after a nap.
pub(crate) fn serve_lines<L, A>(
    listener: &L,
    stop: &AtomicBool,
    wait_limit: Option<Duration>,
    answer: A,
) where
    L: Listener,
    A: Fn(Result<&str, BadLine>) -> String + Sync,
{
    let answer = &answer;
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept_conn() {
                // Past a shutdown the connection is the wake-up (or a
                // late client): drop it.
                Ok(stream) if !stop.load(Ordering::SeqCst) => {
                    scope.spawn(move || {
                        serve_connection(stream, listener, stop, wait_limit, answer)
                    });
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("serve: accept: {e}");
                    // Do not spin on a lasting error (EMFILE).
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    });
}

/// Serve one connection for [`serve_lines`]. The read timeout
/// [`Listener::accept_conn`] sets lets an idle connection notice a
/// shutdown, and the [`Waited`] reader its wait limit.
fn serve_connection<L: Listener>(
    stream: L::Stream,
    listener: &L,
    stop: &AtomicBool,
    wait_limit: Option<Duration>,
    answer: &(impl Fn(Result<&str, BadLine>) -> String + Sync),
) {
    let mut reader = BufReader::new(Waited {
        stream,
        limit: wait_limit,
        since: Instant::now(),
    });
    let mut line = Vec::new();
    loop {
        let reply = match read_frame(&mut reader, &mut line, MAX_REQUEST_LINE) {
            Ok(Frame::Eof) => break,
            Ok(Frame::TooLong) => {
                let _ = write_frame(&mut reader.get_mut().stream, answer(Err(BadLine::TooLong)));
                break;
            }
            Ok(Frame::Complete) => {
                let reply = match line_text(&line) {
                    Ok("") => None,
                    text => Some(answer(text)),
                };
                line.clear();
                reply
            }
            // A timed-out read leaves any partial line in the buffer:
            // keep it and read on, unless the server is stopping or the
            // request is past its wait limit.
            Err(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    && !stop.load(Ordering::SeqCst)
                    && !reader.get_ref().expired() =>
            {
                None
            }
            Err(_) => break,
        };
        let Some(reply) = reply else { continue };
        if write_frame(&mut reader.get_mut().stream, reply).is_err() {
            break;
        }
        if stop.load(Ordering::SeqCst) {
            let _ = listener.wake();
            break;
        }
        reader.get_mut().since = Instant::now();
    }
}

/// A connection's stream whose reads fail with `TimedOut` once the
/// request being read is past its wait limit, counted from the accept or
/// the last reply. The limit is checked before every read, not only when
/// one times out, so a client that trickles a byte at a time is closed
/// too; a read that blocks overshoots it by at most [`READ_TIMEOUT`].
struct Waited<S> {
    stream: S,
    limit: Option<Duration>,
    since: Instant,
}

impl<S> Waited<S> {
    fn expired(&self) -> bool {
        self.limit
            .is_some_and(|limit| self.since.elapsed() >= limit)
    }
}

impl<S: Read> Read for Waited<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.expired() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.read(buf)
    }
}

/// Why a [`call`] failed.
#[derive(Debug)]
pub enum CallError {
    /// The address does not resolve.
    Address(io::Error),
    /// No resolved address accepted the connection.
    Connect(io::Error),
    /// Sending the request or reading the reply failed (a timeout or a
    /// reply that is not UTF-8 included).
    Io(io::Error),
    /// The server closed the connection before a whole reply line.
    Closed,
    /// The reply line passed [`MAX_REPLY_LINE`] bytes.
    TooLong,
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Address(e) | CallError::Connect(e) => write!(f, "connect: {e}"),
            CallError::Io(e) => write!(f, "{e}"),
            CallError::Closed => f.write_str("closed without replying"),
            CallError::TooLong => write!(f, "reply line exceeds {MAX_REPLY_LINE} bytes"),
        }
    }
}

/// One exchange with a line server (`lafd serve` or `lafd registry`) on a
/// fresh `TCP_NODELAY` connection to `addr` (`HOST:PORT`): send `line`,
/// read one reply line of at most [`MAX_REPLY_LINE`] bytes and return it
/// without its newline. `timeout` bounds the connect and every read and
/// write; `None` waits as long as the server takes.
pub fn call(addr: &str, line: String, timeout: Option<Duration>) -> Result<String, CallError> {
    let mut stream = connect(addr, timeout)?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(timeout))
        .and_then(|()| stream.set_write_timeout(timeout))
        .and_then(|()| write_frame(&mut stream, line))
        .map_err(CallError::Io)?;
    let mut reply = Vec::new();
    let frame = read_frame(&mut BufReader::new(stream), &mut reply, MAX_REPLY_LINE)
        .map_err(CallError::Io)?;
    if matches!(frame, Frame::TooLong) {
        return Err(CallError::TooLong);
    }
    // A reply cut off by the close is no reply.
    if reply.pop() != Some(b'\n') {
        return Err(CallError::Closed);
    }
    String::from_utf8(reply).map_err(|e| CallError::Io(io::Error::new(ErrorKind::InvalidData, e)))
}

/// Connect to the first of `addr`'s resolved addresses that accepts, as
/// [`TcpStream::connect`] does, each attempt bounded by `timeout`.
fn connect(addr: &str, timeout: Option<Duration>) -> Result<TcpStream, CallError> {
    let mut last = io::Error::new(
        ErrorKind::InvalidInput,
        "could not resolve to any addresses",
    );
    for sock in addr.to_socket_addrs().map_err(CallError::Address)? {
        let attempt = match timeout {
            Some(timeout) => TcpStream::connect_timeout(&sock, timeout),
            None => TcpStream::connect(sock),
        };
        match attempt {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(CallError::Connect(last))
}

/// How long a connection's read blocks before its accept loop rechecks
/// the stop flag and the wait limit, so an idle client cannot hold up a
/// shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// A bound socket a line server ([`FdService::serve`],
/// [`crate::deploy::Registry::serve`]) accepts connections on: a
/// [`TcpListener`] or a [`UnixListener`].
pub trait Listener: Sync {
    /// An accepted connection.
    type Stream: Read + Write + Send;

    /// Block until the next connection arrives and ready it for serving:
    /// a read timeout, and `TCP_NODELAY` on TCP.
    fn accept_conn(&self) -> io::Result<Self::Stream>;

    /// Connect to this listener once, so that a blocked
    /// [`Listener::accept_conn`] returns.
    fn wake(&self) -> io::Result<()>;
}

impl Listener for TcpListener {
    type Stream = TcpStream;

    fn accept_conn(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(stream)
    }

    fn wake(&self) -> io::Result<()> {
        // A listener bound to 0.0.0.0 or [::] is reachable on loopback.
        let mut addr = self.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(if addr.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        TcpStream::connect(addr).map(drop)
    }
}

impl Listener for UnixListener {
    type Stream = UnixStream;

    fn accept_conn(&self) -> io::Result<UnixStream> {
        let (stream, _) = self.accept()?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(stream)
    }

    fn wake(&self) -> io::Result<()> {
        let addr = self.local_addr()?;
        let path = addr
            .as_pathname()
            .ok_or_else(|| io::Error::new(ErrorKind::AddrNotAvailable, "unnamed Unix socket"))?;
        UnixStream::connect(path).map(drop)
    }
}

/// Bind a Unix listener at `path`. An existing file there is replaced
/// only when it is a stale socket, one that refuses connections. Any
/// other file is refused with [`ErrorKind::AlreadyExists`] and a socket a
/// server still listens on with [`ErrorKind::AddrInUse`]; neither is
/// touched.
pub fn bind_unix(path: impl AsRef<Path>) -> io::Result<UnixListener> {
    let path = path.as_ref();
    match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => {}
        Err(e) => return Err(e),
        Ok(meta) if !meta.file_type().is_socket() => {
            return Err(io::Error::new(
                ErrorKind::AlreadyExists,
                "the path exists and is not a socket",
            ))
        }
        Ok(_) if UnixStream::connect(path).is_ok() => {
            return Err(io::Error::new(
                ErrorKind::AddrInUse,
                "a server is listening on the socket",
            ))
        }
        Ok(_) => std::fs::remove_file(path)?,
    }
    UnixListener::bind(path)
}

/// Execute one validated request on its shard (runs on the shard's worker
/// thread; `sessions` and `clock` are that thread's own state).
fn execute(
    sessions: &mut HashMap<(usize, String, u64), PooledSession>,
    clock: &mut u64,
    max_sessions: usize,
    shard: usize,
    stats: &Mutex<ShardStats>,
    builder: &SpecBuilder,
    id: Option<&str>,
) -> String {
    let started = Instant::now();
    let (cluster, spec) = match builder.build() {
        Ok(pair) => pair,
        Err(e) => {
            stats.lock().expect("shard stats poisoned").errors += 1;
            return wire::error_to_json(id, &e);
        }
    };
    *clock += 1;
    let key = (builder.n, builder.scheme.clone(), builder.seed);
    // Bounded pool: evict the least-recently-used slot before warming a
    // new one past the cap.
    let mut evicted_age_us = None;
    if !sessions.contains_key(&key) && sessions.len() >= max_sessions {
        if let Some(oldest) = sessions
            .iter()
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(k, _)| k.clone())
        {
            if let Some(slot) = sessions.remove(&oldest) {
                evicted_age_us = Some(slot.last_touch.elapsed().as_micros() as u64);
            }
        }
    }
    let slot = sessions.entry(key).or_insert_with(|| PooledSession {
        keydist: None,
        keydist_messages: None,
        key_allocs: 0,
        last_used: 0,
        last_touch: Instant::now(),
    });
    slot.last_used = *clock;
    slot.last_touch = Instant::now();
    // The request executes on its *own* cluster configuration, per-run
    // verification cache included — only the keydist comes from the pool.
    let needs_keys = spec.protocol.needs_keys();
    let keydist_reused = needs_keys && slot.keydist.is_some();
    if needs_keys && slot.keydist.is_none() {
        let kd = cluster.setup_keydist();
        slot.keydist_messages = Some(kd.stats.messages_total);
        slot.key_allocs = kd
            .predicates
            .as_ref()
            .map_or(0, |table| table.distinct_allocations());
        slot.keydist = Some(kd);
    }
    let report = cluster.run_with_keys(
        &spec,
        if needs_keys {
            slot.keydist.as_ref()
        } else {
            None
        },
    );
    let wall_us = started.elapsed().as_micros() as u64;
    let keydist_messages = if needs_keys {
        slot.keydist_messages
    } else {
        None
    };
    let key_allocs = if needs_keys { slot.key_allocs } else { 0 };

    let pool_size = sessions.len();
    let mut s = stats.lock().expect("shard stats poisoned");
    s.runs += 1;
    s.pool_sessions = pool_size;
    s.pool_peak = s.pool_peak.max(pool_size);
    if let Some(age) = evicted_age_us {
        s.evictions += 1;
        s.eviction_ages_us.record(age);
        for (bucket, le) in s.eviction_buckets.iter_mut().zip(EVICTION_BUCKETS_US) {
            *bucket += usize::from(age <= le);
        }
    }
    if keydist_reused {
        s.keydist_reused += 1;
    } else if needs_keys {
        s.keydist_runs += 1;
    }
    s.latencies_us.record(wall_us);
    let cell = s
        .cells
        .entry((
            builder.protocol.name().to_string(),
            builder.n,
            builder.resolved_t(),
            builder.engine.name().to_string(),
            builder.scheme.clone(),
        ))
        .or_default();
    cell.runs += 1;
    cell.wall_us += u128::from(wall_us);
    cell.messages += report.stats.messages_total;
    cell.bytes += report.stats.bytes_total;
    cell.comm_rounds = cell
        .comm_rounds
        .max(report.stats.per_round.iter().filter(|&&x| x > 0).count());
    cell.key_allocs = cell.key_allocs.max(key_allocs);
    drop(s);

    wire::response_to_json(
        id,
        shard,
        keydist_reused,
        keydist_messages,
        wall_us,
        &report.to_json(),
    )
}

/// The percentile entry of a sorted latency list (nearest-rank on the
/// sorted samples), or `None` with fewer than two samples — a percentile
/// of zero or one observation is statistically meaningless, and the old
/// `0` answer was indistinguishable from "instant". Rendered as `null`
/// in JSON and omitted from Prometheus output.
fn percentile_us(sorted: &[u64], pct: usize) -> Option<u64> {
    if sorted.len() < 2 {
        return None;
    }
    Some(sorted[(sorted.len() - 1) * pct / 100])
}

/// A consistent point-in-time aggregation of every counter and gauge,
/// independent of the rendering format.
struct MetricsSnapshot {
    shards: usize,
    runs: usize,
    errors: usize,
    keydist_runs: usize,
    keydist_reused: usize,
    evictions: usize,
    /// Sorted request latencies: every shard's sample window.
    latencies: Vec<u64>,
    /// Lifetime request-latency sample count and sum.
    latency_count: usize,
    latency_sum: u128,
    /// Sorted eviction ages (µs since the slot's last use): every
    /// shard's sample window.
    eviction_ages: Vec<u64>,
    /// Lifetime eviction-age sum and per-bucket counts (the count is
    /// `evictions`).
    eviction_age_sum: u128,
    eviction_buckets: [usize; EVICTION_BUCKETS_US.len()],
    /// Per-shard session-pool occupancy after the most recent job.
    pool_sessions: Vec<usize>,
    /// Per-shard peak session-pool occupancy.
    pool_peaks: Vec<usize>,
    /// Per-shard live queue depth.
    queue_depths: Vec<usize>,
    /// Per-shard peak queue depth.
    queue_peaks: Vec<usize>,
    elapsed_us: u128,
    cells: BTreeMap<(String, usize, usize, String, String), Cell>,
}

/// Aggregate the per-shard stats plus the service-level gauges.
fn gather(
    stats: &[Mutex<ShardStats>],
    front_errors: usize,
    elapsed_us: u128,
    queue_depths: &[AtomicUsize],
    queue_peaks: &[AtomicUsize],
) -> MetricsSnapshot {
    let load = |gauges: &[AtomicUsize]| gauges.iter().map(|g| g.load(Ordering::Relaxed)).collect();
    let mut snapshot = MetricsSnapshot {
        shards: stats.len(),
        runs: 0,
        errors: front_errors,
        keydist_runs: 0,
        keydist_reused: 0,
        evictions: 0,
        latencies: Vec::new(),
        latency_count: 0,
        latency_sum: 0,
        eviction_ages: Vec::new(),
        eviction_age_sum: 0,
        eviction_buckets: [0; EVICTION_BUCKETS_US.len()],
        pool_sessions: Vec::with_capacity(stats.len()),
        pool_peaks: Vec::with_capacity(stats.len()),
        queue_depths: load(queue_depths),
        queue_peaks: load(queue_peaks),
        elapsed_us,
        cells: BTreeMap::new(),
    };
    for shard in stats {
        let s = shard.lock().expect("shard stats poisoned");
        snapshot.runs += s.runs;
        snapshot.errors += s.errors;
        snapshot.keydist_runs += s.keydist_runs;
        snapshot.keydist_reused += s.keydist_reused;
        snapshot.evictions += s.evictions;
        snapshot.latencies.extend_from_slice(&s.latencies_us.recent);
        snapshot.latency_count += s.latencies_us.count;
        snapshot.latency_sum += s.latencies_us.sum;
        snapshot
            .eviction_ages
            .extend_from_slice(&s.eviction_ages_us.recent);
        snapshot.eviction_age_sum += s.eviction_ages_us.sum;
        for (total, bucket) in snapshot.eviction_buckets.iter_mut().zip(s.eviction_buckets) {
            *total += bucket;
        }
        snapshot.pool_sessions.push(s.pool_sessions);
        snapshot.pool_peaks.push(s.pool_peak);
        for (key, cell) in &s.cells {
            let merged = snapshot.cells.entry(key.clone()).or_default();
            merged.runs += cell.runs;
            merged.wall_us += cell.wall_us;
            merged.messages += cell.messages;
            merged.bytes += cell.bytes;
            merged.comm_rounds = merged.comm_rounds.max(cell.comm_rounds);
            merged.key_allocs = merged.key_allocs.max(cell.key_allocs);
        }
    }
    snapshot.latencies.sort_unstable();
    snapshot.eviction_ages.sort_unstable();
    snapshot
}

impl MetricsSnapshot {
    fn render(&self, format: MetricsFormat) -> String {
        match format {
            MetricsFormat::Json => self.to_json(),
            MetricsFormat::Prometheus => self.to_prometheus(),
        }
    }

    /// Render the `lafd-serve-v1` metrics document (one line; shown
    /// wrapped):
    ///
    /// ```json
    /// {"schema": "lafd-serve-v1",
    ///  "service": {"shards": 2, "runs": 200, "errors": 0,
    ///              "keydist_runs": 2, "keydist_reused": 120,
    ///              "keydist_reuse_pct": 98, "evictions": 0,
    ///              "wall_us": 123456, "runs_per_sec": 1620,
    ///              "p50_us": 180, "p99_us": 950,
    ///              "queue_depth": [0, 0], "queue_peak": [3, 1],
    ///              "pool_sessions": [2, 1], "pool_peak": [2, 2],
    ///              "eviction_age_p50_us": null},
    ///  "results": [ ...one row per cell... ]}
    /// ```
    ///
    /// `p50_us`/`p99_us`/`eviction_age_p50_us` are `null` with fewer than
    /// two samples (see [`percentile_us`]) and read the most recent
    /// [`SAMPLE_WINDOW`] samples of every shard; the gauge arrays carry one
    /// entry per shard. Each `results` row names its cell
    /// (`protocol`/`n`/`t`/`engine`/`scheme`) and carries `wall_us`,
    /// `messages`, and `bytes` accumulated across the cell's runs, the
    /// cell's `comm_rounds` and `key_allocs`, and a trailing `runs` count.
    fn to_json(&self) -> String {
        let keyed = self.keydist_runs + self.keydist_reused;
        let reuse_pct = (self.keydist_reused * 100).checked_div(keyed).unwrap_or(0);
        let runs_per_sec = (self.runs as u128) * 1_000_000 / self.elapsed_us.max(1);
        let eviction_p50 = percentile_us(&self.eviction_ages, 50);
        let service = Value::obj(vec![
            ("shards", self.shards.into()),
            ("runs", self.runs.into()),
            ("errors", self.errors.into()),
            ("keydist_runs", self.keydist_runs.into()),
            ("keydist_reused", self.keydist_reused.into()),
            ("keydist_reuse_pct", reuse_pct.into()),
            ("evictions", self.evictions.into()),
            ("wall_us", self.elapsed_us.into()),
            ("runs_per_sec", runs_per_sec.into()),
            ("p50_us", percentile_us(&self.latencies, 50).into()),
            ("p99_us", percentile_us(&self.latencies, 99).into()),
            ("queue_depth", self.queue_depths.as_slice().into()),
            ("queue_peak", self.queue_peaks.as_slice().into()),
            ("pool_sessions", self.pool_sessions.as_slice().into()),
            ("pool_peak", self.pool_peaks.as_slice().into()),
            ("eviction_age_p50_us", eviction_p50.into()),
        ]);
        let results = self
            .cells
            .iter()
            .map(|((protocol, n, t, engine, scheme), cell)| {
                Value::obj(vec![
                    ("protocol", protocol.as_str().into()),
                    ("n", (*n).into()),
                    ("t", (*t).into()),
                    ("engine", engine.as_str().into()),
                    ("scheme", scheme.as_str().into()),
                    ("wall_us", cell.wall_us.into()),
                    ("messages", cell.messages.into()),
                    ("bytes", cell.bytes.into()),
                    ("comm_rounds", cell.comm_rounds.into()),
                    ("key_allocs", cell.key_allocs.into()),
                    ("runs", cell.runs.into()),
                ])
            })
            .collect();
        Value::obj(vec![
            ("schema", "lafd-serve-v1".into()),
            ("service", service),
            ("results", Value::Arr(results)),
        ])
        .to_json()
    }

    /// Render Prometheus text exposition: HELP/TYPE-annotated counters,
    /// per-shard `{shard="i"}` gauges for queue depth and session-pool
    /// occupancy, latency quantiles (omitted with fewer than two
    /// samples), and a log-bucketed eviction-age histogram. Terminated by
    /// a `# EOF` line.
    fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: usize| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter("lafd_runs_total", "Completed protocol runs.", self.runs);
        counter(
            "lafd_errors_total",
            "Requests answered with an error (parse, validation, or panic).",
            self.errors,
        );
        counter(
            "lafd_keydist_runs_total",
            "Key distributions executed to warm a session.",
            self.keydist_runs,
        );
        counter(
            "lafd_keydist_reused_total",
            "Runs that reused an already-warm key distribution.",
            self.keydist_reused,
        );
        counter(
            "lafd_session_evictions_total",
            "Sessions evicted by the per-shard LRU bound.",
            self.evictions,
        );
        let mut gauge = |name: &str, help: &str, values: &[usize]| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for (shard, value) in values.iter().enumerate() {
                out.push_str(&format!("{name}{{shard=\"{shard}\"}} {value}\n"));
            }
        };
        gauge(
            "lafd_shard_queue_depth",
            "Requests queued on the shard right now.",
            &self.queue_depths,
        );
        gauge(
            "lafd_shard_queue_peak",
            "Peak requests queued on the shard.",
            &self.queue_peaks,
        );
        gauge(
            "lafd_session_pool_occupancy",
            "Warm sessions pooled on the shard after its most recent job.",
            &self.pool_sessions,
        );
        gauge(
            "lafd_session_pool_peak",
            "Peak warm sessions pooled on the shard.",
            &self.pool_peaks,
        );
        out.push_str(
            "# HELP lafd_request_latency_us Request wall latency, microseconds.\n\
             # TYPE lafd_request_latency_us summary\n",
        );
        if let (Some(p50), Some(p99)) = (
            percentile_us(&self.latencies, 50),
            percentile_us(&self.latencies, 99),
        ) {
            out.push_str(&format!(
                "lafd_request_latency_us{{quantile=\"0.5\"}} {p50}\n\
                 lafd_request_latency_us{{quantile=\"0.99\"}} {p99}\n"
            ));
        }
        out.push_str(&format!(
            "lafd_request_latency_us_sum {}\n\
             lafd_request_latency_us_count {}\n",
            self.latency_sum, self.latency_count
        ));
        out.push_str(
            "# HELP lafd_eviction_age_us Age of evicted sessions since last use, microseconds.\n\
             # TYPE lafd_eviction_age_us histogram\n",
        );
        for (le, below) in EVICTION_BUCKETS_US.iter().zip(self.eviction_buckets) {
            out.push_str(&format!(
                "lafd_eviction_age_us_bucket{{le=\"{le}\"}} {below}\n"
            ));
        }
        out.push_str(&format!(
            "lafd_eviction_age_us_bucket{{le=\"+Inf\"}} {}\n\
             lafd_eviction_age_us_sum {}\n\
             lafd_eviction_age_us_count {}\n",
            self.evictions, self.eviction_age_sum, self.evictions
        ));
        out.push_str(&format!("lafd_uptime_us {}\n", self.elapsed_us));
        out.push_str("# EOF\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Protocol;
    use crate::wire::Value;

    fn request(protocol: Protocol, n: usize, seed: u64, input: &[u8], id: &str) -> String {
        wire::request_to_json(
            &SpecBuilder::new(protocol, n)
                .with_seed(seed)
                .with_input(input.to_vec()),
            Some(id),
        )
        .unwrap()
    }

    #[test]
    fn one_keydist_per_session_key_across_many_runs() {
        let service = FdService::start(ServiceConfig::default());
        for k in 0..6u8 {
            let line = request(Protocol::ChainFd, 6, 7, &[k], &format!("r{k}"));
            let response = wire::response_from_json(&service.submit_line(&line)).unwrap();
            let report = response.report.unwrap();
            assert!(report.all_decided(&[k]));
            assert_eq!(
                response.keydist_reused,
                k > 0,
                "first run warms, rest reuse"
            );
            assert_eq!(
                response.keydist_messages,
                Some(crate::metrics::keydist_messages(6))
            );
        }
        let metrics = Value::parse(&service.shutdown()).unwrap();
        let svc = metrics.get("service").unwrap();
        assert_eq!(svc.get("runs").unwrap().as_int(), Some(6));
        assert_eq!(svc.get("keydist_runs").unwrap().as_int(), Some(1));
        assert_eq!(svc.get("keydist_reused").unwrap().as_int(), Some(5));
        assert_eq!(svc.get("errors").unwrap().as_int(), Some(0));
    }

    #[test]
    fn responses_are_byte_identical_to_direct_cluster_run() {
        let service = FdService::start(ServiceConfig::default());
        for (protocol, k) in [
            (Protocol::ChainFd, 0u8),
            (Protocol::FdToBa, 1),
            (Protocol::NonAuthFd, 2),
            (Protocol::Degradable, 3),
        ] {
            let builder = SpecBuilder::new(protocol, 7)
                .with_seed(11)
                .with_input(vec![k]);
            let line = wire::request_to_json(&builder, None).unwrap();
            let response = wire::response_from_json(&service.submit_line(&line)).unwrap();
            let (cluster, spec) = builder.build().unwrap();
            assert_eq!(
                response.report_json,
                cluster.run(&spec).to_json(),
                "{protocol} diverged from the direct path"
            );
        }
        service.shutdown();
    }

    #[test]
    fn bad_requests_get_error_responses_not_drops() {
        let service = FdService::start(ServiceConfig {
            shards: 1,
            max_sessions: 2,
        });
        // Parse error.
        let r = wire::response_from_json(&service.submit_line("{nope")).unwrap();
        assert!(r.report.is_err());
        // Validation error (inadmissible shape), id echoed.
        let bad = "{\"schema_version\": 1, \"id\": \"x\", \"protocol\": \"phase_king\", \
                   \"n\": 5, \"t\": 2, \"input\": \"00\"}";
        let r = wire::response_from_json(&service.submit_line(bad)).unwrap();
        assert_eq!(r.id.as_deref(), Some("x"));
        assert!(r.report.unwrap_err().contains("inadmissible"));
        let metrics = Value::parse(&service.shutdown()).unwrap();
        assert_eq!(
            metrics
                .get("service")
                .unwrap()
                .get("errors")
                .unwrap()
                .as_int(),
            Some(2)
        );
    }

    #[test]
    fn lru_eviction_bounds_the_pool() {
        let service = FdService::start(ServiceConfig {
            shards: 1,
            max_sessions: 2,
        });
        // Three distinct session keys (different seeds) through a
        // 2-session shard: the third warm-up evicts the first.
        for seed in [1u64, 2, 3] {
            let line = wire::request_to_json(
                &SpecBuilder::new(Protocol::ChainFd, 5)
                    .with_seed(seed)
                    .with_input(b"v".to_vec()),
                None,
            )
            .unwrap();
            let response = wire::response_from_json(&service.submit_line(&line)).unwrap();
            assert!(!response.keydist_reused);
        }
        // Seed 1 was evicted: running it again re-warms (keydist run #4).
        let line = wire::request_to_json(
            &SpecBuilder::new(Protocol::ChainFd, 5)
                .with_seed(1)
                .with_input(b"v".to_vec()),
            None,
        )
        .unwrap();
        let response = wire::response_from_json(&service.submit_line(&line)).unwrap();
        assert!(!response.keydist_reused, "evicted session re-warms");
        let metrics = Value::parse(&service.shutdown()).unwrap();
        let svc = metrics.get("service").unwrap();
        assert_eq!(svc.get("keydist_runs").unwrap().as_int(), Some(4));
        assert!(svc.get("evictions").unwrap().as_int().unwrap() >= 2);
    }

    #[test]
    fn percentile_is_null_with_zero_samples() {
        assert_eq!(percentile_us(&[], 50), None);
        assert_eq!(percentile_us(&[], 99), None);
    }

    #[test]
    fn percentile_is_null_with_one_sample() {
        assert_eq!(percentile_us(&[123], 50), None);
        assert_eq!(percentile_us(&[123], 99), None);
    }

    #[test]
    fn percentile_answers_with_two_or_more_samples() {
        assert_eq!(percentile_us(&[10, 90], 50), Some(10));
        assert_eq!(percentile_us(&[10, 90], 100), Some(90));
        let many: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&many, 50), Some(50));
        assert_eq!(percentile_us(&many, 99), Some(99));
    }

    /// One shard's snapshot after recording `samples` latencies.
    fn snapshot_of(samples: impl Iterator<Item = u64>) -> MetricsSnapshot {
        let mut stats = ShardStats::default();
        for sample in samples {
            stats.latencies_us.record(sample);
        }
        let gauge = [AtomicUsize::new(0)];
        gather(&[Mutex::new(stats)], 0, 1, &gauge, &gauge)
    }

    #[test]
    fn percentiles_are_exact_below_the_sample_window() {
        // Descending, so insertion order differs from sorted order.
        let snapshot = snapshot_of((0..1_000u64).rev());
        let sorted: Vec<u64> = (0..1_000).collect();
        assert_eq!(snapshot.latencies, sorted);
        assert_eq!(percentile_us(&snapshot.latencies, 50), Some(499));
        assert_eq!(percentile_us(&snapshot.latencies, 99), Some(989));
        assert_eq!(snapshot.latency_count, 1_000);
    }

    #[test]
    fn percentiles_read_only_the_most_recent_window() {
        let total = 2 * SAMPLE_WINDOW as u64 + 1_000;
        let snapshot = snapshot_of(0..total);
        // Exactly the last SAMPLE_WINDOW samples survive; the lifetime
        // count and sum still cover everything.
        let oldest = total - SAMPLE_WINDOW as u64;
        assert_eq!(snapshot.latencies, (oldest..total).collect::<Vec<_>>());
        assert_eq!(
            percentile_us(&snapshot.latencies, 50),
            Some(oldest + (SAMPLE_WINDOW as u64 - 1) / 2)
        );
        assert_eq!(snapshot.latency_count, total as usize);
        assert_eq!(snapshot.latency_sum, u128::from(total * (total - 1) / 2));
    }

    #[test]
    fn single_run_metrics_render_null_percentiles() {
        let service = FdService::start(ServiceConfig {
            shards: 1,
            max_sessions: 2,
        });
        let line = request(Protocol::ChainFd, 5, 3, b"v", "only");
        wire::response_from_json(&service.submit_line(&line)).unwrap();
        let raw = service.shutdown();
        let metrics = Value::parse(&raw).unwrap();
        // One line, exactly as the socket's `{"op": "metrics"}` reply.
        assert_eq!(metrics.to_json(), raw);
        let svc = metrics.get("service").unwrap();
        assert!(svc.get("p50_us").unwrap().is_null(), "one sample -> null");
        assert!(svc.get("p99_us").unwrap().is_null(), "one sample -> null");
        assert!(
            svc.get("eviction_age_p50_us").unwrap().is_null(),
            "no evictions -> null"
        );
    }

    #[test]
    fn prometheus_exposition_carries_gauges_and_eof() {
        let service = FdService::start(ServiceConfig {
            shards: 2,
            max_sessions: 1,
        });
        // Two session keys through 1-slot shards to force an eviction.
        for seed in [1u64, 2, 3] {
            let line = wire::request_to_json(
                &SpecBuilder::new(Protocol::ChainFd, 5)
                    .with_seed(seed)
                    .with_input(b"v".to_vec()),
                None,
            )
            .unwrap();
            wire::response_from_json(&service.submit_line(&line)).unwrap();
        }
        let text = service.metrics(MetricsFormat::Prometheus);
        assert!(text.contains("# TYPE lafd_runs_total counter"));
        assert!(text.contains("lafd_runs_total 3"));
        assert!(text.contains("lafd_shard_queue_depth{shard=\"0\"} 0"));
        assert!(text.contains("lafd_shard_queue_depth{shard=\"1\"} 0"));
        assert!(text.contains("# TYPE lafd_session_pool_occupancy gauge"));
        assert!(text.contains("lafd_session_pool_peak{shard="));
        assert!(text.contains("lafd_eviction_age_us_bucket{le=\"+Inf\"}"));
        assert!(text.contains("lafd_uptime_us "));
        assert!(
            text.ends_with("# EOF\n"),
            "line-framed clients need a terminator"
        );
        assert!(service.metrics(MetricsFormat::Json).starts_with('{'));
        assert_eq!(MetricsFormat::parse("prom"), Ok(MetricsFormat::Prometheus));
        assert_eq!(MetricsFormat::parse("json"), Ok(MetricsFormat::Json));
        assert!(MetricsFormat::parse("xml").is_err());
        service.shutdown_with(MetricsFormat::Prometheus);
    }

    #[test]
    fn batch_mode_preserves_input_order() {
        let service = FdService::start(ServiceConfig::default());
        let lines: Vec<String> = (0..12u8)
            .map(|k| request(Protocol::ChainFd, 5, 3, &[k], &format!("b{k}")))
            .collect();
        let responses = service.submit_batch(&lines, 4);
        assert_eq!(responses.len(), 12);
        for (k, line) in responses.iter().enumerate() {
            let response = wire::response_from_json(line).unwrap();
            assert_eq!(response.id.as_deref(), Some(format!("b{k}").as_str()));
            assert!(response.report.unwrap().all_decided(&[k as u8]));
        }
        service.shutdown();
    }
}
