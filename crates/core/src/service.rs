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
//!
//! [`Cluster::run`]: crate::runner::Cluster::run
//! [`Cluster::run_with_keys`]: crate::runner::Cluster::run_with_keys

use crate::pool::{self, ShardWorkers};
use crate::runner::KeyDistReport;
use crate::spec::SpecBuilder;
use crate::wire;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

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
}

/// Rendering of a service metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The `lafd-serve-v1` JSON document (default).
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
        let (builder, id) = match wire::request_from_json(line.trim()) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.front_errors.fetch_add(1, Ordering::Relaxed);
                return wire::error_to_json(None, &e);
            }
        };
        // Validate up front so a shard worker can never hit a `Cluster`
        // panic on a bad request shape.
        if let Err(e) = builder.validate() {
            self.front_errors.fetch_add(1, Ordering::Relaxed);
            return wire::error_to_json(id.as_deref(), &e);
        }
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
    pub fn submit_batch(&self, lines: &[String], clients: usize) -> Vec<String> {
        pool::parallel_indexed(lines.len(), clients.max(1), |i| self.submit_line(&lines[i]))
    }

    /// Gather a consistent snapshot of every counter and gauge.
    fn snapshot(&self, elapsed_us: u128) -> MetricsSnapshot {
        gather(
            &self.stats,
            self.front_errors.load(Ordering::Relaxed),
            elapsed_us,
            self.queue_depths
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
            self.queue_peaks
                .iter()
                .map(|p| p.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// A live metrics snapshot: service-level throughput plus the
    /// per-cell rows, rendered as one line of `lafd-serve-v1` JSON.
    pub fn metrics_json(&self) -> String {
        self.snapshot(self.started.elapsed().as_micros()).to_json()
    }

    /// A live metrics snapshot in Prometheus text exposition: run/error
    /// counters, per-shard queue-depth and session-pool-occupancy gauges,
    /// request-latency quantiles, and the eviction-age histogram. The
    /// rendering ends with a `# EOF` line so line-framed wire clients can
    /// find the document boundary.
    pub fn metrics_prometheus(&self) -> String {
        self.snapshot(self.started.elapsed().as_micros())
            .to_prometheus()
    }

    /// A live metrics snapshot in the requested format.
    pub fn metrics_in(&self, format: MetricsFormat) -> String {
        match format {
            MetricsFormat::Json => self.metrics_json(),
            MetricsFormat::Prometheus => self.metrics_prometheus(),
        }
    }

    /// Graceful drain: stop accepting requests, finish everything queued,
    /// join the workers, and return the final metrics snapshot.
    pub fn shutdown(self) -> String {
        self.shutdown_with(MetricsFormat::Json)
    }

    /// [`FdService::shutdown`] with the final snapshot rendered in the
    /// requested format (`lafd serve --metrics-format`).
    pub fn shutdown_with(self, format: MetricsFormat) -> String {
        let elapsed = self.started.elapsed().as_micros();
        self.workers.join();
        let snapshot = gather(
            &self.stats,
            self.front_errors.load(Ordering::Relaxed),
            elapsed,
            self.queue_depths
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
            self.queue_peaks
                .iter()
                .map(|p| p.load(Ordering::Relaxed))
                .collect(),
        );
        match format {
            MetricsFormat::Json => snapshot.to_json(),
            MetricsFormat::Prometheus => snapshot.to_prometheus(),
        }
    }
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
    queue_depths: Vec<usize>,
    queue_peaks: Vec<usize>,
) -> MetricsSnapshot {
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
        queue_depths,
        queue_peaks,
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
        use wire::Value::{Arr, Int, Null, Obj, Str};
        let int = |v: usize| Int(v as i128);
        let opt = |v: Option<u64>| v.map_or(Null, |v| Int(v.into()));
        let arr = |vs: &[usize]| Arr(vs.iter().map(|&v| int(v)).collect());
        let obj = |fields: Vec<(&str, wire::Value)>| {
            Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
        };
        let keyed = self.keydist_runs + self.keydist_reused;
        let reuse_pct = (self.keydist_reused * 100).checked_div(keyed).unwrap_or(0);
        let runs_per_sec = (self.runs as u128) * 1_000_000 / self.elapsed_us.max(1);
        let eviction_p50 = percentile_us(&self.eviction_ages, 50);
        let service = obj(vec![
            ("shards", int(self.shards)),
            ("runs", int(self.runs)),
            ("errors", int(self.errors)),
            ("keydist_runs", int(self.keydist_runs)),
            ("keydist_reused", int(self.keydist_reused)),
            ("keydist_reuse_pct", int(reuse_pct)),
            ("evictions", int(self.evictions)),
            ("wall_us", Int(self.elapsed_us as i128)),
            ("runs_per_sec", Int(runs_per_sec as i128)),
            ("p50_us", opt(percentile_us(&self.latencies, 50))),
            ("p99_us", opt(percentile_us(&self.latencies, 99))),
            ("queue_depth", arr(&self.queue_depths)),
            ("queue_peak", arr(&self.queue_peaks)),
            ("pool_sessions", arr(&self.pool_sessions)),
            ("pool_peak", arr(&self.pool_peaks)),
            ("eviction_age_p50_us", opt(eviction_p50)),
        ]);
        let results = self
            .cells
            .iter()
            .map(|((protocol, n, t, engine, scheme), cell)| {
                obj(vec![
                    ("protocol", Str(protocol.clone())),
                    ("n", int(*n)),
                    ("t", int(*t)),
                    ("engine", Str(engine.clone())),
                    ("scheme", Str(scheme.clone())),
                    ("wall_us", Int(cell.wall_us as i128)),
                    ("messages", int(cell.messages)),
                    ("bytes", int(cell.bytes)),
                    ("comm_rounds", int(cell.comm_rounds)),
                    ("key_allocs", int(cell.key_allocs)),
                    ("runs", int(cell.runs)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Str("lafd-serve-v1".into())),
            ("service", service),
            ("results", Arr(results)),
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
        gather(&[Mutex::new(stats)], 0, 1, vec![0], vec![0])
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
        let text = service.metrics_prometheus();
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
        // metrics_in dispatches on format.
        assert!(service.metrics_in(MetricsFormat::Json).starts_with('{'));
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
