//! Zero-dependency observability: phase spans, counters, trace export.
//!
//! The paper's economics live in *phases* — keydist amortized across runs,
//! then per-round message and verification cost — so this module breaks a
//! run into exactly those phases and exports them in two shapes:
//!
//! * [`PhaseBreakdown`] — attached to
//!   [`FdRunReport::phases`](crate::runner::FdRunReport::phases) when a
//!   cluster runs with [`Cluster::with_obs`]; `None` by default and never
//!   serialized by `to_json`, so every byte-identical equivalence surface
//!   is untouched by tracing.
//! * [`RunTrace`] — assembled by [`Cluster::run_traced`]; renders to
//!   Chrome trace-event JSON (Perfetto-viewable) and to the
//!   inferno-compatible folded-stack format.
//!
//! # Determinism discipline
//!
//! The two engines keep different clocks and the trace honors that split:
//!
//! * **Sync engine** — no virtual clock exists, so spans carry monotonic
//!   *wall-clock microseconds* ([`SpanClock::WallMicros`]). Wall time is
//!   not deterministic and never feeds an equivalence surface.
//! * **Event engine** — spans carry *virtual ticks*
//!   ([`SpanClock::VirtualTicks`]), a pure function of the seed, latency
//!   model, and fault plan. Traces are byte-identical across runs and
//!   machines for a fixed spec; every wall-clock-derived field (verify
//!   timing, report-assembly time, total wall, key distribution's
//!   wall-clock round marks) is omitted from the exported bytes so the
//!   determinism contract survives export.

use crate::runner::{Cluster, FdRunReport, KeyDistReport};
use crate::spec::RunSpec;
use crate::wire::Value;
use fd_simnet::event::TICKS_PER_ROUND;
use fd_simnet::Engine;
use std::time::Instant;

/// Which clock produced a trace's timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClock {
    /// Monotonic wall-clock microseconds (sync engine; not deterministic).
    WallMicros,
    /// Deterministic virtual ticks (event engine;
    /// [`TICKS_PER_ROUND`] per round).
    VirtualTicks,
}

impl SpanClock {
    /// The clock an engine's round marks are measured in.
    pub fn for_engine(engine: Engine) -> Self {
        match engine {
            Engine::Sync => SpanClock::WallMicros,
            Engine::Event => SpanClock::VirtualTicks,
        }
    }

    /// Stable lowercase name used in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            SpanClock::WallMicros => "wall_us",
            SpanClock::VirtualTicks => "virtual_ticks",
        }
    }
}

/// Phase-attributed breakdown of one run, recorded when the cluster ran
/// with [`Cluster::with_obs`].
///
/// The engine fills the round structure during the drive; the dispatch
/// layer adds cache and predicate-table counters; [`Cluster::run_traced`]
/// adds the wall-clock phase envelope (keydist / run / report).
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Clock of [`PhaseBreakdown::round_marks`].
    pub clock: SpanClock,
    /// End-of-round timestamps, one per executed round, measured from the
    /// start of the round loop in [`PhaseBreakdown::clock`] units.
    pub round_marks: Vec<u64>,
    /// Peak delivery-queue depth observed at round boundaries.
    pub max_queue_depth: u64,
    /// Event-engine deliveries routed through the flat round-boundary
    /// ring (the fast path); 0 on the sync engine.
    pub ring_enqueued: u64,
    /// Event-engine deliveries routed through the binary-heap fallback
    /// (out-of-band timing, or all of them under the reference
    /// scheduler); 0 on the sync engine.
    pub heap_enqueued: u64,
    /// High-water mark of the per-node arena inbox (peak envelopes
    /// assembled for a single `on_round` call); 0 on the sync engine.
    pub arena_hwm: u64,
    /// Wall-clock µs spent inside signature-predicate evaluations on the
    /// verify-cache miss path (0 when no evaluation ran).
    pub verify_us: u64,
    /// Verify-cache hits during this run (signature + cohort level).
    pub cache_hits: u64,
    /// Verify-cache misses during this run: cohort judgements plus
    /// signature evaluations executed.
    pub cache_misses: u64,
    /// Predicate-table intern calls that reused a shared allocation.
    pub interned: u64,
    /// Predicate-table intern calls that allocated privately.
    pub fresh: u64,
    /// Wall-clock µs of the setup-phase key distribution, when one ran
    /// under [`Cluster::run_traced`] (`None` for key-free protocols or
    /// when only [`Cluster::with_obs`] was used).
    pub keydist_us: Option<u64>,
    /// Rounds the key distribution executed (0 when none ran).
    pub keydist_rounds: u32,
    /// Messages the key distribution sent (0 when none ran).
    pub keydist_messages: usize,
    /// Total wall-clock µs of keydist + run + report assembly, when
    /// measured by [`Cluster::run_traced`].
    pub wall_us: Option<u64>,
}

impl PhaseBreakdown {
    /// Build the engine-level skeleton from a drive's recorded marks;
    /// `None` when the drive ran without observability.
    pub(crate) fn from_drive(
        engine: Engine,
        round_marks: Option<Vec<u64>>,
        max_queue_depth: Option<usize>,
        sched: Option<fd_simnet::SchedCounters>,
    ) -> Option<Self> {
        round_marks.map(|marks| PhaseBreakdown {
            clock: SpanClock::for_engine(engine),
            round_marks: marks,
            max_queue_depth: max_queue_depth.unwrap_or(0) as u64,
            ring_enqueued: sched.map_or(0, |s| s.ring_enqueued),
            heap_enqueued: sched.map_or(0, |s| s.heap_enqueued),
            arena_hwm: sched.map_or(0, |s| s.arena_hwm as u64),
            verify_us: 0,
            cache_hits: 0,
            cache_misses: 0,
            interned: 0,
            fresh: 0,
            keydist_us: None,
            keydist_rounds: 0,
            keydist_messages: 0,
            wall_us: None,
        })
    }

    /// Per-round durations in [`PhaseBreakdown::clock`] units (differences
    /// of consecutive round marks).
    pub fn per_round(&self) -> Vec<u64> {
        let mut prev = 0;
        self.round_marks
            .iter()
            .map(|&mark| {
                let d = mark.saturating_sub(prev);
                prev = mark;
                d
            })
            .collect()
    }

    /// Verify-cache hit ratio in integer percent, or `None` when the run
    /// never consulted the cache.
    pub fn cache_hit_ratio_pct(&self) -> Option<u64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits * 100 / total)
    }

    /// Share of event-engine deliveries that took the flat-ring fast path,
    /// in integer percent; `None` when the run scheduled no deliveries
    /// (sync engine, or an empty run).
    pub fn ring_ratio_pct(&self) -> Option<u64> {
        let total = self.ring_enqueued + self.heap_enqueued;
        (total > 0).then(|| self.ring_enqueued * 100 / total)
    }
}

/// One named span on a trace timeline, in the trace's clock units.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`keydist`, `keydist:round:2`, `keydist:sign`,
    /// `keydist:verify`, `round:12`, `assemble`, `report`, `verify`).
    pub name: String,
    /// Start timestamp.
    pub start: u64,
    /// Duration.
    pub dur: u64,
}

/// One counter sample exported with a trace.
#[derive(Debug, Clone)]
pub struct CounterSample {
    /// Stable counter name.
    pub name: &'static str,
    /// Sampled value at the end of the run.
    pub value: u64,
}

/// A full phase trace of one run, ready for export.
///
/// The `spans` tile the run timeline without overlap, so their durations
/// sum to the run's total extent in the trace clock; `attributed` spans
/// re-attribute time already counted inside them and live on a separate
/// track: `keydist:round:N` tile the `keydist` span (one round boundary
/// apart on the virtual-tick clock);
/// `keydist:sign` and `keydist:verify` (wall clock only) sum the time
/// key distribution's nodes spent inside the scheme's `sign` and `verify`
/// over every worker, from the start of rounds 2 and 3; `verify` sums the
/// run's predicate evaluations.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Clock of every timestamp in this trace.
    pub clock: SpanClock,
    /// Protocol name (wire form, e.g. `dolev_strong`).
    pub protocol: String,
    /// System size.
    pub n: usize,
    /// Engine name (`sync` or `event`).
    pub engine: &'static str,
    /// Cluster seed.
    pub seed: u64,
    /// Non-overlapping phase spans tiling the timeline.
    pub spans: Vec<Span>,
    /// Attribution spans on a separate track (subsets of phase time).
    pub attributed: Vec<Span>,
    /// End-of-run counter samples.
    pub counters: Vec<CounterSample>,
    /// Total wall-clock µs (only on the wall clock; omitted from
    /// deterministic virtual-tick exports).
    pub wall_us: Option<u64>,
}

impl RunTrace {
    /// Sum of the tiling phase-span durations — equals the traced extent
    /// of the run in clock units.
    pub fn span_total(&self) -> u64 {
        self.spans.iter().map(|s| s.dur).sum()
    }

    /// Render as Chrome trace-event JSON (the `traceEvents` array format
    /// Perfetto and `chrome://tracing` load directly) in the
    /// [document layout](crate::wire#document-layout), one event per line.
    /// Deterministic field order; on the virtual-tick clock the bytes are a
    /// pure function of the run spec and seed.
    pub fn to_chrome_json(&self) -> String {
        let end = self
            .spans
            .iter()
            .map(|sp| sp.start + sp.dur)
            .max()
            .unwrap_or(0);
        let phases = self
            .spans
            .iter()
            .map(|sp| (0u32, sp))
            .chain(self.attributed.iter().map(|sp| (1, sp)))
            .map(|(tid, span)| {
                Value::obj(vec![
                    ("name", span.name.as_str().into()),
                    ("cat", "phase".into()),
                    ("ph", "X".into()),
                    ("pid", 1u32.into()),
                    ("tid", tid.into()),
                    ("ts", span.start.into()),
                    ("dur", span.dur.into()),
                ])
            });
        let counters = self.counters.iter().map(|counter| {
            Value::obj(vec![
                ("name", counter.name.into()),
                ("cat", "counter".into()),
                ("ph", "C".into()),
                ("pid", 1u32.into()),
                ("tid", 0u32.into()),
                ("ts", end.into()),
                ("args", Value::obj(vec![("value", counter.value.into())])),
            ])
        });
        let mut other = vec![
            ("clock", self.clock.name().into()),
            ("protocol", self.protocol.as_str().into()),
            ("n", self.n.into()),
            ("engine", self.engine.into()),
            ("seed", self.seed.into()),
        ];
        if let Some(wall) = self.wall_us {
            other.push(("wall_us", wall.into()));
        }
        Value::obj(vec![
            ("traceEvents", Value::Arr(phases.chain(counters).collect())),
            ("displayTimeUnit", "ms".into()),
            ("otherData", Value::obj(other)),
        ])
        .to_document()
    }

    /// Render as inferno-compatible folded stacks (`frame;frame weight`
    /// per line), for `inferno-flamegraph` or any FlameGraph-format tool.
    pub fn to_folded(&self) -> String {
        let mut s = String::new();
        for span in &self.spans {
            let frame = match span.name.as_str() {
                name if name.starts_with("round:") => format!("run;{name}"),
                "assemble" => "run;assemble".to_string(),
                name => name.to_string(),
            };
            s.push_str(&format!("lafd;{} {}\n", frame, span.dur));
        }
        for span in &self.attributed {
            s.push_str(&format!("lafd;{} {}\n", span.name, span.dur));
        }
        s
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl Cluster {
    /// Execute one spec end to end with observability on, returning the
    /// report (with [`FdRunReport::phases`] populated) and a [`RunTrace`]
    /// ready for Chrome/folded export.
    ///
    /// The trace clock follows the engine: wall-clock microseconds on the
    /// sync engine (phase spans tile the measured wall time), virtual
    /// ticks on the event engine (byte-deterministic for a fixed seed —
    /// wall-derived spans are omitted there).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Cluster::run`].
    pub fn run_traced(&self, spec: &RunSpec) -> (FdRunReport, RunTrace) {
        let cluster = self.clone().with_obs();
        let kd_start = Instant::now();
        let keydist = cluster.keydist_for(spec.protocol);
        let kd_us = elapsed_us(kd_start);
        let run_start = Instant::now();
        let mut report = cluster.run_with_keys(spec, keydist.as_ref());
        let run_us = elapsed_us(run_start);
        // Report assembly: rendering the deterministic JSON the CLI and
        // service emit. Measured on a throwaway render so the phase
        // exists even when the caller never serializes.
        let asm_start = Instant::now();
        let _ = report.to_json();
        let asm_us = elapsed_us(asm_start);

        if let Some(phases) = report.phases.as_mut() {
            phases.keydist_us = keydist.as_ref().map(|_| kd_us);
            if let Some(kd) = &keydist {
                phases.keydist_rounds = kd.stats.rounds;
                phases.keydist_messages = kd.stats.messages_total;
            }
            phases.wall_us = Some(kd_us + run_us + asm_us);
        }
        let trace = assemble_trace(
            &cluster,
            spec,
            &report,
            keydist.as_ref(),
            kd_us,
            run_us,
            asm_us,
        );
        (report, trace)
    }
}

/// Build the exportable trace from a traced run's measurements.
fn assemble_trace(
    cluster: &Cluster,
    spec: &RunSpec,
    report: &FdRunReport,
    keydist: Option<&KeyDistReport>,
    kd_us: u64,
    run_us: u64,
    asm_us: u64,
) -> RunTrace {
    let clock = SpanClock::for_engine(cluster.engine);
    let mut spans = Vec::new();
    let mut attributed = Vec::new();
    let (phases_marks, verify_us) = match &report.phases {
        Some(p) => (p.round_marks.clone(), p.verify_us),
        None => (Vec::new(), 0),
    };
    let mut cursor = 0u64;
    match clock {
        SpanClock::WallMicros => {
            if let Some(kd) = keydist {
                spans.push(Span {
                    name: "keydist".to_string(),
                    start: 0,
                    dur: kd_us,
                });
                cursor = kd_us;
                // The keydist rounds tile the keydist span: round 0 also
                // covers key generation, the last round the store
                // extraction after the round loop.
                let marks = kd.round_marks.as_deref().unwrap_or_default();
                let mut starts = Vec::with_capacity(marks.len());
                let mut prev = 0u64;
                for (r, &mark) in marks.iter().enumerate() {
                    let end = if r + 1 == marks.len() {
                        kd_us
                    } else {
                        mark.clamp(prev, kd_us)
                    };
                    attributed.push(Span {
                        name: format!("keydist:round:{r}"),
                        start: prev,
                        dur: end - prev,
                    });
                    starts.push(prev);
                    prev = end;
                }
                // The time inside the scheme, summed over nodes, from the
                // start of the round that signs (2) and the one that
                // verifies (3).
                if let Some(crypto) = kd.crypto_time {
                    for (name, round, time) in [
                        ("keydist:sign", 2, crypto.sign),
                        ("keydist:verify", 3, crypto.verify),
                    ] {
                        attributed.push(Span {
                            name: name.to_string(),
                            start: starts.get(round).copied().unwrap_or(0),
                            dur: u64::try_from(time.as_micros()).unwrap_or(u64::MAX),
                        });
                    }
                }
            }
            let run_base = cursor;
            let mut prev = 0u64;
            for (r, &mark) in phases_marks.iter().enumerate() {
                spans.push(Span {
                    name: format!("round:{r}"),
                    start: run_base + prev,
                    dur: mark.saturating_sub(prev),
                });
                prev = mark;
            }
            // The run phase also covers node construction (one handle
            // copy of each node's keyring and store) and outcome
            // extraction around the round loop.
            spans.push(Span {
                name: "assemble".to_string(),
                start: run_base + prev,
                dur: run_us.saturating_sub(prev),
            });
            spans.push(Span {
                name: "report".to_string(),
                start: run_base + run_us,
                dur: asm_us,
            });
            if verify_us > 0 {
                attributed.push(Span {
                    name: "verify".to_string(),
                    start: run_base,
                    dur: verify_us,
                });
            }
        }
        SpanClock::VirtualTicks => {
            // Deterministic timeline: keydist rounds then run rounds, all
            // in virtual ticks. Wall-derived spans (verify, report, and
            // the wall-clock keydist marks) are deliberately absent — see
            // the module docs.
            if let Some(kd) = keydist {
                let kd_ticks = u64::from(kd.stats.rounds) * TICKS_PER_ROUND;
                spans.push(Span {
                    name: "keydist".to_string(),
                    start: 0,
                    dur: kd_ticks,
                });
                attributed.extend((0..u64::from(kd.stats.rounds)).map(|r| Span {
                    name: format!("keydist:round:{r}"),
                    start: r * TICKS_PER_ROUND,
                    dur: TICKS_PER_ROUND,
                }));
                cursor = kd_ticks;
            }
            let run_base = cursor;
            let mut prev = 0u64;
            for (r, &mark) in phases_marks.iter().enumerate() {
                spans.push(Span {
                    name: format!("round:{r}"),
                    start: run_base + prev,
                    dur: mark.saturating_sub(prev),
                });
                prev = mark;
            }
        }
    }
    let mut counters = Vec::new();
    if let Some(p) = &report.phases {
        counters.push(CounterSample {
            name: "verify_cache_hits",
            value: p.cache_hits,
        });
        counters.push(CounterSample {
            name: "verify_cache_misses",
            value: p.cache_misses,
        });
        counters.push(CounterSample {
            name: "predicates_interned",
            value: p.interned,
        });
        counters.push(CounterSample {
            name: "predicates_fresh",
            value: p.fresh,
        });
        counters.push(CounterSample {
            name: "max_queue_depth",
            value: p.max_queue_depth,
        });
        counters.push(CounterSample {
            name: "ring_enqueued",
            value: p.ring_enqueued,
        });
        counters.push(CounterSample {
            name: "heap_enqueued",
            value: p.heap_enqueued,
        });
        counters.push(CounterSample {
            name: "arena_hwm",
            value: p.arena_hwm,
        });
    }
    counters.push(CounterSample {
        name: "messages_total",
        value: report.stats.messages_total as u64,
    });
    counters.push(CounterSample {
        name: "bytes_total",
        value: report.stats.bytes_total as u64,
    });
    RunTrace {
        clock,
        protocol: spec.protocol.name().to_string(),
        n: cluster.n,
        engine: match cluster.engine {
            Engine::Sync => "sync",
            Engine::Event => "event",
        },
        seed: cluster.seed,
        spans,
        attributed,
        counters,
        wall_us: match clock {
            SpanClock::WallMicros => Some(kd_us + run_us + asm_us),
            SpanClock::VirtualTicks => None,
        },
    }
}
