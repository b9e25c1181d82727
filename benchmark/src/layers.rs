//! The traced pass: per-layer metrics, measured from the benchmark's side of
//! each layer's public functions.
//!
//! Three sources feed the sheet: fixed-count probes of the leaves (bigint,
//! crypto, chain, codec, wire, spec), the composite calls the workloads are
//! made of (key distribution, runs on warm keys, the in-process service and
//! cluster), and a short end-to-end leg of every workload for the rows that
//! only exist as a difference between the real binary and its in-process
//! replica. Medians throughout; counts are exact.

use crate::check;
use crate::gen::{self, Op, Workload, HEAVY_N};
use crate::proc;
use crate::stats::{median, percentile, sorted};
use crate::trace::Recorder;
use crate::workload::{self, Ctx, E2e, Limit};
use fd_core::chain::ChainMessage;
use fd_core::deploy::{self, Registry, WorkerConfig};
use fd_core::runner::{Cluster, FdRunReport, KeyDistReport};
use fd_core::service::{FdService, ServiceConfig};
use fd_core::spec::{scheme_by_name, Protocol, RunSpec, SpecBuilder};
use fd_core::wire::{self, RegistryReply, RegistryRequest};
use fd_core::Keyring;
use fd_crypto::SchnorrGroup;
use fd_simnet::codec::{Decode, Encode};
use fd_simnet::transport::nonblocking::MeshPeers;
use fd_simnet::{Engine, NodeId};
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::Instant;

/// One named value of the sheet.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. The
/// traced pass must produce exactly these names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bigint.modpow_1024_us", "us"),
    ("bigint.modpow_tiny_us", "us"),
    ("crypto.keygen_s1024_us", "us"),
    ("crypto.sign_s1024_us", "us"),
    ("crypto.verify_s1024_us", "us"),
    ("crypto.sign_tiny_us", "us"),
    ("crypto.verify_tiny_us", "us"),
    ("crypto.sha256_mb_per_s", "MB/s"),
    ("localauth.keydist_n128_tiny_ms", "ms"),
    ("localauth.keydist_us_per_msg", "us"),
    ("localauth.keydist_n16_s1024_ms", "ms"),
    ("localauth.keydist_n256_tiny_ms", "ms"),
    ("keys.keydist_n256_rss_delta_mb", "MB"),
    ("localauth.keydist_msgs", "count"),
    ("keys.predicate_distinct_allocs", "count"),
    ("spec.build_n256_us", "us"),
    ("spec.build_n17_us", "us"),
    ("runner.chain256_run_ms", "ms"),
    ("runner.ds256_sync_run_ms", "ms"),
    ("runner.ds256_event_run_ms", "ms"),
    ("runner.ds256_sync_rounds_ms", "ms"),
    ("runner.ds256_sync_assemble_ms", "ms"),
    ("keys.ds256_sync_verify_ms", "ms"),
    ("keys.verify_cache_hit_pct", "%"),
    ("simnet.event_ring_ratio_pct", "%"),
    ("runner.chain4096_run_ms", "ms"),
    ("runner.chain4096_assemble_ms", "ms"),
    ("runner.ds2048_event_run_ms", "ms"),
    ("runner.ds2048_rss_delta_mb", "MB"),
    ("runner.report_json_n256_us", "us"),
    ("chain.originate_extend_us", "us"),
    ("chain.verify_us", "us"),
    ("simnet.codec_chain_roundtrip_ns", "ns"),
    ("wire.request_decode_us", "us"),
    ("wire.response_encode_n64_us", "us"),
    ("wire.response_decode_n256_us", "us"),
    ("service.warm_exec_p50_us", "us"),
    ("service.warm_front_p50_us", "us"),
    ("service.heavy_exec_p50_us", "us"),
    ("service.heavy_front_p50_us", "us"),
    ("service.submit_overhead_us", "us"),
    ("service.warm_keydist_reuse_pct", "%"),
    ("service.heavy_keydist_reuse_pct", "%"),
    ("service.evictions", "count"),
    ("service.queue_peak", "count"),
    ("service.cold_session_n64_ms", "ms"),
    ("service.evict_us", "us"),
    ("deploy.registry_call_us", "us"),
    ("simnet.mesh_establish_n8_ms", "ms"),
    ("deploy.inproc_cluster_n8_ms", "ms"),
    ("deploy.assemble_report_us", "us"),
    ("lafd.cluster_spawn_ms", "ms"),
    ("lafd.run_process_ms", "ms"),
    ("deploy.recover_kill_round_ms", "ms"),
    ("deploy.recover_kill_keydist_ms", "ms"),
    ("obs.run_traced_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.loadgen_busy_pct", "%"),
];

/// The sheet under construction; `put` refuses names outside [`PER_LAYER`].
#[derive(Default)]
struct Sheet {
    rows: Vec<Metric>,
}

impl Sheet {
    fn put(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
            .1;
        self.rows.push(Metric { name, value, unit });
    }
}

/// Median microseconds of `calls` timed calls of `f`.
fn median_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|i| {
            let started = Instant::now();
            f(i);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples).expect("at least one call")
}

/// Median per-call microseconds of a call too short to time alone: `calls`
/// samples of `batch` back-to-back calls each.
fn median_batched_us(calls: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    median_us(calls, |_| {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

fn rss_mb(field: &str) -> f64 {
    proc::proc_status_kb(std::process::id(), field).unwrap_or(0) as f64 / 1024.0
}

/// Peak resident growth across `f`: the high-water mark afterwards minus the
/// resident set before. Zero when `f` stayed below an earlier peak of this
/// process, so callers run the probes in rising order of footprint.
fn with_rss_delta_mb<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = rss_mb("VmRSS");
    let out = f();
    (out, (rss_mb("VmHWM") - before).max(0.0))
}

const CALLS: usize = 30;

fn leaf_probes(sheet: &mut Sheet) {
    // bigint: one modular exponentiation at each scheme's modulus and
    // exponent (subgroup order) size.
    for (name, group) in [
        ("bigint.modpow_1024_us", SchnorrGroup::s1024()),
        ("bigint.modpow_tiny_us", SchnorrGroup::test_tiny()),
    ] {
        let ctx = fd_bigint::MontCtx::new(group.p()).expect("group modulus is odd");
        let batch = if group.p().limbs().len() > 4 { 1 } else { 50 };
        sheet.put(
            name,
            median_batched_us(CALLS, batch, || {
                black_box(ctx.modpow(black_box(group.g()), black_box(group.q())));
            }),
        );
    }

    // crypto: keygen / sign / verify through the scheme trait.
    let message = gen::SplitMix::new(1).bytes(64);
    for (scheme_name, batch, rows) in [
        (
            "s1024",
            1,
            [
                Some("crypto.keygen_s1024_us"),
                Some("crypto.sign_s1024_us"),
                Some("crypto.verify_s1024_us"),
            ],
        ),
        (
            "tiny",
            50,
            [
                None,
                Some("crypto.sign_tiny_us"),
                Some("crypto.verify_tiny_us"),
            ],
        ),
    ] {
        let scheme = scheme_by_name(scheme_name).expect("known scheme");
        if let Some(row) = rows[0] {
            sheet.put(
                row,
                median_us(CALLS, |i| {
                    black_box(scheme.keypair_from_seed(i as u64 + 1));
                }),
            );
        }
        let (sk, pk) = scheme.keypair_from_seed(7);
        let sig = scheme.sign(&sk, &message).expect("well-formed key");
        sheet.put(
            rows[1].expect("sign row"),
            median_batched_us(CALLS, batch, || {
                black_box(scheme.sign(black_box(&sk), black_box(&message)).is_ok());
            }),
        );
        sheet.put(
            rows[2].expect("verify row"),
            median_batched_us(CALLS, batch, || {
                assert!(scheme.verify(black_box(&pk), black_box(&message), black_box(&sig)));
            }),
        );
    }
    let block = gen::SplitMix::new(2).bytes(64 * 1024);
    let sha_us = median_us(CALLS, |_| {
        black_box(fd_crypto::sha256(black_box(&block)));
    });
    sheet.put("crypto.sha256_mb_per_s", block.len() as f64 / sha_us);

    // chain: a t + 1 = 3 signature chain as chain FD builds it for t = 2,
    // P0 -> P1 -> P2, verified by P3.
    let scheme = scheme_by_name("tiny").expect("known scheme");
    let cluster = Cluster::new(8, 2, scheme.clone(), 5);
    let rings: Vec<Keyring> = (0..3).map(|i| cluster.keyring(NodeId(i))).collect();
    let body = gen::SplitMix::new(3).bytes(32);
    let build = || {
        ChainMessage::originate(scheme.as_ref(), &rings[0].sk, NodeId(0), body.clone())
            .and_then(|c| c.extend(scheme.as_ref(), &rings[1].sk, NodeId(0)))
            .and_then(|c| c.extend(scheme.as_ref(), &rings[2].sk, NodeId(1)))
            .expect("well-formed keys")
    };
    sheet.put(
        "chain.originate_extend_us",
        median_batched_us(CALLS, 20, || {
            black_box(build());
        }),
    );
    let chain = build();
    let store = cluster.global_stores().swap_remove(3);
    sheet.put(
        "chain.verify_us",
        median_batched_us(CALLS, 20, || {
            assert_eq!(
                black_box(&chain).verify(scheme.as_ref(), &store, NodeId(2)),
                Ok(NodeId(2))
            );
        }),
    );
    sheet.put(
        "simnet.codec_chain_roundtrip_ns",
        median_batched_us(CALLS, 200, || {
            let bytes = black_box(&chain).encode_to_vec();
            black_box(ChainMessage::decode_exact(&bytes).expect("own encoding"));
        }) * 1e3,
    );
}

/// Key distribution at the three shapes the workloads pay for; returns the
/// warm `n = 256` keys for the runner probes.
fn keydist_probes(sheet: &mut Sheet, seed: u64) -> (Cluster, KeyDistReport) {
    let tiny = scheme_by_name("tiny").expect("known scheme");
    let mut messages = 0;
    let mut allocs = 0;
    let n128_us = median_us(5, |i| {
        let kd = Cluster::new(128, 1, tiny.clone(), seed + i as u64).setup_keydist();
        messages = kd.stats.messages_total;
        allocs = kd
            .predicates
            .as_ref()
            .map_or(0, |table| table.distinct_allocations());
    });
    sheet.put("localauth.keydist_n128_tiny_ms", n128_us / 1e3);
    sheet.put("localauth.keydist_us_per_msg", n128_us / messages as f64);
    sheet.put("localauth.keydist_msgs", messages as f64);
    sheet.put("keys.predicate_distinct_allocs", allocs as f64);

    let s1024 = scheme_by_name("s1024").expect("known scheme");
    sheet.put(
        "localauth.keydist_n16_s1024_ms",
        median_us(5, |i| {
            black_box(Cluster::new(16, 5, s1024.clone(), seed + i as u64).setup_keydist());
        }) / 1e3,
    );

    let heavy = Cluster::new(HEAVY_N, 1, tiny, seed);
    let mut warm = None;
    let mut deltas = Vec::new();
    let n256_us = median_us(2, |_| {
        let (kd, delta) = with_rss_delta_mb(|| heavy.setup_keydist());
        deltas.push(delta);
        warm = Some(kd);
    });
    sheet.put("localauth.keydist_n256_tiny_ms", n256_us / 1e3);
    sheet.put("keys.keydist_n256_rss_delta_mb", deltas[0]);
    (heavy, warm.expect("two calls ran"))
}

/// A run on given keys with observability on: wall, and the report with its
/// phase breakdown.
fn observed_run(cluster: &Cluster, spec: &RunSpec, keys: &KeyDistReport) -> (f64, FdRunReport) {
    let observed = cluster.clone().with_obs();
    let started = Instant::now();
    let report = observed.run_with_keys(spec, Some(keys));
    (started.elapsed().as_secs_f64() * 1e6, report)
}

/// Wall-clock µs the round loop of an observed sync-engine run took.
fn rounds_us(report: &FdRunReport) -> f64 {
    report
        .phases
        .as_ref()
        .and_then(|p| p.round_marks.last().copied())
        .unwrap_or(0) as f64
}

fn runner_probes(sheet: &mut Sheet, heavy: &Cluster, keys: &KeyDistReport) {
    let input = gen::SplitMix::new(4).bytes(32);
    let chain = RunSpec::new(Protocol::ChainFd, input.clone());
    let ds = RunSpec::new(Protocol::DolevStrong, input.clone());
    let event = heavy.clone().with_engine(Engine::Event);

    sheet.put(
        "runner.chain256_run_ms",
        median_us(CALLS, |_| {
            black_box(heavy.run_with_keys(&chain, Some(keys)));
        }) / 1e3,
    );
    let ds_sync_us = median_us(10, |_| {
        black_box(heavy.run_with_keys(&ds, Some(keys)));
    });
    sheet.put("runner.ds256_sync_run_ms", ds_sync_us / 1e3);
    sheet.put(
        "runner.ds256_event_run_ms",
        median_us(10, |_| {
            black_box(event.run_with_keys(&ds, Some(keys)));
        }) / 1e3,
    );

    // The same DS run with the program's own phase marks on.
    let mut walls = Vec::new();
    let mut rounds = Vec::new();
    let mut verify = Vec::new();
    let mut hit_pct = 0.0;
    for _ in 0..10 {
        let (wall, report) = observed_run(heavy, &ds, keys);
        let phases = report.phases.as_ref().expect("observed run has phases");
        walls.push(wall);
        rounds.push(rounds_us(&report));
        verify.push(phases.verify_us as f64);
        hit_pct = phases.cache_hit_ratio_pct().unwrap_or(0) as f64;
    }
    let (wall, rounds) = (
        median(&walls).expect("ten runs"),
        median(&rounds).expect("ten runs"),
    );
    sheet.put("runner.ds256_sync_rounds_ms", rounds / 1e3);
    sheet.put("runner.ds256_sync_assemble_ms", (wall - rounds) / 1e3);
    sheet.put(
        "keys.ds256_sync_verify_ms",
        median(&verify).expect("ten runs") / 1e3,
    );
    sheet.put("keys.verify_cache_hit_pct", hit_pct);
    sheet.put(
        "obs.run_traced_overhead_pct",
        (wall - ds_sync_us) / ds_sync_us * 100.0,
    );
    let (_, report) = observed_run(&event, &ds, keys);
    sheet.put(
        "simnet.event_ring_ratio_pct",
        report
            .phases
            .as_ref()
            .and_then(|p| p.ring_ratio_pct())
            .unwrap_or(0) as f64,
    );

    let report = heavy.run_with_keys(&chain, Some(keys));
    sheet.put(
        "runner.report_json_n256_us",
        median_batched_us(CALLS, 20, || {
            black_box(black_box(&report).to_json());
        }),
    );

    // The large-n points real key distribution puts out of end-to-end reach,
    // on dealer stores.
    let tiny = scheme_by_name("tiny").expect("known scheme");
    let big = Cluster::new(4096, 1, tiny.clone(), 9);
    let dealt = big.dealer_keydist();
    let mut assemble = Vec::new();
    sheet.put(
        "runner.chain4096_run_ms",
        median_us(3, |_| {
            let (wall, report) = observed_run(&big, &chain, &dealt);
            assemble.push(wall - rounds_us(&report));
        }) / 1e3,
    );
    sheet.put(
        "runner.chain4096_assemble_ms",
        median(&assemble).expect("three runs") / 1e3,
    );
    drop(dealt);
    let wide = Cluster::new(2048, 1, tiny, 9).with_engine(Engine::Event);
    let dealt = wide.dealer_keydist();
    let mut deltas = Vec::new();
    sheet.put(
        "runner.ds2048_event_run_ms",
        median_us(3, |_| {
            let ((), delta) = with_rss_delta_mb(|| {
                black_box(wide.run_with_keys(&ds, Some(&dealt)));
            });
            deltas.push(delta);
        }) / 1e3,
    );
    sheet.put("runner.ds2048_rss_delta_mb", deltas[0]);
}

fn wire_and_spec_probes(sheet: &mut Sheet, seed: u64, heavy_report: &str) {
    let warm = gen::op(Workload::ServeWarm, seed, 1, 0);
    let line = gen::request_line(&warm);
    sheet.put(
        "wire.request_decode_us",
        median_batched_us(CALLS, 50, || {
            black_box(wire::request_from_json(black_box(&line)).expect("own request"));
        }),
    );
    let n64_report = check::reference_report(&warm);
    sheet.put(
        "wire.response_encode_n64_us",
        median_batched_us(CALLS, 50, || {
            black_box(wire::response_to_json(
                None,
                1,
                true,
                Some(12_096),
                150,
                &n64_report,
            ));
        }),
    );
    let heavy_line = wire::response_to_json(None, 0, true, Some(195_840), 3_000, heavy_report);
    sheet.put(
        "wire.response_decode_n256_us",
        median_batched_us(CALLS, 5, || {
            black_box(wire::response_from_json(black_box(&heavy_line)).expect("own response"));
        }),
    );
    for (name, builder) in [
        (
            "spec.build_n256_us",
            gen::op(Workload::ServeHeavy, seed, 0, 0).builder,
        ),
        (
            "spec.build_n17_us",
            gen::op(Workload::ServeWarm, seed, 0, 0).builder,
        ),
    ] {
        sheet.put(
            name,
            median_batched_us(CALLS, 50, || {
                builder.validate().expect("valid");
                black_box(builder.build().expect("valid"));
            }),
        );
    }
}

/// The session pool under churn: first-request latency on a cold session,
/// and what evicting to make room adds.
fn service_churn_probes(sheet: &mut Sheet, seed: u64) {
    let mut cold = Vec::new();
    let mut evicting = Vec::new();
    for round in 0..3u64 {
        let service = FdService::start(ServiceConfig {
            shards: 1,
            max_sessions: 2,
        });
        for k in 0..5u64 {
            let builder = SpecBuilder::new(Protocol::ChainFd, 64)
                .with_t(1)
                .with_seed(seed + round * 16 + k)
                .with_input(vec![7; 32]);
            let line = wire::request_to_json(&builder, None).expect("encodable");
            let started = Instant::now();
            let response = service.submit_line(&line);
            let us = started.elapsed().as_secs_f64() * 1e6;
            assert!(response.contains("\"ok\": true"), "{response}");
            if k < 2 { &mut cold } else { &mut evicting }.push(us);
        }
        black_box(service.shutdown());
    }
    let cold_us = median(&cold).expect("six cold requests");
    sheet.put("service.cold_session_n64_ms", cold_us / 1e3);
    sheet.put(
        "service.evict_us",
        median(&evicting).expect("nine evicting requests") - cold_us,
    );
}

/// A registry served from a thread of this process. `Registry::serve` has no
/// stop, so the thread is left to end with the process.
fn spawn_registry() -> Result<String, String> {
    let registry = Registry::bind("127.0.0.1:0")
        .map_err(|e| format!("binding the in-process registry: {e}"))?
        .with_wait_limit(proc::OP_DEADLINE);
    let addr = registry.local_addr().to_string();
    std::thread::spawn(move || {
        let _ = registry.serve();
    });
    Ok(addr)
}

/// One cluster op in-process: worker threads standing in for worker
/// processes (the same `run_worker` minus the re-exec), then collect and
/// assemble.
fn inproc_cluster_op(
    registry: &str,
    run: &str,
    op: &Op,
    rec: &mut Recorder,
) -> Result<String, String> {
    let n = op.builder.n;
    rec.span("deploy.run_workers", |_| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..n)
                .map(|node| {
                    scope.spawn(move || {
                        let cfg = WorkerConfig::localhost(
                            registry.to_string(),
                            run.to_string(),
                            node,
                            proc::OP_DEADLINE,
                        );
                        deploy::run_worker(&cfg, &op.builder)
                    })
                })
                .collect();
            workers.into_iter().try_for_each(|w| {
                w.join()
                    .map_err(|_| "worker thread panicked".to_string())?
                    .map_err(|e| format!("in-process worker: {e}"))
            })
        })
    })?;
    let workers = rec.span("deploy.registry_collect", |_| match deploy::registry_call(
        registry,
        &RegistryRequest::Collect {
            run: run.to_string(),
        },
        proc::OP_DEADLINE,
    )? {
        RegistryReply::Summaries { workers } => Ok(workers),
        other => Err(format!("registry returned {other:?} instead of summaries")),
    })?;
    let (report, _) = rec.span("deploy.assemble_report", |_| {
        deploy::assemble_report(op.builder.protocol, n, &workers)
    })?;
    Ok(rec.span("runner.report_to_json", |_| report.to_json()))
}

fn deploy_probes(sheet: &mut Sheet, seed: u64, registry: &str) -> Result<(), String> {
    let collect = RegistryRequest::Collect {
        run: "nobody".to_string(),
    };
    let mut failed = None;
    sheet.put(
        "deploy.registry_call_us",
        median_us(CALLS, |_| {
            if let Err(e) = deploy::registry_call(registry, &collect, proc::OP_DEADLINE) {
                failed = Some(e);
            }
        }),
    );
    if let Some(e) = failed {
        return Err(format!("registry round trip: {e}"));
    }

    let mut failed = None;
    sheet.put(
        "simnet.mesh_establish_n8_ms",
        median_us(10, |_| {
            let listeners: Vec<TcpListener> = (0..8)
                .map(|_| TcpListener::bind("127.0.0.1:0").expect("ephemeral port"))
                .collect();
            let addrs: Vec<SocketAddr> = listeners
                .iter()
                .map(|l| l.local_addr().expect("bound listener"))
                .collect();
            std::thread::scope(|scope| {
                let meshes: Vec<_> = listeners
                    .iter()
                    .enumerate()
                    .map(|(me, listener)| {
                        let addrs = &addrs;
                        scope.spawn(move || {
                            MeshPeers::establish(
                                NodeId(me as u16),
                                listener,
                                addrs,
                                proc::OP_DEADLINE,
                            )
                        })
                    })
                    .collect();
                // Hold every mesh until all are up, as a worker would.
                let up: Vec<_> = meshes.into_iter().map(|m| m.join()).collect();
                if !up.iter().all(|m| matches!(m, Ok(Ok(_)))) {
                    failed = Some("mesh establish failed".to_string());
                }
            });
        }) / 1e3,
    );
    if let Some(e) = failed {
        return Err(e);
    }

    // assemble_report alone, on the summaries of one in-process run.
    let op = gen::op(Workload::ClusterChaos, seed, 0, 0);
    let run = format!("probe-{seed}");
    inproc_cluster_op(registry, &run, &op, &mut Recorder::new())?;
    let RegistryReply::Summaries { workers } = deploy::registry_call(
        registry,
        &RegistryRequest::Collect { run },
        proc::OP_DEADLINE,
    )?
    else {
        return Err("registry did not return summaries".to_string());
    };
    sheet.put(
        "deploy.assemble_report_us",
        median_batched_us(CALLS, 20, || {
            black_box(deploy::assemble_report(Protocol::ChainFd, 8, &workers).expect("complete"));
        }),
    );
    Ok(())
}

/// What the in-process replica of a workload measured. Cycles alternate
/// between spans on and spans off, so both sides of the tracing overhead see
/// the same warm state.
#[derive(Default)]
struct Replica {
    /// Per-op milliseconds of the cycles replayed with spans off.
    plain_ms: Vec<f64>,
    /// Per-op milliseconds of the cycles replayed with spans on.
    spanned_ms: Vec<f64>,
    /// `submit_line` time minus the server-reported `wall_us`, per request
    /// (serve workloads only).
    submit_overhead_us: Vec<f64>,
}

/// Replay `cycles` cycles of a workload in-process through the layers'
/// public functions, every op checked, with a span around each call on
/// every other cycle. `registry` serves the cluster workload's workers.
fn replica(
    workload: Workload,
    seed: u64,
    cycles: usize,
    registry: Option<&str>,
    rec: &mut Recorder,
) -> Result<Replica, String> {
    let mut out = Replica::default();
    let service = workload.is_serve().then(|| {
        let service = FdService::start(ServiceConfig::default());
        for client in 0..workload.clients() {
            for k in 0..workload.sessions_per_client() {
                let warm = gen::request_line(&gen::op(workload, seed, client, k));
                black_box(service.submit_line(&warm));
            }
        }
        service
    });
    let mut op_id = 0;
    for index in 0..cycles * workload.cycle_len() {
        let spans_on = (index / workload.cycle_len()).is_multiple_of(2);
        rec.set_enabled(spans_on);
        for client in 0..workload.clients() {
            // Chaos kills exist only between processes; the replica runs the
            // clean shape of every cluster op.
            let op = gen::op(workload, seed, client, index);
            let line = gen::request_line(&op);
            rec.set_op(op_id);
            op_id += 1;
            let started = Instant::now();
            let report = rec.span("op", |rec| -> Result<String, String> {
                match workload {
                    Workload::ColdKeydist | Workload::ColdCrypto => {
                        let (builder, _) =
                            rec.span("wire.request_from_json", |_| wire::request_from_json(&line))?;
                        let (cluster, spec) = rec.span("spec.validate_build", |_| {
                            builder.validate()?;
                            builder.build()
                        })?;
                        let keys = rec.span("localauth.setup_keydist", |_| cluster.setup_keydist());
                        let report = rec.span("runner.run_with_keys", |_| {
                            cluster.run_with_keys(&spec, Some(&keys))
                        });
                        Ok(rec.span("runner.report_to_json", |_| report.to_json()))
                    }
                    Workload::ServeWarm | Workload::ServeHeavy => {
                        let service = service.as_ref().expect("serve workloads start one");
                        let sent = Instant::now();
                        let response =
                            rec.span("service.submit_line", |_| service.submit_line(&line));
                        let took_us = sent.elapsed().as_secs_f64() * 1e6;
                        let decoded = rec.span("wire.response_from_json", |_| {
                            wire::response_from_json(&response)
                        })?;
                        out.submit_overhead_us
                            .push(took_us - decoded.wall_us as f64);
                        decoded.report.map(|_| decoded.report_json)
                    }
                    Workload::ClusterChaos => inproc_cluster_op(
                        registry.expect("the cluster replica needs a registry"),
                        &format!("replica-{seed}-{op_id}"),
                        &op,
                        rec,
                    ),
                }
            })?;
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if spans_on {
                &mut out.spanned_ms
            } else {
                &mut out.plain_ms
            }
            .push(ms);
            rec.span("check", |_| check::check_report(&op, &report, None))
                .map_err(|e| format!("{} replica op {index}: {e}", workload.name()))?;
        }
    }
    if let Some(service) = service {
        black_box(service.shutdown());
    }
    Ok(out)
}

fn p50(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Client latency minus server-reported execution, and the execution alone.
fn front_and_exec_p50_us(e2e: &E2e) -> (f64, f64) {
    let exec: Vec<f64> = e2e.samples.iter().filter_map(|s| s.exec_us).collect();
    let front: Vec<f64> = e2e
        .samples
        .iter()
        .filter_map(|s| Some(s.ms * 1e3 - s.exec_us?))
        .collect();
    (p50(&front), p50(&exec))
}

/// Cycles of each workload's short end-to-end leg.
fn leg_cycles(workload: Workload) -> usize {
    match workload {
        Workload::ColdKeydist | Workload::ColdCrypto => 2,
        Workload::ServeWarm | Workload::ServeHeavy => 3,
        Workload::ClusterChaos => 4,
    }
}

/// Cycles of the in-process replicas (half of them with spans on).
fn replica_cycles(workload: Workload) -> usize {
    match workload {
        Workload::ColdKeydist | Workload::ColdCrypto => 2,
        Workload::ServeWarm | Workload::ServeHeavy => 4,
        Workload::ClusterChaos => 6,
    }
}

/// The traced pass's result: the sheet, the spans of the requested
/// workload's replica, and the op accounting of the end-to-end legs.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub spans: Vec<crate::trace::Span>,
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
}

/// Measure every per-layer metric. `workload` selects whose replica spans
/// are kept (and whose tracing overhead is reported) and whose leg reports
/// the load generator's own CPU share.
pub fn traced_pass(lafd: PathBuf, workload: Workload, seed: u64) -> Result<Traced, String> {
    // Everything up to the cold replicas runs before this process starts its
    // first thread: the real `lafd run` is single-threaded, and glibc's
    // allocator is measurably faster until a second thread has existed.
    let mut sheet = Sheet::default();
    // Replay one workload's replica; the requested workload's spans are
    // kept and its tracing overhead reported.
    let mut kept = Recorder::new();
    let mut trace_overhead_pct = None;
    let mut replay = |w: Workload, registry: Option<&str>| -> Result<Replica, String> {
        let mut scratch = Recorder::new();
        let rec = if w == workload {
            &mut kept
        } else {
            &mut scratch
        };
        let replayed = replica(w, seed, replica_cycles(w), registry, rec)?;
        if w == workload {
            let (plain, spanned) = (p50(&replayed.plain_ms), p50(&replayed.spanned_ms));
            trace_overhead_pct = Some((spanned - plain) / plain * 100.0);
        }
        Ok(replayed)
    };
    leaf_probes(&mut sheet);
    let (heavy, keys) = keydist_probes(&mut sheet, seed);
    let heavy_report = heavy
        .run_with_keys(&RunSpec::new(Protocol::ChainFd, vec![1; 32]), Some(&keys))
        .to_json();
    wire_and_spec_probes(&mut sheet, seed, &heavy_report);
    runner_probes(&mut sheet, &heavy, &keys);
    drop((heavy, keys));
    let cold = replay(Workload::ColdKeydist, None)?;
    if workload == Workload::ColdCrypto {
        replay(workload, None)?;
    }

    // From here on the process is multi-threaded.
    service_churn_probes(&mut sheet, seed);
    let registry = spawn_registry()?;
    deploy_probes(&mut sheet, seed, &registry)?;
    let cluster = replay(Workload::ClusterChaos, Some(&registry))?;
    let warm = replay(Workload::ServeWarm, None)?;
    if workload == Workload::ServeHeavy {
        replay(workload, None)?;
    }
    sheet.put("service.submit_overhead_us", p50(&warm.submit_overhead_us));
    let cluster_ms = p50(&cluster.plain_ms);
    sheet.put("deploy.inproc_cluster_n8_ms", cluster_ms);
    sheet.put(
        "bench.trace_overhead_pct",
        trace_overhead_pct.expect("the requested workload was replayed"),
    );

    // A short end-to-end leg of every workload through the real binary.
    let ctx = Ctx::new(lafd)?;
    let mut attempted = 0;
    let mut failed = 0;
    let mut first_failure = None;
    let mut legs = Vec::new();
    for w in Workload::ALL {
        let e2e = workload::run_e2e(&ctx, w, seed, Limit::Cycles(leg_cycles(w)))?;
        attempted += e2e.attempted;
        failed += e2e.failed;
        first_failure = first_failure.or_else(|| e2e.first_failure.clone());
        legs.push(e2e);
    }
    let leg = |w: Workload| &legs[Workload::ALL.iter().position(|x| *x == w).expect("listed")];
    sheet.put("bench.loadgen_busy_pct", leg(workload).loadgen_busy_pct);

    for (w, exec_row, front_row, reuse_row) in [
        (
            Workload::ServeWarm,
            "service.warm_exec_p50_us",
            "service.warm_front_p50_us",
            "service.warm_keydist_reuse_pct",
        ),
        (
            Workload::ServeHeavy,
            "service.heavy_exec_p50_us",
            "service.heavy_front_p50_us",
            "service.heavy_keydist_reuse_pct",
        ),
    ] {
        let (front, exec) = front_and_exec_p50_us(leg(w));
        sheet.put(exec_row, exec);
        sheet.put(front_row, front);
        let counters = leg(w).service.expect("serve legs carry counters");
        sheet.put(reuse_row, counters.keydist_reuse_pct);
    }
    let counters =
        [Workload::ServeWarm, Workload::ServeHeavy].map(|w| leg(w).service.expect("serve"));
    sheet.put(
        "service.evictions",
        counters.iter().map(|c| c.evictions).sum(),
    );
    sheet.put(
        "service.queue_peak",
        counters.iter().map(|c| c.queue_peak).fold(0.0, f64::max),
    );

    // What the process boundary adds: the real binary's clean op minus its
    // in-process replica; and what recovery adds to a clean cluster op.
    let class_p50 = |e2e: &E2e, chaos: bool| {
        let class: Vec<f64> = e2e
            .samples
            .iter()
            .filter(|s| (s.pos == gen::SLOW_POS) == chaos)
            .map(|s| s.ms)
            .collect();
        p50(&class)
    };
    let chaos_leg = leg(Workload::ClusterChaos);
    let clean_ms = class_p50(chaos_leg, false);
    sheet.put("lafd.cluster_spawn_ms", clean_ms - cluster_ms);
    sheet.put(
        "lafd.run_process_ms",
        p50(&leg(Workload::ColdKeydist).latencies_ms()) - p50(&cold.plain_ms),
    );
    sheet.put(
        "deploy.recover_kill_round_ms",
        class_p50(chaos_leg, true) - clean_ms,
    );
    let killed = workload::cluster_op_killed_at(&ctx, seed, "keydist")?;
    sheet.put(
        "deploy.recover_kill_keydist_ms",
        killed.as_secs_f64() * 1e3 - clean_ms,
    );

    // Every declared row, in declared order.
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _)| {
            sheet
                .rows
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .ok_or_else(|| format!("traced pass did not measure {name}"))
        })
        .collect::<Result<Vec<Metric>, String>>()?;
    Ok(Traced {
        metrics,
        spans: kept.spans().to_vec(),
        attempted,
        failed,
        first_failure,
    })
}
