//! Integration tests for the sharded session service behind `lafd serve`.
//!
//! These assert the PR's acceptance economics end to end: a 200-run
//! mixed-protocol batch on a 2-shard service performs **exactly two** key
//! distributions (one per `(n, scheme, seed)` session universe), every
//! response report is byte-identical to the same `RunSpec` executed via a
//! direct `Cluster::run`, concurrent clients never duplicate keydist
//! work, and shutdown drains cleanly with consistent final metrics.

use local_auth_fd::core::service::{FdService, ServiceConfig};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire::{self, Value};
use std::io::Write;
use std::process::{Command, Stdio};

/// The five-protocol mix the batch cycles through. Four need keys; the
/// non-authenticated FD rides along key-free, so a correct pool pays for
/// keydist on first keyed use only.
const MIX: [Protocol; 5] = [
    Protocol::ChainFd,
    Protocol::FdToBa,
    Protocol::NonAuthFd,
    Protocol::Degradable,
    Protocol::DolevStrong,
];

/// A second cluster size that routes to the *other* shard of a 2-shard
/// service (so the batch exercises both workers).
fn partner_n(service: &FdService, n_a: usize) -> usize {
    let home = service.shard_of(n_a, "tiny");
    (5..=16)
        .find(|&n| n != n_a && service.shard_of(n, "tiny") != home)
        .expect("some n in 5..=16 routes to the other shard")
}

fn builder_for(i: usize, n_a: usize, n_b: usize) -> SpecBuilder {
    let n = if i.is_multiple_of(2) { n_a } else { n_b };
    SpecBuilder::new(MIX[i % MIX.len()], n)
        .with_seed(5)
        .with_input(format!("value-{i}").into_bytes())
}

#[test]
fn two_hundred_mixed_runs_on_two_shards_pay_exactly_two_keydists() {
    let service = FdService::start(ServiceConfig {
        shards: 2,
        max_sessions: 8,
    });
    let n_a = 6;
    let n_b = partner_n(&service, n_a);
    let builders: Vec<SpecBuilder> = (0..200).map(|i| builder_for(i, n_a, n_b)).collect();
    let lines: Vec<String> = builders
        .iter()
        .enumerate()
        .map(|(i, b)| wire::request_to_json(b, Some(&format!("req-{i}"))).unwrap())
        .collect();

    // Eight parallel clients against the two shards.
    let responses = service.submit_batch(&lines, 8);
    assert_eq!(responses.len(), 200);

    let mut fresh_keydists = 0usize;
    for (i, line) in responses.iter().enumerate() {
        let response = wire::response_from_json(line)
            .unwrap_or_else(|e| panic!("response {i} unparseable: {e}\n{line}"));
        assert_eq!(response.id.as_deref(), Some(format!("req-{i}").as_str()));
        assert!(response.report.is_ok(), "request {i} failed");
        // Key economics: only keyed protocols carry keydist metadata, and
        // only the first keyed run per session universe pays for it.
        let needs_keys = MIX[i % MIX.len()].needs_keys();
        assert_eq!(response.keydist_messages.is_some(), needs_keys);
        if needs_keys && !response.keydist_reused {
            fresh_keydists += 1;
        }
        // Byte-identity: the pooled-session path must be invisible in the
        // report bytes relative to a direct one-shot `Cluster::run`.
        let (cluster, spec) = builders[i].build().unwrap();
        assert_eq!(
            response.report_json,
            cluster.run(&spec).to_json(),
            "request {i} ({}) diverged from the direct path",
            MIX[i % MIX.len()]
        );
    }
    assert_eq!(
        fresh_keydists, 2,
        "two session universes -> exactly two keydist setups"
    );

    let metrics = Value::parse(&service.shutdown()).unwrap();
    let svc = metrics.get("service").unwrap();
    assert_eq!(svc.get("shards").unwrap().as_int(), Some(2));
    assert_eq!(svc.get("runs").unwrap().as_int(), Some(200));
    assert_eq!(svc.get("errors").unwrap().as_int(), Some(0));
    assert_eq!(svc.get("keydist_runs").unwrap().as_int(), Some(2));
    // 4 of 5 protocols are keyed: 160 keyed runs, 2 warm-ups, 158 reuses.
    assert_eq!(svc.get("keydist_reused").unwrap().as_int(), Some(158));
    assert_eq!(svc.get("keydist_reuse_pct").unwrap().as_int(), Some(98));
    assert_eq!(svc.get("evictions").unwrap().as_int(), Some(0));
    assert!(svc.get("p50_us").unwrap().as_int().unwrap() > 0);
    assert!(svc.get("p99_us").unwrap().as_int().unwrap() > 0);
    // The per-cell rows stay bench-shaped and account for every run.
    let rows = metrics.get("results").unwrap().as_arr().unwrap();
    let total: i128 = rows
        .iter()
        .map(|row| row.get("runs").unwrap().as_int().unwrap())
        .sum();
    assert_eq!(total, 200);
}

#[test]
fn racing_clients_never_duplicate_the_keydist() {
    let service = FdService::start(ServiceConfig {
        shards: 2,
        max_sessions: 8,
    });
    // Eight clients race 5 requests each into the *same* session
    // universe; shard serialization must warm exactly one keydist.
    std::thread::scope(|scope| {
        for client in 0..8 {
            let service = &service;
            scope.spawn(move || {
                for k in 0..5 {
                    let line = wire::request_to_json(
                        &SpecBuilder::new(Protocol::ChainFd, 6)
                            .with_seed(9)
                            .with_input(vec![client as u8, k as u8]),
                        Some(&format!("c{client}-{k}")),
                    )
                    .unwrap();
                    let response = wire::response_from_json(&service.submit_line(&line)).unwrap();
                    assert_eq!(
                        response.id.as_deref(),
                        Some(format!("c{client}-{k}").as_str())
                    );
                    assert!(response
                        .report
                        .unwrap()
                        .all_decided(&[client as u8, k as u8]));
                }
            });
        }
        // Live metrics snapshot while clients are in flight must parse.
        let live = Value::parse(&service.metrics_json()).unwrap();
        assert!(live
            .get("service")
            .unwrap()
            .get("runs")
            .unwrap()
            .as_int()
            .is_some());
    });
    let metrics = Value::parse(&service.shutdown()).unwrap();
    let svc = metrics.get("service").unwrap();
    assert_eq!(svc.get("runs").unwrap().as_int(), Some(40));
    assert_eq!(svc.get("errors").unwrap().as_int(), Some(0));
    assert_eq!(svc.get("keydist_runs").unwrap().as_int(), Some(1));
    assert_eq!(svc.get("keydist_reused").unwrap().as_int(), Some(39));
}

#[test]
fn shutdown_drains_queued_work_and_reports_every_run() {
    let service = FdService::start(ServiceConfig {
        shards: 2,
        max_sessions: 4,
    });
    // Saturate both shards from more clients than workers, then drain.
    let lines: Vec<String> = (0..60)
        .map(|i| wire::request_to_json(&builder_for(i, 5, 6), Some(&format!("d{i}"))).unwrap())
        .collect();
    let responses = service.submit_batch(&lines, 12);
    for (i, line) in responses.iter().enumerate() {
        let response = wire::response_from_json(line).unwrap();
        assert!(
            response.report.is_ok(),
            "request {i} failed during drain test"
        );
    }
    let metrics = Value::parse(&service.shutdown()).unwrap();
    let svc = metrics.get("service").unwrap();
    assert_eq!(
        svc.get("runs").unwrap().as_int(),
        Some(60),
        "drain lost runs"
    );
    assert_eq!(svc.get("errors").unwrap().as_int(), Some(0));
}

/// End-to-end CLI check: `lafd serve --stdin` over a 50-spec batch writes
/// ordered responses to stdout and a parseable metrics artifact.
#[test]
fn serve_stdin_batch_cli_round_trip() {
    let metrics_path =
        std::env::temp_dir().join(format!("lafd-serve-metrics-{}.json", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args([
            "serve",
            "--stdin",
            "--shards",
            "2",
            "--clients",
            "4",
            "--metrics",
        ])
        .arg(&metrics_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lafd serve");
    {
        let stdin = child.stdin.as_mut().unwrap();
        for i in 0..50 {
            let line =
                wire::request_to_json(&builder_for(i, 5, 6), Some(&format!("cli-{i}"))).unwrap();
            writeln!(stdin, "{line}").unwrap();
        }
    }
    let output = child.wait_with_output().expect("lafd serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let responses: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(responses.len(), 50);
    for (i, line) in responses.iter().enumerate() {
        let response = wire::response_from_json(line).unwrap();
        assert_eq!(response.id.as_deref(), Some(format!("cli-{i}").as_str()));
        assert!(response.report.is_ok(), "cli request {i} failed");
    }
    let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics artifact written");
    let metrics = Value::parse(&metrics_text).unwrap();
    let svc = metrics.get("service").unwrap();
    assert_eq!(svc.get("runs").unwrap().as_int(), Some(50));
    assert_eq!(svc.get("errors").unwrap().as_int(), Some(0));
    assert_eq!(svc.get("keydist_runs").unwrap().as_int(), Some(2));
    assert!(svc.get("runs_per_sec").unwrap().as_int().unwrap() > 0);
    let _ = std::fs::remove_file(&metrics_path);
}

/// A stdin line the framing layer refuses (longer than the 1 MiB cap, or
/// not UTF-8) is answered with an error response in its place; the lines
/// around it run normally and the oversized bytes are never held.
#[test]
fn serve_stdin_answers_unframeable_lines_in_place() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(["serve", "--stdin", "--shards", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn lafd serve");
    let request = |i: usize| wire::request_to_json(&builder_for(i, 5, 6), None).unwrap();
    let mut input = format!("{}\n", request(0)).into_bytes();
    input.extend(std::iter::repeat_n(b'x', (1 << 20) + 4096));
    input.extend(format!("\n{}\n", request(1)).as_bytes());
    input.extend(b"\xff\xfe\n");
    input.extend(format!("{}\n", request(2)).as_bytes());
    // Batch mode answers only after reading everything, so this write
    // cannot block on the child's output.
    child.stdin.take().unwrap().write_all(&input).unwrap();
    let output = child.wait_with_output().expect("lafd serve exits");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let outcomes: Vec<Result<(), String>> = stdout
        .lines()
        .map(|line| wire::response_from_json(line).unwrap().report.map(|_| ()))
        .collect();
    assert_eq!(outcomes.len(), 5, "{stdout}");
    assert_eq!(outcomes[0], Ok(()));
    assert!(outcomes[1]
        .as_ref()
        .unwrap_err()
        .contains("exceeds 1048576 bytes"));
    assert_eq!(outcomes[2], Ok(()));
    assert!(outcomes[3].as_ref().unwrap_err().contains("not UTF-8"));
    assert_eq!(outcomes[4], Ok(()));
}
