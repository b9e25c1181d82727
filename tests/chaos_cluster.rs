//! Acceptance tests for the chaos-hardened cluster: deterministic fault
//! injection, retry-driven recovery, and supervised restart with
//! fencing. The contract under test:
//!
//! 1. the injection trace is a pure function of `(chaos seed, node,
//!    incarnation)` — same seed, same trace;
//! 2. kills within the restart budget recover to a report
//!    **byte-identical** to the fault-free in-process run;
//! 3. a worker dead past its budget (but within `t`) degrades the run to
//!    crash-adversary semantics — exit code 2, report byte-identical to
//!    the in-process `silent:I` scripted run;
//! 4. more dead workers than `t` fail loudly with a nonzero exit;
//! 5. `lafd chaos` reports the same campaigns on an external registry as
//!    on a private one.

use local_auth_fd::core::adversary::AdversarySpec;
use local_auth_fd::core::deploy::Registry;
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::sweep::AdversaryKind;
use local_auth_fd::core::wire::Value;
use local_auth_fd::simnet::NodeId;
use std::process::Command;
use std::time::{Duration, Instant};

const SEED: u64 = 23;

/// The builder `lafd cluster chain -n 4 --seed 23` constructs (the
/// defaults of `parse_cluster`).
fn cluster_builder(n: usize) -> SpecBuilder {
    SpecBuilder::new(Protocol::ChainFd, n)
        .with_seed(SEED)
        .with_input(b"attack at dawn".to_vec())
        .with_default_value(b"default".to_vec())
}

/// Run `lafd cluster chain -n 4` with the given extra args and return
/// (full stdout, full stderr, exit code).
fn run_chaos_cluster(extra: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args([
            "cluster",
            "chain",
            "-n",
            "4",
            "--seed",
            &SEED.to_string(),
            "--io-deadline-secs",
            "10",
        ])
        .args(extra)
        .output()
        .expect("spawn lafd cluster");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.code(),
    )
}

/// Collect every chaos trace line from a run's stderr, sorted. The trace
/// lines of n processes interleave nondeterministically on the shared
/// stderr pipe, but the *set* of lines is the determinism contract.
fn sorted_trace(stderr: &str) -> Vec<String> {
    let mut lines: Vec<String> = stderr
        .lines()
        .filter(|l| l.starts_with("chaos["))
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

#[test]
fn identical_seeds_produce_identical_injection_traces_and_reports() {
    let spec = "seed=5;connect=25;reset=15;accept-delay=30:2;stall=30:2";
    let (out_a, err_a, code_a) = run_chaos_cluster(&["--chaos", spec]);
    let (out_b, err_b, code_b) = run_chaos_cluster(&["--chaos", spec]);
    assert_eq!(code_a, Some(0), "first noise run failed: {err_a}");
    assert_eq!(code_b, Some(0), "second noise run failed: {err_b}");
    let trace_a = sorted_trace(&err_a);
    let trace_b = sorted_trace(&err_b);
    assert!(
        !trace_a.is_empty(),
        "a 25/15/30/30 noise campaign must inject at least one fault"
    );
    assert_eq!(
        trace_a, trace_b,
        "the same chaos seed must produce the same injection trace"
    );
    assert_eq!(
        out_a.lines().last(),
        out_b.lines().last(),
        "identically-seeded runs must emit byte-identical reports"
    );
}

#[test]
fn a_transient_kill_within_the_budget_recovers_byte_identical_to_fault_free() {
    let (cluster, spec) = cluster_builder(4).build().expect("valid spec");
    let fault_free = cluster.run(&spec).to_json();
    // kill=1@PHASE (times = 1): the victim dies once, the supervisor
    // stops the generation and relaunches it, and the retried run is
    // clean. No phase waits out a timer, so each recovers well inside the
    // 10 s I/O deadline.
    for phase in ["keydist", "round:1", "teardown"] {
        let started = Instant::now();
        let chaos = format!("seed=7;kill=1@{phase}");
        let (stdout, stderr, code) = run_chaos_cluster(&["--chaos", &chaos]);
        let took = started.elapsed();
        assert_eq!(
            code,
            Some(0),
            "{chaos}: recovered run must exit 0: {stderr}"
        );
        assert_eq!(
            stdout.lines().last().unwrap_or_default(),
            fault_free,
            "{chaos}: a recovered run must report byte-identical to the fault-free run"
        );
        assert!(
            stdout.contains("generations=2"),
            "{chaos}: recovery must take exactly one restart generation, stdout: {stdout}"
        );
        assert!(
            stdout.contains("degraded=false"),
            "{chaos}: a recovered run is not degraded, stdout: {stdout}"
        );
        assert!(
            took < Duration::from_secs(2),
            "{chaos}: recovery took {took:?}"
        );
    }
}

#[test]
fn a_worker_dead_past_its_budget_degrades_to_crash_adversary_parity() {
    // The degraded reference: the same spec run in-process with node 1
    // scripted as a silent-relay crash — exactly `--crash 1`.
    let (cluster, spec) = cluster_builder(4)
        .with_t(1)
        .with_adversary(AdversarySpec::scripted_at(
            AdversaryKind::SilentRelay,
            vec![NodeId(1)],
        ))
        .build()
        .expect("valid spec");
    let degraded_reference = cluster.run(&spec).to_json();
    // kill=1@round:1xinf: node 1 dies on every incarnation, exhausts its
    // restart budget, and t = 1 admits the degradation.
    let (stdout, stderr, code) =
        run_chaos_cluster(&["--t", "1", "--chaos", "seed=7;kill=1@round:1xinf"]);
    assert_eq!(
        code,
        Some(2),
        "a degraded run must exit 2, stderr: {stderr}"
    );
    assert_eq!(
        stdout.lines().last().unwrap_or_default(),
        degraded_reference,
        "a degraded run must report byte-identical to the in-process silent:1 run"
    );
    assert!(
        stdout.contains("dead=[1]") && stdout.contains("degraded=true"),
        "the resilience line must name the dead slot, stdout: {stdout}"
    );
}

#[test]
fn more_dead_workers_than_t_fail_loudly_with_a_nonzero_exit() {
    let (_, stderr, code) = run_chaos_cluster(&[
        "--t",
        "1",
        "--chaos",
        "seed=7;kill=0@round:1xinf;kill=1@round:1xinf",
    ]);
    assert_eq!(
        code,
        Some(1),
        "two dead workers against t = 1 must fail, stderr: {stderr}"
    );
    assert!(
        stderr.contains("aborted"),
        "the failure must be loud on stderr, got: {stderr}"
    );
}

/// The default `lafd chaos chain -n 4 --t 1` matrix with `extra` flags:
/// each campaign's `(name, outcome, generations, dead)`.
fn chaos_rows(extra: &[&str]) -> Vec<(String, String, i128, Vec<i128>)> {
    let out = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(["chaos", "chain", "-n", "4", "--t", "1", "--seed", "23"])
        .args(["--io-deadline-secs", "10"])
        .args(extra)
        .output()
        .expect("spawn lafd chaos");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "lafd chaos {extra:?}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = Value::parse(stdout.lines().last().unwrap_or_default()).expect("a JSON report");
    let rows = doc.get("campaigns").and_then(Value::as_arr).expect("rows");
    rows.iter()
        .map(|row| {
            let field = |key: &str| row.get(key).expect("campaign field");
            let dead = field("dead").as_arr().expect("dead slots");
            (
                field("name").as_str().expect("name").to_string(),
                field("outcome").as_str().expect("outcome").to_string(),
                field("generations").as_int().expect("generations"),
                dead.iter().filter_map(Value::as_int).collect(),
            )
        })
        .collect()
}

/// Every campaign of one `lafd chaos` runs under its own run id, so on a
/// shared external registry no campaign meets an earlier one's roster or
/// generation; and a failed campaign still reports what it ran.
#[test]
fn chaos_campaigns_on_an_external_registry_match_a_private_registry() {
    let registry = Registry::bind("127.0.0.1:0")
        .expect("bind registry")
        .with_wait_limit(Duration::from_secs(10));
    let addr = registry.local_addr().to_string();
    std::thread::spawn(move || registry.serve());
    let private = chaos_rows(&[]);
    let external = chaos_rows(&["--registry", &addr]);
    assert_eq!(external, private);
    let beyond_t = private.last().expect("kill-beyond-t row");
    assert_eq!(
        (&beyond_t.0[..], &beyond_t.1[..], beyond_t.3.len()),
        ("kill-beyond-t", "failed", 2)
    );
    assert!(
        beyond_t.2 >= 1,
        "a failed campaign ran generations: {beyond_t:?}"
    );
}

/// `lafd chaos` emits its report through the wire JSON encoder, so a
/// campaign name with a control character still yields a parseable
/// `lafd-chaos-report-v1` document as the last stdout line.
#[test]
fn the_chaos_report_is_valid_json_even_for_awkward_campaign_names() {
    let name = "noisy\tname";
    let out = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(["chaos", "chain", "-n", "4", "--t", "1", "--campaign"])
        .arg(format!("{name}=seed=7;connect=10"))
        .output()
        .expect("spawn lafd chaos");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "lafd chaos failed: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a report line");
    let doc = Value::parse(last).unwrap_or_else(|e| panic!("report is not JSON ({e}): {last}"));
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("lafd-chaos-report-v1")
    );
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
    let campaigns = doc.get("campaigns").and_then(Value::as_arr).expect("rows");
    assert_eq!(campaigns.len(), 1);
    assert_eq!(campaigns[0].get("name").and_then(Value::as_str), Some(name));
    assert_eq!(
        campaigns[0].get("outcome").and_then(Value::as_str),
        Some("recovered")
    );
}
