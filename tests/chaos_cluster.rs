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
//! 4. more dead workers than `t` fail loudly with a nonzero exit.

use local_auth_fd::core::adversary::AdversarySpec;
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::sweep::AdversaryKind;
use local_auth_fd::simnet::NodeId;
use std::process::Command;

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
    // kill=1@round:1 (times = 1): the victim dies once, the supervisor
    // relaunches the generation, and the retried run is clean.
    let (stdout, stderr, code) = run_chaos_cluster(&["--chaos", "seed=7;kill=1@round:1"]);
    assert_eq!(code, Some(0), "recovered run must exit 0: {stderr}");
    assert_eq!(
        stdout.lines().last().unwrap_or_default(),
        fault_free,
        "a recovered run must report byte-identical to the fault-free run"
    );
    assert!(
        stdout.contains("generations=2"),
        "recovery must take exactly one restart generation, stdout: {stdout}"
    );
    assert!(
        stdout.contains("degraded=false"),
        "a recovered run is not degraded, stdout: {stdout}"
    );
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

/// `lafd chaos` emits its report through the wire JSON encoder, so a
/// campaign name with a control character still yields a parseable
/// `lafd-chaos-report-v1` document as the last stdout line.
#[test]
fn the_chaos_report_is_valid_json_even_for_awkward_campaign_names() {
    use local_auth_fd::core::wire::Value;

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
