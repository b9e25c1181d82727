//! Cross-validation of the deployment layer: `lafd cluster` runs one OS
//! process per node over the discovery registry and the non-blocking
//! socket mesh, and its report (the last stdout line) must be
//! **byte-identical** to the same `RunSpec` executed in-process by the
//! reference engine. A vanished worker must fail the supervised run
//! loudly, never hang it.

use local_auth_fd::core::deploy::{self, ClusterConfig};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SEED: u64 = 23;

/// The builder `lafd cluster <proto> -n N --seed SEED` constructs (the
/// defaults of `parse_cluster`: input "attack at dawn", default value
/// "default").
fn cluster_builder(protocol: Protocol, n: usize) -> SpecBuilder {
    SpecBuilder::new(protocol, n)
        .with_seed(SEED)
        .with_input(b"attack at dawn".to_vec())
        .with_default_value(b"default".to_vec())
}

/// Run `lafd cluster` and return (last stdout line, full stderr, success).
fn run_cluster(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .arg("cluster")
        .args(args)
        .output()
        .expect("spawn lafd cluster");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (last, stderr, out.status.success())
}

fn assert_cluster_matches_sync_engine(protocol: Protocol, proto_flag: &str, n: usize) {
    let (cluster, spec) = cluster_builder(protocol, n).build().expect("valid spec");
    let expected = cluster.run(&spec).to_json();
    let (last, stderr, ok) = run_cluster(&[
        proto_flag,
        "-n",
        &n.to_string(),
        "--seed",
        &SEED.to_string(),
        "--io-deadline-secs",
        "30",
    ]);
    assert!(ok, "lafd cluster {proto_flag} -n {n} failed: {stderr}");
    assert_eq!(
        last, expected,
        "multi-process report for {proto_flag} n = {n} diverged from the sync engine"
    );
}

#[test]
fn chain_fd_cluster_reports_are_byte_identical_to_the_sync_engine() {
    for n in [4, 7] {
        assert_cluster_matches_sync_engine(Protocol::ChainFd, "chain", n);
    }
}

#[test]
fn dolev_strong_cluster_reports_are_byte_identical_to_the_sync_engine() {
    for n in [4, 7] {
        assert_cluster_matches_sync_engine(Protocol::DolevStrong, "ds", n);
    }
}

#[test]
fn latency_shim_stretches_wall_time_without_changing_the_report() {
    // The delay shim scales event-engine latency ticks onto the socket
    // mesh's wall clock; the protocol-visible round structure (and hence
    // the report) must stay exactly the synchronous one.
    let (cluster, spec) = cluster_builder(Protocol::ChainFd, 4)
        .build()
        .expect("valid spec");
    let expected = cluster.run(&spec).to_json();
    let (last, stderr, ok) = run_cluster(&[
        "chain",
        "-n",
        "4",
        "--seed",
        &SEED.to_string(),
        "--latency",
        "jitter:2",
        "--round-wall-us",
        "1000",
        "--io-deadline-secs",
        "30",
    ]);
    assert!(ok, "shimmed cluster run failed: {stderr}");
    assert_eq!(last, expected, "the delay shim must not alter the report");
}

#[test]
fn crash_adversary_flows_through_the_cluster_path() {
    let builder = cluster_builder(Protocol::FdToBa, 4).with_adversary(
        local_auth_fd::core::adversary::AdversarySpec::scripted_at(
            local_auth_fd::core::sweep::AdversaryKind::SilentRelay,
            vec![local_auth_fd::simnet::NodeId(1)],
        ),
    );
    let (cluster, spec) = builder.build().expect("valid spec");
    let expected = cluster.run(&spec).to_json();
    let (last, stderr, ok) = run_cluster(&[
        "ba",
        "-n",
        "4",
        "--seed",
        &SEED.to_string(),
        "--crash",
        "1",
        "--io-deadline-secs",
        "30",
    ]);
    assert!(ok, "cluster run with --crash failed: {stderr}");
    assert_eq!(last, expected);
}

#[test]
fn out_of_range_io_deadlines_are_refused_before_anything_spawns() {
    for secs in ["0", "18446744073709551615"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lafd"))
            .args(["cluster", "chain", "-n", "4", "--io-deadline-secs", secs])
            .output()
            .expect("spawn lafd cluster");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "--io-deadline-secs {secs}: {stderr}"
        );
        assert!(
            stderr.contains("error: --io-deadline-secs"),
            "the error must name the flag, got: {stderr}"
        );
        assert!(
            !stdout.contains("worker processes launched"),
            "nothing may be spawned for --io-deadline-secs {secs}, stdout: {stdout}"
        );
    }
}

/// A stand-in for the `lafd` binary: started as worker `--node 2` it
/// exits 43 before registering; otherwise it runs `lafd`.
fn lafd_with_node_2_dying() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lafd-node-2-dies-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the wrapper's directory");
    let path = dir.join("lafd");
    let script = format!(
        "#!/bin/sh\nprev=\nfor arg in \"$@\"; do\n  \
         if [ \"$prev\" = --node ] && [ \"$arg\" = 2 ]; then exit 43; fi\n  \
         prev=$arg\ndone\nexec '{}' \"$@\"\n",
        env!("CARGO_BIN_EXE_lafd")
    );
    // A child shell writes the script, so no writable descriptor of this
    // process can leak into a sibling test's fork and fail the exec with
    // "text file busy".
    let mut sh = Command::new("sh")
        .args(["-c", "cat > \"$0\" && chmod 755 \"$0\""])
        .arg(&path)
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn sh");
    let mut stdin = sh.stdin.take().expect("piped stdin");
    stdin
        .write_all(script.as_bytes())
        .expect("write the wrapper");
    drop(stdin);
    assert!(sh.wait().expect("sh exits").success(), "writing {path:?}");
    path
}

#[test]
fn a_killed_worker_fails_loudly_with_a_nonzero_exit() {
    let cfg = ClusterConfig {
        io_deadline: Duration::from_secs(10),
        ..ClusterConfig::default()
    };
    let exe = lafd_with_node_2_dying();
    let started = Instant::now();
    let supervised = deploy::supervise(
        &exe,
        &cluster_builder(Protocol::ChainFd, 4),
        &cfg,
        &mut std::io::sink(),
    );
    let _ = std::fs::remove_dir_all(exe.parent().expect("the wrapper's directory"));
    let aborted = supervised.expect_err("a vanished worker must fail the run");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the failure took {:?}",
        started.elapsed()
    );
    assert_eq!(
        aborted.error, "worker 2 crashed again after degradation",
        "the error must name the vanished worker"
    );
    // Crash, crash past the budget (degrade, t = 1), crash again.
    let res = &aborted.resilience;
    assert_eq!(
        (res.generations, &res.dead[..], res.degraded),
        (3, &[2][..], true)
    );
}

/// Sibling workers share the supervisor's stderr pipe, and a worker's
/// failure line is one write: over ten restarted runs, every line naming
/// a cluster worker is whole, with its `error: cluster worker N: ` prefix
/// exactly once.
#[test]
fn worker_failure_lines_never_tear() {
    let args = [
        "chain",
        "-n",
        "8",
        "--t",
        "2",
        "--seed",
        "5",
        "--chaos",
        "seed=5;kill=3@round:1",
    ];
    for _ in 0..10 {
        let (_, stderr, ok) = run_cluster(&args);
        assert!(ok, "the killed worker's restart recovers: {stderr}");
        let lines: Vec<&str> = stderr
            .lines()
            .filter(|line| line.contains("cluster worker"))
            .collect();
        assert!(!lines.is_empty(), "the kill leaves failure lines: {stderr}");
        for line in lines {
            let rest = line.strip_prefix("error: cluster worker ").unwrap_or("");
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            assert!(
                digits > 0 && rest[digits..].starts_with(": "),
                "torn line: {line:?}"
            );
            assert_eq!(
                line.matches("error: cluster worker ").count(),
                1,
                "torn line: {line:?}"
            );
        }
    }
}
