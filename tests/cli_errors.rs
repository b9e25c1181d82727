//! The `lafd` command-line contract for refused command lines: every
//! reader error the binary can give, pinned by its exact text. Each line
//! of [`CASES`] runs the built binary and must exit 1 with the expected
//! `error: ...` as the first stderr line. The lines fail while flags are
//! read, so nothing is bound, spawned or run. A reader that closes
//! stdout early is not an error either: the report ends quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// `(command line, first stderr line without its "error: " prefix)`.
/// Arguments are split on whitespace.
const CASES: &[(&str, &str)] = &[
    // The dispatcher.
    ("nosuch", "unknown command nosuch"),
    // `lafd run`: the shape flags, the engine, link latency, trace outputs, each field of each
    // link-fault flag, the fault-node and `--crash` checks, the engine rule and the builder's own
    // validation.
    (
        "run",
        "run needs a protocol (chain|nonauth|small|ba|degrade|ds|king) or --spec FILE",
    ),
    (
        "run --spec",
        "--spec takes exactly one file path and no other flags",
    ),
    (
        "run --spec a.json b.json",
        "--spec takes exactly one file path and no other flags",
    ),
    (
        "run nosuch",
        "unknown protocol nosuch (chain|nonauth|small|ba|degrade|ds|king)",
    ),
    ("run chain --bogus", "unknown run flag --bogus"),
    ("run chain -n", "flag -n needs a value"),
    ("run chain --n", "flag --n needs a value"),
    ("run chain -n x", "--n: invalid digit found in string"),
    ("run chain --t", "flag --t needs a value"),
    ("run chain --t x", "--t: invalid digit found in string"),
    ("run chain --seed", "flag --seed needs a value"),
    (
        "run chain --seed x",
        "--seed: invalid digit found in string",
    ),
    ("run chain --scheme", "flag --scheme needs a value"),
    (
        "run chain --scheme bogus",
        "unknown scheme bogus (tiny|dsa-tiny|s512|s1024|s2048|dsa512|dsa1024|rsa512|rsa1024)",
    ),
    ("run chain --value", "flag --value needs a value"),
    ("run chain --latency", "flag --latency needs a value"),
    (
        "run chain --latency bogus",
        "unknown latency bogus (sync|fixed:D|jitter:E|psync:GST:E)",
    ),
    (
        "run chain --latency fixed:0",
        "latency fixed:0: rounds must be >= 1",
    ),
    ("run chain --adversary", "flag --adversary needs a value"),
    (
        "run chain --adversary bogus",
        "unknown adversary bogus (none|silent|crash|tamper|forge|wrongname|equivocate)",
    ),
    (
        "run chain --adversary none:1",
        "adversary none takes no node list",
    ),
    ("run chain --crash", "flag --crash needs a value"),
    (
        "run chain --crash x",
        "--crash: invalid digit found in string",
    ),
    ("run chain --engine", "flag --engine needs a value"),
    (
        "run chain --engine bogus",
        "unknown engine bogus (sync|event)",
    ),
    (
        "run chain --link-latency",
        "flag --link-latency needs a value",
    ),
    (
        "run chain --link-latency bogus",
        "link latency bogus: from: invalid digit found in string",
    ),
    ("run chain --trace", "flag --trace needs a value"),
    (
        "run chain --trace-folded",
        "flag --trace-folded needs a value",
    ),
    ("run chain --drop", "flag --drop needs a value"),
    (
        "run chain --drop 0:1",
        "fault spec 0:1: expected 3 colon-separated fields",
    ),
    (
        "run chain --drop x:0:1",
        "fault spec x:0:1: round: invalid digit found in string",
    ),
    (
        "run chain --drop 4294967296:0:1",
        "fault spec 4294967296:0:1: round 4294967296 exceeds the round range",
    ),
    (
        "run chain --drop 0:x:1",
        "fault spec 0:x:1: from: invalid digit found in string",
    ),
    (
        "run chain --drop 0:70000:1",
        "fault spec 0:70000:1: from 70000 exceeds the node-id range",
    ),
    (
        "run chain --drop 0:0:x",
        "fault spec 0:0:x: to: invalid digit found in string",
    ),
    (
        "run chain --drop 0:0:70000",
        "fault spec 0:0:70000: to 70000 exceeds the node-id range",
    ),
    (
        "run chain --drop 0:0:7",
        "fault spec references node P7 but n = 7",
    ),
    ("run chain --corrupt", "flag --corrupt needs a value"),
    (
        "run chain --corrupt 0:0:1:0",
        "fault spec 0:0:1:0: expected 5 colon-separated fields",
    ),
    (
        "run chain --corrupt x:0:1:0:1",
        "fault spec x:0:1:0:1: round: invalid digit found in string",
    ),
    (
        "run chain --corrupt 4294967296:0:1:0:1",
        "fault spec 4294967296:0:1:0:1: round 4294967296 exceeds the round range",
    ),
    (
        "run chain --corrupt 0:x:1:0:1",
        "fault spec 0:x:1:0:1: from: invalid digit found in string",
    ),
    (
        "run chain --corrupt 0:70000:1:0:1",
        "fault spec 0:70000:1:0:1: from 70000 exceeds the node-id range",
    ),
    (
        "run chain --corrupt 0:0:x:0:1",
        "fault spec 0:0:x:0:1: to: invalid digit found in string",
    ),
    (
        "run chain --corrupt 0:0:70000:0:1",
        "fault spec 0:0:70000:0:1: to 70000 exceeds the node-id range",
    ),
    (
        "run chain --corrupt 0:0:1:x:1",
        "fault spec 0:0:1:x:1: parameter: invalid digit found in string",
    ),
    (
        "run chain --corrupt 0:0:1:0:x",
        "fault spec 0:0:1:0:x: parameter: invalid digit found in string",
    ),
    (
        "run chain --corrupt 0:0:1:0:256",
        "--corrupt: mask 256 exceeds a byte",
    ),
    (
        "run chain --corrupt 0:9:1:0:1",
        "fault spec references node P9 but n = 7",
    ),
    ("run chain --delay", "flag --delay needs a value"),
    (
        "run chain --delay 0:0:1",
        "fault spec 0:0:1: expected 4 colon-separated fields",
    ),
    (
        "run chain --delay x:0:1:1",
        "fault spec x:0:1:1: round: invalid digit found in string",
    ),
    (
        "run chain --delay 4294967296:0:1:1",
        "fault spec 4294967296:0:1:1: round 4294967296 exceeds the round range",
    ),
    (
        "run chain --delay 0:x:1:1",
        "fault spec 0:x:1:1: from: invalid digit found in string",
    ),
    (
        "run chain --delay 0:70000:1:1",
        "fault spec 0:70000:1:1: from 70000 exceeds the node-id range",
    ),
    (
        "run chain --delay 0:0:x:1",
        "fault spec 0:0:x:1: to: invalid digit found in string",
    ),
    (
        "run chain --delay 0:0:70000:1",
        "fault spec 0:0:70000:1: to 70000 exceeds the node-id range",
    ),
    (
        "run chain --delay 0:0:1:x",
        "fault spec 0:0:1:x: parameter: invalid digit found in string",
    ),
    (
        "run chain --delay 0:0:1:10001",
        "--delay: 10001 rounds is unreasonably large (max 10000)",
    ),
    (
        "run chain --delay 0:0:1:4294967296",
        "--delay: 4294967296 rounds is unreasonably large (max 10000)",
    ),
    (
        "run chain -n 4 --delay 0:0:4:1",
        "fault spec references node P4 but n = 4",
    ),
    ("run chain --reorder", "flag --reorder needs a value"),
    (
        "run chain --reorder 0:0:1:2",
        "fault spec 0:0:1:2: expected 3 colon-separated fields",
    ),
    (
        "run chain --reorder x:0:1",
        "fault spec x:0:1: round: invalid digit found in string",
    ),
    (
        "run chain --reorder 4294967296:0:1",
        "fault spec 4294967296:0:1: round 4294967296 exceeds the round range",
    ),
    (
        "run chain --reorder 0:x:1",
        "fault spec 0:x:1: from: invalid digit found in string",
    ),
    (
        "run chain --reorder 0:70000:1",
        "fault spec 0:70000:1: from 70000 exceeds the node-id range",
    ),
    (
        "run chain --reorder 0:0:x",
        "fault spec 0:0:x: to: invalid digit found in string",
    ),
    (
        "run chain --reorder 0:0:70000",
        "fault spec 0:0:70000: to 70000 exceeds the node-id range",
    ),
    (
        "run chain --drop 0:0:1 -n 1 --reorder 0:0:1",
        "fault spec references node P1 but n = 1",
    ),
    (
        "run chain --crash 1 --adversary silent",
        "--crash and --adversary cannot be combined",
    ),
    (
        "run chain --adversary silent --crash 1",
        "--crash and --adversary cannot be combined",
    ),
    ("run chain --crash 7", "--crash 7 is out of range for n = 7"),
    (
        "run chain --crash 3 -n 3",
        "--crash 3 is out of range for n = 3",
    ),
    (
        "run chain --engine sync --latency jitter:1",
        "--engine sync cannot express --latency jitter:1; use --engine event",
    ),
    (
        "run chain --latency jitter:1 --engine sync",
        "--engine sync cannot express --latency jitter:1; use --engine event",
    ),
    (
        "run chain --engine sync --link-latency 0:1:fixed:3",
        "--engine sync cannot express --link-latency; use --engine event",
    ),
    (
        "run chain --link-latency 0:9:fixed:3",
        "link latency 0:9:fixed:3 names node 9 outside 0..7",
    ),
    (
        "run ds --adversary tamper",
        "adversary tamper:1 cannot speak protocol dolev_strong",
    ),
    // `lafd serve`: ranges, the metrics format, and the three exclusions.
    ("serve --bogus", "unknown serve flag --bogus"),
    ("serve --shards", "flag --shards needs a value"),
    (
        "serve --shards x",
        "--shards: invalid digit found in string",
    ),
    ("serve --shards 0", "--shards must be in 1..=256"),
    ("serve --shards 257", "--shards must be in 1..=256"),
    (
        "serve --max-sessions x",
        "--max-sessions: invalid digit found in string",
    ),
    (
        "serve --max-sessions 0",
        "--max-sessions must be at least 1",
    ),
    (
        "serve --clients x",
        "--clients: invalid digit found in string",
    ),
    ("serve --clients 0", "--clients must be at least 1"),
    ("serve --listen", "flag --listen needs a value"),
    ("serve --unix", "flag --unix needs a value"),
    ("serve --metrics", "flag --metrics needs a value"),
    (
        "serve --metrics-format",
        "flag --metrics-format needs a value",
    ),
    (
        "serve --metrics-format bogus",
        "unknown metrics format \"bogus\" (expected json or prometheus)",
    ),
    (
        "serve --listen 127.0.0.1:0 --unix /nonexistent/sock",
        "--listen and --unix are mutually exclusive",
    ),
    (
        "serve --stdin --listen 127.0.0.1:0",
        "--stdin does not compose with --listen/--unix",
    ),
    (
        "serve --stdin --unix /nonexistent/sock",
        "--stdin does not compose with --listen/--unix",
    ),
    (
        "serve --clients 2 --listen 127.0.0.1:0",
        "--clients only applies to the stdin batch, not --listen/--unix",
    ),
    (
        "serve --clients 2 --unix /nonexistent/sock",
        "--clients only applies to the stdin batch, not --listen/--unix",
    ),
    // `lafd search`: the shape flags, strategy, budget, threads and outputs.
    (
        "search",
        "search needs a protocol (chain|nonauth|small|ba|degrade|ds|king)",
    ),
    (
        "search nosuch",
        "unknown protocol nosuch (chain|nonauth|small|ba|degrade|ds|king)",
    ),
    ("search chain --bogus", "unknown search flag --bogus"),
    ("search chain -n", "flag -n needs a value"),
    ("search chain -n x", "--n: invalid digit found in string"),
    ("search chain --t x", "--t: invalid digit found in string"),
    (
        "search chain --seed x",
        "--seed: invalid digit found in string",
    ),
    (
        "search chain --scheme bogus",
        "unknown scheme bogus (tiny|dsa-tiny|s512|s1024|s2048|dsa512|dsa1024|rsa512|rsa1024)",
    ),
    (
        "search chain --latency bogus",
        "unknown latency bogus (sync|fixed:D|jitter:E|psync:GST:E)",
    ),
    ("search chain --adversary", "flag --adversary needs a value"),
    (
        "search chain --adversary bogus",
        "unknown adversary bogus (none|silent|crash|tamper|forge|wrongname|equivocate)",
    ),
    ("search chain --strategy", "flag --strategy needs a value"),
    (
        "search chain --strategy bogus",
        "unknown strategy bogus (random|greedy)",
    ),
    ("search chain --budget", "flag --budget needs a value"),
    (
        "search chain --budget x",
        "--budget: invalid digit found in string",
    ),
    ("search chain --budget 0", "--budget must be in 1..=100000"),
    (
        "search chain --budget 100001",
        "--budget must be in 1..=100000",
    ),
    ("search chain --threads", "flag --threads needs a value"),
    (
        "search chain --threads x",
        "--threads: invalid digit found in string",
    ),
    ("search chain --threads 0", "--threads must be at least 1"),
    ("search chain --json", "flag --json needs a value"),
    ("search chain --md", "flag --md needs a value"),
    // `lafd sweep`: each axis, the search axis, threads and outputs, and the five cross-flag
    // refusals.
    ("sweep --bogus", "unknown sweep flag --bogus"),
    ("sweep --protocols", "flag --protocols needs a value"),
    (
        "sweep --protocols bogus",
        "unknown protocol bogus (chain|nonauth|small|ba|degrade|ds|king)",
    ),
    (
        "sweep --protocols ,",
        "--protocols needs at least one entry",
    ),
    ("sweep --sizes x", "--sizes: invalid digit found in string"),
    ("sweep --sizes 1", "--sizes: need n >= 2 (got 1)"),
    (
        "sweep --sizes 70000",
        "--sizes: 70000 exceeds the node-id range",
    ),
    ("sweep --sizes ,", "--sizes needs at least one entry"),
    (
        "sweep --faults x",
        "--faults: invalid digit found in string",
    ),
    ("sweep --faults ,", "--faults needs at least one entry"),
    (
        "sweep --adversaries bogus",
        "unknown adversary bogus (none|silent|crash|tamper|forge|wrongname|equivocate)",
    ),
    (
        "sweep --schemes bogus",
        "unknown scheme bogus (tiny|dsa-tiny|s512|s1024|s2048|dsa512|dsa1024|rsa512|rsa1024)",
    ),
    ("sweep --seeds x", "--seeds: invalid digit found in string"),
    ("sweep --engines bogus", "unknown engine bogus (sync|event)"),
    (
        "sweep --latencies bogus",
        "unknown latency bogus (sync|fixed:D|jitter:E|psync:GST:E)",
    ),
    (
        "sweep --link-latency bogus",
        "link latency bogus: from: invalid digit found in string",
    ),
    ("sweep --search", "flag --search needs a value"),
    (
        "sweep --search x",
        "--search: budget: invalid digit found in string",
    ),
    ("sweep --search 0", "--search budget must be in 1..=10000"),
    (
        "sweep --search 10001",
        "--search budget must be in 1..=10000",
    ),
    (
        "sweep --search 5:bogus",
        "unknown strategy bogus (random|greedy)",
    ),
    ("sweep --threads", "flag --threads needs a value"),
    (
        "sweep --threads x",
        "--threads: invalid digit found in string",
    ),
    ("sweep --threads 0", "--threads must be at least 1"),
    ("sweep --json", "flag --json needs a value"),
    ("sweep --md", "flag --md needs a value"),
    ("sweep --remote", "flag --remote needs a value"),
    (
        "sweep --remote 127.0.0.1:9 --search 5",
        "--remote does not compose with --search (the search runs locally)",
    ),
    (
        "sweep --engines event --sizes 4,7 --link-latency 0:4:fixed:2",
        "--link-latency references node 4 but the smallest swept size is 4",
    ),
    (
        "sweep --link-latency 0:1:fixed:2",
        "--link-latency / --search need the event engine (add --engines event)",
    ),
    (
        "sweep --latencies jitter:1 --search 5",
        "--link-latency / --search need the event engine (add --engines event)",
    ),
    (
        "sweep --engines event --latencies jitter:1 --search 5 --link-latency 0:1:fixed:2",
        "--search does not compose with --link-latency yet",
    ),
    (
        "sweep --engines event --search 5",
        "--search needs a latency with schedule freedom (e.g. --latencies jitter:1)",
    ),
    // `lafd registry`.
    ("registry --bogus", "unknown registry flag --bogus"),
    ("registry --listen", "flag --listen needs a value"),
    (
        "registry --wait-limit-secs",
        "flag --wait-limit-secs needs a value",
    ),
    (
        "registry --wait-limit-secs x",
        "--wait-limit-secs: invalid digit found in string",
    ),
    (
        "registry --wait-limit-secs 0",
        "--wait-limit-secs 0: must be between 1 and 86400 seconds",
    ),
    (
        "registry --wait-limit-secs 86401",
        "--wait-limit-secs 86401: must be between 1 and 86400 seconds",
    ),
    // `lafd cluster`: shape flags, the cluster settings, `--crash`, validation.
    (
        "cluster",
        "cluster needs a protocol (chain|nonauth|small|ba|degrade|ds|king)",
    ),
    (
        "cluster nosuch",
        "unknown protocol nosuch (chain|nonauth|small|ba|degrade|ds|king)",
    ),
    ("cluster chain --bogus", "unknown cluster flag --bogus"),
    ("cluster chain -n", "flag -n needs a value"),
    ("cluster chain -n x", "--n: invalid digit found in string"),
    (
        "cluster chain --adversary bogus",
        "unknown adversary bogus (none|silent|crash|tamper|forge|wrongname|equivocate)",
    ),
    (
        "cluster chain --io-deadline-secs",
        "flag --io-deadline-secs needs a value",
    ),
    (
        "cluster chain --io-deadline-secs x",
        "--io-deadline-secs: invalid digit found in string",
    ),
    (
        "cluster chain --io-deadline-secs 0",
        "--io-deadline-secs 0: must be between 1 and 86400 seconds",
    ),
    (
        "cluster chain --io-deadline-secs 86401",
        "--io-deadline-secs 86401: must be between 1 and 86400 seconds",
    ),
    (
        "cluster chain --round-wall-us",
        "flag --round-wall-us needs a value",
    ),
    (
        "cluster chain --round-wall-us x",
        "--round-wall-us: invalid digit found in string",
    ),
    (
        "cluster chain --max-restarts",
        "flag --max-restarts needs a value",
    ),
    (
        "cluster chain --max-restarts x",
        "--max-restarts: invalid digit found in string",
    ),
    ("cluster chain --chaos", "flag --chaos needs a value"),
    (
        "cluster chain --chaos bogus",
        "chaos clause \"bogus\": expected key=value",
    ),
    ("cluster chain --registry", "flag --registry needs a value"),
    ("cluster chain --bind", "flag --bind needs a value"),
    (
        "cluster chain --crash 1 --adversary silent",
        "--crash and --adversary cannot be combined",
    ),
    (
        "cluster chain --crash 7",
        "--crash 7 is out of range for n = 7",
    ),
    (
        "cluster ds --adversary tamper",
        "adversary tamper:1 cannot speak protocol dolev_strong",
    ),
    // `lafd chaos`: campaigns, `--json`, `--chaos`, and the cluster flags it passes on.
    (
        "chaos",
        "cluster needs a protocol (chain|nonauth|small|ba|degrade|ds|king)",
    ),
    (
        "chaos nosuch",
        "unknown protocol nosuch (chain|nonauth|small|ba|degrade|ds|king)",
    ),
    ("chaos chain --bogus", "unknown cluster flag --bogus"),
    ("chaos chain --campaign", "flag --campaign needs a value"),
    (
        "chaos chain --campaign noise",
        "--campaign \"noise\": expected NAME=SPEC",
    ),
    (
        "chaos chain --campaign noise=bogus",
        "campaign noise: chaos clause \"bogus\": expected key=value",
    ),
    ("chaos chain --json", "flag --json needs a value"),
    (
        "chaos chain --chaos seed=1",
        "lafd chaos takes --campaign NAME=SPEC, not --chaos",
    ),
    (
        "chaos chain --io-deadline-secs 0",
        "--io-deadline-secs 0: must be between 1 and 86400 seconds",
    ),
    // `lafd cluster-worker`: the worker argv reader (no usage follows its error).
    (
        "cluster-worker",
        "cluster-worker needs --registry, --run, --node, and --request",
    ),
    (
        "cluster-worker --bogus",
        "unknown cluster-worker flag --bogus",
    ),
    (
        "cluster-worker --node x",
        "--node: invalid digit found in string",
    ),
    (
        "cluster-worker --io-deadline-secs 0",
        "--io-deadline-secs 0: must be between 1 and 86400 seconds",
    ),
    (
        "cluster-worker --chaos bogus",
        "chaos clause \"bogus\": expected key=value",
    ),
];

/// Run `lafd` over `args` with no stdin; the exit code and the first
/// stderr line.
fn refusal(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn lafd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default().to_string();
    (out.status.code(), first)
}

#[test]
fn every_refused_command_line_exits_1_with_its_exact_error() {
    let mut wrong = Vec::new();
    for &(line, expected) in CASES {
        let args: Vec<&str> = line.split_whitespace().collect();
        let got = refusal(&args);
        let want = (Some(1), format!("error: {expected}"));
        if got != want {
            wrong.push(format!("lafd {line}\n  want {want:?}\n   got {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn a_bare_lafd_prints_the_usage_and_exits_1() {
    let (code, first) = refusal(&[]);
    assert_eq!(code, Some(1));
    assert!(
        first.starts_with("usage: lafd <run|serve|search|sweep|cluster|chaos|registry>"),
        "{first}"
    );
}

/// A reader that closes stdout early (`lafd run chain -n 16 | head -1`)
/// wants no more of the report: the rest is dropped, the command exits
/// with its own code, and nothing reaches stderr. The pipe is closed
/// after the first line and before any line; `run --spec` prints one
/// line, so only the second case reaches its write.
#[test]
fn a_closed_stdout_ends_the_report_quietly() {
    let spec = std::env::temp_dir().join(format!("lafd-closed-stdout-{}.json", std::process::id()));
    std::fs::write(
        &spec,
        r#"{"schema_version": 1, "protocol": "chain_fd", "n": 16, "input": "76"}"#,
    )
    .expect("write spec");
    let spec_path = spec.to_str().expect("utf-8 temp path");
    for args in [
        vec!["run", "chain", "-n", "16"],
        vec!["run", "--spec", spec_path],
    ] {
        for lines in [1, 0] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_lafd"))
                .args(&args)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn lafd");
            let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            for _ in 0..lines {
                stdout.read_line(&mut String::new()).expect("first line");
            }
            drop(stdout);
            let out = child.wait_with_output().expect("wait for lafd");
            let case = format!(
                "lafd {} with the pipe closed after {lines} line(s)",
                args.join(" ")
            );
            assert_eq!(out.status.code(), Some(0), "{case}");
            assert_eq!(String::from_utf8_lossy(&out.stderr), "", "{case}");
        }
    }
    let _ = std::fs::remove_file(&spec);
}
