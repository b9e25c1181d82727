//! Hostile input against the wire-v1 decoders: the run request and
//! response decoders and the registry request and reply decoders. Valid
//! encodings are mutated by truncation, character flips, insertions,
//! deletions, a splice of 100 `[`, overlong digit runs and duplicated
//! keys. Whatever the bytes, each decoder returns `Ok` or `Err`; none
//! panics, and a decoded run request that validates also builds. Mutated
//! run requests also go to the `lafd run --spec` binary as files, which
//! must print a report or refuse with an `error:` line.

use local_auth_fd::core::adversary::{AdversaryKind, AdversarySpec};
use local_auth_fd::core::ba::Grade;
use local_auth_fd::core::runner::FdRunReport;
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire::{self, RegistryReply, RegistryRequest, WorkerSummary};
use local_auth_fd::core::{DiscoveryReason, Outcome};
use local_auth_fd::simnet::{Engine, LatencySpec, LinkLatencySpec, NetStats, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn summary() -> WorkerSummary {
    WorkerSummary {
        node: 3,
        outcome: Some(Outcome::Decided(vec![0x76])),
        used_fallback: true,
        grade: Some(Grade::One),
        rounds: 4,
        messages: 12,
        bytes: 340,
        per_round: vec![6, 6, 0, 0],
        dropped: 1,
        kd_rounds: 4,
        kd_messages: 18,
        kd_bytes: 912,
        kd_per_round: vec![6, 6, 6, 0],
        kd_anomalies: 1,
        incarnation: 2,
        retries: 3,
    }
}

/// One valid encoding of every document shape the four decoders accept.
fn corpus() -> Vec<String> {
    let schedule: HashMap<u64, u64> = [(0, 1024), (3, 1500)].into_iter().collect();
    let request = SpecBuilder::new(Protocol::ChainFd, 7)
        .with_t(2)
        .with_seed(9)
        .with_scheme("dsa")
        .with_engine(Engine::Event)
        .with_latency(LatencySpec::Jitter { extra: 1 })
        .with_link_latency(vec![LinkLatencySpec::parse("0:1:fixed:3").unwrap()])
        .with_input(b"v".to_vec())
        .with_adversary(AdversarySpec::scripted_at(
            AdversaryKind::TamperBody,
            vec![NodeId(1), NodeId(4)],
        ))
        .with_schedule(Some(Arc::new(schedule)));
    let report = FdRunReport {
        outcomes: vec![
            Some(Outcome::Decided(vec![0x76, 0x00])),
            None,
            Some(Outcome::Pending),
            Some(Outcome::Discovered(DiscoveryReason::MissingMessage {
                round: 2,
            })),
        ],
        stats: NetStats {
            rounds: 3,
            messages_total: 9,
            bytes_total: 600,
            per_round: vec![3, 6, 0],
            ..NetStats::default()
        },
        used_fallback: vec![false, true, false, false],
        grades: vec![Some(Grade::Two), None, Some(Grade::Zero), Some(Grade::One)],
        delay_log: Some(vec![(0, 1024), (1, 2047)]),
        phases: None,
    };
    let run = || "run-7".to_string();
    let mut docs = vec![
        wire::request_to_json(&request, Some("req \"1\"")).unwrap(),
        wire::request_to_json(&SpecBuilder::new(Protocol::DolevStrong, 4), None).unwrap(),
        wire::response_to_json(Some("r"), 1, true, Some(126), 42, &report.to_json()),
        wire::response_to_json(None, 0, false, None, 0, &report.to_json()),
        wire::error_to_json(Some("e\n1"), "boom"),
    ];
    docs.extend(
        [
            RegistryRequest::Register {
                run: run(),
                node: 2,
                n: 7,
                addr: "127.0.0.1:4242".to_string(),
                incarnation: 1,
            },
            RegistryRequest::Teardown {
                run: run(),
                node: 3,
                summary: summary(),
                incarnation: 2,
            },
            RegistryRequest::Collect { run: run() },
        ]
        .iter()
        .map(wire::registry_request_to_json),
    );
    docs.extend(
        [
            RegistryReply::Roster {
                peers: vec![(0, "a:1".to_string()), (1, "b:2".to_string())],
            },
            RegistryReply::Ack,
            RegistryReply::Summaries {
                workers: vec![summary(), summary()],
            },
            RegistryReply::Error {
                error: "no such run".to_string(),
            },
        ]
        .iter()
        .map(wire::registry_reply_to_json),
    );
    docs
}

/// Feed `doc` to every decoder. A panic fails the calling test; a decoder
/// that returns at all, `Ok` or `Err`, passes. A decoded request that
/// validates must also build, as `lafd run --spec` expects of it.
fn decode_all(doc: &str) {
    if let Ok((builder, _)) = wire::request_from_json(doc) {
        if builder.validate().is_ok() {
            assert!(
                builder.build().is_ok(),
                "validates but does not build: {doc}"
            );
        }
    }
    let _ = wire::response_from_json(doc);
    let _ = wire::registry_request_from_json(doc);
    let _ = wire::registry_reply_from_json(doc);
}

/// Characters flips and insertions draw from: JSON structure, escapes,
/// digits, literal starts, control bytes and multi-byte scalars.
const ALPHABET: &[char] = &[
    '"', '\\', '{', '}', '[', ']', ':', ',', '0', '1', '9', '-', '.', 'e', 'E', 't', 'f', 'n', 'u',
    ' ', '\n', '\u{0}', '\u{1f}', 'é', '𝄞',
];

/// Keys some decoder knows, for duplicated-key splices.
const KEYS: &[&str] = &[
    "schema_version",
    "id",
    "protocol",
    "n",
    "input",
    "ok",
    "report",
    "outcomes",
    "op",
    "run",
    "node",
    "summary",
    "reply",
    "workers",
];

/// One mutation: a kind, a position, and two parameters whose meaning
/// depends on the kind.
type Mutation = (usize, prop::sample::Index, usize, usize);

fn mutate(doc: &str, (kind, at, pick, len): Mutation) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    let pos = at.index(chars.len() + 1);
    match kind {
        // Truncation at any byte; a split scalar decodes lossily.
        0 => {
            let cut = at.index(doc.len() + 1);
            return String::from_utf8_lossy(&doc.as_bytes()[..cut]).into_owned();
        }
        1 if pos < chars.len() => chars[pos] = ALPHABET[pick % ALPHABET.len()],
        1 | 2 => chars.insert(pos, ALPHABET[pick % ALPHABET.len()]),
        3 => {
            let end = (pos + 1 + len % 8).min(chars.len());
            chars.drain(pos.min(end)..end);
        }
        4 => {
            chars.splice(pos..pos, std::iter::repeat_n('[', 100));
        }
        5 => {
            let run = std::iter::repeat_n('9', 40 + len % 400);
            let sign = (pick % 2 == 0).then_some('-');
            chars.splice(pos..pos, sign.into_iter().chain(run));
        }
        _ => {
            // Repeat a known key right after the next `{`.
            let open = chars[pos..].iter().position(|&c| c == '{').map(|i| pos + i);
            let key = KEYS[pick % KEYS.len()];
            let value = ["1", "null", "\"x\"", "[]", "{}"][len % 5];
            if let Some(open) = open {
                let field = format!("\"{key}\": {value}, ");
                chars.splice(open + 1..open + 1, field.chars());
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn every_valid_encoding_decodes_somewhere() {
    for doc in corpus() {
        let accepted = wire::request_from_json(&doc).is_ok()
            || wire::response_from_json(&doc).is_ok()
            || wire::registry_request_from_json(&doc).is_ok()
            || wire::registry_reply_from_json(&doc).is_ok();
        assert!(accepted, "no decoder accepts {doc}");
    }
}

#[test]
fn every_truncation_of_every_encoding_is_refused_without_a_panic() {
    for doc in corpus() {
        for cut in 0..doc.len() {
            decode_all(&String::from_utf8_lossy(&doc.as_bytes()[..cut]));
        }
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (
        0usize..7,
        any::<prop::sample::Index>(),
        0usize..64,
        0usize..1024,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_encodings_decode_or_fail_without_a_panic(
        pick in any::<prop::sample::Index>(),
        mutations in prop::collection::vec(mutation(), 1..5),
    ) {
        let docs = corpus();
        let mut doc = docs[pick.index(docs.len())].clone();
        for m in mutations {
            doc = mutate(&doc, m);
            decode_all(&doc);
        }
    }
}

/// How long one `lafd run --spec` on a mutant may run.
const SPEC_RUN_BOUND: Duration = Duration::from_secs(60);

/// Whether `lafd run --spec` gets `doc`: a request that does not decode or
/// validate is refused before any run, and one that validates runs only
/// at n ≤ 16 (`decode_all` checks that larger ones build).
fn for_the_binary(doc: &str) -> bool {
    match wire::request_from_json(doc) {
        Ok((builder, _)) => builder.validate().is_err() || builder.n <= 16,
        Err(_) => true,
    }
}

/// Write `doc` to a file and run `lafd run --spec` on it. It must exit 0
/// with a report on its last stdout line, or exit 1 with an `error:` first
/// stderr line, within [`SPEC_RUN_BOUND`]; a signal, a panic (101), an
/// abort (134) or any other end fails.
fn run_spec_file(doc: &str) {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let stem = format!(
        "lafd-spec-wall-{}-{}",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir();
    let [spec, out, err] = ["json", "out", "err"].map(|ext| dir.join(format!("{stem}.{ext}")));
    std::fs::write(&spec, doc).expect("write the spec file");
    let file = |path: &std::path::Path| std::fs::File::create(path).expect("create an output file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_lafd"))
        .args(["run", "--spec"])
        .arg(&spec)
        .stdin(Stdio::null())
        .stdout(file(&out))
        .stderr(file(&err))
        .spawn()
        .expect("spawn lafd run --spec");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for lafd") {
            break status;
        }
        if started.elapsed() > SPEC_RUN_BOUND {
            let _ = child.kill();
            let _ = child.wait();
            panic!("lafd run --spec ran past {SPEC_RUN_BOUND:?} on {doc}");
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let read = |path: &std::path::Path| std::fs::read_to_string(path).unwrap_or_default();
    let (stdout, stderr) = (read(&out), read(&err));
    for path in [&spec, &out, &err] {
        let _ = std::fs::remove_file(path);
    }
    match status.code() {
        Some(0) => assert!(
            stdout
                .lines()
                .last()
                .is_some_and(|line| line.starts_with("{\"outcomes\": ")),
            "exit 0 without a report on {doc}: {stdout}"
        ),
        Some(1) => assert!(
            stderr.starts_with("error:"),
            "exit 1 without an error line on {doc}: {stderr}"
        ),
        _ => panic!("lafd run --spec ended with {status} on {doc}: {stderr}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_spec_files_get_a_report_or_an_error_line(
        pick in any::<prop::sample::Index>(),
        mutations in prop::collection::vec(mutation(), 1..4),
    ) {
        let requests: Vec<String> = corpus()
            .into_iter()
            .filter(|doc| wire::request_from_json(doc).is_ok())
            .collect();
        let mut doc = requests[pick.index(requests.len())].clone();
        for m in mutations {
            doc = mutate(&doc, m);
            if for_the_binary(&doc) {
                run_spec_file(&doc);
            }
        }
    }
}
