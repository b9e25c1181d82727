//! Hostile input against the wire-v1 decoders: the run request and
//! response decoders and the registry request and reply decoders. Valid
//! encodings are mutated by truncation, character flips, insertions,
//! deletions, a splice of 100 `[`, overlong digit runs and duplicated
//! keys. Whatever the bytes, each decoder returns `Ok` or `Err`; none
//! panics, and a decoded run request that validates also builds.

use local_auth_fd::core::adversary::{AdversaryKind, AdversarySpec};
use local_auth_fd::core::ba::Grade;
use local_auth_fd::core::runner::FdRunReport;
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire::{self, RegistryReply, RegistryRequest, WorkerSummary};
use local_auth_fd::core::{DiscoveryReason, Outcome};
use local_auth_fd::simnet::{Engine, LatencySpec, LinkLatencySpec, NetStats, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

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
            RegistryRequest::Lookup {
                run: run(),
                node: 5,
            },
            RegistryRequest::Barrier {
                run: run(),
                node: 2,
                n: 7,
                phase: "keydist-done".to_string(),
                incarnation: 0,
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
            RegistryReply::Addr {
                node: 1,
                addr: "b:2".to_string(),
            },
            RegistryReply::Released {
                phase: "keydist-done".to_string(),
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
