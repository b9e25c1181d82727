//! Round-trip property tests for the registry dialect of wire schema v1
//! (the `lafd registry` discovery protocol): every encoder must be a left
//! inverse of its decoder on the wire-representable domain, unknown
//! fields must be rejected, and foreign schema versions must be refused
//! — the same contract `tests/wire_roundtrip.rs` pins for run requests.

use local_auth_fd::core::ba::Grade;
use local_auth_fd::core::wire::{
    registry_reply_from_json, registry_reply_to_json, registry_request_from_json,
    registry_request_to_json, RegistryReply, RegistryRequest, WorkerSummary,
};
use local_auth_fd::core::{DiscoveryReason, Outcome};
use proptest::prelude::*;

fn outcome_strategy() -> impl Strategy<Value = Option<Outcome>> {
    (
        0usize..6,
        prop::collection::vec(any::<u8>(), 0..12),
        any::<u32>(),
    )
        .prop_map(|(pick, bytes, round)| match pick {
            0 => None,
            1 => Some(Outcome::Pending),
            2 => Some(Outcome::Decided(bytes)),
            3 => Some(Outcome::Discovered(DiscoveryReason::Malformed)),
            4 => Some(Outcome::Discovered(DiscoveryReason::MissingMessage {
                round,
            })),
            _ => Some(Outcome::Discovered(DiscoveryReason::Equivocation)),
        })
}

fn summary_strategy() -> impl Strategy<Value = WorkerSummary> {
    (
        (0usize..16, outcome_strategy(), any::<bool>(), 0usize..4),
        (
            1u32..64,
            0usize..10_000,
            0usize..1_000_000,
            prop::collection::vec(0usize..500, 0..8),
            0usize..5,
        ),
        (
            1u32..8,
            0usize..10_000,
            0usize..1_000_000,
            prop::collection::vec(0usize..500, 0..8),
            0usize..5,
        ),
        (0u64..5, 0u64..100),
    )
        .prop_map(
            |(
                (node, outcome, used_fallback, grade_pick),
                (rounds, messages, bytes, per_round, dropped),
                (kd_rounds, kd_messages, kd_bytes, kd_per_round, kd_anomalies),
                (incarnation, retries),
            )| WorkerSummary {
                node,
                outcome,
                used_fallback,
                grade: [None, Some(Grade::Zero), Some(Grade::One), Some(Grade::Two)][grade_pick],
                rounds,
                messages,
                bytes,
                per_round,
                dropped,
                kd_rounds,
                kd_messages,
                kd_bytes,
                kd_per_round,
                kd_anomalies,
                incarnation,
                retries,
            },
        )
}

fn request_strategy() -> impl Strategy<Value = RegistryRequest> {
    (
        (0usize..3, any::<u32>(), 0usize..64, 2usize..64),
        (any::<u16>(), 0u64..4),
        summary_strategy(),
    )
        .prop_map(|((pick, tag, node, n), (port, incarnation), summary)| {
            let run = format!("run-{tag}");
            let addr = format!("127.0.0.1:{port}");
            match pick {
                0 => RegistryRequest::Register {
                    run,
                    node,
                    n,
                    addr,
                    incarnation,
                },
                1 => RegistryRequest::Teardown {
                    run,
                    node,
                    summary,
                    incarnation,
                },
                _ => RegistryRequest::Collect { run },
            }
        })
}

fn reply_strategy() -> impl Strategy<Value = RegistryReply> {
    (
        (0usize..4, any::<u32>()),
        prop::collection::vec((0usize..64, any::<u16>()), 0..6),
        prop::collection::vec(summary_strategy(), 0..4),
    )
        .prop_map(|((pick, tag), peers, workers)| match pick {
            0 => RegistryReply::Roster {
                peers: peers
                    .into_iter()
                    .map(|(slot, port)| (slot, format!("127.0.0.1:{port}")))
                    .collect(),
            },
            1 => RegistryReply::Ack,
            2 => RegistryReply::Summaries { workers },
            _ => RegistryReply::Error {
                error: format!("boom {tag}"),
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn registry_request_encoding_round_trips_byte_for_byte(
        request in request_strategy(),
    ) {
        let encoded = registry_request_to_json(&request);
        let decoded = registry_request_from_json(&encoded).unwrap();
        prop_assert_eq!(&decoded, &request);
        // Re-encoding the decoded request must reproduce the exact bytes.
        prop_assert_eq!(registry_request_to_json(&decoded), encoded);
    }

    #[test]
    fn registry_reply_encoding_round_trips_byte_for_byte(
        reply in reply_strategy(),
    ) {
        let encoded = registry_reply_to_json(&reply);
        let decoded = registry_reply_from_json(&encoded).unwrap();
        prop_assert_eq!(&decoded, &reply);
        prop_assert_eq!(registry_reply_to_json(&decoded), encoded);
    }

    #[test]
    fn registry_messages_reject_unknown_fields(
        request in request_strategy(),
        reply in reply_strategy(),
    ) {
        let bogus_req = registry_request_to_json(&request)
            .replacen('{', "{\"bogus\": 1, ", 1);
        prop_assert!(registry_request_from_json(&bogus_req).is_err());
        let bogus_reply = registry_reply_to_json(&reply)
            .replacen('{', "{\"bogus\": 1, ", 1);
        prop_assert!(registry_reply_from_json(&bogus_reply).is_err());
    }

    #[test]
    fn registry_messages_reject_foreign_schema_versions(
        request in request_strategy(),
        reply in reply_strategy(),
        version in 2i64..1000,
    ) {
        let wrong = format!("\"schema_version\": {version}");
        let req = registry_request_to_json(&request)
            .replacen("\"schema_version\": 1", &wrong, 1);
        prop_assert!(registry_request_from_json(&req).is_err());
        let rep = registry_reply_to_json(&reply)
            .replacen("\"schema_version\": 1", &wrong, 1);
        prop_assert!(registry_reply_from_json(&rep).is_err());
    }
}
