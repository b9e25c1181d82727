//! Round-trip property tests for the wire-v1 schema: every encoder in
//! `fd_core::wire` must be a left inverse of its decoder on the
//! wire-representable domain, byte for byte. This is the compatibility
//! contract `schema_version: 1` promises remote `lafd sweep` drivers.

use local_auth_fd::core::adversary::{AdversaryKind, AdversarySpec};
use local_auth_fd::core::spec::{Protocol, SpecBuilder};
use local_auth_fd::core::wire;
use local_auth_fd::simnet::{Engine, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Scripted adversary kinds with a wire encoding (everything but the
/// closure-carrying `Custom`, which `request_to_json` rejects).
const KINDS: [AdversaryKind; 6] = [
    AdversaryKind::None,
    AdversaryKind::SilentRelay,
    AdversaryKind::CrashRelay,
    AdversaryKind::TamperBody,
    AdversaryKind::ForgeOrigin,
    AdversaryKind::Equivocate,
];

/// A random wire-representable builder: every field the schema can carry
/// except engine/latency variations (exercised by the CLI sweep tests).
fn builder_strategy() -> impl Strategy<Value = SpecBuilder> {
    (
        (0usize..Protocol::ALL.len(), 5usize..10, any::<u64>()),
        prop::collection::vec(any::<u8>(), 0..24),
        prop::collection::vec(any::<u8>(), 0..8),
        (0usize..KINDS.len(), 0usize..4),
    )
        .prop_map(|((p, n, seed), input, default_value, (kind, corrupt))| {
            let mut builder = SpecBuilder::new(Protocol::ALL[p], n)
                .with_seed(seed)
                .with_input(input)
                .with_default_value(default_value);
            let kind = KINDS[kind];
            if kind != AdversaryKind::None {
                builder = builder.with_adversary(if corrupt == 0 {
                    AdversarySpec::scripted(kind)
                } else {
                    AdversarySpec::scripted_at(
                        kind,
                        (1..=corrupt).map(|i| NodeId(i as u16)).collect::<Vec<_>>(),
                    )
                });
            }
            builder
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hex_decode_inverts_hex_encode(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let hex = wire::hex_encode(&bytes);
        prop_assert_eq!(wire::hex_decode(&hex).unwrap(), bytes);
    }

    #[test]
    fn request_encoding_round_trips_byte_for_byte(
        builder in builder_strategy(),
        with_id in any::<bool>(),
        tag in any::<u32>(),
    ) {
        let id = with_id.then(|| format!("req-{tag}"));
        let encoded = wire::request_to_json(&builder, id.as_deref()).unwrap();
        let (decoded, decoded_id) = wire::request_from_json(&encoded).unwrap();
        prop_assert_eq!(&decoded_id, &id);
        // Re-encoding the decoded builder must reproduce the exact bytes.
        prop_assert_eq!(
            wire::request_to_json(&decoded, decoded_id.as_deref()).unwrap(),
            encoded
        );
        // And the decode is faithful on the semantic fields.
        prop_assert_eq!(decoded.protocol, builder.protocol);
        prop_assert_eq!(decoded.n, builder.n);
        prop_assert_eq!(decoded.seed, builder.seed);
        prop_assert_eq!(&decoded.input, &builder.input);
        prop_assert_eq!(&decoded.default_value, &builder.default_value);
        prop_assert_eq!(&decoded.adversary, &builder.adversary);
    }

    #[test]
    fn schedule_entries_survive_the_request_round_trip(
        entries in prop::collection::vec((0u64..512, 0u64..6), 0..12),
    ) {
        let map: HashMap<u64, u64> = entries.into_iter().collect();
        let builder = SpecBuilder::new(Protocol::ChainFd, 5)
            .with_engine(Engine::Event)
            .with_schedule(Some(Arc::new(map.clone())));
        let encoded = wire::request_to_json(&builder, None).unwrap();
        let (decoded, _) = wire::request_from_json(&encoded).unwrap();
        let schedule = decoded.schedule.clone().expect("schedule survives");
        prop_assert_eq!(&*schedule, &map);
        prop_assert_eq!(wire::request_to_json(&decoded, None).unwrap(), encoded);
    }

    #[test]
    fn report_encoding_round_trips_byte_for_byte(
        protocol_index in 0usize..Protocol::ALL.len(),
        n in 5usize..9,
        seed in any::<u64>(),
        value in prop::collection::vec(any::<u8>(), 0..16),
        kind in 0usize..KINDS.len(),
    ) {
        // A *real* report (random shape, random adversary) rather than a
        // synthetic one, so discovery reasons, fallback flags, and grade
        // vectors all flow through the encoding.
        let mut builder = SpecBuilder::new(Protocol::ALL[protocol_index], n)
            .with_seed(seed)
            .with_input(value);
        if KINDS[kind] != AdversaryKind::None {
            builder = builder.with_adversary(AdversarySpec::scripted(KINDS[kind]));
        }
        prop_assume!(builder.validate().is_ok());
        let (cluster, spec) = builder.build().unwrap();
        let report = cluster.run(&spec);
        let encoded = wire::report_to_json(&report);
        let decoded = wire::report_from_json(&encoded).unwrap();
        prop_assert_eq!(wire::report_to_json(&decoded), encoded);
        prop_assert_eq!(decoded.outcomes.len(), report.outcomes.len());
        prop_assert_eq!(decoded.used_fallback, report.used_fallback);
        prop_assert_eq!(decoded.stats.messages_total, report.stats.messages_total);
        prop_assert_eq!(decoded.stats.bytes_total, report.stats.bytes_total);
    }

    #[test]
    fn response_encoding_round_trips(
        shard in 0usize..4,
        reused in any::<bool>(),
        keyed in any::<bool>(),
        messages in 0usize..10_000,
        wall_us in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let keydist_messages = keyed.then_some(messages);
        let (cluster, spec) = SpecBuilder::new(Protocol::NonAuthFd, 5)
            .with_seed(seed)
            .build()
            .unwrap();
        let report_json = wire::report_to_json(&cluster.run(&spec));
        let encoded = wire::response_to_json(
            Some("resp"),
            shard,
            reused,
            keydist_messages,
            u64::from(wall_us),
            &report_json,
        );
        let decoded = wire::response_from_json(&encoded).unwrap();
        prop_assert_eq!(decoded.id.as_deref(), Some("resp"));
        prop_assert_eq!(decoded.shard, shard);
        prop_assert_eq!(decoded.keydist_reused, reused);
        prop_assert_eq!(decoded.keydist_messages, keydist_messages);
        prop_assert_eq!(decoded.wall_us, u64::from(wall_us));
        prop_assert_eq!(&decoded.report_json, &report_json);
        prop_assert!(decoded.report.is_ok());
    }

    #[test]
    fn error_responses_round_trip(
        raw in prop::collection::vec(any::<u8>(), 0..40),
        with_id in any::<bool>(),
    ) {
        // Printable ASCII including `"` and `\` so escaping is exercised.
        let message: String = raw.iter().map(|b| char::from(b' ' + b % 95)).collect();
        let id = with_id.then_some("err-id");
        let encoded = wire::error_to_json(id, &message);
        let decoded = wire::response_from_json(&encoded).unwrap();
        prop_assert_eq!(decoded.id.as_deref(), id);
        prop_assert_eq!(decoded.report.unwrap_err(), message);
        prop_assert!(decoded.report_json.is_empty());
    }
}

/// Unknown fields and wrong schema versions must be rejected loudly —
/// forward compatibility is explicit versioning, not silent tolerance.
#[test]
fn unknown_fields_and_bad_versions_are_rejected() {
    let err = wire::request_from_json(
        "{\"schema_version\": 1, \"protocol\": \"chain_fd\", \"n\": 5, \"input\": \"00\", \
         \"surprise\": 1}",
    )
    .unwrap_err();
    assert!(err.contains("surprise"), "unknown field named: {err}");
    let err = wire::request_from_json(
        "{\"schema_version\": 2, \"protocol\": \"chain_fd\", \"n\": 5, \"input\": \"00\"}",
    )
    .unwrap_err();
    assert!(err.contains("schema"), "version mismatch named: {err}");
    let err = wire::response_from_json("{\"schema_version\": 1, \"ok\": true, \"shard\": 0}")
        .unwrap_err();
    assert!(!err.is_empty());
}

/// String decoding is linear in the input: a 1 MB value (plain runs,
/// multi-byte scalars and escapes mixed) decodes in milliseconds. The
/// per-character re-validation this replaced needed tens of seconds here.
#[test]
fn megabyte_string_value_decodes_in_linear_time() {
    let unit = "plain run of ascii, then é€𝄞, then \"quoted\\path\"\tand a tab; ";
    let message = unit.repeat((1 << 20) / unit.len() + 1);
    assert!(message.len() >= 1 << 20);
    let encoded = wire::error_to_json(Some("big"), &message);
    let started = std::time::Instant::now();
    let decoded = wire::response_from_json(&encoded).unwrap();
    let took = started.elapsed();
    assert_eq!(decoded.report.unwrap_err(), message);
    // Unoptimised builds run the byte scan ~20x slower; still linear.
    let budget_ms = if cfg!(debug_assertions) { 2_000 } else { 100 };
    assert!(
        took.as_millis() < budget_ms,
        "decoding {} bytes took {took:?} (budget {budget_ms} ms)",
        encoded.len()
    );
}
