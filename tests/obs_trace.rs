//! Observability contracts: tracing is deterministic where the engine is,
//! and invisible everywhere else.
//!
//! * Event-engine traces are **byte-identical** across repeated runs and
//!   across spawning threads — the virtual-tick clock is a pure function
//!   of the spec and seed, and the export carries no wall-derived bytes.
//! * Tracing never changes [`FdRunReport::to_json`]: the `phases` field
//!   is a local observation, not a report surface.
//! * Sync-engine phase spans tile the measured wall time: the tiling
//!   span-duration sum equals the reported `wall_us` (well within the 5%
//!   acceptance envelope — it is exact by construction), and the
//!   `keydist:round:N` spans tile the `keydist` span the same way; the
//!   `keydist:sign` and `keydist:verify` spans start with rounds 2 and 3.
//! * Event-engine `keydist:round:N` spans tile the `keydist` span in
//!   virtual ticks; key distribution's wall-clock round marks stay on its
//!   report, on both engines.
//! * The Chrome trace-event export is valid JSON (parsed by the repo's
//!   own `wire::Value`) with the expected phase and counter events.

use local_auth_fd::core::runner::Cluster;
use local_auth_fd::core::spec::{Protocol, RunSpec};
use local_auth_fd::core::wire::Value;
use local_auth_fd::crypto::SchnorrScheme;
use local_auth_fd::simnet::Engine;
use std::sync::Arc;

fn cluster(n: usize, engine: Engine) -> Cluster {
    Cluster::new(n, 1, Arc::new(SchnorrScheme::test_tiny()), 42).with_engine(engine)
}

fn spec(protocol: Protocol) -> RunSpec {
    RunSpec::new(protocol, b"trace-me".to_vec()).with_default_value(b"trace-default".to_vec())
}

#[test]
fn event_engine_traces_are_byte_identical_across_runs() {
    for protocol in [
        Protocol::ChainFd,
        Protocol::DolevStrong,
        Protocol::NonAuthFd,
    ] {
        let (_, first) = cluster(8, Engine::Event).run_traced(&spec(protocol));
        let (_, second) = cluster(8, Engine::Event).run_traced(&spec(protocol));
        assert_eq!(
            first.to_chrome_json(),
            second.to_chrome_json(),
            "{protocol}: chrome export not deterministic"
        );
        assert_eq!(
            first.to_folded(),
            second.to_folded(),
            "{protocol}: folded export not deterministic"
        );
    }
}

#[test]
fn event_engine_traces_are_byte_identical_across_threads() {
    let reference = cluster(8, Engine::Event)
        .run_traced(&spec(Protocol::DolevStrong))
        .1
        .to_chrome_json();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                cluster(8, Engine::Event)
                    .run_traced(&spec(Protocol::DolevStrong))
                    .1
                    .to_chrome_json()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap(), reference);
    }
}

#[test]
fn tracing_never_changes_report_json() {
    for engine in [Engine::Sync, Engine::Event] {
        for protocol in [
            Protocol::ChainFd,
            Protocol::DolevStrong,
            Protocol::Degradable,
            Protocol::FdToBa,
            Protocol::NonAuthFd,
        ] {
            let plain = cluster(7, engine).run(&spec(protocol)).to_json();
            let (traced, _) = cluster(7, engine).run_traced(&spec(protocol));
            assert!(
                traced.phases.is_some(),
                "{protocol} × {engine}: traced run should carry phases"
            );
            assert_eq!(
                plain,
                traced.to_json(),
                "{protocol} × {engine}: tracing changed the report bytes"
            );
        }
    }
}

#[test]
fn plain_runs_carry_no_phases() {
    let run = cluster(6, Engine::Sync).run(&spec(Protocol::ChainFd));
    assert!(run.phases.is_none(), "observability must be off by default");
}

#[test]
fn sync_engine_spans_tile_the_measured_wall_time() {
    let (run, trace) = cluster(48, Engine::Sync).run_traced(&spec(Protocol::DolevStrong));
    let wall = trace.wall_us.expect("sync traces carry wall time");
    let phases = run.phases.expect("traced run carries phases");
    assert_eq!(phases.wall_us, Some(wall));
    // The tiling spans (keydist + round:N + assemble + report) sum to the
    // wall time exactly; the ISSUE acceptance envelope is 5%.
    let total = trace.span_total();
    assert_eq!(total, wall, "span tiling must account for all wall time");
    let envelope = wall / 20;
    assert!(
        total.abs_diff(wall) <= envelope,
        "span sum {total} vs wall {wall} exceeds 5%"
    );
}

#[test]
fn sync_keydist_round_spans_tile_the_keydist_span() {
    // n = 24 delivers 552 messages a keydist round: above the parallel
    // threshold, so the rounds run on every available core.
    let (_, trace) = cluster(24, Engine::Sync).run_traced(&spec(Protocol::ChainFd));
    let keydist = trace
        .spans
        .iter()
        .find(|s| s.name == "keydist")
        .expect("keydist span");
    let rounds: Vec<_> = trace
        .attributed
        .iter()
        .filter(|s| s.name.starts_with("keydist:round:"))
        .collect();
    let names: Vec<&str> = rounds.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "keydist:round:0",
            "keydist:round:1",
            "keydist:round:2",
            "keydist:round:3"
        ]
    );
    let mut cursor = keydist.start;
    for round in &rounds {
        assert_eq!(round.start, cursor, "{} leaves a gap", round.name);
        cursor += round.dur;
    }
    assert_eq!(cursor, keydist.start + keydist.dur);
}

#[test]
fn event_keydist_has_round_spans_in_ticks_and_wall_marks_on_its_report() {
    // On the virtual-tick timeline the rounds tile the keydist span one
    // round boundary apart; the export stays byte-identical.
    let (_, trace) = cluster(24, Engine::Event).run_traced(&spec(Protocol::ChainFd));
    let keydist = trace
        .spans
        .iter()
        .find(|s| s.name == "keydist")
        .expect("keydist span");
    let rounds: Vec<(&str, u64, u64)> = trace
        .attributed
        .iter()
        .filter(|s| s.name.starts_with("keydist:"))
        .map(|s| (s.name.as_str(), s.start, s.dur))
        .collect();
    let tick = local_auth_fd::simnet::event::TICKS_PER_ROUND;
    assert_eq!(
        rounds,
        [
            ("keydist:round:0", 0, tick),
            ("keydist:round:1", tick, tick),
            ("keydist:round:2", 2 * tick, tick),
            ("keydist:round:3", 3 * tick, tick)
        ]
    );
    assert_eq!((keydist.start, keydist.dur), (0, 4 * tick));

    // The key distribution itself carries wall-clock marks, as on the
    // sync engine: one per round, non-decreasing, only with obs on.
    for engine in [Engine::Sync, Engine::Event] {
        let marks = cluster(24, engine)
            .with_obs()
            .run_key_distribution()
            .round_marks
            .unwrap_or_else(|| panic!("{engine}: observed keydist has marks"));
        assert_eq!(marks.len(), 4, "{engine}");
        assert!(
            marks.windows(2).all(|w| w[0] <= w[1]),
            "{engine}: {marks:?}"
        );
        assert!(marks[3] > 0, "{engine}: 2 208 messages take time");
        let plain = cluster(24, engine).run_key_distribution();
        assert!(plain.round_marks.is_none(), "{engine}");
    }
}

#[test]
fn sync_keydist_attributes_its_sign_and_verify_time() {
    // n = 24: rounds 2 and 3 run on every available core, so each crypto
    // span is at most its round's wall time on each worker.
    let workers = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let (_, trace) = cluster(24, Engine::Sync).run_traced(&spec(Protocol::ChainFd));
    let span = |name: &str| {
        trace
            .attributed
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name} span"))
            .clone()
    };
    for (crypto, round) in [
        ("keydist:sign", "keydist:round:2"),
        ("keydist:verify", "keydist:round:3"),
    ] {
        let (crypto, round) = (span(crypto), span(round));
        assert_eq!(
            crypto.start, round.start,
            "{} starts its round",
            crypto.name
        );
        assert!(crypto.dur > 0, "552 {} calls take time", crypto.name);
        assert!(
            crypto.dur <= round.dur * workers,
            "{} {} µs exceeds {} µs × {workers}",
            crypto.name,
            crypto.dur,
            round.dur
        );
    }

    // Off by default: no clock is read and nothing is attributed.
    let kd = cluster(24, Engine::Sync).run_key_distribution();
    assert!(kd.crypto_time.is_none() && kd.round_marks.is_none());
    let traced = cluster(24, Engine::Sync)
        .with_obs()
        .run_key_distribution()
        .crypto_time
        .expect("observability measures the scheme");
    assert!(traced.sign > std::time::Duration::ZERO);
    assert!(traced.verify > std::time::Duration::ZERO);
}

#[test]
fn chrome_export_is_valid_json_with_phase_and_counter_events() {
    let (_, trace) = cluster(8, Engine::Sync).run_traced(&spec(Protocol::ChainFd));
    let doc = Value::parse(&trace.to_chrome_json()).expect("chrome export parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"keydist"), "names: {names:?}");
    assert!(names.contains(&"round:0"), "names: {names:?}");
    assert!(names.contains(&"assemble"), "names: {names:?}");
    assert!(names.contains(&"report"), "names: {names:?}");
    assert!(names.contains(&"verify_cache_hits"), "names: {names:?}");
    assert!(names.contains(&"messages_total"), "names: {names:?}");
    let other = doc.get("otherData").expect("otherData object");
    assert_eq!(other.get("clock").and_then(Value::as_str), Some("wall_us"));
    assert_eq!(
        other.get("protocol").and_then(Value::as_str),
        Some("chain_fd")
    );
    assert_eq!(other.get("n").and_then(Value::as_int), Some(8));
}

#[test]
fn event_export_omits_wall_derived_fields() {
    let (_, trace) = cluster(8, Engine::Event).run_traced(&spec(Protocol::ChainFd));
    assert!(trace.wall_us.is_none(), "virtual-tick traces carry no wall");
    let raw = trace.to_chrome_json();
    let doc = Value::parse(&raw).expect("chrome export parses");
    assert!(
        doc.get("otherData").unwrap().get("wall_us").is_none(),
        "wall_us must be absent from deterministic exports"
    );
    assert_eq!(
        doc.get("otherData")
            .unwrap()
            .get("clock")
            .and_then(Value::as_str),
        Some("virtual_ticks")
    );
    // No report/assemble/verify spans — those are wall-clock phases.
    assert!(!raw.contains("\"name\": \"report\""));
    assert!(!raw.contains("\"name\": \"verify\","));
}

#[test]
fn folded_export_has_one_frame_per_span() {
    let (_, trace) = cluster(8, Engine::Sync).run_traced(&spec(Protocol::ChainFd));
    let folded = trace.to_folded();
    let lines: Vec<&str> = folded.lines().collect();
    assert_eq!(lines.len(), trace.spans.len() + trace.attributed.len());
    for line in &lines {
        let (stack, weight) = line.rsplit_once(' ').expect("frame weight");
        assert!(stack.starts_with("lafd;"), "bad frame {line}");
        weight.parse::<u64>().expect("numeric weight");
    }
    assert!(folded.contains("lafd;keydist "));
    assert!(folded.contains("lafd;run;round:0 "));
}

#[test]
fn obs_cluster_populates_cache_and_intern_counters() {
    let (run, trace) = cluster(8, Engine::Sync).run_traced(&spec(Protocol::DolevStrong));
    let phases = run.phases.expect("phases recorded");
    // Dolev–Strong relays verify chains: the cache must have been
    // consulted, and the shared predicate table interned the stores.
    assert!(
        phases.cache_hits + phases.cache_misses > 0,
        "verify cache never consulted"
    );
    assert!(phases.interned > 0, "predicate table never interned");
    assert!(phases.cache_hit_ratio_pct().is_some());
    assert_eq!(phases.round_marks.len(), phases.per_round().len());
    let counters: Vec<&str> = trace.counters.iter().map(|c| c.name).collect();
    assert!(counters.contains(&"verify_cache_hits"));
    assert!(counters.contains(&"predicates_interned"));
    assert!(counters.contains(&"max_queue_depth"));
}
