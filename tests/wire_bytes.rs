//! Exact bytes of every document layout: a run report, success and error
//! responses, a sweep document and a search document. The round-trip and
//! determinism tests elsewhere compare encodings with themselves; these
//! pin the encodings, so a change to separators, field order, escaping
//! or the document layout fails here.

use local_auth_fd::core::ba::Grade;
use local_auth_fd::core::runner::FdRunReport;
use local_auth_fd::core::schedsearch::{
    EpisodeRow, Perturbation, ScheduleCert, Score, SearchConfig, SearchReport, Strategy,
};
use local_auth_fd::core::spec::Protocol;
use local_auth_fd::core::sweep::{
    scenario, ScenarioRow, SearchRowSummary, SweepOutcome, SweepReport,
};
use local_auth_fd::core::wire;
use local_auth_fd::core::{DiscoveryReason, Outcome};
use local_auth_fd::simnet::{Engine, LatencySpec, NetStats};

fn report() -> FdRunReport {
    FdRunReport {
        outcomes: vec![
            Some(Outcome::Decided(vec![0x00, 0x7f, 0xff])),
            None,
            Some(Outcome::Pending),
            Some(Outcome::Discovered(DiscoveryReason::MissingMessage {
                round: 2,
            })),
            Some(Outcome::Discovered(DiscoveryReason::Equivocation)),
        ],
        stats: NetStats {
            rounds: 3,
            messages_total: 12,
            bytes_total: 804,
            per_round: vec![4, 8, 0],
            ..NetStats::default()
        },
        used_fallback: vec![false, true],
        grades: vec![Some(Grade::Two), None, Some(Grade::Zero), Some(Grade::One)],
        delay_log: Some(vec![(0, 1024), (1, 1500)]),
        phases: None,
    }
}

const REPORT: &str = r#"{"outcomes": ["decided:007fff", "faulty", "pending", "discovered:expected message missing in round 2", "discovered:conflicting values presented"], "messages": 12, "bytes": 804, "rounds": 3, "per_round": [4, 8, 0], "used_fallback": [false, true], "grades": [2, null, 0, 1], "delay_log": [[0, 1024], [1, 1500]]}"#;

#[test]
fn report_bytes_are_pinned() {
    assert_eq!(report().to_json(), REPORT);
    let empty = FdRunReport {
        outcomes: Vec::new(),
        stats: NetStats::default(),
        used_fallback: Vec::new(),
        grades: Vec::new(),
        delay_log: None,
        phases: None,
    };
    assert_eq!(
        empty.to_json(),
        r#"{"outcomes": [], "messages": 0, "bytes": 0, "rounds": 0, "per_round": [], "used_fallback": [], "grades": [], "delay_log": null}"#
    );
}

#[test]
fn response_bytes_are_pinned() {
    assert_eq!(
        wire::response_to_json(Some("r1"), 1, true, Some(90), 250, REPORT),
        format!(
            r#"{{"schema_version": 1, "id": "r1", "ok": true, "shard": 1, "keydist_reused": true, "keydist_messages": 90, "wall_us": 250, "report": {REPORT}}}"#
        )
    );
    assert_eq!(
        wire::response_to_json(None, 0, false, None, 7, "{}"),
        r#"{"schema_version": 1, "id": null, "ok": true, "shard": 0, "keydist_reused": false, "keydist_messages": null, "wall_us": 7, "report": {}}"#
    );
    assert_eq!(
        wire::response_to_json(Some("say \"hi\"\\\n\u{1}é"), 2, false, Some(0), 0, "{}"),
        r#"{"schema_version": 1, "id": "say \"hi\"\\\n\u0001é", "ok": true, "shard": 2, "keydist_reused": false, "keydist_messages": 0, "wall_us": 0, "report": {}}"#
    );
    assert_eq!(
        wire::error_to_json(Some("r2"), "boom"),
        r#"{"schema_version": 1, "id": "r2", "ok": false, "error": "boom"}"#
    );
    assert_eq!(
        wire::error_to_json(None, "expected '\"' at byte 1"),
        r#"{"schema_version": 1, "id": null, "ok": false, "error": "expected '\"' at byte 1"}"#
    );
    assert_eq!(
        wire::error_to_json(Some("tab\there \"q\""), "line\nbreak"),
        r#"{"schema_version": 1, "id": "tab\there \"q\"", "ok": false, "error": "line\nbreak"}"#
    );
}

#[test]
fn sweep_document_bytes_are_pinned() {
    let row = ScenarioRow {
        scenario: scenario(Protocol::ChainFd, 5, 1, 3)
            .with_engine(Engine::Event)
            .with_latency(LatencySpec::Jitter { extra: 1 }),
        keydist_messages: Some(60),
        keydist_ok: true,
        messages: 4,
        bytes: 268,
        comm_rounds: 2,
        expected_messages: None,
        outcome: SweepOutcome::AllDecided,
        value_ok: true,
        cross_ok: true,
        search: Some(SearchRowSummary {
            strategy: Strategy::Greedy,
            episodes: 5,
            best: Score {
                message_anomaly: 2,
                ..Score::default()
            },
            replay_ok: true,
        }),
    };
    let report = SweepReport {
        rows: vec![row],
        link_latency: Vec::new(),
    };
    assert_eq!(
        report.to_json(),
        r#"{
  "link_latency": [],
  "rows": [
    {"protocol": "chain_fd", "n": 5, "t": 1, "adversary": "none", "scheme": "tiny", "seed": 3, "engine": "event", "latency": "jitter:1", "keydist_messages": 60, "messages": 4, "bytes": 268, "comm_rounds": 2, "expected_messages": null, "outcome": "all_decided", "cross_ok": true, "search": {"strategy": "greedy", "episodes": 5, "best": "anomaly:2", "replay_ok": true}, "ok": true}
  ],
  "summary": {"scenarios": 1, "ok": 1, "failed": 0, "messages_total": 64}
}
"#
    );
}

#[test]
fn search_document_bytes_are_pinned() {
    let mut config = SearchConfig::new(Protocol::ChainFd, 5, 1, 7);
    config.budget = 2;
    let episodes = vec![
        EpisodeRow {
            episode: 0,
            score: Score::default(),
            messages: 4,
            bytes: 268,
            outcome: SweepOutcome::AllDecided,
            accepted: true,
        },
        EpisodeRow {
            episode: 1,
            score: Score {
                fallback_engaged: true,
                ..Score::default()
            },
            messages: 6,
            bytes: 402,
            outcome: SweepOutcome::Discovered,
            accepted: false,
        },
    ];
    let best = ScheduleCert {
        config: config.clone(),
        episode: 0,
        perturbations: vec![
            Perturbation {
                index: 0,
                round: 0,
                ticks: 1024,
            },
            Perturbation {
                index: 1,
                round: 1,
                ticks: 2047,
            },
        ],
    };
    let report = SearchReport {
        config,
        episodes,
        best,
        best_score: Score::default(),
        best_messages: 4,
        best_bytes: 268,
        best_outcome: SweepOutcome::AllDecided,
        replay_ok: true,
    };
    assert_eq!(
        report.to_json(),
        r#"{
  "config": {"protocol": "chain_fd", "n": 5, "t": 1, "scheme": "tiny", "seed": 7, "latency": "jitter:2", "adversary": "none", "strategy": "random", "budget": 2},
  "episodes": [
    {"episode": 0, "score": "clean", "messages": 4, "bytes": 268, "outcome": "all_decided", "accepted": true},
    {"episode": 1, "score": "fallback", "messages": 6, "bytes": 402, "outcome": "discovered", "accepted": false}
  ],
  "best": {"episode": 0, "score": "clean", "messages": 4, "bytes": 268, "outcome": "all_decided", "perturbations": [{"index": 0, "round": 0, "ticks": 1024}, {"index": 1, "round": 1, "ticks": 2047}]},
  "summary": {"episodes": 2, "findings": 1, "silent_found": false, "replay_ok": true}
}
"#
    );
}
