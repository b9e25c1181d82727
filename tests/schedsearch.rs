//! Integration tests for the adversarial scheduler search: certificate
//! replay across seeds and strategies, report determinism, the
//! timing-faulted classification of search-induced schedules, and the
//! `lafd search` / `--link-latency` CLI surfaces.

use local_auth_fd::core::schedsearch::{replay, run_search, SearchConfig, Strategy};
use local_auth_fd::core::sweep::{Protocol, SweepOutcome};
use local_auth_fd::simnet::LatencySpec;
use std::process::Command;

/// Satellite contract: a found schedule re-executed on a fresh
/// `EventNetwork` reproduces identical message counts, bytes, and outcome
/// — ≥ 10 seeds, both strategies.
#[test]
fn schedule_certs_replay_identically_across_seeds_and_strategies() {
    for strategy in Strategy::ALL {
        for seed in 0..10u64 {
            let config = SearchConfig {
                strategy,
                budget: 5,
                ..SearchConfig::new(Protocol::ChainFd, 6, 1, seed)
            };
            let report = run_search(&config).expect("valid config");
            assert!(
                report.replay_ok,
                "{strategy} seed {seed}: in-search replay failed"
            );
            report.best.validate().expect("cert within latency bounds");
            // Independent replay from scratch (fresh cluster, fresh key
            // distribution, fresh network) must measure the same run.
            let replayed = replay(&report.best);
            assert_eq!(replayed.messages, report.best_messages, "{strategy} {seed}");
            assert_eq!(replayed.bytes, report.best_bytes, "{strategy} {seed}");
            assert_eq!(replayed.outcome, report.best_outcome, "{strategy} {seed}");
            assert_eq!(replayed.score, report.best_score, "{strategy} {seed}");
            // And replaying twice is idempotent.
            assert_eq!(replay(&report.best), replayed, "{strategy} {seed}");
        }
    }
}

/// Acceptance: the same search config yields byte-identical JSON and
/// markdown reports on every invocation, and never silent disagreement.
#[test]
fn search_reports_are_byte_deterministic() {
    for strategy in Strategy::ALL {
        let config = SearchConfig {
            strategy,
            budget: 12,
            ..SearchConfig::new(Protocol::ChainFd, 8, 2, 7)
        };
        let a = run_search(&config).expect("valid config");
        let b = run_search(&config).expect("valid config");
        assert_eq!(a.to_json(), b.to_json(), "{strategy}");
        assert_eq!(a.to_markdown(), b.to_markdown(), "{strategy}");
        assert!(!a.silent_found(), "{strategy}: paper property violated");
    }
}

/// Satellite fix: schedule-search runs are treated like timing-faulted
/// rows — an FD→BA fallback split under a search-induced schedule is
/// *discovered* (loud), never classified as silent disagreement, even
/// though no link fault was installed and the base network is unfaulted.
#[test]
fn search_induced_fallback_splits_classify_as_loud_not_silent() {
    let config = SearchConfig {
        budget: 30,
        ..SearchConfig::new(Protocol::FdToBa, 7, 2, 3)
    };
    let report = run_search(&config).expect("valid config");
    for episode in &report.episodes {
        assert_ne!(
            episode.outcome,
            SweepOutcome::SilentDisagreement,
            "search-induced schedule misclassified: {episode:?}"
        );
        // A loud disagreement implies the discovery evidence was counted.
        if episode.score.loud_disagreement {
            assert_eq!(episode.outcome, SweepOutcome::Discovered, "{episode:?}");
        }
    }
    // The adversarial scheduler does split the FD→BA fallback at this
    // shape — the point of the fix is that the split is loud.
    assert!(
        report.episodes.iter().any(|e| e.score.loud_disagreement
            || e.score.fallback_engaged
            || e.score.message_anomaly > 0),
        "no episode perturbed the run at all: {report:?}"
    );
}

/// The search also composes with a byzantine adversary: the scheduler
/// and a silent relay together still never produce silent disagreement.
#[test]
fn search_with_byzantine_relay_stays_loud() {
    use local_auth_fd::core::adversary::AdversarySpec;
    use local_auth_fd::core::sweep::AdversaryKind;
    let base = SearchConfig::new(Protocol::ChainFd, 6, 1, 5);
    let config = SearchConfig {
        spec: base
            .spec
            .with_adversary(AdversarySpec::scripted(AdversaryKind::SilentRelay)),
        budget: 8,
        ..base
    };
    let report = run_search(&config).expect("valid config");
    assert!(!report.silent_found());
    assert!(report.replay_ok);
}

/// Degenerate envelopes (`sync`) leave the scheduler no freedom: every
/// episode equals the clean baseline.
#[test]
fn sync_latency_gives_the_scheduler_no_power() {
    let base = SearchConfig::new(Protocol::DolevStrong, 5, 1, 9);
    let config = SearchConfig {
        spec: base.spec.with_latency(LatencySpec::Synchronous),
        budget: 4,
        ..base
    };
    let report = run_search(&config).expect("valid config");
    assert!(report.episodes.iter().all(|e| e.score.is_clean()));
    assert_eq!(report.best_outcome, SweepOutcome::AllDecided);
}

/// Regression: Dolev–Strong has no FD discovery channel of its own, and
/// an adversarial schedule can starve one node of every chain until past
/// its accept horizon. The node decides the default — but the late
/// arrivals are recorded as discovered timing violations, so the split
/// is loud. (Before the fix, post-decision arrivals were silently
/// ignored and small-`n` searches found genuine silent disagreement.)
#[test]
fn dolev_strong_starvation_is_loud_not_silent() {
    for seed in 1..=5u64 {
        let config = SearchConfig {
            budget: 25,
            ..SearchConfig::new(Protocol::DolevStrong, 6, 1, seed)
        };
        let report = run_search(&config).expect("valid config");
        assert!(!report.silent_found(), "seed {seed}: {report:?}");
        assert!(report.replay_ok, "seed {seed}");
    }
}

/// Under partial synchrony the envelope narrows at the GST boundary, and
/// an accepted perturbation can shift a message across it. The search
/// must still only emit certificates that validate against the actual
/// send rounds.
#[test]
fn psync_certs_stay_admissible() {
    for strategy in Strategy::ALL {
        for seed in [1u64, 2, 3] {
            let config = SearchConfig {
                spec: SearchConfig::new(Protocol::ChainFd, 6, 1, seed)
                    .spec
                    .with_latency(LatencySpec::PartialSynchrony { gst: 2, extra: 2 }),
                strategy,
                budget: 10,
            };
            let report = run_search(&config).expect("valid config");
            report
                .best
                .validate()
                .unwrap_or_else(|e| panic!("{strategy} seed {seed}: {e}"));
            assert!(report.replay_ok, "{strategy} seed {seed}");
            assert!(!report.silent_found(), "{strategy} seed {seed}");
        }
    }
}

fn lafd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lafd"))
}

/// `lafd search` smoke: exits zero, prints the report, and two identical
/// invocations write byte-identical JSON.
#[test]
fn cli_search_is_deterministic_and_green() {
    let dir = std::env::temp_dir();
    let path_a = dir.join("lafd-search-test-a.json");
    let path_b = dir.join("lafd-search-test-b.json");
    for path in [&path_a, &path_b] {
        let out = lafd()
            .args([
                "search",
                "chainfd",
                "--budget",
                "10",
                "--strategy",
                "random",
                "--seed",
                "7",
                "-n",
                "6",
                "--json",
                path.to_str().expect("utf8 temp path"),
            ])
            .output()
            .expect("run lafd");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("lafd search report"), "stdout: {stdout}");
        assert!(stdout.contains("silent disagreement never observed"));
    }
    let a = std::fs::read(&path_a).expect("read a");
    let b = std::fs::read(&path_b).expect("read b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "JSON reports differ between identical invocations");
    let _ = std::fs::remove_file(path_a);
    let _ = std::fs::remove_file(path_b);
}

/// `lafd search` with the greedy strategy also runs green.
#[test]
fn cli_search_greedy_smoke() {
    let out = lafd()
        .args([
            "search",
            "ba",
            "--budget",
            "6",
            "--strategy",
            "greedy",
            "-n",
            "7",
        ])
        .output()
        .expect("run lafd");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Satellite smoke: `lafd run --link-latency` slows one link, which the
/// chain protocol discovers; bad specs are rejected with range errors.
#[test]
fn cli_link_latency_smoke() {
    let out = lafd()
        .args(["run", "chain", "-n", "6", "--link-latency", "0:1:fixed:3"])
        .output()
        .expect("run lafd");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("engine = event"), "stdout: {stdout}");
    assert!(stdout.contains("1 link override(s)"), "stdout: {stdout}");
    assert!(stdout.contains("classification: discovered"));

    // Range validation: node id beyond n.
    let out = lafd()
        .args(["run", "chain", "-n", "6", "--link-latency", "7:1:fixed:3"])
        .output()
        .expect("run lafd");
    assert!(!out.status.success());
    // Engine contradiction is an error, not a silent override.
    let out = lafd()
        .args([
            "run",
            "chain",
            "-n",
            "6",
            "--engine",
            "sync",
            "--link-latency",
            "0:1:fixed:3",
        ])
        .output()
        .expect("run lafd");
    assert!(!out.status.success());
}

/// `lafd sweep --search` attaches search summaries to event rows and
/// stays deterministic.
#[test]
fn cli_sweep_search_axis_smoke() {
    let out = lafd()
        .args([
            "sweep",
            "--protocols",
            "chain",
            "--sizes",
            "5",
            "--seeds",
            "1",
            "--engines",
            "event",
            "--latencies",
            "jitter:1",
            "--search",
            "3:greedy",
            "--threads",
            "2",
        ])
        .output()
        .expect("run lafd");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("greedy:"), "stdout: {stdout}");
    assert!(stdout.contains("0 failed"), "stdout: {stdout}");
}
