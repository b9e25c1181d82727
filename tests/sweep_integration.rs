//! Integration tests for the scenario-sweep engine: determinism of the
//! report across thread counts and re-runs, formula conformance of the
//! default matrix, and the `lafd sweep` CLI surface.

use local_auth_fd::core::sweep::{
    run_sweep, AdversaryKind, FaultRule, LocalExecutor, Protocol, ScenarioExecutor, SweepMatrix,
    SweepOutcome,
};
use local_auth_fd::core::wire;
use local_auth_fd::simnet::{Engine, LinkLatencySpec};
use std::process::Command;

/// Same seed + same matrix ⇒ byte-identical JSON report, no matter how
/// many threads execute it or how often it reruns.
#[test]
fn sweep_report_is_reproducible_byte_for_byte() {
    let matrix = SweepMatrix {
        protocols: vec![Protocol::ChainFd, Protocol::Degradable, Protocol::PhaseKing],
        sizes: vec![5, 9],
        fault_rule: FaultRule::Classic,
        adversaries: vec![AdversaryKind::None, AdversaryKind::SilentRelay],
        schemes: vec!["tiny"],
        seeds: vec![7, 8],
        ..SweepMatrix::quick()
    };
    let first = run_sweep(&matrix, 1);
    let second = run_sweep(&matrix, 4);
    let third = run_sweep(&matrix, 4);
    assert_eq!(first.to_json(), second.to_json());
    assert_eq!(second.to_json(), third.to_json());
    assert_eq!(first.to_markdown(), second.to_markdown());
}

/// The default matrix is the acceptance matrix: ≥ 24 scenarios, every row
/// matching the paper's closed-form formulas.
#[test]
fn default_matrix_matches_closed_forms() {
    let matrix = SweepMatrix::default_matrix();
    assert!(matrix.scenarios().len() >= 24);
    let report = run_sweep(&matrix, 4);
    assert!(report.all_ok(), "failures: {:?}", report.failures());
    for row in &report.rows {
        if row.scenario.adversary.is_honest() {
            assert_eq!(
                row.expected_messages,
                Some(row.messages),
                "formula mismatch: {row:?}"
            );
            assert_eq!(row.outcome, SweepOutcome::AllDecided, "{row:?}");
        } else {
            assert_ne!(row.outcome, SweepOutcome::SilentDisagreement, "{row:?}");
        }
    }
}

/// Scheme choice changes bytes on the wire but never message counts.
#[test]
fn schemes_change_bytes_not_messages() {
    let base = SweepMatrix {
        protocols: vec![Protocol::ChainFd],
        sizes: vec![5],
        fault_rule: FaultRule::Classic,
        adversaries: vec![AdversaryKind::None],
        schemes: vec!["tiny", "dsa-tiny"],
        seeds: vec![1],
        ..SweepMatrix::quick()
    };
    let report = run_sweep(&base, 2);
    assert_eq!(report.rows.len(), 2);
    assert_eq!(report.rows[0].messages, report.rows[1].messages);
    assert!(report.all_ok());
}

/// The remote sweep path over every row of the shipped matrices: a row
/// encoded as a wire request, decoded, built, and run reports the same
/// bytes as the local executor. `lafd sweep --remote` relies on exactly
/// this.
#[test]
fn every_matrix_row_survives_the_wire() {
    let links = SweepMatrix {
        engines: vec![Engine::Sync, Engine::Event],
        sizes: vec![4, 7],
        link_latency: vec![LinkLatencySpec::parse("0:1:fixed:3").unwrap()],
        ..SweepMatrix::default_matrix()
    };
    for matrix in [
        SweepMatrix::default_matrix(),
        SweepMatrix::cross_validation(),
        SweepMatrix::latency_matrix(),
        links,
    ] {
        for row in matrix.scenarios() {
            let request = wire::request_to_json(&row, None).unwrap();
            let (decoded, _) = wire::request_from_json(&request).unwrap();
            let (cluster, spec) = decoded.build().unwrap();
            let (_, local) = LocalExecutor.execute(&row).unwrap();
            assert_eq!(cluster.run(&spec).to_json(), local.to_json(), "{request}");
        }
    }
}

fn lafd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lafd"))
}

/// `lafd sweep` smoke test: a small matrix on 4 threads succeeds and
/// prints the report table.
#[test]
fn cli_sweep_smoke() {
    let out = lafd()
        .args([
            "sweep",
            "--threads",
            "4",
            "--protocols",
            "chain,nonauth",
            "--sizes",
            "4,6",
            "--seeds",
            "1",
        ])
        .output()
        .expect("run lafd");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| chain_fd | 4 |"), "stdout: {stdout}");
    assert!(stdout.contains("0 failed"), "stdout: {stdout}");
}

/// `lafd sweep --json` writes the same bytes the library produces, and a
/// second invocation reproduces them exactly.
#[test]
fn cli_sweep_json_is_deterministic() {
    let dir = std::env::temp_dir();
    let path_a = dir.join("lafd-sweep-test-a.json");
    let path_b = dir.join("lafd-sweep-test-b.json");
    for path in [&path_a, &path_b] {
        let out = lafd()
            .args([
                "sweep",
                "--threads",
                "2",
                "--protocols",
                "chain,ds",
                "--sizes",
                "4,7",
                "--seeds",
                "3",
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
    }
    let a = std::fs::read(&path_a).expect("read a");
    let b = std::fs::read(&path_b).expect("read b");
    assert!(!a.is_empty());
    assert_eq!(a, b, "JSON reports differ between identical invocations");
    let _ = std::fs::remove_file(path_a);
    let _ = std::fs::remove_file(path_b);
}

/// Bad flags fail fast with a usage message, not a panic.
#[test]
fn cli_sweep_rejects_unknown_flags() {
    let out = lafd()
        .args(["sweep", "--bogus", "1"])
        .output()
        .expect("run lafd");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown sweep flag"), "stderr: {stderr}");
}

/// The measuring subcommands are gone (the repo benchmark and the
/// counter tests in `perf_equivalence.rs` replace them): each exits 1
/// with `unknown command` on stderr.
#[test]
fn cli_rejects_retired_measuring_subcommands() {
    for args in [&["bench", "--quick"][..], &["report"][..]] {
        let out = lafd().args(args).output().expect("run lafd");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown command"), "{args:?}: {stderr}");
    }
}

/// Every name of the scheme table works on every subcommand, aliases
/// included, and reports carry the canonical name.
#[test]
fn cli_accepts_every_scheme_table_name() {
    let out = lafd()
        .args([
            "sweep",
            "--schemes",
            "schnorr-tiny,dsa",
            "--protocols",
            "chain",
            "--sizes",
            "4",
            "--seeds",
            "1",
        ])
        .output()
        .expect("run lafd");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| tiny |"), "stdout: {stdout}");
    assert!(stdout.contains("| dsa-tiny |"), "stdout: {stdout}");
    for args in [
        &["run", "chain", "-n", "4", "--scheme", "schnorr-tiny"][..],
        &[
            "search", "chain", "-n", "4", "--scheme", "s1024", "--budget", "2",
        ][..],
    ] {
        let out = lafd().args(args).output().expect("run lafd");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
