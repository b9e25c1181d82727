//! The op checker: a report only counts when it is the right answer.

use crate::gen::{Expect, Op};
use crate::json::Json;
use fd_core::props;
use fd_core::wire;

/// The counts of a checked report (feed `msgs_per_op`/`wire_bytes_per_op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    pub messages: usize,
    pub bytes: usize,
}

/// The report an in-process `Cluster::run` of the op's own `SpecBuilder`
/// produces: the byte-identity reference for every execution path.
pub fn reference_report(op: &Op) -> String {
    let (cluster, spec) = op.builder.build().expect("generated ops validate");
    cluster.run(&spec).to_json()
}

/// Check one report against what the op must produce. `reference`, when
/// given, must match byte for byte.
pub fn check_report(
    op: &Op,
    report_json: &str,
    reference: Option<&str>,
) -> Result<Checked, String> {
    let report = wire::report_from_json(report_json).map_err(|e| format!("report: {e}"))?;
    let (n, t) = (op.builder.n, op.builder.resolved_t());
    match op.expect {
        Expect::Honest => {
            let expected = op.builder.protocol.expected_messages(n, t);
            if report.stats.messages_total != expected {
                return Err(format!(
                    "{} n={n} t={t}: {} messages, closed form says {expected}",
                    op.builder.protocol, report.stats.messages_total
                ));
            }
            if !report.all_decided(&op.builder.input) {
                return Err(format!(
                    "{} n={n}: not every node decided the input",
                    op.builder.protocol
                ));
            }
        }
        Expect::Discovery => {
            // The corrupt node is a relay, so the sender is correct and F3
            // applies with its input.
            let verdict = props::check_fd(&report.correct_outcomes(), Some(&op.builder.input));
            if !verdict.all_ok() {
                return Err(format!("tampered run violates F1-F3: {verdict:?}"));
            }
            if !verdict.any_discovery {
                return Err("tampered run: nobody discovered the failure".to_string());
            }
        }
    }
    if let Some(reference) = reference {
        if report_json != reference {
            return Err(format!(
                "{} n={n} seed={}: report differs from the in-process reference",
                op.builder.protocol, op.builder.seed
            ));
        }
    }
    Ok(Checked {
        messages: report.stats.messages_total,
        bytes: report.stats.bytes_total,
    })
}

/// What one `lafd serve` response carried besides the report.
#[derive(Debug, Clone, Copy)]
pub struct ServeReply {
    pub checked: Checked,
    pub shard: usize,
    /// Server-reported execution time.
    pub wall_us: u64,
}

/// Check one `lafd serve` response line: `ok`, a correct report, and a warm
/// session (`keydist_reused` exactly when the protocol needs keys).
///
/// The envelope is read with the benchmark's own linear JSON reader and the
/// report's bytes are taken from the line as they arrived, so the program's
/// decoder runs once per response (`wire::report_from_json` inside
/// [`check_report`]), not three times as `wire::response_from_json` would.
pub fn check_response(op: &Op, line: &str, reference: Option<&str>) -> Result<ServeReply, String> {
    let envelope = Json::parse(line).map_err(|e| format!("response: {e}"))?;
    if envelope.get("ok") != Some(&Json::Bool(true)) {
        let error = envelope.get("error").and_then(Json::as_str).unwrap_or(line);
        return Err(format!("server answered an error: {error}"));
    }
    const MARK: &str = "\"report\": ";
    let report = line
        .find(MARK)
        .and_then(|at| line[at + MARK.len()..].strip_suffix('}'))
        .ok_or("response: no report object at the end of the line")?;
    let checked = check_report(op, report, reference)?;
    let field = |key: &str| {
        envelope
            .get(key)
            .ok_or_else(|| format!("response: no {key}"))
    };
    let reused = field("keydist_reused")? == &Json::Bool(true);
    if reused != op.builder.protocol.needs_keys() {
        return Err(format!(
            "{} n={}: keydist_reused is {reused} on a warm session",
            op.builder.protocol, op.builder.n
        ));
    }
    let number = |key: &str| {
        field(key)?
            .as_f64()
            .ok_or_else(|| format!("response: {key} is not a number"))
    };
    Ok(ServeReply {
        checked,
        shard: number("shard")? as usize,
        wall_us: number("wall_us")? as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{op, Workload};

    #[test]
    fn reference_reports_pass_their_own_check() {
        // One full serve-warm cycle covers every protocol and the tamper op.
        for i in 0..Workload::ServeWarm.cycle_len() {
            let op = op(Workload::ServeWarm, 11, 0, i);
            let reference = reference_report(&op);
            let checked = check_report(&op, &reference, Some(&reference)).expect("passes");
            assert!(checked.messages > 0 && checked.bytes > 0);
        }
    }

    #[test]
    fn wrong_value_wrong_count_and_byte_drift_fail() {
        let honest = op(Workload::ClusterChaos, 11, 0, 0);
        let reference = reference_report(&honest);
        // Another op's report: decided values differ.
        let other = reference_report(&op(Workload::ClusterChaos, 12, 0, 0));
        assert!(check_report(&honest, &other, None).is_err());
        // Same outcomes, one message more than the closed form.
        let inflated = reference.replace("\"messages\": 7,", "\"messages\": 8,");
        assert_ne!(inflated, reference);
        assert!(check_report(&honest, &inflated, None)
            .unwrap_err()
            .contains("closed form"));
        // Semantically fine, but not the reference bytes.
        let drifted = reference.replace("\"rounds\": ", "\"rounds\":  ");
        assert!(check_report(&honest, &drifted, None).is_ok());
        assert!(check_report(&honest, &drifted, Some(&reference)).is_err());
        assert!(check_report(&honest, "not json", None).is_err());
    }

    #[test]
    fn honest_report_fails_a_discovery_expectation() {
        let tamper = op(Workload::ServeWarm, 11, 0, 7);
        assert_eq!(tamper.expect, Expect::Discovery);
        let mut honest = tamper.clone();
        honest.builder = honest
            .builder
            .with_adversary(fd_core::AdversarySpec::Honest);
        let report = reference_report(&honest);
        assert!(check_report(&tamper, &report, None)
            .unwrap_err()
            .contains("nobody discovered"));
    }

    #[test]
    fn responses_are_checked_from_the_bytes_on_the_line() {
        let chain = op(Workload::ServeWarm, 11, 0, 0);
        let report = reference_report(&chain);
        let ok = wire::response_to_json(None, 1, true, Some(816), 250, &report);
        let reply = check_response(&chain, &ok, Some(&report)).expect("passes");
        assert_eq!((reply.shard, reply.wall_us), (1, 250));
        assert_eq!(reply.checked.messages, 16);
        // A cold session on a keyed protocol is a failed op.
        let cold = wire::response_to_json(None, 1, false, Some(816), 250, &report);
        assert!(check_response(&chain, &cold, None)
            .unwrap_err()
            .contains("keydist_reused"));
        // Key-free protocols never reuse.
        let free = op(Workload::ServeWarm, 11, 0, 5);
        let line = wire::response_to_json(None, 1, false, None, 9, &reference_report(&free));
        check_response(&free, &line, None).expect("passes");
        let error = wire::error_to_json(None, "boom");
        assert!(check_response(&chain, &error, None)
            .unwrap_err()
            .contains("boom"));
    }
}
