//! Chaos campaigns behind `lafd chaos`: seeded fault specs run through
//! [`supervise`], each checked against the outcome its spec predicts
//! ([`chaos_expected`]) and, where a report came back, byte-compared
//! with the matching in-process reference run. The result is the
//! `lafd-chaos-report-v1` document ([`ChaosReport::to_json`]).

use super::supervise::{degraded, supervise, ClusterConfig, Resilience};
use crate::spec::SpecBuilder;
use crate::wire::Value;
use fd_simnet::transport::chaos::ChaosSpec;
use std::io::Write;
use std::path::Path;

/// How a chaos campaign ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// The run finished with every slot alive.
    Recovered,
    /// The run finished under crash-adversary degradation.
    Degraded,
    /// The run failed.
    Failed,
}

impl ChaosOutcome {
    /// The report name (`recovered`, `degraded`, `failed`).
    pub fn name(self) -> &'static str {
        match self {
            ChaosOutcome::Recovered => "recovered",
            ChaosOutcome::Degraded => "degraded",
            ChaosOutcome::Failed => "failed",
        }
    }
}

/// The outcome a chaos spec should produce under a given fault budget:
/// slots whose kill rules outlive the restart budget stay down, so up to
/// `t` of them degrade the run and more than `t` must fail it.
pub fn chaos_expected(spec: &ChaosSpec, t: usize, max_restarts: u64) -> ChaosOutcome {
    let mut persistent: Vec<usize> = spec
        .kills
        .iter()
        .filter(|kill| kill.times > max_restarts)
        .map(|kill| kill.node)
        .collect();
    persistent.sort_unstable();
    persistent.dedup();
    if persistent.len() > t {
        ChaosOutcome::Failed
    } else if !persistent.is_empty() {
        ChaosOutcome::Degraded
    } else {
        ChaosOutcome::Recovered
    }
}

/// One named fault campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The campaign's name in the report.
    pub name: String,
    /// The spec as written (the report echoes it).
    pub text: String,
    /// The parsed spec.
    pub spec: ChaosSpec,
}

impl Campaign {
    /// Parse campaign `name` with spec `text`.
    pub fn parse(name: &str, text: &str) -> Result<Campaign, String> {
        Ok(Campaign {
            name: name.to_string(),
            text: text.to_string(),
            spec: ChaosSpec::parse(text).map_err(|e| format!("campaign {name}: {e}"))?,
        })
    }
}

/// The default matrix for runs seeded `seed` with fault budget `t`: pure
/// network noise (must recover in place), a transient kill (must recover
/// via restart), a slot that never comes back (must degrade if the budget
/// allows), and more dead slots than `t` (must fail loudly). At `t = 0`
/// only the noise campaign runs.
pub fn default_campaigns(seed: u64, t: usize) -> Vec<Campaign> {
    let mut specs = vec![(
        "noise",
        format!("seed={seed};connect=25;reset=15;accept-delay=30:2;stall=30:2"),
    )];
    if t >= 1 {
        let beyond: Vec<String> = (0..=t)
            .map(|node| format!("kill={node}@round:1xinf"))
            .collect();
        specs.extend([
            (
                "kill-one-transient",
                format!("seed={seed};kill=1@round:1;connect=10"),
            ),
            ("kill-one-dead", format!("seed={seed};kill=1@round:1xinf")),
            ("kill-beyond-t", format!("seed={seed};{}", beyond.join(";"))),
        ]);
    }
    specs
        .into_iter()
        .map(|(name, text)| Campaign::parse(name, &text).expect("default campaigns parse"))
        .collect()
}

/// One campaign's row of the report.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// The campaign's name.
    pub name: String,
    /// The spec as written.
    pub spec: String,
    /// The outcome its spec predicts.
    pub expected: ChaosOutcome,
    /// The outcome the supervised run reached.
    pub outcome: ChaosOutcome,
    /// The run's counters (a failed run's included).
    pub resilience: Resilience,
    /// Whether a produced report matched its in-process reference
    /// (vacuously true for a failed run).
    pub report_match: bool,
}

impl CampaignRow {
    /// Whether the campaign behaved: the predicted outcome and a
    /// matching report.
    pub fn ok(&self) -> bool {
        self.outcome == self.expected && self.report_match
    }
}

/// The robustness matrix of one `lafd chaos` invocation.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The supervised run shape.
    pub builder: SpecBuilder,
    /// The restart budget per slot.
    pub max_restarts: u64,
    /// One row per campaign, in order.
    pub rows: Vec<CampaignRow>,
}

impl ChaosReport {
    /// Whether every campaign behaved.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(CampaignRow::ok)
    }

    /// The `lafd-chaos-report-v1` document, one line.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|row| {
            let res = &row.resilience;
            Value::obj(vec![
                ("name", row.name.as_str().into()),
                ("spec", row.spec.as_str().into()),
                ("expected", row.expected.name().into()),
                ("outcome", row.outcome.name().into()),
                ("generations", res.generations.into()),
                ("retries", res.retries.into()),
                ("dead", res.dead.as_slice().into()),
                ("report_match", row.report_match.into()),
                ("ok", row.ok().into()),
            ])
        });
        Value::obj(vec![
            ("schema", "lafd-chaos-report-v1".into()),
            ("protocol", self.builder.protocol.name().into()),
            ("n", self.builder.n.into()),
            ("t", self.builder.resolved_t().into()),
            ("max_restarts", self.max_restarts.into()),
            ("campaigns", Value::Arr(rows.collect())),
            ("ok", self.ok().into()),
        ])
        .to_json()
    }
}

/// The in-process report `builder` produces.
fn reference(builder: &SpecBuilder) -> Result<String, String> {
    let (cluster, spec) = builder.clone().build()?;
    Ok(cluster.run(&spec).to_json())
}

/// Run each campaign as a supervised cluster of `exe` processes
/// configured by `cfg` (whose own `chaos` is replaced by the campaign's).
/// A recovered run must reproduce the fault-free in-process report, and
/// a degraded one the in-process run with its dead slots scripted as
/// crashes. Progress lines go to `out`, as [`supervise`]'s do. Errors
/// when a reference run cannot be built or `out` cannot be written.
pub fn run_campaigns(
    exe: &Path,
    builder: &SpecBuilder,
    cfg: &ClusterConfig,
    campaigns: &[Campaign],
    out: &mut impl Write,
) -> Result<ChaosReport, String> {
    let fault_free = reference(builder)?;
    let t = builder.resolved_t();
    let mut rows = Vec::with_capacity(campaigns.len());
    for campaign in campaigns {
        let name = &campaign.name;
        let expected = chaos_expected(&campaign.spec, t, cfg.max_restarts);
        let campaign_cfg = ClusterConfig {
            chaos: Some(campaign.spec.clone()),
            ..cfg.clone()
        };
        writeln!(out, "chaos campaign {name}: spec {}", campaign.text)
            .map_err(|e| format!("write: {e}"))?;
        let (outcome, resilience, report_match) = match supervise(exe, builder, &campaign_cfg, out)
        {
            Ok(run) => {
                let res = run.resilience;
                let (outcome, expected_report) = if res.degraded {
                    let degraded_reference = reference(&degraded(builder, &res.dead))
                        .map_err(|e| format!("campaign {name}: degraded reference: {e}"))?;
                    (ChaosOutcome::Degraded, degraded_reference)
                } else {
                    (ChaosOutcome::Recovered, fault_free.clone())
                };
                (outcome, res, run.report.to_json() == expected_report)
            }
            Err(aborted) => {
                eprintln!("error: campaign {name}: {}", aborted.error);
                (ChaosOutcome::Failed, aborted.resilience, true)
            }
        };
        writeln!(
            out,
            "chaos campaign {name}: {} (expected {}) generations={} retries={} dead={:?} report-match={report_match}",
            outcome.name(),
            expected.name(),
            resilience.generations,
            resilience.retries,
            resilience.dead,
        )
        .map_err(|e| format!("write: {e}"))?;
        rows.push(CampaignRow {
            name: name.clone(),
            spec: campaign.text.clone(),
            expected,
            outcome,
            resilience,
            report_match,
        });
    }
    Ok(ChaosReport {
        builder: builder.clone(),
        max_restarts: cfg.max_restarts,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Protocol;
    use crate::wire::Value;
    use ChaosOutcome::{Degraded, Failed, Recovered};

    #[test]
    fn the_default_matrix_predicts_recovered_degraded_and_failed() {
        for t in [1, 2] {
            let predicted: Vec<(String, ChaosOutcome)> = default_campaigns(23, t)
                .into_iter()
                .map(|c| (c.name, chaos_expected(&c.spec, t, 1)))
                .collect();
            let names = [
                "noise",
                "kill-one-transient",
                "kill-one-dead",
                "kill-beyond-t",
            ];
            let outcomes = [Recovered, Recovered, Degraded, Failed];
            let expected: Vec<(String, ChaosOutcome)> = names
                .map(str::to_string)
                .into_iter()
                .zip(outcomes)
                .collect();
            assert_eq!(predicted, expected, "t = {t}");
        }
        let beyond = &default_campaigns(23, 2)[3];
        assert_eq!(
            beyond.text,
            "seed=23;kill=0@round:1xinf;kill=1@round:1xinf;kill=2@round:1xinf"
        );
        // t = 0 has no room for a dead slot: noise only.
        assert_eq!(default_campaigns(23, 0).len(), 1);
    }

    #[test]
    fn a_failed_row_reports_the_generations_it_ran_and_its_dead_slots() {
        let campaign = &default_campaigns(23, 1)[3];
        let report = ChaosReport {
            builder: SpecBuilder::new(Protocol::ChainFd, 4).with_t(1),
            max_restarts: 1,
            rows: vec![CampaignRow {
                name: campaign.name.clone(),
                spec: campaign.text.clone(),
                expected: Failed,
                outcome: Failed,
                resilience: Resilience {
                    generations: 2,
                    retries: 0,
                    dead: vec![0, 1],
                    degraded: false,
                },
                report_match: true,
            }],
        };
        assert!(report.ok());
        let doc = Value::parse(&report.to_json()).expect("one JSON document");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("lafd-chaos-report-v1")
        );
        let row = &doc.get("campaigns").and_then(Value::as_arr).expect("rows")[0];
        assert_eq!(row.get("outcome").and_then(Value::as_str), Some("failed"));
        assert_eq!(row.get("generations").and_then(Value::as_int), Some(2));
        let dead = row.get("dead").and_then(Value::as_arr).expect("dead");
        assert_eq!(
            dead.iter().filter_map(Value::as_int).collect::<Vec<_>>(),
            [0, 1]
        );
    }
}
