//! `lafd-benchmark compare A B`: two sets of runs, one verdict per workload
//! and end-to-end metric, judged with the bounds `BENCHMARK.json` fixes.
//!
//! A set is the file `run --out` appends to: one JSON object per line with
//! `workload`, `seed`, `trace` and the run's `result`. Only untraced runs
//! are compared; per-layer metrics have no bound.

use crate::json::Json;
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The spread of either set is wider than the bound, so a difference of
    /// the size the bound guards against cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s (negative
/// when it is better).
fn worse_by(a: &[f64], b: &[f64], lower_is_better: bool) -> Option<f64> {
    let (ma, mb) = (median(a)?, median(b)?);
    if ma == 0.0 {
        return None;
    }
    let rise = (mb - ma) / ma.abs();
    Some(if lower_is_better { rise } else { -rise })
}

/// Judge set `b` against set `a`. `setup_s` is `spread_exempt`: the contract
/// bounds its median only.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    spread_exempt: bool,
) -> Verdict {
    let Some(delta) = worse_by(a, b, lower_is_better) else {
        return Verdict::Unresolved;
    };
    let widest = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if !spread_exempt && widest > bound {
        // Noise wider than the bound still resolves when the sets do not
        // overlap at all in the better direction.
        let every_b_better = a.iter().all(|x| {
            b.iter()
                .all(|y| if lower_is_better { y < x } else { y > x })
        });
        return if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `workload -> metric -> values` of the untraced runs in a set.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut set = RunSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", i + 1);
        let doc = Json::parse(line).map_err(|e| at(&e))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or_else(|| at("no result.metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// `(name, lower_is_better, bound)` of every end-to-end metric.
fn load_bounds(path: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .ok_or_else(|| format!("{path}: metric without {key}"))
            };
            let name = field("name")?.as_str().unwrap_or_default().to_string();
            let lower = match field("better")?.as_str() {
                Some("lower") => true,
                Some("higher") => false,
                other => return Err(format!("{path}: {name}: better is {other:?}")),
            };
            let bound = field("bound")?
                .as_f64()
                .ok_or_else(|| format!("{path}: {name}: bound is not a number"))?;
            Ok((name, lower, bound))
        })
        .collect()
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = it.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare needs exactly two result files".to_string());
    };
    let bounds = load_bounds(&benchmark)?;
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound"
    );
    let mut any_worse = false;
    for (workload, a_metrics) in &a {
        for (name, lower, bound) in &bounds {
            let (Some(av), Some(bv)) = (
                a_metrics.get(name),
                b.get(workload).and_then(|m| m.get(name)),
            ) else {
                return Err(format!(
                    "{workload}: {name} is missing from one of the sets"
                ));
            };
            let v = verdict(av, bv, *lower, *bound, name == "setup_s");
            any_worse |= v == Verdict::Worse;
            let pct = |x: Option<f64>| {
                x.map_or_else(|| "-".to_string(), |x| format!("{:+.1}%", x * 100.0))
            };
            println!(
                "{workload:<14} {name:<18} {:>12.4} {:>12.4} {:>8} {:>8} {:>8} {:>5.1}%  {} (n={}/{})",
                median(av).unwrap_or(f64::NAN),
                median(bv).unwrap_or(f64::NAN),
                pct(worse_by(av, bv, true)),
                pct(spread(av)),
                pct(spread(bv)),
                bound * 100.0,
                v.name(),
                av.len(),
                bv.len()
            );
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        let base = around(100.0, 0.2);
        // Lower is better: +12 % is worse, -12 % better, +5 % the same.
        assert_eq!(
            verdict(&base, &around(112.0, 0.2), true, 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &around(88.0, 0.2), true, 0.10, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &around(105.0, 0.2), true, 0.10, false),
            Verdict::Same
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            verdict(&base, &around(112.0, 0.2), false, 0.10, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &around(88.0, 0.2), false, 0.10, false),
            Verdict::Worse
        );
        // An exact count under a tight bound: any rise is worse.
        assert_eq!(
            verdict(&[127.0; 10], &[128.0; 10], true, 0.001, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[127.0; 10], &[127.0; 10], true, 0.001, false),
            Verdict::Same
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let noisy = around(100.0, 4.0); // IQR ~ 22 % of the median
        assert_eq!(
            verdict(&noisy, &around(103.0, 4.0), true, 0.10, false),
            Verdict::Unresolved
        );
        // Every run of B below every run of A still resolves.
        assert_eq!(
            verdict(&noisy, &around(50.0, 4.0), true, 0.10, false),
            Verdict::Better
        );
        // Disjoint in the worse direction stays unresolved, never "same".
        assert_eq!(
            verdict(&noisy, &around(150.0, 4.0), true, 0.10, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_is_judged_on_its_median_alone() {
        let noisy = around(1.0, 0.05); // IQR ~ 27 %
        assert_eq!(
            verdict(&noisy, &around(1.1, 0.05), true, 0.25, true),
            Verdict::Same
        );
        assert_eq!(
            verdict(&noisy, &around(1.4, 0.05), true, 0.25, true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&noisy, &around(1.4, 0.05), true, 0.25, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn empty_or_zero_sets_do_not_resolve() {
        assert_eq!(verdict(&[], &[1.0], true, 0.1, false), Verdict::Unresolved);
        assert_eq!(
            verdict(&[0.0, 0.0], &[1.0, 1.0], true, 0.1, false),
            Verdict::Unresolved
        );
    }
}
