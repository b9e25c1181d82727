//! `lafd-benchmark`: the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! lafd-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH] [--out FILE]
//! lafd-benchmark smoke
//! lafd-benchmark compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! lafd-benchmark probe        (internal: the speed probe of `calib`)
//! ```
//!
//! Run from the repository root. `run` builds `lafd` from the checkout (a
//! no-op when fresh), measures one workload, and prints one JSON result
//! object as the last line of stdout.

mod calib;
mod check;
mod compare;
mod gen;
mod json;
mod layers;
mod proc;
mod stats;
mod trace;
mod workload;

use gen::Workload;
use layers::Metric;
use stats::{percentile, sorted};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Ctx, E2e, Limit};

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("msgs_per_op", "msg/op"),
    ("wire_bytes_per_op", "B/op"),
];

fn e2e_metrics(e2e: &E2e) -> Result<Vec<Metric>, String> {
    let latencies = sorted(e2e.latencies_ms());
    if latencies.is_empty() {
        return Err("no op passed its check; there is nothing to time".to_string());
    }
    let values = [
        e2e.setup_s,
        latencies.len() as f64 / e2e.elapsed_s,
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        e2e.peak_rss_kb as f64 / 1024.0,
        e2e.msgs_per_op,
        e2e.bytes_per_op,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric { name, value, unit })
        .collect())
}

/// The result object of the benchmark contract.
fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        rows.join(", ")
    )
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--trace-out" => trace_out = Some(value.clone()),
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown run flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
        out,
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// One measured run; returns the result line.
fn run(lafd: PathBuf, args: &RunArgs) -> Result<String, String> {
    let name = args.workload.name();
    let (attempted, failed, first_failure, metrics) = if args.trace {
        let traced = layers::traced_pass(lafd, args.workload, args.seed)?;
        let path = match &args.trace_out {
            Some(path) => path.clone(),
            None => workload::work_dir()?
                .join(format!("trace-{name}.json"))
                .display()
                .to_string(),
        };
        std::fs::write(&path, trace::to_chrome_json(&traced.spans))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("{name}: replica spans (calls, median us, median self us) -> {path}");
        for (span, calls, dur, own) in trace::summarize(&traced.spans) {
            eprintln!("  {span:<36} {calls:>5} {dur:>14.1} {own:>14.1}");
        }
        print_table(&format!("{name}: per-layer metrics"), &traced.metrics);
        (
            traced.attempted,
            traced.failed,
            traced.first_failure,
            traced.metrics,
        )
    } else {
        let ctx = Ctx::new(lafd)?;
        let e2e = workload::run_e2e(&ctx, args.workload, args.seed, Limit::Seconds(args.seconds))?;
        let metrics = e2e_metrics(&e2e)?;
        let speed = e2e.probe_ms.map_or(String::new(), |ms| {
            format!(
                "; at reference speed (probe {ms:.2} ms, reference {} ms)",
                calib::REFERENCE_MS
            )
        });
        print_table(
            &format!(
                "{name}: {} checked ops of {} in {:.2} s, {} client(s), closed loop{speed}",
                e2e.samples.len(),
                e2e.attempted,
                e2e.elapsed_s,
                args.workload.clients()
            ),
            &metrics,
        );
        (e2e.attempted, e2e.failed, e2e.first_failure, metrics)
    };
    if let Some(failure) = first_failure {
        eprintln!("{name}: {failed} of {attempted} ops failed; first: {failure}");
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{name}: metric {} is {}", bad.name, bad.value));
    }
    let result = result_json(attempted, failed, &metrics);
    if let Some(path) = &args.out {
        use std::io::Write;
        let line = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}\n",
            args.seed,
            u8::from(args.trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("appending to {path}: {e}"))?;
    }
    Ok(result)
}

/// Every workload for two seconds plus one traced pass; fails on a missing
/// or non-finite metric and on any failed op.
fn smoke(lafd: PathBuf) -> Result<(), String> {
    let expect = |metrics: &[Metric], declared: &[(&str, &str)], what: &str| {
        for (name, _) in declared {
            let metric = metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("{what}: metric {name} is missing"))?;
            if !metric.value.is_finite() {
                return Err(format!("{what}: metric {name} is {}", metric.value));
            }
        }
        Ok(())
    };
    // The traced pass first: its single-threaded probes must run before this
    // process starts a thread.
    let traced = layers::traced_pass(lafd.clone(), Workload::ServeWarm, 1)?;
    if traced.failed > 0 {
        return Err(format!(
            "traced pass: {} ops failed: {}",
            traced.failed,
            traced.first_failure.unwrap_or_default()
        ));
    }
    expect(&traced.metrics, layers::PER_LAYER, "traced pass")?;
    eprintln!("smoke: traced pass ok ({} metrics)", traced.metrics.len());
    let ctx = Ctx::new(lafd)?;
    for workload in Workload::ALL {
        let e2e = workload::run_e2e(&ctx, workload, 1, Limit::Seconds(2.0))?;
        if e2e.failed > 0 {
            return Err(format!(
                "{}: {} of {} ops failed: {}",
                workload.name(),
                e2e.failed,
                e2e.attempted,
                e2e.first_failure.unwrap_or_default()
            ));
        }
        let metrics = e2e_metrics(&e2e)?;
        expect(&metrics, END_TO_END, workload.name())?;
        eprintln!("smoke: {} ok ({} ops)", workload.name(), e2e.attempted);
    }
    Ok(())
}

fn usage() -> String {
    "usage: lafd-benchmark run --workload NAME --seed N --seconds S --trace 0|1 \
     [--trace-out PATH] [--out FILE]\n       lafd-benchmark smoke\n       \
     lafd-benchmark compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|run_args| {
            let result = run(proc::build_lafd()?, &run_args)?;
            // The contract: the result object is the last line of stdout.
            println!("{result}");
            Ok(ExitCode::SUCCESS)
        }),
        Some((cmd, [])) if cmd == "smoke" => proc::build_lafd()
            .and_then(smoke)
            .map(|()| ExitCode::SUCCESS),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        // Internal: the speed probe `calib` runs between ops.
        Some((cmd, [])) if cmd == "probe" => {
            calib::probe_main();
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    fn declared(doc: &Json, list: &str, key: &str) -> Vec<String> {
        doc.get(list)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
            .iter()
            .map(|entry| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {key}"))
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_code_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |table: &[(&str, &str)], i: usize| -> Vec<String> {
            table
                .iter()
                .map(|row| [row.0, row.1][i].to_string())
                .collect()
        };
        assert_eq!(
            declared(&doc, "workloads", "name"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(declared(&doc, "end_to_end", "name"), names(END_TO_END, 0));
        assert_eq!(declared(&doc, "end_to_end", "unit"), names(END_TO_END, 1));
        assert_eq!(
            declared(&doc, "per_layer", "name"),
            names(layers::PER_LAYER, 0)
        );
        assert_eq!(
            declared(&doc, "per_layer", "unit"),
            names(layers::PER_LAYER, 1)
        );
        for metric in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
        }
        // The command hands the driver's flags to the `run` subcommand.
        let command = doc.get("command").and_then(Json::as_arr).unwrap();
        assert_eq!(command.last().and_then(Json::as_str), Some("run"));
    }

    #[test]
    fn the_result_line_is_the_contract_object() {
        let metrics = [
            Metric {
                name: "op_p50_ms",
                value: 1.25,
                unit: "ms",
            },
            Metric {
                name: "msgs_per_op",
                value: 127.0,
                unit: "msg/op",
            },
        ];
        let doc = Json::parse(&result_json(10, 1, &metrics)).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        let p50 = doc.get("metrics").and_then(|m| m.get("op_p50_ms")).unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn run_flags_are_the_drivers() {
        let args: Vec<String> = "--workload serve-warm --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_run(&args).expect("the driver's flags parse");
        assert_eq!(parsed.workload, Workload::ServeWarm);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 10.0, true));
        assert!(parse_run(&args[..6]).is_err(), "--trace is required");
        assert!(parse_run(&["--workload".into(), "nope".into()]).is_err());
    }
}
