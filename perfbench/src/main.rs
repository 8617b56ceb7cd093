//! `amrio-perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench spread < results.jsonl
//! ```
//!
//! A run measures one workload in this process and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! separate traced run. The line before it carries diagnostics (core
//! count, load average, the tail percentile used, unobserved layers).
//! Any failed operation makes the exit code 1. `spread` reads result
//! lines and prints each metric's median and quartile spread.
//! See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod gen;
mod metrics;
mod sim;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Args, WORKLOADS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_020_923;

const USAGE: &str = "usage: perfbench --workload <paper_sweep|rank_cliff|crash_recover|serve_zipf> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench spread < results.jsonl";

fn parse_args(argv: &[String]) -> Result<(String, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        return spread();
    }
    let (workload, args) = match parse_args(&argv) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let load_start = sys::loadavg_1m();
    let steal_start = sys::steal_seconds();
    let run = workloads::run(&workload, &args);
    let load_end = sys::loadavg_1m();
    let steal_s = sys::steal_seconds() - steal_start;

    let mut diag = format!(
        "{{\"diagnostics\": {{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \
         \"nproc\": {}, \"loadavg_1m_start\": {}, \"loadavg_1m_end\": {}, \"steal_s\": {}",
        args.seed,
        args.trace,
        sys::nproc(),
        diag_num(load_start),
        diag_num(load_end),
        diag_num(steal_s)
    );
    for (k, v) in &run.diag {
        diag.push_str(&format!(", \"{k}\": {v}"));
    }
    if let Some(tracer) = &run.tracer {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("spans-{workload}-{}.jsonl", args.seed));
        if std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
            .is_ok()
        {
            diag.push_str(&format!(", \"spans\": \"{}\"", path.display()));
        }
    }
    diag.push_str("}}");
    println!("{diag}");
    println!(
        "{}",
        metrics::result_line(run.failed == 0, run.attempted, run.failed, &run.metrics)
    );
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A diagnostic reading as JSON: `null` when the host did not provide it.
fn diag_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".into()
    }
}

/// Read result lines (one JSON object per line; other lines ignored)
/// and print each metric's median and quartile spread over the runs.
fn spread() -> ExitCode {
    use amrio_serve::json::{self, Json};
    use std::collections::BTreeMap;
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in std::io::stdin().lines().map_while(Result::ok) {
        let Ok(doc) = json::parse(line.trim()) else {
            continue;
        };
        let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                series.entry(name.clone()).or_default().push(v);
            }
        }
    }
    if series.is_empty() {
        eprintln!("perfbench spread: no result lines on stdin");
        return ExitCode::from(2);
    }
    println!(
        "{:<36} {:>5} {:>14} {:>8}",
        "metric", "runs", "median", "spread"
    );
    for (name, xs) in &series {
        let spread = if xs.len() >= 2 {
            format!("{:.4}", stats::quartile_spread(xs))
        } else {
            "-".into()
        };
        println!(
            "{name:<36} {:>5} {:>14.6} {spread:>8}",
            xs.len(),
            stats::median(xs)
        );
    }
    ExitCode::SUCCESS
}
