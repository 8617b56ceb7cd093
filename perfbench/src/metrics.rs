//! Metric catalogs and the result line.
//!
//! Every workload reports the same end-to-end names. A traced run
//! reports every per-layer name; a layer the workload's traced run does
//! not execute or cannot observe reads 0 and is listed as unobserved in
//! the diagnostics line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("virt_write_s", "virt_s"),
    ("virt_read_s", "virt_s"),
    ("ok_ratio", "fraction"),
];

/// The strategy suffixes of the per-strategy I/O metrics.
pub const IO_STRATEGIES: [&str; 3] = ["hdf4-serial", "mpiio-optimized", "hdf5-parallel"];

/// Per-layer metrics other than the per-strategy I/O family:
/// `(name, unit)`. Simulation-layer values are means per traced
/// operation; `serve.*` counts are totals over the timed phases.
const LAYER_BASE: [(&str, &str); 46] = [
    ("simt.ordered_ops", "count"),
    ("simt.wakeups", "count"),
    ("simt.handoffs", "count"),
    ("simt.lock_acquisitions", "count"),
    ("simt.index_updates", "count"),
    ("simt.host_us_per_ordered_op", "us"),
    ("simt.copied_bytes", "bytes"),
    ("mpi.sends", "count"),
    ("mpi.p2p_bytes", "bytes"),
    ("mpi.collectives", "count"),
    ("net.messages", "count"),
    ("net.inter_node_bytes", "bytes"),
    ("core.init_ms", "ms"),
    ("core.evolve_ms", "ms"),
    ("core.digest_ms", "ms"),
    ("amr.grids", "count"),
    ("amr.max_level", "count"),
    ("disk.writes", "count"),
    ("disk.reads", "count"),
    ("disk.bytes_written", "bytes"),
    ("disk.bytes_read", "bytes"),
    ("disk.server_requests", "count"),
    ("disk.token_steals", "count"),
    ("disk.meta_ops", "count"),
    ("disk.image_digest_ms", "ms"),
    ("fault.crashes_fired", "count"),
    ("fault.torn_generations", "count"),
    ("fault.retries", "count"),
    ("recover.resumed_from_commit_ratio", "fraction"),
    ("recover.resume_verified_ratio", "fraction"),
    ("check.violations", "count"),
    ("check.strict_overhead_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.hit_ratio", "fraction"),
    ("serve.client_rtt_us", "us"),
    ("serve.server_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.spec_us", "us"),
    ("serve.digest_us", "us"),
    ("serve.cache_us", "us"),
    ("serve.encode_us", "us"),
    ("trace.ops", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_BASE[..25]
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (family, unit) in [
        ("io.write_ms", "ms"),
        ("io.read_ms", "ms"),
        ("io.virt_write_s", "virt_s"),
        ("io.virt_read_s", "virt_s"),
    ] {
        for s in IO_STRATEGIES {
            out.push((format!("{family}.{s}"), unit));
        }
    }
    out.extend(LAYER_BASE[25..].iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Per-layer values as a workload's traced run measures them: a mean
/// over the samples added under a name, or a value set once.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<String, (f64, u64)>,
}

impl Layers {
    /// Add one sample (one traced operation) of `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        let e = self.sums.entry(name.to_string()).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    /// Set `name` to a single value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.sums.insert(name.to_string(), (v, 1));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.sums.get(name).map(|&(s, n)| s / n as f64)
    }

    /// Every per-layer metric with its value, plus the names this run
    /// did not observe (reported as 0).
    pub fn finish(&self) -> (Vec<Metric>, Vec<String>) {
        let mut unobserved = Vec::new();
        let metrics = per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = self.get(&name).unwrap_or_else(|| {
                    unobserved.push(name.clone());
                    0.0
                });
                Metric { name, value, unit }
            })
            .collect();
        for name in self.sums.keys() {
            assert!(
                per_layer().iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not in the catalog"
            );
        }
        (metrics, unobserved)
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A JSON number: shortest round-trip digits; non-finite values (which
/// JSON cannot carry) are a bug in the benchmark.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// The last line of a run's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrio_serve::json::{self, Json};

    #[test]
    fn per_layer_names_are_unique_and_complete() {
        let names = per_layer();
        assert_eq!(names.len(), 58);
        let mut sorted: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names
            .iter()
            .any(|(n, _)| n == "io.virt_read_s.hdf5-parallel"));
    }

    #[test]
    fn layers_average_samples_and_list_unobserved() {
        let mut l = Layers::default();
        l.add("simt.ordered_ops", 10.0);
        l.add("simt.ordered_ops", 20.0);
        l.set("serve.hits", 7.0);
        let (metrics, unobserved) = l.finish();
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("simt.ordered_ops"), 15.0);
        assert_eq!(get("serve.hits"), 7.0);
        assert_eq!(get("net.messages"), 0.0);
        assert!(unobserved.contains(&"net.messages".to_string()));
        assert_eq!(unobserved.len(), metrics.len() - 2);
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let m = [
            Metric {
                name: "op_ms_p50".into(),
                value: 1.2034,
                unit: "ms",
            },
            Metric {
                name: "ok_ratio".into(),
                value: 1.0,
                unit: "fraction",
            },
        ];
        let line = result_line(true, 12, 0, &m);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v.get("metrics").and_then(|m| m.get("op_ms_p50")).unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(num(3.0), "3");
        assert_eq!(num(1e-5), "1e-5");
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// catalogs.
    #[test]
    fn benchmark_json_matches_catalogs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
