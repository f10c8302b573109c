//! Generates `BENCHMARK.json` from the metric catalogue and the workload
//! table, so the driver's manifest cannot drift from what `run` prints
//! (`medes-benchmark manifest > BENCHMARK.json`; a test compares them).

use crate::api::json::{Json, JsonMap};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads;

/// `run_seconds`: how long one run measures.
pub const RUN_SECONDS: u64 = 20;

fn metric(d: &MetricDef) -> Json {
    let mut m = JsonMap::new();
    m.insert("name", d.name);
    m.insert("unit", d.unit);
    m.insert("better", d.better.as_str());
    if let Some(b) = d.bound {
        m.insert("bound", b);
    }
    Json::Object(m)
}

/// The manifest as a JSON value.
pub fn benchmark_json() -> Json {
    let strings = |v: &[&str]| Json::Array(v.iter().map(|s| Json::from(*s)).collect());
    let mut doc = JsonMap::new();
    doc.insert(
        "command",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
            "run",
        ]),
    );
    doc.insert("paths", strings(&["benchmark"]));
    doc.insert("run_seconds", RUN_SECONDS);
    doc.insert(
        "workloads",
        Json::Array(
            workloads::all()
                .iter()
                .map(|w| {
                    let mut m = JsonMap::new();
                    m.insert("name", w.name);
                    m.insert("why", w.why);
                    Json::Object(m)
                })
                .collect(),
        ),
    );
    doc.insert(
        "end_to_end",
        Json::Array(END_TO_END.iter().map(metric).collect()),
    );
    doc.insert(
        "per_layer",
        Json::Array(PER_LAYER.iter().map(metric).collect()),
    );
    Json::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::json::parse;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `medes-benchmark manifest > BENCHMARK.json`"
        );
        let keys: Vec<&str> = committed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
