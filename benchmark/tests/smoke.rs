//! Every workload, both trace modes, at `--smoke` size: the run prints
//! exactly the metrics `BENCHMARK.json` names, in the driver's format,
//! and its output checks hold.

use medes_benchmark::api::json::{parse, Json};
use medes_benchmark::result::RunResult;
use medes_benchmark::{bench, workloads};

fn manifest_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = doc.get(section).and_then(Json::as_array).unwrap();
    list.iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn assert_prints(result: &RunResult, section: &str) {
    assert!(result.correct(), "{}", result.table());
    let line = parse(&result.driver_line()).expect("driver line is JSON");
    let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
    let mut printed: Vec<String> = metrics.iter().map(|(k, _)| k.to_string()).collect();
    let mut expected = manifest_names(section);
    printed.sort();
    expected.sort();
    assert_eq!(printed, expected, "workload {}", result.workload);
    for (name, m) in metrics.iter() {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        assert!(result.table().contains(name));
    }
}

#[test]
fn every_manifest_metric_is_printed_for_every_workload() {
    for w in workloads::all() {
        let w = w.smoke();
        let e2e = bench::run_end_to_end(&w, 7, 0.1);
        assert_prints(&e2e, "end_to_end");
        for m in &e2e.metrics {
            assert!(
                m.value > 0.0,
                "{} must never be zero ({})",
                m.def.name,
                w.name
            );
        }
        assert_eq!(e2e.digests.len(), w.sub_runs);
        assert_prints(&bench::run_traced(&w, 7, 0.3, None), "per_layer");
    }
}

#[test]
fn same_seed_same_simulated_results() {
    let w = workloads::by_name("churn").unwrap().smoke();
    let a = bench::run_end_to_end(&w, 11, 0.1);
    let b = bench::run_end_to_end(&w, 11, 0.1);
    assert_eq!(a.digests, b.digests);
    for name in [
        "startup_mean_ms",
        "slowdown_p999",
        "cold_start_frac",
        "mem_mean_gib",
    ] {
        assert_eq!(a.metric(name).unwrap().value, b.metric(name).unwrap().value);
    }
    let c = bench::run_end_to_end(&w, 12, 0.1);
    assert_ne!(a.digests, c.digests, "another seed gives other inputs");
}
