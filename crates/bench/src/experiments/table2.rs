//! Table 2 — function execution times and memory footprints.
//!
//! Prints the configured profiles (the paper's inputs) next to measured
//! execution-time means from a short calibration run.

use crate::common::{run as run_platform, ExpConfig};
use crate::report::{f, Report};
use medes_core::config::PolicyKind;
use medes_sim::SimDuration;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("table2", "FunctionBench execution time and memory usage");
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let r = run_platform(
        cfg.platform()
            .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10))),
        &suite,
        &trace,
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (i, p) in suite.iter().enumerate() {
        let execs: Vec<f64> = r
            .requests
            .iter()
            .filter(|q| q.func as usize == i)
            .map(|q| q.exec_us as f64 / 1e3)
            .collect();
        let measured = if execs.is_empty() {
            0.0
        } else {
            execs.iter().sum::<f64>() / execs.len() as f64
        };
        rows.push(vec![
            p.name.clone(),
            p.libs.join(", "),
            format!("{:.0}", p.exec_time().as_millis_f64()),
            f(measured, 0),
            format!("{:.1}", p.memory_bytes as f64 / (1 << 20) as f64),
        ]);
        json.push(medes_obs::json!({
            "function": p.name.clone(),
            "exec_ms": p.exec_time().as_millis_f64(),
            "measured_exec_ms": measured,
            "memory_mb": p.memory_bytes as f64 / (1 << 20) as f64,
        }));
    }
    report.table(
        &[
            "function",
            "libraries",
            "exec (ms, Table 2)",
            "measured (ms)",
            "mem (MB)",
        ],
        &rows,
    );
    report.json_set("functions", medes_obs::Json::Array(json));
    report
}
