//! `attribute` — dimensional telemetry and tail-latency drill-down,
//! end to end.
//!
//! Two claims, each checked by assertion (that every flat aggregate is
//! the exact sum of its labeled series is a construction of
//! `medes_obs::MetricsRegistry`, tested there):
//!
//! 1. **Labels off changes nothing.** Two identical runs with
//!    telemetry on but labels off export byte-identical traces, and
//!    turning labels on produces the exact same [`RunReport`] — the
//!    dimensional layer observes the simulation, it never perturbs it.
//! 2. **The drill-down names an injected slow node.** A latency-spike
//!    fault window (×`SLOW_FACTOR` on every RDMA read into one node)
//!    makes `trace attribute` rank that node as the top SLO
//!    attribution and resolve a critical path for its worst violation.
//!
//! [`RunReport`]: medes_core::metrics::RunReport

use super::obs_stream::find_trace;
use crate::attribute::attribute;
use crate::common::{run_outcome, ExpConfig};
use crate::report::Report;
use medes_core::config::PolicyKind;
use medes_obs::ObsConfig;
use medes_policy::medes::Objective;
use medes_sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow};
use medes_sim::SimTime;

/// The node whose inbound RDMA the fault window slows.
const SLOW_NODE: usize = 1;

/// Latency multiplier on reads into [`SLOW_NODE`]: large enough that
/// dedup restores served there overtake even the worst cold starts
/// (~1.5s) in the per-function violator rankings.
const SLOW_FACTOR: f64 = 150.0;

fn obs_cfg(cfg: &ExpConfig, tag: &str, labels: bool) -> ObsConfig {
    let mut oc = ObsConfig::enabled().tagged(tag);
    if labels {
        oc = oc.labeled();
    }
    oc.set_export_dir(cfg.results_dir.clone());
    oc
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("attribute", "dimensional metrics + tail-latency drill-down");
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let mut base = cfg.platform();
    base.policy = PolicyKind::Medes(cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 }));

    // Claim 1: label-off runs are deterministic to the byte, and
    // labels on produces the identical report.
    let off_a = {
        let mut c = base.clone();
        c.obs = obs_cfg(cfg, "attribute-off-a", false);
        run_outcome(c, &suite, &trace)
    };
    let off_b = {
        let mut c = base.clone();
        c.obs = obs_cfg(cfg, "attribute-off-b", false);
        run_outcome(c, &suite, &trace)
    };
    let text_a = std::fs::read_to_string(find_trace(&cfg.results_dir, "attribute-off-a"))
        .expect("label-off trace readable");
    let text_b = std::fs::read_to_string(find_trace(&cfg.results_dir, "attribute-off-b"))
        .expect("label-off trace readable");
    assert_eq!(
        text_a, text_b,
        "label-off exports must be byte-identical across runs"
    );
    assert!(
        !text_a.contains("\"labeled\""),
        "label-off tail must not carry a labeled key"
    );
    assert_eq!(
        off_a.report, off_b.report,
        "label-off runs must produce identical reports"
    );
    let on = {
        let mut c = base.clone();
        c.obs = obs_cfg(cfg, "attribute-on", true);
        run_outcome(c, &suite, &trace)
    };
    assert_eq!(
        off_a.report, on.report,
        "dimensional telemetry changed the simulation"
    );
    report.section("determinism");
    report.line(&format!(
        "label-off double run: byte-identical exports ({} bytes); labels on: identical \
         RunReport ({} requests)",
        text_a.len(),
        on.report.requests.len()
    ));
    let labeled_series = on.obs.labeled_len();
    assert!(labeled_series > 0, "labeled run recorded no labeled series");
    report.line(&format!("labels on: {labeled_series} labeled series"));

    // Claim 2: an injected slow node is named as the top attribution.
    let slow = {
        let mut c = base.clone();
        c.obs = obs_cfg(cfg, "attribute-slow", true);
        c.faults = FaultPlan {
            links: vec![LinkFaultWindow {
                src: None,
                dst: Some(SLOW_NODE),
                from: SimTime::ZERO,
                until: SimTime::from_secs(cfg.trace_secs()),
                kind: LinkFaultKind::LatencySpike {
                    factor: SLOW_FACTOR,
                },
            }],
            ..FaultPlan::default()
        };
        run_outcome(c, &suite, &trace)
    };
    assert!(
        slow.obs.slo_violations() > 0,
        "slow-node run must record SLO violations"
    );
    let trace_path = find_trace(&cfg.results_dir, "attribute-slow");
    let trace_text = std::fs::read_to_string(&trace_path).expect("slow trace readable");
    let name = trace_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let (drill, attributions) = attribute(&name, &trace_text, 10);
    assert!(
        !attributions.is_empty(),
        "slow-node run produced no attributions"
    );
    assert_eq!(
        attributions[0].kind, "slo-node",
        "top attribution must come from the SLO violator ranking"
    );
    assert_eq!(
        attributions[0].subject,
        format!("node {SLOW_NODE}"),
        "injected slow node must rank first: {attributions:?}"
    );
    assert!(
        drill.text().contains("critical path of worst violation"),
        "drill-down must resolve a critical path"
    );
    report.section(&format!(
        "injected slow node (x{SLOW_FACTOR} RDMA latency into node {SLOW_NODE})"
    ));
    let top: Vec<Vec<String>> = attributions
        .iter()
        .take(5)
        .map(|a| {
            vec![
                a.kind.to_string(),
                a.subject.clone(),
                crate::report::f(a.weight, 1),
            ]
        })
        .collect();
    report.table(&["kind", "subject", "weight"], &top);
    report.line(&format!(
        "trace attribute named node {SLOW_NODE} as top attribution \
         ({} attribution(s) total, critical path resolved)",
        attributions.len()
    ));

    report.json_set(
        "summary",
        medes_obs::json!({
            "label_off_bytes": text_a.len(),
            "labeled_series": labeled_series,
            "slow_node": SLOW_NODE,
            "slow_factor": SLOW_FACTOR,
            "attributions": attributions.len(),
            "top_attribution": attributions[0].subject.as_str(),
        }),
    );
    report
}
