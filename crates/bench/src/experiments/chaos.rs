//! Chaos — fault injection sweep over the cluster fabric.
//!
//! Not a paper figure: this experiment stresses the §5.3 availability
//! story. A deterministic [`FaultPlan`] (node crashes, RDMA link-fault
//! windows, RPC drops) is synthesized per fault rate from a fixed seed
//! and replayed against the standard Medes configuration. The platform
//! must absorb every fault — broken dedup restores fall back to cold
//! starts, crashed nodes are evicted and their registry chunks purged,
//! in-flight requests are rescheduled. Each rate runs once and the
//! experiment only reports: that a plan replays bit-identically and
//! leaves no dead-node registry chunks is pinned by
//! `tests/fault_recovery.rs`.

use crate::common::{ExpConfig, DEFAULT_FAULT_SEED};
use crate::report::{f, mib, Report};
use medes_core::config::PolicyKind;
use medes_policy::medes::Objective;
use medes_sim::fault::FaultPlan;
use medes_sim::SimTime;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "chaos",
        "fault-injection sweep: recovery behaviour under node crashes and link faults",
    );
    let rates: &[f64] = if cfg.quick {
        &[0.0, 1.0, 2.0, 4.0]
    } else {
        &[0.0, 0.5, 1.0, 2.0, 4.0]
    };
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let base = cfg.platform();
    let capacity = (base.nodes * base.node_mem_bytes) as f64;
    let policy = cfg.medes_policy(Objective::MemoryBudget {
        budget_bytes: capacity * 0.5,
    });
    let duration = SimTime::from_secs(cfg.trace_secs());

    report.section("Fault sweep (Medes policy, fixed plan seed)");
    report.line(&format!(
        "plan seed {DEFAULT_FAULT_SEED:#x}, {} nodes, {}s trace",
        base.nodes,
        cfg.trace_secs()
    ));

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut baseline_cold = 0u64;
    let mut worst_dead = 0;
    for &rate in rates {
        let plan = FaultPlan::synthesize(DEFAULT_FAULT_SEED, base.nodes, duration, rate);
        let mut pcfg = base.clone().with_policy(PolicyKind::Medes(policy.clone()));
        pcfg.faults = plan.clone();
        let r = cfg.run(pcfg, &suite, &trace);
        let cold = r.total_cold_starts();
        if rate == 0.0 {
            baseline_cold = cold;
        }
        worst_dead = worst_dead.max(r.registry_dead_node_locs);
        let p99 = r.e2e_quantile_all_ms(0.99).unwrap_or(0.0);
        rows.push(vec![
            format!("{rate:.2}"),
            plan.crashes.len().to_string(),
            plan.links.len().to_string(),
            r.node_crashes.to_string(),
            r.fallback_cold_starts.to_string(),
            r.rescheduled_requests.to_string(),
            r.net_retries.to_string(),
            r.net_failures.to_string(),
            cold.to_string(),
            f(p99, 1),
            mib(r.mem_mean_bytes),
        ]);
        json_rows.push(medes_obs::json!({
            "rate": rate,
            "plan_crashes": plan.crashes.len(),
            "plan_links": plan.links.len(),
            "rpc_drop_prob": plan.rpc_drop_prob,
            "node_crashes": r.node_crashes,
            "node_restarts": r.node_restarts,
            "fallback_cold_starts": r.fallback_cold_starts,
            "rescheduled_requests": r.rescheduled_requests,
            "net_retries": r.net_retries,
            "net_failures": r.net_failures,
            "cold_starts": cold,
            "requests": r.requests.len(),
            "p99_ms": p99,
            "mem_mean_bytes": r.mem_mean_bytes,
            "registry_dead_node_locs": r.registry_dead_node_locs,
        }));
    }
    report.table(
        &[
            "rate",
            "planned crashes",
            "planned link windows",
            "crashes",
            "fallback cold",
            "rescheduled",
            "retries",
            "net failures",
            "cold starts",
            "p99 (ms)",
            "mem mean",
        ],
        &rows,
    );
    let worst_cold = rows
        .iter()
        .filter_map(|r| r[8].parse::<u64>().ok())
        .max()
        .unwrap_or(0);
    report.line(&format!(
        "cold starts grow from {baseline_cold} (no faults) to {worst_cold} at the highest rate; \
         at most {worst_dead} dead-node registry chunks left at the end of a run"
    ));
    report.json_set("sweep", medes_obs::Json::Array(json_rows));
    report
}
