//! Registry — distributed fingerprint-registry placement sweep.
//!
//! Not a paper figure: this experiment is the regression gate for
//! registry placement (DESIGN.md §15). One pressured Medes
//! configuration runs with the in-process registry and with the
//! registry distributed over a sweep of owner-node counts. The
//! determinism contract — placement decides where registry RPCs go,
//! never what the registry answers — is asserted by requiring the
//! `RunReport` to be bit-identical to the in-process run at every
//! placement, while the registry-RPC counters must show real routed
//! traffic. A crash sub-run replays a fault plan against both placements
//! and checks the §5.3 re-demarcation hygiene: the run ends with zero
//! registry chunks on dead nodes and zero entries in shards owned by
//! dead nodes, with the re-replication traffic counted.

use crate::common::{run_outcome, ExpConfig, DEFAULT_FAULT_SEED};
use crate::report::{f, Report};
use medes_core::config::{PlatformConfig, PolicyKind, RegistryPlacement};
use medes_policy::medes::Objective;
use medes_sim::fault::FaultPlan;
use medes_sim::{SimDuration, SimTime};

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new(
        "registry",
        "distributed registry placement sweep: bit-identical reports, counted RPC traffic",
    );
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let mut policy = cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 });
    // Aggressive idle period so plenty of sandboxes reach the dedup
    // pipeline: registry traffic must be real for the RPC-count claims
    // to mean anything.
    policy.idle_period = SimDuration::from_secs(2);

    let base = {
        let mut b = cfg.platform();
        // Enough shards that every owner in the widest placement owns
        // at least one, so crashes always exercise re-demarcation.
        b.pipeline.shards = b.pipeline.shards.max(8);
        // The RPC-traffic gates read obs counters, so observability
        // must be on even without `--obs` (which would additionally
        // export span traces).
        if !b.obs.enabled {
            b.obs = medes_obs::ObsConfig::enabled();
        }
        b.with_policy(PolicyKind::Medes(policy.clone()))
    };
    let with_placement = |owners: usize| -> PlatformConfig {
        let mut p = base.clone();
        p.registry = RegistryPlacement::Distributed { owners };
        p
    };

    report.section("Owner-count sweep (Medes policy, latency-target objective)");
    report.line(&format!(
        "{} nodes, {} shards, {}s trace",
        base.nodes,
        base.pipeline.shards,
        cfg.trace_secs(),
    ));

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();

    // The reference: today's controller-resident registry. Every
    // distributed placement must reproduce this report bit-for-bit.
    let reference = run_outcome(base.clone(), &suite, &trace);
    assert_eq!(
        reference.obs.counter("medes.net.registry.rpcs"),
        0,
        "in-process backend must issue no registry RPCs"
    );
    rows.push(vec![
        "in-process".to_string(),
        "-".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0".to_string(),
        reference.report.registry_peak_entries.to_string(),
        f(reference.report.e2e_quantile_all_ms(0.99).unwrap_or(0.0), 1),
    ]);
    json_rows.push(medes_obs::json!({
        "backend": "in-process",
        "owners": 0,
        "registry_rpcs": 0,
        "registry_rpc_bytes": 0,
        "registry_rpc_time_us": 0,
        "peak_entries": reference.report.registry_peak_entries,
        "p99_ms": reference.report.e2e_quantile_all_ms(0.99).unwrap_or(0.0),
    }));

    let owner_counts: &[usize] = if cfg.quick { &[1, 2, 4] } else { &[1, 4, 12] };
    for &owners in owner_counts {
        let outcome = run_outcome(with_placement(owners), &suite, &trace);
        // The redesign's core contract: shard placement is invisible in
        // the report — candidates, dedup decisions, and every metric
        // match the in-process reference exactly.
        assert_eq!(
            outcome.report, reference.report,
            "RunReport diverged from the in-process reference at {owners} owners"
        );
        let rpcs = outcome.obs.counter("medes.net.registry.rpcs");
        let rpc_bytes = outcome.obs.counter("medes.net.registry.rpc_bytes");
        let rpc_time_us = outcome.obs.counter("medes.registry.rpc_time_us");
        assert!(rpcs > 0, "distributed run issued no registry RPCs");
        assert!(rpc_bytes > 0, "registry RPCs moved no bytes");
        assert_eq!(
            outcome.obs.counter("medes.registry.rpc_total"),
            rpcs,
            "fabric totals must agree with the live counters"
        );
        assert!(
            outcome.obs.counter("medes.net.registry.lookup_rpcs") > 0
                && outcome.obs.counter("medes.net.registry.insert_rpcs") > 0,
            "sweep must exercise both lookup and insert traffic"
        );
        rows.push(vec![
            "distributed".to_string(),
            owners.to_string(),
            rpcs.to_string(),
            rpc_bytes.to_string(),
            f(rpc_time_us as f64 / 1000.0, 2),
            outcome.report.registry_peak_entries.to_string(),
            f(outcome.report.e2e_quantile_all_ms(0.99).unwrap_or(0.0), 1),
        ]);
        json_rows.push(medes_obs::json!({
            "backend": "distributed",
            "owners": owners,
            "registry_rpcs": rpcs,
            "registry_rpc_bytes": rpc_bytes,
            "registry_rpc_time_us": rpc_time_us,
            "peak_entries": outcome.report.registry_peak_entries,
            "p99_ms": outcome.report.e2e_quantile_all_ms(0.99).unwrap_or(0.0),
        }));
    }
    report.table(
        &[
            "backend",
            "owners",
            "registry RPCs",
            "RPC bytes",
            "RPC time (ms)",
            "peak entries",
            "p99 (ms)",
        ],
        &rows,
    );
    report.line(&format!(
        "all {} placements produced reports bit-identical to the in-process \
         reference; RPC traffic varies with placement only",
        owner_counts.len()
    ));

    // Crash sub-run: shard owners die mid-run. Ownership must be
    // re-demarcated onto survivors (replication traffic counted), the
    // report must still match the in-process run under the same fault
    // plan, and nothing registry-side may reference a dead node.
    report.section("Crash re-demarcation (synthesized fault plan)");
    let owners = base.nodes; // every node owns shards: any crash hits an owner
    let plan = FaultPlan::synthesize(
        DEFAULT_FAULT_SEED,
        base.nodes,
        SimTime::from_secs(cfg.trace_secs()),
        4.0,
    );
    assert!(
        !plan.crashes.is_empty(),
        "fault plan synthesized no crashes; raise the rate"
    );
    let mut faulty_ref = base.clone();
    faulty_ref.faults = plan.clone();
    let mut faulty_dist = with_placement(owners);
    faulty_dist.faults = plan.clone();
    let ref_outcome = run_outcome(faulty_ref, &suite, &trace);
    let dist_outcome = run_outcome(faulty_dist, &suite, &trace);
    assert_eq!(
        dist_outcome.report, ref_outcome.report,
        "crash run diverged from the in-process reference"
    );
    assert!(
        dist_outcome.report.node_crashes > 0,
        "fault plan crashed no nodes during the trace"
    );
    let reassigned = dist_outcome.obs.counter("medes.registry.shards_reassigned");
    let rereplicated = dist_outcome.obs.counter("medes.registry.rereplicated");
    let dead_owner_entries = dist_outcome
        .obs
        .counter("medes.registry.dead_owner_entries");
    assert!(
        reassigned > 0,
        "owner crashes must re-demarcate at least one shard"
    );
    assert_eq!(
        dead_owner_entries, 0,
        "run ended with registry entries in shards owned by dead nodes"
    );
    assert_eq!(
        dist_outcome.report.registry_dead_node_locs, 0,
        "run ended with registry chunks located on dead nodes"
    );
    report.line(&format!(
        "{} node crashes: {} shards re-demarcated, {} entries re-replicated, \
         0 entries left on dead owners, 0 chunks on dead nodes",
        dist_outcome.report.node_crashes, reassigned, rereplicated,
    ));
    report.json_set(
        "crash",
        medes_obs::json!({
            "owners": owners,
            "node_crashes": dist_outcome.report.node_crashes,
            "shards_reassigned": reassigned,
            "rereplicated_entries": rereplicated,
            "replicate_rpcs": dist_outcome.obs.counter("medes.net.registry.replicate_rpcs"),
            "dead_owner_entries": dead_owner_entries,
            "registry_dead_node_locs": dist_outcome.report.registry_dead_node_locs,
        }),
    );
    report.json_set("sweep", medes_obs::Json::Array(json_rows));
    report
}
