//! Cross-crate chaos tests: deterministic fault injection against the
//! full platform. A node holding base sandboxes is killed mid-trace and
//! an RDMA link-fault window breaks base-page reads; the platform must
//! absorb both without panicking — broken dedup restores fall back to
//! cold starts (§5.3), the dead node's chunks vanish from the
//! fingerprint registry, and the whole run replays bit-identically.

use medes::obs::{AttrValue, ObsConfig, SpanRecord};
use medes::platform::config::{PlatformConfig, PolicyKind, RestoreReadConfig};
use medes::platform::metrics::RunReport;
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow, NodeCrash};
use medes::sim::{SimDuration, SimTime};
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};
use std::collections::HashMap;

fn pressured_trace(secs: u64) -> (Vec<FunctionProfile>, Trace) {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: secs,
            scale: 10.0,
            seed: 7,
        },
    );
    (suite, trace)
}

/// A config under enough memory pressure that the Medes policy dedups
/// aggressively — so base sandboxes exist to kill.
fn pressured_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    cfg
}

/// The chaos plan: kill node 0 permanently mid-trace, bounce node 1,
/// and break every cross-node RDMA/RPC link around the first crash.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA17,
        crashes: vec![
            NodeCrash {
                node: 0,
                at: SimTime::from_secs(200),
                restart: None,
            },
            NodeCrash {
                node: 1,
                at: SimTime::from_secs(380),
                restart: Some(SimTime::from_secs(450)),
            },
        ],
        links: vec![
            LinkFaultWindow {
                src: None,
                dst: None,
                from: SimTime::from_secs(250),
                until: SimTime::from_secs(320),
                kind: LinkFaultKind::Error { drop_prob: 1.0 },
            },
            LinkFaultWindow {
                src: None,
                dst: None,
                from: SimTime::from_secs(450),
                until: SimTime::from_secs(500),
                kind: LinkFaultKind::LatencySpike { factor: 8.0 },
            },
        ],
        rpc_drop_prob: 0.02,
    }
}

fn run_with(plan: &FaultPlan) -> RunReport {
    let (suite, trace) = pressured_trace(600);
    let mut cfg = pressured_config();
    cfg.faults = plan.clone();
    Platform::new(cfg, suite).run(&trace).report
}

#[test]
fn node_crash_triggers_cold_fallback_and_purges_registry() {
    let report = run_with(&chaos_plan());

    // The run completed: every arrival produced a finished request.
    assert!(!report.requests.is_empty(), "requests must complete");

    // Both planned crashes (and the one restart) were delivered.
    assert_eq!(report.node_crashes, 2, "both crashes must fire");
    assert_eq!(report.node_restarts, 1, "node 1 must come back");

    // Dedup restores that lost their base (or their link) fell back to
    // cold starts instead of failing the request (§5.3).
    assert!(
        report.fallback_cold_starts > 0,
        "broken restores must fall back to cold starts"
    );

    // In-flight work on the crashed nodes was rescheduled, not dropped.
    assert!(
        report.rescheduled_requests > 0,
        "in-flight requests on dead nodes must be rescheduled"
    );

    // The fingerprint registry holds no chunk located on a dead node:
    // the controller purged node 0's bases via the reverse index.
    assert_eq!(
        report.registry_dead_node_locs, 0,
        "registry must not reference chunks on dead nodes"
    );

    // The fabric saw real failures and retried.
    assert!(report.net_failures > 0, "faults must surface as net errors");
}

/// Requests whose sandbox died with its node are re-dispatched, so they
/// complete later than requests that arrived after them. The report
/// still lists each completed request once, in id order: its ids are
/// exactly those of the `medes.platform.request` spans, one per
/// completion.
///
/// The same trace records each phase once: no span has a parent
/// covering exactly its own interval, across dedup ops, restores
/// served partly from the base-page cache, and fabric retries.
#[test]
fn rescheduled_requests_are_reported_once_in_id_order() {
    let (suite, trace) = pressured_trace(600);
    let mut cfg = pressured_config();
    cfg.faults = chaos_plan();
    cfg.read_path = RestoreReadConfig::cached(64 << 20);
    cfg.obs = ObsConfig {
        span_buffer_cap: usize::MAX,
        ..ObsConfig::enabled()
    };
    let out = Platform::new(cfg, suite).run(&trace);
    let report = &out.report;
    assert!(
        report.rescheduled_requests > 0,
        "the crashes kill running requests"
    );
    assert_eq!(out.obs.spans_dropped(), 0);
    let ids: Vec<u64> = report.requests.iter().map(|r| r.id).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids strictly increase");
    assert!(ids.last().is_some_and(|&id| id < trace.len() as u64));
    let mut completed: Vec<u64> = out
        .obs
        .spans()
        .iter()
        .filter(|s| s.name == "medes.platform.request")
        .map(|s| match s.attr("id") {
            Some(AttrValue::Uint(id)) => *id,
            other => panic!("request span id {other:?}"),
        })
        .collect();
    completed.sort_unstable();
    assert_eq!(ids, completed);

    let spans = out.obs.spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert!(count("medes.dedup.op") > 0 && count("medes.net.retry") > 0);
    let cache_hits = spans.iter().any(|s| {
        s.name == "medes.restore.base_read"
            && matches!(s.attr("cache_hits"), Some(AttrValue::Uint(n)) if *n > 0)
    });
    assert!(cache_hits, "some restore is served from the cache");
    let by_id: HashMap<u64, &SpanRecord> = spans
        .iter()
        .filter(|s| s.span_id != 0)
        .map(|s| (s.span_id, s))
        .collect();
    for s in &spans {
        if let Some(p) = by_id.get(&s.parent_id) {
            assert_ne!(
                (s.start_us, s.end_us),
                (p.start_us, p.end_us),
                "{} only repeats its parent {}",
                s.name,
                p.name
            );
        }
    }
}

#[test]
fn chaos_run_is_bit_identical_across_executions() {
    let plan = chaos_plan();
    let r1 = run_with(&plan);
    let r2 = run_with(&plan);
    // RunReport derives PartialEq over every field — request records,
    // memory series, per-function stats, fault counters, all of it.
    assert_eq!(r1, r2, "same seed + same plan must replay bit-identically");
}

#[test]
fn empty_plan_matches_fault_free_run_exactly() {
    let clean = run_with(&FaultPlan::default());
    let (suite, trace) = pressured_trace(600);
    let baseline = Platform::new(pressured_config(), suite).run(&trace).report;
    assert_eq!(
        clean, baseline,
        "an empty fault plan must be a provable no-op"
    );
    assert_eq!(clean.fallback_cold_starts, 0);
    assert_eq!(clean.node_crashes, 0);
    assert_eq!(clean.net_failures, 0);
}
