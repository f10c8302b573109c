//! Cross-crate tests for the trace file (DESIGN.md §12): turning it
//! fully on must leave the `RunReport` byte-identical and the file
//! complete, the file must be byte for byte the in-memory export of
//! the same run without a trace file, span memory without one must
//! stop at its cap with exact drop accounting, and a file that cannot
//! be written must cost the run nothing.

use medes::obs::{parse_jsonl, parse_tail, Obs, ObsConfig, SPAN_BYTES_CAP};
use medes::platform::config::{PlatformConfig, PolicyKind, RestoreReadConfig};
use medes::platform::Platform;
use medes::policy::medes::Objective;
use medes::sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow, NodeCrash};
use medes::sim::{SimDuration, SimTime};
use medes::trace::{
    azure_like_trace, functionbench_suite, DeploySchedule, FunctionProfile, Trace, TraceGenConfig,
    VersionBump,
};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

fn workload() -> (Vec<FunctionProfile>, Trace) {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: 300,
            scale: 10.0,
            seed: 7,
        },
    );
    (suite, trace)
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medes-it-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The trace file of a run in `dir`: the test names it.
fn trace_file(dir: &Path) -> PathBuf {
    dir.join("trace.jsonl")
}

fn streamed_config(dir: &Path) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.obs = ObsConfig {
        trace_file: Some(trace_file(dir)),
        ..ObsConfig::enabled()
    };
    cfg
}

/// Writing spans to the file must not move a single byte of the
/// `RunReport`; the file holds every span the run counts, and the
/// tail carries the final counters alone.
#[test]
fn streaming_does_not_perturb_the_run() {
    let (suite, trace) = workload();
    let mut plain_cfg = PlatformConfig::small_test();
    plain_cfg.obs = ObsConfig::default();
    let plain = Platform::new(plain_cfg, suite.clone()).run(&trace).report;

    let dir = scratch_dir("stream");
    let outcome = Platform::new(streamed_config(&dir), suite).run(&trace);
    assert_eq!(
        plain, outcome.report,
        "streaming must not perturb the simulation"
    );

    let obs = &outcome.obs;
    assert_eq!(obs.spans_dropped(), 0, "a file takes every span");
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("trace dir exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(files, [trace_file(&dir)], "one file per traced run");
    let text = std::fs::read_to_string(trace_file(&dir)).expect("streamed trace readable");
    assert_eq!(
        parse_jsonl(&text).len(),
        obs.span_count(),
        "disk trace must hold every span"
    );

    let tail = parse_tail(&text).expect("trace ends in a tail");
    let keys: Vec<&str> = tail.as_object().unwrap().iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["metrics"], "the tail is the final counters alone");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run's trace file and the in-memory `export_jsonl()` of the same
/// run without a trace file are the same bytes: the destination
/// changes where lines go, never what they are.
#[test]
fn streamed_file_matches_buffered_export() {
    let (suite, trace) = workload();
    let dir = scratch_dir("bytes");
    Platform::new(streamed_config(&dir), suite.clone()).run(&trace);
    let mut cfg = PlatformConfig::small_test();
    cfg.obs = ObsConfig::enabled();
    let run = Platform::new(cfg, suite).run(&trace);
    assert_eq!(run.obs.spans_dropped(), 0, "the run fits under the cap");
    let file = std::fs::read_to_string(trace_file(&dir)).expect("streamed file");
    assert_eq!(
        file,
        run.obs.export_jsonl(),
        "the file and the in-memory export of the same run must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a trace file, lines past `SPAN_BYTES_CAP` are formatted,
/// then discarded: every recorded span is either held or counted as
/// dropped, and the partial export panics rather than pass for whole.
#[test]
fn spans_past_the_cap_are_counted_and_export_panics() {
    let obs = Obs::new(ObsConfig::enabled());
    let pad = "p".repeat(64 << 10);
    let recorded = (SPAN_BYTES_CAP / pad.len() + 50) as u64;
    for i in 0..recorded {
        obs.span("medes.test.padded", medes::sim::SimTime::from_micros(i))
            .attr("pad", pad.as_str())
            .end(medes::sim::SimTime::from_micros(i + 1));
    }
    assert!(obs.spans_dropped() > 0, "the spans overran the cap");
    assert!(obs.span_count() * pad.len() <= SPAN_BYTES_CAP);
    assert_eq!(obs.span_count() as u64 + obs.spans_dropped(), recorded);
    let export = std::panic::catch_unwind(AssertUnwindSafe(|| obs.export_jsonl()));
    assert!(export.is_err(), "a partial export must not be read");
}

/// A regular file where the trace file's directory should be: the run
/// completes with the report of an untraced run, `write_trace` returns
/// the open error, and no other file appears anywhere.
#[test]
fn unwritable_export_dir_costs_the_run_nothing() {
    let (suite, trace) = workload();
    let mut plain_cfg = PlatformConfig::small_test();
    plain_cfg.obs = ObsConfig::default();
    let plain = Platform::new(plain_cfg, suite.clone()).run(&trace).report;

    let dir = scratch_dir("blocked");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let blocker = dir.join("results");
    std::fs::write(&blocker, "").expect("blocking file");
    let mut cfg = PlatformConfig::small_test();
    cfg.obs = ObsConfig::enabled();
    cfg.obs.trace_file = Some(trace_file(&blocker));
    let run = Platform::new(cfg, suite).run(&trace);
    assert_eq!(
        plain, run.report,
        "a failed export must not perturb the run"
    );
    assert!(run.obs.write_trace().is_err(), "the open error is returned");
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(entries, [blocker], "no second file may appear");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tail line of one quick traced run that reaches nearly every
/// counter family: Medes under a memory budget on 96 MiB nodes, a
/// 3-owner placed registry, a crash with a restart and one without, a
/// dead link, dropped RPCs, a page cache and one rolling deploy.
fn all_families_tail() -> String {
    let (suite, trace) = workload();
    let secs = SimTime::from_secs;
    let faults = FaultPlan {
        seed: 0xFA17,
        crashes: vec![
            NodeCrash {
                node: 0,
                at: secs(100),
                restart: Some(secs(160)),
            },
            NodeCrash {
                node: 3,
                at: secs(220),
                restart: None,
            },
        ],
        links: vec![LinkFaultWindow {
            src: None,
            dst: None,
            from: secs(180),
            until: secs(200),
            kind: LinkFaultKind::Error { drop_prob: 1.0 },
        }],
        rpc_drop_prob: 0.05,
    };
    let cfg = PlatformConfig::test_builder()
        .tweak(|c| {
            c.node_mem_bytes = 96 << 20;
            if let PolicyKind::Medes(m) = &mut c.policy {
                m.idle_period = SimDuration::from_secs(5);
                m.objective = Objective::MemoryBudget {
                    budget_bytes: 100e6,
                };
            }
            c.obs = ObsConfig::enabled();
        })
        .read_path(RestoreReadConfig::cached(64 << 20))
        .registry_owners(3)
        .faults(faults)
        .deploys(DeploySchedule {
            bumps: vec![VersionBump {
                function: 1,
                at: secs(140),
                version: 1,
            }],
        })
        .build()
        .expect("valid configuration");
    let export = Platform::new(cfg, suite).run(&trace).obs.export_jsonl();
    export.lines().last().expect("a tail line").to_owned()
}

/// The whole tail of [`all_families_tail`], byte for byte: which keys
/// appear, their order and every value. A change to where a count is
/// kept must leave it alone; a change that moves a pinned report
/// digest re-records it together with the digests.
///
/// Three keys no run of this size reaches, so they are absent here:
/// `medes.platform.queued` and `medes.platform.evictions` need more
/// load than leaves any dedup state on 96 MiB nodes, and
/// `medes.net.err.unreachable` needs a fabric op addressed to a node
/// that is down at that instant, which this run never issues. The
/// traced `fig7` and `chaos` experiments reach all three.
#[test]
fn the_tail_of_an_all_families_run_is_pinned() {
    let tail = all_families_tail();
    assert_eq!(tail, ALL_FAMILIES_TAIL);
    let metrics = parse_tail(&tail).expect("a tail");
    let keys: Vec<&str> = metrics["metrics"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k)
        .collect();
    for family in [
        "medes.net.registry.lookup_rpcs",
        "medes.net.registry.insert_rpcs",
        "medes.net.registry.remove_rpcs",
        "medes.net.registry.replicate_rpcs",
        "medes.registry.crash_purged",
        "medes.registry.rereplicated",
        "medes.registry.shards_reassigned",
        "medes.platform.version_bumps",
        "medes.platform.version_purges",
        "medes.platform.re_demarcations",
        "medes.platform.registry_reassignments",
        "medes.restore.cache.evictions",
        "medes.platform.starts.fallback_cold",
    ] {
        assert!(keys.contains(&family), "{family} missing from the tail");
    }
}

const ALL_FAMILIES_TAIL: &str = concat!(
    r#"{"metrics":{"medes.dedup.checkpoint_bytes":1474297856,"#,
    r#""medes.dedup.memo_peak_bytes":77732,"medes.dedup.ops":50,"#,
    r#""medes.dedup.pages_encoded":423,"medes.dedup.pages_fingerprinted":426,"#,
    r#""medes.dedup.pages_reused":1027,"medes.dedup.saved_paper_bytes":1037764352,"#,
    r#""medes.dedup.scans_without_image":47,"medes.images.builds":70,"#,
    r#""medes.images.template_builds":3,"medes.images.template_bytes":49792,"#,
    r#""medes.net.err.partial_read":44,"medes.net.err.timeout":38,"#,
    r#""medes.net.rdma_batch_us_total":925314,"medes.net.rdma_bytes":1425014784,"#,
    r#""medes.net.rdma_failures":76,"medes.net.rdma_reads":1359,"#,
    r#""medes.net.registry.insert_rpcs":162,"medes.net.registry.lookup_rpcs":69,"#,
    r#""medes.net.registry.remove_rpcs":5,"medes.net.registry.replicate_rpcs":1,"#,
    r#""medes.net.retries":63,"medes.net.retry_giveups":19,"medes.net.rpc_bytes":188520,"#,
    r#""medes.net.rpc_dropped":6,"medes.net.rpc_failures":6,"medes.net.rpc_us_total":7910,"#,
    r#""medes.net.rpcs":237,"medes.platform.arrivals":517,"medes.platform.dedup_aborts":19,"#,
    r#""medes.platform.demarcations":6,"medes.platform.expirations":8,"#,
    r#""medes.platform.live_sandboxes":1,"medes.platform.mem_paper_bytes":96888422,"#,
    r#""medes.platform.node_crashes":2,"medes.platform.node_restarts":1,"#,
    r#""medes.platform.re_demarcations":1,"medes.platform.registry_reassignments":1,"#,
    r#""medes.platform.rescheduled":2,"medes.platform.starts.cold":19,"#,
    r#""medes.platform.starts.dedup":38,"medes.platform.starts.fallback_cold":4,"#,
    r#""medes.platform.starts.warm":460,"medes.platform.version_bumps":1,"#,
    r#""medes.platform.version_purges":3,"medes.registry.crash_purged":79,"#,
    r#""medes.registry.dead_owner_entries":0,"medes.registry.entries":62,"#,
    r#""medes.registry.evictions":5,"medes.registry.inserts":439,"medes.registry.lookups":1599,"#,
    r#""medes.registry.rereplicated":79,"medes.registry.rpc_bytes_total":188520,"#,
    r#""medes.registry.rpc_time_us":7910,"medes.registry.rpc_total":237,"#,
    r#""medes.registry.shards_reassigned":1,"medes.restore.cache.bytes_saved":529530880,"#,
    r#""medes.restore.cache.evictions":82,"medes.restore.cache.hits":505,"#,
    r#""medes.restore.cache.invalidations":153,"medes.restore.cache.misses":301,"#,
    r#""medes.restore.ops":38}}"#,
);
