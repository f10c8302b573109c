use super::*;
use crate::ids::FnId;
use crate::images::ImageFactory;
use medes_obs::Json;
use medes_trace::{azure_like_trace, functionbench_suite, TraceGenConfig};
use std::collections::HashMap;

/// A uniformly random element of `v`, or `None` when it is empty: one
/// `below(len)` draw, and none on an empty slice. The owner drivers in
/// `bases`, `lifecycle` and `memory` pick with it.
pub(super) fn pick<T: Copy>(rng: &mut medes_sim::DetRng, v: &[T]) -> Option<T> {
    (!v.is_empty()).then(|| v[rng.below(v.len() as u64) as usize])
}

fn small_trace(secs: u64, scale: f64) -> (Vec<FunctionProfile>, Trace) {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(4).collect();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let trace = azure_like_trace(
        &names,
        &TraceGenConfig {
            duration_secs: secs,
            scale,
            seed: 7,
        },
    );
    (suite, trace)
}

#[test]
fn every_request_completes() {
    let (suite, trace) = small_trace(120, 2.0);
    let report = Platform::new(PlatformConfig::small_test(), suite)
        .run(&trace)
        .report;
    assert_eq!(report.requests.len(), trace.len());
    assert!(report.requests.iter().all(|r| r.e2e_us >= r.exec_us));
}

/// `ExecDone` carries ids (the record waits in its metrics slot), so
/// no event passes 40 bytes and a queue entry, a time and a sequence
/// number ahead of its event, is 56.
#[test]
fn events_are_40_bytes_and_queue_entries_56() {
    assert_eq!(std::mem::size_of::<Ev>(), 40);
    assert_eq!(std::mem::size_of::<(SimTime, u64, Ev)>(), 56);
}

/// Arrivals are streamed into the loop, not queued, so the queue's
/// depth follows the work in flight — at most one keep-alive timer per
/// sandbox plus the requests executing — and not the length of the
/// trace.
#[test]
fn queue_depth_follows_in_flight_work_not_trace_length() {
    let (suite, trace) = small_trace(3600, 10.0);
    let cfg = PlatformConfig::small_test()
        .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_secs(30)));
    let out = Platform::new(cfg, suite).run(&trace);
    let requests = out.report.requests.len();
    assert_eq!(requests, trace.len());
    assert!(requests > 2000, "{requests} requests");
    assert!(
        out.peak_queue_depth * 10 < requests,
        "peak queue depth {} against {requests} requests",
        out.peak_queue_depth
    );
    // Most requests in flight at once, counting arrivals first at a tie.
    let mut edges: Vec<(u64, bool)> = (out.report.requests.iter())
        .flat_map(|r| [(r.arrival_us, false), (r.arrival_us + r.e2e_us, true)])
        .collect();
    edges.sort_unstable();
    let in_flight = edges.iter().scan(0usize, |n, &(_, done)| {
        *n = if done { *n - 1 } else { *n + 1 };
        Some(*n)
    });
    let bound = out.report.sandboxes_spawned as usize + in_flight.max().unwrap();
    assert!(
        out.peak_queue_depth <= bound,
        "peak queue depth {} against {bound} sandboxes + requests in flight",
        out.peak_queue_depth
    );
    // At least an arrival and a completion per request, and not much
    // more: a spawn per sandbox and a keep-alive firing per sandbox and
    // window (2.12 per request here; 3.03 when every go-idle armed one).
    assert!(out.events >= 2 * requests as u64, "{} events", out.events);
    assert!(
        out.events * 5 < 11 * requests as u64,
        "{} events",
        out.events
    );
}

#[test]
#[should_panic(expected = "must be sorted by arrival time")]
fn unsorted_trace_is_rejected_before_the_run() {
    let (suite, mut trace) = small_trace(60, 2.0);
    let last = trace.len() - 1;
    trace.invocations.swap(0, last);
    Platform::new(PlatformConfig::small_test(), suite).run(&trace);
}

#[test]
fn runs_are_deterministic() {
    let (suite, trace) = small_trace(60, 2.0);
    let r1 = Platform::new(PlatformConfig::small_test(), suite.clone())
        .run(&trace)
        .report;
    let r2 = Platform::new(PlatformConfig::small_test(), suite)
        .run(&trace)
        .report;
    assert_eq!(r1.requests.len(), r2.requests.len());
    for (a, b) in r1.requests.iter().zip(&r2.requests) {
        assert_eq!(a.e2e_us, b.e2e_us);
        assert_eq!(a.start, b.start);
    }
    assert_eq!(r1.total_cold_starts(), r2.total_cold_starts());
}

#[test]
fn first_request_is_a_cold_start_then_warm_reuse() {
    let (suite, trace) = small_trace(120, 2.0);
    let report = Platform::new(PlatformConfig::small_test(), suite)
        .run(&trace)
        .report;
    // The earliest request of each function must be cold.
    for f in 0..report.functions.len() {
        if let Some(first) = report
            .requests
            .iter()
            .filter(|r| r.func as usize == f)
            .min_by_key(|r| r.arrival_us)
        {
            assert_eq!(first.start, StartType::Cold, "fn {f}");
        }
    }
    // With steady traffic there must be warm starts too.
    assert!(report.requests.iter().any(|r| r.start == StartType::Warm));
}

#[test]
fn medes_produces_dedup_starts_under_pressure() {
    let (suite, trace) = small_trace(600, 10.0);
    let mut cfg = PlatformConfig::small_test();
    // A tight memory budget (P2) forces the optimizer to demand
    // dedup; a short idle period acts on it quickly.
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = medes_policy::medes::Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    let report = Platform::new(cfg, suite).run(&trace).report;
    assert!(
        report.sandboxes_deduped > 0,
        "dedup ops must happen under pressure"
    );
    assert!(
        report.requests.iter().any(|r| r.start == StartType::Dedup),
        "dedup starts must serve requests"
    );
    assert!(report.registry_peak_entries > 0, "bases must be indexed");
}

#[test]
fn image_builds_are_scans_plus_verified_restores_plus_pins() {
    let run = |cfg: PlatformConfig| {
        let (suite, trace) = small_trace(600, 10.0);
        let out = Platform::new(cfg, suite).run(&trace);
        (
            out.report,
            out.obs,
            out.dedup_work,
            out.dedup_memo_peak_bytes,
        )
    };

    // Spawning a sandbox needs a page count, not an image.
    let mut cfg = PlatformConfig::small_test();
    cfg.obs = medes_obs::ObsConfig::enabled();
    cfg.policy = PolicyKind::FixedKeepAlive(SimDuration::from_secs(600));
    let (report, obs, work, memo_peak) = run(cfg.clone());
    assert!(report.sandboxes_spawned > 0);
    assert_eq!((work, memo_peak), (ScanWork::default(), 0));
    assert_eq!(obs.counter("medes.images.builds"), 0);
    assert_eq!(obs.counter("medes.images.template_builds"), 0);
    assert_eq!(obs.counter("medes.images.template_bytes"), 0);

    cfg.policy = PlatformConfig::small_test().policy;
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = medes_policy::medes::Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    cfg.verify_restores = true;
    let (report, obs, work, memo_peak) = run(cfg.clone());
    let scans = obs.counter("medes.dedup.ops");
    let restores: u64 = report.dedup_stats.iter().map(|s| s.restores).sum();
    let pins = obs.counter("medes.platform.demarcations");
    assert!(scans > 0 && restores > 0 && pins > 0);
    // A scan builds its image unless its sandbox's last scan left
    // it everything it needs.
    assert!(work.scans_without_image > 0, "{work:?}");
    assert_eq!(
        obs.counter("medes.images.builds"),
        (scans - work.scans_without_image) + restores + pins
    );
    // Every page of every scan is charged a checkpoint; only a
    // sandbox's first scan fingerprints it.
    let scanned_pages =
        obs.counter("medes.dedup.checkpoint_bytes") / (medes_mem::PAGE_SIZE * cfg.mem_scale) as u64;
    assert!(work.pages_fingerprinted > 0 && work.pages_reused > 0);
    assert!(
        work.pages_fingerprinted < scanned_pages,
        "{work:?} over {scanned_pages} scanned pages"
    );
    // Each elected, resolvable page was encoded or reused; the ones
    // that ended up patched in a committed table are in the report.
    assert!(work.pages_encoded + work.pages_reused >= report.same_fn_pages + report.cross_fn_pages);
    assert!(memo_peak > 0);
    for (name, v) in [
        ("medes.dedup.pages_fingerprinted", work.pages_fingerprinted),
        ("medes.dedup.pages_encoded", work.pages_encoded),
        ("medes.dedup.pages_reused", work.pages_reused),
        ("medes.dedup.scans_without_image", work.scans_without_image),
        ("medes.dedup.memo_peak_bytes", memo_peak as u64),
    ] {
        assert_eq!(obs.counter(name), v, "{name}");
    }
    // One deploy version: at most one template per function, each
    // the function's image plus an eighth of its heap (and a flag
    // per tile).
    let template_builds = obs.counter("medes.images.template_builds");
    assert!((1..=4).contains(&template_builds), "{template_builds}");
    let suite = small_trace(600, 10.0).0;
    let factory = ImageFactory::new(&suite, cfg.content, cfg.aslr, cfg.mem_scale);
    let image_bytes: usize = (0..suite.len())
        .map(|f| factory.model_pages(FnId(f)) * medes_mem::PAGE_SIZE)
        .sum();
    let template_bytes = obs.counter("medes.images.template_bytes") as usize;
    assert!(template_bytes > 0);
    assert!(
        template_bytes * 4 <= image_bytes * 5,
        "{template_bytes} template bytes for {image_bytes} image bytes"
    );
}

#[test]
fn baseline_policies_never_dedup() {
    let (suite, trace) = small_trace(120, 2.0);
    let cfg = PlatformConfig::small_test()
        .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
    let report = Platform::new(cfg, suite).run(&trace).report;
    assert_eq!(report.sandboxes_deduped, 0);
    assert!(report.requests.iter().all(|r| r.start != StartType::Dedup));
}

#[test]
fn memory_limit_is_respected() {
    let (suite, trace) = small_trace(600, 25.0);
    let mut cfg = PlatformConfig::small_test()
        .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
    cfg.nodes = 2;
    cfg.node_mem_bytes = 100 << 20;
    let nodes = cfg.nodes;
    let limit = cfg.node_mem_bytes;
    let report = Platform::new(cfg, suite).run(&trace).report;
    // Memory samples must stay within cluster capacity (small slack
    // for transient restore overheads).
    let cap = (nodes * limit) as f64;
    for &(_, mem) in &report.mem_series {
        assert!(mem <= cap * 1.05, "memory {mem} exceeds capacity {cap}");
    }
    assert!(report.evictions > 0, "pressure must cause evictions");
}

#[test]
fn obs_trace_matches_report_aggregates() {
    let (suite, trace) = small_trace(600, 10.0);
    let mut cfg = PlatformConfig::small_test();
    cfg.obs = medes_obs::ObsConfig::enabled();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = medes_policy::medes::Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    let outcome = Platform::new(cfg, suite).run(&trace);
    let (report, obs) = (outcome.report, outcome.obs);
    assert_eq!(obs.spans_dropped(), 0, "buffer must hold the whole run");

    // Every request is mirrored into the start-type counters and as
    // a request span whose attrs match the report's records.
    let starts = obs.counter("medes.platform.starts.warm")
        + obs.counter("medes.platform.starts.dedup")
        + obs.counter("medes.platform.starts.cold");
    assert_eq!(starts, report.requests.len() as u64);
    assert_eq!(
        obs.counter("medes.platform.arrivals"),
        report.requests.len() as u64
    );

    // The JSONL export round-trips, and the per-phase restore
    // breakdown computed from spans matches the report's folded
    // means (Fig 8) within 1 µs.
    let spans = medes_obs::parse_jsonl(&obs.export_jsonl());
    let total_restores: u64 = report.dedup_stats.iter().map(|s| s.restores).sum();
    assert!(total_restores > 0, "run must contain dedup starts");
    for (span_name, pick) in [
        ("medes.restore.base_read", 0usize),
        ("medes.restore.page_compute", 1),
        ("medes.restore.ckpt", 2),
    ] {
        let durs: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == span_name)
            .map(|s| s.dur_us())
            .collect();
        assert_eq!(durs.len() as u64, total_restores, "{span_name}");
        let span_mean = durs.iter().sum::<u64>() as f64 / durs.len() as f64;
        let report_mean = report
            .dedup_stats
            .iter()
            .map(|s| {
                let m = [
                    s.mean_restore_us.0,
                    s.mean_restore_us.1,
                    s.mean_restore_us.2,
                ][pick];
                m * s.restores as f64
            })
            .sum::<f64>()
            / total_restores as f64;
        assert!(
            (span_mean - report_mean).abs() <= 1.0,
            "{span_name}: spans {span_mean} vs report {report_mean}"
        );
    }

    // Dedup-op spans agree with the op counter, and the registry's
    // own counters agree with the report.
    let dedup_ops: u64 = report.dedup_stats.iter().map(|s| s.dedup_ops).sum();
    assert!(
        obs.counter("medes.dedup.ops") >= dedup_ops,
        "every committed op was recorded"
    );
    assert_eq!(
        obs.counter("medes.registry.lookups"),
        report.registry_lookups
    );
}

/// Host wall time must never enter a deterministic export: two
/// obs-on runs of one config export byte-identical JSONL (spans
/// plus the metrics/SLO tail) and equal SLO summaries.
#[test]
fn obs_exports_are_byte_identical_across_runs() {
    let run = || {
        let (suite, trace) = small_trace(600, 10.0);
        let mut cfg = PlatformConfig::small_test();
        cfg.obs = medes_obs::ObsConfig::enabled();
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(5);
            m.objective = medes_policy::medes::Objective::MemoryBudget {
                budget_bytes: 100e6,
            };
        }
        Platform::new(cfg, suite).run(&trace)
    };
    let (a, b) = (run(), run());
    assert!(a.report.sandboxes_deduped > 0, "run must dedup");
    assert_eq!(a.obs.spans_dropped(), 0);
    assert_eq!(a.obs.export_jsonl(), b.obs.export_jsonl());
}

/// A dedup op starts at the idle check that picks its sandbox. Two
/// overlapping requests of one function leave two warm sandboxes; the
/// first to go idle becomes the base, and the other's op span starts
/// exactly `idle_period` after its exec end.
#[test]
fn dedup_starts_at_the_idle_check() {
    let suite: Vec<FunctionProfile> = functionbench_suite().into_iter().take(1).collect();
    let arrivals = vec![vec![SimTime::ZERO, SimTime::from_millis(1)]];
    let trace = Trace::from_arrivals(
        vec![suite[0].name.clone()],
        arrivals,
        SimTime::from_secs(60),
    );
    let idle_period = SimDuration::from_secs(5);
    let cfg = PlatformConfig::test_builder()
        .obs(medes_obs::ObsConfig::enabled())
        .tweak(|cfg| {
            if let PolicyKind::Medes(m) = &mut cfg.policy {
                m.idle_period = idle_period;
                m.objective = Objective::MemoryBudget { budget_bytes: 1.0 };
            }
        })
        .build()
        .expect("valid config");
    let outcome = Platform::new(cfg, suite).run(&trace);
    let report = &outcome.report;
    assert_eq!(report.cold_starts(), vec![2], "two sandboxes");
    let last_exec_end = (report.requests.iter())
        .map(|r| r.arrival_us + r.e2e_us)
        .max()
        .unwrap();
    let spans = outcome.obs.spans();
    let first_op = (spans.iter())
        .filter(|s| s.name == "medes.dedup.op")
        .map(|s| s.start_us)
        .min()
        .expect("the second sandbox dedups");
    assert_eq!(first_op, last_exec_end + idle_period.as_micros());

    // `workers` is a shim that accepts only 1, which changes nothing.
    assert_eq!(
        PlatformConfig::builder().workers(2).build().unwrap_err(),
        crate::config::ConfigError::Workers(2)
    );
    let one = PlatformConfig::builder().workers(1).build().unwrap();
    assert_eq!(
        format!("{one:?}"),
        format!("{:?}", PlatformConfig::paper_default())
    );
}

#[test]
fn disabled_obs_leaves_run_untouched() {
    let (suite, trace) = small_trace(60, 2.0);
    let cfg = PlatformConfig::small_test();
    assert!(!cfg.obs.enabled);
    let outcome = Platform::new(cfg, suite).run(&trace);
    let (report, obs) = (outcome.report, outcome.obs);
    assert!(!report.requests.is_empty());
    assert_eq!(obs.span_count(), 0);
    assert!(obs.export_jsonl().ends_with("{\"metrics\":{}}\n"));
}

/// Tentpole: every restore op links under the request span minted
/// from the same `(seed, request id)` root, its phase spans tile it
/// exactly — the tree `trace analyze` reconstructs.
#[test]
fn causal_tree_links_restores_under_request_roots() {
    let (suite, trace) = small_trace(600, 10.0);
    let mut cfg = PlatformConfig::small_test();
    cfg.obs = medes_obs::ObsConfig::enabled();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = medes_policy::medes::Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    let outcome = Platform::new(cfg, suite).run(&trace);
    assert_eq!(outcome.obs.spans_dropped(), 0);
    let spans = outcome.obs.spans();
    let by_id: HashMap<u64, &medes_obs::ParsedSpan> = spans
        .iter()
        .filter(|s| s.span_id != 0)
        .map(|s| (s.span_id, s))
        .collect();
    let ops: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "medes.restore.op")
        .collect();
    assert!(!ops.is_empty(), "run must contain restores");
    for op in &ops {
        assert_ne!(op.trace_id, 0, "restore ops are traced");
        let root = by_id
            .get(&op.parent_id)
            .expect("restore op's parent (the request span) was emitted");
        assert_eq!(root.name, "medes.platform.request");
        assert_eq!(root.trace_id, op.trace_id);
        assert_eq!(root.span_id, root.trace_id, "request spans are roots");
        // The phase children tile the op interval exactly, so
        // per-node self-times sum to the op duration.
        let tiled: u64 = spans
            .iter()
            .filter(|s| s.parent_id == op.span_id && s.name.starts_with("medes.restore."))
            .map(|s| s.dur_us())
            .sum();
        assert_eq!(tiled, op.dur_us(), "phases tile the restore op");
        assert!(op.start_us >= root.start_us && op.end_us <= root.end_us);
    }
    // Dedup ops root their own traces: their parent id is the trace
    // root the platform minted (no span of its own — `trace
    // analyze` promotes orphans to roots).
    let dops: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "medes.dedup.op")
        .collect();
    assert!(!dops.is_empty(), "run must contain dedup ops");
    for d in &dops {
        assert_ne!(d.trace_id, 0);
        assert_eq!(d.parent_id, d.trace_id, "dedup op hangs off its root ctx");
    }
}

/// The span schema `trace report` folds: every request span carries
/// its node, function, start type and the §5.2 SLO bound — `⌊α·s_W⌋`
/// under the latency-target objective (P1), 0 under the memory budget
/// (P2) and fixed keep-alive — every dedup and restore op span its
/// node, and every dedup lookup span its registry candidates. No span
/// is dropped, so the in-process spans are the whole record.
#[test]
fn request_spans_carry_node_and_slo_bound() {
    let (suite, trace) = small_trace(600, 10.0);
    let run = |tweak: &dyn Fn(&mut PlatformConfig)| {
        let mut cfg = PlatformConfig::small_test();
        cfg.obs = medes_obs::ObsConfig::enabled();
        tweak(&mut cfg);
        let outcome = Platform::new(cfg, suite.clone()).run(&trace);
        assert_eq!(outcome.obs.spans_dropped(), 0, "spans went past the cap");
        outcome.obs.spans()
    };
    let uint = |s: &medes_obs::ParsedSpan, key: &str| {
        (s.attr(key).and_then(Json::as_u64))
            .unwrap_or_else(|| panic!("{} lacks uint {key}", s.name))
    };
    let idle_5s = |cfg: &mut PlatformConfig| {
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.idle_period = SimDuration::from_secs(5);
        }
    };
    let PolicyKind::Medes(m) = &PlatformConfig::small_test().policy else {
        panic!("small_test runs Medes");
    };
    let Objective::LatencyTarget { alpha } = m.objective else {
        panic!("small_test runs the latency target (P1)");
    };
    let spans = run(&idle_5s);
    let requests: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "medes.platform.request")
        .collect();
    assert_eq!(requests.len(), trace.len());
    for r in &requests {
        assert!(uint(r, "node") < 4);
        assert!(r.attr("start_type").and_then(Json::as_str).is_some());
        let Some(name) = r.attr("fn").and_then(Json::as_str) else {
            panic!("request without fn");
        };
        let profile = suite.iter().find(|p| p.name == name).expect("known fn");
        let s_w = profile.warm_start().as_micros() as f64;
        assert_eq!(uint(r, "bound_us"), (alpha * s_w) as u64, "{name}");
    }
    let mut kinds = [0usize; 3];
    for s in &spans {
        let kind = ["medes.dedup.op", "medes.restore.op", "medes.dedup.lookup"]
            .iter()
            .position(|&n| n == s.name);
        if let Some(k) = kind {
            kinds[k] += 1;
            uint(s, if k == 2 { "candidates" } else { "node" });
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "dedup, restore, lookup: {kinds:?}"
    );
    assert_eq!(kinds[0], kinds[2], "one lookup per dedup op");

    // No bound under P2 or a fixed keep-alive.
    let p2 = |cfg: &mut PlatformConfig| {
        idle_5s(cfg);
        if let PolicyKind::Medes(m) = &mut cfg.policy {
            m.objective = Objective::MemoryBudget {
                budget_bytes: 100e6,
            };
        }
    };
    let fixed = |cfg: &mut PlatformConfig| {
        cfg.policy = PolicyKind::FixedKeepAlive(SimDuration::from_secs(60));
    };
    for spans in [run(&p2), run(&fixed)] {
        let mut requests = spans.iter().filter(|s| s.name == "medes.platform.request");
        assert!(requests.all(|r| uint(r, "bound_us") == 0));
    }
}

/// Rolling deploys: bumps register, stale sandboxes are purged, and
/// the epoch boundary costs cold starts and dedup savings relative
/// to the same trace without deploys.
#[test]
fn version_bumps_purge_stale_sandboxes_and_cost_savings() {
    let (suite, trace) = small_trace(600, 10.0);
    let mut cfg = PlatformConfig::small_test();
    if let PolicyKind::Medes(m) = &mut cfg.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = medes_policy::medes::Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    let baseline = Platform::new(cfg.clone(), suite.clone()).run(&trace).report;
    assert_eq!(baseline.version_bumps, 0);
    assert_eq!(baseline.version_purges, 0);

    // Deploy a new version of every function mid-run.
    cfg.deploys = medes_trace::DeploySchedule {
        bumps: (0..suite.len())
            .map(|f| medes_trace::VersionBump {
                function: f,
                at: SimTime::from_secs(300),
                version: 1,
            })
            .collect(),
    };
    let deployed = Platform::new(cfg, suite).run(&trace).report;
    assert_eq!(deployed.version_bumps, 4, "every bump must register");
    assert!(deployed.version_purges > 0, "stale sandboxes must die");
    assert_eq!(deployed.requests.len(), trace.len());
    assert!(
        deployed.total_cold_starts() > baseline.total_cold_starts(),
        "invalidating warm pools must cost cold starts ({} vs {})",
        deployed.total_cold_starts(),
        baseline.total_cold_starts()
    );
    // Replays stay bit-identical with a deploy schedule in play.
    let mut cfg2 = PlatformConfig::small_test();
    if let PolicyKind::Medes(m) = &mut cfg2.policy {
        m.idle_period = SimDuration::from_secs(5);
        m.objective = medes_policy::medes::Objective::MemoryBudget {
            budget_bytes: 100e6,
        };
    }
    cfg2.deploys = medes_trace::DeploySchedule {
        bumps: (0..deployed.functions.len())
            .map(|f| medes_trace::VersionBump {
                function: f,
                at: SimTime::from_secs(300),
                version: 1,
            })
            .collect(),
    };
    let (suite2, trace2) = small_trace(600, 10.0);
    let replay = Platform::new(cfg2, suite2).run(&trace2).report;
    assert_eq!(deployed, replay, "deploy runs must replay bit-identically");
}

/// Heterogeneous node memories: the run respects each node's own
/// limit and the per-node free-memory accounting uses the profile.
#[test]
fn hetero_node_memory_profile_is_respected() {
    let (suite, trace) = small_trace(600, 15.0);
    let mut cfg = PlatformConfig::small_test()
        .with_policy(PolicyKind::FixedKeepAlive(SimDuration::from_mins(10)));
    cfg.nodes = 4;
    // One big node, two mid, one small (still fits the largest fn).
    cfg.node_mem_profile = vec![400 << 20, 200 << 20, 200 << 20, 100 << 20];
    let cap: usize = cfg.node_mem_profile.iter().sum();
    assert_eq!(cfg.cluster_mem_bytes(), cap);
    let report = Platform::new(cfg, suite).run(&trace).report;
    assert_eq!(report.requests.len(), trace.len());
    for &(_, mem) in &report.mem_series {
        assert!(
            mem <= cap as f64 * 1.05,
            "memory {mem} exceeds hetero capacity {cap}"
        );
    }
}

/// An empty deploy schedule and an empty memory profile must leave
/// the default run byte-identical (the golden-path guard for the
/// fig7/fig9/chaos experiments).
#[test]
fn empty_deploys_and_profile_match_default_run_exactly() {
    let (suite, trace) = small_trace(300, 5.0);
    let base = Platform::new(PlatformConfig::small_test(), suite.clone())
        .run(&trace)
        .report;
    let mut cfg = PlatformConfig::small_test();
    cfg.deploys = medes_trace::DeploySchedule::default();
    cfg.node_mem_profile = vec![cfg.node_mem_bytes; cfg.nodes];
    let explicit = Platform::new(cfg, suite).run(&trace).report;
    assert_eq!(base, explicit);
}
