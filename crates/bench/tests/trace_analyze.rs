//! End-to-end: a traced quick-scale Medes run exports a JSONL trace
//! that `trace report` reconstructs into exact causal trees, drills
//! into and compares against another run — and no telemetry setting
//! (off, on, labeled) moves the `RunReport`. These are the gates
//! of the observability layer (DESIGN.md §8, §12, §16); the one
//! host-time claim, a ceiling on tracing overhead, is `#[ignore]`d and
//! run by CI in `--release` with `-- --ignored`.

use medes_bench::common::{run_outcome, ExpConfig};
use medes_bench::trace;
use medes_core::config::{PlatformConfig, PolicyKind};
use medes_core::platform::RunOutcome;
use medes_obs::{parse_tail, ObsConfig};
use medes_policy::medes::Objective;
use medes_sim::fault::{FaultPlan, LinkFaultKind, LinkFaultWindow};
use medes_sim::{SimDuration, SimTime};
use medes_trace::{FunctionProfile, Trace};
use std::process::Command;
use std::time::Instant;

/// Tracing on, with a span cap large enough that the tree checks are
/// not confounded by ring eviction.
fn traced() -> ObsConfig {
    let mut obs = ObsConfig::enabled();
    obs.span_buffer_cap = 1 << 21;
    obs
}

/// The quick-scale harness cluster under Medes P1, its suite and trace.
fn quick_inputs() -> (PlatformConfig, Vec<FunctionProfile>, Trace) {
    let cfg = ExpConfig::quick();
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let policy = cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 });
    let platform = cfg.platform().with_policy(PolicyKind::Medes(policy));
    (platform, suite, trace)
}

/// One run of [`quick_inputs`] with `obs` as its telemetry; `tweak`
/// edits the platform configuration first.
fn quick_run(obs: ObsConfig, tweak: impl FnOnce(&mut PlatformConfig)) -> RunOutcome {
    let (mut platform, suite, trace) = quick_inputs();
    platform.obs = obs;
    tweak(&mut platform);
    run_outcome(platform, &suite, &trace)
}

/// The exit code of `experiments trace report` on the `trace` export,
/// compared `--against` the `base` export when given. Each export is
/// written to a temp file named after it and removed afterwards, with
/// the folded stacks the report writes beside it.
fn report_exit(trace: (&str, &str), base: Option<(&str, &str)>) -> Option<i32> {
    let write = |(name, jsonl): (&str, &str)| {
        let path = std::env::temp_dir().join(format!("medes-{name}-{}.jsonl", std::process::id()));
        std::fs::write(&path, jsonl).expect("temp trace written");
        path
    };
    let path = write(trace);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(["trace", "report"]).arg(&path);
    let base = base.map(write);
    if let Some(base) = &base {
        cmd.arg("--against").arg(base);
    }
    let code = cmd.output().expect("experiments binary runs").status.code();
    for p in [Some(path.with_extension("folded")), Some(path), base]
        .into_iter()
        .flatten()
    {
        let _ = std::fs::remove_file(p);
    }
    code
}

#[test]
fn traced_run_reconstructs_exact_request_trees() {
    let outcome = quick_run(traced().labeled(), |_| {});
    let jsonl = outcome.obs.export_jsonl();
    let run = trace::load("e2e.jsonl", &jsonl);
    let forest = &run.forest;

    // At least one restore happened and its tree is exact: every
    // request tree's per-node self times sum to the root duration.
    let mut restore_trees = 0usize;
    let mut request_trees = 0usize;
    for tree in &forest.trees {
        for &root in &tree.roots {
            if forest.spans[root].name != "medes.platform.request" {
                continue;
            }
            request_trees += 1;
            assert_eq!(
                forest.tree_self_sum(root),
                forest.spans[root].dur_us(),
                "request tree self times must sum to the root duration"
            );
            let path = forest.critical_path(root);
            assert!(!path.is_empty());
            let has_restore = forest.children[root]
                .iter()
                .any(|&c| forest.spans[c].name == "medes.restore.op");
            if has_restore {
                restore_trees += 1;
                // The critical path of a restored request descends
                // below the request span into the op's phases.
                assert!(path.len() >= 3, "restore critical path too shallow");
            }
        }
    }
    assert!(request_trees > 0, "no request trees in the trace");
    assert!(restore_trees > 0, "no restore trees in the trace");

    // The report renders and the folded-stacks output is non-empty
    // with multi-level stacks.
    let (report, findings) = trace::report(&run, None, None);
    let text = report.text();
    assert!(text.contains("critical path"));
    assert!(text.contains("medes.platform.request"));
    let folded = forest.folded_stacks();
    assert!(folded.lines().any(|l| l.contains(';')), "no nested stacks");

    // The SLO summary is in the export's tail.
    let slo = outcome.obs.slo_summary();
    assert!(!slo.is_empty());
    let tail = parse_tail(&jsonl).expect("export ends in a tail");
    for row in &slo {
        assert_eq!(tail["slo"][row.func.as_str()]["count"], row.count as i64);
    }

    // The drill-down needs nothing but the same string: cold starts
    // break the α·s_W bound, so violators are retained, ranked by node
    // and resolved against the spans above the tail.
    assert!(findings.attributions.iter().any(|a| a.kind == "slo-node"));
    assert!(findings.gate(), "attributions must fail the gate");
    assert!(text.contains("critical path of worst violation"), "{text}");
    assert!(!text.contains("trace not present"), "{text}");

    // Telemetry observes the simulation, it never perturbs it: off and
    // label-off runs report what this labeled one did. Labels must add
    // series, and leave no key behind when off.
    let untraced = quick_run(ObsConfig::default(), |_| {});
    assert_eq!(
        untraced.report, outcome.report,
        "enabling the tracer changed the simulation"
    );
    let label_off = quick_run(traced(), |_| {});
    assert_eq!(
        label_off.report, outcome.report,
        "dimensional telemetry changed the simulation"
    );
    assert!(outcome.obs.labeled_len() > 0, "no labeled series recorded");
    let label_off = label_off.obs.export_jsonl();
    assert!(
        !label_off.contains("\"labeled\""),
        "a label-off tail must not carry a labeled key"
    );
    // A label-off export has nothing to attribute: `trace report` exits 0.
    assert_eq!(report_exit(("label-off", &label_off), None), Some(0));

    // `--against` is quiet on a run against itself and loud on an
    // injected regression: the same workload under a 1 s fixed
    // keep-alive, which cold-starts almost everything.
    let worse = quick_run(traced().labeled(), |p| {
        p.policy = PolicyKind::FixedKeepAlive(SimDuration::from_secs(1));
    });
    let worse = worse.obs.export_jsonl();
    let (_, clean) = trace::report(&run, Some(&run), None);
    assert_eq!(clean.regressions, Some(vec![]), "self-comparison flagged");
    assert!(!clean.gate());
    let (_, flagged) = trace::report(&trace::load("worse", &worse), Some(&run), None);
    assert!(
        flagged.regressions.is_some_and(|r| !r.is_empty()),
        "injected regression (1s fixed keep-alive) not flagged"
    );
    assert_eq!(
        report_exit(("worse", &worse), Some(("base", &jsonl))),
        Some(1)
    );
}

/// The drill-down names an injected slow node: a latency-spike window
/// (x150 on every RDMA read into node 1, enough that dedup restores
/// served there outrank even the worst cold starts among the
/// per-function violators) makes `trace report` rank that node first
/// and resolve a critical path for its worst violation. The CLI turns
/// both findings into exit codes.
#[test]
fn injected_slow_node_is_the_top_attribution() {
    let slow = quick_run(ObsConfig::enabled().labeled(), |p| {
        p.faults = FaultPlan {
            links: vec![LinkFaultWindow {
                src: None,
                dst: Some(1),
                from: SimTime::ZERO,
                until: SimTime::from_secs(ExpConfig::quick().trace_secs()),
                kind: LinkFaultKind::LatencySpike { factor: 150.0 },
            }],
            ..FaultPlan::default()
        };
    });
    assert!(
        slow.obs.slo_violations() > 0,
        "slow-node run must record SLO violations"
    );
    let jsonl = slow.obs.export_jsonl();
    let (drill, findings) = trace::report(&trace::load("slow.jsonl", &jsonl), None, None);
    let attributions = &findings.attributions;
    let top = attributions
        .first()
        .expect("slow-node run produced no attributions");
    assert_eq!(
        top.kind, "slo-node",
        "top attribution must come from the SLO violator ranking"
    );
    assert_eq!(
        top.subject, "node 1",
        "injected slow node must rank first: {attributions:?}"
    );
    assert!(
        drill.text().contains("critical path of worst violation"),
        "drill-down must resolve a critical path"
    );

    // `trace report` exits 1 on findings; compared against itself it
    // gates on regressions only, and exits 0.
    assert_eq!(report_exit(("slow", &jsonl), None), Some(1));
    assert_eq!(
        report_exit(("slow-self", &jsonl), Some(("slow-base", &jsonl))),
        Some(0)
    );
}

/// Generous wall-time ceiling for the enabled tracer, as a fraction of
/// the disabled run (3.0 = +300 %): it guards against an accidental
/// O(n^2), it does not benchmark the tracer — `obs.overhead_frac` in
/// `BENCHMARK.json` is the number.
#[test]
#[ignore = "host-time gate"]
fn tracing_overhead_stays_under_the_ceiling() {
    let (platform, suite, trace) = quick_inputs();
    let best_of_3 = |obs: ObsConfig| {
        let mut platform = platform.clone();
        platform.obs = obs;
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                run_outcome(platform.clone(), &suite, &trace);
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let overhead = best_of_3(traced()) / best_of_3(ObsConfig::default()) - 1.0;
    assert!(
        overhead < 3.0,
        "tracing overhead {:.0}% exceeds the 300% ceiling",
        overhead * 100.0
    );
}
