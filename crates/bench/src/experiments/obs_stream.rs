//! `obs-stream` — bounded-memory streaming telemetry, end to end.
//!
//! Three claims, each checked by assertion:
//!
//! 1. **Streaming + sampling never perturb the simulation.** The same
//!    workload with telemetry off and with the streamed sink plus the
//!    sim-time sampler fully on must produce an identical
//!    [`RunReport`](medes_core::metrics::RunReport).
//! 2. **Span memory is bounded by the ring.** With a deliberately tiny
//!    ring cap, the in-memory span count stays at the cap while the
//!    on-disk trace holds *every* span, and the accounting closes
//!    exactly (`streamed == buffered + dropped`).
//! 3. **`trace diff` catches an injected regression.** The streamed
//!    run diffed against itself is clean; diffed against the same
//!    workload under a deliberately worse policy (a 1-second fixed
//!    keep-alive, which cold-starts almost everything) it must flag
//!    regressions — the signal the CLI turns into a nonzero exit.

use crate::common::{run as run_platform, run_outcome, ExpConfig};
use crate::diff::{diff, DiffThresholds, TraceExport};
use crate::report::{f, Report};
use medes_core::config::PolicyKind;
use medes_obs::{parse_jsonl, parse_timeseries, ObsConfig};
use medes_policy::medes::Objective;
use medes_sim::SimDuration;
use std::path::{Path, PathBuf};

/// Deliberately tiny ring: the workload records far more spans than
/// this, so the bound is actually exercised.
const RING_CAP: usize = 1024;

/// Finds the newest (highest export sequence) `trace-<tag>-<n>.jsonl`
/// under `dir` — the platform prints the path but does not return it,
/// and the sequence number is process-global.
pub(crate) fn find_trace(dir: &Path, tag: &str) -> PathBuf {
    let prefix = format!("trace-{tag}-");
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir)
        .expect("results dir exists")
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(seq) = rest
            .strip_suffix(".jsonl")
            .filter(|s| !s.ends_with(".timeseries"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| seq > *b) {
            best = Some((seq, entry.path()));
        }
    }
    best.expect("streamed trace file exists").1
}

fn streamed_obs(cfg: &ExpConfig, tag: &str, sample_ms: u64) -> ObsConfig {
    let mut oc = ObsConfig::enabled()
        .tagged(tag)
        .streamed()
        .sampled_every_ms(sample_ms);
    oc.set_export_dir(cfg.results_dir.clone());
    oc.span_buffer_cap = RING_CAP;
    oc
}

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Report {
    let mut report = Report::new("obs-stream", "bounded-memory streaming telemetry");
    let suite = cfg.suite();
    let trace = cfg.full_trace(&suite);
    let sample_ms = if cfg.quick { 1_000 } else { 5_000 };
    let mut base = cfg.platform();
    base.obs = ObsConfig::default(); // telemetry strictly off
    base.policy = PolicyKind::Medes(cfg.medes_policy(Objective::LatencyTarget { alpha: 2.5 }));

    // Claim 1: identical reports with streaming + sampling fully on.
    let plain = run_platform(base.clone(), &suite, &trace);
    let streamed_cfg = {
        let mut c = base.clone();
        c.obs = streamed_obs(cfg, "obs-stream-s", sample_ms);
        c
    };
    let streamed = run_outcome(streamed_cfg, &suite, &trace);
    assert_eq!(
        plain, streamed.report,
        "streaming + sampling changed the simulation"
    );
    report.section("determinism");
    report.line(&format!(
        "telemetry-off and streamed+sampled runs produced identical reports \
         ({} requests)",
        plain.requests.len()
    ));

    // Claim 2: the ring bounds span memory; the disk trace is complete.
    let obs = &streamed.obs;
    let streamed_total = obs.spans_streamed();
    assert!(
        obs.span_count() <= RING_CAP,
        "ring exceeded its cap: {} > {RING_CAP}",
        obs.span_count()
    );
    assert!(
        streamed_total > RING_CAP as u64,
        "workload too small to exercise the ring ({streamed_total} spans)"
    );
    assert_eq!(
        streamed_total,
        obs.span_count() as u64 + obs.spans_dropped(),
        "streamed-mode accounting must close exactly"
    );
    let trace_path = find_trace(&cfg.results_dir, "obs-stream-s");
    let trace_text = std::fs::read_to_string(&trace_path).expect("streamed trace readable");
    let on_disk = parse_jsonl(&trace_text).len();
    assert_eq!(
        on_disk as u64, streamed_total,
        "on-disk trace must hold every streamed span"
    );
    let ts_path = trace_path.with_extension("timeseries.jsonl");
    let ts_text = std::fs::read_to_string(&ts_path).expect("timeseries exported");
    let series = parse_timeseries(&ts_text);
    assert!(
        series.len() >= 6,
        "sampler exported only {} series",
        series.len()
    );
    assert!(
        series
            .iter()
            .all(|s| s.points.windows(2).all(|w| w[0].0 < w[1].0)),
        "sample timestamps must be strictly increasing"
    );
    report.section("bounded span memory");
    let rows = vec![
        vec!["ring cap".to_string(), RING_CAP.to_string()],
        vec!["spans in memory".to_string(), obs.span_count().to_string()],
        vec![
            "spans dropped from ring".to_string(),
            obs.spans_dropped().to_string(),
        ],
        vec![
            "spans streamed to disk".to_string(),
            streamed_total.to_string(),
        ],
        vec!["spans on disk".to_string(), on_disk.to_string()],
        vec!["sampled series".to_string(), series.len().to_string()],
        vec![
            "sampled points".to_string(),
            series
                .iter()
                .map(|s| s.points.len())
                .sum::<usize>()
                .to_string(),
        ],
    ];
    report.table(&["quantity", "value"], &rows);

    // Claim 3: `trace diff` is clean on self, loud on a regression.
    let self_side = TraceExport::load(
        trace_path.file_name().unwrap().to_str().unwrap(),
        &trace_text,
        Some(&ts_text),
    );
    let th = DiffThresholds::default();
    let (_, clean) = diff(&self_side, &self_side, &th);
    assert!(clean.is_empty(), "self-diff flagged {clean:?}");
    let worse_cfg = {
        let mut c = base.clone();
        c.policy = PolicyKind::FixedKeepAlive(SimDuration::from_secs(1));
        c.obs = streamed_obs(cfg, "obs-stream-r", sample_ms);
        c
    };
    let _worse = run_outcome(worse_cfg, &suite, &trace);
    let worse_path = find_trace(&cfg.results_dir, "obs-stream-r");
    let worse_text = std::fs::read_to_string(&worse_path).expect("regression trace readable");
    let worse_ts = std::fs::read_to_string(worse_path.with_extension("timeseries.jsonl")).ok();
    let worse_side = TraceExport::load(
        worse_path.file_name().unwrap().to_str().unwrap(),
        &worse_text,
        worse_ts.as_deref(),
    );
    let (_, flagged) = diff(&self_side, &worse_side, &th);
    assert!(
        !flagged.is_empty(),
        "injected regression (1s fixed keep-alive) not flagged"
    );
    report.section("trace diff");
    report.line("self-diff: clean (0 regressions)");
    report.line(&format!(
        "vs 1s fixed keep-alive: {} regression(s) flagged, e.g. {}: {} -> {}",
        flagged.len(),
        flagged[0].metric,
        f(flagged[0].base, 1),
        f(flagged[0].cand, 1)
    ));

    report.json_set(
        "summary",
        medes_obs::json!({
            "ring_cap": RING_CAP,
            "spans_in_memory": obs.span_count(),
            "spans_dropped": obs.spans_dropped(),
            "spans_streamed": streamed_total,
            "spans_on_disk": on_disk,
            "series": series.len(),
            "self_diff_regressions": 0,
            "injected_regressions": flagged.len(),
        }),
    );
    report
}
