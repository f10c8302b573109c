//! Cross-crate tests for the streaming span sink and the sim-time
//! series sampler (DESIGN.md §12): turning both fully on must leave
//! the `RunReport` byte-identical, span memory must stay bounded by a
//! ring far smaller than the trace while the streamed trace on disk is
//! complete with exact drop accounting, and the streamed file must
//! match a buffered export byte-for-byte when the ring never
//! overflows.

use medes::obs::{parse_jsonl, parse_timeseries, ObsConfig};
use medes::platform::config::PlatformConfig;
use medes::platform::Platform;
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};
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
            ..Default::default()
        },
    );
    (suite, trace)
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medes-it-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Finds the exported `trace-<tag>-<seq>.jsonl` for a run tag — the
/// export sequence number is process-global, so tests cannot assume 0.
fn find_trace(dir: &Path, tag: &str) -> PathBuf {
    let prefix = format!("trace-{tag}-");
    std::fs::read_dir(dir)
        .expect("export dir exists")
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.starts_with(&prefix) && n.ends_with(".jsonl") && !n.contains(".timeseries")
            })
        })
        .expect("exported trace present")
}

fn streamed_config(dir: &Path, tag: &str, sample_ms: u64) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    let mut oc = ObsConfig::enabled()
        .tagged(tag)
        .streamed()
        .sampled_every_ms(sample_ms);
    oc.set_export_dir(dir.to_path_buf());
    cfg.obs = oc;
    cfg
}

/// Deliberately tiny ring: the workload streams four times this
/// many spans, so the bound and the drop accounting are exercised.
const RING_CAP: usize = 128;

/// Streaming spans to disk and sampling time series every 500 sim-ms
/// must not move a single byte of the `RunReport`; the ring bounds span
/// memory while the disk trace holds every streamed span, and the
/// series must be strictly time-ordered.
#[test]
fn streaming_and_sampling_do_not_perturb_the_run() {
    let (suite, trace) = workload();
    let mut plain_cfg = PlatformConfig::small_test();
    plain_cfg.obs = ObsConfig::default();
    let plain = Platform::new(plain_cfg, suite.clone()).run(&trace).report;

    let dir = scratch_dir("stream");
    let mut streamed_cfg = streamed_config(&dir, "it-stream", 500);
    streamed_cfg.obs.span_buffer_cap = RING_CAP;
    let outcome = Platform::new(streamed_cfg, suite).run(&trace);
    assert_eq!(
        plain, outcome.report,
        "streaming + sampling must not perturb the simulation"
    );

    let obs = &outcome.obs;
    assert!(
        obs.span_count() <= RING_CAP,
        "ring exceeded its cap: {} > {RING_CAP}",
        obs.span_count()
    );
    assert!(
        obs.spans_streamed() > RING_CAP as u64,
        "workload too small to overflow the ring ({} spans)",
        obs.spans_streamed()
    );
    assert_eq!(
        obs.spans_streamed(),
        obs.span_count() as u64 + obs.spans_dropped(),
        "streamed accounting must close exactly"
    );
    let trace_path = find_trace(&dir, "it-stream");
    let text = std::fs::read_to_string(&trace_path).expect("streamed trace readable");
    assert_eq!(
        parse_jsonl(&text).len() as u64,
        obs.spans_streamed(),
        "disk trace must hold every streamed span"
    );

    let ts_text = std::fs::read_to_string(trace_path.with_extension("timeseries.jsonl"))
        .expect("timeseries exported next to the trace");
    let series = parse_timeseries(&ts_text);
    assert!(
        series.len() >= 6,
        "sampler exported only {} series",
        series.len()
    );
    for s in &series {
        assert!(
            s.points.windows(2).all(|w| w[0].0 < w[1].0),
            "{}: sample timestamps must be strictly increasing",
            s.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the default (never-overflowing) ring, the incrementally
/// streamed file and a buffered `write_trace` export of the same run
/// are the same bytes — streaming changes *when* lines are written,
/// never *what* is written.
#[test]
fn streamed_file_matches_buffered_export() {
    let (suite, trace) = workload();
    let dir = scratch_dir("bytes");

    let streamed = Platform::new(streamed_config(&dir, "it-bytes-s", 0), suite.clone()).run(&trace);
    assert_eq!(streamed.obs.spans_dropped(), 0, "ring must not overflow");

    let mut buffered_cfg = PlatformConfig::small_test();
    let mut oc = ObsConfig::enabled().tagged("it-bytes-b");
    oc.set_export_dir(dir.clone());
    buffered_cfg.obs = oc;
    let buffered = Platform::new(buffered_cfg, suite).run(&trace);
    assert_eq!(
        streamed.report, buffered.report,
        "two label-off traced runs must produce identical reports"
    );

    let s = std::fs::read(find_trace(&dir, "it-bytes-s")).expect("streamed file");
    let b = std::fs::read(find_trace(&dir, "it-bytes-b")).expect("buffered file");
    assert_eq!(
        s, b,
        "streamed and buffered exports of the same run must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
