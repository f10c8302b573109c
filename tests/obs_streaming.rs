//! Cross-crate tests for the trace file (DESIGN.md §12): turning it
//! fully on must leave the `RunReport` byte-identical and the file
//! complete, the file must be byte for byte the in-memory export of
//! the same run without a trace file, span memory without one must
//! stop at its cap with exact drop accounting, and a file that cannot
//! be written must cost the run nothing.

use medes::obs::{parse_jsonl, parse_tail, Obs, ObsConfig, SPAN_BYTES_CAP};
use medes::platform::config::PlatformConfig;
use medes::platform::Platform;
use medes::trace::{azure_like_trace, functionbench_suite, FunctionProfile, Trace, TraceGenConfig};
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
