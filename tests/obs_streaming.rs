//! Cross-crate tests for the streamed trace file (DESIGN.md §12):
//! turning it fully on must leave the `RunReport` byte-identical, span
//! memory must stay bounded by a
//! ring far smaller than the trace while the trace on disk is complete
//! with exact drop accounting, the file must match the in-memory
//! export byte-for-byte when the ring never overflows, and a file that
//! cannot be written must cost the run nothing.

use medes::obs::{parse_jsonl, parse_tail, ObsConfig};
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
        },
    );
    (suite, trace)
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medes-it-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one file a run exported into its own `dir`: the trace. Its
/// `trace-run-<seq>.jsonl` name carries a process-global sequence
/// number, so tests cannot assume 0.
fn find_trace(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("export dir exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(files.len(), 1, "one file per traced run: {files:?}");
    files[0].clone()
}

fn streamed_config(dir: &Path) -> PlatformConfig {
    let mut cfg = PlatformConfig::small_test();
    cfg.obs = ObsConfig::enabled();
    cfg.obs.set_export_dir(dir.to_path_buf());
    cfg
}

/// Deliberately tiny ring: the workload streams four times this
/// many spans, so the bound and the drop accounting are exercised.
const RING_CAP: usize = 128;

/// Streaming spans to disk must not move a single byte of the
/// `RunReport`; the ring bounds span memory while the disk trace holds
/// every streamed span, and the tail carries the final counters alone.
#[test]
fn streaming_does_not_perturb_the_run() {
    let (suite, trace) = workload();
    let mut plain_cfg = PlatformConfig::small_test();
    plain_cfg.obs = ObsConfig::default();
    let plain = Platform::new(plain_cfg, suite.clone()).run(&trace).report;

    let dir = scratch_dir("stream");
    let mut streamed_cfg = streamed_config(&dir);
    streamed_cfg.obs.span_buffer_cap = RING_CAP;
    let outcome = Platform::new(streamed_cfg, suite).run(&trace);
    assert_eq!(
        plain, outcome.report,
        "streaming must not perturb the simulation"
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
    let text = std::fs::read_to_string(find_trace(&dir)).expect("streamed trace readable");
    assert_eq!(
        parse_jsonl(&text).len() as u64,
        obs.spans_streamed(),
        "disk trace must hold every streamed span"
    );

    let tail = parse_tail(&text).expect("trace ends in a tail");
    let keys: Vec<&str> = tail.as_object().unwrap().iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["metrics"], "the tail is the final counters alone");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the default (never-overflowing) ring, the incrementally
/// streamed file and the same run's in-memory `export_jsonl()` are the
/// same bytes — streaming changes *when* lines are written, never
/// *what* is written.
#[test]
fn streamed_file_matches_buffered_export() {
    let (suite, trace) = workload();
    let dir = scratch_dir("bytes");
    let run = Platform::new(streamed_config(&dir), suite).run(&trace);
    assert_eq!(run.obs.spans_dropped(), 0, "ring must not overflow");
    let file = std::fs::read_to_string(find_trace(&dir)).expect("streamed file");
    assert_eq!(
        file,
        run.obs.export_jsonl(),
        "the streamed file and the in-memory export of the same run must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ring smaller than the run and no other obs setting: the exported
/// file still holds every span the run recorded, not just the ring.
#[test]
fn small_ring_export_holds_every_span() {
    let (suite, trace) = workload();
    let dir = scratch_dir("ring");
    let mut cfg = PlatformConfig::small_test();
    cfg.obs = ObsConfig {
        span_buffer_cap: RING_CAP,
        ..ObsConfig::enabled()
    };
    cfg.obs.set_export_dir(dir.clone());
    let run = Platform::new(cfg, suite).run(&trace);
    let obs = &run.obs;
    assert!(
        obs.spans_dropped() > 0,
        "workload too small to overflow the ring"
    );
    let text = std::fs::read_to_string(find_trace(&dir)).expect("trace readable");
    assert_eq!(
        parse_jsonl(&text).len() as u64,
        obs.span_count() as u64 + obs.spans_dropped(),
        "the file must hold every recorded span"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A regular file where the export dir should be: the run completes
/// with the report of an untraced run, `write_trace` returns the open
/// error, and no other file appears anywhere.
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
    cfg.obs.set_export_dir(blocker.clone());
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
