//! The `experiments` binary rejects a malformed command line before it
//! runs anything: a value-taking flag with no value, an unknown flag,
//! an unknown id or subcommand. A mistyped word must not cost a full
//! run.

use std::process::Command;

/// Runs `experiments <args>` and asserts a usage error: exit 2, the
/// usage text on stderr, and no experiment banner on stdout.
fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "{args:?} must print usage"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} must not run the experiment first"
    );
}

#[test]
fn dangling_results_flag_is_a_usage_error() {
    assert_usage_error(&["fig13", "--quick", "--results"]);
}

#[test]
fn unknown_flag_or_id_is_rejected_before_any_experiment_runs() {
    assert_usage_error(&["fig13", "--quick", "--bogus"]);
    assert_usage_error(&["fig13", "nope", "--quick"]);
    // `--stream` is gone: every `--obs` trace is streamed.
    assert_usage_error(&["fig13", "--quick", "--obs", "--stream"]);
    // So are the flags no result depended on: the registry's shards
    // and placement, a scan worker count, head sampling.
    for retired in [
        ["--shards", "4"],
        ["--workers", "2"],
        ["--registry-owners", "3"],
        ["--sample", "4"],
    ] {
        assert_usage_error(&["fig13", "--quick", "--obs", retired[0], retired[1]]);
    }
    // And the labeled counters with their per-label breakdown: the
    // fabric keeps totals, spans carry node and fn.
    assert_usage_error(&["fig13", "--quick", "--obs", "--labels"]);
    assert_usage_error(&["trace", "report", "a.jsonl", "--group-by", "src"]);
    // `trace report` does not mistake a flag for a file either.
    assert_usage_error(&["trace", "report", "--bogus"]);
}

/// The sim-time sampler is gone, and its flag with it: `--timeseries`
/// is an unknown flag with or without `--obs`.
#[test]
fn telemetry_flags_that_change_nothing_are_usage_errors() {
    assert_usage_error(&["table2", "--quick", "--timeseries", "500"]);
    assert_usage_error(&["table2", "--quick", "--obs", "--timeseries", "500"]);
}

/// A `--faults` rate that is not a finite number in [0, 20] is a usage
/// error: an infinite or huge rate would synthesize an endless crash
/// list before any experiment ran, and NaN would inject one crash.
#[test]
fn out_of_range_fault_rate_is_a_usage_error() {
    for rate in ["nan", "inf", "-1", "20.5"] {
        assert_usage_error(&["fig13", "--quick", "--faults", &format!("rate={rate}")]);
    }
}

/// `trace report` is the one trace subcommand: the five it replaced are
/// unknown words, and it needs exactly its operand and its flags'
/// values.
#[test]
fn retired_or_incomplete_trace_commands_are_usage_errors() {
    for retired in ["summarize", "analyze", "timeline", "diff", "attribute"] {
        assert_usage_error(&["trace", retired, "x.jsonl"]);
    }
    assert_usage_error(&["trace", "report"]);
    assert_usage_error(&["trace", "report", "a.jsonl", "--against"]);
    assert_usage_error(&["trace", "report", "a.jsonl", "b.jsonl"]);
}

/// An input `trace report` cannot read, or a `<trace>.folded` it cannot
/// write, is a failure (exit 1), not a usage error.
#[test]
fn unreadable_trace_or_unwritable_folded_stacks_exit_1() {
    let report = |path: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["trace", "report"])
            .arg(path)
            .output()
            .expect("experiments binary runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, stderr) = report("/nonexistent.jsonl".as_ref());
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("cannot read /nonexistent.jsonl"),
        "{stderr}"
    );

    // A directory where the folded stacks go cannot be written over.
    let dir = std::env::temp_dir().join(format!("medes-cli-folded-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("t.folded")).expect("temp dir created");
    std::fs::write(dir.join("t.jsonl"), "").expect("temp trace written");
    let (code, stderr) = report(&dir.join("t.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot write"), "{stderr}");
}

/// A `--cache` larger than a node's memory is rejected up front (exit
/// 2), however many MiB it names: 2^44 + 1 MiB must not wrap around to
/// a 1 MiB cache when converted to bytes.
#[test]
fn oversized_cache_is_rejected_before_any_experiment_runs() {
    let dir = std::env::temp_dir().join(format!("medes-cli-cache-{}", std::process::id()));
    for mib in ["4096", "17592186044417"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["fig13", "--quick", "--cache", mib, "--results"])
            .arg(&dir)
            .output()
            .expect("experiments binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--cache {mib}: {stderr}");
        assert!(stderr.contains("invalid flag combination"), "{stderr}");
        assert!(out.stdout.is_empty(), "--cache {mib} must not run fig13");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
