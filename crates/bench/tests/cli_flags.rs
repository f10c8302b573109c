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
    // `trace report` does not mistake a flag for a file either.
    assert_usage_error(&["trace", "report", "--bogus"]);
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
