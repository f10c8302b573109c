//! The `experiments` binary rejects a malformed command line before it
//! runs anything: a value-taking flag with no value, an unknown flag,
//! an unknown id. A mistyped word must not cost a full run.

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
    // A `trace` subcommand does not mistake a flag for a file either.
    assert_usage_error(&["trace", "summarize", "--bogus"]);
}
