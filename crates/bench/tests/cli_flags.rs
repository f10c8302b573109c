//! The `experiments` binary rejects a value-taking flag with no value.

use std::process::Command;

#[test]
fn dangling_results_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig13", "--quick", "--results"])
        .output()
        .expect("experiments binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a dangling --results must exit 2"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("usage:"),
        "and print usage, not run the experiment"
    );
}
