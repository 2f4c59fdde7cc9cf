//! The `byzclock` binary's exit status: 0 for a loopback run that converged
//! within γ, non-zero with an `error:` line (and no panic) for a config
//! `run` refuses, and 2 for a usage error.

use std::process::{Command, Output};

fn byzclock(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_byzclock"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn a_converged_run_exits_zero() {
    let output = byzclock(&["live", "--nodes", "4", "--rounds", "2"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stdout: {stdout}");
    assert!(
        stdout.contains("converged within gamma"),
        "stdout: {stdout}"
    );
}

#[test]
fn a_nan_spread_is_an_error_not_a_converged_run() {
    let output = byzclock(&["live", "--spread-ms", "nan"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "stderr: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error:")),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn an_unknown_flag_exits_two() {
    let output = byzclock(&["live", "--wat"]);
    assert_eq!(output.status.code(), Some(2));
}
