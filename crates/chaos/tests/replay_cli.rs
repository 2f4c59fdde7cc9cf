//! The `chaos replay` binary refuses an artifact whose plan fails
//! `FaultPlan::validate` with an error and exit code 1, instead of
//! panicking inside the run.

use std::process::Command;

use byzclock_chaos::{FaultPlan, ReplayArtifact};

#[test]
fn replay_rejects_an_invalid_plan_without_panicking() {
    let mut plan = FaultPlan::quiet(4, 1, 1);
    plan.f = 0;
    let artifact = ReplayArtifact {
        root_seed: 1,
        plan_index: 0,
        invariant: "deviation".into(),
        plan,
        violations: Vec::new(),
    };
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("f0_artifact.json");
    std::fs::write(&path, serde_json::to_string(&artifact).unwrap()).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .arg("replay")
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("invalid plan"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
