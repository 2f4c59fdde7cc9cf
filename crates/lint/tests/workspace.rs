//! The workspace-clean invariant, enforced by plain `cargo test`: the
//! linter must exit 0 on the whole byzclock workspace. CI additionally
//! runs the binary directly (`cargo run -p byzclock-lint -- --workspace`),
//! but baking the invariant into the test suite means *any* tier-1 test
//! run catches a determinism-rule regression, not just the lint job.

use std::path::Path;

use byzclock_lint::{lint_workspace, SCANNED_CRATES};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up");
    let findings = lint_workspace(root).expect("workspace scan succeeds");
    assert!(
        findings.is_empty(),
        "determinism lint findings in the workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn scan_covers_the_agreed_crate_set() {
    assert_eq!(
        SCANNED_CRATES,
        [
            "clock",
            "core",
            "net",
            "runtime",
            "sim",
            "adversary",
            "chaos",
            "harness",
            "live"
        ]
    );
}

#[test]
fn live_crate_is_scanned_but_d1_exempt() {
    // the live runtime reads Instant by design; if the exemption table
    // regressed, the workspace-clean test above would light up with d1
    // findings — this pins the *reason* it stays clean.
    use byzclock_lint::{rule_exempt, CRATE_EXEMPTIONS};
    assert!(CRATE_EXEMPTIONS.contains(&("live", "d1")));
    assert!(rule_exempt("crates/live/src/clock.rs", "d1"));
    assert!(!rule_exempt("crates/live/src/clock.rs", "d5"));
    assert!(!rule_exempt("crates/runtime/src/world.rs", "d1"));
}
