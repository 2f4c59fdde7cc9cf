//! Fixture-driven tests: one file per rule that must trigger exactly that
//! rule, one annotated file that must pass clean, D7 over an in-memory file
//! set, and CLI exit-code checks driven through the built `byzclock-lint`
//! binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use byzclock_lint::{lint_file, lint_sources, Finding};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rules_hit(findings: &[Finding]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    ids.dedup();
    ids
}

#[test]
fn each_rule_fixture_triggers_exactly_its_rule() {
    let cases = [
        ("d1_wall_clock.rs", "d1"),
        ("d2_unseeded_rng.rs", "d2"),
        ("d3_unordered_collection.rs", "d3"),
        ("d4_float_ord.rs", "d4"),
        ("d5_hot_path_unwrap.rs", "d5"),
        ("d6_hot_path_alloc.rs", "d6"),
    ];
    for (file, rule) in cases {
        let findings = lint_file(&fixture(file)).expect("fixture readable");
        assert!(
            !findings.is_empty(),
            "{file}: expected at least one {rule} finding"
        );
        assert_eq!(
            rules_hit(&findings),
            vec![rule],
            "{file}: expected only {rule} findings, got {findings:#?}"
        );
    }
}

#[test]
fn d4_fixture_does_not_flag_the_sort_line_twice() {
    // One `.partial_cmp` call → exactly one finding.
    let findings = lint_file(&fixture("d4_float_ord.rs")).expect("fixture readable");
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].slug, "float-ord");
}

#[test]
fn d5_fixture_flags_both_sync_node_and_world_methods() {
    let findings = lint_file(&fixture("d5_hot_path_unwrap.rs")).expect("fixture readable");
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().any(|f| f.message.contains("handle")));
    assert!(findings.iter().any(|f| f.message.contains("dispatch")));
}

#[test]
fn d6_fixture_flags_sync_node_and_convergence_impls() {
    let findings = lint_file(&fixture("d6_hot_path_alloc.rs")).expect("fixture readable");
    assert_eq!(findings.len(), 3, "{findings:#?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("complete_round")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("adjustment_scratch")));
}

/// Lints the D7 fixture as `crates/core/src/lib.rs` beside `consumers`
/// with `allowlist`; returns the names D7 flags, in source order.
fn d7_flagged(consumers: &[(&str, &str)], allowlist: &[(&str, &str, &str)]) -> Vec<String> {
    let fixture = std::fs::read_to_string(fixture("d7_callerless_pub.rs")).expect("readable");
    let mut files = vec![("crates/core/src/lib.rs".to_string(), fixture)];
    files.extend(
        consumers
            .iter()
            .map(|&(p, s)| (p.to_string(), s.to_string())),
    );
    let findings = lint_sources(&files, allowlist);
    assert!(findings.iter().all(|f| f.rule == "d7"), "{findings:#?}");
    findings
        .iter()
        .map(|f| {
            assert_eq!(f.file, "crates/core/src/lib.rs");
            let name = f.message.split('`').nth(1).expect("message names the item");
            name.to_string()
        })
        .collect()
}

const D7_CONSUMERS: [(&str, &str); 4] = [
    (
        "crates/net/src/lib.rs",
        r#"
        use byzclock_core::{used_by_sibling_crate, Mode};
        // MENTIONED is named only here, in a comment
        fn run(m: Mode, v: &[u8]) -> usize {
            used_by_sibling_crate();
            let _ = "MENTIONED callerless";
            match m {
                Mode::Used => v.len(),
                _ => 0,
            }
        }
        "#,
    ),
    (
        "perfbench/src/lib.rs",
        "struct P; impl byzclock_core::UsedByPerfbench for P {} pub fn never_called() {}",
    ),
    (
        "examples/demo.rs",
        "fn main() { let _x: byzclock_core::UsedByExample = 0; }",
    ),
    (
        "crates/core/tests/it.rs",
        "#[test] fn t() { let _ = byzclock_core::UsedInTestsDir; byzclock_core::callerless(); }",
    ),
];

#[test]
fn d7_flags_items_that_no_non_test_code_names() {
    let allowlist = [("core", "allowlisted", "fixture entry")];
    assert_eq!(
        d7_flagged(&D7_CONSUMERS, &allowlist),
        [
            "callerless",
            "used_in_unit_tests",
            "UsedInTestsDir",
            "MENTIONED",
            "Unused"
        ]
    );
}

#[test]
fn d7_covers_every_item_kind_and_honors_escapes_and_the_allowlist() {
    // with no consumers every public item of the fixture is callerless:
    // fn, pub(crate) fn, struct, const, trait, type alias, enum and its
    // variants; the escaped static never is, the allowlisted fn only with
    // its entry
    let all = [
        "callerless",
        "used_in_unit_tests",
        "UsedInTestsDir",
        "MENTIONED",
        "used_by_sibling_crate",
        "UsedByPerfbench",
        "UsedByExample",
        "len",
        "Mode",
        "Used",
        "Unused",
        "allowlisted",
    ];
    assert_eq!(d7_flagged(&[], &[]), all);
    let allowlist = [("core", "allowlisted", "fixture entry")];
    assert_eq!(d7_flagged(&[], &allowlist), all[..all.len() - 1]);
    // an entry for another crate does not apply
    let elsewhere = [("net", "allowlisted", "fixture entry")];
    assert_eq!(d7_flagged(&[], &elsewhere), all);
}

#[test]
fn d7_runs_only_over_a_file_set() {
    // a single file cannot show its consumers, so file mode skips D7
    let findings = lint_file(&fixture("d7_callerless_pub.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn allowed_fixture_passes_clean() {
    let findings = lint_file(&fixture("allowed.rs")).expect("fixture readable");
    assert!(findings.is_empty(), "expected clean, got {findings:#?}");
}

#[test]
fn live_crate_exemption_scopes_d1_by_path() {
    // identical source: flagged under its real (non-exempt) path...
    let findings = lint_file(&fixture("d1_exempt_live.rs")).expect("fixture readable");
    assert_eq!(rules_hit(&findings), vec!["d1"], "{findings:#?}");

    // ...clean when the path places it in the exempted live crate
    let src = std::fs::read_to_string(fixture("d1_exempt_live.rs")).expect("fixture readable");
    let raw = byzclock_lint::lint_source("crates/live/src/demo.rs", &src);
    let scoped: Vec<_> = raw
        .into_iter()
        .filter(|f| !byzclock_lint::rule_exempt(&f.file, f.rule))
        .collect();
    assert!(scoped.is_empty(), "exemption not applied: {scoped:#?}");

    // the exemption covers d1 only: an unwrap in `impl World` code under
    // the live path would still be a d5 finding
    let d5 = "impl World { fn dispatch(&mut self) { self.x.unwrap(); } }";
    let raw = byzclock_lint::lint_source("crates/live/src/demo.rs", d5);
    let scoped: Vec<_> = raw
        .into_iter()
        .filter(|f| !byzclock_lint::rule_exempt(&f.file, f.rule))
        .collect();
    assert_eq!(scoped.len(), 1, "{scoped:#?}");
    assert_eq!(scoped[0].rule, "d5");
}

/// Runs the built `byzclock-lint` binary (compiled as a dependency of this
/// integration test) with the given arguments.
fn run_cli(args: &[&str]) -> std::process::Output {
    let bin = env!("CARGO_BIN_EXE_byzclock-lint");
    Command::new(bin)
        .args(args)
        .output()
        .expect("byzclock-lint binary runs")
}

#[test]
fn cli_exits_nonzero_on_each_rule_fixture() {
    for file in [
        "d1_wall_clock.rs",
        "d2_unseeded_rng.rs",
        "d3_unordered_collection.rs",
        "d4_float_ord.rs",
        "d5_hot_path_unwrap.rs",
        "d6_hot_path_alloc.rs",
    ] {
        let out = run_cli(&[fixture(file).to_str().expect("utf-8 path")]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{file}: expected exit 1, stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn cli_exits_zero_on_allowed_fixture_and_two_on_bad_usage() {
    let out = run_cli(&[fixture("allowed.rs").to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0));

    let out = run_cli(&[]);
    assert_eq!(out.status.code(), Some(2));

    let out = run_cli(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));

    let out = run_cli(&["tests/fixtures/does_not_exist.rs"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_rules_listing_names_all_seven() {
    let out = run_cli(&["--rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for slug in [
        "wall-clock",
        "unseeded-rng",
        "unordered-collection",
        "float-ord",
        "hot-path-unwrap",
        "hot-path-alloc",
        "callerless-pub",
    ] {
        assert!(text.contains(slug), "--rules output missing {slug}");
    }
    assert!(
        text.contains("d7 allowlist"),
        "--rules output missing the allowlist"
    );
}
