//! The whole experiment suite (quick mode) must reproduce every claim.
//!
//! This is the repository's "does the reproduction hold" gate: each
//! experiment compares a measurement against the bound the paper states
//! and reports pass/fail; all of them must pass.
//!
//! The same run also pins every quick-mode report, rendered in registry
//! order, to `tests/golden/experiments_quick.golden`, so a refactor that
//! changes a single printed figure fails here.
//!
//! Regenerate (only when a change is *supposed* to alter experiment
//! output, with a CHANGELOG note):
//! `BYZCLOCK_GOLDEN_REGEN=1 cargo test --test integration_experiments`

use std::path::PathBuf;

use byzclock::harness::experiments::{registry, Mode};

#[test]
fn every_experiment_reproduces_its_claim_in_quick_mode() {
    let mut failures = Vec::new();
    let mut rendered = String::new();
    for (id, runner) in registry() {
        let report = runner(Mode::Quick);
        assert_eq!(report.id, id);
        let text = report.render();
        if !report.pass {
            failures.push(format!("{id}:\n{text}"));
        }
        rendered.push_str(&text);
        rendered.push('\n');
    }
    assert!(
        failures.is_empty(),
        "experiments failed:\n{}",
        failures.join("\n\n")
    );
    check_golden(&rendered, "experiments_quick.golden");
}

/// Compares `got` with the committed golden `file`, or rewrites the file
/// when `BYZCLOCK_GOLDEN_REGEN` is set.
fn check_golden(got: &str, file: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file);
    if std::env::var("BYZCLOCK_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    if got != want {
        let first_diff = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map(|i| {
                format!(
                    "first difference at line {}:\n  golden: {}\n  got:    {}",
                    i + 1,
                    want.lines().nth(i).unwrap_or("<missing>"),
                    got.lines().nth(i).unwrap_or("<missing>")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs got {}",
                    want.lines().count(),
                    got.lines().count()
                )
            });
        panic!("{file}: the quick-mode experiment reports changed.\n{first_diff}");
    }
}

#[test]
fn reports_render_non_trivially() {
    for (_, runner) in registry().into_iter().take(3) {
        let report = runner(Mode::Quick);
        let text = report.render();
        assert!(text.len() > 200, "report suspiciously short:\n{text}");
        assert!(text.contains("claim:"));
    }
}

#[test]
fn experiments_are_deterministic() {
    let run = || registry()[0].1(Mode::Quick).render();
    assert_eq!(run(), run());
}
