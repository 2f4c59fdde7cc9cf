//! Golden regression for the shrinker's output.
//!
//! Records every replay artifact of a 150-plan campaign under root seed 42:
//! the plan index, the preserved invariant, the shrunk plan's JSON, and the
//! shrunk plan's violation count plus a digest of its serialized
//! violations. The campaign has 7 artifacts; one walk spends the whole
//! shrink budget and every walk meets repeated candidates, so a change to
//! the walk, its budget accounting or its predicate shows up here.
//!
//! Regenerate (only when a change is *supposed* to alter shrinking, with a
//! CHANGELOG note): `BYZCLOCK_GOLDEN_REGEN=1 cargo test -p byzclock-chaos --test golden_campaign`

use std::fmt::Write as _;
use std::path::PathBuf;

use byzclock_chaos::{run_campaign_with_workers, CampaignConfig};

const FILE: &str = "campaign_seed42.golden";

/// FNV-1a over bytes: a stable, dependency-free digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn record() -> String {
    let report = run_campaign_with_workers(
        &CampaignConfig {
            root_seed: 42,
            plans: 150,
        },
        1,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden shrunk artifacts: root seed 42, 150 plans (see test header)"
    );
    for a in &report.artifacts {
        let plan = serde_json::to_string(&a.plan).unwrap();
        let violations = serde_json::to_string(&a.violations).unwrap();
        let _ = writeln!(out, "artifact {} {}", a.plan_index, a.invariant);
        let _ = writeln!(out, "plan {plan}");
        let _ = writeln!(
            out,
            "violations {} {:016x}",
            a.violations.len(),
            fnv1a(violations.as_bytes())
        );
    }
    out
}

#[test]
fn campaign_seed42_reproduces_recorded_shrunk_artifacts() {
    let got = record();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(FILE);
    if std::env::var("BYZCLOCK_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    if let Some(i) = got.lines().zip(want.lines()).position(|(g, w)| g != w) {
        panic!(
            "{FILE}: shrunk artifacts changed at line {}:\n  golden: {}\n  got:    {}",
            i + 1,
            want.lines().nth(i).unwrap_or("<missing>"),
            got.lines().nth(i).unwrap_or("<missing>")
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{FILE}: artifact count changed"
    );
}
