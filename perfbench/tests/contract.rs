//! The metrics a run prints are exactly those `BENCHMARK.json` declares,
//! with the same units, and a traced run reproduces the untraced digest.

use perfbench::run::{run, Workload};

/// `(name, unit)` of every entry in the `section` list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is closed")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closed")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(workload: Workload, trace: bool) -> (Vec<(String, String)>, String) {
    let outcome = run(workload, 3, 1, trace);
    assert!(outcome.correct(), "{:?}", outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted >= 1);
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let names = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    (names, outcome.digest)
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}

#[test]
fn chaos_run_prints_the_declared_metrics() {
    let (end_to_end, plain_digest) = printed(Workload::Chaos, false);
    assert_eq!(end_to_end, declared("end_to_end"));
    let (per_layer, traced_digest) = printed(Workload::Chaos, true);
    assert_eq!(per_layer, declared("per_layer"));
    assert_eq!(plain_digest, traced_digest);
}
