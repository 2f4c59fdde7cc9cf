//! The benchmark's stage-by-stage chaos loop must reproduce the program's
//! own sequential campaign: same verdicts, same shrunk artifacts, same
//! serialized report — with and without the timing decorators.

use byzclock_chaos::{run_campaign_with_workers, CampaignConfig, CampaignReport};
use perfbench::chaos::{report, run_plan_stages, StageNanos};
use perfbench::layers::Probes;

fn stage_loop(config: &CampaignConfig, probes: Option<&Probes>) -> CampaignReport {
    let mut stages = StageNanos::default();
    let runs: Vec<_> = (0..config.plans)
        .map(|i| {
            run_plan_stages(config.root_seed, i, probes, &mut stages)
                .unwrap_or_else(|e| panic!("plan {i} failed validation: {e}"))
        })
        .collect();
    assert!(stages.run > 0 && stages.build > 0, "stages were not timed");
    report(config.root_seed, &runs)
}

#[test]
fn stage_loop_matches_sequential_campaign() {
    let config = CampaignConfig {
        root_seed: 7,
        plans: 50,
    };
    let expected = run_campaign_with_workers(&config, 1);
    assert!(
        expected.violating_count() > 0,
        "the campaign should exercise the shrinker"
    );
    let expected_json = serde_json::to_string(&expected).expect("report serializes");

    let plain = stage_loop(&config, None);
    assert_eq!(plain, expected);
    assert_eq!(serde_json::to_string(&plain).unwrap(), expected_json);

    let probes = Probes::default();
    let traced = stage_loop(&config, Some(&probes));
    assert_eq!(traced, expected);
    assert!(probes.observer.calls() > 0 && probes.delay.calls() > 0);
}
