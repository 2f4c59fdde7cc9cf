//! The campaign runner: sample N plans, run each, record verdicts.
//!
//! A campaign is a **pure function of its root seed**: plan `i` is sampled
//! from the hub stream `("chaos-plan", i)` and its world seed drawn from
//! `("chaos-world", i)`, so two invocations with the same
//! [`CampaignConfig`] produce bit-identical [`CampaignReport`]s —
//! verdicts, violations, shrunk plans and replay artifacts included.
//! That determinism is what makes the replay artifacts trustworthy.
//!
//! For every violating plan the runner greedily shrinks the plan (see
//! [`shrink()`]) while preserving the *first* violated invariant,
//! re-runs the shrunk plan to capture its exact violation list, and emits
//! a [`ReplayArtifact`].

use byzclock_runtime::World;
use byzclock_sim::{RealTime, RngHub};
use serde::{Deserialize, Serialize};

use crate::invariant::{InvariantSuite, Violation, ViolationLog};
use crate::plan::FaultPlan;
use crate::replay::ReplayArtifact;
use crate::shrink::shrink;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Root seed; the whole campaign is a pure function of it.
    pub root_seed: u64,
    /// How many plans to sample and run.
    pub plans: usize,
}

/// The outcome of one plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanVerdict {
    /// Plan index within the campaign.
    pub index: usize,
    /// The (fully materialized) plan that ran.
    pub plan: FaultPlan,
    /// Violations observed, in order (empty = clean run).
    pub violations: Vec<Violation>,
}

/// Everything a campaign produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The root seed the campaign ran under.
    pub root_seed: u64,
    /// One verdict per plan, in index order.
    pub verdicts: Vec<PlanVerdict>,
    /// One artifact per violating plan, in index order.
    pub artifacts: Vec<ReplayArtifact>,
}

impl CampaignReport {
    /// Number of plans with at least one violation.
    pub fn violating_count(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| !v.violations.is_empty())
            .count()
    }
}

/// Runs one validated plan to its horizon and returns the recorded
/// violations.
///
/// # Panics
///
/// Panics if the plan fails [`FaultPlan::validate`].
pub fn run_plan(plan: &FaultPlan) -> Vec<Violation> {
    let (mut world, log) = checked_world(plan);
    world.run_until(RealTime::from_secs(plan.horizon_secs));
    log.snapshot()
}

/// Validates `plan` and builds its world with the invariant suite
/// attached, returning the world (not yet run) and the suite's log.
///
/// # Panics
///
/// Panics if the plan fails [`FaultPlan::validate`].
pub(crate) fn checked_world(plan: &FaultPlan) -> (World, ViolationLog) {
    if let Err(e) = plan.validate() {
        panic!("refusing to run invalid plan: {e}");
    }
    let mut world = plan.build_world();
    let bounds = world
        .bounds()
        .expect("chaos worlds derive their parameters");
    let (suite, log) = InvariantSuite::for_plan(plan, bounds);
    world.add_observer(Box::new(suite));
    (world, log)
}

/// Runs a full campaign across the default worker pool. See the module
/// docs for the determinism contract — the report is bit-identical for
/// any worker count.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    run_campaign_with_workers(config, byzclock_sim::default_workers())
}

/// [`run_campaign`] with an explicit worker count (1 = sequential).
///
/// Plans are independent by construction: plan `i`'s sampling stream and
/// world seed depend only on `(root_seed, i)`, and a `World` never leaves
/// the worker that built it. Results come back in index order, so the
/// report — verdicts, shrunk plans, artifacts, serialized JSON — does not
/// depend on `workers`.
pub fn run_campaign_with_workers(config: &CampaignConfig, workers: usize) -> CampaignReport {
    let hub = RngHub::new(config.root_seed);
    let root_seed = config.root_seed;
    let indices: Vec<usize> = (0..config.plans).collect();
    let outcomes = byzclock_sim::par_map(indices, workers, |_, index| {
        let mut rng = hub.stream("chaos-plan", index as u64);
        let mut plan = FaultPlan::sample(&mut rng);
        plan.seed = hub.stream("chaos-world", index as u64).bits64();
        let violations = run_plan(&plan);
        let artifact = violations.first().map(|first| {
            let invariant = first.invariant.clone();
            let shrunk = shrink(&plan, &invariant);
            let shrunk_violations = run_plan(&shrunk);
            ReplayArtifact {
                root_seed,
                plan_index: index,
                invariant,
                plan: shrunk,
                violations: shrunk_violations,
            }
        });
        (
            PlanVerdict {
                index,
                plan,
                violations,
            },
            artifact,
        )
    });
    let mut verdicts = Vec::with_capacity(outcomes.len());
    let mut artifacts = Vec::new();
    for (verdict, artifact) in outcomes {
        verdicts.push(verdict);
        artifacts.extend(artifact);
    }
    CampaignReport {
        root_seed: config.root_seed,
        verdicts,
        artifacts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_runs_clean() {
        let violations = run_plan(&FaultPlan::quiet(4, 1, 11));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    #[should_panic(expected = "invalid plan")]
    fn invalid_plan_is_refused() {
        let mut plan = FaultPlan::quiet(4, 1, 11);
        plan.message_loss = 2.0;
        run_plan(&plan);
    }

    #[test]
    fn small_campaign_is_deterministic_bit_for_bit() {
        let config = CampaignConfig {
            root_seed: 5,
            plans: 8,
        };
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert_eq!(a, b);
        // Serialized form identical too (this is what artifacts rely on).
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // And a different seed gives a different campaign.
        let c = run_campaign(&CampaignConfig {
            root_seed: 6,
            plans: 8,
        });
        assert_ne!(a.verdicts, c.verdicts);
    }

    #[test]
    fn parallel_campaign_matches_sequential_bit_for_bit() {
        let config = CampaignConfig {
            root_seed: 9,
            plans: 8,
        };
        let sequential = run_campaign_with_workers(&config, 1);
        let parallel = run_campaign_with_workers(&config, 4);
        assert_eq!(sequential, parallel);
        assert_eq!(
            serde_json::to_string(&sequential).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn every_artifact_corresponds_to_a_violating_verdict() {
        let report = run_campaign(&CampaignConfig {
            root_seed: 1,
            plans: 12,
        });
        assert_eq!(report.artifacts.len(), report.violating_count());
        for a in &report.artifacts {
            let v = &report.verdicts[a.plan_index];
            assert!(!v.violations.is_empty());
            assert_eq!(a.invariant, v.violations[0].invariant);
            // The shrunk plan still violates the same invariant.
            assert!(a.violations.iter().any(|x| x.invariant == a.invariant));
        }
    }
}
