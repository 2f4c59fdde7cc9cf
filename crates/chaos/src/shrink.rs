//! Greedy failure shrinking.
//!
//! When a plan violates an invariant, the raw plan usually composes
//! several fault dimensions, most of them irrelevant to the failure.
//! [`shrink`] minimizes it the classical property-testing way: propose a
//! *reduction* (drop a whole dimension, halve an intensity, narrow a
//! window), re-run, and accept the reduction iff the **same invariant**
//! still fires. The result is the smallest plan this greedy walk can
//! reach — typically a single dimension at minimal strength — which makes
//! the replay artifact readable as a diagnosis, not just a reproduction.
//!
//! Each candidate evaluation runs the candidate's (deterministic) world
//! until the invariant first fires, or to the horizon if it never does.
//! A candidate the walk already rejected is not run again. The walk is
//! capped at [`SHRINK_BUDGET`] evaluations.

use byzclock_sim::RealTime;

use crate::campaign::checked_world;
use crate::plan::{DisciplineSpec, FaultPlan};

/// Maximum number of candidate evaluations one shrink may spend. A
/// repeat of a candidate the walk already rejected counts as one
/// evaluation but does not run.
pub const SHRINK_BUDGET: usize = 40;

/// Simulated length of one slice of a candidate run, seconds; the
/// violation log is checked between slices.
const SLICE_SECS: f64 = 1.0;

/// Greedily shrinks `plan` while the invariant named `invariant` keeps
/// firing. Returns the smallest still-failing plan found (possibly the
/// input, if nothing could be removed).
pub fn shrink(plan: &FaultPlan, invariant: &str) -> FaultPlan {
    walk(plan, SHRINK_BUDGET, |p| fires(p, invariant))
}

/// The greedy walk: moves to the first reduction of the current plan that
/// `fails`, until none does or `budget` evaluations are spent.
///
/// `fails` is a pure function of the plan, so a rejected candidate is
/// remembered instead of asked again. The repeat still spends one unit of
/// budget, which keeps the walk identical to one that asks every time.
/// Accepted candidates need no memory: every reduction strictly shrinks
/// the plan, so none comes back.
fn walk(
    plan: &FaultPlan,
    mut budget: usize,
    mut fails: impl FnMut(&FaultPlan) -> bool,
) -> FaultPlan {
    let mut current = plan.clone();
    let mut rejected: Vec<FaultPlan> = Vec::new();
    'progress: loop {
        for candidate in reductions(&current) {
            if budget == 0 {
                break 'progress;
            }
            budget -= 1;
            if rejected.contains(&candidate) {
                continue;
            }
            if fails(&candidate) {
                current = candidate;
                continue 'progress;
            }
            rejected.push(candidate);
        }
        break; // no reduction preserved the failure: local minimum
    }
    current
}

/// True iff running `plan` records a violation of `invariant` — the
/// answer of `run_plan(plan).iter().any(|v| v.invariant == invariant)`,
/// without running past the point where it is known.
///
/// The world runs in [`SLICE_SECS`] slices, which changes no output bit.
/// After each slice the log is checked: the answer is yes once the
/// invariant is in it, and no once the log is full (it is append-only and
/// capped, so nothing later can enter) or the horizon is reached.
///
/// # Panics
///
/// Panics if the plan fails [`FaultPlan::validate`].
fn fires(plan: &FaultPlan, invariant: &str) -> bool {
    let (mut world, log) = checked_world(plan);
    let horizon = RealTime::from_secs(plan.horizon_secs);
    let mut k = 1u32;
    loop {
        let deadline = RealTime::from_secs(f64::from(k) * SLICE_SECS).min(horizon);
        world.run_until(deadline);
        if log.contains(invariant) {
            return true;
        }
        if log.is_full() || deadline >= horizon {
            return false;
        }
        k += 1;
    }
}

/// Candidate one-step reductions of `plan`, coarsest first (dropping a
/// whole dimension shrinks faster than halving it).
fn reductions(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FaultPlan)| {
        let mut q = plan.clone();
        f(&mut q);
        if q != *plan {
            out.push(q);
        }
    };

    // Drop whole dimensions.
    push(&|q| q.adversary = None);
    push(&|q| q.message_loss = 0.0);
    push(&|q| q.duplicate_probability = 0.0);
    push(&|q| q.reorder_probability = 0.0);
    push(&|q| q.delay_spikes.clear());
    push(&|q| q.link_cuts.clear());
    push(&|q| q.restarts.clear());
    push(&|q| q.discipline = DisciplineSpec::Step);

    // Drop individual entries (last first; order is arbitrary but fixed).
    push(&|q| {
        q.delay_spikes.pop();
    });
    push(&|q| {
        q.link_cuts.pop();
    });
    push(&|q| {
        q.restarts.pop();
    });
    push(&|q| {
        if let Some(adv) = &mut q.adversary {
            adv.windows.pop();
        }
    });

    // Halve intensities (zeroing tiny residues so halving terminates).
    let halve = |p: f64| if p < 0.01 { 0.0 } else { p / 2.0 };
    push(&|q| q.message_loss = halve(q.message_loss));
    push(&|q| q.duplicate_probability = halve(q.duplicate_probability));
    push(&|q| q.reorder_probability = halve(q.reorder_probability));
    push(&|q| q.initial_bias_spread = halve(q.initial_bias_spread));
    push(&|q| {
        for s in &mut q.delay_spikes {
            s.factor = 1.0 + (s.factor - 1.0) / 2.0;
        }
    });

    // Narrow windows (halve each toward its start).
    push(&|q| {
        for s in &mut q.delay_spikes {
            s.until_secs = s.from_secs + (s.until_secs - s.from_secs) / 2.0;
        }
    });
    push(&|q| {
        for c in &mut q.link_cuts {
            c.until_secs = c.from_secs + (c.until_secs - c.from_secs) / 2.0;
        }
    });

    out
}

/// A plan guaranteed to violate the (beyond-model) deviation bound:
/// a delay spike covering the whole run multiplies every delivery far
/// past MaxWait, so every estimation slot times out, no node ever
/// adjusts, and the initial 1.5 s dispersion (≫ the 0.72 s envelope)
/// persists past the warm-up. Test fixture shared across the crate.
#[cfg(test)]
pub(crate) fn violating_plan() -> FaultPlan {
    use crate::plan::{LinkCutSpec, RestartSpec, SpikeSpec};
    let mut plan = FaultPlan::quiet(4, 1, 99);
    plan.initial_bias_spread = 1.5;
    plan.delay_spikes.push(SpikeSpec {
        from_secs: 0.0,
        until_secs: 160.0,
        factor: 200.0,
    });
    // Irrelevant extra dimensions the shrinker should strip.
    plan.duplicate_probability = 0.2;
    plan.restarts.push(RestartSpec {
        node: 2,
        at_secs: 50.0,
    });
    plan.link_cuts.push(LinkCutSpec {
        a: 0,
        b: 1,
        from_secs: 70.0,
        until_secs: 75.0,
    });
    plan
}

/// The walk without its savings, kept as the reference [`shrink`] must
/// match: every candidate, repeats included, is one full run.
#[cfg(test)]
fn shrink_reference(plan: &FaultPlan, invariant: &str) -> FaultPlan {
    let fails = |p: &FaultPlan| crate::run_plan(p).iter().any(|v| v.invariant == invariant);
    let mut current = plan.clone();
    let mut budget = SHRINK_BUDGET;
    'progress: loop {
        for candidate in reductions(&current) {
            if budget == 0 {
                break 'progress;
            }
            budget -= 1;
            if fails(&candidate) {
                current = candidate;
                continue 'progress;
            }
        }
        break;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_plan;
    use crate::plan::{LinkCutSpec, SpikeSpec};
    use crate::{run_campaign, CampaignConfig};
    use byzclock_sim::RngHub;

    #[test]
    fn crafted_plan_actually_violates_deviation() {
        let violations = run_plan(&violating_plan());
        assert!(
            violations.iter().any(|v| v.invariant == "deviation"),
            "{violations:?}"
        );
    }

    #[test]
    fn shrink_strips_irrelevant_dimensions_and_still_fails() {
        let plan = violating_plan();
        let shrunk = shrink(&plan, "deviation");
        // The spike (plus the spread it preserves) is the failure's cause;
        // everything else must be gone.
        assert_eq!(shrunk.duplicate_probability, 0.0, "{shrunk:?}");
        assert!(shrunk.restarts.is_empty(), "{shrunk:?}");
        assert!(shrunk.link_cuts.is_empty(), "{shrunk:?}");
        assert!(!shrunk.delay_spikes.is_empty(), "{shrunk:?}");
        assert!(run_plan(&shrunk).iter().any(|v| v.invariant == "deviation"));
    }

    #[test]
    fn shrink_is_deterministic() {
        let plan = violating_plan();
        assert_eq!(shrink(&plan, "deviation"), shrink(&plan, "deviation"));
    }

    #[test]
    fn shrink_of_minimal_plan_is_identity_like() {
        // A plan that fails for exactly one reason shrinks to (at most)
        // intensity reductions of that one dimension — never to a plan
        // that passes.
        let mut plan = FaultPlan::quiet(4, 1, 3);
        plan.initial_bias_spread = 1.5;
        plan.delay_spikes.push(SpikeSpec {
            from_secs: 0.0,
            until_secs: 160.0,
            factor: 200.0,
        });
        let shrunk = shrink(&plan, "deviation");
        assert!(run_plan(&shrunk).iter().any(|v| v.invariant == "deviation"));
    }

    /// The first `count` plans of the campaign rooted at `root_seed`, as
    /// the campaign samples them.
    fn campaign_plans(root_seed: u64, count: u64) -> Vec<FaultPlan> {
        let hub = RngHub::new(root_seed);
        (0..count)
            .map(|i| {
                let mut plan = FaultPlan::sample(&mut hub.stream("chaos-plan", i));
                plan.seed = hub.stream("chaos-world", i).bits64();
                plan
            })
            .collect()
    }

    #[test]
    fn shrink_matches_full_run_reference_on_campaign_plans() {
        for root_seed in [1, 7] {
            let report = run_campaign(&CampaignConfig {
                root_seed,
                plans: 150,
            });
            assert!(!report.artifacts.is_empty(), "seed {root_seed}");
            for a in &report.artifacts {
                let plan = &report.verdicts[a.plan_index].plan;
                assert_eq!(
                    a.plan,
                    shrink_reference(plan, &a.invariant),
                    "seed {root_seed}, plan {}",
                    a.plan_index
                );
            }
        }
    }

    #[test]
    fn early_stop_predicate_matches_full_run() {
        let mut plans = campaign_plans(7, 40);
        plans.push(violating_plan());
        let (mut yes, mut no) = (0, 0);
        for plan in &plans {
            let violations = run_plan(plan);
            for invariant in ["deviation", "discontinuity", "monotonicity", "finite-adj"] {
                let want = violations.iter().any(|v| v.invariant == invariant);
                assert_eq!(fires(plan, invariant), want, "{invariant}: {plan:?}");
                if want {
                    yes += 1;
                } else {
                    no += 1;
                }
            }
        }
        assert!(yes > 1 && no > 1, "{yes} firing, {no} not");
    }

    #[test]
    fn one_cut_repeat_spends_budget_without_a_run() {
        let mut plan = FaultPlan::quiet(4, 1, 5);
        plan.link_cuts.push(LinkCutSpec {
            a: 0,
            b: 1,
            from_secs: 70.0,
            until_secs: 75.0,
        });
        // `link_cuts.clear()` and `link_cuts.pop()` propose the same plan.
        let candidates = reductions(&plan);
        let first = candidates.iter().position(|q| q.link_cuts.is_empty());
        let repeat = candidates.iter().rposition(|q| q.link_cuts.is_empty());
        let (first, repeat) = (first.unwrap(), repeat.unwrap());
        assert!(first < repeat, "{candidates:?}");
        assert_eq!(candidates[first], candidates[repeat]);
        // Nothing fails, so the walk evaluates candidates in order until
        // the budget runs out: the repeat takes its unit but is not run.
        for budget in 0..=candidates.len() {
            let mut runs = 0;
            let shrunk = walk(&plan, budget, |_| {
                runs += 1;
                false
            });
            assert_eq!(shrunk, plan);
            assert_eq!(
                runs,
                budget - usize::from(budget > repeat),
                "budget {budget}"
            );
        }
    }
}
