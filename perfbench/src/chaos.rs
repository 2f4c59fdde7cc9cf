//! The chaos workload: sequential campaigns, run stage by stage.
//!
//! Each plan goes `FaultPlan::sample` → `validate` → `build_world` → run →
//! `shrink`, exactly as `run_campaign_with_workers(cfg, 1)` does, but with
//! every stage timed from outside. The run is split into fixed simulated
//! slices so the good-set deviation can be sampled between them; slicing
//! `run_until` changes no output bit.

use crate::clock::CpuTimer;

use byzclock_chaos::{
    run_plan, shrink, CampaignReport, DisciplineSpec, FaultPlan, InvariantSuite, PlanVerdict,
    ReplayArtifact,
};
use byzclock_core::PaperSync;
use byzclock_net::{DelaySpike, FaultProfile, UniformDelay};
use byzclock_runtime::{Discipline, LinkOutage, Observer, World, WorldBuilder};
use byzclock_sim::{ProcId, RealTime, RngHub, SimDuration};

use crate::layers::{Probes, TimedConvergence, TimedDelay, TimedObserver, TimedStrategy};

/// Simulated length of one timed slice of a plan's run, seconds.
pub const SLICE_SECS: f64 = 10.0;

/// Nanoseconds spent in each stage, summed over the campaign.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageNanos {
    /// `FaultPlan::sample` and the world-seed draw.
    pub sample: u64,
    /// `FaultPlan::validate`.
    pub validate: u64,
    /// World construction.
    pub build: u64,
    /// The plan's own run, with the invariant observer.
    pub run: u64,
    /// `shrink` plus the re-run of the shrunk plan.
    pub shrink: u64,
}

/// One plan's outcome and timings.
pub struct PlanRun {
    /// The verdict, as the campaign records it.
    pub verdict: PlanVerdict,
    /// The replay artifact of a violating plan.
    pub artifact: Option<ReplayArtifact>,
    /// Largest sampled good-set deviation after the first Δ, over γ.
    pub max_dev_over_gamma: f64,
    /// Outputs and counts of the plan's world after its own run.
    pub outputs: crate::churn::SeedOutputs,
    /// Simulated seconds of the plan's own run.
    pub horizon_secs: f64,
    /// CPU time of every `run_until` slice, nanoseconds.
    pub slice_ns: Vec<u64>,
    /// CPU time of every `World::sample_now`, nanoseconds.
    pub sample_ns: Vec<u64>,
    /// `WorldBuilder::build` alone, nanoseconds (traced runs only).
    pub build_ns: u64,
    /// `AdversaryPlan::schedule` alone, nanoseconds (traced runs with an
    /// adversary only).
    pub schedule_ns: Option<u64>,
}

/// Runs plan `index` of the campaign rooted at `root_seed` through every
/// stage, adding each stage's time to `stages`. With `probes`, the world
/// is built with timing decorators on every layer.
///
/// # Errors
///
/// The validation error of a plan that fails `FaultPlan::validate`.
pub fn run_plan_stages(
    root_seed: u64,
    index: usize,
    probes: Option<&Probes>,
    stages: &mut StageNanos,
) -> Result<PlanRun, String> {
    let hub = RngHub::new(root_seed);
    let start = CpuTimer::start();
    let mut rng = hub.stream("chaos-plan", index as u64);
    let mut plan = FaultPlan::sample(&mut rng);
    plan.seed = hub.stream("chaos-world", index as u64).bits64();
    stages.sample += start.elapsed_ns();

    let start = CpuTimer::start();
    let valid = plan.validate();
    stages.validate += start.elapsed_ns();
    valid?;

    let start = CpuTimer::start();
    let (mut world, build_ns, schedule_ns) = match probes {
        None => (plan.build_world(), 0, None),
        Some(p) => build_traced(&plan, p),
    };
    stages.build += start.elapsed_ns();

    let start = CpuTimer::start();
    let bounds = *world
        .bounds()
        .expect("chaos worlds derive their parameters");
    let (suite, log) = InvariantSuite::for_plan(&plan, &bounds);
    let observer: Box<dyn Observer> = match probes {
        None => Box::new(suite),
        Some(p) => Box::new(TimedObserver::new(Box::new(suite), p.observer.clone())),
    };
    world.add_observer(observer);
    let warm_up = RealTime::from_secs(plan.big_delta_secs);
    let horizon = RealTime::from_secs(plan.horizon_secs);
    let mut slice_ns = Vec::new();
    let mut sample_ns = Vec::new();
    let mut max_dev: f64 = 0.0;
    let mut k = 1u64;
    loop {
        let deadline = RealTime::from_secs(k as f64 * SLICE_SECS).min(horizon);
        let t = CpuTimer::start();
        world.run_until(deadline);
        slice_ns.push(t.elapsed_ns());
        let t = CpuTimer::start();
        let sample = world.sample_now();
        sample_ns.push(t.elapsed_ns());
        if sample.tau > warm_up {
            if let Some(dev) = sample.good_deviation() {
                max_dev = max_dev.max(dev / bounds.gamma);
            }
        }
        if deadline >= horizon {
            break;
        }
        k += 1;
    }
    let violations = log.snapshot();
    let outputs = crate::churn::SeedOutputs::of(&world);
    stages.run += start.elapsed_ns();

    let start = CpuTimer::start();
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
    stages.shrink += start.elapsed_ns();

    Ok(PlanRun {
        horizon_secs: plan.horizon_secs,
        verdict: PlanVerdict {
            index,
            plan,
            violations,
        },
        artifact,
        max_dev_over_gamma: max_dev,
        outputs,
        slice_ns,
        sample_ns,
        build_ns,
        schedule_ns,
    })
}

/// Assembles plan runs into the report `run_campaign` would produce.
pub fn report(root_seed: u64, runs: &[PlanRun]) -> CampaignReport {
    CampaignReport {
        root_seed,
        verdicts: runs.iter().map(|r| r.verdict.clone()).collect(),
        artifacts: runs.iter().filter_map(|r| r.artifact.clone()).collect(),
    }
}

/// `FaultPlan::build_world` with timing decorators on the convergence
/// function, strategy and delay model. Returns the world, the build span
/// and the schedule span, nanoseconds.
fn build_traced(plan: &FaultPlan, probes: &Probes) -> (World, u64, Option<u64>) {
    let delta = SimDuration::from_secs(byzclock_chaos::plan::DELTA_SECS);
    let discipline = match plan.discipline {
        DisciplineSpec::Step => Discipline::Step,
        DisciplineSpec::Slew { max_rate } => Discipline::Slew { max_rate },
    };
    let mut b = WorldBuilder::new(plan.n as usize, plan.f as usize)
        .seed(plan.seed)
        .delta(delta)
        .rho(byzclock_chaos::plan::RHO)
        .k(byzclock_chaos::plan::K)
        .big_delta(SimDuration::from_secs(plan.big_delta_secs))
        .initial_bias_spread(plan.initial_bias_spread)
        .discipline(discipline)
        .net_faults(FaultProfile {
            duplicate_probability: plan.duplicate_probability,
            reorder_probability: plan.reorder_probability,
        })
        .delay_spikes(
            plan.delay_spikes
                .iter()
                .map(|s| DelaySpike {
                    from: RealTime::from_secs(s.from_secs),
                    until: RealTime::from_secs(s.until_secs),
                    factor: s.factor,
                })
                .collect(),
        )
        .link_outages(
            plan.link_cuts
                .iter()
                .map(|c| LinkOutage {
                    a: ProcId(c.a),
                    b: ProcId(c.b),
                    from: RealTime::from_secs(c.from_secs),
                    until: RealTime::from_secs(c.until_secs),
                })
                .collect(),
        )
        .restarts(
            plan.restarts
                .iter()
                .map(|r| (RealTime::from_secs(r.at_secs), ProcId(r.node)))
                .collect(),
        )
        .convergence(Box::new(TimedConvergence::new(
            Box::new(PaperSync),
            probes.convergence.clone(),
        )))
        .delay_model(Box::new(TimedDelay::new(
            Box::new(UniformDelay::new(delta * 0.1, delta)),
            probes.delay.clone(),
        )));
    if plan.message_loss > 0.0 {
        b = b.message_loss(plan.message_loss);
    }
    let mut schedule_ns = None;
    if let Some(adv) = &plan.adversary {
        let start = CpuTimer::start();
        let schedule = adv.schedule();
        schedule_ns = Some(start.elapsed_ns());
        let strategy = TimedStrategy::new(adv.strategy.build(), probes.reply.clone());
        b = b.adversary(byzclock_adversary::Adversary::new(
            schedule,
            Box::new(strategy),
        ));
    }
    let start = CpuTimer::start();
    let world = b.build().expect("validated plan must build");
    (world, start.elapsed_ns(), schedule_ns)
}
