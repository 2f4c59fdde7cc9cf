//! The churn workloads: rotating mobile-adversary worlds run in fixed
//! simulated slices.
//!
//! One operation is one seed: build the world of `Scenario::standard(n, f)`
//! plus `churn_world` with `RandomReplyStrategy(1.0)`, run it to the
//! horizon in slices of `run_until`, and sample the good-set deviation
//! from outside between slices. No observer is registered.

use crate::clock::CpuTimer;

use byzclock_adversary::{Adversary, ByzantineStrategy, CorruptionSchedule, RandomReplyStrategy};
use byzclock_core::PaperSync;
use byzclock_harness::scenario::Scenario;
use byzclock_net::UniformDelay;
use byzclock_runtime::World;
use byzclock_sim::{ProcId, RealTime, RngHub};

use crate::layers::{Probes, TimedConvergence, TimedDelay, TimedStrategy};
use crate::stats::Digest;

/// One churn workload's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Processors.
    pub n: usize,
    /// Faults per Δ.
    pub f: usize,
    /// Simulated horizon of every seed, seconds.
    pub horizon_secs: f64,
    /// Simulated length of one timed `run_until` slice, seconds.
    pub slice_secs: f64,
}

/// n = 16 over several simulated hours: the corruption schedule grows
/// with the horizon, so `good_at`'s episode scan dominates the extra cost.
pub const CHURN16_LONG: ChurnSpec = ChurnSpec {
    n: 16,
    f: 5,
    horizon_secs: 8.0 * 3600.0,
    slice_secs: 20.0,
};

/// n = 256 over a few Δ: the omniscient good-bias scan, n = 256
/// selection and ~n² in-flight messages dominate.
pub const CHURN256: ChurnSpec = ChurnSpec {
    n: 256,
    f: 85,
    horizon_secs: 240.0,
    slice_secs: 0.25,
};

impl ChurnSpec {
    /// The canned scenario for `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        Scenario::standard(self.n, self.f).with_seed(seed)
    }

    /// The simulated horizon.
    pub fn horizon(&self) -> RealTime {
        RealTime::from_secs(self.horizon_secs)
    }

    /// The world exactly as the program builds it: `Scenario::churn_world`.
    pub fn build_plain(&self, seed: u64) -> World {
        self.scenario(seed)
            .churn_world(Box::new(RandomReplyStrategy::new(1.0)), self.horizon())
    }

    /// The same world with the convergence function, strategy and delay
    /// model wrapped in timing decorators. Mirrors `Scenario::churn_world`
    /// step by step so that the schedule and build spans can be timed
    /// apart.
    pub fn build_traced(&self, seed: u64, probes: &Probes) -> TracedBuild {
        let scenario = self.scenario(seed);
        let horizon = self.horizon();
        let bd = scenario.big_delta;
        let start = CpuTimer::start();
        let schedule =
            CorruptionSchedule::rotating(self.n, self.f, bd * 0.5, bd, horizon, bd * 0.25);
        schedule
            .verify_f_limited(self.f, bd, horizon)
            .expect("rotating schedule must be f-limited");
        let schedule_ns = start.elapsed_ns();
        let strategy: Box<dyn ByzantineStrategy> = Box::new(TimedStrategy::new(
            Box::new(RandomReplyStrategy::new(1.0)),
            probes.reply.clone(),
        ));
        let start = CpuTimer::start();
        let world = scenario
            .builder()
            .adversary(Adversary::new(schedule, strategy))
            .convergence(Box::new(TimedConvergence::new(
                Box::new(PaperSync),
                probes.convergence.clone(),
            )))
            .delay_model(Box::new(TimedDelay::new(
                Box::new(UniformDelay::new(scenario.delta * 0.1, scenario.delta)),
                probes.delay.clone(),
            )))
            .build()
            .expect("churn world must build");
        TracedBuild {
            world,
            schedule_ns,
            build_ns: start.elapsed_ns(),
        }
    }

    /// Runs `world` to the horizon in slices, sampling between slices and
    /// calling `between_slices` after each one.
    pub fn run(&self, world: &mut World, between_slices: &mut dyn FnMut()) -> SeedRun {
        let gamma = world.bounds().expect("churn worlds derive bounds").gamma;
        let warm_up = RealTime::ZERO + world.big_delta();
        let horizon = self.horizon();
        let mut slice_ns = Vec::new();
        let mut sample_ns = Vec::new();
        let mut max_dev: f64 = 0.0;
        let mut k = 1u64;
        loop {
            let deadline = RealTime::from_secs(k as f64 * self.slice_secs).min(horizon);
            let start = CpuTimer::start();
            world.run_until(deadline);
            slice_ns.push(start.elapsed_ns());
            let start = CpuTimer::start();
            let sample = world.sample_now();
            sample_ns.push(start.elapsed_ns());
            if sample.tau > warm_up {
                if let Some(dev) = sample.good_deviation() {
                    max_dev = max_dev.max(dev / gamma);
                }
            }
            between_slices();
            if deadline >= horizon {
                break;
            }
            k += 1;
        }
        SeedRun {
            outputs: SeedOutputs::of(world),
            max_dev_over_gamma: max_dev,
            slice_ns,
            sample_ns,
        }
    }
}

/// A world built by [`ChurnSpec::build_traced`], with its entry spans.
pub struct TracedBuild {
    /// The decorated world.
    pub world: World,
    /// `CorruptionSchedule::rotating` + `verify_f_limited`, nanoseconds.
    pub schedule_ns: u64,
    /// `WorldBuilder::build`, nanoseconds.
    pub build_ns: u64,
}

/// What a seed's world produced: the exact outputs the digest covers plus
/// the counts read from public accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedOutputs {
    /// Engine events processed.
    pub events: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Forged adversary messages.
    pub forged: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Duplicate copies injected.
    pub duplicated: u64,
    /// Sync rounds completed, summed over nodes.
    pub rounds: u64,
    /// Corruption episodes in the schedule.
    pub episodes: u64,
    /// Final bias of every node, as IEEE-754 bits.
    pub final_bias_bits: Vec<u64>,
}

impl SeedOutputs {
    /// Reads the outputs of `world` at its current time.
    pub fn of(world: &World) -> Self {
        let stats = world.network_stats();
        let nodes = (0..world.n()).map(|i| ProcId(i as u32));
        SeedOutputs {
            events: world.events_processed(),
            delivered: stats.delivered,
            forged: stats.forged,
            dropped: stats.dropped,
            duplicated: stats.duplicated,
            rounds: nodes.clone().map(|p| world.rounds_completed(p)).sum(),
            episodes: world.corruption_episodes() as u64,
            final_bias_bits: nodes
                .map(|p| world.bias_of(p).as_secs().to_bits())
                .collect(),
        }
    }

    /// Folds the per-seed events, delivered count and final-bias bits into
    /// `digest`.
    pub fn fold_into(&self, digest: &mut Digest) {
        digest.word(self.events);
        digest.word(self.delivered);
        self.final_bias_bits.iter().for_each(|b| digest.word(*b));
    }
}

/// One seed's run.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// The world's outputs at the horizon.
    pub outputs: SeedOutputs,
    /// Largest sampled good-set deviation after the first Δ, over γ.
    pub max_dev_over_gamma: f64,
    /// CPU time of every `run_until` slice, nanoseconds.
    pub slice_ns: Vec<u64>,
    /// CPU time of every `World::sample_now`, nanoseconds.
    pub sample_ns: Vec<u64>,
}

/// The seeds of one benchmark run: `count` world seeds drawn from the
/// benchmark seed, so the same benchmark seed gives the same worlds.
pub fn seeds(bench_seed: u64, count: usize) -> Vec<u64> {
    let hub = RngHub::new(bench_seed);
    (0..count)
        .map(|i| hub.stream("perfbench-churn", i as u64).bits64())
        .collect()
}
