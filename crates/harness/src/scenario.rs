//! Canned scenario configurations shared by the experiments.

use byzclock_adversary::{Adversary, ByzantineStrategy, CorruptionSchedule};
use byzclock_core::{NetworkModel, TheoremBounds};
use byzclock_runtime::{World, WorldBuilder};
use byzclock_sim::{ProcId, RealTime, SimDuration};

/// A reusable scenario configuration: the network model plus `(n, f, K)`.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Number of processors.
    pub n: usize,
    /// Fault bound per Δ.
    pub f: usize,
    /// Root seed.
    pub seed: u64,
    /// Message delivery bound δ.
    pub delta: SimDuration,
    /// Hardware drift bound ρ.
    pub rho: f64,
    /// Adversary time period Δ.
    pub big_delta: SimDuration,
    /// Sync intervals per Δ.
    pub k: u32,
}

impl Scenario {
    /// The standard experiment configuration: δ = 10 ms, ρ = 10⁻⁵,
    /// Δ = 60 s, K = 8 (⇒ T = 7.5 s) — laptop-scale but respecting every
    /// constraint of Theorem 5.
    pub fn standard(n: usize, f: usize) -> Self {
        Scenario {
            n,
            f,
            seed: 42,
            delta: SimDuration::from_millis(10.0),
            rho: 1e-5,
            big_delta: SimDuration::from_secs(60.0),
            k: 8,
        }
    }

    /// Like [`Scenario::standard`] but with pronounced drift (ρ = 10⁻⁴)
    /// for accuracy measurements.
    pub fn drifty(n: usize, f: usize) -> Self {
        Scenario {
            rho: 1e-4,
            ..Scenario::standard(n, f)
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides K.
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// The paper's network model for this scenario (Λ = δ·(1+ρ)).
    pub fn model(&self) -> NetworkModel {
        NetworkModel {
            delta: self.delta,
            rho: self.rho,
            lambda: NetworkModel::natural_lambda(self.delta, self.rho),
            big_delta: self.big_delta,
        }
    }

    /// The Theorem 5 bounds for this scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario violates the derivation constraints (they are
    /// all satisfied by the canned constructors).
    pub fn bounds(&self) -> TheoremBounds {
        self.model()
            .bounds_for_t(self.t())
            .expect("canned scenario must satisfy Theorem 5 constraints")
    }

    /// The interval length `T = Δ/K`.
    pub fn t(&self) -> SimDuration {
        self.big_delta / self.k as f64
    }

    /// A pre-configured [`WorldBuilder`] for this scenario.
    pub fn builder(&self) -> WorldBuilder {
        WorldBuilder::new(self.n, self.f)
            .seed(self.seed)
            .delta(self.delta)
            .rho(self.rho)
            .big_delta(self.big_delta)
            .k(self.k)
    }

    /// A quiet world: no adversary, small initial dispersion.
    ///
    /// # Panics
    ///
    /// Panics on configuration errors (canned scenarios never hit them).
    pub fn quiet_world(&self) -> World {
        self.builder()
            .initial_bias_spread(self.bounds().gamma / 4.0)
            .build()
            .expect("quiet world must build")
    }

    /// A world under rotating mobile churn with the given strategy: `f`
    /// adversary slots rotate over all processors forever, each episode
    /// held for Δ/2. The schedule is verified f-limited up to `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if the generated schedule fails its own Definition 2 check
    /// (would indicate a generator bug).
    pub fn churn_world(&self, strategy: Box<dyn ByzantineStrategy>, horizon: RealTime) -> World {
        let schedule = CorruptionSchedule::rotating(
            self.n,
            self.f,
            self.big_delta * 0.5,
            self.big_delta,
            horizon,
            self.big_delta * 0.25,
        );
        schedule
            .verify_f_limited(self.f, self.big_delta, horizon)
            .expect("rotating schedule must be f-limited");
        self.builder()
            .adversary(Adversary::new(schedule, strategy))
            .build()
            .expect("churn world must build")
    }

    /// A recovery scenario: one processor (`the last one`) is corrupted at
    /// `Δ` for `Δ/2` and its clock set by `strategy` (e.g. to a fixed bias
    /// by a `ConstantOffsetStrategy`); everyone else is honest and
    /// converged.
    ///
    /// # Panics
    ///
    /// Panics on configuration errors.
    pub fn recovery_world(
        &self,
        strategy: Box<dyn ByzantineStrategy>,
    ) -> (World, ProcId, RealTime) {
        let victim = ProcId((self.n - 1) as u32);
        let corrupt_at = RealTime::ZERO + self.big_delta;
        let hold = self.big_delta * 0.5;
        let schedule = CorruptionSchedule::single(victim, corrupt_at, hold);
        let release_at = corrupt_at + hold;
        let world = self
            .builder()
            .adversary(Adversary::new(schedule, strategy))
            .build()
            .expect("recovery world must build");
        (world, victim, release_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_adversary::{ConstantOffsetStrategy, RandomReplyStrategy};

    #[test]
    fn standard_scenario_satisfies_theorem() {
        let s = Scenario::standard(7, 2);
        let b = s.bounds();
        assert_eq!(b.k, 8);
        assert!(b.gamma > 0.0);
        assert_eq!(s.t(), SimDuration::from_secs(7.5));
    }

    #[test]
    fn quiet_world_builds_and_runs() {
        let mut w = Scenario::standard(4, 1).quiet_world();
        w.run_until(RealTime::from_secs(30.0));
        assert!(w.sample_now().good_deviation().is_some());
    }

    #[test]
    fn churn_world_schedule_is_verified() {
        let s = Scenario::standard(7, 2);
        let mut w = s.churn_world(
            Box::new(RandomReplyStrategy::new(1.0)),
            RealTime::from_secs(300.0),
        );
        w.run_until(RealTime::from_secs(100.0));
        // at all times at most f corrupted
        let sample = w.sample_now();
        assert!(sample.corrupt.iter().filter(|c| **c).count() <= 2);
    }

    #[test]
    fn recovery_world_shape() {
        let s = Scenario::standard(4, 1);
        let (mut w, victim, release_at) =
            s.recovery_world(Box::new(ConstantOffsetStrategy::new(10.0)));
        assert_eq!(victim, ProcId(3));
        assert_eq!(release_at, RealTime::from_secs(90.0));
        w.run_until(RealTime::from_secs(70.0));
        assert!(w.sample_now().corrupt[victim.index()]);
        assert!(w.bias_of(victim).as_secs().abs() > 1.0);
    }

    #[test]
    fn drifty_scenario_has_larger_bounds() {
        let std = Scenario::standard(4, 1).bounds();
        let drifty = Scenario::drifty(4, 1).bounds();
        assert!(drifty.gamma > std.gamma);
        assert!(drifty.logical_drift > std.logical_drift);
    }
}
