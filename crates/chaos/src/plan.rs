//! Composed fault plans: what one chaos run throws at the protocol.
//!
//! A [`FaultPlan`] is a plain-data, serializable description of one
//! simulated world: topology size, initial dispersion, correction
//! discipline, and up to seven *composable* fault dimensions —
//! Byzantine corruption (an [`AdversaryPlan`]), message loss,
//! duplication, reordering, δ-violating delay spikes, link cuts and
//! benign node restarts. Plans are sampled from a seeded RNG
//! ([`FaultPlan::sample`]), validated *before* execution
//! ([`FaultPlan::validate`] — including the exact Definition 2 `f`-per-Δ
//! check), and materialized into a runnable [`World`]
//! ([`FaultPlan::build_world`]).
//!
//! All times in a plan are plain `f64` seconds so the whole plan
//! round-trips losslessly through JSON (the replay-artifact format).

use byzclock_adversary::{AdversaryPlan, CorruptionSchedule, CorruptionWindowSpec, StrategySpec};
use byzclock_core::NetworkModel;
use byzclock_net::{DelaySpike, FaultProfile};
use byzclock_runtime::builder::LinkOutage;
use byzclock_runtime::{Discipline, World, WorldBuilder};
use byzclock_sim::{DetRng, ProcId, RealTime, SimDuration};
use serde::{Deserialize, Serialize};

/// Message delivery bound δ every chaos world uses, seconds.
pub const DELTA_SECS: f64 = 0.010;
/// Hardware drift bound ρ every chaos world uses.
pub const RHO: f64 = 1e-5;
/// Sync intervals per Δ.
pub const K: u32 = 8;
/// The largest `n` a plan may ask for: the top of the n range the project
/// measures, and far below a topology that would not fit in memory.
const MAX_N: u32 = 1024;

/// Serializable mirror of [`Discipline`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DisciplineSpec {
    /// Instant steps (the paper's Figure 1 semantics).
    Step,
    /// NTP-style slew at `max_rate` local seconds per real second.
    Slew {
        /// Correction rate magnitude, in `(0, 0.9)`.
        max_rate: f64,
    },
}

impl DisciplineSpec {
    fn to_discipline(self) -> Discipline {
        match self {
            DisciplineSpec::Step => Discipline::Step,
            DisciplineSpec::Slew { max_rate } => Discipline::Slew { max_rate },
        }
    }

    /// True for the slew variant.
    pub fn is_slew(self) -> bool {
        matches!(self, DisciplineSpec::Slew { .. })
    }
}

/// One δ-violating delay spike (see [`DelaySpike`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikeSpec {
    /// Window start, seconds.
    pub from_secs: f64,
    /// Window end, seconds.
    pub until_secs: f64,
    /// Delay multiplier (finite, ≥ 1).
    pub factor: f64,
}

/// One transient link cut.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkCutSpec {
    /// One endpoint.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// Outage start, seconds.
    pub from_secs: f64,
    /// Outage end, seconds.
    pub until_secs: f64,
}

/// One benign crash+reboot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RestartSpec {
    /// The rebooting node.
    pub node: u32,
    /// When, seconds.
    pub at_secs: f64,
}

/// One complete chaos configuration. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Number of processors.
    pub n: u32,
    /// Fault bound per Δ (plans keep `n ≥ 3f+1`).
    pub f: u32,
    /// World seed — the run is a pure function of the plan.
    pub seed: u64,
    /// How long the world runs, seconds.
    pub horizon_secs: f64,
    /// The adversary period Δ, seconds.
    pub big_delta_secs: f64,
    /// Initial clock dispersion half-width, seconds.
    pub initial_bias_spread: f64,
    /// Correction discipline.
    pub discipline: DisciplineSpec,
    /// Byzantine corruption dimension (None = no adversary).
    pub adversary: Option<AdversaryPlan>,
    /// Independent message-loss probability (0 = off).
    pub message_loss: f64,
    /// Message duplication probability (0 = off).
    pub duplicate_probability: f64,
    /// Within-δ reordering probability (0 = off).
    pub reorder_probability: f64,
    /// δ-violating delay spikes.
    pub delay_spikes: Vec<SpikeSpec>,
    /// Transient link cuts.
    pub link_cuts: Vec<LinkCutSpec>,
    /// Benign node restarts.
    pub restarts: Vec<RestartSpec>,
}

impl FaultPlan {
    /// The no-fault baseline plan: `n` nodes, quiet network, no adversary.
    pub fn quiet(n: u32, f: u32, seed: u64) -> Self {
        FaultPlan {
            n,
            f,
            seed,
            horizon_secs: 160.0,
            big_delta_secs: 40.0,
            initial_bias_spread: 0.2,
            discipline: DisciplineSpec::Step,
            adversary: None,
            message_loss: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            delay_spikes: Vec::new(),
            link_cuts: Vec::new(),
            restarts: Vec::new(),
        }
    }

    /// Samples a composed plan from `rng`. Each fault dimension is
    /// independently present with moderate probability, so most plans
    /// compose several. The corruption dimension is generated with
    /// [`CorruptionSchedule::random_churn`] and is therefore `f`-limited
    /// by construction; [`FaultPlan::validate`] re-checks it exactly.
    ///
    /// `seed` is left at 0 — the campaign assigns world seeds from its own
    /// root-seed stream.
    pub fn sample(rng: &mut DetRng) -> Self {
        let n = *rng.choose(&[4u32, 5, 7]);
        let f = (n - 1) / 3;
        let mut plan = FaultPlan::quiet(n, f, 0);
        plan.initial_bias_spread = rng.uniform(0.05, 0.3);
        if rng.chance(0.3) {
            // Fast enough that undoing the worst sampled sabotage (±5 s)
            // fits inside one Δ = 40 s: a released node has fully slewed
            // home before it re-enters the Definition 3 good set, keeping
            // the deviation invariant meaningful under Slew.
            plan.discipline = DisciplineSpec::Slew { max_rate: 0.2 };
        }
        if rng.chance(0.7) {
            let strategy = sample_strategy(rng);
            let schedule = CorruptionSchedule::random_churn(
                n as usize,
                f as usize,
                SimDuration::from_secs(2.0),
                SimDuration::from_secs(8.0),
                SimDuration::from_secs(plan.big_delta_secs),
                RealTime::from_secs(plan.horizon_secs),
                rng,
            );
            let windows = schedule
                .intervals()
                .iter()
                .map(|iv| CorruptionWindowSpec {
                    proc: iv.proc.0,
                    from_secs: iv.from.as_secs(),
                    until_secs: iv.until.as_secs(),
                })
                .collect();
            plan.adversary = Some(AdversaryPlan { strategy, windows });
        }
        if rng.chance(0.3) {
            plan.message_loss = rng.uniform(0.02, 0.2);
        }
        if rng.chance(0.3) {
            plan.duplicate_probability = rng.uniform(0.05, 0.3);
        }
        if rng.chance(0.3) {
            plan.reorder_probability = rng.uniform(0.05, 0.3);
        }
        if rng.chance(0.3) {
            for _ in 0..=rng.index(2) {
                let from = rng.uniform(0.0, plan.horizon_secs - 20.0);
                let len = rng.uniform(2.0, 10.0);
                plan.delay_spikes.push(SpikeSpec {
                    from_secs: from,
                    until_secs: from + len,
                    factor: rng.uniform(1.5, 4.0),
                });
            }
        }
        if rng.chance(0.3) {
            let a = rng.index(n as usize) as u32;
            let b = (a + 1 + rng.index(n as usize - 1) as u32) % n;
            let from = rng.uniform(0.0, plan.horizon_secs - 20.0);
            plan.link_cuts.push(LinkCutSpec {
                a,
                b,
                from_secs: from,
                until_secs: from + rng.uniform(2.0, 15.0),
            });
        }
        if rng.chance(0.4) {
            for _ in 0..=rng.index(3) {
                plan.restarts.push(RestartSpec {
                    node: rng.index(n as usize) as u32,
                    at_secs: rng.uniform(5.0, plan.horizon_secs - 10.0),
                });
            }
        }
        plan
    }

    /// True iff the plan stays entirely inside the paper's model
    /// (reliable exactly-once links respecting δ), so Theorem 5's bounds
    /// apply unconditionally. Corruption, restarts and slew *are* within
    /// the model; loss, duplication, reordering, spikes and link cuts are
    /// not.
    pub fn within_model(&self) -> bool {
        self.message_loss == 0.0
            && self.duplicate_probability == 0.0
            && self.reorder_probability == 0.0
            && self.delay_spikes.is_empty()
            && self.link_cuts.is_empty()
    }

    /// Names of the active fault dimensions (for reporting).
    pub fn dimensions(&self) -> Vec<&'static str> {
        let mut dims = Vec::new();
        if self.adversary.is_some() {
            dims.push("byzantine");
        }
        if self.message_loss > 0.0 {
            dims.push("loss");
        }
        if self.duplicate_probability > 0.0 {
            dims.push("dup");
        }
        if self.reorder_probability > 0.0 {
            dims.push("reorder");
        }
        if !self.delay_spikes.is_empty() {
            dims.push("spike");
        }
        if !self.link_cuts.is_empty() {
            dims.push("cut");
        }
        if !self.restarts.is_empty() {
            dims.push("restart");
        }
        if self.discipline.is_slew() {
            dims.push("slew");
        }
        dims
    }

    /// Validates every field, including the exact Definition 2 check that
    /// the adversary windows never control more than `f` distinct
    /// processors per Δ window, and derives the protocol parameters as
    /// [`build_world`](Self::build_world) will (without building a world).
    /// Runs *before* execution so Definition-2-violating plans, and plans
    /// whose world could not be built, are rejected up front.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.f == 0 {
            return Err("f must be at least 1".into());
        }
        if self.n < 3 * self.f + 1 {
            return Err(format!("n = {} < 3f+1 = {}", self.n, 3 * self.f + 1));
        }
        if self.n > MAX_N {
            return Err(format!("n = {} exceeds {MAX_N}", self.n));
        }
        if !(self.big_delta_secs.is_finite() && self.big_delta_secs > 0.0) {
            return Err(format!(
                "big_delta {} must be positive",
                self.big_delta_secs
            ));
        }
        let delta = SimDuration::from_secs(DELTA_SECS);
        NetworkModel {
            delta,
            rho: RHO,
            lambda: NetworkModel::natural_lambda(delta, RHO),
            big_delta: SimDuration::from_secs(self.big_delta_secs),
        }
        .derive(self.n as usize, self.f as usize, K)
        .map_err(|e| e.to_string())?;
        if !(self.horizon_secs.is_finite() && self.horizon_secs >= 2.0 * self.big_delta_secs) {
            return Err(format!(
                "horizon {} must cover at least two periods (2Δ = {})",
                self.horizon_secs,
                2.0 * self.big_delta_secs
            ));
        }
        if !(self.initial_bias_spread.is_finite() && self.initial_bias_spread >= 0.0) {
            return Err(format!(
                "bad initial bias spread {}",
                self.initial_bias_spread
            ));
        }
        if let DisciplineSpec::Slew { max_rate } = self.discipline {
            if !(max_rate > 0.0 && max_rate < 0.9) {
                return Err(format!("slew rate {max_rate} must be in (0, 0.9)"));
            }
        }
        for (name, p) in [
            ("message_loss", self.message_loss),
            ("duplicate_probability", self.duplicate_probability),
            ("reorder_probability", self.reorder_probability),
        ] {
            if !(p.is_finite() && (0.0..1.0).contains(&p)) {
                return Err(format!("{name} = {p} must be in [0, 1)"));
            }
        }
        for (i, s) in self.delay_spikes.iter().enumerate() {
            if !(s.factor.is_finite() && s.factor >= 1.0) {
                return Err(format!("spike #{i}: factor {} must be >= 1", s.factor));
            }
            if !(s.from_secs >= 0.0 && s.until_secs > s.from_secs) {
                return Err(format!(
                    "spike #{i}: bad window [{}, {})",
                    s.from_secs, s.until_secs
                ));
            }
        }
        for (i, c) in self.link_cuts.iter().enumerate() {
            if c.a == c.b || c.a >= self.n || c.b >= self.n {
                return Err(format!("cut #{i}: bad endpoints {}–{}", c.a, c.b));
            }
            if !(c.from_secs >= 0.0 && c.until_secs > c.from_secs) {
                return Err(format!(
                    "cut #{i}: bad window [{}, {})",
                    c.from_secs, c.until_secs
                ));
            }
        }
        for (i, r) in self.restarts.iter().enumerate() {
            if r.node >= self.n {
                return Err(format!("restart #{i}: node {} out of range", r.node));
            }
            if !(r.at_secs.is_finite() && r.at_secs >= 0.0) {
                return Err(format!("restart #{i}: bad time {}", r.at_secs));
            }
        }
        if let Some(adv) = &self.adversary {
            adv.verify(
                self.f as usize,
                SimDuration::from_secs(self.big_delta_secs),
                RealTime::from_secs(self.horizon_secs),
            )
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Materializes the plan into a runnable [`World`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan — call [`validate`](Self::validate)
    /// first.
    pub fn build_world(&self) -> World {
        let mut b = WorldBuilder::new(self.n as usize, self.f as usize)
            .seed(self.seed)
            .delta(SimDuration::from_secs(DELTA_SECS))
            .rho(RHO)
            .k(K)
            .big_delta(SimDuration::from_secs(self.big_delta_secs))
            .initial_bias_spread(self.initial_bias_spread)
            .discipline(self.discipline.to_discipline())
            .net_faults(FaultProfile {
                duplicate_probability: self.duplicate_probability,
                reorder_probability: self.reorder_probability,
            })
            .delay_spikes(
                self.delay_spikes
                    .iter()
                    .map(|s| DelaySpike {
                        from: RealTime::from_secs(s.from_secs),
                        until: RealTime::from_secs(s.until_secs),
                        factor: s.factor,
                    })
                    .collect(),
            )
            .link_outages(
                self.link_cuts
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
                self.restarts
                    .iter()
                    .map(|r| (RealTime::from_secs(r.at_secs), ProcId(r.node)))
                    .collect(),
            );
        if self.message_loss > 0.0 {
            b = b.message_loss(self.message_loss);
        }
        if let Some(adv) = &self.adversary {
            b = b.adversary(adv.build());
        }
        b.build().expect("validated plan must build")
    }
}

fn sample_strategy(rng: &mut DetRng) -> StrategySpec {
    match rng.index(7) {
        0 => StrategySpec::Crash,
        1 => StrategySpec::Random {
            spread: rng.uniform(0.5, 5.0),
        },
        2 => StrategySpec::ConstantOffset {
            offset: rng.uniform(-5.0, 5.0),
        },
        3 => StrategySpec::SplitBrain {
            magnitude: rng.uniform(0.5, 5.0),
        },
        4 => StrategySpec::Stealth {
            push: rng.uniform(0.01, 0.1),
        },
        5 => StrategySpec::Colluder {
            aggressiveness: rng.uniform(0.5, 1.0),
        },
        _ => StrategySpec::Flood,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_plans_validate_and_build() {
        let mut rng = DetRng::seeded(42);
        for _ in 0..30 {
            let mut plan = FaultPlan::sample(&mut rng);
            plan.seed = 7;
            plan.validate().unwrap_or_else(|e| panic!("{e}\n{plan:?}"));
            let mut w = plan.build_world();
            w.run_until(RealTime::from_secs(1.0)); // smoke: it runs
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let sample_all = |seed: u64| {
            let mut rng = DetRng::seeded(seed);
            (0..10)
                .map(|_| FaultPlan::sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(sample_all(3), sample_all(3));
        assert_ne!(sample_all(3), sample_all(4));
    }

    #[test]
    fn sampling_covers_all_dimensions() {
        let mut rng = DetRng::seeded(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            for d in FaultPlan::sample(&mut rng).dimensions() {
                seen.insert(d);
            }
        }
        for d in [
            "byzantine",
            "loss",
            "dup",
            "reorder",
            "spike",
            "cut",
            "restart",
            "slew",
        ] {
            assert!(seen.contains(d), "dimension {d} never sampled");
        }
    }

    #[test]
    fn f_violating_plan_is_rejected_before_execution() {
        let mut plan = FaultPlan::quiet(4, 1, 1);
        // Two distinct victims inside one Δ window with f = 1: violates
        // Definition 2 and must be caught by validate(), not at runtime.
        plan.adversary = Some(AdversaryPlan {
            strategy: StrategySpec::Crash,
            windows: vec![
                CorruptionWindowSpec {
                    proc: 1,
                    from_secs: 50.0,
                    until_secs: 55.0,
                },
                CorruptionWindowSpec {
                    proc: 2,
                    from_secs: 60.0,
                    until_secs: 65.0,
                },
            ],
        });
        let err = plan.validate().unwrap_err();
        assert!(err.contains("f-limited"), "unexpected error: {err}");
    }

    #[test]
    fn structural_problems_are_rejected() {
        let base = FaultPlan::quiet(4, 1, 1);
        let mut p = base.clone();
        p.n = 3;
        assert!(p.validate().is_err(), "n < 3f+1");
        let mut p = base.clone();
        p.message_loss = 1.0;
        assert!(p.validate().is_err(), "loss = 1");
        let mut p = base.clone();
        p.delay_spikes.push(SpikeSpec {
            from_secs: 10.0,
            until_secs: 5.0,
            factor: 2.0,
        });
        assert!(p.validate().is_err(), "empty spike window");
        let mut p = base.clone();
        p.link_cuts.push(LinkCutSpec {
            a: 0,
            b: 9,
            from_secs: 1.0,
            until_secs: 2.0,
        });
        assert!(p.validate().is_err(), "cut endpoint out of range");
        let mut p = base.clone();
        p.restarts.push(RestartSpec {
            node: 4,
            at_secs: 10.0,
        });
        assert!(p.validate().is_err(), "restart node out of range");
        let mut p = base;
        p.horizon_secs = 50.0;
        assert!(p.validate().is_err(), "horizon below 2 deltas");
    }

    #[test]
    fn plans_whose_world_cannot_be_built_are_rejected() {
        let mut p = FaultPlan::quiet(4, 1, 1);
        p.big_delta_secs = 0.01;
        let err = p.validate().unwrap_err();
        assert!(
            err.contains("big_delta too short"),
            "unexpected error: {err}"
        );
        let p = FaultPlan::quiet(1025, 1, 1);
        let err = p.validate().unwrap_err();
        assert!(err.contains("exceeds 1024"), "unexpected error: {err}");
        assert!(FaultPlan::quiet(1024, 1, 1).validate().is_ok());
    }

    #[test]
    fn plans_round_trip_through_json() {
        let mut rng = DetRng::seeded(9);
        for _ in 0..10 {
            let plan = FaultPlan::sample(&mut rng);
            let json = serde_json::to_string(&plan).unwrap();
            let back: FaultPlan = serde_json::from_str(&json).unwrap();
            assert_eq!(back, plan);
        }
    }
}
