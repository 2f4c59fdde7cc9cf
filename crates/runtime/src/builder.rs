//! Fluent construction of simulation worlds.
//!
//! [`WorldBuilder`] assembles a [`World`] from a handful of knobs with
//! sensible defaults matching the paper's running assumptions:
//!
//! * full-mesh topology, uniform message delays in `[0.1δ, δ]`,
//! * hardware clocks pinned at a random constant rate inside the
//!   ρ-envelope,
//! * protocol parameters *derived* from the network model
//!   (`δ, ρ, Λ, Δ, K`) via the paper's recipe (Section 3.2 / DESIGN.md §5),
//! * no adversary, zero initial biases, and deterministic start jitter so
//!   the nodes' sync schedules are not artificially phase-locked
//!   ("we do not make any assumptions about the relative times of Sync
//!   executions in different processors" — Section 3.3).

use byzclock_adversary::{Adversary, AdversaryAction};
use byzclock_clock::{ConstantDrift, DriftModel, HardwareClock, LogicalClock, RandomWalkDrift};
use byzclock_core::{
    params::ProtocolParamsBuilder, BoundsError as CoreBoundsError, CachedSync, ConvergenceFn,
    Derived, NetworkModel, PaperSync, ParamError, ProtocolParams, SyncNode, TheoremBounds,
};
use byzclock_net::{DelayModel, DelaySpike, FaultProfile, Network, Topology, UniformDelay};
use byzclock_sim::{Engine, ProcId, RealTime, RngHub, SimDuration};
use std::fmt;

use crate::events::SimEvent;
use crate::world::{NodeSlot, Protocol, World};

// Re-exported publicly through the crate root; the bounds error comes from
// byzclock-core.
pub use byzclock_core::bounds::BoundsError;

/// How hardware clocks wander inside the ρ-envelope.
#[derive(Debug, Clone)]
pub enum DriftSpec {
    /// Each clock gets an independent random constant rate inside the
    /// envelope — the dominant real-world situation (fixed crystal skew).
    ConstantRandomRate,
    /// Bounded Gaussian random walk (thermal wander).
    RandomWalk {
        /// Std-dev of each rate step.
        step_std: f64,
        /// Time between steps.
        interval: SimDuration,
    },
    /// Explicit constant rate per node (length must equal `n`); each rate
    /// must lie inside the ρ-envelope. Used e.g. to give the two cliques of
    /// experiment E8 systematically opposite skews.
    ExplicitRates(Vec<f64>),
}

/// How the nodes' clocks start out.
#[derive(Debug, Clone)]
pub enum InitialBias {
    /// All clocks agree with real time at τ = 0.
    Zero,
    /// Each bias drawn uniformly from `[−spread, +spread]`.
    UniformSpread(f64),
    /// Explicit per-node biases (length must equal `n`).
    Explicit(Vec<f64>),
}

/// How clock corrections are applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discipline {
    /// Step the adjustment variable instantly — the paper's Figure 1
    /// semantics (`adj ← adj + …`). Clocks may jump, including backwards.
    Step,
    /// Slew: fold each correction in gradually at `max_rate` local seconds
    /// per real second (the NTP discipline). Keeps clocks continuous and —
    /// for `max_rate` below the minimum hardware rate — monotone, at the
    /// cost of recovery time proportional to the offset.
    Slew {
        /// Correction rate magnitude (e.g. `0.005` = 5000 ppm).
        max_rate: f64,
    },
}

/// One transient link outage: the undirected link `{a, b}` is down during
/// `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOutage {
    /// One endpoint.
    pub a: ProcId,
    /// The other endpoint.
    pub b: ProcId,
    /// Outage start.
    pub from: RealTime,
    /// Outage end.
    pub until: RealTime,
}

/// Construction failure.
#[derive(Debug)]
pub enum BuildError {
    /// Parameter derivation failed (see [`BoundsError`]).
    Bounds(CoreBoundsError),
    /// An explicit per-node vector (initial biases or drift rates) does
    /// not have one entry per node.
    LengthMismatch {
        /// What the vector holds, e.g. `"initial bias"`.
        what: &'static str,
        /// expected (n)
        expected: usize,
        /// provided
        got: usize,
    },
    /// The topology's node count does not match `n`.
    TopologySize {
        /// expected (n)
        expected: usize,
        /// provided
        got: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Bounds(e) => write!(f, "parameter derivation failed: {e}"),
            BuildError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} vector has length {got}, expected {expected}"),
            BuildError::TopologySize { expected, got } => {
                write!(f, "topology has {got} nodes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CoreBoundsError> for BuildError {
    fn from(e: CoreBoundsError) -> Self {
        BuildError::Bounds(e)
    }
}

/// Builder for [`World`]s. See the crate-level example.
pub struct WorldBuilder {
    n: usize,
    f: usize,
    seed: u64,
    delta: SimDuration,
    rho: f64,
    big_delta: SimDuration,
    k: u32,
    params_override: Option<ProtocolParams>,
    way_off_override: Option<f64>,
    allow_sub_resilience: bool,
    topology: Option<Topology>,
    delay: Option<Box<dyn DelayModel>>,
    drift: DriftSpec,
    convergence: Box<dyn ConvergenceFn>,
    initial_bias: InitialBias,
    adversary: Option<Adversary>,
    sample_interval: Option<SimDuration>,
    pings_per_peer: usize,
    link_outages: Vec<LinkOutage>,
    message_loss: f64,
    net_faults: FaultProfile,
    delay_spikes: Vec<DelaySpike>,
    restarts: Vec<(RealTime, ProcId)>,
    discipline: Discipline,
    cached_estimation: Option<SimDuration>,
}

impl fmt::Debug for WorldBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorldBuilder")
            .field("n", &self.n)
            .field("f", &self.f)
            .field("seed", &self.seed)
            .finish()
    }
}

impl WorldBuilder {
    /// Starts a builder for `n` processors tolerating `f` per Δ.
    pub fn new(n: usize, f: usize) -> Self {
        WorldBuilder {
            n,
            f,
            seed: 0,
            delta: SimDuration::from_millis(10.0),
            rho: 1e-5,
            big_delta: SimDuration::from_secs(600.0),
            k: 8,
            params_override: None,
            way_off_override: None,
            allow_sub_resilience: false,
            topology: None,
            delay: None,
            drift: DriftSpec::ConstantRandomRate,
            convergence: Box::new(PaperSync),
            initial_bias: InitialBias::Zero,
            adversary: None,
            sample_interval: None,
            pings_per_peer: 1,
            link_outages: Vec::new(),
            message_loss: 0.0,
            net_faults: FaultProfile::default(),
            delay_spikes: Vec::new(),
            restarts: Vec::new(),
            discipline: Discipline::Step,
            cached_estimation: None,
        }
    }

    /// Root seed; the entire run is a pure function of it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Message delivery bound δ.
    pub fn delta(mut self, delta: SimDuration) -> Self {
        self.delta = delta;
        self
    }

    /// Hardware drift bound ρ.
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// The adversary time period Δ.
    pub fn big_delta(mut self, big_delta: SimDuration) -> Self {
        self.big_delta = big_delta;
        self
    }

    /// Number of sync intervals per Δ (`K ≥ 5`); `T = Δ/K`.
    pub fn k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Overrides the derived protocol parameters entirely.
    pub fn params(mut self, params: ProtocolParams) -> Self {
        self.params_override = Some(params);
        self
    }

    /// Overrides only the `WayOff` bound (E9 ablation).
    pub fn way_off_override(mut self, way_off: f64) -> Self {
        self.way_off_override = Some(way_off);
        self
    }

    /// Permits `n < 3f+1` (the resilience-threshold experiment runs the
    /// protocol outside its guaranteed region on purpose).
    pub fn allow_sub_resilience(mut self) -> Self {
        self.allow_sub_resilience = true;
        self
    }

    /// Communication graph (default: full mesh).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Message delay model (default: uniform in `[0.1δ, δ]`). Must respect
    /// the δ bound or [`Network::new`] panics.
    pub fn delay_model(mut self, delay: Box<dyn DelayModel>) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Hardware-clock drift behaviour.
    pub fn drift(mut self, drift: DriftSpec) -> Self {
        self.drift = drift;
        self
    }

    /// Convergence function every node runs (default: the paper's).
    pub fn convergence(mut self, convergence: Box<dyn ConvergenceFn>) -> Self {
        self.convergence = convergence;
        self
    }

    /// Initial clock dispersion.
    pub fn initial_bias(mut self, initial: InitialBias) -> Self {
        self.initial_bias = initial;
        self
    }

    /// Shorthand for [`InitialBias::UniformSpread`].
    pub fn initial_bias_spread(mut self, spread: f64) -> Self {
        self.initial_bias = InitialBias::UniformSpread(spread);
        self
    }

    /// The mobile adversary (default: none).
    pub fn adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Metrics sampling interval (default: `T/4`).
    ///
    /// # Panics
    ///
    /// `build` panics if `interval` is not positive and finite (a zero
    /// interval would re-arm the sample event at the same instant forever).
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        self.sample_interval = Some(interval);
        self
    }

    /// Sends `k` pings per peer per sync round and keeps the
    /// min-round-trip sample (the Section 3.1 / NTP refinement).
    pub fn pings_per_peer(mut self, k: usize) -> Self {
        self.pings_per_peer = k;
        self
    }

    /// Adds transient link outages (the paper's Section 1.2 remark about
    /// tolerating link faults too): affected sends are dropped, which the
    /// protocol sees as estimation timeouts.
    pub fn link_outages(mut self, outages: Vec<LinkOutage>) -> Self {
        self.link_outages = outages;
        self
    }

    /// Independent random message loss with probability `p` — deliberately
    /// outside the paper's reliable-link model (robustness experiment E17).
    pub fn message_loss(mut self, p: f64) -> Self {
        self.message_loss = p;
        self
    }

    /// Probabilistic message duplication/reordering faults — outside the
    /// paper's exactly-once link axiom on purpose (chaos campaigns, E21).
    pub fn net_faults(mut self, profile: FaultProfile) -> Self {
        self.net_faults = profile;
        self
    }

    /// Transient delay spikes that deliberately violate the δ bound
    /// (chaos campaigns, E21). See [`DelaySpike`].
    pub fn delay_spikes(mut self, spikes: Vec<DelaySpike>) -> Self {
        self.delay_spikes = spikes;
        self
    }

    /// Schedules benign crash+reboot events: at each `(at, node)` the node
    /// loses volatile protocol state (active round, alarms) and restarts
    /// from its persistent clock. A restart is a no-op if the node is then
    /// under adversary control: the corruption already wiped more, and its
    /// release restarts the node.
    pub fn restarts(mut self, restarts: Vec<(RealTime, ProcId)>) -> Self {
        self.restarts = restarts;
        self
    }

    /// Replaces fresh per-round estimation (the analyzed protocol) with the
    /// cached variant the paper's Section 3.1 warns about, refreshed every
    /// `refresh` local-time units (experiment E19; see [`CachedSync`]).
    ///
    /// # Panics
    ///
    /// `build` panics if `refresh` is not positive.
    pub fn cached_estimation(mut self, refresh: SimDuration) -> Self {
        self.cached_estimation = Some(refresh);
        self
    }

    /// Correction discipline: instant steps (the paper) or NTP-style slew.
    ///
    /// # Panics
    ///
    /// `build` panics if a slew rate is not positive or not strictly below
    /// the minimum hardware rate `1/(1+ρ)` (a faster backward slew could
    /// make logical clocks non-monotone and alarms unreachable).
    pub fn discipline(mut self, discipline: Discipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Builds the world.
    ///
    /// # Errors
    ///
    /// See [`BuildError`].
    pub fn build(self) -> Result<World, BuildError> {
        let model = NetworkModel {
            delta: self.delta,
            rho: self.rho,
            lambda: NetworkModel::natural_lambda(self.delta, self.rho),
            big_delta: self.big_delta,
        };

        type DeriveFn = fn(&NetworkModel, usize, usize, u32) -> Result<Derived, CoreBoundsError>;
        type BuildFn = fn(ProtocolParamsBuilder) -> Result<ProtocolParams, ParamError>;
        let (derive, build): (DeriveFn, BuildFn) = if self.allow_sub_resilience {
            (
                NetworkModel::derive_unchecked_resilience,
                ProtocolParamsBuilder::build_unchecked_resilience,
            )
        } else {
            (NetworkModel::derive, ProtocolParamsBuilder::build)
        };

        let (mut params, bounds): (ProtocolParams, Option<TheoremBounds>) =
            if let Some(p) = self.params_override {
                (p, model.bounds_for_t(derived_t(&p, self.rho)).ok())
            } else {
                let derived = derive(&model, self.n, self.f, self.k)?;
                (derived.params, Some(derived.bounds))
            };

        if self.way_off_override.is_some() || self.pings_per_peer != 1 {
            let builder = ProtocolParams::builder(params.n(), params.f())
                .sync_int(params.sync_int())
                .max_wait(params.max_wait())
                .way_off(self.way_off_override.unwrap_or(params.way_off()))
                .pings_per_peer(self.pings_per_peer.max(params.pings_per_peer()));
            params = build(builder).map_err(CoreBoundsError::Param)?;
        }

        let topology = match self.topology {
            Some(t) => {
                if t.len() != self.n {
                    return Err(BuildError::TopologySize {
                        expected: self.n,
                        got: t.len(),
                    });
                }
                t
            }
            None => Topology::full_mesh(self.n),
        };
        let delay: Box<dyn DelayModel> = self
            .delay
            .unwrap_or_else(|| Box::new(UniformDelay::new(self.delta * 0.1, self.delta)));
        let mut network = Network::new(topology, delay, self.delta);
        if self.message_loss > 0.0 {
            network.set_loss_probability(self.message_loss);
        }
        if !self.net_faults.is_quiet() {
            network.set_fault_profile(self.net_faults);
        }
        for spike in &self.delay_spikes {
            network.add_delay_spike(*spike);
        }

        let initial_biases: Vec<f64> = match &self.initial_bias {
            InitialBias::Zero => vec![0.0; self.n],
            InitialBias::UniformSpread(s) => {
                let hub = RngHub::new(self.seed);
                let mut rng = hub.stream("init-bias", 0);
                (0..self.n).map(|_| rng.uniform(-*s, *s)).collect()
            }
            InitialBias::Explicit(v) => {
                if v.len() != self.n {
                    return Err(BuildError::LengthMismatch {
                        what: "initial bias",
                        expected: self.n,
                        got: v.len(),
                    });
                }
                v.clone()
            }
        };

        let hub = RngHub::new(self.seed);
        let mut engine: Engine<SimEvent> = Engine::new();
        let mut nodes = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let id = ProcId(i as u32);
            let mut drift_rng = hub.stream("drift", i as u64);
            let mut drift: Box<dyn DriftModel> = match &self.drift {
                DriftSpec::ConstantRandomRate => {
                    Box::new(ConstantDrift::random_within(self.rho, &mut drift_rng))
                }
                DriftSpec::RandomWalk { step_std, interval } => {
                    Box::new(RandomWalkDrift::new(self.rho, *step_std, *interval))
                }
                DriftSpec::ExplicitRates(rates) => {
                    if rates.len() != self.n {
                        return Err(BuildError::LengthMismatch {
                            what: "drift rates",
                            expected: self.n,
                            got: rates.len(),
                        });
                    }
                    Box::new(ConstantDrift::new(self.rho, rates[i]))
                }
            };
            let rate = drift.initial_rate(&mut drift_rng);
            let hardware = HardwareClock::new(rate);
            let clock =
                LogicalClock::with_adjustment(hardware, SimDuration::from_secs(initial_biases[i]));
            if let Some((when, new_rate)) = drift.next_change(RealTime::ZERO, &mut drift_rng) {
                engine.schedule_at(when, SimEvent::DriftChange { node: id, new_rate });
            }
            // Each node's anti-replay nonces come from a private fork of the
            // root seed: unpredictable to peers, reproducible from `seed`.
            let nonce_seed = hub.stream("nonce", i as u64).bits64();
            let node = SyncNode::with_convergence(id, params, self.convergence.box_clone())
                .with_nonce_seed(nonce_seed);
            let protocol = match self.cached_estimation {
                None => Protocol::PerRound(node),
                Some(refresh) => Protocol::Cached(CachedSync::new(node, refresh)),
            };
            nodes.push(NodeSlot::new(clock, protocol, drift, drift_rng));
        }

        // Deterministic start jitter over one sync interval.
        let mut jitter_rng = hub.stream("start-jitter", 0);
        for i in 0..self.n {
            let at = RealTime::from_secs(jitter_rng.uniform(0.0, params.sync_int().as_secs()));
            engine.schedule_at(
                at,
                SimEvent::StartNode {
                    node: ProcId(i as u32),
                },
            );
        }

        for outage in &self.link_outages {
            engine.schedule_at(
                outage.from,
                SimEvent::LinkCut {
                    a: outage.a,
                    b: outage.b,
                },
            );
            engine.schedule_at(
                outage.until,
                SimEvent::LinkRestore {
                    a: outage.a,
                    b: outage.b,
                },
            );
        }

        for &(at, node) in &self.restarts {
            engine.schedule_at(at, SimEvent::Restart { node });
        }

        let adversary = self.adversary.unwrap_or_default();
        for (at, action) in adversary.timeline() {
            let ev = match action {
                AdversaryAction::Corrupt(p) => SimEvent::Corrupt { node: p },
                AdversaryAction::Release(p) => SimEvent::Release { node: p },
            };
            engine.schedule_at(at, ev);
        }

        let t = bounds
            .map(|b| b.t)
            .unwrap_or_else(|| derived_t(&params, self.rho));
        let sample_interval = self.sample_interval.unwrap_or(t / 4.0);
        assert!(
            sample_interval.as_secs() > 0.0 && sample_interval.as_secs().is_finite(),
            "sample interval {sample_interval} must be positive and finite"
        );
        engine.schedule_at(RealTime::ZERO + sample_interval, SimEvent::Sample);

        if let Discipline::Slew { max_rate } = self.discipline {
            assert!(
                max_rate > 0.0 && max_rate < 1.0 / (1.0 + self.rho),
                "slew rate {max_rate} must be in (0, 1/(1+rho))"
            );
        }

        Ok(World {
            discipline: self.discipline,
            engine,
            events: 0,
            nodes,
            network,
            adversary,
            big_delta: self.big_delta,
            sample_interval,
            net_rng: hub.stream("net", 0),
            adv_rng: hub.stream("adv", 0),
            observers: Vec::new(),
            params,
            bounds,
            scratch: Vec::new(),
        })
    }
}

/// `T = (1+ρ)·SyncInt + 2·MaxWait` for explicit parameters.
fn derived_t(params: &ProtocolParams, rho: f64) -> SimDuration {
    SimDuration::from_secs(
        (1.0 + rho) * params.sync_int().as_secs() + 2.0 * params.max_wait().as_secs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_succeeds() {
        let w = WorldBuilder::new(4, 1).build().unwrap();
        assert_eq!(w.n(), 4);
        assert!(w.bounds().is_some());
        assert_eq!(w.params().n(), 4);
    }

    #[test]
    fn sub_resilience_requires_opt_in() {
        assert!(WorldBuilder::new(6, 2).build().is_err());
        assert!(WorldBuilder::new(6, 2)
            .allow_sub_resilience()
            .build()
            .is_ok());
    }

    #[test]
    fn explicit_bias_length_checked() {
        let err = WorldBuilder::new(4, 1)
            .initial_bias(InitialBias::Explicit(vec![0.0; 3]))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::LengthMismatch { .. }));
        assert_eq!(
            err.to_string(),
            "initial bias vector has length 3, expected 4"
        );
    }

    #[test]
    fn explicit_rates_length_checked() {
        let err = WorldBuilder::new(4, 1)
            .drift(DriftSpec::ExplicitRates(vec![1.0; 3]))
            .build()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "drift rates vector has length 3, expected 4"
        );
    }

    #[test]
    fn topology_size_checked() {
        let err = WorldBuilder::new(4, 1)
            .topology(Topology::full_mesh(5))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::TopologySize { .. }));
    }

    #[test]
    fn way_off_override_applies() {
        let w = WorldBuilder::new(4, 1)
            .way_off_override(42.0)
            .build()
            .unwrap();
        assert_eq!(w.params().way_off(), 42.0);
    }

    #[test]
    fn k_below_5_rejected() {
        let err = WorldBuilder::new(4, 1).k(4).build().unwrap_err();
        assert!(matches!(
            err,
            BuildError::Bounds(CoreBoundsError::KTooSmall(4))
        ));
    }

    #[test]
    fn params_override_skips_derivation() {
        let p = ProtocolParams::builder(4, 1)
            .sync_int(SimDuration::from_secs(5.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(9.0)
            .build()
            .unwrap();
        let w = WorldBuilder::new(4, 1).params(p).build().unwrap();
        assert_eq!(w.params().way_off(), 9.0);
        assert_eq!(w.params().sync_int(), SimDuration::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "slew rate")]
    fn slew_rate_above_hardware_rate_panics() {
        let _ = WorldBuilder::new(4, 1)
            .discipline(Discipline::Slew { max_rate: 1.5 })
            .build();
    }

    #[test]
    #[should_panic(expected = "sample interval")]
    fn zero_sample_interval_panics() {
        let _ = WorldBuilder::new(4, 1)
            .sample_interval(SimDuration::ZERO)
            .build();
    }

    #[test]
    fn message_loss_is_applied() {
        let mut w = WorldBuilder::new(4, 1)
            .big_delta(SimDuration::from_secs(40.0))
            .message_loss(0.9)
            .build()
            .unwrap();
        w.run_until(RealTime::from_secs(60.0));
        let stats = w.network_stats();
        assert!(
            stats.dropped > stats.delivered,
            "90% loss should drop most traffic: {stats:?}"
        );
    }

    #[test]
    fn drift_specs_all_build() {
        for spec in [
            DriftSpec::ConstantRandomRate,
            DriftSpec::RandomWalk {
                step_std: 1e-6,
                interval: SimDuration::from_secs(10.0),
            },
            DriftSpec::ExplicitRates(vec![1.0 - 5e-6, 1.0, 1.0, 1.0 + 5e-6]),
        ] {
            let mut w = WorldBuilder::new(4, 1).drift(spec).build().unwrap();
            w.run_until(RealTime::from_secs(30.0));
            assert!(w.sample_now().good_deviation().unwrap() < 1.0);
        }
    }
}
