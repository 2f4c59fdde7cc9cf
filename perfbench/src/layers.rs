//! Timing decorators for the program's public extension seams.
//!
//! Each decorator wraps one trait object the world calls into — the
//! convergence function, the Byzantine strategy, the delay model and the
//! observer — forwards every call unchanged, and charges the call's wall
//! time to a shared [`Probe`]. Forwarding is exact (same arguments, same
//! RNG draws, same return value), so a decorated world reproduces the
//! undecorated one bit for bit; the transparency tests pin that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use byzclock_adversary::{AttackContext, AttackReply, ByzantineStrategy, ClockSabotage};
use byzclock_core::{ConvergenceFn, ConvergenceScratch, PeerEstimate, RoundSummary};
use byzclock_net::DelayModel;
use byzclock_runtime::{Observer, WorldSample};
use byzclock_sim::{DetRng, ProcId, RealTime, SimDuration};

/// Call count and busy time of one layer.
///
/// The counters are plain statistics that publish no other data, so
/// `Relaxed` ordering suffices; atomics are used only because the wrapped
/// traits require `Send`.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Probe {
    fn record(&self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy nanoseconds recorded so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            c => self.nanos() as f64 / c as f64,
        }
    }
}

/// The probes of every decorated layer of one traced workload.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    /// `ConvergenceFn::adjustment_scratch`.
    pub convergence: Arc<Probe>,
    /// `ByzantineStrategy::reply`.
    pub reply: Arc<Probe>,
    /// `DelayModel::sample`.
    pub delay: Arc<Probe>,
    /// Every `Observer` callback.
    pub observer: Arc<Probe>,
}

impl Probes {
    /// Busy nanoseconds of all decorated layers together, less the clock
    /// reads each recorded span includes (`floor_ns` per call, see
    /// [`span_floor_ns`]).
    pub fn net_nanos(&self, floor_ns: f64) -> f64 {
        [&self.convergence, &self.reply, &self.delay, &self.observer]
            .iter()
            .map(|p| (p.nanos() as f64 - p.calls() as f64 * floor_ns).max(0.0))
            .sum()
    }
}

/// Mean nanoseconds a probe records for an empty span: the clock-read
/// cost that every recorded call carries on top of the layer's own work.
pub fn span_floor_ns() -> f64 {
    let probe = Probe::default();
    for _ in 0..100_000 {
        probe.record(Instant::now());
    }
    probe.ns_per_call()
}

/// Times [`ConvergenceFn::adjustment_scratch`].
#[derive(Debug)]
pub struct TimedConvergence {
    inner: Box<dyn ConvergenceFn>,
    probe: Arc<Probe>,
}

impl TimedConvergence {
    /// Wraps `inner`, charging its calls to `probe`.
    pub fn new(inner: Box<dyn ConvergenceFn>, probe: Arc<Probe>) -> Self {
        TimedConvergence { inner, probe }
    }
}

impl ConvergenceFn for TimedConvergence {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn adjustment_scratch(
        &self,
        f: usize,
        way_off: f64,
        estimates: &[PeerEstimate],
        scratch: &mut ConvergenceScratch,
    ) -> f64 {
        let start = Instant::now();
        let adj = self
            .inner
            .adjustment_scratch(f, way_off, estimates, scratch);
        self.probe.record(start);
        adj
    }

    fn box_clone(&self) -> Box<dyn ConvergenceFn> {
        Box::new(TimedConvergence {
            inner: self.inner.box_clone(),
            probe: Arc::clone(&self.probe),
        })
    }
}

/// Times [`ByzantineStrategy::reply`].
#[derive(Debug)]
pub struct TimedStrategy {
    inner: Box<dyn ByzantineStrategy>,
    probe: Arc<Probe>,
}

impl TimedStrategy {
    /// Wraps `inner`, charging its replies to `probe`.
    pub fn new(inner: Box<dyn ByzantineStrategy>, probe: Arc<Probe>) -> Self {
        TimedStrategy { inner, probe }
    }
}

impl ByzantineStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sabotage(&mut self, victim: ProcId, rng: &mut DetRng) -> ClockSabotage {
        self.inner.sabotage(victim, rng)
    }

    fn reply(&mut self, ctx: &AttackContext, rng: &mut DetRng) -> AttackReply {
        let start = Instant::now();
        let reply = self.inner.reply(ctx, rng);
        self.probe.record(start);
        reply
    }
}

/// Times [`DelayModel::sample`].
#[derive(Debug)]
pub struct TimedDelay {
    inner: Box<dyn DelayModel>,
    probe: Arc<Probe>,
}

impl TimedDelay {
    /// Wraps `inner`, charging its samples to `probe`.
    pub fn new(inner: Box<dyn DelayModel>, probe: Arc<Probe>) -> Self {
        TimedDelay { inner, probe }
    }
}

impl DelayModel for TimedDelay {
    fn sample(&mut self, from: ProcId, to: ProcId, rng: &mut DetRng) -> SimDuration {
        let start = Instant::now();
        let d = self.inner.sample(from, to, rng);
        self.probe.record(start);
        d
    }

    fn max_delay(&self) -> SimDuration {
        self.inner.max_delay()
    }

    fn min_delay(&self) -> SimDuration {
        self.inner.min_delay()
    }
}

/// Times every [`Observer`] callback.
pub struct TimedObserver {
    inner: Box<dyn Observer>,
    probe: Arc<Probe>,
}

impl TimedObserver {
    /// Wraps `inner`, charging its callbacks to `probe`.
    pub fn new(inner: Box<dyn Observer>, probe: Arc<Probe>) -> Self {
        TimedObserver { inner, probe }
    }

    fn timed(&mut self, f: impl FnOnce(&mut dyn Observer)) {
        let start = Instant::now();
        f(self.inner.as_mut());
        self.probe.record(start);
    }
}

impl Observer for TimedObserver {
    fn on_sample(&mut self, sample: &WorldSample) {
        self.timed(|o| o.on_sample(sample));
    }

    fn on_adjustment(&mut self, node: ProcId, delta: f64, tau: RealTime, good: bool) {
        self.timed(|o| o.on_adjustment(node, delta, tau, good));
    }

    fn on_corrupt(&mut self, node: ProcId, tau: RealTime) {
        self.timed(|o| o.on_corrupt(node, tau));
    }

    fn on_release(&mut self, node: ProcId, tau: RealTime) {
        self.timed(|o| o.on_release(node, tau));
    }

    fn on_restart(&mut self, node: ProcId, tau: RealTime) {
        self.timed(|o| o.on_restart(node, tau));
    }

    fn on_round(&mut self, node: ProcId, summary: &RoundSummary, tau: RealTime) {
        self.timed(|o| o.on_round(node, summary, tau));
    }
}
