//! The simulation world: event-loop orchestrator over the sim driver.
//!
//! The world owns one [`SyncNode`] per processor (wrapped in a
//! [`CachedSync`] under cached estimation) and, beside them, one
//! `SimHost`: the engine, the network, the [`Adversary`], the drift walk,
//! the [`Observer`]s and, per processor, a [`LogicalClock`], its drift
//! stream and the pending alarms. The host is the nodes'
//! [`Driver`](byzclock_core::Driver) ([`crate::sim_driver`]), and being a
//! separate field it can be lent to a
//! node while the node handles an input. This module pops events, applies
//! corruption/release/restart/drift transitions, routes traffic addressed
//! to corrupted processors through the adversary, and feeds each input to
//! its node.
//!
//! See `crate::sim_driver` for how local-time alarms are converted exactly
//! to real-time events under drift and slew.

use byzclock_adversary::{Adversary, AttackReply, ClockSabotage};
use byzclock_clock::{LocalTime, LogicalClock};
use byzclock_core::{CachedSync, Input, RoundScratch, SyncNode, TimerKind, WireMessage};
use byzclock_sim::queue::EventId;
use byzclock_sim::{DetRng, ProcId, RealTime, SimDuration};

use crate::events::SimEvent;
use crate::observer::{Observer, WorldSample};
use crate::sim_driver::SimHost;

/// A pending local-time alarm as tracked by the sim driver's index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingTimer {
    pub(crate) kind: TimerKind,
    pub(crate) target_local: LocalTime,
}

/// The protocol instance a slot runs: Figure 1 itself, or Figure 1 wrapped
/// in the cached estimation of experiment E19.
pub(crate) enum Protocol {
    PerRound(SyncNode),
    Cached(CachedSync),
}

impl Protocol {
    fn handle_into(&mut self, input: Input, scratch: &mut RoundScratch, host: &mut SimHost) {
        match self {
            Protocol::PerRound(node) => node.handle_into(input, scratch, host),
            Protocol::Cached(cached) => cached.handle_into(input, scratch, host),
        }
    }

    pub(crate) fn node(&self) -> &SyncNode {
        match self {
            Protocol::PerRound(node) => node,
            Protocol::Cached(cached) => cached.node(),
        }
    }
}

/// The host's state for one processor: everything but its protocol.
pub(crate) struct NodeSlot {
    pub(crate) clock: LogicalClock,
    /// The stream the drift walk steps this clock's rate with.
    pub(crate) drift_rng: DetRng,
    pub(crate) corruption_depth: u32,
    /// Pending alarms keyed by their engine [`EventId`]: the only record of
    /// which alarms are live. Replacing or dropping an alarm removes its
    /// entry here and nothing else, so its engine event still pops and
    /// [`World`] drops it. Matching by id is exact — unlike a `(kind,
    /// target)` match — even when two alarms coincide.
    /// Kept in ascending id order: engine ids only grow, so arming pushes
    /// at the end, and rescheduling rewrites the ids in place, in order.
    /// Iteration is therefore id-ordered, as replay determinism needs. A
    /// node holds at most a few alarms, so a linear search finds one.
    pub(crate) pending: Vec<(EventId, PendingTimer)>,
}

impl NodeSlot {
    fn corrupted(&self) -> bool {
        self.corruption_depth > 0
    }
}

/// The running simulation.
///
/// Construct via [`WorldBuilder`](crate::builder::WorldBuilder).
pub struct World {
    /// Everything the nodes' effects touch.
    pub(crate) host: SimHost,
    /// One protocol instance per processor, indexed by [`ProcId`].
    pub(crate) protocols: Vec<Protocol>,
    /// The round-completion scratch every node borrows in turn: the world
    /// dispatches one node at a time, and the buffers carry nothing
    /// between calls, so one value serves all `n` nodes.
    pub(crate) round_scratch: RoundScratch,
    /// Events dispatched so far, superseded alarms excluded.
    pub(crate) events: u64,
    pub(crate) params: byzclock_core::ProtocolParams,
    pub(crate) bounds: byzclock_core::TheoremBounds,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.host.engine.now())
            .field("n", &self.protocols.len())
            .field("queued_events", &self.host.engine.queued())
            .finish()
    }
}

impl World {
    /// Current simulated real time.
    pub fn now(&self) -> RealTime {
        self.host.engine.now()
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.protocols.len()
    }

    /// The protocol parameters every node runs with.
    pub fn params(&self) -> &byzclock_core::ProtocolParams {
        &self.params
    }

    /// The Theorem 5 bounds for this configuration. Every world derives
    /// its parameters from a [`NetworkModel`](byzclock_core::NetworkModel),
    /// so this is always `Some`.
    pub fn bounds(&self) -> Option<&byzclock_core::TheoremBounds> {
        Some(&self.bounds)
    }

    /// The adversary's time period Δ this world measures goodness against.
    pub fn big_delta(&self) -> SimDuration {
        self.host.big_delta
    }

    /// Registers an observer (before or between runs).
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.host.observers.push(observer);
    }

    /// The network traffic statistics.
    pub fn network_stats(&self) -> &byzclock_net::NetworkStats {
        self.host.network.stats()
    }

    /// Events processed so far. A superseded alarm still pops from the
    /// engine, but the world drops it uncounted, so this counts only the
    /// events that took effect.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Total corruption episodes in the adversary's schedule (the mobile
    /// adversary's cumulative fault count, typically ≫ n).
    pub fn corruption_episodes(&self) -> usize {
        self.host.adversary.schedule().episode_count()
    }

    /// Sync rounds completed by `p`.
    pub fn rounds_completed(&self, p: ProcId) -> u64 {
        self.protocols[p.index()].node().rounds_completed()
    }

    /// Bias of `p`'s clock right now.
    pub fn bias_of(&self, p: ProcId) -> byzclock_clock::Bias {
        self.host.nodes[p.index()].clock.bias(self.now())
    }

    /// Snapshot of all biases, corruption and goodness flags.
    pub fn sample_now(&self) -> WorldSample {
        let host = &self.host;
        let mut sample = WorldSample::empty();
        sample.fill(self.now(), &host.nodes, &host.adversary, host.big_delta);
        sample
    }

    /// Runs the event loop until simulated time `deadline`.
    pub fn run_until(&mut self, deadline: RealTime) {
        while let Some((tau, event)) = self.host.engine.pop_until(deadline) {
            if self.dispatch(tau, event) {
                self.events += 1;
            }
        }
    }

    /// Handles one popped event: the host applies it, and if it is an input
    /// to a node, the node handles it with the host as its driver. False if
    /// the event was a superseded alarm, which is dropped.
    ///
    /// Each arm feeds its node itself: returning an `Option<(ProcId,
    /// Input)>` from the match instead cost ~10 % per event (store-forwarding
    /// stalls on the moved tuple).
    fn dispatch(&mut self, tau: RealTime, event: SimEvent) -> bool {
        match event {
            SimEvent::NodeTimer { node, id } => {
                let Some(timer) = self.host.fire_alarm(node, id) else {
                    return false;
                };
                let local_now = self.host.local_now(node);
                self.feed(node, Input::TimerFired { timer, local_now });
            }
            SimEvent::StartNode { node } => {
                if let Some(input) = self.host.start(node) {
                    self.feed(node, input);
                }
            }
            SimEvent::Deliver { to, from, msg } => {
                if self.host.nodes[to.index()].corrupted() {
                    let way_off = self.params.way_off();
                    self.host.adversary_receives(tau, to, from, msg, way_off);
                } else {
                    let local_now = self.host.local_now(to);
                    self.feed(
                        to,
                        Input::Message {
                            from,
                            msg,
                            local_now,
                        },
                    );
                }
            }
            SimEvent::DriftChange { node, new_rate } => {
                self.host.drift_change(tau, node, new_rate);
            }
            SimEvent::Corrupt { node } => self.host.corrupt(tau, node),
            SimEvent::Release { node } => {
                if let Some(input) = self.host.release(tau, node) {
                    self.feed(node, input);
                }
            }
            SimEvent::LinkCut { a, b } => self.host.network.links_mut().cut(a, b),
            SimEvent::LinkRestore { a, b } => self.host.network.links_mut().restore(a, b),
            SimEvent::Restart { node } => {
                if let Some(input) = self.host.restart(tau, node) {
                    self.feed(node, input);
                }
            }
            SimEvent::Sample => self.host.sample_tick(),
        }
        true
    }

    /// Hands `input` to `node`'s protocol, with the host as its driver.
    fn feed(&mut self, node: ProcId, input: Input) {
        self.protocols[node.index()].handle_into(input, &mut self.round_scratch, &mut self.host);
    }
}

/// The host's side of each event: world transitions, and the input (if
/// any) the event hands to its node.
impl SimHost {
    fn local_now(&self, node: ProcId) -> LocalTime {
        self.nodes[node.index()].clock.read(self.engine.now())
    }

    /// The input that starts `node` from its current clock, unless it is
    /// corrupted (its `Release` restarts it then).
    fn start(&self, node: ProcId) -> Option<Input> {
        if self.nodes[node.index()].corrupted() {
            return None;
        }
        let local_now = self.local_now(node);
        Some(Input::Start { local_now })
    }

    fn restart(&mut self, tau: RealTime, node: ProcId) -> Option<Input> {
        if self.nodes[node.index()].corrupted() {
            return None;
        }
        // Crash: all pending alarms die with the process.
        self.cancel_all(node);
        self.notify(|o| o.on_restart(node, tau));
        // Reboot: re-enter the protocol from the persistent clock alone —
        // the paper's tiny-recovery-state property makes this identical to
        // a cold start.
        self.start(node)
    }

    /// A corrupted node received a message: the adversary decides.
    fn adversary_receives(
        &mut self,
        tau: RealTime,
        victim: ProcId,
        from: ProcId,
        msg: WireMessage,
        way_off: f64,
    ) {
        let WireMessage::Ping { round, nonce } = msg else {
            return; // the adversary has no use for pongs to its victims
        };
        // Omniscient context: good-bias range over currently honest nodes,
        // scanned only if the strategy reads it.
        let nodes = &self.nodes;
        let good_bias_range = || {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut any = false;
            for slot in nodes {
                if !slot.corrupted() {
                    let b = slot.clock.bias(tau).as_secs();
                    lo = lo.min(b);
                    hi = hi.max(b);
                    any = true;
                }
            }
            any.then_some((lo, hi))
        };
        let ctx = Adversary::context(
            victim,
            from,
            tau,
            nodes[victim.index()].clock.read(tau),
            Some(nodes[from.index()].clock.bias(tau)),
            &good_bias_range,
            way_off,
        );
        match self.adversary.reply_to_ping(&ctx, &mut self.adv_rng) {
            AttackReply::Silent => {}
            AttackReply::Clock(clock) => {
                let pong = WireMessage::Pong {
                    round,
                    nonce,
                    clock,
                };
                // Forged replies cross the same faulty network as honest
                // traffic: duplication, reordering, loss and delay spikes
                // all apply (they used to bypass fault injection entirely).
                for at in self
                    .network
                    .send_forged_times(victim, from, tau, &mut self.net_rng)
                {
                    self.engine.schedule_at(
                        at,
                        SimEvent::Deliver {
                            to: from,
                            from: victim,
                            msg: pong,
                        },
                    );
                }
            }
        }
    }

    /// Takes the alarm `id` of `node` out of the pending index and returns
    /// its kind; `None` if the alarm was superseded.
    fn fire_alarm(&mut self, node: ProcId, id: EventId) -> Option<TimerKind> {
        // Match the fired event against the pending index by its own engine
        // id: exact and unambiguous even when another alarm shares
        // `(kind, target_local)` — a positional match could clear the
        // twin's bookkeeping instead. An absent id means the alarm was
        // superseded (re-armed, or dropped by a restart or corruption) and
        // must not fire. A corrupted node's index is empty, so none of its
        // alarms fires.
        let slot = &mut self.nodes[node.index()];
        let at = slot
            .pending
            .iter()
            .position(|(pending, _)| *pending == id)?;
        let (_, PendingTimer { kind, .. }) = slot.pending.remove(at);
        debug_assert!(!slot.corrupted(), "a corrupted node holds an alarm");
        Some(kind)
    }

    fn drift_change(&mut self, tau: RealTime, node: ProcId, new_rate: f64) {
        let slot = &mut self.nodes[node.index()];
        debug_assert!(
            new_rate > 0.0,
            "drift walk produced non-positive rate {new_rate}"
        );
        slot.clock.hardware_mut().set_rate(tau, new_rate);
        // Only the walk schedules rate changes, so `new_rate` is where it
        // stands: the next step starts from there.
        if let Some(walk) = self.walk {
            let (when, next_rate) = walk.next_change(tau, new_rate, &mut slot.drift_rng);
            self.engine.schedule_at(
                when,
                SimEvent::DriftChange {
                    node,
                    new_rate: next_rate,
                },
            );
        }
        self.reschedule_pending_timers(tau, node);
    }

    fn corrupt(&mut self, tau: RealTime, node: ProcId) {
        let idx = node.index();
        self.nodes[idx].corruption_depth += 1;
        if self.nodes[idx].corruption_depth > 1 {
            return; // overlapping episodes: already under control
        }
        // Drop all pending alarms: the adversary wipes protocol state.
        self.cancel_all(node);
        if let ClockSabotage::SetBias(b) = self.adversary.on_corrupt(node, &mut self.adv_rng) {
            let target = LocalTime::from_secs(tau.as_secs() + b);
            self.nodes[idx].clock.sabotage_to(tau, target);
        }
        self.notify(|o| o.on_corrupt(node, tau));
    }

    fn release(&mut self, tau: RealTime, node: ProcId) -> Option<Input> {
        let idx = node.index();
        debug_assert!(
            self.nodes[idx].corruption_depth > 0,
            "release without matching corrupt"
        );
        self.nodes[idx].corruption_depth -= 1;
        if self.nodes[idx].corruption_depth > 0 {
            return None;
        }
        self.notify(|o| o.on_release(node, tau));
        // Recovery: the processor reboots its protocol with whatever clock
        // the adversary left behind.
        self.start(node)
    }

    fn sample_tick(&mut self) {
        // The sample is for observers only; the tick still pops and counts.
        if !self.observers.is_empty() {
            let tau = self.engine.now();
            self.sample
                .fill(tau, &self.nodes, &self.adversary, self.big_delta);
            for o in &mut self.observers {
                o.on_sample(&self.sample);
            }
        }
        self.engine
            .schedule_after(self.sample_interval, SimEvent::Sample);
    }

    pub(crate) fn notify(&mut self, f: impl FnMut(&mut Box<dyn Observer>)) {
        self.observers.iter_mut().for_each(f);
    }
}

impl WorldSample {
    /// A sample with no processors, for [`WorldSample::fill`] to fill.
    pub(crate) fn empty() -> Self {
        WorldSample {
            tau: RealTime::ZERO,
            biases: Vec::new(),
            corrupt: Vec::new(),
            good: Vec::new(),
        }
    }

    /// Overwrites the sample with the state of `nodes` at `tau`, reusing
    /// its buffers.
    fn fill(
        &mut self,
        tau: RealTime,
        nodes: &[NodeSlot],
        adversary: &Adversary,
        big_delta: SimDuration,
    ) {
        self.tau = tau;
        self.biases.clear();
        self.biases.extend(nodes.iter().map(|s| s.clock.bias(tau)));
        self.corrupt.clear();
        self.corrupt.extend(nodes.iter().map(NodeSlot::corrupted));
        self.good.clear();
        self.good
            .extend((0..nodes.len()).map(|i| adversary.good_at(ProcId(i as u32), tau, big_delta)));
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{DriftSpec, InitialBias, WorldBuilder};
    use crate::events::SimEvent;
    use crate::World;
    use byzclock_adversary::{Adversary, ConstantOffsetStrategy, CorruptionSchedule};
    use byzclock_sim::{ProcId, RealTime, SimDuration};

    impl World {
        /// Schedules a benign crash+reboot of `node` at `at`, as
        /// [`WorldBuilder::restarts`] does at build time.
        fn schedule_restart(&mut self, at: RealTime, node: ProcId) {
            self.host.engine.schedule_at(at, SimEvent::Restart { node });
        }
    }

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn quiet_world(seed: u64) -> crate::World {
        WorldBuilder::new(4, 1)
            .seed(seed)
            .delta(SimDuration::from_millis(10.0))
            .big_delta(d(40.0)) // T = 5 s: fast cadence for short tests
            .initial_bias_spread(0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn quiet_world_converges() {
        let mut w = quiet_world(1);
        let before = w.sample_now().good_deviation().unwrap();
        w.run_until(t(120.0));
        let after = w.sample_now().good_deviation().unwrap();
        assert!(before > 0.1, "initial spread should be large: {before}");
        assert!(
            after < 0.05,
            "deviation should shrink dramatically: {before} -> {after}"
        );
        // everyone ran rounds
        for p in 0..4 {
            assert!(w.rounds_completed(ProcId(p)) > 3);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed: u64| {
            let mut w = quiet_world(seed);
            w.run_until(t(60.0));
            (
                w.sample_now().biases,
                w.events_processed(),
                w.network_stats().delivered,
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn corrupted_node_recovers() {
        // p3's clock is reset 50 s off; after release it must rejoin.
        let schedule = CorruptionSchedule::single(ProcId(3), t(30.0), d(5.0));
        let adversary = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(50.0)));
        let mut w = WorldBuilder::new(4, 1)
            .seed(3)
            .delta(SimDuration::from_millis(10.0))
            .adversary(adversary)
            .big_delta(d(120.0))
            .build()
            .unwrap();
        w.run_until(t(34.0));
        // while corrupted, the sabotaged clock is way off
        assert!(w.bias_of(ProcId(3)).as_secs().abs() > 1.0);
        w.run_until(t(120.0));
        let sample = w.sample_now();
        assert!(
            sample.bias_of(ProcId(3)).as_secs().abs() < 0.05,
            "recovered bias too large: {}",
            sample.bias_of(ProcId(3))
        );
    }

    #[test]
    fn good_flag_clears_after_big_delta() {
        let schedule = CorruptionSchedule::single(ProcId(2), t(10.0), d(5.0));
        let adversary = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(1.0)));
        let mut w = WorldBuilder::new(4, 1)
            .seed(9)
            .delta(SimDuration::from_millis(10.0))
            .adversary(adversary)
            .big_delta(d(30.0))
            .build()
            .unwrap();
        w.run_until(t(20.0));
        let s = w.sample_now();
        assert!(!s.good[2], "recently corrupted node is not good");
        assert!(!s.corrupt[2], "but it is no longer controlled");
        w.run_until(t(50.0));
        assert!(w.sample_now().good[2], "good again after the window passes");
    }

    #[test]
    fn drifting_clocks_stay_bounded_without_faults() {
        let mut w = WorldBuilder::new(5, 1)
            .seed(11)
            .delta(SimDuration::from_millis(10.0))
            .rho(1e-4)
            .big_delta(d(160.0))
            .drift(DriftSpec::ConstantRandomRate)
            .build()
            .unwrap();
        w.run_until(t(300.0));
        let dev = w.sample_now().good_deviation().unwrap();
        assert!(dev < 0.05, "deviation {dev} too large under drift");
    }

    #[test]
    fn no_sync_control_drifts_apart() {
        use byzclock_core::{ConvergenceFn, ConvergenceScratch, PeerEstimate};

        /// Never adjusts: the free-running control measuring raw drift.
        #[derive(Debug, Clone, Copy)]
        struct NoOpConvergence;
        impl ConvergenceFn for NoOpConvergence {
            fn name(&self) -> &'static str {
                "no-sync"
            }
            fn adjustment_scratch(
                &self,
                _f: usize,
                _way_off: f64,
                _estimates: &[PeerEstimate],
                _scratch: &mut ConvergenceScratch,
            ) -> f64 {
                0.0
            }
            fn box_clone(&self) -> Box<dyn ConvergenceFn> {
                Box::new(*self)
            }
        }

        let mut w = WorldBuilder::new(4, 1)
            .seed(13)
            .delta(SimDuration::from_millis(10.0))
            .rho(1e-3)
            .big_delta(d(160.0))
            .drift(DriftSpec::ConstantRandomRate)
            .convergence(Box::new(NoOpConvergence))
            .build()
            .unwrap();
        w.run_until(t(1000.0));
        let dev = w.sample_now().good_deviation().unwrap();
        assert!(
            dev > 0.2,
            "without sync, 1e-3 drift over 1000 s should separate clocks: {dev}"
        );
    }

    #[test]
    fn explicit_initial_biases_are_applied() {
        let w = WorldBuilder::new(4, 1)
            .seed(1)
            .initial_bias(InitialBias::Explicit(vec![0.1, -0.2, 0.0, 0.3]))
            .build()
            .unwrap();
        let s = w.sample_now();
        assert!((s.bias_of(ProcId(0)).as_secs() - 0.1).abs() < 1e-9);
        assert!((s.bias_of(ProcId(1)).as_secs() + 0.2).abs() < 1e-9);
        assert!((s.bias_of(ProcId(3)).as_secs() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn observer_receives_samples_and_transitions() {
        use crate::observer::{Observer, WorldSample};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Counts {
            samples: usize,
            corrupts: usize,
            releases: usize,
            adjustments: usize,
        }
        struct Probe(Rc<RefCell<Counts>>);
        impl Observer for Probe {
            fn on_sample(&mut self, _s: &WorldSample) {
                self.0.borrow_mut().samples += 1;
            }
            fn on_adjustment(&mut self, _n: ProcId, _d: f64, _t: RealTime, _g: bool) {
                self.0.borrow_mut().adjustments += 1;
            }
            fn on_corrupt(&mut self, _n: ProcId, _t: RealTime) {
                self.0.borrow_mut().corrupts += 1;
            }
            fn on_release(&mut self, _n: ProcId, _t: RealTime) {
                self.0.borrow_mut().releases += 1;
            }
        }

        let counts = Rc::new(RefCell::new(Counts::default()));
        let schedule = CorruptionSchedule::single(ProcId(1), t(5.0), d(2.0));
        let adversary = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(3.0)));
        let mut w = WorldBuilder::new(4, 1)
            .seed(2)
            .big_delta(d(40.0))
            .adversary(adversary)
            .sample_interval(d(1.0))
            .build()
            .unwrap();
        w.add_observer(Box::new(Probe(Rc::clone(&counts))));
        w.run_until(t(30.0));
        let c = counts.borrow();
        assert!(c.samples >= 25, "samples: {}", c.samples);
        assert_eq!(c.corrupts, 1);
        assert_eq!(c.releases, 1);
        assert!(c.adjustments > 0);
    }

    #[test]
    fn network_stats_accumulate() {
        let mut w = quiet_world(4);
        w.run_until(t(30.0));
        let stats = w.network_stats();
        assert!(stats.delivered > 20, "delivered: {}", stats.delivered);
        assert_eq!(stats.forged, 0);
    }

    #[test]
    fn corruption_applies_the_strategys_clock_sabotage() {
        let schedule = CorruptionSchedule::single(ProcId(1), t(5.0), d(2.0));
        let adversary = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(3.0)));
        let mut w = WorldBuilder::new(4, 1)
            .seed(31)
            .big_delta(d(40.0))
            .adversary(adversary)
            .build()
            .unwrap();
        w.run_until(t(6.0));
        assert!(w.sample_now().corrupt[1]);
        let bias = w.bias_of(ProcId(1)).as_secs();
        assert!((bias - 3.0).abs() < 1e-3, "sabotaged bias {bias}");
    }

    #[test]
    fn restart_wipes_volatile_state_and_node_rejoins() {
        use crate::observer::Observer;
        use std::cell::RefCell;
        use std::rc::Rc;

        struct RestartProbe(Rc<RefCell<Vec<(ProcId, RealTime)>>>);
        impl Observer for RestartProbe {
            fn on_restart(&mut self, node: ProcId, tau: RealTime) {
                self.0.borrow_mut().push((node, tau));
            }
        }

        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut w = quiet_world(17);
        w.add_observer(Box::new(RestartProbe(Rc::clone(&seen))));
        w.schedule_restart(t(30.0), ProcId(1));
        w.run_until(t(120.0));
        assert_eq!(*seen.borrow(), vec![(ProcId(1), t(30.0))]);
        // the rebooted node keeps syncing and stays in the good set
        let s = w.sample_now();
        assert!(
            s.good[1],
            "a benign restart must not evict from the good set"
        );
        assert!(s.good_deviation().unwrap() < 0.05);
        assert!(w.rounds_completed(ProcId(1)) > 3);
    }

    #[test]
    fn restart_during_corruption_is_a_noop() {
        use crate::observer::Observer;
        use std::cell::Cell;
        use std::rc::Rc;

        struct RestartCount(Rc<Cell<usize>>);
        impl Observer for RestartCount {
            fn on_restart(&mut self, _node: ProcId, _tau: RealTime) {
                self.0.set(self.0.get() + 1);
            }
        }

        let restarts = Rc::new(Cell::new(0));
        let schedule = CorruptionSchedule::single(ProcId(2), t(10.0), d(10.0));
        let adversary = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(5.0)));
        let mut w = WorldBuilder::new(4, 1)
            .seed(23)
            .big_delta(d(40.0))
            .adversary(adversary)
            .build()
            .unwrap();
        w.add_observer(Box::new(RestartCount(Rc::clone(&restarts))));
        w.schedule_restart(t(15.0), ProcId(2));
        w.run_until(t(30.0));
        assert_eq!(restarts.get(), 0);
    }

    #[test]
    fn duplication_and_reordering_do_not_break_convergence() {
        use byzclock_net::FaultProfile;
        // Duplicated pongs are replays of a consumed (round, nonce) slot and
        // must be discarded; reordering stays within δ so the analysis holds.
        let mut w = WorldBuilder::new(4, 1)
            .seed(29)
            .delta(SimDuration::from_millis(10.0))
            .big_delta(d(40.0))
            .initial_bias_spread(0.5)
            .net_faults(FaultProfile {
                duplicate_probability: 0.3,
                reorder_probability: 0.3,
            })
            .build()
            .unwrap();
        w.run_until(t(120.0));
        assert!(w.network_stats().duplicated > 0, "faults should have fired");
        let dev = w.sample_now().good_deviation().unwrap();
        assert!(dev < 0.05, "deviation {dev} too large under dup/reorder");
    }

    #[test]
    fn delay_spikes_flow_through_builder() {
        use byzclock_net::DelaySpike;
        let mut w = WorldBuilder::new(4, 1)
            .seed(31)
            .big_delta(d(40.0))
            .delay_spikes(vec![DelaySpike {
                from: t(10.0),
                until: t(20.0),
                factor: 3.0,
            }])
            .build()
            .unwrap();
        w.run_until(t(60.0));
        assert!(w.network_stats().spiked > 0, "spike window saw no traffic");
    }

    #[test]
    fn delay_spike_inflates_forged_pongs() {
        // Regression: adversary pongs used to be scheduled through a
        // fault-free forged send, bypassing the delay-spike /
        // fault-injection path entirely — forged replies crossed a faster
        // network than the honest traffic. With the whole run inside a
        // spike window, every delivery (honest and forged) must be spiked.
        use byzclock_net::DelaySpike;
        let schedule = CorruptionSchedule::single(ProcId(0), t(0.0), d(100.0));
        let adversary = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(2.0)));
        let mut w = WorldBuilder::new(4, 1)
            .seed(5)
            .big_delta(d(40.0))
            .adversary(adversary)
            .delay_spikes(vec![DelaySpike {
                from: t(0.0),
                until: t(1000.0),
                factor: 2.0,
            }])
            .build()
            .unwrap();
        w.run_until(t(30.0));
        let stats = w.network_stats();
        assert!(stats.forged > 0, "adversary must have replied to pings");
        assert_eq!(
            stats.spiked, stats.delivered,
            "forged deliveries escaped the spike: {stats:?}"
        );
    }

    #[test]
    fn timer_fire_clears_its_own_entry_not_a_twin() {
        // Regression for the ambiguous pending-slot match: two alarms
        // sharing (kind, target_local) are distinct engine events, and a
        // fired event must clear exactly its own bookkeeping entry. The
        // old positional (kind, target) match removed whichever twin was
        // stored first, leaving an entry pointing at an already-fired
        // event — a later reschedule would resurrect it as a double fire.
        use super::PendingTimer;
        use crate::events::SimEvent;
        use byzclock_core::TimerKind;

        let mut w = quiet_world(1);
        w.run_until(t(0.5));
        let node = ProcId(0);
        let idx = 0usize;
        let target = w.host.nodes[idx].clock.read(w.now()) + d(500.0);
        let kind = TimerKind::SyncDue;
        // The LATER twin is armed first, so any first-match-wins lookup
        // would clear it when the earlier twin fires.
        let late = w
            .host
            .engine
            .schedule_at_with(t(5.0), |id| SimEvent::NodeTimer { node, id });
        w.host.nodes[idx].pending.push((
            late,
            PendingTimer {
                kind,
                target_local: target,
            },
        ));
        let early = w
            .host
            .engine
            .schedule_at_with(t(1.0), |id| SimEvent::NodeTimer { node, id });
        w.host.nodes[idx].pending.push((
            early,
            PendingTimer {
                kind,
                target_local: target,
            },
        ));
        let armed = |w: &crate::World, id| w.host.nodes[idx].pending.iter().any(|(p, _)| *p == id);
        w.run_until(t(2.0)); // only the early twin has fired
        assert!(
            !armed(&w, early),
            "the fired alarm must clear its own entry"
        );
        assert!(armed(&w, late), "the not-yet-fired twin must stay armed");
    }

    #[test]
    fn superseded_alarms_pop_without_firing_and_go_uncounted() {
        // A restart, a corruption and a slew each drop or re-arm a node's
        // pending alarms, leaving the old engine events queued. This loop
        // mirrors `run_until`, notes every alarm an event supersedes, and
        // checks that each one later pops without touching its node.
        use crate::builder::Discipline;
        use crate::events::SimEvent;
        use byzclock_sim::queue::EventId;
        use std::collections::{BTreeMap, BTreeSet};

        let world = || {
            let schedule = CorruptionSchedule::single(ProcId(1), t(12.0), d(4.0));
            let adversary = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(2.0)));
            let mut w = WorldBuilder::new(4, 1)
                .seed(41)
                .delta(SimDuration::from_millis(10.0))
                .big_delta(d(40.0))
                .initial_bias_spread(0.2)
                .discipline(Discipline::Slew { max_rate: 0.05 })
                .adversary(adversary)
                .build()
                .unwrap();
            w.schedule_restart(t(21.0), ProcId(2));
            w
        };
        let deadline = t(60.0);
        let pending = |w: &crate::World| -> BTreeSet<EventId> {
            w.host
                .nodes
                .iter()
                .flat_map(|s| s.pending.iter().map(|(id, _)| *id))
                .collect()
        };

        let mut w = world();
        let mut superseded: BTreeMap<EventId, &str> = BTreeMap::new();
        let mut stale_by_cause: BTreeMap<&str, u64> = BTreeMap::new();
        let mut pops = 0u64;
        while let Some((tau, event)) = w.host.engine.pop_until(deadline) {
            pops += 1;
            if let SimEvent::NodeTimer { node, id } = event {
                if let Some(cause) = superseded.remove(&id) {
                    let state = |w: &crate::World| {
                        let round = w.protocols[node.index()].node().round();
                        (round, w.host.nodes[node.index()].pending.len())
                    };
                    let before = state(&w);
                    let bias = w.bias_of(node);
                    assert!(!w.dispatch(tau, event), "a {cause} alarm fired");
                    assert_eq!(state(&w), before);
                    assert_eq!(w.bias_of(node), bias);
                    *stale_by_cause.entry(cause).or_default() += 1;
                    continue;
                }
            }
            let cause = match event {
                SimEvent::Restart { .. } => "restart",
                SimEvent::Corrupt { .. } => "corruption",
                _ => "slew",
            };
            let fired = match event {
                SimEvent::NodeTimer { id, .. } => Some(id),
                _ => None,
            };
            let before = pending(&w);
            assert!(w.dispatch(tau, event), "a live event was dropped");
            let after = pending(&w);
            for id in before.difference(&after) {
                if Some(*id) != fired {
                    superseded.insert(*id, cause);
                }
            }
        }
        for cause in ["restart", "corruption", "slew"] {
            assert!(
                stale_by_cause.get(cause).is_some_and(|&n| n > 0),
                "no {cause} alarm popped stale: {stale_by_cause:?}"
            );
        }
        let stale: u64 = stale_by_cause.values().sum();

        let mut counted = world();
        counted.run_until(deadline);
        assert_eq!(counted.events_processed(), pops - stale);
    }

    #[test]
    fn run_until_reaches_deadline_after_queue_drains() {
        // Audit (satellite): `Engine::pop_until` advances `now` to the
        // deadline when no event at or before it remains, so `run_until`
        // never leaves `now()` stuck at the last event — `sample_now()`
        // reads drifting clocks at the deadline, not at a stale instant.
        let mut w = quiet_world(6);
        w.run_until(t(2.0));
        // Simulate an event horizon: swap in an empty engine so the
        // run_until loop drains immediately.
        w.host.engine = byzclock_sim::Engine::new();
        let stuck_at = w.now();
        w.run_until(t(50.0));
        assert_eq!(w.now(), t(50.0));
        assert_eq!(w.sample_now().tau, t(50.0));
        assert!(w.now() > stuck_at);
    }

    #[test]
    fn forged_traffic_counted_under_attack() {
        let schedule = CorruptionSchedule::single(ProcId(0), t(0.0), d(20.0));
        let adversary = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(2.0)));
        let mut w = WorldBuilder::new(4, 1)
            .seed(5)
            .big_delta(d(40.0))
            .adversary(adversary)
            .build()
            .unwrap();
        w.run_until(t(15.0));
        assert!(w.network_stats().forged > 0);
        assert!(w.sample_now().corrupt[0]);
    }
}
