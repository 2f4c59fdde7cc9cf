//! The simulation world: event-loop orchestrator over the sim driver.
//!
//! The world owns one [`Engine`] on the real-time axis and, per processor,
//! a [`LogicalClock`], a drift model and a [`SyncNode`] (wrapped in a
//! [`CachedSync`] under cached estimation). Node effects are
//! executed through the [`Driver`](byzclock_core::Driver) contract —
//! the deterministic implementations of sends, timers and adjustments live
//! in [`crate::sim_driver`] — while this module orchestrates: it pops and
//! dispatches events, routes traffic addressed to corrupted processors
//! through the [`Adversary`], applies corruption/release/restart/drift
//! transitions, and notifies [`Observer`]s.
//!
//! See `crate::sim_driver` for how local-time alarms are converted exactly
//! to real-time events under drift and slew.

use byzclock_adversary::{Adversary, AttackReply, ClockSabotage};
use byzclock_clock::{DriftModel, LocalTime, LogicalClock};
use byzclock_core::{apply_outputs, CachedSync, Input, Output, SyncNode, TimerKind, WireMessage};
use byzclock_net::Network;
use byzclock_sim::queue::EventId;
use byzclock_sim::{DetRng, Engine, ProcId, RealTime, SimDuration};

use crate::builder::Discipline;
use crate::events::SimEvent;
use crate::observer::{Observer, WorldSample};

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
    fn handle_into(&mut self, input: Input, out: &mut Vec<Output>) {
        match self {
            Protocol::PerRound(node) => node.handle_into(input, out),
            Protocol::Cached(cached) => cached.handle_into(input, out),
        }
    }

    fn node(&self) -> &SyncNode {
        match self {
            Protocol::PerRound(node) => node,
            Protocol::Cached(cached) => cached.node(),
        }
    }
}

pub(crate) struct NodeSlot {
    pub(crate) clock: LogicalClock,
    pub(crate) protocol: Protocol,
    pub(crate) drift: Box<dyn DriftModel>,
    pub(crate) drift_rng: DetRng,
    pub(crate) corruption_depth: u32,
    /// Pending alarms indexed by their engine [`EventId`]: the only record
    /// of which alarms are live. Replacing or dropping an alarm removes its
    /// entry here and nothing else, so its engine event still pops and
    /// [`World`] drops it. O(log n) exact lookup instead of a linear scan,
    /// and — unlike a `(kind, target)` match — unambiguous when two alarms
    /// coincide.
    /// A `BTreeMap` (not `HashMap`) so iteration during rescheduling is
    /// id-ordered: std hash maps iterate in per-process random order, which
    /// would leak into event scheduling order and break cross-process
    /// replay determinism.
    pub(crate) pending: std::collections::BTreeMap<EventId, PendingTimer>,
}

impl NodeSlot {
    pub(crate) fn new(
        clock: LogicalClock,
        protocol: Protocol,
        drift: Box<dyn DriftModel>,
        drift_rng: DetRng,
    ) -> Self {
        NodeSlot {
            clock,
            protocol,
            drift,
            drift_rng,
            corruption_depth: 0,
            pending: std::collections::BTreeMap::new(),
        }
    }

    fn corrupted(&self) -> bool {
        self.corruption_depth > 0
    }
}

/// The running simulation.
///
/// Construct via [`WorldBuilder`](crate::builder::WorldBuilder).
pub struct World {
    pub(crate) engine: Engine<SimEvent>,
    /// Events dispatched so far, superseded alarms excluded.
    pub(crate) events: u64,
    pub(crate) nodes: Vec<NodeSlot>,
    pub(crate) network: Network,
    pub(crate) adversary: Adversary,
    pub(crate) big_delta: SimDuration,
    pub(crate) sample_interval: SimDuration,
    pub(crate) net_rng: DetRng,
    pub(crate) adv_rng: DetRng,
    pub(crate) observers: Vec<Box<dyn Observer>>,
    pub(crate) params: byzclock_core::ProtocolParams,
    pub(crate) bounds: Option<byzclock_core::TheoremBounds>,
    pub(crate) discipline: Discipline,
    /// Reusable output buffer for the nodes' `handle_into`: one allocation
    /// for the whole run instead of one per handled input.
    pub(crate) scratch: Vec<Output>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.engine.now())
            .field("n", &self.nodes.len())
            .field("queued_events", &self.engine.queued())
            .finish()
    }
}

impl World {
    /// Current simulated real time.
    pub fn now(&self) -> RealTime {
        self.engine.now()
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The protocol parameters every node runs with.
    pub fn params(&self) -> &byzclock_core::ProtocolParams {
        &self.params
    }

    /// The Theorem 5 bounds for this configuration, when the parameters
    /// were derived from a [`NetworkModel`](byzclock_core::NetworkModel)
    /// (absent for hand-set parameters).
    pub fn bounds(&self) -> Option<&byzclock_core::TheoremBounds> {
        self.bounds.as_ref()
    }

    /// The adversary's time period Δ this world measures goodness against.
    pub fn big_delta(&self) -> SimDuration {
        self.big_delta
    }

    /// Registers an observer (before or between runs).
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// The network traffic statistics.
    pub fn network_stats(&self) -> &byzclock_net::NetworkStats {
        self.network.stats()
    }

    /// Events processed so far. A superseded alarm still pops from the
    /// engine, but the world drops it uncounted, so this counts only the
    /// events that took effect.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// True iff `p` is currently controlled by the adversary.
    pub fn is_corrupt(&self, p: ProcId) -> bool {
        self.nodes[p.index()].corrupted()
    }

    /// Total corruption episodes in the adversary's schedule (the mobile
    /// adversary's cumulative fault count, typically ≫ n).
    pub fn corruption_episodes(&self) -> usize {
        self.adversary.schedule().episode_count()
    }

    /// Sync rounds completed by `p`.
    pub fn rounds_completed(&self, p: ProcId) -> u64 {
        self.nodes[p.index()].protocol.node().rounds_completed()
    }

    /// Bias of `p`'s clock right now.
    pub fn bias_of(&self, p: ProcId) -> byzclock_clock::Bias {
        self.nodes[p.index()].clock.bias(self.now())
    }

    /// Snapshot of all biases, corruption and goodness flags.
    pub fn sample_now(&self) -> WorldSample {
        let tau = self.now();
        let biases = self.nodes.iter().map(|s| s.clock.bias(tau)).collect();
        let corrupt = self.nodes.iter().map(|s| s.corrupted()).collect();
        let good = (0..self.nodes.len())
            .map(|i| {
                self.adversary
                    .good_at(ProcId(i as u32), tau, self.big_delta)
            })
            .collect();
        WorldSample {
            tau,
            biases,
            corrupt,
            good,
        }
    }

    /// Runs the event loop until simulated time `deadline`.
    pub fn run_until(&mut self, deadline: RealTime) {
        while let Some((tau, event)) = self.engine.pop_until(deadline) {
            if self.dispatch(tau, event) {
                self.events += 1;
            }
        }
    }

    /// Handles one popped event; false if it was a superseded alarm,
    /// which is dropped.
    fn dispatch(&mut self, tau: RealTime, event: SimEvent) -> bool {
        match event {
            SimEvent::NodeTimer { node, id } => return self.node_timer(node, id),
            SimEvent::StartNode { node } => self.start_node(node),
            SimEvent::Deliver { to, from, msg } => self.deliver(tau, to, from, msg),
            SimEvent::DriftChange { node, new_rate } => self.drift_change(tau, node, new_rate),
            SimEvent::Corrupt { node } => self.corrupt(tau, node),
            SimEvent::Release { node } => self.release(tau, node),
            SimEvent::LinkCut { a, b } => self.network.links_mut().cut(a, b),
            SimEvent::LinkRestore { a, b } => self.network.links_mut().restore(a, b),
            SimEvent::Restart { node } => self.restart(tau, node),
            SimEvent::Sample => self.sample_tick(),
        }
        true
    }

    fn restart(&mut self, tau: RealTime, node: ProcId) {
        let idx = node.index();
        if self.nodes[idx].corrupted() {
            return;
        }
        // Crash: all pending alarms die with the process.
        self.cancel_all(node);
        self.notify(|o| o.on_restart(node, tau));
        // Reboot: re-enter the protocol from the persistent clock alone —
        // the paper's tiny-recovery-state property makes this identical to
        // a cold start.
        let local_now = self.local_now(node);
        self.handle_and_apply(node, Input::Start { local_now });
    }

    fn start_node(&mut self, node: ProcId) {
        if self.nodes[node.index()].corrupted() {
            return; // corrupted at its start time; Release will restart it
        }
        let local_now = self.local_now(node);
        self.handle_and_apply(node, Input::Start { local_now });
    }

    /// Feeds one input to `node` through the reusable scratch buffer and
    /// executes the resulting outputs through [`apply_outputs`].
    ///
    /// (The node lives *inside* the driver state, so the outputs are
    /// collected into the world-owned scratch first, then applied.)
    fn handle_and_apply(&mut self, node: ProcId, input: Input) {
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        self.nodes[node.index()]
            .protocol
            .handle_into(input, &mut out);
        apply_outputs(self, node, &out);
        out.clear();
        self.scratch = out;
    }

    fn local_now(&self, node: ProcId) -> LocalTime {
        self.nodes[node.index()].clock.read(self.now())
    }

    fn deliver(&mut self, tau: RealTime, to: ProcId, from: ProcId, msg: WireMessage) {
        if self.nodes[to.index()].corrupted() {
            self.adversary_receives(tau, to, from, msg);
            return;
        }
        let local_now = self.local_now(to);
        self.handle_and_apply(
            to,
            Input::Message {
                from,
                msg,
                local_now,
            },
        );
    }

    /// A corrupted node received a message: the adversary decides.
    fn adversary_receives(
        &mut self,
        tau: RealTime,
        victim: ProcId,
        from: ProcId,
        msg: WireMessage,
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
            self.params.way_off(),
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

    /// Fires the alarm `id` of `node`; false if the alarm was superseded.
    fn node_timer(&mut self, node: ProcId, id: EventId) -> bool {
        // Match the fired event against the pending index by its own engine
        // id: exact and unambiguous even when another alarm shares
        // `(kind, target_local)` — a positional match could clear the
        // twin's bookkeeping instead. An absent id means the alarm was
        // superseded (re-armed, or dropped by a restart or corruption) and
        // must not fire. A corrupted node's index is empty, so none of its
        // alarms fires.
        let slot = &mut self.nodes[node.index()];
        let Some(PendingTimer { kind, .. }) = slot.pending.remove(&id) else {
            return false;
        };
        debug_assert!(!slot.corrupted(), "a corrupted node holds an alarm");
        let local_now = self.local_now(node);
        self.handle_and_apply(
            node,
            Input::TimerFired {
                timer: kind,
                local_now,
            },
        );
        true
    }

    fn drift_change(&mut self, tau: RealTime, node: ProcId, new_rate: f64) {
        let slot = &mut self.nodes[node.index()];
        debug_assert!(
            new_rate > 0.0,
            "drift model produced non-positive rate {new_rate}"
        );
        slot.clock.hardware_mut().set_rate(tau, new_rate);
        if let Some((when, next_rate)) = slot.drift.next_change(tau, &mut slot.drift_rng) {
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

    fn release(&mut self, tau: RealTime, node: ProcId) {
        let idx = node.index();
        debug_assert!(
            self.nodes[idx].corruption_depth > 0,
            "release without matching corrupt"
        );
        self.nodes[idx].corruption_depth -= 1;
        if self.nodes[idx].corruption_depth > 0 {
            return;
        }
        self.notify(|o| o.on_release(node, tau));
        // Recovery: the processor reboots its protocol with whatever clock
        // the adversary left behind.
        let local_now = self.local_now(node);
        self.handle_and_apply(node, Input::Start { local_now });
    }

    fn sample_tick(&mut self) {
        // The sample is for observers only; the tick still pops and counts.
        if !self.observers.is_empty() {
            let sample = self.sample_now();
            self.notify(|o| o.on_sample(&sample));
        }
        self.engine
            .schedule_after(self.sample_interval, SimEvent::Sample);
    }

    pub(crate) fn notify(&mut self, mut f: impl FnMut(&mut Box<dyn Observer>)) {
        let mut observers = std::mem::take(&mut self.observers);
        for o in &mut observers {
            f(o);
        }
        debug_assert!(self.observers.is_empty(), "observer added during notify");
        self.observers = observers;
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
            self.engine.schedule_at(at, SimEvent::Restart { node });
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
        use byzclock_core::NoOpConvergence;
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
        assert!(w.is_corrupt(ProcId(1)));
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
        let target = w.nodes[idx].clock.read(w.now()) + d(500.0);
        let kind = TimerKind::SyncDue;
        // The LATER twin is armed first, so any first-match-wins lookup
        // would clear it when the earlier twin fires.
        let late = w
            .engine
            .schedule_at_with(t(5.0), |id| SimEvent::NodeTimer { node, id });
        w.nodes[idx].pending.insert(
            late,
            PendingTimer {
                kind,
                target_local: target,
            },
        );
        let early = w
            .engine
            .schedule_at_with(t(1.0), |id| SimEvent::NodeTimer { node, id });
        w.nodes[idx].pending.insert(
            early,
            PendingTimer {
                kind,
                target_local: target,
            },
        );
        w.run_until(t(2.0)); // only the early twin has fired
        assert!(
            !w.nodes[idx].pending.contains_key(&early),
            "the fired alarm must clear its own entry"
        );
        assert!(
            w.nodes[idx].pending.contains_key(&late),
            "the not-yet-fired twin must stay armed"
        );
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
            w.nodes
                .iter()
                .flat_map(|s| s.pending.keys().copied())
                .collect()
        };

        let mut w = world();
        let mut superseded: BTreeMap<EventId, &str> = BTreeMap::new();
        let mut stale_by_cause: BTreeMap<&str, u64> = BTreeMap::new();
        let mut pops = 0u64;
        while let Some((tau, event)) = w.engine.pop_until(deadline) {
            pops += 1;
            if let SimEvent::NodeTimer { node, id } = event {
                if let Some(cause) = superseded.remove(&id) {
                    let slot = &w.nodes[node.index()];
                    let before = (slot.protocol.node().round(), slot.pending.len());
                    let bias = w.bias_of(node);
                    assert!(!w.dispatch(tau, event), "a {cause} alarm fired");
                    let slot = &w.nodes[node.index()];
                    assert_eq!((slot.protocol.node().round(), slot.pending.len()), before);
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
        // Simulate an event horizon: drop every pending event so the
        // run_until loop drains immediately.
        while w.engine.pop().is_some() {}
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
        assert!(w.is_corrupt(ProcId(0)));
    }
}
