//! The deterministic sim driver: `SimHost`, the part of a
//! [`World`](crate::World) that implements [`Driver`], the host contract
//! of `byzclock-core`. A node calls it while it handles an input.
//!
//! Sends route through the modeled faulty [`Network`] and schedule
//! `Deliver` events on the engine; timers convert *local* deadlines
//! exactly to real-time engine events via the piecewise-linear logical
//! clocks (and are recomputed when a drift change or slew alters a clock's
//! slope); adjustments go to the per-node
//! [`LogicalClock`](byzclock_clock::LogicalClock)s, honoring the world's
//! correction discipline.
//!
//! Everything here is a pure function of the world seed — chaos campaigns,
//! loom/Miri runs and the golden driver-equivalence test all pin their
//! guarantees to this driver, not to the real-time one in `byzclock-live`.
//!
//! ## Local alarms under drift
//!
//! `set_timer(after)` means *local* time units. The driver computes the
//! exact real time at which the node's logical clock reaches
//! `local_now + after` using the current hardware rate, and whenever a
//! drift walk changes the rate (or a slew changes the logical slope) the
//! world recomputes every pending alarm of that node. Each pending alarm
//! is one engine event, keyed by its engine id in the node's id-ordered
//! pending list, and that list is the only record of which alarms are live:
//! replacing or dropping an alarm removes its entry and leaves the engine
//! event queued. The stale event still pops, finds no entry and is
//! dropped uncounted, so it neither fires nor shows in
//! [`World::events_processed`](crate::World::events_processed).
//! `SimHost::cancel_all` drops all of a node's alarms at once (corruption
//! or crash destroyed the "thread" that would re-arm them — the paper's
//! recovery discussion), and
//! [`Input::Start`](byzclock_core::Input::Start) on release re-arms
//! everything.

use byzclock_adversary::Adversary;
use byzclock_clock::{LocalTime, RandomWalk};
use byzclock_core::{Driver, RoundSummary, TimerKind, WireMessage};
use byzclock_net::Network;
use byzclock_sim::{DetRng, Engine, ProcId, RealTime, SimDuration};

use crate::builder::Discipline;
use crate::events::SimEvent;
use crate::observer::{Observer, WorldSample};
use crate::world::{NodeSlot, PendingTimer};

/// Everything a world's node effects touch: the engine, each processor's
/// clock, drift stream and pending alarms, the drift walk, the network,
/// the adversary, the random streams and the observers. The world keeps the protocols beside it, so
/// a node can be handed its host without aliasing itself.
pub(crate) struct SimHost {
    pub(crate) engine: Engine<SimEvent>,
    pub(crate) nodes: Vec<NodeSlot>,
    pub(crate) network: Network,
    pub(crate) adversary: Adversary,
    /// The rate walk every clock takes under `DriftSpec::RandomWalk`;
    /// `None` when rates stay constant.
    pub(crate) walk: Option<RandomWalk>,
    pub(crate) big_delta: SimDuration,
    pub(crate) sample_interval: SimDuration,
    pub(crate) net_rng: DetRng,
    pub(crate) adv_rng: DetRng,
    pub(crate) observers: Vec<Box<dyn Observer>>,
    pub(crate) discipline: Discipline,
    /// The sample every observer tick refills in place, so a tick with
    /// observers allocates nothing once warm.
    pub(crate) sample: WorldSample,
}

impl Driver for SimHost {
    /// Sends through the modeled network: `send_times` yields zero (lost),
    /// one, or — when the duplication fault fires — at most two delivery
    /// instants, held inline, each scheduled as a `Deliver` event.
    fn send(&mut self, from: ProcId, to: ProcId, msg: WireMessage) {
        let tau = self.engine.now();
        for at in self.network.send_times(from, to, tau, &mut self.net_rng) {
            self.engine
                .schedule_at(at, SimEvent::Deliver { to, from, msg });
        }
    }

    fn set_timer(&mut self, node: ProcId, after: SimDuration, kind: TimerKind) {
        let tau = self.engine.now();
        let idx = node.index();
        let target_local = self.nodes[idx].clock.read(tau) + after;
        let real_at = self.real_time_for_local_target(node, tau, target_local);
        let engine_id = self
            .engine
            .schedule_at_with(real_at.max(tau), |id| SimEvent::NodeTimer { node, id });
        // Engine ids only grow, so the push keeps `pending` id-ordered.
        self.nodes[idx]
            .pending
            .push((engine_id, PendingTimer { kind, target_local }));
    }

    fn adjust_clock(&mut self, node: ProcId, delta: SimDuration) {
        let tau = self.engine.now();
        match self.discipline {
            Discipline::Step => {
                self.nodes[node.index()].clock.adjust(delta);
            }
            Discipline::Slew { max_rate } => {
                self.nodes[node.index()].clock.slew(tau, delta, max_rate);
                // the logical trajectory changed slope: pending alarms must
                // be recomputed (slew-aware)
                self.reschedule_pending_timers(tau, node);
            }
        }
        if !self.observers.is_empty() {
            let good = self.adversary.good_at(node, tau, self.big_delta);
            self.notify(|o| o.on_adjustment(node, delta.as_secs(), tau, good));
        }
    }

    fn round_completed(&mut self, node: ProcId, summary: &RoundSummary) {
        let tau = self.engine.now();
        self.notify(|o| o.on_round(node, summary, tau));
    }
}

impl SimHost {
    /// Forgets every pending alarm of the node, so none of them fires:
    /// their engine events pop stale.
    pub(crate) fn cancel_all(&mut self, node: ProcId) {
        self.nodes[node.index()].pending.clear();
    }

    /// Re-arms every pending alarm of `node` against its current clock
    /// trajectory (after a drift change or slew); the old engine events
    /// pop stale.
    pub(crate) fn reschedule_pending_timers(&mut self, tau: RealTime, node: ProcId) {
        let idx = node.index();
        // The alarms are re-armed in id order and get fresh, growing ids in
        // place, so the order is deterministic (replay safety) and stays
        // id-sorted.
        for i in 0..self.nodes[idx].pending.len() {
            let target = self.nodes[idx].pending[i].1.target_local;
            let real_at = self.real_time_for_local_target(node, tau, target);
            self.nodes[idx].pending[i].0 = self
                .engine
                .schedule_at_with(real_at.max(tau), |id| SimEvent::NodeTimer { node, id });
        }
    }

    /// Exact real time at which `node`'s *logical* clock reaches `target`
    /// (slew-aware: the logical clock is piecewise linear).
    pub(crate) fn real_time_for_local_target(
        &self,
        node: ProcId,
        tau: RealTime,
        target: LocalTime,
    ) -> RealTime {
        self.nodes[node.index()]
            .clock
            .real_time_reaching_logical(tau, target)
    }
}
