//! The adversary façade driven by the runtime.
//!
//! Combines a [`CorruptionSchedule`] (when which processor is controlled)
//! with a [`ByzantineStrategy`] (what controlled processors do). The
//! runtime:
//!
//! 1. pulls [`Adversary::timeline`] once at start-up and schedules the
//!    break-in/release actions as simulator events;
//! 2. applies the [`ClockSabotage`] returned by [`Adversary::on_corrupt`]
//!    to the victim's logical clock;
//! 3. routes every ping addressed to a corrupted processor through
//!    [`Adversary::reply_to_ping`].

use byzclock_clock::LocalTime;
use byzclock_sim::{DetRng, ProcId, RealTime, SimDuration};

use crate::schedule::CorruptionSchedule;
use crate::strategy::{AttackContext, AttackReply, ByzantineStrategy, CrashStrategy};

/// What to do to a victim's clock at break-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockSabotage {
    /// Leave the clock alone (e.g. a pure communication attack).
    None,
    /// Reset the clock so its bias becomes the given value (seconds).
    SetBias(f64),
}

/// A break-in or release, to be scheduled by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryAction {
    /// The adversary takes control of the processor.
    Corrupt(ProcId),
    /// The adversary leaves the processor (recovery starts).
    Release(ProcId),
}

/// The mobile Byzantine adversary for one simulation run.
#[derive(Debug)]
pub struct Adversary {
    schedule: CorruptionSchedule,
    strategy: Box<dyn ByzantineStrategy>,
}

impl Default for Adversary {
    /// A harmless adversary: empty schedule, crash strategy.
    fn default() -> Self {
        Adversary::new(CorruptionSchedule::new(), Box::new(CrashStrategy))
    }
}

impl Adversary {
    /// Combines a schedule with a strategy.
    pub fn new(schedule: CorruptionSchedule, strategy: Box<dyn ByzantineStrategy>) -> Self {
        Adversary { schedule, strategy }
    }

    /// The underlying corruption schedule.
    pub fn schedule(&self) -> &CorruptionSchedule {
        &self.schedule
    }

    /// All break-in/release actions in time order (ties: corrupts before
    /// releases at different processors keep schedule order; the runtime's
    /// FIFO queue preserves insertion order at equal times).
    pub fn timeline(&self) -> Vec<(RealTime, AdversaryAction)> {
        let mut actions: Vec<(RealTime, AdversaryAction)> = Vec::new();
        for iv in self.schedule.intervals() {
            actions.push((iv.from, AdversaryAction::Corrupt(iv.proc)));
            if iv.until.as_secs().is_finite() {
                actions.push((iv.until, AdversaryAction::Release(iv.proc)));
            }
        }
        actions.sort_by_key(|a| a.0);
        actions
    }

    /// True iff `proc` is controlled at `tau`.
    pub fn is_corrupt(&self, proc: ProcId, tau: RealTime) -> bool {
        self.schedule.is_corrupt(proc, tau)
    }

    /// True iff `proc` was non-faulty during the whole window
    /// `[tau − big_delta, tau]` (Definition 3's "good at τ").
    ///
    /// O(log k) in the schedule's k episodes (one binary search of its
    /// index), so the per-event cost of the runtime, which asks on every
    /// clock adjustment and for every node in a sample, does not grow with
    /// the horizon.
    pub fn good_at(&self, proc: ProcId, tau: RealTime, big_delta: SimDuration) -> bool {
        self.schedule.non_faulty_during(proc, tau - big_delta, tau)
    }

    /// Called by the runtime at break-in; returns the clock sabotage to
    /// apply to the victim.
    pub fn on_corrupt(&mut self, victim: ProcId, rng: &mut DetRng) -> ClockSabotage {
        self.strategy.sabotage(victim, rng)
    }

    /// Called by the runtime for every ping addressed to a controlled
    /// processor; returns what (if anything) the victim answers.
    pub fn reply_to_ping(&mut self, ctx: &AttackContext, rng: &mut DetRng) -> AttackReply {
        self.strategy.reply(ctx, rng)
    }

    /// Helper for building an [`AttackContext`]; the runtime fills in the
    /// omniscient fields. `good_bias_range` is called only when the
    /// strategy reads [`AttackContext::good_bias_range`].
    #[allow(clippy::too_many_arguments)]
    pub fn context<'a>(
        victim: ProcId,
        requester: ProcId,
        real_now: RealTime,
        victim_clock: LocalTime,
        requester_bias: Option<byzclock_clock::Bias>,
        good_bias_range: &'a dyn Fn() -> Option<(f64, f64)>,
        way_off: f64,
    ) -> AttackContext<'a> {
        AttackContext {
            victim,
            requester,
            real_now,
            victim_clock,
            requester_bias,
            good_bias_range,
            way_off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::CorruptionInterval;

    impl Adversary {
        /// The strategy's display name.
        pub(crate) fn strategy_name(&self) -> &'static str {
            self.strategy.name()
        }
    }

    use crate::strategy::ConstantOffsetStrategy;
    use byzclock_sim::RngHub;

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn default_adversary_is_harmless() {
        let adv = Adversary::default();
        assert!(adv.timeline().is_empty());
        assert!(!adv.is_corrupt(ProcId(0), t(5.0)));
        assert_eq!(adv.strategy_name(), "crash");
    }

    #[test]
    fn timeline_is_sorted_with_releases() {
        let schedule = CorruptionSchedule::from_intervals(vec![
            CorruptionInterval::new(ProcId(1), t(5.0), t(9.0)),
            CorruptionInterval::new(ProcId(0), t(1.0), t(3.0)),
        ]);
        let adv = Adversary::new(schedule, Box::new(CrashStrategy));
        let tl = adv.timeline();
        assert_eq!(
            tl,
            vec![
                (t(1.0), AdversaryAction::Corrupt(ProcId(0))),
                (t(3.0), AdversaryAction::Release(ProcId(0))),
                (t(5.0), AdversaryAction::Corrupt(ProcId(1))),
                (t(9.0), AdversaryAction::Release(ProcId(1))),
            ]
        );
    }

    #[test]
    fn infinite_corruption_has_no_release() {
        let schedule = CorruptionSchedule::from_intervals(vec![CorruptionInterval::new(
            ProcId(2),
            t(0.0),
            RealTime::from_secs(f64::INFINITY),
        )]);
        let adv = Adversary::new(schedule, Box::new(CrashStrategy));
        let tl = adv.timeline();
        assert_eq!(tl.len(), 1);
        assert_eq!(tl[0], (t(0.0), AdversaryAction::Corrupt(ProcId(2))));
    }

    #[test]
    fn good_at_respects_window() {
        let schedule = CorruptionSchedule::single(ProcId(0), t(10.0), d(5.0));
        let adv = Adversary::new(schedule, Box::new(CrashStrategy));
        // at t=20, window [10, 20] touches the corruption [10,15) => not good
        assert!(!adv.good_at(ProcId(0), t(20.0), d(10.0)));
        // at t=26, window [16, 26] misses it => good again
        assert!(adv.good_at(ProcId(0), t(26.0), d(10.0)));
        // other processors always good
        assert!(adv.good_at(ProcId(1), t(12.0), d(10.0)));
    }

    #[test]
    fn sabotage_and_reply_delegate_to_strategy() {
        let schedule = CorruptionSchedule::single(ProcId(0), t(0.0), d(1.0));
        let mut adv = Adversary::new(schedule, Box::new(ConstantOffsetStrategy::new(2.5)));
        let mut rng = RngHub::new(1).stream("adv", 0);
        assert_eq!(
            adv.on_corrupt(ProcId(0), &mut rng),
            ClockSabotage::SetBias(2.5)
        );
        let ctx = Adversary::context(
            ProcId(0),
            ProcId(1),
            t(4.0),
            LocalTime::from_secs(4.0),
            None,
            &|| None,
            0.5,
        );
        match adv.reply_to_ping(&ctx, &mut rng) {
            AttackReply::Clock(c) => assert_eq!(c.as_secs(), 6.5),
            other => panic!("unexpected {other:?}"),
        }
    }
}
