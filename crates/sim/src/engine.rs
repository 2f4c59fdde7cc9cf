//! The simulation engine: an event queue plus a monotone clock.
//!
//! [`Engine`] owns the current simulated real time and the pending-event
//! queue. It deliberately knows nothing about what events *mean* — higher
//! layers define the payload type and interpret popped events. This keeps
//! the engine reusable and trivially testable.

use crate::queue::{EventId, EventQueue};
use crate::time::{RealTime, SimDuration};

/// Discrete-event simulation engine generic over the event payload `T`.
///
/// Time only moves forward: popping an event advances [`Engine::now`] to the
/// event's timestamp. Scheduling in the past is a program error and panics,
/// as it would silently reorder causality.
///
/// ```
/// use byzclock_sim::{Engine, SimDuration};
///
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule_after(SimDuration::from_secs(1.0), 7);
/// let (t, v) = engine.pop().unwrap();
/// assert_eq!(v, 7);
/// assert_eq!(engine.now(), t);
/// ```
#[derive(Debug)]
pub struct Engine<T> {
    queue: EventQueue<T>,
    now: RealTime,
}

impl<T: Copy> Default for Engine<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Engine<T> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: RealTime::ZERO,
        }
    }

    /// Current simulated real time.
    pub fn now(&self) -> RealTime {
        self.now
    }

    /// Number of queued events, including any that a higher layer has
    /// superseded but that have not popped yet.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN, or earlier than [`Engine::now`] — causality
    /// violation.
    pub fn schedule_at(&mut self, at: RealTime, payload: T) -> EventId {
        self.check_at(at);
        self.queue.schedule(at, payload)
    }

    /// Schedules an event at `at` whose payload embeds its own [`EventId`]
    /// (the id is assigned before the payload is built). See
    /// [`EventQueue::schedule_with`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is NaN, or earlier than [`Engine::now`] — causality
    /// violation.
    pub fn schedule_at_with(
        &mut self,
        at: RealTime,
        payload: impl FnOnce(EventId) -> T,
    ) -> EventId {
        self.check_at(at);
        self.queue.schedule_with(at, payload)
    }

    /// Rejects a NaN instant, which `total_cmp` orders after +∞ and so would
    /// pass the causality check and later set `now` to NaN, and an instant
    /// before `now`.
    fn check_at(&self, at: RealTime) {
        assert!(!at.as_secs().is_nan(), "cannot schedule at a NaN instant");
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={now}",
            at = at,
            now = self.now
        );
    }

    /// Schedules an event `after` from now.
    ///
    /// # Panics
    ///
    /// Panics if `after` is negative or NaN.
    pub fn schedule_after(&mut self, after: SimDuration, payload: T) -> EventId {
        assert!(!after.as_secs().is_nan(), "cannot schedule a NaN delay");
        assert!(
            !after.is_negative(),
            "cannot schedule a negative delay: {after}"
        );
        self.queue.schedule(self.now + after, payload)
    }

    /// Pops the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(RealTime, T)> {
        let popped = self.queue.pop()?;
        Some(self.advance(popped))
    }

    /// Pops the next event only if it is scheduled at or before `deadline`;
    /// otherwise advances `now` to `deadline` and returns `None`.
    ///
    /// This is the primitive for "run until τ" loops: after it returns
    /// `None`, `now() == deadline` and no event before the deadline remains.
    pub fn pop_until(&mut self, deadline: RealTime) -> Option<(RealTime, T)> {
        match self.queue.pop_at_or_before(deadline) {
            Some(popped) => Some(self.advance(popped)),
            None => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Moves `now` to a popped event's time.
    fn advance(&mut self, (time, payload): (RealTime, T)) -> (RealTime, T) {
        debug_assert!(time >= self.now, "event queue returned stale time");
        self.now = time;
        (time, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }
    /// ∞ − ∞: how a NaN instant arises without tripping `from_secs`'s
    /// debug assertion.
    fn nan_instant() -> RealTime {
        RealTime::from_secs(f64::INFINITY) - d(f64::INFINITY)
    }

    #[test]
    fn pop_advances_now() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(t(5.0), "x");
        assert_eq!(e.now(), RealTime::ZERO);
        let (at, _) = e.pop().unwrap();
        assert_eq!(at, t(5.0));
        assert_eq!(e.now(), t(5.0));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(t(10.0), 1);
        e.pop().unwrap();
        e.schedule_after(d(2.5), 2);
        let (at, v) = e.pop().unwrap();
        assert_eq!(v, 2);
        assert_eq!(at, t(12.5));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn schedule_in_past_panics() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(t(10.0), 1);
        e.pop().unwrap();
        e.schedule_at(t(5.0), 2);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn schedule_negative_delay_panics() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_after(d(-1.0), 1);
    }

    #[test]
    #[should_panic(expected = "NaN instant")]
    fn schedule_at_nan_panics() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(nan_instant(), 1);
    }

    #[test]
    #[should_panic(expected = "NaN instant")]
    fn schedule_at_with_nan_panics() {
        let mut e: Engine<EventId> = Engine::new();
        e.schedule_at_with(nan_instant(), |id| id);
    }

    #[test]
    #[should_panic(expected = "NaN delay")]
    fn schedule_after_nan_panics() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_after(d(f64::INFINITY) - d(f64::INFINITY), 1);
    }

    #[test]
    fn infinite_instants_still_schedule_and_pop_last() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_after(d(f64::INFINITY), 2);
        e.schedule_at(RealTime::from_secs(f64::INFINITY), 3);
        e.schedule_at(t(1.0), 1);
        let order: Vec<u8> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, [1, 2, 3]);
        assert_eq!(e.now(), RealTime::from_secs(f64::INFINITY));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(t(1.0), 1);
        e.schedule_at(t(3.0), 3);
        assert_eq!(e.pop_until(t(2.0)).unwrap().1, 1);
        assert!(e.pop_until(t(2.0)).is_none());
        assert_eq!(e.now(), t(2.0));
        // the later event is still pending
        assert_eq!(e.queued(), 1);
        assert_eq!(e.pop_until(t(4.0)).unwrap().1, 3);
    }

    #[test]
    fn pop_until_on_empty_advances_to_deadline() {
        let mut e: Engine<u8> = Engine::new();
        assert!(e.pop_until(t(7.0)).is_none());
        assert_eq!(e.now(), t(7.0));
    }

    #[test]
    fn pop_until_never_rewinds_now() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(t(5.0), 1);
        e.pop().unwrap();
        assert!(e.pop_until(t(3.0)).is_none());
        assert_eq!(e.now(), t(5.0));
    }

    #[test]
    fn schedule_at_with_embeds_own_id() {
        let mut e: Engine<EventId> = Engine::new();
        let id = e.schedule_at_with(t(2.0), |id| id);
        let (at, carried) = e.pop().unwrap();
        assert_eq!(at, t(2.0));
        assert_eq!(carried, id);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn schedule_at_with_in_past_panics() {
        let mut e: Engine<EventId> = Engine::new();
        e.schedule_at_with(t(10.0), |id| id);
        e.pop().unwrap();
        e.schedule_at_with(t(5.0), |id| id);
    }

    #[test]
    fn deterministic_event_order_at_same_time() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..50 {
            e.schedule_at(t(1.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }
}
