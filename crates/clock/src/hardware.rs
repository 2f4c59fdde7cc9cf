//! Piecewise-linear hardware clocks.
//!
//! Definition 1 of the paper requires `H_p` to be smooth and monotonically
//! increasing with rate within `[1/(1+ρ), 1+ρ]` (Equation 2). We model `H_p`
//! as piecewise *linear*: a current rate that may change at discrete real
//! times (driven by a [`RandomWalk`](crate::drift::RandomWalk)). Piecewise
//! linearity keeps both evaluation and inversion exact, which matters
//! because local-time alarms ("call sync() every `SyncInt` local units")
//! must be converted to real-time simulator events without cumulative error.

use byzclock_sim::RealTime;

use crate::LocalTime;

/// A drifting but unresettable hardware clock `H_p`.
///
/// The clock is defined by an anchor `(anchor_real, anchor_value)` and a
/// current `rate`: for `τ ≥ anchor_real`,
/// `H(τ) = anchor_value + rate · (τ − anchor_real)`.
/// [`HardwareClock::set_rate`] re-anchors at the change point, preserving
/// continuity (the paper's `H_p` is continuous; only its slope changes).
///
/// ```
/// use byzclock_clock::HardwareClock;
/// use byzclock_sim::RealTime;
///
/// // 100 ppm fast clock
/// let mut hw = HardwareClock::new(1.0001);
/// let h = hw.read(RealTime::from_secs(1000.0));
/// assert!((h.as_secs() - 1000.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareClock {
    anchor_real: RealTime,
    anchor_value: f64,
    rate: f64,
}

impl HardwareClock {
    /// Creates a clock starting at local value 0 at real time 0 with the
    /// given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite (the paper's
    /// hardware clocks are monotonically increasing).
    pub fn new(rate: f64) -> Self {
        Self::with_anchor(RealTime::ZERO, 0.0, rate)
    }

    /// Creates a clock with an explicit anchor: at real time `anchor_real`
    /// the hardware value is `anchor_value`, ticking at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn with_anchor(anchor_real: RealTime, anchor_value: f64, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "hardware clock rate must be finite and positive, got {rate}"
        );
        HardwareClock {
            anchor_real,
            anchor_value,
            rate,
        }
    }

    /// Current tick rate (local seconds per real second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Reads `H(τ)`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `real_now` is not before the current anchor (reading
    /// into an already-replaced segment would be a simulator bug).
    pub fn read(&self, real_now: RealTime) -> LocalTime {
        debug_assert!(
            real_now >= self.anchor_real,
            "hardware clock read before segment anchor"
        );
        let dt = (real_now - self.anchor_real).as_secs();
        LocalTime::from_secs(self.anchor_value + self.rate * dt)
    }

    /// Changes the tick rate at real time `real_now`, preserving continuity.
    ///
    /// # Panics
    ///
    /// Panics if `new_rate` is not strictly positive and finite; debug-asserts
    /// `real_now` is not before the current anchor.
    pub fn set_rate(&mut self, real_now: RealTime, new_rate: f64) {
        assert!(
            new_rate.is_finite() && new_rate > 0.0,
            "hardware clock rate must be finite and positive, got {new_rate}"
        );
        let value_now = self.read(real_now).as_secs();
        self.anchor_real = real_now;
        self.anchor_value = value_now;
        self.rate = new_rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicalClock;

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
    }

    #[test]
    fn reads_linear_in_time() {
        let hw = HardwareClock::new(2.0);
        assert_eq!(hw.read(t(0.0)).as_secs(), 0.0);
        assert_eq!(hw.read(t(3.0)).as_secs(), 6.0);
    }

    #[test]
    fn with_anchor_offsets() {
        let hw = HardwareClock::with_anchor(t(10.0), 100.0, 1.0);
        assert_eq!(hw.read(t(15.0)).as_secs(), 105.0);
    }

    #[test]
    fn set_rate_preserves_continuity() {
        let mut hw = HardwareClock::new(1.0);
        let before = hw.read(t(5.0)).as_secs();
        hw.set_rate(t(5.0), 0.5);
        let after = hw.read(t(5.0)).as_secs();
        assert_eq!(before, after);
        assert_eq!(hw.read(t(7.0)).as_secs(), before + 1.0);
    }

    #[test]
    fn multiple_rate_changes_accumulate() {
        let mut hw = HardwareClock::new(1.0);
        hw.set_rate(t(1.0), 2.0); // H(1)=1
        hw.set_rate(t(2.0), 0.5); // H(2)=3
        assert_eq!(hw.read(t(4.0)).as_secs(), 4.0); // 3 + 0.5*2
    }

    #[test]
    fn inverse_is_exact() {
        let mut hw = HardwareClock::new(1.25);
        hw.set_rate(t(2.0), 0.8);
        let c = LogicalClock::new(hw);
        let when = c.real_time_reaching_logical(t(3.0), LocalTime::from_secs(10.0));
        let value = c.read(when).as_secs();
        assert!((value - 10.0).abs() < 1e-12, "value={value}");
    }

    #[test]
    fn inverse_of_past_target_is_now() {
        let c = LogicalClock::new(HardwareClock::new(1.0));
        let when = c.real_time_reaching_logical(t(5.0), LocalTime::from_secs(1.0));
        assert_eq!(when, t(5.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        HardwareClock::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_rate_panics() {
        HardwareClock::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn set_rate_rejects_nonpositive() {
        let mut hw = HardwareClock::new(1.0);
        hw.set_rate(t(1.0), 0.0);
    }

    #[test]
    fn monotone_under_any_positive_rate_schedule() {
        // Property-style check without proptest: random-ish rate schedule.
        let mut hw = HardwareClock::new(1.0);
        let rates = [0.3, 2.0, 0.9, 1.7, 0.5];
        let mut prev = hw.read(t(0.0));
        let mut now = 0.0;
        for (i, &r) in rates.iter().enumerate() {
            now = (i + 1) as f64;
            hw.set_rate(t(now), r);
            let v = hw.read(t(now));
            assert!(v >= prev);
            prev = v;
        }
        assert!(hw.read(t(now + 1.0)) > prev);
    }
}
