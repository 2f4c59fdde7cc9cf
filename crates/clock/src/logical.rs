//! Logical clocks `C_p = H_p + adj_p` and biases `B_p(τ) = C_p(τ) − τ`.
//!
//! The processor can only do two things with its clock (paper, Section 2.1):
//! read `H_p(τ) + adj_p`, and add an arbitrary value to `adj_p`. The
//! adversary, while controlling a processor, may set `adj_p` to anything.
//! Both operations are modelled here; the *bias* view (Section 4.2) is what
//! the analysis and our metrics use.

use byzclock_sim::{RealTime, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

use crate::hardware::HardwareClock;
use crate::LocalTime;

/// The bias of a clock at some instant: `B_p(τ) = C_p(τ) − τ`, in seconds.
///
/// Biases are points on the bias axis of the paper's `(τ, β)`-plane;
/// differences of biases are plain `f64` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Bias(f64);

impl Bias {
    /// Zero bias: the clock agrees with real time.
    pub const ZERO: Bias = Bias(0.0);

    /// Creates a bias from seconds.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "Bias must not be NaN");
        Bias(secs)
    }

    /// The bias in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for Bias {}
impl PartialOrd for Bias {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bias {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Sub for Bias {
    type Output = f64;
    /// Difference between two biases, in seconds.
    fn sub(self, rhs: Bias) -> f64 {
        self.0 - rhs.0
    }
}

impl Add<f64> for Bias {
    type Output = Bias;
    fn add(self, rhs: f64) -> Bias {
        Bias(self.0 + rhs)
    }
}

impl Sub<f64> for Bias {
    type Output = Bias;
    fn sub(self, rhs: f64) -> Bias {
        Bias(self.0 - rhs)
    }
}

impl fmt::Display for Bias {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6}s", self.0)
    }
}

/// An in-progress gradual correction (NTP-style *slew*): instead of
/// stepping `adj` discontinuously, the remaining delta is folded in at a
/// bounded rate (local seconds per real second), keeping the logical clock
/// continuous — and, for rates below the hardware rate, monotone.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SlewState {
    /// When the slew started.
    start: RealTime,
    /// Total signed correction being slewed in, seconds.
    total: f64,
    /// Magnitude of the correction rate, local seconds per real second.
    rate: f64,
}

impl SlewState {
    /// Portion of `total` applied by real time `tau` (signed).
    fn applied(&self, tau: RealTime) -> f64 {
        let elapsed = (tau - self.start).as_secs().max(0.0);
        let magnitude = (self.rate * elapsed).min(self.total.abs());
        magnitude.copysign(self.total)
    }

    /// True iff fully folded in by `tau`.
    fn done(&self, tau: RealTime) -> bool {
        self.applied(tau) == self.total
    }
}

/// A full local clock: hardware clock plus adjustment variable.
///
/// ```
/// use byzclock_clock::{HardwareClock, LogicalClock};
/// use byzclock_sim::{RealTime, SimDuration};
///
/// let mut clock = LogicalClock::with_adjustment(HardwareClock::new(1.0), SimDuration::ZERO);
/// let tau = RealTime::from_secs(100.0);
/// assert_eq!(clock.read(tau).as_secs(), 100.0);
/// clock.adjust(SimDuration::from_secs(-3.0));
/// assert_eq!(clock.read(tau).as_secs(), 97.0);
/// assert_eq!(clock.bias(tau).as_secs(), -3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalClock {
    hardware: HardwareClock,
    adj: f64,
    slew: Option<SlewState>,
}

impl LogicalClock {
    /// Wraps a hardware clock with an initial adjustment (e.g. to start the
    /// system with dispersed clocks).
    pub fn with_adjustment(hardware: HardwareClock, adj: SimDuration) -> Self {
        LogicalClock {
            hardware,
            adj: adj.as_secs(),
            slew: None,
        }
    }

    /// Reads the logical clock: `C(τ) = H(τ) + adj (+ slew progress)`.
    pub fn read(&self, real_now: RealTime) -> LocalTime {
        let slewed = self.slew.map_or(0.0, |s| s.applied(real_now));
        LocalTime::from_secs(self.hardware.read(real_now).as_secs() + self.adj + slewed)
    }

    /// The bias `B(τ) = C(τ) − τ`.
    pub fn bias(&self, real_now: RealTime) -> Bias {
        Bias::from_secs(self.read(real_now).as_secs() - real_now.as_secs())
    }

    /// Adds `delta` to the adjustment variable (the only clock mutation the
    /// correct protocol performs; paper Figure 1 line 11/12).
    pub fn adjust(&mut self, delta: SimDuration) {
        self.adj += delta.as_secs();
    }

    /// Applies `delta` gradually at (absolute) rate `max_rate` local
    /// seconds per real second, starting now — the NTP-style *slew*
    /// discipline. Any in-progress slew is folded in up to `real_now`
    /// first and its unapplied remainder is **added** to the new target.
    ///
    /// For `max_rate < ` the hardware rate, the logical clock stays
    /// monotone even while slewing backwards.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate` is not positive and finite.
    pub fn slew(&mut self, real_now: RealTime, delta: SimDuration, max_rate: f64) {
        assert!(
            max_rate.is_finite() && max_rate > 0.0,
            "slew rate must be positive finite"
        );
        let pending = self.fold_slew(real_now);
        let total = delta.as_secs() + pending;
        if total != 0.0 {
            self.slew = Some(SlewState {
                start: real_now,
                total,
                rate: max_rate,
            });
        }
    }

    /// Folds completed/partial slew progress into `adj` and returns the
    /// *unapplied* remainder (signed seconds).
    fn fold_slew(&mut self, real_now: RealTime) -> f64 {
        let Some(s) = self.slew.take() else {
            return 0.0;
        };
        let applied = s.applied(real_now);
        self.adj += applied;
        s.total - applied
    }

    /// Overwrites the adjustment so that the clock reads `target` at
    /// `real_now`. This models the **adversary** resetting a corrupted
    /// processor's clock to an arbitrary value. Cancels any in-progress
    /// slew.
    pub fn sabotage_to(&mut self, real_now: RealTime, target: LocalTime) {
        self.slew = None;
        self.adj = target.as_secs() - self.hardware.read(real_now).as_secs();
    }

    /// Exact real time at which the *logical* clock reaches `target`,
    /// accounting for any in-progress slew (the logical clock is piecewise
    /// linear: hardware rate ± slew rate until the slew completes, then
    /// hardware rate). Returns `real_now` if already reached.
    ///
    /// # Panics
    ///
    /// Panics if the clock would never reach `target` (slew rate ≥
    /// hardware rate while slewing backwards — the builder prevents this).
    pub fn real_time_reaching_logical(&self, real_now: RealTime, target: LocalTime) -> RealTime {
        let now_value = self.read(real_now).as_secs();
        if target.as_secs() <= now_value {
            return real_now;
        }
        let hw_rate = self.hardware.rate();
        if let Some(s) = self.slew {
            if !s.done(real_now) {
                // combined rate during the slew segment
                let slew_rate = s.rate.copysign(s.total);
                let combined = hw_rate + slew_rate;
                assert!(
                    combined > 0.0,
                    "slew rate must stay below the hardware rate"
                );
                let remaining_slew = (s.total - s.applied(real_now)).abs();
                let segment_real = remaining_slew / s.rate;
                let segment_gain = combined * segment_real;
                let need = target.as_secs() - now_value;
                if need <= segment_gain {
                    return real_now + SimDuration::from_secs(need / combined);
                }
                // finish the slew, then plain hardware rate
                let after_segment = need - segment_gain;
                return real_now + SimDuration::from_secs(segment_real + after_segment / hw_rate);
            }
        }
        real_now + SimDuration::from_secs((target.as_secs() - now_value) / hw_rate)
    }

    /// Mutable access to the underlying hardware clock (drift changes).
    pub fn hardware_mut(&mut self) -> &mut HardwareClock {
        &mut self.hardware
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LogicalClock {
        /// Wraps a hardware clock with adjustment 0.
        pub(crate) fn new(hardware: HardwareClock) -> Self {
            LogicalClock::with_adjustment(hardware, SimDuration::ZERO)
        }

        /// True iff a gradual correction is still in progress.
        fn is_slewing(&self, real_now: RealTime) -> bool {
            self.slew.is_some_and(|s| !s.done(real_now))
        }
    }

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
    }

    #[test]
    fn read_is_hw_plus_adj() {
        let mut c = LogicalClock::new(HardwareClock::new(1.0));
        c.adjust(SimDuration::from_secs(5.0));
        assert_eq!(c.read(t(10.0)).as_secs(), 15.0);
    }

    #[test]
    fn bias_tracks_deviation_from_real_time() {
        let c = LogicalClock::new(HardwareClock::new(1.001));
        let b = c.bias(t(1000.0));
        assert!((b.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn with_adjustment_initializer() {
        let c = LogicalClock::with_adjustment(HardwareClock::new(1.0), SimDuration::from_secs(7.0));
        assert_eq!(c.bias(t(0.0)).as_secs(), 7.0);
    }

    #[test]
    fn adjust_accumulates() {
        let mut c = LogicalClock::new(HardwareClock::new(1.0));
        c.adjust(SimDuration::from_secs(3.0));
        c.adjust(SimDuration::from_secs(-1.0));
        assert_eq!(c.bias(t(0.0)).as_secs(), 2.0);
    }

    #[test]
    fn sabotage_sets_exact_reading() {
        let mut c = LogicalClock::new(HardwareClock::new(1.0));
        c.sabotage_to(t(50.0), LocalTime::from_secs(1234.5));
        assert_eq!(c.read(t(50.0)).as_secs(), 1234.5);
    }

    #[test]
    fn bias_ordering_and_arithmetic() {
        let a = Bias::from_secs(1.0);
        let b = Bias::from_secs(3.0);
        assert!(a < b);
        assert_eq!(b - a, 2.0);
        assert_eq!((a + 0.5).as_secs(), 1.5);
        assert_eq!((b - 0.5).as_secs(), 2.5);
    }

    #[test]
    fn bias_display() {
        assert_eq!(format!("{}", Bias::from_secs(0.5)), "+0.500000s");
        assert_eq!(format!("{}", Bias::from_secs(-0.5)), "-0.500000s");
    }

    #[test]
    fn slew_applies_gradually_and_completes() {
        let mut c = LogicalClock::new(HardwareClock::new(1.0));
        // slew +1 s at 0.1 local-s per real-s starting at t=10
        c.slew(t(10.0), SimDuration::from_secs(1.0), 0.1);
        assert!((c.read(t(10.0)).as_secs() - 10.0).abs() < 1e-12);
        assert!(c.is_slewing(t(12.0)));
        // at t=15: 0.5 s applied
        assert!((c.read(t(15.0)).as_secs() - 15.5).abs() < 1e-12);
        // at t=20: fully applied (10 s * 0.1 = 1.0)
        assert!((c.read(t(20.0)).as_secs() - 21.0).abs() < 1e-12);
        assert!(!c.is_slewing(t(20.0)));
        // stays applied afterwards
        assert!((c.read(t(30.0)).as_secs() - 31.0).abs() < 1e-12);
    }

    #[test]
    fn slew_backwards_keeps_clock_monotone() {
        let mut c = LogicalClock::new(HardwareClock::new(1.0));
        c.slew(t(0.0), SimDuration::from_secs(-2.0), 0.5);
        let mut prev = c.read(t(0.0));
        for i in 1..100 {
            let now = c.read(t(i as f64 * 0.1));
            assert!(now >= prev, "clock ran backwards during slew");
            prev = now;
        }
        // net effect present
        assert!((c.read(t(10.0)).as_secs() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn new_slew_folds_pending_remainder() {
        let mut c = LogicalClock::new(HardwareClock::new(1.0));
        c.slew(t(0.0), SimDuration::from_secs(1.0), 0.1);
        // at t=5 only 0.5 applied; issue another +1 slew
        c.slew(t(5.0), SimDuration::from_secs(1.0), 0.1);
        // total outstanding at t=5: 0.5 (remainder) + 1.0 = 1.5
        // fully applied by t = 5 + 15 = 20
        assert!((c.read(t(20.0)).as_secs() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn inversion_with_slew_is_exact() {
        let mut c = LogicalClock::new(HardwareClock::new(1.0));
        c.slew(t(0.0), SimDuration::from_secs(1.0), 0.1);
        // target inside the slew segment
        let target = LocalTime::from_secs(5.5); // reached when τ(1.1) = 5.5 → τ = 5
        let when = c.real_time_reaching_logical(t(0.0), target);
        assert!((c.read(when).as_secs() - 5.5).abs() < 1e-9);
        assert!((when.as_secs() - 5.0).abs() < 1e-9);
        // target beyond the slew segment
        let target = LocalTime::from_secs(30.0);
        let when = c.real_time_reaching_logical(t(0.0), target);
        assert!((c.read(when).as_secs() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn inversion_without_slew_matches_hardware() {
        let c = LogicalClock::new(HardwareClock::new(2.0));
        let when = c.real_time_reaching_logical(t(0.0), LocalTime::from_secs(10.0));
        assert!((when.as_secs() - 5.0).abs() < 1e-12);
        // already reached
        assert_eq!(
            c.real_time_reaching_logical(t(10.0), LocalTime::from_secs(5.0)),
            t(10.0)
        );
    }

    #[test]
    fn sabotage_cancels_slew() {
        let mut c = LogicalClock::new(HardwareClock::new(1.0));
        c.slew(t(0.0), SimDuration::from_secs(100.0), 0.1);
        c.sabotage_to(t(1.0), LocalTime::from_secs(50.0));
        assert!(!c.is_slewing(t(2.0)));
        assert!((c.read(t(2.0)).as_secs() - 51.0).abs() < 1e-12);
    }

    #[test]
    fn drifting_clock_bias_grows_linearly() {
        let c = LogicalClock::new(HardwareClock::new(1.0 + 1e-4));
        let b1 = c.bias(t(100.0)).as_secs();
        let b2 = c.bias(t(200.0)).as_secs();
        assert!((b2 - 2.0 * b1).abs() < 1e-9, "bias should grow linearly");
    }
}
