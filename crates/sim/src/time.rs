//! Simulation time newtypes.
//!
//! The paper reasons about a real-time axis `τ` and about durations on that
//! axis. Both are represented here as `f64` seconds wrapped in newtypes so
//! that real times and durations cannot be confused ([`RealTime`] +
//! [`SimDuration`] = [`RealTime`], but `RealTime + RealTime` does not
//! compile). Local (logical) clock readings get their own newtype in the
//! `byzclock-clock` crate.
//!
//! All comparisons use `f64::total_cmp`, so the types are [`Ord`] and can be
//! used directly as priority-queue keys. Constructors debug-assert that a
//! value is not NaN; infinities are allowed.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point on the real-time axis `τ`, in seconds since simulation start.
///
/// `RealTime` is totally ordered (via `total_cmp`) and supports arithmetic
/// with [`SimDuration`]:
///
/// ```
/// use byzclock_sim::{RealTime, SimDuration};
/// let t = RealTime::ZERO + SimDuration::from_secs(1.5);
/// assert_eq!(t.as_secs(), 1.5);
/// assert_eq!(t - RealTime::ZERO, SimDuration::from_secs(1.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RealTime(f64);

/// A span of real time, in seconds.
///
/// Durations may be negative (useful for offsets in intermediate
/// computations) but most APIs expect non-negative spans; those document
/// their panics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimDuration(f64);

impl RealTime {
    /// The origin of simulated time.
    pub const ZERO: RealTime = RealTime(0.0);

    /// Creates a real-time point from seconds.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `secs` is not NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "RealTime must not be NaN");
        RealTime(secs)
    }

    /// Returns the time as seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the later of `self` and `other`.
    #[inline]
    pub fn max(self, other: RealTime) -> RealTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of `self` and `other`.
    #[inline]
    pub fn min(self, other: RealTime) -> RealTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `secs` is not NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimDuration must not be NaN");
        SimDuration(secs)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us / 1e6)
    }

    /// Returns the duration as seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Absolute value of the duration.
    #[inline]
    pub fn abs(self) -> SimDuration {
        SimDuration(self.0.abs())
    }

    /// True iff the duration is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// True iff strictly negative.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Clamps into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "clamp: lo > hi");
        self.max(lo).min(hi)
    }
}

macro_rules! impl_total_ord {
    ($ty:ident) => {
        impl Eq for $ty {}
        impl PartialOrd for $ty {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for $ty {
            #[inline]
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }
    };
}

impl_total_ord!(RealTime);
impl_total_ord!(SimDuration);

impl Default for RealTime {
    fn default() -> Self {
        RealTime::ZERO
    }
}

impl Default for SimDuration {
    fn default() -> Self {
        SimDuration::ZERO
    }
}

impl Add<SimDuration> for RealTime {
    type Output = RealTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> RealTime {
        RealTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for RealTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for RealTime {
    type Output = RealTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> RealTime {
        RealTime(self.0 - rhs.0)
    }
}

impl Sub<RealTime> for RealTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: RealTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Neg for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn neg(self) -> SimDuration {
        SimDuration(-self.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for RealTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "{}inf", if self.0 < 0.0 { "-" } else { "" })
        } else if self.0.abs() >= 1.0 {
            write!(f, "{:.6}s", self.0)
        } else if self.0.abs() >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_add_duration() {
        let t = RealTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t, RealTime::from_secs(15.0));
    }

    #[test]
    fn realtime_sub_realtime_gives_duration() {
        let d = RealTime::from_secs(10.0) - RealTime::from_secs(4.0);
        assert_eq!(d, SimDuration::from_secs(6.0));
    }

    #[test]
    fn realtime_since_negative() {
        let d = RealTime::from_secs(1.0) - RealTime::from_secs(3.0);
        assert!(d.is_negative());
        assert_eq!(d.as_secs(), -2.0);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimDuration::from_micros(2_000_000.0).as_secs(), 2.0);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(3.0);
        let b = SimDuration::from_secs(1.0);
        assert_eq!(a + b, SimDuration::from_secs(4.0));
        assert_eq!(a - b, SimDuration::from_secs(2.0));
        assert_eq!(-b, SimDuration::from_secs(-1.0));
        assert_eq!(a * 2.0, SimDuration::from_secs(6.0));
        assert_eq!(a / 2.0, SimDuration::from_secs(1.5));
        assert_eq!(a / b, 3.0);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total, SimDuration::from_secs(10.0));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            RealTime::from_secs(3.0),
            RealTime::from_secs(-1.0),
            RealTime::from_secs(0.0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                RealTime::from_secs(-1.0),
                RealTime::from_secs(0.0),
                RealTime::from_secs(3.0)
            ]
        );
    }

    #[test]
    fn min_max() {
        let a = RealTime::from_secs(1.0);
        let b = RealTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1.0);
        let y = SimDuration::from_secs(2.0);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn infinite_duration_behaves() {
        let infinite = SimDuration::from_secs(f64::INFINITY);
        assert!(!infinite.is_finite());
        assert!(SimDuration::from_secs(1e300) < infinite);
        let t = RealTime::ZERO + infinite;
        assert!(t > RealTime::from_secs(f64::MAX / 2.0));
    }

    #[test]
    fn clamp_works() {
        let d = SimDuration::from_secs(5.0);
        assert_eq!(
            d.clamp(SimDuration::ZERO, SimDuration::from_secs(2.0)),
            SimDuration::from_secs(2.0)
        );
        assert_eq!(
            d.clamp(SimDuration::from_secs(6.0), SimDuration::from_secs(9.0)),
            SimDuration::from_secs(6.0)
        );
    }

    #[test]
    #[should_panic(expected = "clamp")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = SimDuration::ZERO.clamp(SimDuration::from_secs(2.0), SimDuration::from_secs(1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(1.5)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2.0)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(3.0)), "3.000us");
        assert_eq!(format!("{}", SimDuration::from_secs(f64::INFINITY)), "inf");
        assert_eq!(format!("{}", RealTime::from_secs(1.0)), "1.000000s");
    }

    #[test]
    fn abs_negate() {
        assert_eq!(
            SimDuration::from_secs(-2.0).abs(),
            SimDuration::from_secs(2.0)
        );
    }

    #[test]
    fn serde_roundtrip_shape() {
        // serde(transparent): serializes as a bare number.
        let t = RealTime::from_secs(4.25);
        let json = serde_json_like(t.as_secs());
        assert_eq!(json, "4.25");
    }

    fn serde_json_like(v: f64) -> String {
        // tiny stand-in to avoid a serde_json dev-dependency here
        format!("{}", v)
    }
}
