//! Clock models for the byzclock reproduction.
//!
//! The paper (Section 2.1, Definition 1) views each processor `p`'s local
//! clock as the sum of an unresettable **hardware clock** `H_p(τ)` — a
//! smooth, monotonically increasing function of real time whose rate is
//! within `[1/(1+ρ), 1+ρ]` of real time — and a resettable **adjustment
//! variable** `adj_p`:
//!
//! ```text
//! C_p(τ) = H_p(τ) + adj_p
//! ```
//!
//! This crate models exactly that decomposition:
//!
//! * [`LocalTime`] — newtype for values read off a local clock (distinct
//!   from the simulator's [`RealTime`](byzclock_sim::RealTime) so the two
//!   axes cannot be confused).
//! * [`HardwareClock`] — piecewise-linear `H_p`, read exactly even when the
//!   rate changes over time.
//! * [`drift`] — how rates wander: a random constant rate
//!   ([`random_rate`]) or a bounded random walk ([`RandomWalk`]), both
//!   inside the drift bound ρ.
//! * [`LogicalClock`] — `H_p + adj_p`, plus the paper's *bias*
//!   `B_p(τ) = C_p(τ) − τ` (Section 4.2) used throughout the analysis. Its
//!   exact inverse (`real_time_reaching_logical`) converts local-time
//!   alarms to real-time events without cumulative error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drift;
pub mod hardware;
pub mod logical;

pub use drift::{random_rate, RandomWalk};
pub use hardware::HardwareClock;
pub use logical::{Bias, LogicalClock};

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use byzclock_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A reading of some processor's local clock, in seconds.
///
/// Distinct from [`byzclock_sim::RealTime`]: local clocks drift and can be
/// adjusted, so the two axes must not be mixed by accident. Differences of
/// local times are [`SimDuration`]s (spans measured on the local axis).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct LocalTime(f64);

impl LocalTime {
    /// The local-time origin.
    pub const ZERO: LocalTime = LocalTime(0.0);

    /// Creates a local time from seconds.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `secs` is not NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "LocalTime must not be NaN");
        LocalTime(secs)
    }

    /// Seconds since the local origin.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for LocalTime {}
impl PartialOrd for LocalTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LocalTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<SimDuration> for LocalTime {
    type Output = LocalTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> LocalTime {
        LocalTime(self.0 + rhs.as_secs())
    }
}

impl AddAssign<SimDuration> for LocalTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_secs();
    }
}

impl Sub<SimDuration> for LocalTime {
    type Output = LocalTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> LocalTime {
        LocalTime(self.0 - rhs.as_secs())
    }
}

impl Sub<LocalTime> for LocalTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: LocalTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl fmt::Display for LocalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s(local)", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_time_arithmetic() {
        let t = LocalTime::from_secs(2.0) + SimDuration::from_secs(0.5);
        assert_eq!(t, LocalTime::from_secs(2.5));
        assert_eq!(t - LocalTime::from_secs(1.0), SimDuration::from_secs(1.5));
        assert_eq!(t - SimDuration::from_secs(0.5), LocalTime::from_secs(2.0));
    }

    #[test]
    fn local_time_ordering() {
        assert!(LocalTime::from_secs(1.0) < LocalTime::from_secs(2.0));
        let mut v = [LocalTime::from_secs(3.0), LocalTime::ZERO];
        v.sort();
        assert_eq!(v[0], LocalTime::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", LocalTime::from_secs(1.0)), "1.000000s(local)");
    }
}
