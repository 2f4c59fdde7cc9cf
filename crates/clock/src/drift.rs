//! Drift models: generators of hardware-clock rate schedules.
//!
//! The paper only assumes Equation 2 — every hardware clock's rate stays
//! within `[1/(1+ρ), 1+ρ]`. *How* a clock wanders inside that envelope is
//! unspecified, so the simulator offers two models: a constant rate and a
//! bounded random walk. Both guarantee the returned rates respect the
//! bound; the runtime additionally debug-asserts it.

use byzclock_sim::{DetRng, RealTime, SimDuration};

/// The lower rate bound of Equation 2, `1/(1+ρ)`.
pub fn min_rate(rho: f64) -> f64 {
    1.0 / (1.0 + rho)
}

/// The upper rate bound of Equation 2, `1+ρ`.
pub fn max_rate(rho: f64) -> f64 {
    1.0 + rho
}

/// A generator of one processor's hardware rate schedule.
///
/// The runtime calls [`DriftModel::initial_rate`] once at start-up, then
/// repeatedly [`DriftModel::next_change`] to learn when the rate next
/// changes and to what value. Returning `None` means the rate is constant
/// forever after.
pub trait DriftModel: std::fmt::Debug + Send {
    /// The drift bound ρ this model was configured with (for validation).
    fn rho(&self) -> f64;

    /// The rate at time zero.
    fn initial_rate(&mut self, rng: &mut DetRng) -> f64;

    /// The next rate change strictly after `now`: `(when, new_rate)`.
    fn next_change(&mut self, now: RealTime, rng: &mut DetRng) -> Option<(RealTime, f64)>;
}

/// A clock that ticks at a fixed rate forever.
///
/// ```
/// use byzclock_clock::{ConstantDrift, DriftModel};
/// use byzclock_sim::{RngHub, RealTime};
///
/// let mut m = ConstantDrift::new(1e-4, 1.00005);
/// let mut rng = RngHub::new(0).stream("drift", 0);
/// assert_eq!(m.initial_rate(&mut rng), 1.00005);
/// assert!(m.next_change(RealTime::ZERO, &mut rng).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ConstantDrift {
    rho: f64,
    rate: f64,
}

impl ConstantDrift {
    /// Fixed `rate`, validated against drift bound `rho`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[1/(1+ρ), 1+ρ]`.
    pub fn new(rho: f64, rate: f64) -> Self {
        assert!(
            (min_rate(rho)..=max_rate(rho)).contains(&rate),
            "rate {rate} outside drift envelope for rho={rho}"
        );
        ConstantDrift { rho, rate }
    }

    /// A clock pinned at a random rate inside the envelope (constant
    /// thereafter). Useful for giving each processor a distinct skew.
    pub fn random_within(rho: f64, rng: &mut DetRng) -> Self {
        let rate = rng.uniform(min_rate(rho), max_rate(rho));
        ConstantDrift { rho, rate }
    }
}

impl DriftModel for ConstantDrift {
    fn rho(&self) -> f64 {
        self.rho
    }
    fn initial_rate(&mut self, _rng: &mut DetRng) -> f64 {
        self.rate
    }
    fn next_change(&mut self, _now: RealTime, _rng: &mut DetRng) -> Option<(RealTime, f64)> {
        None
    }
}

/// A bounded random walk: every `interval`, the rate takes a Gaussian step
/// and is clamped into the envelope.
#[derive(Debug, Clone)]
pub struct RandomWalkDrift {
    rho: f64,
    step_std: f64,
    interval: SimDuration,
    current: f64,
    initialized: bool,
}

impl RandomWalkDrift {
    /// Random walk with steps of standard deviation `step_std` every
    /// `interval`, clamped to the ρ-envelope.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive or `step_std` is negative.
    pub fn new(rho: f64, step_std: f64, interval: SimDuration) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "random walk interval must be positive"
        );
        assert!(step_std >= 0.0, "step_std must be non-negative");
        RandomWalkDrift {
            rho,
            step_std,
            interval,
            current: 1.0,
            initialized: false,
        }
    }
}

impl DriftModel for RandomWalkDrift {
    fn rho(&self) -> f64 {
        self.rho
    }

    fn initial_rate(&mut self, rng: &mut DetRng) -> f64 {
        self.current = rng.uniform(min_rate(self.rho), max_rate(self.rho));
        self.initialized = true;
        self.current
    }

    fn next_change(&mut self, now: RealTime, rng: &mut DetRng) -> Option<(RealTime, f64)> {
        debug_assert!(self.initialized, "initial_rate must be called first");
        let next = self.current + rng.normal_with(0.0, self.step_std);
        self.current = next.clamp(min_rate(self.rho), max_rate(self.rho));
        Some((now + self.interval, self.current))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_sim::RngHub;

    fn rng() -> DetRng {
        RngHub::new(99).stream("drift-test", 0)
    }

    #[test]
    fn envelope_bounds() {
        let rho = 1e-3;
        assert!(min_rate(rho) < 1.0 && 1.0 < max_rate(rho));
        assert!((min_rate(rho) * max_rate(rho) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_drift_never_changes() {
        let mut m = ConstantDrift::new(1e-4, 1.00003);
        let mut r = rng();
        assert_eq!(m.initial_rate(&mut r), 1.00003);
        assert!(m.next_change(RealTime::ZERO, &mut r).is_none());
    }

    #[test]
    #[should_panic(expected = "envelope")]
    fn constant_outside_envelope_panics() {
        ConstantDrift::new(1e-6, 1.1);
    }

    #[test]
    fn constant_random_within_respects_envelope() {
        let rho = 1e-4;
        let mut r = rng();
        for i in 0..100 {
            let _ = i;
            let mut m = ConstantDrift::random_within(rho, &mut r);
            let rate = m.initial_rate(&mut r);
            assert!((min_rate(rho)..=max_rate(rho)).contains(&rate));
        }
    }

    #[test]
    fn random_walk_stays_in_envelope() {
        let rho = 1e-4;
        let mut m = RandomWalkDrift::new(rho, 1e-4, SimDuration::from_secs(1.0));
        let mut r = rng();
        let mut rate = m.initial_rate(&mut r);
        let mut now = RealTime::ZERO;
        for _ in 0..10_000 {
            let (when, new_rate) = m.next_change(now, &mut r).unwrap();
            assert!(when > now);
            assert!(
                (min_rate(rho)..=max_rate(rho)).contains(&new_rate),
                "rate {new_rate} escaped envelope"
            );
            now = when;
            rate = new_rate;
        }
        let _ = rate;
    }

    #[test]
    fn random_walk_changes_are_spaced_by_interval() {
        let mut m = RandomWalkDrift::new(1e-3, 1e-5, SimDuration::from_secs(5.0));
        let mut r = rng();
        m.initial_rate(&mut r);
        let (t1, _) = m.next_change(RealTime::ZERO, &mut r).unwrap();
        assert_eq!(t1, RealTime::from_secs(5.0));
        let (t2, _) = m.next_change(t1, &mut r).unwrap();
        assert_eq!(t2, RealTime::from_secs(10.0));
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn random_walk_zero_interval_panics() {
        RandomWalkDrift::new(1e-4, 1e-5, SimDuration::ZERO);
    }

    #[test]
    fn rho_accessors() {
        assert_eq!(ConstantDrift::new(1e-4, 1.0).rho(), 1e-4);
        assert_eq!(
            RandomWalkDrift::new(2e-4, 0.0, SimDuration::from_secs(1.0)).rho(),
            2e-4
        );
    }
}
