//! Drift: how hardware-clock rates wander inside the ρ-envelope.
//!
//! The paper only assumes Equation 2 — every hardware clock's rate stays
//! within `[1/(1+ρ), 1+ρ]`. *How* a clock wanders inside that envelope is
//! unspecified, so the simulator offers a random constant rate
//! ([`random_rate`]) and a bounded random walk from it ([`RandomWalk`]).
//! Both keep every rate inside the bound; the runtime additionally
//! debug-asserts it.

use byzclock_sim::{DetRng, RealTime, SimDuration};

/// The lower rate bound of Equation 2, `1/(1+ρ)`.
pub fn min_rate(rho: f64) -> f64 {
    1.0 / (1.0 + rho)
}

/// The upper rate bound of Equation 2, `1+ρ`.
pub fn max_rate(rho: f64) -> f64 {
    1.0 + rho
}

/// A rate drawn uniformly from the ρ-envelope: one draw of `rng`. It gives
/// each processor a distinct fixed skew, and starts a [`RandomWalk`].
///
/// ```
/// use byzclock_clock::drift::{max_rate, min_rate, random_rate};
/// use byzclock_sim::RngHub;
///
/// let mut rng = RngHub::new(0).stream("drift", 0);
/// let rate = random_rate(1e-4, &mut rng);
/// assert!((min_rate(1e-4)..=max_rate(1e-4)).contains(&rate));
/// ```
pub fn random_rate(rho: f64, rng: &mut DetRng) -> f64 {
    rng.uniform(min_rate(rho), max_rate(rho))
}

/// A bounded random walk: every `interval`, the rate takes a Gaussian step
/// and is clamped into the ρ-envelope.
#[derive(Debug, Clone, Copy)]
pub struct RandomWalk {
    rho: f64,
    step_std: f64,
    interval: SimDuration,
}

impl RandomWalk {
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
        RandomWalk {
            rho,
            step_std,
            interval,
        }
    }

    /// The step after a clock ran at `rate` until `now`: when the rate
    /// next changes, and to what. One normal draw of `rng`.
    pub fn next_change(&self, now: RealTime, rate: f64, rng: &mut DetRng) -> (RealTime, f64) {
        let next = rate + rng.normal_with(0.0, self.step_std);
        (
            now + self.interval,
            next.clamp(min_rate(self.rho), max_rate(self.rho)),
        )
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
    fn constant_random_within_respects_envelope() {
        let rho = 1e-4;
        let mut r = rng();
        for _ in 0..100 {
            let rate = random_rate(rho, &mut r);
            assert!((min_rate(rho)..=max_rate(rho)).contains(&rate));
        }
    }

    #[test]
    fn random_walk_stays_in_envelope() {
        let rho = 1e-4;
        let walk = RandomWalk::new(rho, 1e-4, SimDuration::from_secs(1.0));
        let mut r = rng();
        let mut rate = random_rate(rho, &mut r);
        let mut now = RealTime::ZERO;
        for _ in 0..10_000 {
            let (when, new_rate) = walk.next_change(now, rate, &mut r);
            assert!(when > now);
            assert!(
                (min_rate(rho)..=max_rate(rho)).contains(&new_rate),
                "rate {new_rate} escaped envelope"
            );
            now = when;
            rate = new_rate;
        }
    }

    #[test]
    fn random_walk_changes_are_spaced_by_interval() {
        let walk = RandomWalk::new(1e-3, 1e-5, SimDuration::from_secs(5.0));
        let mut r = rng();
        let rate = random_rate(1e-3, &mut r);
        let (t1, rate) = walk.next_change(RealTime::ZERO, rate, &mut r);
        assert_eq!(t1, RealTime::from_secs(5.0));
        let (t2, _) = walk.next_change(t1, rate, &mut r);
        assert_eq!(t2, RealTime::from_secs(10.0));
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn random_walk_zero_interval_panics() {
        RandomWalk::new(1e-4, 1e-5, SimDuration::ZERO);
    }
}
