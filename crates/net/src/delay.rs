//! Message-delay models, all bounded by δ for good links.
//!
//! The paper's analysis uses only the *bound* δ; real networks have richer
//! delay behavior, and the clock-estimation error depends on delay
//! *asymmetry*, so the delay distribution is pluggable. Every model exposes
//! its worst case via [`DelayModel::max_delay`], and [`crate::Network`]
//! (see [`crate::network`]) validates it against the configured δ once at
//! construction.

use byzclock_sim::{DetRng, ProcId, SimDuration};

/// Samples point-to-point message delays.
pub trait DelayModel: std::fmt::Debug + Send {
    /// Samples the delay for one message from `from` to `to`.
    fn sample(&mut self, from: ProcId, to: ProcId, rng: &mut DetRng) -> SimDuration;

    /// The maximum delay this model can ever produce.
    fn max_delay(&self) -> SimDuration;

    /// The minimum delay this model can ever produce.
    fn min_delay(&self) -> SimDuration;
}

/// Every message takes exactly `delay`.
///
/// ```
/// use byzclock_net::{ConstantDelay, DelayModel};
/// use byzclock_sim::{ProcId, RngHub, SimDuration};
///
/// let mut m = ConstantDelay::new(SimDuration::from_millis(5.0));
/// let mut rng = RngHub::new(0).stream("d", 0);
/// assert_eq!(m.sample(ProcId(0), ProcId(1), &mut rng), SimDuration::from_millis(5.0));
/// ```
#[derive(Debug, Clone)]
pub struct ConstantDelay {
    delay: SimDuration,
}

impl ConstantDelay {
    /// Fixed delay; must be non-negative and finite.
    ///
    /// # Panics
    ///
    /// Panics otherwise.
    pub fn new(delay: SimDuration) -> Self {
        assert!(
            !delay.is_negative() && delay.is_finite(),
            "delay must be finite and non-negative"
        );
        ConstantDelay { delay }
    }
}

impl DelayModel for ConstantDelay {
    fn sample(&mut self, _from: ProcId, _to: ProcId, _rng: &mut DetRng) -> SimDuration {
        self.delay
    }
    fn max_delay(&self) -> SimDuration {
        self.delay
    }
    fn min_delay(&self) -> SimDuration {
        self.delay
    }
}

/// Uniform delay in `[min, max]`.
#[derive(Debug, Clone)]
pub struct UniformDelay {
    min: SimDuration,
    max: SimDuration,
}

impl UniformDelay {
    /// Uniform in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min` is negative, either bound is non-finite, or
    /// `min > max`.
    pub fn new(min: SimDuration, max: SimDuration) -> Self {
        assert!(!min.is_negative(), "min delay must be non-negative");
        assert!(min.is_finite() && max.is_finite(), "delays must be finite");
        assert!(min <= max, "min must not exceed max");
        UniformDelay { min, max }
    }
}

impl DelayModel for UniformDelay {
    fn sample(&mut self, _from: ProcId, _to: ProcId, rng: &mut DetRng) -> SimDuration {
        SimDuration::from_secs(rng.uniform(self.min.as_secs(), self.max.as_secs()))
    }
    fn max_delay(&self) -> SimDuration {
        self.max
    }
    fn min_delay(&self) -> SimDuration {
        self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_sim::RngHub;

    fn rng() -> DetRng {
        RngHub::new(3).stream("delay-test", 0)
    }

    fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn constant_is_constant() {
        let mut m = ConstantDelay::new(ms(2.0));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(ProcId(0), ProcId(1), &mut r), ms(2.0));
        }
        assert_eq!(m.max_delay(), ms(2.0));
        assert_eq!(m.min_delay(), ms(2.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn constant_negative_panics() {
        ConstantDelay::new(ms(-1.0));
    }

    #[test]
    fn uniform_within_bounds() {
        let mut m = UniformDelay::new(ms(1.0), ms(3.0));
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.sample(ProcId(0), ProcId(1), &mut r);
            assert!(d >= ms(1.0) && d <= ms(3.0));
        }
    }

    #[test]
    fn uniform_degenerate_interval() {
        let mut m = UniformDelay::new(ms(2.0), ms(2.0));
        assert_eq!(m.sample(ProcId(0), ProcId(1), &mut rng()), ms(2.0));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn uniform_inverted_panics() {
        UniformDelay::new(ms(3.0), ms(1.0));
    }

    #[test]
    fn sampling_is_deterministic_per_stream() {
        let sample = |seed: u64| -> Vec<f64> {
            let mut m = UniformDelay::new(ms(0.0), ms(5.0));
            let mut r = RngHub::new(seed).stream("d", 0);
            (0..32)
                .map(|_| m.sample(ProcId(0), ProcId(1), &mut r).as_secs())
                .collect()
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }
}
