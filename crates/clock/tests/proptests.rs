//! Property-based tests for the clock models.

use byzclock_clock::{random_rate, HardwareClock, LocalTime, LogicalClock};
use byzclock_sim::{RealTime, RngHub, SimDuration};
use proptest::prelude::*;

proptest! {
    /// Hardware clocks are strictly monotone under any positive rate
    /// schedule, and continuous across every rate change.
    #[test]
    fn hardware_monotone_and_continuous(
        rates in proptest::collection::vec(0.01f64..100.0, 1..20),
        step in 0.01f64..10.0,
    ) {
        let mut hw = HardwareClock::new(rates[0]);
        let mut now = 0.0;
        let mut prev_reading = hw.read(RealTime::ZERO);
        for &r in &rates[1..] {
            now += step;
            let before = hw.read(RealTime::from_secs(now));
            hw.set_rate(RealTime::from_secs(now), r);
            let after = hw.read(RealTime::from_secs(now));
            prop_assert!((after.as_secs() - before.as_secs()).abs() < 1e-9,
                "rate change must not jump the clock");
            prop_assert!(after >= prev_reading);
            prev_reading = after;
        }
        // still strictly increasing afterwards
        let later = hw.read(RealTime::from_secs(now + 1.0));
        prop_assert!(later > prev_reading);
    }

    /// Inversion: with no slew in progress, `real_time_reaching_logical`
    /// followed by `read` lands exactly on the target (within float
    /// tolerance), for any hardware rate.
    #[test]
    fn hardware_inversion_is_exact(
        rate in 0.01f64..100.0,
        start in 0.0f64..1e4,
        target_ahead in 0.0f64..1e4,
    ) {
        let clock = LogicalClock::with_adjustment(HardwareClock::new(rate), SimDuration::ZERO);
        let now = RealTime::from_secs(start);
        let target = LocalTime::from_secs(clock.read(now).as_secs() + target_ahead);
        let when = clock.real_time_reaching_logical(now, target);
        prop_assert!(when >= now);
        let value = clock.read(when).as_secs();
        prop_assert!((value - target.as_secs()).abs() < 1e-6,
            "inversion missed: {} vs {}", value, target.as_secs());
    }

    /// Logical clock laws: read = hw + adj; adjust is additive; bias is
    /// read − τ; sabotage sets an exact reading.
    #[test]
    fn logical_clock_laws(
        rate in 0.5f64..2.0,
        adjustments in proptest::collection::vec(-100.0f64..100.0, 0..20),
        tau in 0.0f64..1e4,
        sabotage_to in -1e6f64..1e6,
    ) {
        let mut clock = LogicalClock::with_adjustment(HardwareClock::new(rate), SimDuration::ZERO);
        let t = RealTime::from_secs(tau);
        let mut expected_adj = 0.0;
        for a in &adjustments {
            clock.adjust(SimDuration::from_secs(*a));
            expected_adj += a;
        }
        let read = clock.read(t).as_secs();
        prop_assert!((read - (rate * tau + expected_adj)).abs() < 1e-6);
        prop_assert!((clock.bias(t).as_secs() - (read - tau)).abs() < 1e-9);
        clock.sabotage_to(t, LocalTime::from_secs(sabotage_to));
        prop_assert!((clock.read(t).as_secs() - sabotage_to).abs() < 1e-6);
    }

    /// A random constant rate never leaves the ρ-envelope.
    #[test]
    fn constant_random_rate_in_envelope(seed in any::<u64>(), rho_exp in -7.0f64..-2.0) {
        let rho = 10f64.powf(rho_exp);
        let mut rng = RngHub::new(seed).stream("prop-drift", 0);
        let rate = random_rate(rho, &mut rng);
        prop_assert!(rate >= 1.0 / (1.0 + rho) && rate <= 1.0 + rho);
    }
}
