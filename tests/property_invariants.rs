//! Property-based tests over the full stack: protocol invariants must hold
//! for arbitrary seeds, parameters and adversary schedules (within the
//! model's legal region).

use byzclock::prelude::*;
use byzclock::sim::RngHub;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full simulation
        .. ProptestConfig::default()
    })]

    /// Quiet networks always converge below gamma, for any seed, any legal
    /// (n, f) and any initial dispersion within gamma.
    #[test]
    fn quiet_network_respects_gamma(
        seed in 0u64..1000,
        f in 1usize..3,
        extra in 0usize..3,
        spread_frac in 0.05f64..0.45,
    ) {
        let n = 3 * f + 1 + extra;
        let mut world = WorldBuilder::new(n, f)
            .seed(seed)
            .delta(SimDuration::from_millis(10.0))
            .big_delta(SimDuration::from_secs(60.0))
            .initial_bias_spread(spread_frac * 0.18)
            .build()
            .unwrap();
        let gamma = world.bounds().unwrap().gamma;
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(RealTime::from_secs(180.0));
        let max = log.max_deviation(RealTime::from_secs(60.0)).unwrap();
        prop_assert!(max <= gamma, "seed {}: {} > {}", seed, max, gamma);
    }

    /// The random churn generator always satisfies Definition 2, for any
    /// parameters.
    #[test]
    fn random_churn_is_always_f_limited(
        seed in 0u64..10_000,
        f in 1usize..4,
        extra in 0usize..5,
        hold_frac in 0.1f64..1.0,
    ) {
        let n = 3 * f + 1 + extra.max(f); // ensure n >= 2f
        let big_delta = SimDuration::from_secs(50.0);
        let horizon = RealTime::from_secs(2000.0);
        let mut rng = RngHub::new(seed).stream("prop-churn", 0);
        let schedule = CorruptionSchedule::random_churn(
            n,
            f,
            SimDuration::from_secs(1.0),
            SimDuration::from_secs(1.0 + hold_frac * 40.0),
            big_delta,
            horizon,
            &mut rng,
        );
        prop_assert!(schedule.verify_f_limited(f, big_delta, horizon).is_ok());
    }

    /// The rotating generator also always satisfies Definition 2.
    #[test]
    fn rotating_churn_is_always_f_limited(
        f in 1usize..4,
        extra in 0usize..4,
        hold_frac in 0.1f64..1.5,
        stagger_frac in 0.0f64..0.9,
    ) {
        let n = (3 * f + 1 + extra).max(2 * f);
        let big_delta = SimDuration::from_secs(30.0);
        let horizon = RealTime::from_secs(1500.0);
        let schedule = CorruptionSchedule::rotating(
            n,
            f,
            SimDuration::from_secs(hold_frac * 30.0),
            big_delta,
            horizon,
            big_delta * stagger_frac,
        );
        prop_assert!(schedule.verify_f_limited(f, big_delta, horizon).is_ok());
    }

    /// Recovery completes within Delta for any sabotage offset and any
    /// strategy among the reply-capable ones.
    #[test]
    fn recovery_always_within_delta(
        seed in 0u64..500,
        offset_exp in 0.0f64..4.0,
        negative in proptest::bool::ANY,
    ) {
        let offset = 10f64.powf(offset_exp) * if negative { -1.0 } else { 1.0 };
        let big_delta = 60.0;
        let victim = ProcId(6);
        let schedule = CorruptionSchedule::single(
            victim,
            RealTime::from_secs(big_delta),
            SimDuration::from_secs(big_delta / 2.0),
        );
        let mut world = WorldBuilder::new(7, 2)
            .seed(seed)
            .delta(SimDuration::from_millis(10.0))
            .big_delta(SimDuration::from_secs(big_delta))
            .adversary(Adversary::new(
                schedule,
                Box::new(ConstantOffsetStrategy::new(offset)),
            ))
            .build()
            .unwrap();
        let gamma = world.bounds().unwrap().gamma;
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(RealTime::from_secs(big_delta * 3.0));
        let latencies = log.latencies(gamma);
        prop_assert_eq!(latencies.len(), 1);
        prop_assert!(latencies[0] <= big_delta,
            "offset {}: latency {}", offset, latencies[0]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Derived parameters always satisfy the builder constraints and the
    /// Theorem 5 consistency identities, over a wide model space.
    #[test]
    fn derived_parameters_are_internally_consistent(
        delta_ms in 0.1f64..100.0,
        rho_exp in -7.0f64..-3.0,
        k in 5u32..40,
        f in 1usize..5,
    ) {
        use byzclock::core::NetworkModel;
        let rho = 10f64.powf(rho_exp);
        let delta = SimDuration::from_millis(delta_ms);
        // Delta chosen large enough for any K in range.
        let big_delta = SimDuration::from_secs(
            (k as f64) * delta.as_secs() * 2.0 * (2.0 * (1.0 + rho) + 2.0) * 1.01,
        );
        let model = NetworkModel {
            delta,
            rho,
            lambda: NetworkModel::natural_lambda(delta, rho),
            big_delta,
        };
        let n = 3 * f + 1;
        let derived = model.derive(n, f, k).unwrap();
        let p = derived.params;
        let b = derived.bounds;
        // constraints
        prop_assert!(p.sync_int() >= p.max_wait() * 2.0);
        prop_assert!(p.max_wait() == delta * 2.0);
        // T identity
        let t = (1.0 + rho) * p.sync_int().as_secs() + 2.0 * p.max_wait().as_secs();
        prop_assert!((t - b.t.as_secs()).abs() < 1e-6 * t);
        // gamma identities
        let rho_t = rho * b.t.as_secs();
        prop_assert!((b.gamma - (16.0 * model.lambda + 18.0 * rho_t + 4.0 * b.c)).abs()
            < 1e-9 * b.gamma);
        prop_assert!((b.gamma - (2.0 * b.d + 2.0 * rho_t)).abs() < 1e-9 * b.gamma);
        prop_assert!(b.way_off > b.gamma);
        prop_assert!(b.logical_drift >= rho);
    }
}
