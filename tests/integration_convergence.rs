//! End-to-end integration: convergence, determinism, and the Theorem 5
//! deviation bound across the full stack (engine + clocks + network +
//! protocol).

use byzclock::prelude::*;

fn base_builder(n: usize, f: usize, seed: u64) -> WorldBuilder {
    WorldBuilder::new(n, f)
        .seed(seed)
        .delta(SimDuration::from_millis(10.0))
        .big_delta(SimDuration::from_secs(60.0))
}

#[test]
fn dispersed_clocks_converge_below_gamma() {
    let mut world = base_builder(7, 2, 1)
        .initial_bias_spread(0.08)
        .build()
        .unwrap();
    let gamma = world.bounds().unwrap().gamma;
    world.run_until(RealTime::from_secs(120.0));
    let dev = world.sample_now().good_deviation().unwrap();
    assert!(dev <= gamma, "deviation {dev} above gamma {gamma}");
    assert!(dev < 0.02, "converged deviation should be tiny: {dev}");
}

#[test]
fn whole_simulation_is_a_pure_function_of_the_seed() {
    let run = |seed: u64| -> (Vec<f64>, u64, u64) {
        let mut world = base_builder(7, 2, seed)
            .initial_bias_spread(0.05)
            .build()
            .unwrap();
        world.run_until(RealTime::from_secs(90.0));
        let s = world.sample_now();
        (
            s.biases.iter().map(|b| b.as_secs()).collect(),
            world.events_processed(),
            world.network_stats().delivered,
        )
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(a, b, "identical seeds must give bit-identical runs");
    let c = run(124);
    assert_ne!(a.0, c.0, "different seeds must differ");
}

#[test]
fn deviation_bound_holds_across_seeds() {
    for seed in 0..8 {
        let mut world = base_builder(7, 2, seed)
            .initial_bias_spread(0.05)
            .build()
            .unwrap();
        let gamma = world.bounds().unwrap().gamma;
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(RealTime::from_secs(240.0));
        let max = log.max_deviation(RealTime::from_secs(60.0)).unwrap();
        assert!(max <= gamma, "seed {seed}: deviation {max} > gamma {gamma}");
    }
}

#[test]
fn all_nodes_keep_syncing() {
    let mut world = base_builder(5, 1, 3).build().unwrap();
    world.run_until(RealTime::from_secs(120.0));
    let sync_int = world.params().sync_int().as_secs();
    let expected_rounds = (120.0 / sync_int) as u64;
    for p in ProcId::all(5) {
        let rounds = world.rounds_completed(p);
        assert!(
            rounds + 2 >= expected_rounds && rounds <= expected_rounds + 2,
            "{p}: {rounds} rounds vs expected ~{expected_rounds}"
        );
    }
}

#[test]
fn drift_without_sync_diverges_but_sync_holds() {
    use byzclock::core::{ConvergenceFn, ConvergenceScratch, PeerEstimate};

    /// Never adjusts: the free-running control measuring raw drift.
    #[derive(Debug, Clone, Copy)]
    struct NoOpConvergence;
    impl ConvergenceFn for NoOpConvergence {
        fn name(&self) -> &'static str {
            "no-sync"
        }
        fn adjustment_scratch(
            &self,
            _f: usize,
            _way_off: f64,
            _estimates: &[PeerEstimate],
            _scratch: &mut ConvergenceScratch,
        ) -> f64 {
            0.0
        }
        fn box_clone(&self) -> Box<dyn ConvergenceFn> {
            Box::new(*self)
        }
    }

    let rho = 1e-4;
    let run = |convergence: bool| -> f64 {
        let mut b = base_builder(5, 1, 9)
            .rho(rho)
            .drift(DriftSpec::ConstantRandomRate);
        if !convergence {
            b = b.convergence(Box::new(NoOpConvergence));
        }
        let mut world = b.build().unwrap();
        world.run_until(RealTime::from_secs(600.0));
        world.sample_now().good_deviation().unwrap()
    };
    let with_sync = run(true);
    let without = run(false);
    assert!(
        without > 10.0 * with_sync,
        "sync should beat free-running drift: {with_sync} vs {without}"
    );
}

#[test]
fn bounds_accessors_are_consistent() {
    let world = base_builder(7, 2, 0).build().unwrap();
    let bounds = world.bounds().unwrap();
    // gamma = 2D + 2 rho T (Appendix A.3 form)
    let rho_t = 1e-5 * bounds.t.as_secs();
    assert!((bounds.gamma - (2.0 * bounds.d + 2.0 * rho_t)).abs() < 1e-9);
    assert!((world.params().way_off() - bounds.way_off).abs() < 1e-12);
}

#[test]
fn sparse_but_rich_topology_still_converges() {
    // Erdos-Renyi with high p: not a full mesh, but every node still sees
    // most peers; the protocol tolerates the missing links as timeouts.
    use byzclock::sim::RngHub;
    let mut rng = RngHub::new(5).stream("topo", 0);
    let topology = Topology::erdos_renyi(9, 0.95, &mut rng);
    let mut world = base_builder(9, 1, 5)
        .topology(topology)
        .initial_bias_spread(0.05)
        .build()
        .unwrap();
    let gamma = world.bounds().unwrap().gamma;
    world.run_until(RealTime::from_secs(180.0));
    let dev = world.sample_now().good_deviation().unwrap();
    assert!(dev <= gamma, "dev {dev} > gamma {gamma}");
}
