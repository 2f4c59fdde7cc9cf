//! Fan-out determinism of whole worlds.
//!
//! Every byzclock run is a pure function of its configuration and root
//! seed (the determinism contract, DESIGN.md §2), so sweeps such as E5 and
//! E17 fan out with [`byzclock_sim::par_map_auto`]. [`World`] is **not**
//! `Send` (it holds `Rc` observer handles and boxed non-`Send` strategy
//! objects), so a sweep ships plain-data job descriptions to the workers,
//! builds each world inside the worker that runs it, and sends only
//! plain-data results back. Results come back in submission order, so a
//! parallel sweep is **bit-identical** to the sequential loop — asserted
//! here for real worlds, and for the pool itself in `byzclock_sim::pool`.
//!
//! [`World`]: byzclock_runtime::World

mod tests {
    use crate::scenario::Scenario;
    use byzclock_adversary::RandomReplyStrategy;
    use byzclock_sim::{par_map, par_map_auto, RealTime};

    /// A full world run reduced to one deterministic bit pattern.
    fn dev_bits_for_seed(seed: u64) -> u64 {
        let scenario = Scenario::standard(4, 1).with_seed(seed);
        let mut world = scenario.builder().build().expect("world builds");
        world.run_until(RealTime::from_secs(120.0));
        world
            .sample_now()
            .good_deviation()
            .expect("quiet world has good nodes")
            .to_bits()
    }

    /// The 16-node rotating-churn world under a random-reply adversary
    /// (f = 5), reduced to its event count, deliveries and deviation bits.
    fn churn_run(seed: u64) -> (u64, u64, u64) {
        let horizon = RealTime::from_secs(120.0);
        let scenario = Scenario::standard(16, 5).with_seed(seed);
        let mut world = scenario.churn_world(Box::new(RandomReplyStrategy::new(1.0)), horizon);
        world.run_until(horizon);
        let deviation = world.sample_now().good_deviation().unwrap_or(f64::NAN);
        (
            world.events_processed(),
            world.network_stats().delivered,
            deviation.to_bits(),
        )
    }

    fn assert_fan_out_matches_sequential<R, F>(seeds: &[u64], run: F)
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(u64) -> R + Sync,
    {
        let sequential: Vec<R> = seeds.iter().map(|&s| run(s)).collect();
        for workers in [1, 2, 4, 8] {
            let parallel = par_map(seeds.to_vec(), workers, |_, seed| run(seed));
            assert_eq!(sequential, parallel, "workers={workers}");
        }
        assert_eq!(
            sequential,
            par_map_auto(seeds.to_vec(), |_, seed| run(seed))
        );
    }

    #[test]
    fn par_map_is_bit_identical_to_sequential() {
        let seeds: Vec<u64> = (0..8).collect();
        assert_fan_out_matches_sequential(&seeds, dev_bits_for_seed);
        assert_fan_out_matches_sequential(&seeds, churn_run);
    }

    #[test]
    fn distinct_seeds_give_distinct_runs() {
        let results = par_map(vec![1, 2], 2, |_, seed| dev_bits_for_seed(seed));
        assert_ne!(results[0], results[1]);
    }
}
