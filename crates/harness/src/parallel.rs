//! Parallel fan-out for embarrassingly parallel sweeps.
//!
//! Every byzclock run is a pure function of its configuration and root
//! seed (the determinism contract, DESIGN.md §2), which makes multi-seed
//! campaigns and scenario sweeps trivially parallel: no run reads another
//! run's state. The one wrinkle is that [`World`] is **not** `Send` (it
//! holds `Rc` observer handles and boxed non-`Send` strategy objects), so
//! the fan-out primitive ships plain-data job descriptions to worker
//! threads, builds each world *inside* the worker that runs it, and sends
//! only plain-data results back.
//!
//! Results come back in submission order (each job writes to its own
//! pre-assigned slot), so a parallel sweep is **bit-identical** to the
//! sequential loop it replaces — asserted by the round-trip test below
//! and by the pool's own tests in `byzclock_sim::pool`.
//!
//! [`World`]: byzclock_runtime::World

pub use byzclock_sim::{default_workers, par_map, par_map_auto};

/// Runs `f` once per seed across the default worker pool, returning the
/// results in seed order.
///
/// `f` must be a pure function of the seed (build the world inside it).
/// Equivalent to `seeds.iter().map(|&s| f(s)).collect()` but wall-clock
/// scales with available cores.
pub fn run_seeds<R, F>(seeds: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    run_seeds_with_workers(seeds, default_workers(), f)
}

/// [`run_seeds`] with an explicit worker count (1 = sequential, in the
/// calling thread).
pub fn run_seeds_with_workers<R, F>(seeds: &[u64], workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    par_map(seeds.to_vec(), workers, |_, seed| f(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use byzclock_adversary::RandomReplyStrategy;
    use byzclock_sim::RealTime;

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
        for workers in [2, 4, 8] {
            let parallel = run_seeds_with_workers(seeds, workers, &run);
            assert_eq!(sequential, parallel, "workers={workers}");
        }
        assert_eq!(sequential, run_seeds(seeds, &run));
    }

    #[test]
    fn run_seeds_is_bit_identical_to_sequential() {
        let seeds: Vec<u64> = (0..8).collect();
        assert_fan_out_matches_sequential(&seeds, dev_bits_for_seed);
        assert_fan_out_matches_sequential(&seeds, churn_run);
    }

    #[test]
    fn distinct_seeds_give_distinct_runs() {
        let results = run_seeds_with_workers(&[1, 2], 2, dev_bits_for_seed);
        assert_ne!(results[0], results[1]);
    }
}
