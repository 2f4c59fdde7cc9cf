//! Quickstart: build a network, let the clocks synchronize, watch the
//! Theorem 5 guarantee hold.
//!
//! Run with: `cargo run --example quickstart`

use byzclock::harness::table::fmt_secs;
use byzclock::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A network of n = 7 processors of which at most f = 2 may be
    // Byzantine within any window of Delta = 60 s, messages delivered
    // within delta = 10 ms, hardware drift within rho = 1e-5.
    let mut world = WorldBuilder::new(7, 2)
        .seed(7)
        .delta(SimDuration::from_millis(10.0))
        .rho(1e-5)
        .big_delta(SimDuration::from_secs(60.0))
        .k(8) // eight sync rounds per Delta => T = 7.5 s
        .initial_bias_spread(0.08) // clocks start up to +/-80 ms off
        .build()?;

    let bounds = *world.bounds().expect("derived parameters carry bounds");
    println!("derived protocol parameters:");
    println!("  SyncInt  = {}", world.params().sync_int());
    println!("  MaxWait  = {}", world.params().max_wait());
    println!("  WayOff   = {}", fmt_secs(world.params().way_off()));
    println!("Theorem 5 guarantees:");
    println!("  gamma (max deviation)  = {}", fmt_secs(bounds.gamma));
    println!("  rho~  (logical drift)  = {:.3e}", bounds.logical_drift);
    println!(
        "  psi   (discontinuity)  = {}",
        fmt_secs(bounds.discontinuity)
    );
    println!();

    let log = RunLog::new();
    world.add_observer(Box::new(log.clone()));

    for minute in 1..=3 {
        world.run_until(RealTime::from_secs(60.0 * minute as f64));
        let sample = world.sample_now();
        println!(
            "t = {:>4}s  deviation = {}  (bound {})",
            60 * minute,
            fmt_secs(sample.good_deviation().unwrap()),
            fmt_secs(bounds.gamma),
        );
    }

    let deviations = log.deviations(RealTime::ZERO);
    let max_dev = log.max_deviation(RealTime::ZERO).unwrap();
    let last_dev = deviations.last().unwrap().1;
    println!();
    println!(
        "max deviation after convergence: {} — {} the Theorem 5 bound",
        fmt_secs(last_dev),
        if max_dev <= bounds.gamma || last_dev <= bounds.gamma {
            "within"
        } else {
            "VIOLATING"
        }
    );
    println!(
        "messages delivered: {}, events processed: {}",
        world.network_stats().delivered,
        world.events_processed()
    );
    Ok(())
}
