//! Attack gallery: throw every implemented Byzantine strategy at the
//! protocol and watch the deviation bound hold (the paper's abstract:
//! "arbitrary (Byzantine) faults are tolerated, without requiring
//! awareness of failure or recovery").
//!
//! Run with: `cargo run --example attack_gallery`

use byzclock::adversary::{FloodStrategy, StealthStrategy};
use byzclock::harness::table::{fmt_secs, Table};
use byzclock::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 10;
    let f = 3;
    let big_delta = SimDuration::from_secs(60.0);
    let horizon = RealTime::from_secs(360.0);

    let strategies: Vec<Box<dyn ByzantineStrategy>> = vec![
        Box::new(CrashStrategy),
        Box::new(RandomReplyStrategy::new(10.0)),
        Box::new(ConstantOffsetStrategy::new(5.0)),
        Box::new(SplitBrainStrategy::new(2.0)),
        Box::new(StealthStrategy::new(0.005)),
        Box::new(ColluderStrategy::new()),
        Box::new(FloodStrategy),
    ];

    let mut table = Table::new(
        format!("attack gallery (n={n}, f={f}, rotating churn)"),
        &["strategy", "max deviation", "within gamma?", "forged msgs"],
    );
    let mut gamma_printed = None;

    for strategy in strategies {
        let name = strategy.name();
        let schedule = CorruptionSchedule::rotating(
            n,
            f,
            big_delta * 0.5,
            big_delta,
            horizon,
            big_delta * 0.25,
        );
        let mut world = WorldBuilder::new(n, f)
            .seed(99)
            .delta(SimDuration::from_millis(10.0))
            .big_delta(big_delta)
            .adversary(Adversary::new(schedule, strategy))
            .build()?;
        let gamma = world.bounds().unwrap().gamma;
        gamma_printed.get_or_insert(gamma);
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);
        let max_dev = log
            .max_deviation(RealTime::ZERO + big_delta)
            .unwrap_or(f64::NAN);
        table.row_owned(vec![
            name.to_string(),
            fmt_secs(max_dev),
            if max_dev <= gamma { "yes" } else { "NO" }.into(),
            world.network_stats().forged.to_string(),
        ]);
    }

    println!("{table}");
    println!(
        "Theorem 5 bound gamma = {}",
        fmt_secs(gamma_printed.unwrap())
    );
    Ok(())
}
