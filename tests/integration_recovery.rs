//! End-to-end integration: corruption, recovery, and the mobile adversary.

use byzclock::adversary::FloodStrategy;
use byzclock::prelude::*;

const DELTA_MS: f64 = 10.0;
const BIG_DELTA: f64 = 60.0;

fn builder(n: usize, f: usize, seed: u64) -> WorldBuilder {
    WorldBuilder::new(n, f)
        .seed(seed)
        .delta(SimDuration::from_millis(DELTA_MS))
        .big_delta(SimDuration::from_secs(BIG_DELTA))
}

#[test]
fn single_corruption_recovers_within_delta() {
    for offset in [1.0, 100.0, 10_000.0] {
        let victim = ProcId(6);
        let schedule = CorruptionSchedule::single(
            victim,
            RealTime::from_secs(BIG_DELTA),
            SimDuration::from_secs(BIG_DELTA / 2.0),
        );
        let mut world = builder(7, 2, 11)
            .adversary(Adversary::new(
                schedule,
                Box::new(ConstantOffsetStrategy::new(offset)),
            ))
            .build()
            .unwrap();
        let gamma = world.bounds().unwrap().gamma;
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(RealTime::from_secs(BIG_DELTA * 3.0));
        let latencies = log.latencies(gamma);
        assert_eq!(latencies.len(), 1, "offset {offset}: must recover");
        assert!(
            latencies[0] <= BIG_DELTA,
            "offset {offset}: recovery took {} > Delta",
            latencies[0]
        );
    }
}

#[test]
fn unbounded_cumulative_faults_are_tolerated() {
    let n = 10;
    let f = 3;
    let horizon = RealTime::from_secs(BIG_DELTA * 12.0);
    let schedule = CorruptionSchedule::rotating(
        n,
        f,
        SimDuration::from_secs(BIG_DELTA / 2.0),
        SimDuration::from_secs(BIG_DELTA),
        horizon,
        SimDuration::from_secs(BIG_DELTA / 4.0),
    );
    schedule
        .verify_f_limited(f, SimDuration::from_secs(BIG_DELTA), horizon)
        .unwrap();
    let episodes = schedule.episode_count();
    assert!(
        episodes > 2 * n,
        "the adversary must corrupt far more often than n: {episodes}"
    );

    let mut world = builder(n, f, 13)
        .adversary(Adversary::new(
            schedule,
            Box::new(RandomReplyStrategy::new(10.0)),
        ))
        .build()
        .unwrap();
    let gamma = world.bounds().unwrap().gamma;
    let log = RunLog::new();
    world.add_observer(Box::new(log.clone()));
    world.run_until(horizon);
    let max_dev = log.max_deviation(RealTime::from_secs(BIG_DELTA)).unwrap();
    assert!(
        max_dev <= gamma,
        "mobile churn broke the bound: {max_dev} > {gamma}"
    );
    // the adversary really did touch everyone
    assert_eq!(world.corruption_episodes(), episodes);
}

#[test]
fn flood_attack_cannot_move_good_clocks_much() {
    let schedule = CorruptionSchedule::permanent(
        &[ProcId(7), ProcId(8), ProcId(9)],
        RealTime::from_secs(BIG_DELTA * 6.0),
    );
    let mut world = builder(10, 3, 17)
        .adversary(Adversary::new(schedule, Box::new(FloodStrategy)))
        .build()
        .unwrap();
    let gamma = world.bounds().unwrap().gamma;
    let log = RunLog::new();
    world.add_observer(Box::new(log.clone()));
    world.run_until(RealTime::from_secs(BIG_DELTA * 6.0));
    assert!(log.max_deviation(RealTime::from_secs(BIG_DELTA)).unwrap() <= gamma);
    // absolute accuracy also holds: good biases stay close to real time
    let sample = world.sample_now();
    for p in 0..7 {
        assert!(
            sample.biases[p].as_secs().abs() < 0.1,
            "flood dragged p{p} to {}",
            sample.biases[p]
        );
    }
}

#[test]
fn recovering_node_does_not_disturb_good_nodes() {
    // While a way-off node rejoins, the good nodes' own deviation must not
    // degrade (its first pongs report an absurd clock, which the others
    // must trim away).
    let victim = ProcId(6);
    let schedule = CorruptionSchedule::single(
        victim,
        RealTime::from_secs(BIG_DELTA),
        SimDuration::from_secs(BIG_DELTA / 2.0),
    );
    let mut world = builder(7, 2, 19)
        .adversary(Adversary::new(
            schedule,
            Box::new(ConstantOffsetStrategy::new(1000.0)),
        ))
        .build()
        .unwrap();
    let gamma = world.bounds().unwrap().gamma;
    world.run_until(RealTime::from_secs(BIG_DELTA * 3.0));
    // deviation among the six never-corrupted nodes
    let sample = world.sample_now();
    let honest: Vec<f64> = (0..6).map(|p| sample.biases[p].as_secs()).collect();
    let spread = honest.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - honest.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread <= gamma, "honest spread {spread} > gamma {gamma}");
    // and the victim rejoined them
    assert!(sample.biases[6].as_secs().abs() < gamma);
}

#[test]
fn overlapping_corruption_episodes_are_handled() {
    // Two overlapping intervals on the same node (legal in the schedule
    // model): the world must treat the union as one corruption.
    use byzclock::adversary::CorruptionInterval;
    let schedule = CorruptionSchedule::from_intervals(vec![
        CorruptionInterval::new(
            ProcId(3),
            RealTime::from_secs(10.0),
            RealTime::from_secs(40.0),
        ),
        CorruptionInterval::new(
            ProcId(3),
            RealTime::from_secs(30.0),
            RealTime::from_secs(70.0),
        ),
    ]);
    let mut world = builder(4, 1, 23)
        .adversary(Adversary::new(
            schedule,
            Box::new(ConstantOffsetStrategy::new(50.0)),
        ))
        .build()
        .unwrap();
    world.run_until(RealTime::from_secs(50.0));
    assert!(
        world.sample_now().corrupt[3],
        "still inside the second episode"
    );
    world.run_until(RealTime::from_secs(BIG_DELTA * 4.0));
    assert!(!world.sample_now().corrupt[3]);
    assert!(
        world.bias_of(ProcId(3)).as_secs().abs() < 0.1,
        "must recover after the union of episodes"
    );
}

#[test]
fn release_restarts_the_sync_alarm() {
    // After recovery the node must keep completing rounds (the paper's
    // point about re-establishing the alarm after a break-in).
    let victim = ProcId(3);
    let schedule = CorruptionSchedule::single(
        victim,
        RealTime::from_secs(20.0),
        SimDuration::from_secs(10.0),
    );
    let mut world = builder(4, 1, 29)
        .adversary(Adversary::new(schedule, Box::new(CrashStrategy)))
        .build()
        .unwrap();
    world.run_until(RealTime::from_secs(30.5));
    let rounds_at_release = world.rounds_completed(victim);
    world.run_until(RealTime::from_secs(120.0));
    assert!(
        world.rounds_completed(victim) > rounds_at_release + 5,
        "victim stopped syncing after recovery"
    );
}
