//! Integration tests for the extension features: slew discipline, lossy
//! links, link outages, and multi-ping estimation — end-to-end through the
//! full stack.

use byzclock::prelude::*;
use byzclock::runtime::{Discipline, LinkOutage, Observer};
use std::cell::RefCell;
use std::rc::Rc;

fn builder(n: usize, f: usize, seed: u64) -> WorldBuilder {
    WorldBuilder::new(n, f)
        .seed(seed)
        .delta(SimDuration::from_millis(10.0))
        .big_delta(SimDuration::from_secs(60.0))
}

#[test]
fn slew_discipline_converges_and_stays_monotone() {
    let mut world = builder(7, 2, 41)
        .discipline(Discipline::Slew { max_rate: 5e-3 })
        .initial_bias_spread(0.05)
        .sample_interval(SimDuration::from_millis(100.0))
        .build()
        .unwrap();
    let gamma = world.bounds().unwrap().gamma;
    // Track clock monotonicity of node 0 by dense sampling.
    let mut prev_clock = f64::NEG_INFINITY;
    let mut max_dev: f64 = 0.0;
    for step in 1..=1800 {
        let tau = RealTime::from_secs(step as f64 * 0.1);
        world.run_until(tau);
        let sample = world.sample_now();
        let clock = tau.as_secs() + sample.biases[0].as_secs();
        assert!(
            clock >= prev_clock - 1e-9,
            "slewing clock ran backwards at {tau:?}"
        );
        prev_clock = clock;
        if tau.as_secs() > 120.0 {
            max_dev = max_dev.max(sample.good_deviation().unwrap());
        }
    }
    assert!(max_dev <= gamma, "slew deviation {max_dev} > gamma {gamma}");
}

#[test]
fn slew_timer_inversion_keeps_sync_cadence() {
    // Aggressive slewing must not break the "one-to-two syncs per T"
    // property the analysis depends on.
    let mut world = builder(4, 1, 43)
        .discipline(Discipline::Slew { max_rate: 5e-3 })
        .initial_bias_spread(0.1)
        .build()
        .unwrap();
    world.run_until(RealTime::from_secs(300.0));
    let sync_int = world.params().sync_int().as_secs();
    let expected = (300.0 / sync_int) as u64;
    for p in ProcId::all(4) {
        let rounds = world.rounds_completed(p);
        assert!(
            rounds + 3 >= expected && rounds <= expected + 3,
            "{p}: {rounds} rounds vs expected ~{expected}"
        );
    }
}

#[test]
fn heavy_message_loss_does_not_break_the_bound() {
    let mut world = builder(7, 2, 47)
        .message_loss(0.3)
        .initial_bias_spread(0.02)
        .build()
        .unwrap();
    let gamma = world.bounds().unwrap().gamma;
    let log = RunLog::new();
    world.add_observer(Box::new(log.clone()));
    world.run_until(RealTime::from_secs(300.0));
    assert!(log.max_deviation(RealTime::from_secs(60.0)).unwrap() <= gamma);
    // losses really happened
    assert!(world.network_stats().dropped > 100);
}

#[test]
fn multi_ping_tightens_deviation_under_loss() {
    let run = |k: usize| -> f64 {
        let mut world = builder(7, 2, 53)
            .message_loss(0.4)
            .pings_per_peer(k)
            .initial_bias_spread(0.02)
            .build()
            .unwrap();
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(RealTime::from_secs(240.0));
        log.avg_deviation(RealTime::from_secs(60.0)).unwrap()
    };
    let k1 = run(1);
    let k4 = run(4);
    assert!(
        k4 < k1,
        "multi-ping should help under loss: k1={k1}, k4={k4}"
    );
}

#[test]
fn full_partition_heals_after_outage() {
    // Cut every cross link between two halves for a while; after healing,
    // the halves must re-merge (their drift-separated clocks re-sync).
    let n = 8;
    let mut outages = Vec::new();
    for a in 0..4u32 {
        for b in 4..8u32 {
            outages.push(LinkOutage {
                a: ProcId(a),
                b: ProcId(b),
                from: RealTime::from_secs(60.0),
                until: RealTime::from_secs(240.0),
            });
        }
    }
    let mut world = builder(n, 1, 59)
        .rho(1e-4)
        .drift(DriftSpec::ConstantRandomRate)
        .link_outages(outages)
        .build()
        .unwrap();
    let gamma = world.bounds().unwrap().gamma;
    world.run_until(RealTime::from_secs(600.0));
    let dev = world.sample_now().good_deviation().unwrap();
    assert!(dev <= gamma, "post-heal deviation {dev} > gamma {gamma}");
}

#[test]
fn observer_sees_every_corruption_and_release() {
    #[derive(Default)]
    struct Transitions {
        corrupts: usize,
        releases: usize,
    }
    struct Probe(Rc<RefCell<Transitions>>);
    impl Observer for Probe {
        fn on_corrupt(&mut self, _node: ProcId, _tau: RealTime) {
            self.0.borrow_mut().corrupts += 1;
        }
        fn on_release(&mut self, _node: ProcId, _tau: RealTime) {
            self.0.borrow_mut().releases += 1;
        }
    }

    let schedule = CorruptionSchedule::rotating(
        7,
        2,
        SimDuration::from_secs(30.0),
        SimDuration::from_secs(60.0),
        RealTime::from_secs(300.0),
        SimDuration::from_secs(15.0),
    );
    let mut world = builder(7, 2, 61)
        .adversary(Adversary::new(
            schedule,
            Box::new(RandomReplyStrategy::new(1.0)),
        ))
        .build()
        .unwrap();
    let seen = Rc::new(RefCell::new(Transitions::default()));
    world.add_observer(Box::new(Probe(Rc::clone(&seen))));
    world.run_until(RealTime::from_secs(300.0));
    let seen = seen.borrow();
    assert!(seen.corrupts >= 4, "corrupts: {}", seen.corrupts);
    assert!(seen.releases >= 4, "releases: {}", seen.releases);
}
