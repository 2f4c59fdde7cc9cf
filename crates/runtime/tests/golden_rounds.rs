//! Golden driver-equivalence regression (driver-refactor satellite).
//!
//! The committed golden file was recorded from the pre-refactor `World`
//! dispatch loop (the monolithic event loop that fused timer scheduling,
//! transport and clock reading). After the driver decomposition, a
//! same-seed run through the sim driver must reproduce the exact
//! `RoundSummary` sequence — every round completion of every node, in
//! execution order, with bit-identical adjustments and timestamps — plus
//! final biases and the engine/network counters.
//!
//! A second golden file pins the same scenario under `ColluderStrategy`,
//! which reads the omniscient good-bias range and the requester's bias on
//! every reply, so the adversary's view of the world is pinned bit for bit
//! as well. A third pins it under cached estimation (refresh 5 s), the
//! Section 3.1 variant experiment E19 measures.
//!
//! Floats are stored as `f64::to_bits` hex so the comparison is exact and
//! immune to formatting/round-trip drift.
//!
//! Regenerate (only when a change is *supposed* to alter behavior, with a
//! CHANGELOG note): `BYZCLOCK_GOLDEN_REGEN=1 cargo test -p byzclock-runtime --test golden_rounds`

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

use byzclock_adversary::{
    Adversary, ByzantineStrategy, ColluderStrategy, ConstantOffsetStrategy, CorruptionSchedule,
};
use byzclock_core::RoundSummary;
use byzclock_net::FaultProfile;
use byzclock_runtime::{DriftSpec, Observer, WorldBuilder};
use byzclock_sim::{ProcId, RealTime, SimDuration};

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

#[derive(Default)]
struct Recorder {
    lines: Vec<String>,
}

struct Probe(Rc<RefCell<Recorder>>);

impl Observer for Probe {
    fn on_round(&mut self, node: ProcId, summary: &RoundSummary, tau: RealTime) {
        self.0.borrow_mut().lines.push(format!(
            "round {node} {} {:016x} {} {} {:016x}",
            summary.round,
            summary.adjustment.to_bits(),
            summary.responders,
            summary.timeouts,
            tau.as_secs().to_bits(),
        ));
    }
}

/// The recorded scenario: 5 nodes, drifting clocks (random walk), message
/// duplication/reordering, one corruption episode with forged pongs — it
/// exercises every capability the driver boundary carries (transport with
/// fault injection, timer cancel/re-arm on corruption and drift change,
/// clock reads and adjustments). `label` names the variant in the file
/// header when it is not the original `ConstantOffsetStrategy` world;
/// `configure` applies that variant's builder settings.
fn record(
    strategy: Box<dyn ByzantineStrategy>,
    label: &str,
    configure: impl FnOnce(WorldBuilder) -> WorldBuilder,
) -> String {
    let schedule = CorruptionSchedule::single(ProcId(2), RealTime::from_secs(20.0), d(5.0));
    let adversary = Adversary::new(schedule, strategy);
    let builder = WorldBuilder::new(5, 1)
        .seed(7)
        .delta(SimDuration::from_millis(10.0))
        .big_delta(d(40.0))
        .initial_bias_spread(0.5)
        .drift(DriftSpec::RandomWalk {
            step_std: 1e-6,
            interval: d(5.0),
        })
        .net_faults(FaultProfile {
            duplicate_probability: 0.2,
            reorder_probability: 0.2,
        })
        .adversary(adversary);
    let mut world = configure(builder).build().unwrap();
    let recorder = Rc::new(RefCell::new(Recorder::default()));
    world.add_observer(Box::new(Probe(Rc::clone(&recorder))));
    world.run_until(RealTime::from_secs(120.0));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# golden RoundSummary sequence: seed 7, n=5, f=1{label} (see test header)"
    );
    for line in &recorder.borrow().lines {
        out.push_str(line);
        out.push('\n');
    }
    let sample = world.sample_now();
    for (i, b) in sample.biases.iter().enumerate() {
        let _ = writeln!(out, "bias p{i} {:016x}", b.as_secs().to_bits());
    }
    let _ = writeln!(out, "events {}", world.events_processed());
    let _ = writeln!(out, "delivered {}", world.network_stats().delivered);
    out
}

fn d(s: f64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn constant_offset() -> String {
    record(Box::new(ConstantOffsetStrategy::new(10.0)), "", |b| b)
}

fn colluder() -> String {
    record(Box::new(ColluderStrategy::new()), ", colluder", |b| b)
}

fn cached() -> String {
    record(
        Box::new(ConstantOffsetStrategy::new(10.0)),
        ", cached refresh 5 s",
        |b| b.cached_estimation(d(5.0)),
    )
}

#[test]
fn sim_driver_reproduces_prerefactor_round_sequence() {
    check_golden(&constant_offset(), "rounds_seed7.golden");
}

#[test]
fn colluder_reproduces_recorded_round_sequence() {
    check_golden(&colluder(), "rounds_seed7_colluder.golden");
}

#[test]
fn cached_estimation_reproduces_recorded_round_sequence() {
    check_golden(&cached(), "rounds_seed7_cached.golden");
}

/// Compares `got` with the committed golden `file`, or rewrites the file
/// when `BYZCLOCK_GOLDEN_REGEN` is set.
fn check_golden(got: &str, file: &str) {
    let path = golden_path(file);
    if std::env::var("BYZCLOCK_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    if got != want {
        let first_diff = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map(|i| {
                format!(
                    "first difference at line {}:\n  golden: {}\n  got:    {}",
                    i + 1,
                    want.lines().nth(i).unwrap_or("<missing>"),
                    got.lines().nth(i).unwrap_or("<missing>")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs got {}",
                    want.lines().count(),
                    got.lines().count()
                )
            });
        panic!(
            "{file}: the same-seed round sequence changed (must be bit-identical).\n{first_diff}"
        );
    }
}

#[test]
fn recording_is_deterministic() {
    assert_eq!(constant_offset(), constant_offset());
    assert_eq!(colluder(), colluder());
    assert_eq!(cached(), cached());
}
