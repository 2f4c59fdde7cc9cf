//! The timing decorators and the benchmark's slicing must not change a
//! single output bit of the worlds they measure.

use perfbench::churn::{seeds, ChurnSpec, SeedOutputs, CHURN16_LONG, CHURN256};
use perfbench::layers::Probes;
use perfbench::stats::Digest;

fn digest(outputs: &SeedOutputs) -> String {
    let mut d = Digest::default();
    outputs.fold_into(&mut d);
    d.hex()
}

/// The world `Scenario::churn_world` builds, run with one `run_until`.
fn whole_run(spec: &ChurnSpec, seed: u64) -> SeedOutputs {
    let mut world = spec.build_plain(seed);
    world.run_until(spec.horizon());
    SeedOutputs::of(&world)
}

fn decorated_world_is_bit_identical(spec: ChurnSpec) {
    let seed = seeds(0, 1)[0];
    let plain = whole_run(&spec, seed);
    let probes = Probes::default();
    let mut traced = spec.build_traced(seed, &probes).world;
    traced.run_until(spec.horizon());
    let traced = SeedOutputs::of(&traced);
    assert_eq!(plain.events, traced.events);
    assert_eq!(plain.delivered, traced.delivered);
    assert_eq!(plain.forged, traced.forged);
    assert_eq!(plain.final_bias_bits, traced.final_bias_bits);
    assert_eq!(plain, traced);
    // the decorators really were on the path
    assert_eq!(probes.delay.calls(), traced.delivered);
    assert_eq!(probes.reply.calls(), traced.forged);
    assert_eq!(probes.convergence.calls(), traced.rounds);
    assert_eq!(probes.observer.calls(), 0);
}

fn slicing_keeps_the_digest(spec: ChurnSpec) {
    let seed = seeds(0, 1)[0];
    let sliced = spec.run(&mut spec.build_plain(seed), &mut || {});
    assert!(sliced.slice_ns.len() > 100, "too few slices to time");
    assert_eq!(digest(&sliced.outputs), digest(&whole_run(&spec, seed)));
}

#[test]
fn churn16_long_decorated_world_is_bit_identical() {
    decorated_world_is_bit_identical(CHURN16_LONG);
}

#[test]
fn churn256_decorated_world_is_bit_identical() {
    decorated_world_is_bit_identical(CHURN256);
}

#[test]
fn churn16_long_slicing_keeps_the_digest() {
    slicing_keeps_the_digest(CHURN16_LONG);
}

#[test]
fn churn256_slicing_keeps_the_digest() {
    slicing_keeps_the_digest(CHURN256);
}
