//! E11 ("Table 6") — Section 3.1: the min-round-trip estimation filter.
//!
//! Claim: "a common method, which is used in practice to decrease the
//! error in estimating the peer's clock ... is to repeatedly ping the
//! other processor and choose the estimation given from the ping with the
//! least round trip time" (as in NTP). The error bound `a = (R−S)/2`
//! always contains the true offset (Definition 4).
//!
//! Method: Monte-Carlo the ping/pong exchange over the uniform delay
//! model. For `k ∈ {1, 2, 4, 8}` pings, take the sample with the smallest
//! round trip and record the actual estimation error and its bound.

use byzclock_clock::LocalTime;
use byzclock_core::OffsetSample;
use byzclock_net::{DelayModel, UniformDelay};
use byzclock_sim::{ProcId, RngHub};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::stats::Summary;
use crate::table::{fmt_secs, Table};

/// Runs E11.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(4, 1);
    let delta = scenario.delta;
    let trials = match mode {
        Mode::Quick => 2_000,
        Mode::Full => 20_000,
    };
    let true_offset = 0.123; // seconds; arbitrary but fixed

    let mut delays = UniformDelay::new(delta * 0.1, delta);
    let mut rng = RngHub::new(scenario.seed).stream("e11", 0);

    let mut table = Table::new(
        "Table 6: ping/pong estimation error vs number of pings (uniform delays in [0.1d, d])",
        &[
            "k pings",
            "mean |err|",
            "p95 |err|",
            "mean bound a",
            "contained",
        ],
    );
    let mut all_pass = true;
    let mut mean_errs: Vec<f64> = Vec::new();
    let mut mean_bounds: Vec<f64> = Vec::new();

    for k in [1usize, 2, 4, 8] {
        let mut errors = Vec::with_capacity(trials);
        let mut bounds_a = Vec::with_capacity(trials);
        let mut contained = 0usize;
        for _ in 0..trials {
            let best = (0..k)
                .map(|_| {
                    let d1 = delays.sample(ProcId(0), ProcId(1), &mut rng).as_secs();
                    let d2 = delays.sample(ProcId(1), ProcId(0), &mut rng).as_secs();
                    // requester's clock = real time; responder's = real + B
                    OffsetSample::from_ping_pong(
                        LocalTime::from_secs(0.0),
                        LocalTime::from_secs(d1 + d2),
                        LocalTime::from_secs(d1 + true_offset),
                    )
                })
                .reduce(OffsetSample::min_rtt)
                .unwrap_or(OffsetSample::TIMEOUT);
            let err = (best.offset - true_offset).abs();
            errors.push(err);
            bounds_a.push(best.error);
            if best.underestimate() <= true_offset && true_offset <= best.overestimate() {
                contained += 1;
            }
        }
        let err_summary = Summary::of(&errors).expect("nonempty");
        let bound_summary = Summary::of(&bounds_a).expect("nonempty");
        // Definition 4: the true offset is always inside [d-a, d+a].
        all_pass &= contained == trials;
        mean_errs.push(err_summary.mean);
        mean_bounds.push(bound_summary.mean);
        table.row_owned(vec![
            k.to_string(),
            fmt_secs(err_summary.mean),
            fmt_secs(err_summary.p95),
            fmt_secs(bound_summary.mean),
            format!("{contained}/{trials}"),
        ]);
    }

    // The error bound must shrink monotonically with k (min-RTT selection
    // directly minimizes it), and the actual error at k = 8 must be well
    // below k = 1 (the error itself only decreases statistically).
    all_pass &= mean_bounds.windows(2).all(|w| w[1] < w[0]);
    all_pass &= *mean_errs.last().unwrap() < mean_errs[0] * 0.9;

    // End-to-end: the same refinement wired into the protocol
    // (params.pings_per_peer) must tighten the achieved synchronization.
    let mut e2e_table = Table::new(
        "End-to-end: protocol deviation with k pings/peer (n=7, f=2, quiet)",
        &["k", "mean deviation", "max deviation"],
    );
    let scenario = Scenario::standard(7, 2);
    let horizon = byzclock_sim::RealTime::ZERO + scenario.big_delta * mode.horizon_deltas(3.0, 6.0);
    let mut mean_devs = Vec::new();
    for k in [1usize, 4] {
        let warmup = byzclock_sim::RealTime::ZERO + scenario.big_delta;
        let log = RunLog::new();
        let mut world = scenario
            .builder()
            .pings_per_peer(k)
            .initial_bias_spread(0.02)
            .build()
            .expect("E11 world must build");
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);
        let mean_dev = log.avg_deviation(warmup).unwrap_or(f64::NAN);
        mean_devs.push(mean_dev);
        e2e_table.row_owned(vec![
            k.to_string(),
            fmt_secs(mean_dev),
            fmt_secs(log.max_deviation(warmup).unwrap_or(f64::NAN)),
        ]);
    }
    // four pings per peer must tighten the average deviation
    all_pass &= mean_devs[1] < mean_devs[0];

    ExperimentReport {
        id: "E11",
        title: "Clock estimation: min-round-trip filtering shrinks the error".into(),
        claim: "Section 3.1/Definition 4: the (d, a) estimate always brackets the true offset; \
                choosing the least-RTT ping reduces the error (the NTP refinement)"
            .into(),
        tables: vec![table, e2e_table],
        series: vec![],
        notes: vec![format!(
            "true offset {} s, {} trials per k, delays uniform in [{}, {}]",
            true_offset,
            trials,
            fmt_secs(delta.as_secs() * 0.1),
            fmt_secs(delta.as_secs())
        )],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
