//! E19 ("Section 3.1, closing caveat") — cached estimation.
//!
//! The paper: "to reduce network load it may be possible … to perform
//! [clock queries] in a different thread which will spread them across a
//! time interval. … We note that when implemented this way, we cannot
//! guarantee the conditions of Definition 4 anymore, since the separate
//! thread may return an old cached value which was measured before the
//! call to the clock estimation procedure. (Hence, the analysis in this
//! paper cannot be applied 'right out of the box' …)"
//!
//! This experiment quantifies that warning: the identical protocol runs
//! with (a) fresh per-round estimation and (b) a naive background cache
//! refreshed every `r × SyncInt`. A cached sample can predate the node's
//! *own* latest adjustment, so each sync re-applies part of an already-
//! applied correction — measured as inflated steady-state deviation that
//! grows with the staleness.

use byzclock_sim::RealTime;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E19.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::drifty(7, 2); // visible drift makes staleness bite
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let horizon = RealTime::ZERO + scenario.big_delta * mode.horizon_deltas(4.0, 10.0);
    let sync_int = scenario.quiet_world().params().sync_int();

    let variants: &[(&str, Option<f64>)] = &[
        ("fresh per-round (the paper)", None),
        ("cached, refresh = SyncInt", Some(1.0)),
        ("cached, refresh = 4x SyncInt", Some(4.0)),
    ];

    let mut table = Table::new(
        "Cached vs fresh estimation (n=7, f=2, rho=1e-4, quiet)",
        &["estimation", "mean dev", "max dev", "vs fresh"],
    );
    let mut means = Vec::new();

    for (label, refresh_mult) in variants {
        let warmup = RealTime::ZERO + scenario.big_delta;
        let log = RunLog::new();
        let mut builder = scenario.builder().initial_bias_spread(gamma / 8.0);
        if let Some(m) = refresh_mult {
            builder = builder.cached_estimation(sync_int * *m);
        }
        let mut world = builder.build().expect("E19 world must build");
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);
        let mean = log.avg_deviation(warmup).unwrap_or(f64::NAN);
        let max = log.max_deviation(warmup).unwrap_or(f64::NAN);
        means.push(mean);
        table.row_owned(vec![
            label.to_string(),
            fmt_secs(mean),
            fmt_secs(max),
            if means.len() == 1 {
                "1.00x".to_string()
            } else {
                format!("{:.2}x", mean / means[0])
            },
        ]);
    }

    // The warning quantified: caching degrades accuracy, and more staleness
    // degrades it more.
    let fresh = means[0];
    let cached_1x = means[1];
    let cached_4x = means[2];
    let pass = cached_1x > fresh && cached_4x > cached_1x;

    ExperimentReport {
        id: "E19",
        title: "Cached estimation: the Section 3.1 caveat, quantified".into(),
        claim: "Section 3.1: a background-thread cache voids Definition 4 — stale samples \
                (possibly predating the node's own adjustments) degrade synchronization, \
                increasingly with staleness"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            "the cached node never compensates its cache for its own adjustments — the \
             naive implementation the paper cautions against"
                .into(),
            format!("gamma = {} for scale", fmt_secs(gamma)),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
