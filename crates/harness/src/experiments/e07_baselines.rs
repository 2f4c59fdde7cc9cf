//! E7 ("Table 4") — convergence-function comparison.
//!
//! Claims reproduced:
//!
//! * Section 1.1: a *minimal-correction* convergence function in the style
//!   of Fetzer–Cristian "may delay the recovery of a processor with a
//!   clock very far from the correct one (such recovery may never
//!   complete)". The paper chose fast recovery over small corrections.
//! * Implicit in Figure 1's trimming: an *unguarded* average is destroyed
//!   by Byzantine estimates; fault-tolerant trimming is necessary.
//!
//! Method: every convergence function runs the identical two scenarios —
//! (a) recovery of a clock reset 100γ away, (b) rotating Byzantine churn —
//! differing **only** in the convergence function.

use byzclock_adversary::{ConstantOffsetStrategy, RandomReplyStrategy};
use byzclock_core::{
    ConvergenceFn, MedianConvergence, MinimalCorrection, PaperSync, TrimmedMean, UnguardedMean,
};
use byzclock_sim::RealTime;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E7.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(7, 2);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let offset = 100.0 * gamma;
    // Churn long enough that sabotaged nodes are released and re-enter the
    // good set (release + Delta) well before the horizon — that is where
    // fc-minimal's failed recovery surfaces as a deviation violation.
    let churn_deltas = mode.horizon_deltas(6.0, 6.0);

    let functions: Vec<(Box<dyn ConvergenceFn>, bool, bool)> = vec![
        // (function, expect recovery <= Delta, expect deviation <= gamma)
        (Box::new(PaperSync), true, true),
        // fc-minimal cannot recover, and therefore also cannot keep the
        // deviation bounded: released victims rejoin the good set (after
        // Delta) with their clocks still far off.
        (
            Box::new(MinimalCorrection::new(bounds.discontinuity)),
            false,
            false,
        ),
        (Box::new(TrimmedMean), true, true),
        (Box::new(MedianConvergence), true, true),
        (Box::new(UnguardedMean), true, false),
    ];

    let mut table = Table::new(
        "Table 4: convergence-function comparison (identical scenarios)",
        &[
            "function",
            "recovery(100*gamma)",
            "rec<=Delta",
            "churn max dev",
            "dev<=gamma",
            "ok",
        ],
    );
    let mut all_pass = true;

    for (cf, expect_recover, expect_bounded) in functions {
        let name = cf.name();

        // (a) recovery
        let (mut world, _victim, release_at) = {
            let mut b = scenario.builder().convergence(cf.box_clone()).adversary(
                byzclock_adversary::Adversary::new(
                    byzclock_adversary::CorruptionSchedule::single(
                        byzclock_sim::ProcId((scenario.n - 1) as u32),
                        RealTime::ZERO + scenario.big_delta,
                        scenario.big_delta * 0.5,
                    ),
                    Box::new(ConstantOffsetStrategy::new(offset)),
                ),
            );
            b = b.seed(scenario.seed);
            (
                b.build().expect("E7 recovery world must build"),
                byzclock_sim::ProcId((scenario.n - 1) as u32),
                RealTime::ZERO + scenario.big_delta * 1.5,
            )
        };
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(release_at + scenario.big_delta * 2.0);
        let latency = log.latencies(gamma).first().copied();
        let recovered_in_delta = latency.is_some_and(|l| l <= scenario.big_delta.as_secs());

        // (b) churn deviation
        let horizon = RealTime::ZERO + scenario.big_delta * churn_deltas;
        let log = RunLog::new();
        let schedule = byzclock_adversary::CorruptionSchedule::rotating(
            scenario.n,
            scenario.f,
            scenario.big_delta * 0.5,
            scenario.big_delta,
            horizon,
            scenario.big_delta * 0.25,
        );
        let mut world = scenario
            .builder()
            .convergence(cf.box_clone())
            .adversary(byzclock_adversary::Adversary::new(
                schedule,
                Box::new(RandomReplyStrategy::new(gamma * 10.0)),
            ))
            .build()
            .expect("E7 churn world must build");
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);
        let max_dev = log
            .max_deviation(RealTime::ZERO + scenario.big_delta)
            .unwrap_or(f64::NAN);
        let dev_bounded = max_dev <= gamma;

        let ok = recovered_in_delta == expect_recover && dev_bounded == expect_bounded;
        all_pass &= ok;
        table.row_owned(vec![
            name.to_string(),
            latency.map_or(">2 Delta (never)".into(), fmt_secs),
            if recovered_in_delta { "yes" } else { "no" }.into(),
            fmt_secs(max_dev),
            if dev_bounded { "yes" } else { "no" }.into(),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }

    ExperimentReport {
        id: "E7",
        title: "Baselines: minimal correction cannot recover; unguarded mean is not Byzantine-safe"
            .into(),
        claim: "Section 1.1: FC-style minimal correction may never recover a far-off clock; \
                Figure 1's trimming is what resists Byzantine estimates"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            format!(
                "minimal-correction step capped at the paper's own discontinuity bound psi = {}",
                fmt_secs(bounds.discontinuity)
            ),
            "trimmed-mean (Welch-Lynch-style) also recovers: the paper's advantage over it is \
             the mobile-fault analysis, not the mechanics"
                .into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
