//! E12 ("Table 7") — robustness across attack strategies.
//!
//! Claim: the protocol tolerates *arbitrary* (Byzantine) behaviour from
//! controlled processors "without requiring awareness of failure or
//! recovery" (abstract). So the deviation bound must hold regardless of
//! the adversary's strategy, from silent crashes to an omniscient
//! colluder.
//!
//! Method: identical rotating-churn scenarios (n = 10, f = 3), one per
//! strategy; record the max good-set deviation, mean recovery latency and
//! any unrecovered episodes.

use byzclock_adversary::{
    ByzantineStrategy, ColluderStrategy, ConstantOffsetStrategy, CrashStrategy, FloodStrategy,
    RandomReplyStrategy, SplitBrainStrategy, StealthStrategy,
};
use byzclock_sim::RealTime;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::{RecoveryRecord, RunLog};
use crate::scenario::Scenario;
use crate::stats::Summary;
use crate::table::{fmt_secs, Table};

/// Runs E12.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(10, 3);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let horizon = RealTime::ZERO + scenario.big_delta * mode.horizon_deltas(4.0, 10.0);

    let strategies: Vec<Box<dyn ByzantineStrategy>> = {
        let mut v: Vec<Box<dyn ByzantineStrategy>> = vec![
            Box::new(CrashStrategy),
            Box::new(RandomReplyStrategy::new(gamma * 10.0)),
            Box::new(ConstantOffsetStrategy::new(gamma * 10.0)),
            Box::new(SplitBrainStrategy::new(gamma * 5.0)),
            Box::new(ColluderStrategy::new()),
        ];
        if matches!(mode, Mode::Full) {
            v.push(Box::new(StealthStrategy::new(
                scenario.model().lambda / 2.0,
            )));
            v.push(Box::new(FloodStrategy));
        }
        v
    };

    let mut table = Table::new(
        "Table 7: deviation and recovery per attack strategy (n=10, f=3, rotating churn)",
        &[
            "strategy",
            "max dev",
            "dev/gamma",
            "mean recovery",
            "unrecovered",
            "ok",
        ],
    );
    let mut all_pass = true;

    for strategy in strategies {
        let name = strategy.name();
        let log = RunLog::new();
        let mut world = scenario.churn_world(strategy, horizon);
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);

        let max_dev = log
            .max_deviation(RealTime::ZERO + scenario.big_delta)
            .unwrap_or(f64::NAN);
        let recoveries = log.recoveries(gamma);
        let latencies: Vec<f64> = recoveries
            .iter()
            .filter_map(RecoveryRecord::latency_secs)
            .collect();
        let mean_latency = Summary::of(&latencies).map(|s| s.mean);
        // Releases near the end of the run legitimately have no time to
        // recover; only count an episode unrecovered if it had >= Delta.
        let truly_unrecovered = recoveries
            .iter()
            .filter(|r| {
                r.recovered_at.is_none()
                    && (horizon - r.released_at).as_secs() >= scenario.big_delta.as_secs()
            })
            .count();
        let ok = max_dev <= gamma && truly_unrecovered == 0;
        all_pass &= ok;
        table.row_owned(vec![
            name.to_string(),
            fmt_secs(max_dev),
            format!("{:.2}", max_dev / gamma),
            mean_latency.map_or("-".into(), fmt_secs),
            truly_unrecovered.to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    ExperimentReport {
        id: "E12",
        title: "Attack gallery: the bound holds for every strategy".into(),
        claim: "Abstract: arbitrary (Byzantine) faults tolerated without detection, as long \
                as the adversary is f-limited"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            "every run uses the identical f-limited rotating schedule; only the strategy \
             changes"
                .into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
