//! E1 ("Table 1") — Theorem 5(i): the synchronization guarantee.
//!
//! Claim: at all times, any two processors that were non-faulty during
//! `[τ−Δ, τ]` have `|C_p(τ) − C_q(τ)| ≤ γ = 16Λ + 18ρT + 4C`.
//!
//! Method: for each K (which sets `T = Δ/K` and hence γ), run (a) a quiet
//! network and (b) a network under rotating Byzantine churn, and record the
//! maximum good-set deviation after a one-Δ warm-up. The measured value
//! must stay below γ; being far below is expected (γ is worst-case).

use byzclock_adversary::RandomReplyStrategy;
use byzclock_sim::RealTime;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E1.
pub fn run(mode: Mode) -> ExperimentReport {
    let ks: &[u32] = match mode {
        Mode::Quick => &[5, 8],
        Mode::Full => &[5, 6, 8, 10],
    };
    let horizon_deltas = mode.horizon_deltas(3.0, 8.0);

    let mut table = Table::new(
        "Table 1: max good-set deviation vs Theorem 5(i) bound (n=10, f=3)",
        &["K", "T", "gamma", "quiet", "churn", "churn/gamma", "ok"],
    );
    let mut all_pass = true;

    for &k in ks {
        let scenario = Scenario::standard(10, 3).with_k(k);
        let bounds = scenario.bounds();
        let warmup = RealTime::ZERO + scenario.big_delta;
        let horizon = RealTime::ZERO + scenario.big_delta * (1.0 + horizon_deltas);

        let quiet_dev = {
            let log = RunLog::new();
            let mut world = scenario.quiet_world();
            world.add_observer(Box::new(log.clone()));
            world.run_until(horizon);
            log.max_deviation(warmup).unwrap_or(f64::NAN)
        };

        let churn_dev = {
            let log = RunLog::new();
            let mut world = scenario.churn_world(
                Box::new(RandomReplyStrategy::new(bounds.gamma * 10.0)),
                horizon,
            );
            world.add_observer(Box::new(log.clone()));
            world.run_until(horizon);
            log.max_deviation(warmup).unwrap_or(f64::NAN)
        };

        let ok = quiet_dev <= bounds.gamma && churn_dev <= bounds.gamma;
        all_pass &= ok;
        table.row_owned(vec![
            k.to_string(),
            fmt_secs(bounds.t.as_secs()),
            fmt_secs(bounds.gamma),
            fmt_secs(quiet_dev),
            fmt_secs(churn_dev),
            format!("{:.2}", churn_dev / bounds.gamma),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    ExperimentReport {
        id: "E1",
        title: "Synchronization: deviation stays below gamma".into(),
        claim: "Theorem 5(i): |C_p - C_q| <= gamma = 16L + 18rhoT + 4C for good p, q".into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            "churn = rotating f-limited corruption, random-reply strategy (spread 10*gamma)".into(),
            "measured after a 1-Delta warm-up; bounds are worst-case so large headroom is \
             expected"
                .into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
        assert_eq!(report.tables[0].row_count(), 2);
    }
}
