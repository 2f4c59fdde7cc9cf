//! E10 ("Figure E") — the K tradeoff remark after Theorem 5.
//!
//! Claim: "if we choose T to be small compared to Δ (for instance
//! T = Δ/20) then C is very small and so we get almost perfect accuracy
//! (ρ̃ ≈ ρ) and the significant term in the maximum deviation bound is
//! 16Λ" — i.e. syncing more often per Δ rapidly shrinks the `C` residue.
//!
//! Method: sweep K; for each, tabulate the analytic `C`, γ and ρ̃ and
//! measure the actual deviation of a quiet run, confirming measurements
//! stay below the (shrinking) bound.

use byzclock_sim::RealTime;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::series::Series;
use crate::table::{fmt_secs, Table};

/// Runs E10.
pub fn run(mode: Mode) -> ExperimentReport {
    let ks: Vec<u32> = match mode {
        Mode::Quick => vec![5, 8, 12],
        Mode::Full => vec![5, 6, 7, 8, 10, 12, 16, 20],
    };
    let horizon_deltas = mode.horizon_deltas(3.0, 6.0);

    let mut table = Table::new(
        "Figure E data: Theorem 5 bounds and measured deviation vs K (n=7, f=2)",
        &["K", "T", "C", "gamma", "rho~", "measured dev", "ok"],
    );
    let mut bound_series = Series::new("gamma bound vs K", "K", "gamma (s)");
    let mut measured_series = Series::new("measured deviation vs K", "K", "dev (s)");
    let mut c_values = Vec::new();
    let mut all_pass = true;

    for &k in &ks {
        let scenario = Scenario::standard(7, 2).with_k(k);
        let bounds = scenario.bounds();
        let log = RunLog::new();
        let mut world = scenario.quiet_world();
        world.add_observer(Box::new(log.clone()));
        world.run_until(RealTime::ZERO + scenario.big_delta * (1.0 + horizon_deltas));
        let measured = log
            .max_deviation(RealTime::ZERO + scenario.big_delta)
            .unwrap_or(f64::NAN);
        let ok = measured <= bounds.gamma;
        all_pass &= ok;
        bound_series.push(k as f64, bounds.gamma);
        measured_series.push(k as f64, measured);
        c_values.push(bounds.c);
        table.row_owned(vec![
            k.to_string(),
            fmt_secs(bounds.t.as_secs()),
            format!("{:.3e}", bounds.c),
            fmt_secs(bounds.gamma),
            format!("{:.3e}", bounds.logical_drift),
            fmt_secs(measured),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    // C must decay roughly geometrically (factor ~1/2 per +1 K in the
    // lambda-dominated regime).
    all_pass &= c_values.windows(2).all(|w| w[1] < w[0]);
    // at the largest K, gamma must be close to its 16-Lambda floor
    let lambda = Scenario::standard(7, 2).model().lambda;
    let last_gamma = bound_series.points().last().expect("nonempty").1;
    all_pass &= last_gamma < 16.0 * lambda * 1.25;

    ExperimentReport {
        id: "E10",
        title: "K tradeoff: more syncs per Delta => C -> 0, accuracy -> rho".into(),
        claim: "Theorem 5 remark: with T small vs Delta, rho~ ~= rho and gamma ~= 16*Lambda".into(),
        tables: vec![table],
        series: vec![bound_series, measured_series],
        notes: vec![format!("16*Lambda floor = {}", fmt_secs(16.0 * lambda))],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
