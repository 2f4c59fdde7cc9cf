//! E4 ("Table 2") — Theorem 5(ii): accuracy.
//!
//! Claim: for a processor non-faulty during `[τ₁−Δ, τ₂]`,
//!
//! ```text
//! (τ₂−τ₁)/(1+ρ̃) − ψ ≤ C(τ₂) − C(τ₁) ≤ (τ₂−τ₁)(1+ρ̃) + ψ
//! ```
//!
//! with `ρ̃ = ρ + C/2T` and `ψ = Λ + C/2`. The synchronized clocks may not
//! run (much) faster or slower than real time, and no single adjustment of
//! a good processor exceeds ψ.
//!
//! Method: a long quiet run with pronounced hardware drift (ρ = 10⁻⁴).
//! For every processor and every window of length Δ we compute the
//! *excess rate* `(|C(τ₂)−C(τ₁)−(τ₂−τ₁)| − ψ)/(τ₂−τ₁)` — Theorem 5(ii)
//! says it is at most ρ̃. Discontinuity is the largest single adjustment
//! applied by any (always-good) processor.

use byzclock_sim::{ProcId, RealTime};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E4.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::drifty(7, 2);
    let bounds = scenario.bounds();
    let horizon = scenario.big_delta * mode.horizon_deltas(6.0, 20.0);

    let log = RunLog::new();
    let mut world = scenario.quiet_world();
    world.add_observer(Box::new(log.clone()));
    world.run_until(RealTime::ZERO + horizon);

    // Windowed excess rate per node, excluding the initial-convergence
    // transient (Theorem 5(ii) assumes a correctly initialized system;
    // the first Delta is the warm-up).
    let warmup = scenario.big_delta.as_secs();
    let window = scenario.big_delta.as_secs();
    let psi = bounds.discontinuity;
    let mut max_excess_rate: f64 = 0.0;
    let mut max_raw_rate: f64 = 0.0;
    for p in 0..scenario.n {
        let traj: Vec<(f64, f64)> = log
            .trajectory(ProcId(p as u32))
            .into_iter()
            .filter(|(t, _)| *t >= warmup)
            .collect();
        for (i, &(t1, b1)) in traj.iter().enumerate() {
            // find the first sample at least one window later
            if let Some(&(t2, b2)) = traj[i..].iter().find(|(t2, _)| t2 - t1 >= window) {
                let clock_span = (t2 - t1) + (b2 - b1); // C(t2) - C(t1)
                let excess = ((clock_span - (t2 - t1)).abs() - psi).max(0.0) / (t2 - t1);
                max_excess_rate = max_excess_rate.max(excess);
                max_raw_rate = max_raw_rate.max((b2 - b1).abs() / (t2 - t1));
            }
        }
    }

    let measured_psi = log
        .max_good_discontinuity(RealTime::from_secs(warmup))
        .unwrap_or(0.0);

    let drift_ok = max_excess_rate <= bounds.logical_drift;
    let psi_ok = measured_psi <= psi;
    let pass = drift_ok && psi_ok;

    let mut table = Table::new(
        "Table 2: accuracy — measured vs Theorem 5(ii) bounds (rho = 1e-4)",
        &["metric", "measured", "bound", "ok"],
    );
    table.row_owned(vec![
        "logical drift (excess rate over Delta-windows)".into(),
        format!("{max_excess_rate:.2e}"),
        format!("{:.2e}", bounds.logical_drift),
        if drift_ok { "yes" } else { "NO" }.into(),
    ]);
    table.row_owned(vec![
        "raw windowed |dB/dt|".into(),
        format!("{max_raw_rate:.2e}"),
        "(informational)".into(),
        "-".into(),
    ]);
    table.row_owned(vec![
        "discontinuity psi (max good adjustment)".into(),
        fmt_secs(measured_psi),
        fmt_secs(psi),
        if psi_ok { "yes" } else { "NO" }.into(),
    ]);

    ExperimentReport {
        id: "E4",
        title: "Accuracy: logical drift and discontinuity bounds".into(),
        claim: "Theorem 5(ii): logical drift <= rho + C/2T, discontinuity <= L + C/2".into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            format!(
                "hardware rho = {:.0e}, bound rho~ = {:.3e}; adjustments counted: {}",
                scenario.rho,
                bounds.logical_drift,
                log.adjustments().len()
            ),
            "quiet run: every processor is good throughout, so all adjustments count".into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
