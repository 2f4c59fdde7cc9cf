//! E8 ("Figure D") — the Section 5 two-cliques counterexample.
//!
//! Claim: `(3f+1)`-connectivity is *not* sufficient for the protocol. On
//! the graph of two `(3f+1)`-cliques joined by a perfect matching (which
//! is `(3f+1)`-connected), the protocol "cannot guarantee that the clocks
//! in one clique do not drift apart from those in the other": each node's
//! single cross-clique estimate is exactly what its `f+1` trimming
//! removes, so the cliques ignore each other.
//!
//! Method: give clique A systematically fast clocks and clique B slow ones
//! (both inside the ρ-envelope), no faults at all, and track the
//! inter-clique gap. Control: the same nodes and rates on a full mesh.

use byzclock_net::Topology;
use byzclock_runtime::DriftSpec;
use byzclock_sim::{ProcId, RealTime};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::series::Series;
use crate::table::{fmt_secs, Table};

/// Runs E8.
pub fn run(mode: Mode) -> ExperimentReport {
    let f = 1usize;
    let half = 3 * f + 1;
    let n = 2 * half;
    let scenario = Scenario::drifty(n, f); // rho = 1e-4 for visible separation
    let bounds = scenario.bounds();
    let horizon = RealTime::ZERO + scenario.big_delta * mode.horizon_deltas(20.0, 40.0);

    // Clique A fast, clique B slow — extremes of the rho-envelope.
    let fast = 1.0 + scenario.rho;
    let slow = 1.0 / (1.0 + scenario.rho);
    let rates: Vec<f64> = (0..n).map(|i| if i < half { fast } else { slow }).collect();

    let run_topology = |topology: Topology| -> Vec<(f64, f64)> {
        let log = RunLog::new();
        let mut world = scenario
            .builder()
            .topology(topology)
            .drift(DriftSpec::ExplicitRates(rates.clone()))
            .build()
            .expect("E8 world must build");
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);
        // inter-clique gap: |mean bias of A − mean bias of B| per sample
        log.samples()
            .iter()
            .map(|s| {
                let mean = |range: std::ops::Range<usize>| -> f64 {
                    range
                        .clone()
                        .map(|i| s.bias_of(ProcId(i as u32)).as_secs())
                        .sum::<f64>()
                        / range.len() as f64
                };
                (s.tau.as_secs(), (mean(0..half) - mean(half..n)).abs())
            })
            .collect()
    };

    let cliques_gap = run_topology(Topology::two_cliques(f));
    let mesh_gap = run_topology(Topology::full_mesh(n));

    let final_cliques = cliques_gap.last().map(|(_, g)| *g).unwrap_or(f64::NAN);
    let final_mesh = mesh_gap.last().map(|(_, g)| *g).unwrap_or(f64::NAN);
    // The cliques must separate at roughly the relative hardware rate
    // (~2 rho per second) until they cross the deviation bound, while the
    // mesh stays within it.
    let slope = crate::stats::linear_fit(&cliques_gap)
        .map(|(_, b)| b)
        .unwrap_or(0.0);
    let expected_slope = 2.0 * scenario.rho;
    let pass = final_cliques > bounds.gamma
        && final_mesh <= bounds.gamma
        && slope > 0.5 * expected_slope
        && slope < 2.0 * expected_slope;

    let mut series = Series::new(
        "inter-clique bias gap (two-cliques topology)",
        "tau (s)",
        "gap (s)",
    );
    for (t, g) in &cliques_gap {
        series.push(*t, *g);
    }
    let mut control = Series::new("inter-group gap (full-mesh control)", "tau (s)", "gap (s)");
    for (t, g) in &mesh_gap {
        control.push(*t, *g);
    }

    let mut table = Table::new(
        "Figure D summary: two cliques of 3f+1 vs full mesh (f=1, n=8, no faults)",
        &["topology", "final gap", "gamma", "verdict"],
    );
    table.row_owned(vec![
        "two-cliques (3f+1-connected)".into(),
        fmt_secs(final_cliques),
        fmt_secs(bounds.gamma),
        if final_cliques > bounds.gamma {
            "drifted apart (as the paper predicts)"
        } else {
            "UNEXPECTEDLY synchronized"
        }
        .into(),
    ]);
    table.row_owned(vec![
        "gap growth rate (fit)".into(),
        format!("{slope:.2e}/s"),
        format!("{expected_slope:.2e}/s expected"),
        "matches 2*rho".into(),
    ]);
    table.row_owned(vec![
        "full mesh (control)".into(),
        fmt_secs(final_mesh),
        fmt_secs(bounds.gamma),
        if final_mesh <= bounds.gamma {
            "synchronized"
        } else {
            "UNEXPECTEDLY apart"
        }
        .into(),
    ]);

    ExperimentReport {
        id: "E8",
        title: "Two-cliques counterexample: (3f+1)-connectivity is insufficient".into(),
        claim: "Section 5: on two (3f+1)-cliques joined by a matching, the cliques' clocks \
                drift apart even with zero faults"
            .into(),
        tables: vec![table],
        series: vec![series, control],
        notes: vec![
            "clique A runs at 1+rho, clique B at 1/(1+rho); each node's one cross-clique \
             estimate is trimmed away as the f+1-st extreme"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
