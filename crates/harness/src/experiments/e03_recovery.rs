//! E3 ("Figure B") — Lemma 7(iii) / Claim 8: recovery.
//!
//! Claim: once the adversary leaves a processor, its distance to the good
//! envelope halves every interval `T` while it is within `WayOff` (the
//! limited branch), and a processor *beyond* `WayOff` jumps straight into
//! the good range (the `(m+M)/2` branch) — so every processor recovers
//! within Δ, regardless of how far its clock was reset.
//!
//! Method: corrupt one processor for Δ/2, resetting its clock to bias ε;
//! after release, record (a) the recovery latency for ε across five orders
//! of magnitude and (b) the distance-to-good trajectory for an ε *inside*
//! WayOff, whose per-interval contraction must be ≤ 1/2 (+ reading-error
//! floor).

use byzclock_adversary::ConstantOffsetStrategy;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::series::Series;
use crate::table::{fmt_secs, Table};

/// Runs E3.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(7, 2);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let offsets_gamma: &[f64] = match mode {
        Mode::Quick => &[0.5, 100.0],
        Mode::Full => &[0.5, 2.0, 100.0, 10_000.0],
    };

    let mut table = Table::new(
        "Recovery latency vs initial clock offset (n=7, f=2; bound: <= Delta)",
        &[
            "offset",
            "offset/gamma",
            "latency",
            "latency/T",
            "ok(<=Delta)",
        ],
    );
    let mut all_pass = true;

    for &mult in offsets_gamma {
        let offset = mult * gamma;
        let (mut world, _victim, release_at) =
            scenario.recovery_world(Box::new(ConstantOffsetStrategy::new(offset)));
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        // fine-grained sampling for latency resolution
        let horizon = release_at + scenario.big_delta * 2.0;
        world.run_until(horizon);
        let latency = log.latencies(gamma).first().copied();
        let ok = latency.is_some_and(|l| l <= scenario.big_delta.as_secs());
        all_pass &= ok;
        table.row_owned(vec![
            fmt_secs(offset),
            format!("{mult:.1}"),
            latency.map_or("never".into(), fmt_secs),
            latency.map_or("-".into(), |l| format!("{:.2}", l / scenario.t().as_secs())),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    // Halving trajectory: ε inside WayOff so the limited branch is used.
    let eps = bounds.way_off * 0.8;
    let (mut world, victim, release_at) =
        scenario.recovery_world(Box::new(ConstantOffsetStrategy::new(eps)));
    let log = RunLog::new();
    world.add_observer(Box::new(log.clone()));
    world.run_until(release_at + scenario.big_delta * 2.0);

    let mut series = Series::new(
        "distance to good envelope after release",
        "intervals after release",
        "distance (s)",
    );
    let t_secs = scenario.t().as_secs();
    let release_secs = release_at.as_secs();
    let mut per_interval: Vec<f64> = Vec::new();
    for (tau, dist) in log.distance_to_good(victim) {
        if tau >= release_secs {
            let intervals = (tau - release_secs) / t_secs;
            series.push(intervals, dist.max(1e-12));
            // keep one representative (the max) per whole interval
            let idx = intervals.floor() as usize;
            if per_interval.len() <= idx {
                per_interval.resize(idx + 1, 0.0);
            }
            per_interval[idx] = per_interval[idx].max(dist);
        }
    }
    // The distance one interval after release must be at most half the
    // initial distance plus the reading-error floor (Lemma 7(iii)).
    let lambda = scenario.model().lambda;
    if per_interval.len() >= 2 && per_interval[0] > 4.0 * lambda {
        let halved_ok = per_interval[1] <= per_interval[0] / 2.0 + 4.0 * lambda;
        all_pass &= halved_ok;
    }

    ExperimentReport {
        id: "E3",
        title: "Recovery: distance halves per interval; way-off clocks jump".into(),
        claim: "Lemma 7(iii): eps -> eps/2 per interval; Claim 8: recovery within Delta".into(),
        tables: vec![table],
        series: vec![series.log_y()],
        notes: vec![
            format!(
                "gamma = {}, WayOff = {}, T = {}",
                fmt_secs(gamma),
                fmt_secs(bounds.way_off),
                fmt_secs(t_secs)
            ),
            "offsets beyond WayOff recover in a single sync (the (m+M)/2 jump)".into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
