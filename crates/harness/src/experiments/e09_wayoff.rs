//! E9 ("Table 5") — the `WayOff` ablation: recovery speed vs step size.
//!
//! Claim (Sections 1.1 and 3.3): the `WayOff` test is what buys fast
//! recovery — when the own clock is outside `±WayOff` of the good range,
//! the protocol jumps to `(m+M)/2` instead of taking the limited step.
//! Raising `WayOff` (up to disabling the jump entirely with `∞`) trades
//! recovery speed for smaller individual corrections; the paper "chose
//! the latter" (fast recovery).
//!
//! Method: identical recovery scenarios (clock reset `50γ` away) with
//! `WayOff ∈ {derived, 10×, 1000×, ∞}`; report recovery latency and the
//! recovering node's largest single adjustment.

use byzclock_adversary::{Adversary, ConstantOffsetStrategy, CorruptionSchedule};
use byzclock_sim::{ProcId, RealTime};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E9.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(7, 2);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let offset = 50.0 * gamma;
    let multipliers: &[(f64, &str)] = match mode {
        Mode::Quick => &[(1.0, "derived (gamma+L)"), (f64::INFINITY, "infinite")],
        Mode::Full => &[
            (1.0, "derived (gamma+L)"),
            (10.0, "10x"),
            (1000.0, "1000x"),
            (f64::INFINITY, "infinite (jump disabled)"),
        ],
    };

    let mut table = Table::new(
        "Table 5: WayOff ablation — recovery of a clock 50*gamma away (n=7, f=2)",
        &[
            "WayOff",
            "latency",
            "latency/T",
            "victim max |step|",
            "recovered<=Delta",
        ],
    );
    let mut rows: Vec<(f64, Option<f64>, f64)> = Vec::new();

    let victim = ProcId((scenario.n - 1) as u32);
    for &(mult, label) in multipliers {
        let way_off = if mult.is_infinite() {
            f64::INFINITY
        } else {
            bounds.way_off * mult
        };
        let schedule = CorruptionSchedule::single(
            victim,
            RealTime::ZERO + scenario.big_delta,
            scenario.big_delta * 0.5,
        );
        let mut world = scenario
            .builder()
            .way_off_override(way_off)
            .adversary(Adversary::new(
                schedule,
                Box::new(ConstantOffsetStrategy::new(offset)),
            ))
            .build()
            .expect("E9 world must build");
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        let release_at = RealTime::ZERO + scenario.big_delta * 1.5;
        world.run_until(release_at + scenario.big_delta * 3.0);

        let latency = log.latencies(gamma).first().copied();
        let max_step = log
            .adjustments()
            .iter()
            .filter(|a| a.node == victim && a.tau.as_secs() >= release_at.as_secs())
            .map(|a| a.delta.abs())
            .fold(0.0f64, f64::max);
        rows.push((way_off, latency, max_step));
        table.row_owned(vec![
            label.to_string(),
            latency.map_or(">3 Delta".into(), fmt_secs),
            latency.map_or("-".into(), |l| format!("{:.2}", l / scenario.t().as_secs())),
            fmt_secs(max_step),
            if latency.is_some_and(|l| l <= scenario.big_delta.as_secs()) {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }

    // Shape checks: the derived WayOff recovers within Delta with one big
    // jump; disabling the jump makes recovery strictly slower and the max
    // step strictly smaller.
    let derived = &rows[0];
    let disabled = rows.last().expect("at least two rows");
    let pass = derived.1.is_some_and(|l| l <= scenario.big_delta.as_secs())
        && derived.2 > offset * 0.8
        && match (derived.1, disabled.1) {
            (Some(fast), Some(slow)) => slow > fast && disabled.2 < derived.2,
            (Some(_), None) => true, // never recovered: even stronger
            _ => false,
        };

    ExperimentReport {
        id: "E9",
        title: "WayOff ablation: the jump branch is what makes recovery fast".into(),
        claim: "Sections 1.1/3.3: small-correction designs delay or prevent recovery; the \
                WayOff jump recovers in one sync"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![format!(
            "offset = 50*gamma = {}; derived WayOff = {}",
            fmt_secs(offset),
            fmt_secs(bounds.way_off)
        )],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
