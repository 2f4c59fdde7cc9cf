//! E15 ("Future work, Section 5") — a temporarily overpowered adversary.
//!
//! The paper asks: "what happens if the adversary was 'too powerful' for a
//! while, and now it is back to being f-limited[?]". We stage exactly
//! that: during one window the adversary controls `2f` processors
//! (violating Definition 2) and scrambles their clocks; afterwards it
//! retreats entirely. The healthy outcome — and what we measure — is that
//! the system *heals*: deviation may blow past γ while the adversary is
//! overpowered, but returns below γ within a bounded time once it retreats
//! (the released processors walk back in through the ordinary recovery
//! path).

use byzclock_adversary::CorruptionInterval;
use byzclock_adversary::{Adversary, CorruptionSchedule, RandomReplyStrategy};
use byzclock_sim::{ProcId, RealTime};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::series::Series;
use crate::table::{fmt_secs, Table};

/// Runs E15.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(10, 3);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let big_delta = scenario.big_delta;
    let over_start = RealTime::ZERO + big_delta;
    let over_end = over_start + big_delta; // one Delta of 2f corruption
    let horizon = over_end + big_delta * mode.horizon_deltas(3.0, 6.0);

    // 2f = 6 of 10 processors corrupted simultaneously — deliberately
    // violates Definition 2 (the schedule verifier would reject it for
    // f = 3, which is the point).
    let overpowered: Vec<CorruptionInterval> = (0..2 * scenario.f)
        .map(|i| CorruptionInterval::new(ProcId(i as u32), over_start, over_end))
        .collect();
    let schedule = CorruptionSchedule::from_intervals(overpowered);
    assert!(
        schedule
            .verify_f_limited(scenario.f, big_delta, horizon)
            .is_err(),
        "the staged attack must actually violate Definition 2"
    );

    let mut world = scenario
        .builder()
        .adversary(Adversary::new(
            schedule,
            Box::new(RandomReplyStrategy::new(gamma * 50.0)),
        ))
        .build()
        .expect("E15 world must build");
    let log = RunLog::new();
    world.add_observer(Box::new(log.clone()));
    world.run_until(horizon);

    // Deviation over *all* processors (none is Definition-3-good around the
    // overpowered window, so use the raw all-node spread for the story).
    let series_data = log.deviations(RealTime::ZERO);
    let mut series = Series::new(
        "good-set deviation through an overpowered period",
        "tau (s)",
        "dev (s)",
    );
    for (t, d) in &series_data {
        series.push(*t, *d);
    }

    // Healing time: first time after over_end + Delta (when released nodes
    // re-enter the good set) at which deviation is back under gamma and
    // stays there.
    let good_again = (over_end + big_delta).as_secs();
    let healed_at = series_data
        .iter()
        .filter(|(t, _)| *t >= good_again)
        .find(|(_, d)| *d <= gamma)
        .map(|(t, _)| *t);
    let relapsed = series_data
        .iter()
        .filter(|(t, _)| healed_at.is_some_and(|h| *t > h))
        .any(|(_, d)| *d > gamma);
    let final_dev = series_data.last().map_or(f64::NAN, |(_, d)| *d);

    let heal_latency = healed_at.map(|h| h - over_end.as_secs());
    let pass = healed_at.is_some() && !relapsed && final_dev <= gamma;

    let mut table = Table::new(
        "Overpowered-adversary healing (n=10, f=3; 2f corrupted for one Delta)",
        &["metric", "value"],
    );
    table.row_owned(vec![
        "overpowered window".into(),
        format!("[{}, {}]", over_start, over_end),
    ]);
    table.row_owned(vec![
        "definition 2 violated".into(),
        "yes (verified)".into(),
    ]);
    table.row_owned(vec![
        "healed (dev <= gamma) after retreat".into(),
        heal_latency.map_or("never".into(), fmt_secs),
    ]);
    table.row_owned(vec!["relapsed afterwards".into(), relapsed.to_string()]);
    table.row_owned(vec!["final deviation".into(), fmt_secs(final_dev)]);
    table.row_owned(vec!["gamma".into(), fmt_secs(gamma)]);

    ExperimentReport {
        id: "E15",
        title: "Temporarily overpowered adversary: the system heals".into(),
        claim: "Section 5 (open question): after a period of >f corruptions the network \
                returns to synchronization once the adversary is f-limited again"
            .into(),
        tables: vec![table],
        series: vec![series],
        notes: vec![
            "released processors re-enter through the ordinary WayOff recovery path; \
             the honest minority kept each other synchronized meanwhile (4 > f = 3 of \
             them stayed honest, so their own trimming still worked)"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
