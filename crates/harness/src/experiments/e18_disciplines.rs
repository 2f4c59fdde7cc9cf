//! E18 (Section 5 outlook) — step vs. slew correction disciplines.
//!
//! The paper's protocol *steps* the adjustment variable (Figure 1), so
//! good clocks may jump — including backwards — by up to the discontinuity
//! bound ψ. Its Section 5 notes that "practical protocols such as the
//! Network Time Protocol involve many mechanisms which may provide better
//! results in typical cases" and asks for refinements "while making sure
//! to retain security". The canonical such mechanism is NTP's *slew*
//! discipline: corrections are folded in gradually at a bounded rate, so
//! clocks stay continuous and monotone.
//!
//! This experiment runs the identical protocol under both disciplines and
//! quantifies the paper's recovery-vs-smoothness tradeoff in its
//! continuous form:
//!
//! * **step** — instant recovery (one sync round), but clocks jump and can
//!   run backwards;
//! * **slew** — monotone, jump-free clocks, but recovery time grows
//!   linearly in the offset (`offset / slew rate`).

use byzclock_adversary::{Adversary, ConstantOffsetStrategy, CorruptionSchedule};
use byzclock_runtime::Discipline;
use byzclock_sim::{ProcId, RealTime, SimDuration};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E18.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(7, 2);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let slew_rate = 5e-3; // 5000 ppm, an aggressive adjtime()
    let offset = 2.0 * gamma;
    let horizon_extra = mode.horizon_deltas(3.0, 4.0);

    let disciplines = [
        (Discipline::Step, "step (paper Figure 1)"),
        (
            Discipline::Slew {
                max_rate: slew_rate,
            },
            "slew (5000 ppm)",
        ),
    ];

    let mut table = Table::new(
        "Step vs slew discipline (n=7, f=2; recovery of a 2*gamma offset)",
        &[
            "discipline",
            "steady dev",
            "recovery",
            "max backward jump",
            "monotone",
        ],
    );
    let mut rows = Vec::new();

    for (discipline, label) in disciplines {
        let victim = ProcId((scenario.n - 1) as u32);
        let schedule = CorruptionSchedule::single(
            victim,
            RealTime::ZERO + scenario.big_delta,
            scenario.big_delta * 0.5,
        );
        let mut world = scenario
            .builder()
            .discipline(discipline)
            .sample_interval(SimDuration::from_millis(250.0))
            .adversary(Adversary::new(
                schedule,
                Box::new(ConstantOffsetStrategy::new(offset)),
            ))
            .build()
            .expect("E18 world must build");
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(RealTime::ZERO + scenario.big_delta * (1.5 + horizon_extra));

        // Clock monotonicity of an always-good node (p0): C must never
        // decrease between samples. C(t2) − C(t1) = (t2 − t1) + (B2 − B1).
        let traj = log.trajectory(ProcId(0));
        let mut max_backward: f64 = 0.0;
        for w in traj.windows(2) {
            let ((t1, b1), (t2, b2)) = (w[0], w[1]);
            let clock_step = (t2 - t1) + (b2 - b1);
            if clock_step < 0.0 {
                max_backward = max_backward.max(-clock_step);
            }
        }
        let monotone = max_backward == 0.0;
        let latency = log.latencies(gamma).first().copied();
        let steady = log
            .avg_deviation(RealTime::ZERO + scenario.big_delta)
            .unwrap_or(f64::NAN);
        rows.push((latency, monotone, steady));
        table.row_owned(vec![
            label.to_string(),
            fmt_secs(steady),
            latency.map_or("not yet".into(), fmt_secs),
            fmt_secs(max_backward),
            if monotone { "yes" } else { "no" }.to_string(),
        ]);
    }

    // Shape: both stay synchronized in steady state; step recovers faster
    // than slew; slew is monotone. (Step *may* be monotone by luck when
    // all corrections are forward; we do not require it to jump backward.)
    let (step_latency, _, step_steady) = rows[0];
    let (slew_latency, slew_monotone, slew_steady) = rows[1];
    let pass = step_steady <= gamma
        && slew_steady <= gamma
        && slew_monotone
        && match (step_latency, slew_latency) {
            (Some(s), Some(l)) => s < l && l <= 2.0 * offset / slew_rate,
            _ => false,
        };

    ExperimentReport {
        id: "E18",
        title: "Correction disciplines: the recovery/smoothness tradeoff, continuous form".into(),
        claim: "Section 5 outlook: NTP-style mechanisms can improve typical behaviour; slew \
                buys monotone clocks at recovery time ~ offset/rate"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![format!(
            "slew rate {} => expected recovery of a {} offset in ~{}",
            slew_rate,
            fmt_secs(offset),
            fmt_secs(offset / slew_rate)
        )],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
