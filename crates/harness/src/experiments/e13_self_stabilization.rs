//! E13 ("Future work, Section 5") — self-stabilization from arbitrary
//! initial states.
//!
//! The paper *asks* (it does not prove): "what happens when the adversary
//! is limited, but the initial clock values of the processors are
//! arbitrary[?] … it is desirable to improve the protocol and/or analysis
//! to also guarantee self stabilization". The authors note in Section 1.1
//! that "it is not clear if our algorithm is self stabilizing".
//!
//! This experiment explores the question empirically: clocks start at
//! arbitrary values spread over ±`10⁶ γ`, with (a) no adversary and (b) an
//! f-limited colluder active from the start. We measure whether and how
//! fast the network converges into the Theorem 5 envelope.
//!
//! Finding (recorded in EXPERIMENTS.md): the protocol *does* converge from
//! arbitrary states in both settings — the `WayOff` jump acts as a global
//! midpoint iteration — supporting the paper's conjecture empirically,
//! though of course not proving it.

use byzclock_adversary::{Adversary, ColluderStrategy, CorruptionSchedule};
use byzclock_runtime::InitialBias;
use byzclock_sim::{DetRng, ProcId, RealTime, RngHub};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E13.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(10, 3);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let spreads: &[f64] = match mode {
        Mode::Quick => &[1e3, 1e6],
        Mode::Full => &[1e2, 1e3, 1e6],
    };
    let horizon = RealTime::ZERO + scenario.big_delta * mode.horizon_deltas(4.0, 8.0);

    let mut table = Table::new(
        "Self-stabilization probe: arbitrary initial clocks (n=10, f=3)",
        &[
            "initial spread",
            "adversary",
            "settling time",
            "final dev",
            "converged",
        ],
    );
    let mut all_pass = true;

    for &spread_gamma in spreads {
        let spread = spread_gamma * gamma;
        for adversarial in [false, true] {
            let mut rng: DetRng = RngHub::new(scenario.seed).stream("e13-init", 0);
            let biases: Vec<f64> = (0..scenario.n)
                .map(|_| rng.uniform(-spread, spread))
                .collect();
            let mut builder = scenario
                .builder()
                .initial_bias(InitialBias::Explicit(biases));
            if adversarial {
                let corrupted: Vec<ProcId> = (scenario.n - scenario.f..scenario.n)
                    .map(|i| ProcId(i as u32))
                    .collect();
                builder = builder.adversary(Adversary::new(
                    CorruptionSchedule::permanent(&corrupted, horizon),
                    Box::new(ColluderStrategy::new()),
                ));
            }
            let log = RunLog::new();
            let mut world = builder.build().expect("E13 world must build");
            world.add_observer(Box::new(log.clone()));
            world.run_until(horizon);

            // settling time: first sample after which deviation stays <= gamma
            let series = log.deviations(RealTime::ZERO);
            let settled_at = series
                .iter()
                .rev()
                .take_while(|(_, d)| *d <= gamma)
                .last()
                .map(|(t, _)| *t);
            let final_dev = series.last().map_or(f64::NAN, |(_, d)| *d);
            let converged = final_dev <= gamma && settled_at.is_some();
            // We only *require* convergence (the conjecture's direction);
            // settling speed is informational.
            all_pass &= converged;
            table.row_owned(vec![
                fmt_secs(spread),
                if adversarial {
                    "colluder (f permanent)"
                } else {
                    "none"
                }
                .into(),
                settled_at.map_or("-".into(), fmt_secs),
                fmt_secs(final_dev),
                if converged { "yes" } else { "NO" }.into(),
            ]);
        }
    }

    ExperimentReport {
        id: "E13",
        title: "Self-stabilization probe: arbitrary initial clock values".into(),
        claim: "Section 5 (open question): does the protocol converge from arbitrary \
                initial states? Empirically: yes (supports the conjecture; not a proof)"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            "the WayOff jump makes the update a trimmed midpoint iteration, which \
             contracts the global spread geometrically even from 10^6*gamma away"
                .into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
