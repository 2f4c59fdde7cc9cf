//! E5 ("Table 3") — the `n ≥ 3f+1` resilience threshold is tight.
//!
//! Claim: the paper assumes `n ≥ 3f+1` (Section 2.2); with `n ≤ 3f` an
//! f-limited Byzantine adversary can keep two honest camps permanently
//! apart (each camp sees exactly `f` members of the other camp, which its
//! trimming must treat as potentially faulty, while the colluders feed
//! each camp lies on its own side).
//!
//! Method: for fixed `f = 2`, sweep `n` across the threshold. The honest
//! processors start split into two camps at bias `±x` (initial deviation
//! `2x < γ`, a legal start), the `f` corrupted processors run the
//! omniscient colluder. We report whether the camps converge (final
//! deviation well below the initial one) or stay split.

use byzclock_adversary::{Adversary, ColluderStrategy, CorruptionSchedule};
use byzclock_runtime::InitialBias;
use byzclock_sim::{ProcId, RealTime};

use crate::experiments::{ExperimentReport, Mode};
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E5.
pub fn run(mode: Mode) -> ExperimentReport {
    let f = 2usize;
    let ns: &[usize] = match mode {
        Mode::Quick => &[7, 6],
        Mode::Full => &[9, 8, 7, 6, 5],
    };
    let horizon_deltas = mode.horizon_deltas(4.0, 10.0);

    let mut table = Table::new(
        "Table 3: resilience threshold (f=2, colluder adversary, camps at +/-x)",
        &[
            "n",
            "n-3f",
            "initial dev",
            "final dev",
            "converged",
            "expected",
            "ok",
        ],
    );
    let mut all_pass = true;

    // Each n is an independent world — fan the sweep across cores. Results
    // come back in `ns` order, so the table is identical to the old
    // sequential loop.
    let outcomes = byzclock_sim::par_map_auto(ns.to_vec(), |_, n| {
        let scenario = Scenario::standard(n, f);
        let bounds = scenario.bounds();
        let x = bounds.gamma / 2.5; // initial deviation 0.8 gamma — legal
        let honest = n - f;
        // Honest nodes 0..honest split into two camps; corrupted are the
        // last f ids.
        let mut biases = vec![0.0f64; n];
        for (rank, item) in biases.iter_mut().take(honest).enumerate() {
            *item = if rank < honest / 2 { -x } else { x };
        }
        let corrupted: Vec<ProcId> = (honest..n).map(|i| ProcId(i as u32)).collect();
        let horizon = RealTime::ZERO + scenario.big_delta * horizon_deltas;
        let schedule = CorruptionSchedule::permanent(&corrupted, horizon);
        schedule
            .verify_f_limited(f, scenario.big_delta, horizon)
            .expect("permanent f-set is f-limited");

        let mut world = scenario
            .builder()
            .allow_sub_resilience()
            .initial_bias(InitialBias::Explicit(biases))
            .adversary(Adversary::new(schedule, Box::new(ColluderStrategy::new())))
            .build()
            .expect("E5 world must build");
        world.run_until(horizon);

        // Deviation over the honest camp (the corrupted f are never good).
        let sample = world.sample_now();
        let final_dev = sample.good_deviation().unwrap_or(f64::NAN);
        let initial_dev = 2.0 * x;
        let converged = final_dev < initial_dev / 2.0;
        let expect_converged = n > 3 * f;
        let ok = converged == expect_converged;
        let row = vec![
            n.to_string(),
            format!("{:+}", n as i64 - 3 * f as i64),
            fmt_secs(initial_dev),
            fmt_secs(final_dev),
            if converged { "yes" } else { "no" }.into(),
            if expect_converged {
                "converge"
            } else {
                "stay split"
            }
            .into(),
            if ok { "yes" } else { "NO" }.into(),
        ];
        (row, ok)
    });
    for (row, ok) in outcomes {
        all_pass &= ok;
        table.row_owned(row);
    }

    ExperimentReport {
        id: "E5",
        title: "Resilience threshold: n >= 3f+1 is tight".into(),
        claim: "Section 2.2: n >= 3f+1 assumed; below it the colluder splits the network".into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            "colluder lies at the plausibility edge in each requester's own direction; with \
             n <= 3f each camp's trimming removes the entire other camp"
                .into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
