//! E14 ("Future work, Section 5") — how much connectivity does the
//! protocol actually need?
//!
//! The paper proves its guarantees on the complete graph, shows
//! `(3f+1)`-connectivity is insufficient (the two-cliques construction,
//! our E8), and conjectures that "it is sufficient that the non-faulty
//! processors form a sufficiently connected subgraph". This experiment
//! maps the empirical territory between those endpoints: Erdős–Rényi
//! graphs `G(n, p)` swept over the edge density `p`, with rotating
//! Byzantine churn, measuring whether synchronization holds.
//!
//! Measured shape (recorded in EXPERIMENTS.md): deviation degrades
//! steadily as the graph thins, but the colluder cannot *drag* sparse
//! nodes — a node whose neighborhood cannot produce f+1 finite estimates
//! per side computes `m = +∞, M = −∞` and its limited step degenerates to
//! **zero**: under-connected nodes freeze and only drift. Sparse graphs
//! therefore fail slowly (at the hardware drift rate), not catastrophically
//! — an emergent safety property of the Figure 1 trimming worth recording
//! alongside the open question.

use byzclock_adversary::ColluderStrategy;
use byzclock_net::Topology;
use byzclock_sim::{RealTime, RngHub};

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E14.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(13, 2);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let ps: &[f64] = match mode {
        Mode::Quick => &[1.0, 0.6, 0.25],
        Mode::Full => &[1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.25],
    };
    let horizon = RealTime::ZERO + scenario.big_delta * mode.horizon_deltas(4.0, 8.0);

    let mut table = Table::new(
        "Connectivity sweep: G(n, p) under churn (n=13, f=2)",
        &["p", "min degree", "connected", "max dev", "synced(<=gamma)"],
    );
    let mut results: Vec<(f64, f64)> = Vec::new();

    for &p in ps {
        let mut topo_rng = RngHub::new(scenario.seed).stream("e14-topo", (p * 1000.0) as u64);
        let topology = if p >= 1.0 {
            Topology::full_mesh(scenario.n)
        } else {
            Topology::erdos_renyi(scenario.n, p, &mut topo_rng)
        };
        let min_degree = topology.min_degree();
        let connected = topology.is_connected();

        let log = RunLog::new();
        let schedule = byzclock_adversary::CorruptionSchedule::rotating(
            scenario.n,
            scenario.f,
            scenario.big_delta * 0.5,
            scenario.big_delta,
            horizon,
            scenario.big_delta * 0.25,
        );
        let mut world = scenario
            .builder()
            .topology(topology)
            .initial_bias_spread(gamma / 4.0)
            .adversary(byzclock_adversary::Adversary::new(
                schedule,
                Box::new(ColluderStrategy::new()),
            ))
            .build()
            .expect("E14 world must build");
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);

        let max_dev = log
            .max_deviation(RealTime::ZERO + scenario.big_delta)
            .unwrap_or(f64::INFINITY);
        let synced = max_dev <= gamma;
        results.push((p, max_dev));
        table.row_owned(vec![
            format!("{p:.2}"),
            min_degree.to_string(),
            if connected { "yes" } else { "no" }.into(),
            fmt_secs(max_dev),
            if synced { "yes" } else { "no" }.into(),
        ]);
    }

    // Shape checks: the mesh synchronizes tightly; thinning the graph
    // degrades the achieved deviation monotonically-ish (we require the
    // sparsest point to be at least 5x worse than the mesh). Whether a
    // *bound* still holds on sparse graphs is exactly the paper's open
    // question — the colluder cannot drag frozen nodes, so failure is
    // drift-rate slow.
    let mesh_dev = results.first().map(|(_, d)| *d).unwrap_or(f64::NAN);
    let sparse_dev = results.last().map(|(_, d)| *d).unwrap_or(f64::NAN);
    let mesh_ok = mesh_dev <= gamma;
    let degradation = sparse_dev / mesh_dev;
    let pass = mesh_ok && degradation > 5.0;

    ExperimentReport {
        id: "E14",
        title: "Connectivity requirement: between full mesh and the 3f+1 counterexample".into(),
        claim: "Section 5 (open question): some sufficiently-connected subgraph should do; \
                we map where synchronization empirically starts to fail"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            "missing links surface as estimation timeouts (0, inf); a node needs enough \
             honest finite estimates to survive its own f+1 trimming"
                .into(),
            "the threshold location is an empirical observation, not a theorem".into(),
            "strategy: omniscient colluder; finding: it cannot drag under-connected \
             nodes — with fewer than f+1 finite estimates per side the limited step \
             degenerates to zero, so sparse nodes freeze and only drift"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
