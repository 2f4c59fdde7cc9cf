//! UDP loopback smoke test: the same `SyncNode` core the simulator runs,
//! over real sockets, must complete rounds and converge inside the
//! Theorem 5 deviation envelope.

use byzclock_live::{run, LiveConfig};

#[test]
fn four_nodes_complete_rounds_and_converge_within_gamma() {
    let config = LiveConfig::quick(4, 1);
    let report = run(config).expect("cluster starts");
    eprintln!("{}", report.render());

    assert!(
        report.completed,
        "cluster missed the deadline: {:?}",
        report.stats
    );
    for (i, stats) in report.stats.iter().enumerate() {
        assert!(
            stats.rounds >= config.min_rounds,
            "p{i} completed only {} rounds (want >= {})",
            stats.rounds,
            config.min_rounds
        );
        assert!(
            stats.last_responders >= 2,
            "p{i} heard only {} responders in its last round",
            stats.last_responders
        );
        // every node starts off-centre, so its rounds must move its clock
        assert!(
            stats.total_abs_adjustment.is_finite() && stats.total_abs_adjustment > 0.0,
            "p{i} sum |adj| = {}",
            stats.total_abs_adjustment
        );
    }
    // Theorem 5(i): once everyone synced, deviation stays within gamma.
    // The initial spread (0.1 s edge-to-edge) is well above the loopback
    // estimation error, so convergence is observable, and gamma (~0.2 s
    // for these parameters) is a real bound, not a tautology.
    assert!(
        report.initial_deviation > report.bounds.gamma / 4.0,
        "test setup degenerate: initial spread {} should be near gamma {}",
        report.initial_deviation,
        report.bounds.gamma
    );
    assert!(
        report.final_deviation <= report.bounds.gamma,
        "final deviation {} exceeds gamma {}",
        report.final_deviation,
        report.bounds.gamma
    );
    assert!(
        report.max_deviation_synced <= report.bounds.gamma,
        "post-sync deviation {} exceeded gamma {}",
        report.max_deviation_synced,
        report.bounds.gamma
    );
    assert!(report.converged());
    // the summary line's throughput figures
    assert!(
        report.rounds_per_sec() > 0.0,
        "rounds/s = {}",
        report.rounds_per_sec()
    );
    assert!(
        report.datagrams_per_sec() > 0.0,
        "datagrams/s = {}",
        report.datagrams_per_sec()
    );
    let rendered = report.render();
    assert!(rendered.contains("rounds/s"));
    // CPU per accepted datagram: a column per node and a cluster total,
    // positive wherever the thread CPU time could be read.
    assert!(rendered.contains("CPU µs/datagram"), "{rendered}");
    let per_node = report.stats.iter().map(|s| s.cpu_us_per_datagram());
    for us in per_node.chain([report.cpu_us_per_datagram()]).flatten() {
        assert!(us > 0.0, "CPU µs/datagram = {us}");
    }
}
