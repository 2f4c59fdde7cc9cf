//! E17 (beyond the model) — random message loss.
//!
//! The paper assumes **reliable** links (Section 2.2): a sent message
//! arrives, full stop. Real networks drop packets, so a practical question
//! is how gracefully the protocol degrades when that axiom is violated.
//! Mechanically a lost ping or pong is an estimation timeout, the same
//! `(0, ∞)` sentinel as a silent peer — and the Section 3.1 multi-ping
//! refinement (`pings_per_peer`) acts as retransmission, so loss and the
//! min-RTT filter interact directly.
//!
//! Method: sweep loss ∈ {0, 5 %, 20 %, 50 %} × k ∈ {1, 4} pings/peer on a
//! quiet network and record the achieved deviation. Expected shape: the
//! deviation bound holds through heavy loss (timeouts are trimmed or, at
//! worst, freeze a starved node), and k = 4 measurably tightens the high-
//! loss rows (a peer estimate survives if *any* of the k round trips
//! does).

use byzclock_sim::RealTime;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// Runs E17.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(7, 2);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let losses: &[f64] = match mode {
        Mode::Quick => &[0.0, 0.2, 0.5],
        Mode::Full => &[0.0, 0.05, 0.2, 0.5],
    };
    let horizon = RealTime::ZERO + scenario.big_delta * mode.horizon_deltas(3.0, 8.0);

    let mut table = Table::new(
        "Message loss sweep (n=7, f=2, quiet; loss violates the reliable-link axiom)",
        &[
            "loss",
            "k=1 mean dev",
            "k=1 max dev",
            "k=4 mean dev",
            "k=4 max dev",
        ],
    );
    let mut all_pass = true;
    let mut high_loss_pair: Option<(f64, f64)> = None;

    // Every (loss, k) cell is an independent world; fan the whole grid
    // across cores and reassemble rows in order afterwards.
    let grid: Vec<(f64, usize)> = losses
        .iter()
        .flat_map(|&loss| [(loss, 1usize), (loss, 4)])
        .collect();
    let cells = byzclock_sim::par_map_auto(grid, |_, (loss, k)| {
        let warmup = RealTime::ZERO + scenario.big_delta;
        let log = RunLog::new();
        let mut world = scenario
            .builder()
            .message_loss(loss)
            .pings_per_peer(k)
            .initial_bias_spread(gamma / 8.0)
            .build()
            .expect("E17 world must build");
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);
        let mean = log.avg_deviation(warmup).unwrap_or(f64::NAN);
        let max = log.max_deviation(warmup).unwrap_or(f64::NAN);
        (mean, max)
    });
    for (i, &loss) in losses.iter().enumerate() {
        let mut row = vec![format!("{:.0}%", loss * 100.0)];
        let mut means = Vec::new();
        for (mean, max) in &cells[2 * i..2 * i + 2] {
            means.push(*mean);
            row.push(fmt_secs(*mean));
            row.push(fmt_secs(*max));
            // the deviation bound must hold at every loss level
            all_pass &= *max <= gamma;
        }
        if loss >= 0.5 {
            high_loss_pair = Some((means[0], means[1]));
        }
        table.row_owned(row);
    }

    // At the heaviest loss, the multi-ping refinement must help.
    if let Some((k1, k4)) = high_loss_pair {
        all_pass &= k4 < k1;
    }

    ExperimentReport {
        id: "E17",
        title: "Message loss: graceful degradation beyond the reliable-link model".into(),
        claim: "Beyond the paper's model: lost messages = timeouts; the bound survives \
                heavy loss and Section 3.1 multi-ping acts as retransmission"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            "a peer estimate survives loss if any of the k ping/pong round trips does \
             (per-round success 1-(1-(1-p)^2)^k)"
                .into(),
            "nodes starved below f+1 finite estimates freeze (zero step) rather than \
             acting on an unsound selection"
                .into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }
}
