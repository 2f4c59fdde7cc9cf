//! E7 ("Table 4") — convergence-function comparison.
//!
//! Claims reproduced:
//!
//! * Section 1.1: a *minimal-correction* convergence function in the style
//!   of Fetzer–Cristian "may delay the recovery of a processor with a
//!   clock very far from the correct one (such recovery may never
//!   complete)". The paper chose fast recovery over small corrections.
//! * Implicit in Figure 1's trimming: an *unguarded* average is destroyed
//!   by Byzantine estimates; fault-tolerant trimming is necessary.
//!
//! Method: every convergence function runs the identical two scenarios —
//! (a) recovery of a clock reset 100γ away, (b) rotating Byzantine churn —
//! differing **only** in the convergence function.

use byzclock_adversary::{ConstantOffsetStrategy, RandomReplyStrategy};
use byzclock_core::convergence::select_low_high_into;
use byzclock_core::{ConvergenceFn, ConvergenceScratch, PaperSync, PeerEstimate};
use byzclock_sim::RealTime;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::table::{fmt_secs, Table};

/// The controls Figure 1 is compared against. Each plugs into the same
/// `SyncNode` through [`ConvergenceFn`] and differs from [`PaperSync`] only
/// in how it turns the round's estimates into an adjustment.
#[derive(Debug, Clone, Copy)]
enum Control {
    /// Fetzer–Cristian-style minimal correction: the same sound `(m, M)`
    /// selection, always the own-clock-respecting midpoint, and the final
    /// step clamped to `±max_step`. Optimal for maximum-correction metrics
    /// — and, as the paper argues (Section 1.1), unable to recover a
    /// way-off clock: with a clock `ε ≫ max_step` away, each round moves at
    /// most `max_step`, and if the honest nodes' estimates time out
    /// entirely it may never move at all.
    MinimalCorrection {
        /// Maximum adjustment magnitude per round, seconds.
        max_step: f64,
    },
    /// Welch–Lynch-style fault-tolerant averaging: drop the `f` smallest
    /// and `f` largest offsets (timeouts count as offset 0, as in the
    /// paper's own timeout convention) and average the rest.
    TrimmedMean,
    /// The coordinate-wise median of all offsets (timeouts count as 0): the
    /// other classical fault-tolerant aggregate. Byzantine-safe for
    /// `f < n/2` (the median of n values with ≤ f liars lies within the
    /// honest hull), and it recovers far-off clocks — but it lacks the
    /// paper's own-clock damping, so its steady-state wander is larger.
    Median,
    /// No Byzantine protection at all: the mean of every finite estimate.
    /// A single liar moves the result arbitrarily — the control that shows
    /// why trimming is necessary.
    UnguardedMean,
}

impl Control {
    /// Minimal correction clamping each round's step to `±max_step`.
    ///
    /// # Panics
    ///
    /// Panics if `max_step` is not positive and finite.
    fn minimal_correction(max_step: f64) -> Self {
        assert!(
            max_step.is_finite() && max_step > 0.0,
            "max_step must be positive finite"
        );
        Control::MinimalCorrection { max_step }
    }
}

/// The offset of every estimate, timeouts counted as 0, into `values`.
fn offsets_into(values: &mut Vec<f64>, estimates: &[PeerEstimate]) {
    values.clear();
    values.extend(estimates.iter().map(|e| {
        if e.sample.is_timeout() {
            0.0
        } else {
            e.sample.offset
        }
    }));
}

impl ConvergenceFn for Control {
    fn name(&self) -> &'static str {
        match self {
            Control::MinimalCorrection { .. } => "fc-minimal",
            Control::TrimmedMean => "trimmed-mean",
            Control::Median => "median",
            Control::UnguardedMean => "unguarded-mean",
        }
    }

    fn adjustment_scratch(
        &self,
        f: usize,
        _way_off: f64,
        estimates: &[PeerEstimate],
        scratch: &mut ConvergenceScratch,
    ) -> f64 {
        match *self {
            Control::MinimalCorrection { max_step } => {
                let (m, big_m) = select_low_high_into(f, estimates, scratch);
                let step = (m.min(0.0) + big_m.max(0.0)) / 2.0;
                step.clamp(-max_step, max_step)
            }
            Control::TrimmedMean => {
                assert!(
                    estimates.len() > 2 * f,
                    "trimmed mean needs more than 2f estimates"
                );
                let (lows, _) = scratch.buffers();
                offsets_into(lows, estimates);
                // The kept elements must be summed in ascending order (float
                // addition is order-sensitive); a full in-scratch sort keeps
                // the historical summation order bit-for-bit. Quickselecting
                // the two trim points would be O(n) but permute the middle.
                lows.sort_unstable_by(f64::total_cmp); // lint:allow(hot-path-alloc)
                let kept = &lows[f..lows.len() - f];
                kept.iter().sum::<f64>() / kept.len() as f64
            }
            Control::Median => {
                assert!(!estimates.is_empty(), "median of no estimates");
                let (lows, _) = scratch.buffers();
                offsets_into(lows, estimates);
                let len = lows.len();
                let mid = len / 2;
                let (below, pivot, _) = lows.select_nth_unstable_by(mid, f64::total_cmp);
                if len % 2 == 1 {
                    *pivot
                } else {
                    // Rank mid-1 is the total_cmp maximum of the left
                    // partition; ranks are bit-determined under the total
                    // order, so this equals indexing a full sort.
                    let lower = below
                        .iter()
                        .copied()
                        .max_by(f64::total_cmp)
                        .expect("even length >= 2 has a lower half");
                    (lower + *pivot) / 2.0
                }
            }
            Control::UnguardedMean => {
                // Single pass, summing in slice order: float addition is
                // order-sensitive, and this order is the one E7's table pins.
                let mut sum = 0.0;
                let mut kept = 0u32;
                for e in estimates.iter().filter(|e| !e.sample.is_timeout()) {
                    sum += e.sample.offset;
                    kept += 1;
                }
                if kept == 0 {
                    0.0
                } else {
                    sum / f64::from(kept)
                }
            }
        }
    }

    fn box_clone(&self) -> Box<dyn ConvergenceFn> {
        Box::new(*self)
    }
}

/// Runs E7.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(7, 2);
    let bounds = scenario.bounds();
    let gamma = bounds.gamma;
    let offset = 100.0 * gamma;
    // Churn long enough that sabotaged nodes are released and re-enter the
    // good set (release + Delta) well before the horizon — that is where
    // fc-minimal's failed recovery surfaces as a deviation violation.
    let churn_deltas = mode.horizon_deltas(6.0, 6.0);

    let functions: Vec<(Box<dyn ConvergenceFn>, bool, bool)> = vec![
        // (function, expect recovery <= Delta, expect deviation <= gamma)
        (Box::new(PaperSync), true, true),
        // fc-minimal cannot recover, and therefore also cannot keep the
        // deviation bounded: released victims rejoin the good set (after
        // Delta) with their clocks still far off.
        (
            Box::new(Control::minimal_correction(bounds.discontinuity)),
            false,
            false,
        ),
        (Box::new(Control::TrimmedMean), true, true),
        (Box::new(Control::Median), true, true),
        (Box::new(Control::UnguardedMean), true, false),
    ];

    let mut table = Table::new(
        "Table 4: convergence-function comparison (identical scenarios)",
        &[
            "function",
            "recovery(100*gamma)",
            "rec<=Delta",
            "churn max dev",
            "dev<=gamma",
            "ok",
        ],
    );
    let mut all_pass = true;

    for (cf, expect_recover, expect_bounded) in functions {
        let name = cf.name();

        // (a) recovery
        let (mut world, _victim, release_at) = {
            let mut b = scenario.builder().convergence(cf.box_clone()).adversary(
                byzclock_adversary::Adversary::new(
                    byzclock_adversary::CorruptionSchedule::single(
                        byzclock_sim::ProcId((scenario.n - 1) as u32),
                        RealTime::ZERO + scenario.big_delta,
                        scenario.big_delta * 0.5,
                    ),
                    Box::new(ConstantOffsetStrategy::new(offset)),
                ),
            );
            b = b.seed(scenario.seed);
            (
                b.build().expect("E7 recovery world must build"),
                byzclock_sim::ProcId((scenario.n - 1) as u32),
                RealTime::ZERO + scenario.big_delta * 1.5,
            )
        };
        let log = RunLog::new();
        world.add_observer(Box::new(log.clone()));
        world.run_until(release_at + scenario.big_delta * 2.0);
        let latency = log.latencies(gamma).first().copied();
        let recovered_in_delta = latency.is_some_and(|l| l <= scenario.big_delta.as_secs());

        // (b) churn deviation
        let horizon = RealTime::ZERO + scenario.big_delta * churn_deltas;
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
            .convergence(cf.box_clone())
            .adversary(byzclock_adversary::Adversary::new(
                schedule,
                Box::new(RandomReplyStrategy::new(gamma * 10.0)),
            ))
            .build()
            .expect("E7 churn world must build");
        world.add_observer(Box::new(log.clone()));
        world.run_until(horizon);
        let max_dev = log
            .max_deviation(RealTime::ZERO + scenario.big_delta)
            .unwrap_or(f64::NAN);
        let dev_bounded = max_dev <= gamma;

        let ok = recovered_in_delta == expect_recover && dev_bounded == expect_bounded;
        all_pass &= ok;
        table.row_owned(vec![
            name.to_string(),
            latency.map_or(">2 Delta (never)".into(), fmt_secs),
            if recovered_in_delta { "yes" } else { "no" }.into(),
            fmt_secs(max_dev),
            if dev_bounded { "yes" } else { "no" }.into(),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }

    ExperimentReport {
        id: "E7",
        title: "Baselines: minimal correction cannot recover; unguarded mean is not Byzantine-safe"
            .into(),
        claim: "Section 1.1: FC-style minimal correction may never recover a far-off clock; \
                Figure 1's trimming is what resists Byzantine estimates"
            .into(),
        tables: vec![table],
        series: vec![],
        notes: vec![
            format!(
                "minimal-correction step capped at the paper's own discontinuity bound psi = {}",
                fmt_secs(bounds.discontinuity)
            ),
            "trimmed-mean (Welch-Lynch-style) also recovers: the paper's advantage over it is \
             the mobile-fault analysis, not the mechanics"
                .into(),
        ],
        pass: all_pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_core::OffsetSample;
    use byzclock_sim::ProcId;

    #[test]
    fn e7_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
    }

    fn est(values: &[(f64, f64)]) -> Vec<PeerEstimate> {
        values
            .iter()
            .enumerate()
            .map(|(i, &(d, a))| PeerEstimate {
                peer: ProcId(i as u32),
                sample: OffsetSample {
                    offset: d,
                    error: a,
                },
            })
            .collect()
    }

    fn exact(values: &[f64]) -> Vec<PeerEstimate> {
        est(&values.iter().map(|&v| (v, 0.0)).collect::<Vec<_>>())
    }

    fn with_liars(honest: &[f64], liars: &[f64]) -> Vec<PeerEstimate> {
        let mut e = exact(honest);
        for (i, &offset) in liars.iter().enumerate() {
            e.push(PeerEstimate {
                peer: ProcId((90 + i) as u32),
                sample: OffsetSample { offset, error: 0.0 },
            });
        }
        e
    }

    fn with_timeout(values: &[f64]) -> Vec<PeerEstimate> {
        let mut e = exact(values);
        e.push(PeerEstimate {
            peer: ProcId(9),
            sample: OffsetSample::TIMEOUT,
        });
        e
    }

    /// `cf`'s adjustment computed with a fresh scratch.
    fn adjust(cf: &dyn ConvergenceFn, f: usize, way_off: f64, e: &[PeerEstimate]) -> f64 {
        cf.adjustment_scratch(f, way_off, e, &mut ConvergenceScratch::default())
    }

    const CONTROLS: [Control; 4] = [
        Control::MinimalCorrection { max_step: 0.05 },
        Control::TrimmedMean,
        Control::Median,
        Control::UnguardedMean,
    ];

    #[test]
    fn minimal_correction_clamps() {
        let fc = Control::minimal_correction(0.05);
        assert_eq!(adjust(&fc, 1, 5.0, &exact(&[10.0; 5])), 0.05);
        assert_eq!(adjust(&fc, 1, 5.0, &exact(&[-10.0; 5])), -0.05);
    }

    #[test]
    fn minimal_correction_small_offsets_uncapped() {
        let fc = Control::minimal_correction(0.05);
        assert!((adjust(&fc, 1, 5.0, &exact(&[-0.01; 5])) + 0.005).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn minimal_correction_rejects_zero_step() {
        Control::minimal_correction(0.0);
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let e = exact(&[-1e9, 1.0, 2.0, 3.0, 1e9]);
        assert_eq!(adjust(&Control::TrimmedMean, 1, 1.0, &e), 2.0);
    }

    #[test]
    fn trimmed_mean_treats_timeouts_as_zero() {
        // offsets [0,4,4,4,4], f=1 → keep [4,4,4] → 4.0
        let e = with_timeout(&[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(adjust(&Control::TrimmedMean, 1, 1.0, &e), 4.0);
    }

    #[test]
    #[should_panic(expected = "2f")]
    fn trimmed_mean_needs_enough_estimates() {
        adjust(&Control::TrimmedMean, 2, 1.0, &exact(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn unguarded_mean_is_vulnerable() {
        // One liar at 1e6 drags the mean far out — the vulnerability E7
        // demonstrates end-to-end.
        let e = with_liars(&[0.0, 0.0, 0.0, 0.0], &[1e6]);
        let delta = adjust(&Control::UnguardedMean, 1, 1.0, &e);
        assert!(delta > 1e5, "unguarded mean should be dragged, got {delta}");
    }

    #[test]
    fn unguarded_mean_skips_timeouts_and_handles_empty() {
        let e = with_timeout(&[]);
        assert_eq!(adjust(&Control::UnguardedMean, 0, 1.0, &e), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        let e = exact(&[5.0, 1.0, 3.0]);
        assert_eq!(adjust(&Control::Median, 0, 1.0, &e), 3.0);
        let e = exact(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(adjust(&Control::Median, 0, 1.0, &e), 2.5);
    }

    #[test]
    fn median_resists_minority_liars() {
        let e = with_liars(&[0.01, 0.02, 0.03, 0.0, -0.01], &[1e9, -1e9]);
        let delta = adjust(&Control::Median, 2, 1.0, &e);
        assert!(delta.abs() <= 0.03, "median dragged to {delta}");
    }

    #[test]
    fn median_counts_timeouts_as_zero() {
        // offsets [0, 4, 4] -> median 4
        let e = with_timeout(&[4.0, 4.0]);
        assert_eq!(adjust(&Control::Median, 0, 1.0, &e), 4.0);
    }

    #[test]
    fn controls_leave_a_synchronized_clock_alone() {
        let e = exact(&[0.0; 7]);
        for cf in CONTROLS {
            assert_eq!(adjust(&cf, 2, 1.0, &e), 0.0, "{} moved", cf.name());
        }
    }

    #[test]
    fn names_distinct_and_boxes_clone() {
        let mut fns: Vec<Box<dyn ConvergenceFn>> = vec![Box::new(PaperSync)];
        fns.extend(CONTROLS.map(|c| Box::new(c) as Box<dyn ConvergenceFn>));
        let names: std::collections::BTreeSet<&str> = fns.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), fns.len());
        for f in &fns {
            assert_eq!(f.box_clone().name(), f.name());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The trimmed mean with ≤ f adversarial estimates stays within
            /// the honest hull extended to 0 (timeout convention).
            #[test]
            fn trimmed_mean_bounded_by_honest_hull(
                honest in proptest::collection::vec(-100.0f64..100.0, 5..12),
                byz in proptest::collection::vec(
                    proptest::num::f64::NORMAL.prop_map(|v| v % 1e9), 0..2),
            ) {
                let delta = adjust(&Control::TrimmedMean, byz.len(), 1.0, &with_liars(&honest, &byz));
                let lo = honest.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = honest.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(delta >= lo - 1e-9 && delta <= hi + 1e-9);
            }

            /// A reused (dirty) scratch gives every control the same bits
            /// as a fresh one — the scratch carries no state.
            #[test]
            fn controls_reuse_scratch_statelessly(
                first in proptest::collection::vec(-100.0f64..100.0, 5..12),
                second in proptest::collection::vec(-100.0f64..100.0, 5..12),
            ) {
                let mut scratch = ConvergenceScratch::default();
                for values in [&first, &second] {
                    let e = exact(values);
                    for cf in CONTROLS {
                        let fresh = adjust(&cf, 1, 10.0, &e);
                        let reused = cf.adjustment_scratch(1, 10.0, &e, &mut scratch);
                        prop_assert_eq!(fresh.to_bits(), reused.to_bits(),
                            "{} diverges under scratch reuse", cf.name());
                    }
                }
            }
        }
    }
}
