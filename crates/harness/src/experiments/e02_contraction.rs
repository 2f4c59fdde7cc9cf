//! E2 ("Figure A") — Lemma 7(ii): envelope contraction.
//!
//! Claim: if the good processors' biases span `2D` at the start of an
//! interval of length `T`, they span at most `7D/4 + 2Λ` at its end —
//! i.e. the spread contracts by a factor ≤ 7/8 per interval (up to the
//! `2Λ` reading-error floor).
//!
//! Method: start all clocks evenly dispersed over `[−D, +D]`, no faults,
//! and record the good spread at every interval boundary `iT`. The
//! empirical per-interval contraction factor (above the floor) must be at
//! most 7/8.

use byzclock_runtime::InitialBias;
use byzclock_sim::RealTime;

use crate::experiments::{ExperimentReport, Mode};
use crate::metrics::RunLog;
use crate::scenario::Scenario;
use crate::series::Series;
use crate::table::{fmt_secs, Table};

/// Runs E2.
pub fn run(mode: Mode) -> ExperimentReport {
    let scenario = Scenario::standard(7, 2);
    let bounds = scenario.bounds();
    let t = scenario.t();
    let d = bounds.d;
    let lambda = scenario.model().lambda;
    let intervals = match mode {
        Mode::Quick => 6,
        Mode::Full => 12,
    };

    // Evenly disperse the initial biases over [-D, +D].
    let n = scenario.n;
    let biases: Vec<f64> = (0..n)
        .map(|i| -d + 2.0 * d * (i as f64) / (n as f64 - 1.0))
        .collect();

    let log = RunLog::new();
    let mut world = scenario
        .builder()
        .initial_bias(InitialBias::Explicit(biases))
        .sample_interval(t)
        .build()
        .expect("E2 world must build");
    world.add_observer(Box::new(log.clone()));
    world.run_until(RealTime::ZERO + t * (intervals as f64 + 0.5));

    // Spread at each interval boundary (samples land exactly at multiples
    // of T thanks to sample_interval = T).
    let samples = log.samples();
    let mut spreads: Vec<f64> = samples.iter().filter_map(|s| s.good_deviation()).collect();
    spreads.insert(0, 2.0 * d); // the configured initial spread

    let mut series = Series::new("good-set spread per interval", "interval i", "spread (s)");
    let mut table = Table::new(
        "Figure A: spread contraction per interval (bound: 7/8 per interval + 2L floor)",
        &["interval", "spread", "ratio", "bound-ok"],
    );
    let mut all_pass = true;
    for (i, &s) in spreads.iter().enumerate() {
        series.push(i as f64, s);
        let (ratio, ok) = if i == 0 {
            (f64::NAN, true)
        } else {
            let prev = spreads[i - 1];
            let bound = 7.0 / 8.0 * prev + 2.0 * lambda;
            (s / prev, s <= bound + 1e-9)
        };
        all_pass &= ok;
        table.row_owned(vec![
            i.to_string(),
            fmt_secs(s),
            if ratio.is_nan() {
                "-".to_string()
            } else {
                format!("{ratio:.3}")
            },
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    // The spread must also end far below where it started.
    let final_spread = *spreads.last().expect("at least initial spread");
    all_pass &= final_spread < 2.0 * d * 0.5;

    // Claim 8, verified end-to-end: the measured per-interval good-bias
    // extents must form an envelope chain with |E_i| <= 2D and
    // E_i ⊆ E_{i-1} + C/2.
    let extents: Vec<(f64, f64)> = samples.iter().filter_map(|s| s.good_bias_range()).collect();
    let claim8_violations = if extents.is_empty() {
        usize::MAX
    } else {
        claim8_violations(&extents, t.as_secs(), scenario.rho, bounds.d, bounds.c).len()
    };
    all_pass &= claim8_violations == 0;

    ExperimentReport {
        id: "E2",
        title: "Envelope contraction (Lemma 7(ii))".into(),
        claim: "spread(i+1) <= 7/8 * spread(i) + 2L; good biases stay in the envelope".into(),
        tables: vec![table],
        series: vec![series.log_y()],
        notes: vec![
            format!(
                "D = {}, initial spread 2D = {}, reading-error floor 2L = {}",
                fmt_secs(d),
                fmt_secs(2.0 * d),
                fmt_secs(2.0 * lambda)
            ),
            format!(
                "Claim 8 envelope-chain check: {} violations across {} intervals",
                claim8_violations,
                spreads.len()
            ),
        ],
        pass: all_pass,
    }
}

/// One Claim 8 violation found by [`claim8_violations`].
#[derive(Debug, Clone, PartialEq)]
enum Claim8Violation {
    /// `|E_i(iT)|` exceeded `2D`.
    TooWide { interval: usize, width: f64 },
    /// `E_i ⊄ E_{i−1} + C/2`.
    Escaped { interval: usize },
}

/// Checks Claim 8's induction over measured good-bias extents.
///
/// Claim 8 asserts envelopes `E_0, E_1, …` (Definition 6), one per interval
/// `I_i` of length `t`, such that `|E_i(iT)| ≤ 2D`, `E_i ⊆ E_{i−1} + C/2`,
/// and `E_i` holds the good biases during `I_i`. `extents[i] = (lo, hi)` is
/// the min/max good bias seen in interval `i`; each `E_i` is taken as the
/// tightest envelope spanning it, anchored at `iT` and widening by `rho`
/// per second. Returns every violation (empty = the induction held).
///
/// # Panics
///
/// Panics if `t` is not positive or `extents` is empty.
fn claim8_violations(
    extents: &[(f64, f64)],
    t: f64,
    rho: f64,
    d: f64,
    c: f64,
) -> Vec<Claim8Violation> {
    assert!(t > 0.0, "interval length must be positive");
    assert!(!extents.is_empty(), "need at least one interval");
    let mut violations = Vec::new();
    for (i, &(lo, hi)) in extents.iter().enumerate() {
        if hi - lo > 2.0 * d + 1e-12 {
            violations.push(Claim8Violation::TooWide {
                interval: i,
                width: hi - lo,
            });
        }
        if i > 0 {
            // compare at this interval's anchor, allowing the previous
            // envelope, grown by C/2, its rho-widening since its own anchor
            // (the anchors' difference, which need not round to t)
            let (plo, phi) = extents[i - 1];
            let dt = i as f64 * t - (i - 1) as f64 * t;
            let grown_lo = plo - c / 2.0 - rho * dt;
            let grown_hi = phi + c / 2.0 + rho * dt;
            if lo < grown_lo - 1e-12 || hi > grown_hi + 1e-12 {
                violations.push(Claim8Violation::Escaped { interval: i });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_chain_accepts_contracting_trajectory() {
        // spreads shrink 7/8 per interval from 2D — the Lemma 7 picture
        let d = 0.08;
        let c = 0.005;
        let mut extents = Vec::new();
        let mut half = d;
        for _ in 0..8 {
            extents.push((-half, half));
            half *= 7.0 / 8.0;
        }
        assert!(claim8_violations(&extents, 7.5, 1e-5, d, c).is_empty());
    }

    #[test]
    fn envelope_chain_flags_excess_width() {
        let violations = claim8_violations(&[(-1.0, 1.0)], 5.0, 0.0, 0.5, 0.01);
        assert!(matches!(
            violations.as_slice(),
            [Claim8Violation::TooWide { interval: 0, .. }]
        ));
    }

    #[test]
    fn envelope_chain_flags_escape() {
        // second interval jumps far outside the first + C/2
        let violations = claim8_violations(&[(-0.1, 0.1), (0.5, 0.7)], 5.0, 0.0, 1.0, 0.01);
        assert_eq!(violations, vec![Claim8Violation::Escaped { interval: 1 }]);
    }

    #[test]
    fn envelope_chain_allows_c_half_growth() {
        let c = 0.1;
        let extents = [(-0.1, 0.1), (-0.1 - c / 2.0, 0.1 + c / 2.0)];
        assert!(claim8_violations(&extents, 5.0, 0.0, 1.0, c).is_empty());
    }

    #[test]
    fn envelope_chain_allows_rho_widening() {
        // 10 s at rho = 0.01 widens the previous envelope by 0.1 per side
        let extents = [(-0.1, 0.1), (-0.19, 0.19)];
        assert!(claim8_violations(&extents, 10.0, 0.01, 1.0, 0.0).is_empty());
        assert_eq!(
            claim8_violations(&extents, 10.0, 0.0, 1.0, 0.0),
            vec![Claim8Violation::Escaped { interval: 1 }]
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn envelope_chain_rejects_empty() {
        claim8_violations(&[], 5.0, 0.0, 1.0, 0.0);
    }

    #[test]
    fn e2_quick_passes() {
        let report = run(Mode::Quick);
        assert!(report.pass, "\n{}", report.render());
        assert!(!report.series[0].points().is_empty());
    }
}
