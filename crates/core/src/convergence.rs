//! The convergence step: from peer estimates to a clock adjustment.
//!
//! The heart of the paper is Figure 1's convergence function. Given one
//! [`OffsetSample`] per processor (including the self-estimate `(0,0)` and
//! `(0, ∞)` sentinels for timeouts):
//!
//! 1. `m` = the `(f+1)`-st **smallest overestimate** `d_q + a_q` — a value
//!    that at least one *honest* peer's clock is (approximately) at or
//!    above cannot be higher, because at most `f` estimates are faulty;
//! 2. `M` = the `(f+1)`-st **largest underestimate** `d_q − a_q` —
//!    symmetrically a sound "high value";
//! 3. if the own clock is within `WayOff` of `[m, M]`'s range
//!    (`m ≥ −WayOff` and `M ≤ WayOff`), move to the midpoint of
//!    `[min(m,0), max(M,0)]` — a *limited* step that respects the own
//!    clock; otherwise the own clock is hopeless (e.g. we just recovered
//!    from a break-in), so jump to `(m + M)/2` outright.
//!
//! The "otherwise" branch is the paper's key departure from
//! Fetzer–Cristian \[9\]: minimal-correction designs can leave a recovered
//! clock stranded forever; this one halves its distance every interval
//! (Lemma 7(iii)). [`PaperSync`] is that function; [`ConvergenceFn`] is the
//! seam through which experiment E7 plugs in its controls (an FC-style
//! minimal correction among them) to demonstrate exactly that failure.

use byzclock_sim::ProcId;
use std::fmt;

use crate::estimate::OffsetSample;

/// One peer's estimate as fed to a convergence function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerEstimate {
    /// Which processor this estimate is for.
    pub peer: ProcId,
    /// The `(d, a)` sample ([`OffsetSample::TIMEOUT`] if none arrived).
    pub sample: OffsetSample,
}

/// Reusable scratch buffers for convergence computations.
///
/// The steady-state sync round runs every `SyncInt` on every node; a pair
/// of buffers owned by the caller makes the whole round allocation-free
/// after the first. The caller is the host, not the node: the scratch sits
/// in the host's [`RoundScratch`](crate::RoundScratch), which a simulated
/// world shares among all its nodes and a live node thread owns alone. The
/// buffers carry no state between calls — every user clears before
/// filling — so sharing one scratch across nodes and convergence functions
/// is always sound. [`Default`] gives empty buffers that grow on first use.
///
/// Any [`ConvergenceFn`] may borrow both buffers through
/// [`buffers`](Self::buffers), including implementors outside this crate;
/// it must clear whatever it fills and keep nothing in them after it
/// returns.
#[derive(Debug, Default, Clone)]
pub struct ConvergenceScratch {
    /// Overestimates (or offsets, for the averaging functions).
    lows: Vec<f64>,
    /// Underestimates.
    highs: Vec<f64>,
}

impl ConvergenceScratch {
    /// Pre-sizes both buffers for `n` estimates.
    pub fn with_capacity(n: usize) -> Self {
        ConvergenceScratch {
            lows: Vec::with_capacity(n),
            highs: Vec::with_capacity(n),
        }
    }

    /// Lends both buffers, `(lows, highs)`, to a convergence function for
    /// one call. Their contents on entry are unspecified.
    pub fn buffers(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>) {
        (&mut self.lows, &mut self.highs)
    }
}

/// A convergence function: computes the clock adjustment (seconds to add
/// to `adj_p`) from the estimates gathered in one sync round.
pub trait ConvergenceFn: fmt::Debug + Send {
    /// Short name for tables and traces.
    fn name(&self) -> &'static str;

    /// The adjustment, in seconds, computed without allocating: any
    /// intermediate storage comes from `scratch`. This is the hot-path
    /// entry point — [`SyncNode`](crate::SyncNode) calls it once per round
    /// with the scratch its host lends it.
    ///
    /// `estimates` holds one entry per processor (length `n`), `f` is the
    /// fault bound, `way_off` the plausibility bound.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `estimates.len() < f + 1` (the
    /// selection in Figure 1 would be undefined).
    fn adjustment_scratch(
        &self,
        f: usize,
        way_off: f64,
        estimates: &[PeerEstimate],
        scratch: &mut ConvergenceScratch,
    ) -> f64;

    /// Clones into a box (convergence functions are tiny value objects).
    fn box_clone(&self) -> Box<dyn ConvergenceFn>;
}

impl Clone for Box<dyn ConvergenceFn> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Selects Figure 1's `(m, M)` — the `(f+1)`-st smallest overestimate and
/// the `(f+1)`-st largest underestimate — into caller-provided scratch,
/// via `select_nth_unstable_by` (O(n) expected, no allocation once the
/// scratch has warmed up).
///
/// Bit-identical to a full `sort_by(f64::total_cmp)` followed by indexing:
/// `total_cmp` is a *total* order in which two floats compare equal iff
/// their bit patterns are identical, so the value at any rank is uniquely
/// determined regardless of how the selection permutes the rest.
///
/// # Panics
///
/// Panics if `estimates.len() < f + 1`.
pub fn select_low_high_into(
    f: usize,
    estimates: &[PeerEstimate],
    scratch: &mut ConvergenceScratch,
) -> (f64, f64) {
    assert!(
        estimates.len() > f,
        "need at least f+1 estimates (got {}, f = {f})",
        estimates.len()
    );
    scratch.lows.clear();
    scratch.highs.clear();
    for e in estimates {
        scratch.lows.push(e.sample.overestimate());
        scratch.highs.push(e.sample.underestimate());
    }
    let (_, m, _) = scratch.lows.select_nth_unstable_by(f, f64::total_cmp);
    let m = *m;
    let high_rank = scratch.highs.len() - 1 - f;
    let (_, big_m, _) = scratch
        .highs
        .select_nth_unstable_by(high_rank, f64::total_cmp);
    (m, *big_m)
}

/// The paper's convergence function (Figure 1, lines 6–12).
///
/// ```
/// use byzclock_core::{ConvergenceFn, ConvergenceScratch, OffsetSample, PaperSync, PeerEstimate};
/// use byzclock_sim::ProcId;
///
/// // n = 4, f = 1: three peers claim we are 2 s behind, plus the exact
/// // self-estimate. The own-clock-respecting step moves halfway.
/// let estimates: Vec<PeerEstimate> = (0..4)
///     .map(|i| PeerEstimate {
///         peer: ProcId(i),
///         sample: OffsetSample { offset: if i == 0 { 0.0 } else { 2.0 }, error: 0.0 },
///     })
///     .collect();
/// let mut scratch = ConvergenceScratch::default();
/// let delta = PaperSync.adjustment_scratch(1, 10.0, &estimates, &mut scratch);
/// assert_eq!(delta, 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperSync;

impl ConvergenceFn for PaperSync {
    fn name(&self) -> &'static str {
        "paper-sync"
    }

    fn adjustment_scratch(
        &self,
        f: usize,
        way_off: f64,
        estimates: &[PeerEstimate],
        scratch: &mut ConvergenceScratch,
    ) -> f64 {
        let (m, big_m) = select_low_high_into(f, estimates, scratch);
        if m >= -way_off && big_m <= way_off {
            (m.min(0.0) + big_m.max(0.0)) / 2.0
        } else {
            (m + big_m) / 2.0
        }
    }

    fn box_clone(&self) -> Box<dyn ConvergenceFn> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `cf`'s adjustment computed with a fresh scratch.
    fn adjust(cf: &dyn ConvergenceFn, f: usize, way_off: f64, e: &[PeerEstimate]) -> f64 {
        cf.adjustment_scratch(f, way_off, e, &mut ConvergenceScratch::default())
    }

    /// Figure 1's `(m, M)` selected with a fresh scratch.
    fn low_high(f: usize, e: &[PeerEstimate]) -> (f64, f64) {
        select_low_high_into(f, e, &mut ConvergenceScratch::default())
    }

    #[test]
    fn select_low_high_known_values() {
        // f = 1, exact estimates [-3, -1, 0, 2, 5]
        let e = exact(&[-3.0, -1.0, 0.0, 2.0, 5.0]);
        let (m, big_m) = low_high(1, &e);
        assert_eq!(m, -1.0); // 2nd smallest
        assert_eq!(big_m, 2.0); // 2nd largest
    }

    #[test]
    fn select_with_errors_uses_over_and_under() {
        // single estimate d=1, a=0.5 → over 1.5, under 0.5; f=0
        let e = est(&[(1.0, 0.5)]);
        let (m, big_m) = low_high(0, &e);
        assert_eq!(m, 1.5);
        assert_eq!(big_m, 0.5);
    }

    #[test]
    fn timeouts_land_at_the_extremes() {
        // f=1: one timeout (over=+inf, under=-inf) must be trimmed away on
        // both sides.
        let mut e = exact(&[1.0, 2.0, 3.0, 4.0]);
        e.push(PeerEstimate {
            peer: ProcId(4),
            sample: OffsetSample::TIMEOUT,
        });
        let (m, big_m) = low_high(1, &e);
        assert_eq!(m, 2.0);
        assert_eq!(big_m, 3.0);
    }

    #[test]
    #[should_panic(expected = "f+1")]
    fn too_few_estimates_panics() {
        low_high(3, &exact(&[1.0, 2.0]));
    }

    #[test]
    fn paper_sync_normal_branch_known_value() {
        // m = -1, M = 2 (from select test), within way_off=10:
        // delta = (min(-1,0)+max(2,0))/2 = 0.5
        let e = exact(&[-3.0, -1.0, 0.0, 2.0, 5.0]);
        assert_eq!(adjust(&PaperSync, 1, 10.0, &e), 0.5);
    }

    #[test]
    fn paper_sync_does_not_overshoot_when_inside_range() {
        // All honest peers agree we're +0.1 ahead... estimates are C_q - C_p
        // = -0.1. m = M = -0.1, within way_off: delta = (min(-0.1,0)+0)/2 =
        // -0.05: moves halfway toward the group, respecting own clock.
        let e = exact(&[-0.1; 5]);
        assert!((adjust(&PaperSync, 1, 1.0, &e) + 0.05).abs() < 1e-12);
    }

    #[test]
    fn paper_sync_way_off_branch_jumps_to_midpoint() {
        // We are 10 s behind everyone: estimates +10, way_off = 5 → jump.
        let e = exact(&[10.0; 7]);
        assert_eq!(adjust(&PaperSync, 2, 5.0, &e), 10.0);
    }

    #[test]
    fn paper_sync_way_off_branch_on_negative_side() {
        let e = exact(&[-10.0; 7]);
        assert_eq!(adjust(&PaperSync, 2, 5.0, &e), -10.0);
    }

    #[test]
    fn paper_sync_boundary_exactly_way_off_stays_limited() {
        // M = way_off exactly → condition M <= WayOff holds → limited step.
        let e = exact(&[5.0; 4]);
        let delta = adjust(&PaperSync, 1, 5.0, &e);
        // m = M = 5; limited: (min(5,0)+max(5,0))/2 = 2.5
        assert_eq!(delta, 2.5);
        // mirror: m = -way_off exactly → m >= -WayOff holds → limited step
        // (-2.5), not the jump to the midpoint (-5)
        let e = exact(&[-5.0; 4]);
        assert_eq!(adjust(&PaperSync, 1, 5.0, &e), -2.5);
    }

    #[test]
    fn paper_sync_outlier_resistance() {
        // f = 2 Byzantine estimates at ±1e9 cannot drag the result outside
        // the honest range (clamped toward 0).
        let mut e = exact(&[0.01, 0.02, 0.03, 0.00, -0.01]);
        e.push(PeerEstimate {
            peer: ProcId(90),
            sample: OffsetSample {
                offset: 1e9,
                error: 0.0,
            },
        });
        e.push(PeerEstimate {
            peer: ProcId(91),
            sample: OffsetSample {
                offset: -1e9,
                error: 0.0,
            },
        });
        let delta = adjust(&PaperSync, 2, 1.0, &e);
        assert!(delta.abs() <= 0.03, "delta {delta} escaped honest range");
    }

    #[test]
    fn all_zero_estimates_give_zero_adjustment() {
        let e = exact(&[0.0; 7]);
        assert_eq!(
            adjust(&PaperSync, 2, 1.0, &e),
            0.0,
            "Figure 1 must not move a synchronized clock"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// With ≤ f adversarial estimates among honest exact ones, the
            /// paper adjustment never escapes the hull of the honest values
            /// extended to 0 (the 0 comes from the own-clock clamps).
            #[test]
            fn paper_sync_bounded_by_honest_hull(
                honest in proptest::collection::vec(-100.0f64..100.0, 5..12),
                byz in proptest::collection::vec(
                    proptest::num::f64::NORMAL.prop_map(|v| v % 1e9), 0..3),
                way_off in 0.1f64..1e3,
            ) {
                let f = byz.len();
                let mut e = exact(&honest);
                for (i, b) in byz.iter().enumerate() {
                    e.push(PeerEstimate {
                        peer: ProcId((100 + i) as u32),
                        sample: OffsetSample { offset: *b, error: 0.0 },
                    });
                }
                let delta = adjust(&PaperSync, f, way_off, &e);
                let lo = honest.iter().cloned().fold(f64::INFINITY, f64::min).min(0.0);
                let hi = honest.iter().cloned().fold(f64::NEG_INFINITY, f64::max).max(0.0);
                prop_assert!(delta >= lo - 1e-9 && delta <= hi + 1e-9,
                    "delta {} outside [{}, {}]", delta, lo, hi);
            }

            /// Figure 1 selection: m is never above the maximum honest
            /// overestimate and M never below the minimum honest
            /// underestimate, for any ≤ f liars.
            #[test]
            fn selection_soundness(
                honest in proptest::collection::vec(-50.0f64..50.0, 4..10),
                liars in proptest::collection::vec(-1e6f64..1e6, 0..3),
            ) {
                let f = liars.len();
                let mut e = exact(&honest);
                for (i, b) in liars.iter().enumerate() {
                    e.push(PeerEstimate {
                        peer: ProcId((100 + i) as u32),
                        sample: OffsetSample { offset: *b, error: 0.0 },
                    });
                }
                let (m, big_m) = low_high(f, &e);
                let max_honest = honest.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let min_honest = honest.iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert!(m <= max_honest + 1e-9);
                prop_assert!(big_m >= min_honest - 1e-9);
            }

            /// Quickselect-into-scratch `(m, M)` matches the historical
            /// sort-based selection bit-for-bit — on mixes of ordinary
            /// values, deliberate duplicates, and `±inf` over/underestimates
            /// from `OffsetSample::TIMEOUT` sentinels.
            #[test]
            fn scratch_selection_matches_sort_based(
                samples in proptest::collection::vec(
                    prop_oneof![
                        3 => (-100.0f64..100.0, 0.0f64..10.0),
                        // timeout sentinel: over = +inf, under = -inf
                        1 => (Just(0.0f64), Just(f64::INFINITY)),
                        // a small palette forces duplicated values
                        2 => (prop_oneof![Just(-1.0f64), Just(0.0), Just(1.0), Just(2.5)],
                              Just(0.25f64)),
                    ],
                    1..16),
                f_raw in 0usize..4,
            ) {
                let f = f_raw.min(samples.len() - 1);
                let e = est(&samples);
                // reference: the pre-optimization two-sorts implementation
                let mut overs: Vec<f64> =
                    e.iter().map(|x| x.sample.overestimate()).collect();
                let mut unders: Vec<f64> =
                    e.iter().map(|x| x.sample.underestimate()).collect();
                overs.sort_by(f64::total_cmp);
                unders.sort_by(f64::total_cmp);
                let expect = (overs[f], unders[unders.len() - 1 - f]);
                let mut scratch = ConvergenceScratch::default();
                let got = select_low_high_into(f, &e, &mut scratch);
                prop_assert_eq!(got.0.to_bits(), expect.0.to_bits());
                prop_assert_eq!(got.1.to_bits(), expect.1.to_bits());
            }

            /// A reused (dirty) scratch gives Figure 1 the same bits as a
            /// fresh one — scratch carries no state.
            #[test]
            fn scratch_reuse_is_stateless(
                first in proptest::collection::vec(-100.0f64..100.0, 5..12),
                second in proptest::collection::vec(-100.0f64..100.0, 5..12),
            ) {
                let mut scratch = ConvergenceScratch::default();
                for values in [&first, &second] {
                    let e = exact(values);
                    let fresh = adjust(&PaperSync, 1, 10.0, &e);
                    let reused = PaperSync.adjustment_scratch(1, 10.0, &e, &mut scratch);
                    prop_assert_eq!(fresh.to_bits(), reused.to_bits());
                }
            }

            /// Paper function is symmetric under negation of all estimates.
            #[test]
            fn paper_sync_odd_symmetry(
                values in proptest::collection::vec(-100.0f64..100.0, 4..10),
                way_off in 0.1f64..1e3,
            ) {
                let e = exact(&values);
                let neg: Vec<f64> = values.iter().map(|v| -v).collect();
                let en = exact(&neg);
                let d1 = adjust(&PaperSync, 1, way_off, &e);
                let d2 = adjust(&PaperSync, 1, way_off, &en);
                prop_assert!((d1 + d2).abs() < 1e-9, "d1={} d2={}", d1, d2);
            }
        }
    }
}
