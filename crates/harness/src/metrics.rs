//! The run log: one [`Observer`] that records a run for later queries.
//!
//! [`RunLog`] is a cheaply cloneable handle over shared interior state.
//! Clone one into the world as an observer and keep the other to query
//! after the run. It records, in arrival order, every [`WorldSample`],
//! every clock adjustment and every release; each metric an experiment
//! reads (deviation, discontinuity, trajectories, recovery) is a query over
//! that record, so a warm-up instant or a recovery threshold is an argument
//! of the query:
//!
//! ```
//! use byzclock_harness::RunLog;
//! use byzclock_runtime::WorldBuilder;
//! use byzclock_sim::{RealTime, SimDuration};
//!
//! let log = RunLog::new();
//! let mut world = WorldBuilder::new(4, 1)
//!     .big_delta(SimDuration::from_secs(40.0))
//!     .build()
//!     .unwrap();
//! world.add_observer(Box::new(log.clone()));
//! world.run_until(RealTime::from_secs(60.0));
//! assert!(log.max_deviation(RealTime::ZERO).unwrap() < 1.0);
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use byzclock_runtime::{Observer, WorldSample};
use byzclock_sim::{ProcId, RealTime};

/// Records every sample, adjustment and release of a run.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    inner: Rc<RefCell<Record>>,
}

#[derive(Debug, Default)]
struct Record {
    samples: Vec<WorldSample>,
    adjustments: Vec<Adjustment>,
    /// `(node, released at, samples recorded before the release)`.
    releases: Vec<(ProcId, RealTime, usize)>,
}

/// One clock adjustment as the world reported it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adjustment {
    /// The adjusting processor.
    pub node: ProcId,
    /// The applied adjustment, seconds.
    pub delta: f64,
    /// When it was applied.
    pub tau: RealTime,
    /// The Definition 3(i) "good" flag at that moment.
    pub good: bool,
}

/// One corruption episode's recovery measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryRecord {
    /// The recovering processor.
    pub node: ProcId,
    /// When the adversary released it.
    pub released_at: RealTime,
    /// First sample time at which its distance to the good range fell to
    /// the threshold or below (`None` = never within the run).
    pub recovered_at: Option<RealTime>,
}

impl RecoveryRecord {
    /// Recovery latency, if recovered.
    pub fn latency_secs(&self) -> Option<f64> {
        self.recovered_at.map(|r| (r - self.released_at).as_secs())
    }
}

impl RunLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded samples, in arrival order.
    pub fn samples(&self) -> Vec<WorldSample> {
        self.inner.borrow().samples.clone()
    }

    /// All recorded adjustments, in arrival order.
    pub fn adjustments(&self) -> Vec<Adjustment> {
        self.inner.borrow().adjustments.clone()
    }

    /// `(τ seconds, good-set deviation)` for every sample at or after
    /// `from` (the warm-up instant) with at least two good processors.
    pub fn deviations(&self, from: RealTime) -> Vec<(f64, f64)> {
        self.inner
            .borrow()
            .samples
            .iter()
            .filter(|s| s.tau.as_secs() >= from.as_secs())
            .filter_map(|s| Some((s.tau.as_secs(), s.good_deviation()?)))
            .collect()
    }

    /// The maximum good-set deviation at or after `from`, seconds.
    pub fn max_deviation(&self, from: RealTime) -> Option<f64> {
        self.deviations(from)
            .into_iter()
            .fold(None, |max, (_, dev)| {
                if max.is_none_or(|m| dev > m) {
                    Some(dev)
                } else {
                    max
                }
            })
    }

    /// Mean good-set deviation at or after `from` (more stable than the
    /// max for comparing configurations).
    pub fn avg_deviation(&self, from: RealTime) -> Option<f64> {
        let series = self.deviations(from);
        if series.is_empty() {
            return None;
        }
        Some(series.iter().map(|(_, d)| d).sum::<f64>() / series.len() as f64)
    }

    /// Smallest number of good processors in any sample at or after `from`.
    pub fn min_good_count(&self, from: RealTime) -> Option<usize> {
        self.inner
            .borrow()
            .samples
            .iter()
            .filter(|s| s.tau.as_secs() >= from.as_secs())
            .map(WorldSample::good_count)
            .min()
    }

    /// Max `|delta|` over adjustments applied by *good* processors at or
    /// after `from` — the measured discontinuity ψ. The initial-convergence
    /// transient is not covered by Theorem 5(ii), which assumes a correctly
    /// initialized system, so callers usually skip it.
    pub fn max_good_discontinuity(&self, from: RealTime) -> Option<f64> {
        self.inner
            .borrow()
            .adjustments
            .iter()
            .filter(|a| a.good && a.tau.as_secs() >= from.as_secs())
            .map(|a| a.delta.abs())
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Bias trajectory of one node: `(τ seconds, bias seconds)`.
    pub fn trajectory(&self, node: ProcId) -> Vec<(f64, f64)> {
        self.inner
            .borrow()
            .samples
            .iter()
            .map(|s| (s.tau.as_secs(), s.bias_of(node).as_secs()))
            .collect()
    }

    /// Distance of `node`'s bias to the range of the *other* good
    /// processors, per sample that has one: `(τ seconds, distance)`. The
    /// Lemma 7(iii) ε.
    pub fn distance_to_good(&self, node: ProcId) -> Vec<(f64, f64)> {
        self.inner
            .borrow()
            .samples
            .iter()
            .filter_map(|s| Some((s.tau.as_secs(), distance_to_good(s, node)?)))
            .collect()
    }

    /// One record per release: the first later sample in which the node is
    /// not corrupt and within `threshold` seconds of the other good
    /// processors' range. Recovered episodes come first, in the order they
    /// recovered, then unrecovered ones in release order.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or non-finite.
    pub fn recoveries(&self, threshold: f64) -> Vec<RecoveryRecord> {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "invalid threshold"
        );
        let record = self.inner.borrow();
        let mut recovered = Vec::new();
        let mut pending = Vec::new();
        for &(node, released_at, seen) in &record.releases {
            // Scan from the samples recorded after the release, not by τ: a
            // sample taken at the release instant but before it does not
            // count.
            let hit = record.samples[seen..].iter().enumerate().find(|(_, s)| {
                !s.corrupt[node.index()]
                    && distance_to_good(s, node).is_some_and(|d| d <= threshold)
            });
            let rec = RecoveryRecord {
                node,
                released_at,
                recovered_at: hit.map(|(_, s)| s.tau),
            };
            match hit {
                Some((i, _)) => recovered.push((seen + i, rec)),
                None => pending.push(rec),
            }
        }
        recovered.sort_by_key(|(i, _)| *i);
        recovered
            .into_iter()
            .map(|(_, r)| r)
            .chain(pending)
            .collect()
    }

    /// Latencies of the recovered episodes, seconds, in recovery order.
    pub fn latencies(&self, threshold: f64) -> Vec<f64> {
        self.recoveries(threshold)
            .iter()
            .filter_map(RecoveryRecord::latency_secs)
            .collect()
    }
}

/// Distance of `node`'s bias to the range of the *other* good processors'
/// biases in `sample`; `None` if no other processor is good.
fn distance_to_good(sample: &WorldSample, node: ProcId) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut any = false;
    for (i, (b, g)) in sample.biases.iter().zip(&sample.good).enumerate() {
        if i != node.index() && *g {
            lo = lo.min(b.as_secs());
            hi = hi.max(b.as_secs());
            any = true;
        }
    }
    if !any {
        return None;
    }
    let b = sample.bias_of(node).as_secs();
    Some(if b > hi {
        b - hi
    } else if b < lo {
        lo - b
    } else {
        0.0
    })
}

impl Observer for RunLog {
    fn on_sample(&mut self, sample: &WorldSample) {
        self.inner.borrow_mut().samples.push(sample.clone());
    }

    fn on_adjustment(&mut self, node: ProcId, delta: f64, tau: RealTime, good: bool) {
        self.inner.borrow_mut().adjustments.push(Adjustment {
            node,
            delta,
            tau,
            good,
        });
    }

    fn on_release(&mut self, node: ProcId, tau: RealTime) {
        let mut record = self.inner.borrow_mut();
        let seen = record.samples.len();
        record.releases.push((node, tau, seen));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_clock::Bias;

    fn sample(tau: f64, biases: &[f64], good: &[bool], corrupt: &[bool]) -> WorldSample {
        WorldSample {
            tau: RealTime::from_secs(tau),
            biases: biases.iter().map(|b| Bias::from_secs(*b)).collect(),
            corrupt: corrupt.to_vec(),
            good: good.to_vec(),
        }
    }

    fn at(secs: f64) -> RealTime {
        RealTime::from_secs(secs)
    }

    fn unrecovered(log: &RunLog, threshold: f64) -> usize {
        let recs = log.recoveries(threshold);
        recs.iter().filter(|r| r.recovered_at.is_none()).count()
    }

    #[test]
    fn deviation_tracker_takes_max() {
        let mut t = RunLog::new();
        t.on_sample(&sample(1.0, &[0.0, 0.1], &[true, true], &[false, false]));
        t.on_sample(&sample(2.0, &[0.0, 0.3], &[true, true], &[false, false]));
        t.on_sample(&sample(3.0, &[0.0, 0.2], &[true, true], &[false, false]));
        let max = t.max_deviation(RealTime::ZERO).unwrap();
        assert!((max - 0.3).abs() < 1e-12);
        let series = t.deviations(RealTime::ZERO);
        let max_at = series.iter().find(|(_, d)| *d == max).map(|(tau, _)| *tau);
        assert_eq!(max_at, Some(2.0));
        assert_eq!(series.len(), 3);
        assert!((series.last().unwrap().1 - 0.2).abs() < 1e-12);
        assert_eq!(t.min_good_count(RealTime::ZERO), Some(2));
    }

    #[test]
    fn deviation_tracker_warmup_skips() {
        let mut t = RunLog::new();
        t.on_sample(&sample(5.0, &[0.0, 9.0], &[true, true], &[false, false]));
        assert!(t.max_deviation(at(10.0)).is_none());
        t.on_sample(&sample(15.0, &[0.0, 0.1], &[true, true], &[false, false]));
        assert!((t.max_deviation(at(10.0)).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn deviation_tracker_ignores_bad_nodes() {
        let mut t = RunLog::new();
        t.on_sample(&sample(
            1.0,
            &[0.0, 0.1, 99.0],
            &[true, true, false],
            &[false, false, true],
        ));
        assert!((t.max_deviation(RealTime::ZERO).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn adjustment_tracker_good_discontinuity() {
        let mut t = RunLog::new();
        t.on_adjustment(ProcId(0), 0.05, at(1.0), true);
        t.on_adjustment(ProcId(1), -0.2, at(2.0), true);
        t.on_adjustment(ProcId(2), 99.0, at(3.0), false); // recovering: exempt
        assert!((t.max_good_discontinuity(RealTime::ZERO).unwrap() - 0.2).abs() < 1e-12);
        let all = t.adjustments();
        assert_eq!(all.len(), 3);
        let of_node_1: Vec<(f64, f64)> = all
            .iter()
            .filter(|a| a.node == ProcId(1))
            .map(|a| (a.tau.as_secs(), a.delta))
            .collect();
        assert_eq!(of_node_1, vec![(2.0, -0.2)]);
    }

    #[test]
    fn bias_history_trajectory_and_distance() {
        let mut h = RunLog::new();
        h.on_sample(&sample(
            1.0,
            &[0.0, 0.1, 5.0],
            &[true, true, false],
            &[false, false, false],
        ));
        h.on_sample(&sample(
            2.0,
            &[0.0, 0.1, 2.0],
            &[true, true, false],
            &[false, false, false],
        ));
        assert_eq!(h.samples().len(), 2);
        assert_eq!(h.trajectory(ProcId(2)), vec![(1.0, 5.0), (2.0, 2.0)]);
        let d = h.distance_to_good(ProcId(2));
        assert!((d[0].1 - 4.9).abs() < 1e-12);
        assert!((d[1].1 - 1.9).abs() < 1e-12);
        // node 0's "others-good" range is just node 1's bias (0.1), so its
        // own bias 0.0 is 0.1 below the range
        assert!((h.distance_to_good(ProcId(0))[0].1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn recovery_tracker_measures_latency() {
        let mut t = RunLog::new();
        t.on_release(ProcId(2), at(10.0));
        // still far at 11
        t.on_sample(&sample(
            11.0,
            &[0.0, 0.1, 9.0],
            &[true, true, false],
            &[false, false, false],
        ));
        assert_eq!(unrecovered(&t, 0.5), 1);
        // recovered at 14
        t.on_sample(&sample(
            14.0,
            &[0.0, 0.1, 0.3],
            &[true, true, false],
            &[false, false, false],
        ));
        assert_eq!(unrecovered(&t, 0.5), 0);
        let recs = t.recoveries(0.5);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].latency_secs(), Some(4.0));
        assert_eq!(t.latencies(0.5), vec![4.0]);
    }

    #[test]
    fn recovery_tracker_requires_release_of_control() {
        let mut t = RunLog::new();
        t.on_release(ProcId(1), at(0.0));
        // bias looks fine but the node is corrupted again: not recovered
        t.on_sample(&sample(1.0, &[0.0, 0.1], &[true, false], &[false, true]));
        assert_eq!(unrecovered(&t, 0.5), 1);
    }

    #[test]
    fn recovery_pending_reported_as_unrecovered_record() {
        let t = RunLog::new();
        let mut obs = t.clone();
        obs.on_release(ProcId(0), at(3.0));
        let recs = t.recoveries(0.1);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].recovered_at.is_none());
        assert!(recs[0].latency_secs().is_none());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn recovery_rejects_bad_threshold() {
        RunLog::new().recoveries(f64::NAN);
    }

    #[test]
    fn recovery_scans_from_the_release_not_from_its_instant() {
        let close = |tau| sample(tau, &[0.0, 0.1, 0.05], &[true, true, false], &[false; 3]);
        let mut t = RunLog::new();
        // A sample taken at the release instant but delivered before the
        // release does not count; the next one does.
        t.on_sample(&close(10.0));
        t.on_release(ProcId(2), at(10.0));
        t.on_sample(&close(12.0));
        // A sample delivered after a release at the same instant counts.
        t.on_release(ProcId(1), at(12.0));
        t.on_sample(&close(12.0));
        let recs = t.recoveries(0.5);
        assert_eq!(recs[0].node, ProcId(2));
        assert_eq!(recs[0].recovered_at, Some(at(12.0)));
        assert_eq!(recs[1].node, ProcId(1));
        assert_eq!(recs[1].latency_secs(), Some(0.0));
    }

    #[test]
    fn recoveries_list_recovered_in_recovery_order_then_pending() {
        let far = [0.0, 0.1, 9.0, 9.0];
        let good = [true, true, false, false];
        let mut t = RunLog::new();
        t.on_release(ProcId(3), at(1.0));
        t.on_release(ProcId(2), at(2.0));
        t.on_sample(&sample(3.0, &far, &good, &[false; 4]));
        t.on_sample(&sample(4.0, &[0.0, 0.1, 0.2, 9.0], &good, &[false; 4]));
        let recs = t.recoveries(0.5);
        assert_eq!(recs[0].node, ProcId(2));
        assert_eq!(recs[1].node, ProcId(3));
        assert_eq!(recs[1].recovered_at, None);
    }

    #[test]
    fn clone_handles_share_state() {
        let t = RunLog::new();
        let mut observer = t.clone();
        observer.on_sample(&sample(1.0, &[0.0, 1.0], &[true, true], &[false, false]));
        assert!((t.max_deviation(RealTime::ZERO).unwrap() - 1.0).abs() < 1e-12);
    }
}
