//! Observation hooks: how metrics get out of a running world.
//!
//! The world notifies registered [`Observer`]s on periodic samples, on
//! every clock adjustment, and on corruption/release transitions. A
//! [`WorldSample`] snapshot carries, per processor: the bias, whether it is
//! *currently* corrupted, and whether it is *good* in the sense of
//! Definition 3(i) — non-faulty during the whole `[τ−Δ, τ]` window — which
//! is the set over which the paper's deviation guarantee is stated.

use byzclock_clock::Bias;
use byzclock_core::RoundSummary;
use byzclock_sim::{ProcId, RealTime};

/// A periodic snapshot of all clock biases.
#[derive(Debug, PartialEq)]
pub struct WorldSample {
    /// Real time of the snapshot.
    pub tau: RealTime,
    /// Bias `B_p(τ)` per processor.
    pub biases: Vec<Bias>,
    /// Currently-corrupted flags.
    pub corrupt: Vec<bool>,
    /// Definition 3(i) "good" flags (non-faulty during `[τ−Δ, τ]`).
    pub good: Vec<bool>,
}

/// `clone_from` reuses the target's buffers, so an observer that keeps the
/// previous sample does not allocate per sample.
impl Clone for WorldSample {
    fn clone(&self) -> Self {
        WorldSample {
            tau: self.tau,
            biases: self.biases.clone(),
            corrupt: self.corrupt.clone(),
            good: self.good.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.tau = source.tau;
        self.biases.clone_from(&source.biases);
        self.corrupt.clone_from(&source.corrupt);
        self.good.clone_from(&source.good);
    }
}

impl WorldSample {
    /// Maximum pairwise deviation `|C_p − C_q|` over good processors;
    /// `None` if fewer than two are good.
    pub fn good_deviation(&self) -> Option<f64> {
        let (count, lo, hi) = self.good_fold();
        (count >= 2).then_some(hi - lo)
    }

    /// `(min, max)` bias over good processors, if any.
    pub fn good_bias_range(&self) -> Option<(f64, f64)> {
        let (count, lo, hi) = self.good_fold();
        (count > 0).then_some((lo, hi))
    }

    /// Count, min and max of the good processors' biases, folded in index
    /// order without allocating.
    fn good_fold(&self) -> (usize, f64, f64) {
        let mut count = 0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (b, g) in self.biases.iter().zip(&self.good) {
            if *g {
                count += 1;
                lo = lo.min(b.as_secs());
                hi = hi.max(b.as_secs());
            }
        }
        (count, lo, hi)
    }

    /// Number of good processors.
    pub fn good_count(&self) -> usize {
        self.good.iter().filter(|g| **g).count()
    }

    /// Bias of one processor.
    pub fn bias_of(&self, p: ProcId) -> Bias {
        self.biases[p.index()]
    }
}

/// Callbacks invoked by the running world. All methods have empty defaults
/// so observers implement only what they need.
pub trait Observer {
    /// Periodic snapshot (at the world's sampling interval).
    fn on_sample(&mut self, sample: &WorldSample) {
        let _ = sample;
    }

    /// A node applied a clock adjustment of `delta` seconds. `good` is the
    /// Definition 3(i) flag at that moment (discontinuity is only bounded
    /// for good processors).
    fn on_adjustment(&mut self, node: ProcId, delta: f64, tau: RealTime, good: bool) {
        let _ = (node, delta, tau, good);
    }

    /// The adversary broke into `node`.
    fn on_corrupt(&mut self, node: ProcId, tau: RealTime) {
        let _ = (node, tau);
    }

    /// The adversary released `node`.
    fn on_release(&mut self, node: ProcId, tau: RealTime) {
        let _ = (node, tau);
    }

    /// `node` crashed and rebooted (benign restart, not a corruption).
    fn on_restart(&mut self, node: ProcId, tau: RealTime) {
        let _ = (node, tau);
    }

    /// `node` completed a sync round. Summaries arrive in the exact order
    /// the driver executes them, so the sequence across all nodes is a
    /// deterministic function of the world seed — the golden driver
    /// equivalence test records it bit for bit.
    fn on_round(&mut self, node: ProcId, summary: &RoundSummary, tau: RealTime) {
        let _ = (node, summary, tau);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorldSample {
        WorldSample {
            tau: RealTime::from_secs(10.0),
            biases: vec![
                Bias::from_secs(0.01),
                Bias::from_secs(-0.02),
                Bias::from_secs(0.03),
                Bias::from_secs(99.0),
            ],
            corrupt: vec![false, false, false, true],
            good: vec![true, true, true, false],
        }
    }

    #[test]
    fn good_deviation_ignores_bad_processors() {
        let s = sample();
        assert!((s.good_deviation().unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn good_bias_range() {
        let s = sample();
        let (lo, hi) = s.good_bias_range().unwrap();
        assert_eq!(lo, -0.02);
        assert_eq!(hi, 0.03);
    }

    #[test]
    fn deviation_none_when_too_few_good() {
        let mut s = sample();
        s.good = vec![true, false, false, false];
        assert!(s.good_deviation().is_none());
        assert_eq!(s.good_count(), 1);
        // range still defined for a single good node
        assert_eq!(s.good_bias_range().unwrap(), (0.01, 0.01));
        s.good = vec![false; 4];
        assert!(s.good_bias_range().is_none());
    }

    #[test]
    fn good_deviation_matches_a_collecting_reference() {
        // The pre-fold implementation: collect the good biases, then fold.
        fn reference(s: &WorldSample) -> Option<f64> {
            let good: Vec<f64> = s
                .biases
                .iter()
                .zip(&s.good)
                .filter(|(_, g)| **g)
                .map(|(b, _)| b.as_secs())
                .collect();
            if good.len() < 2 {
                return None;
            }
            let lo = good.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = good.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            Some(hi - lo)
        }
        let biases = [
            vec![0.0, -0.0, 0.0],
            vec![-0.0, 0.0, -0.0],
            vec![0.25, 0.25, 0.25],
            vec![-1.5, 0.0, 2.75],
            vec![1e-300, -1e-300, 5.0],
        ];
        let masks = [
            [false, false, false],
            [true, false, false],
            [false, true, true],
            [true, false, true],
            [true, true, true],
        ];
        for b in &biases {
            for good in &masks {
                let s = WorldSample {
                    tau: RealTime::ZERO,
                    biases: b.iter().map(|x| Bias::from_secs(*x)).collect(),
                    corrupt: vec![false; 3],
                    good: good.to_vec(),
                };
                let got = s.good_deviation().map(f64::to_bits);
                assert_eq!(got, reference(&s).map(f64::to_bits), "{b:?} {good:?}");
            }
        }
    }

    #[test]
    fn clone_from_copies_every_field() {
        let mut prev = sample();
        let mut next = sample();
        next.tau = RealTime::from_secs(11.0);
        next.biases[0] = Bias::from_secs(0.5);
        next.corrupt[1] = true;
        next.good[2] = false;
        prev.clone_from(&next);
        assert_eq!(prev, next);
        assert_eq!(next.clone(), next);
    }

    #[test]
    fn bias_of_indexes() {
        let s = sample();
        assert_eq!(s.bias_of(ProcId(3)).as_secs(), 99.0);
    }

    #[test]
    fn observer_defaults_are_noops() {
        struct Nop;
        impl Observer for Nop {}
        let mut o = Nop;
        o.on_sample(&sample());
        o.on_adjustment(ProcId(0), 0.1, RealTime::ZERO, true);
        o.on_corrupt(ProcId(0), RealTime::ZERO);
        o.on_release(ProcId(0), RealTime::ZERO);
        o.on_restart(ProcId(0), RealTime::ZERO);
        o.on_round(
            ProcId(0),
            &byzclock_core::RoundSummary {
                round: 1,
                adjustment: 0.0,
                responders: 3,
                timeouts: 0,
            },
            RealTime::ZERO,
        );
    }
}
