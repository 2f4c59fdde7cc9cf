//! Online invariant checking: the properties every chaos run is held to.
//!
//! An [`InvariantSuite`] is an [`Observer`] wired into the running world;
//! it never pauses or perturbs the simulation, it only records
//! [`Violation`]s into a shared [`ViolationLog`]. Checked invariants:
//!
//! 1. **deviation** — good-set deviation stays within its bound. Within
//!    the paper's model the bound is Theorem 5(i)'s γ; for beyond-model
//!    plans (loss, duplication, reordering, δ-violating spikes, link
//!    cuts) the theorem does not apply, so a loose sanity envelope of
//!    `max(4γ, 0.2 s)` is used instead — big enough to allow degraded
//!    sync, small enough to catch divergence.
//! 2. **discontinuity** — under the Step discipline, each adjustment of a
//!    good processor is at most ψ (Theorem 5(ii)). Only checked within
//!    the model (beyond it, starved nodes legitimately make way-off
//!    jumps when traffic resumes).
//! 3. **monotonicity** — under the Slew discipline, logical clocks never
//!    run backwards. Checked sample-to-sample, skipping processors that
//!    were corrupted (sabotage is an adversary step, not a protocol
//!    defect) in either sample or had a corrupt/release/restart
//!    transition in between.
//! 4. **finite-adj** — no adjustment is ever NaN or infinite. Checked
//!    always, under every discipline, warm-up or not.
//!
//! Deviation and discontinuity start after a warm-up of one Δ: the
//! initial convergence phase legitimately exceeds both bounds while the
//! clocks pull together from their initial dispersion.

use std::cell::RefCell;
use std::rc::Rc;

use byzclock_core::TheoremBounds;
use byzclock_runtime::{Observer, WorldSample};
use byzclock_sim::{ProcId, RealTime};
use serde::{Deserialize, Serialize};

use crate::plan::FaultPlan;

/// Hard cap on recorded violations per run (a diverging world would
/// otherwise flood the log every sample tick).
pub const MAX_VIOLATIONS: usize = 256;

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant: `deviation`, `discontinuity`, `monotonicity` or
    /// `finite-adj`.
    pub invariant: String,
    /// When, seconds of simulated real time.
    pub tau_secs: f64,
    /// Human-readable specifics (deterministic: pure function of the run).
    pub detail: String,
}

/// Shared handle onto a run's violation list. Clone freely; all clones
/// see the same log.
#[derive(Clone, Default)]
pub struct ViolationLog {
    inner: Rc<RefCell<Vec<Violation>>>,
}

impl ViolationLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Violation> {
        self.inner.borrow().clone()
    }

    /// True iff a violation of `invariant` was recorded.
    pub(crate) fn contains(&self, invariant: &str) -> bool {
        self.inner.borrow().iter().any(|v| v.invariant == invariant)
    }

    /// True iff the log holds [`MAX_VIOLATIONS`] entries and records no
    /// more.
    pub(crate) fn is_full(&self) -> bool {
        self.inner.borrow().len() >= MAX_VIOLATIONS
    }

    fn push(&self, v: Violation) {
        let mut log = self.inner.borrow_mut();
        if log.len() < MAX_VIOLATIONS {
            log.push(v);
        }
    }
}

/// The observer that checks all four invariants online.
pub struct InvariantSuite {
    log: ViolationLog,
    gamma: f64,
    psi: f64,
    warm_up_secs: f64,
    within_model: bool,
    step: bool,
    slew: bool,
    /// The previous sample, kept only under slew (the one check that
    /// reads it).
    prev: Option<WorldSample>,
    /// Per-node flag: a corrupt/release/restart happened since the last
    /// sample, so skip one monotonicity interval for that node.
    dirty: Vec<bool>,
}

impl InvariantSuite {
    /// Builds the suite for `plan`, using the world's derived Theorem 5
    /// bounds. Returns the observer (to hand to the world) and the shared
    /// log (to read afterwards).
    pub fn for_plan(plan: &FaultPlan, bounds: &TheoremBounds) -> (Self, ViolationLog) {
        let log = ViolationLog::new();
        let suite = InvariantSuite {
            log: log.clone(),
            gamma: bounds.gamma,
            psi: bounds.discontinuity,
            warm_up_secs: plan.big_delta_secs,
            within_model: plan.within_model(),
            step: !plan.discipline.is_slew(),
            slew: plan.discipline.is_slew(),
            prev: None,
            dirty: vec![false; plan.n as usize],
        };
        (suite, log)
    }

    /// The deviation bound in force: γ within the model, the loose
    /// `max(4γ, 0.2)` envelope beyond it.
    pub fn deviation_bound(&self) -> f64 {
        if self.within_model {
            self.gamma
        } else {
            (4.0 * self.gamma).max(0.2)
        }
    }
}

impl Observer for InvariantSuite {
    fn on_sample(&mut self, sample: &WorldSample) {
        let tau = sample.tau.as_secs();
        if tau >= self.warm_up_secs {
            if let Some(dev) = sample.good_deviation() {
                let bound = self.deviation_bound();
                if dev > bound {
                    self.log.push(Violation {
                        invariant: "deviation".into(),
                        tau_secs: tau,
                        detail: format!("good-set deviation {dev:.6} > bound {bound:.6}"),
                    });
                }
            }
        }
        if self.slew {
            if let Some(prev) = &self.prev {
                let prev_tau = prev.tau.as_secs();
                for i in 0..sample.biases.len() {
                    if sample.corrupt[i] || prev.corrupt[i] || self.dirty[i] {
                        continue;
                    }
                    let c_now = tau + sample.biases[i].as_secs();
                    let c_prev = prev_tau + prev.biases[i].as_secs();
                    if c_now < c_prev - 1e-9 {
                        self.log.push(Violation {
                            invariant: "monotonicity".into(),
                            tau_secs: tau,
                            detail: format!(
                                "p{i}: logical clock ran backwards {c_prev:.9} -> {c_now:.9}"
                            ),
                        });
                    }
                }
            }
        }
        for d in &mut self.dirty {
            *d = false;
        }
        if self.slew {
            match &mut self.prev {
                Some(prev) => prev.clone_from(sample),
                None => self.prev = Some(sample.clone()),
            }
        }
    }

    fn on_adjustment(&mut self, node: ProcId, delta: f64, tau: RealTime, good: bool) {
        if !delta.is_finite() {
            self.log.push(Violation {
                invariant: "finite-adj".into(),
                tau_secs: tau.as_secs(),
                detail: format!("{node}: non-finite adjustment {delta}"),
            });
            return;
        }
        if self.step
            && self.within_model
            && good
            && tau.as_secs() >= self.warm_up_secs
            && delta.abs() > self.psi + 1e-9
        {
            self.log.push(Violation {
                invariant: "discontinuity".into(),
                tau_secs: tau.as_secs(),
                detail: format!(
                    "{node}: good-processor step {:.6} > psi {:.6}",
                    delta.abs(),
                    self.psi
                ),
            });
        }
    }

    fn on_corrupt(&mut self, node: ProcId, _tau: RealTime) {
        self.dirty[node.index()] = true;
    }

    fn on_release(&mut self, node: ProcId, _tau: RealTime) {
        self.dirty[node.index()] = true;
    }

    fn on_restart(&mut self, node: ProcId, _tau: RealTime) {
        self.dirty[node.index()] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_clock::Bias;

    fn bounds() -> TheoremBounds {
        // Only gamma/discontinuity are read by the suite.
        TheoremBounds {
            t: byzclock_sim::SimDuration::from_secs(5.0),
            k: 8,
            c: 0.005,
            d: 0.1,
            gamma: 0.18,
            logical_drift: 1e-5,
            discontinuity: 0.0127,
            way_off: 0.19,
        }
    }

    fn sample(tau: f64, biases: &[f64], corrupt: &[bool]) -> WorldSample {
        WorldSample {
            tau: RealTime::from_secs(tau),
            biases: biases.iter().map(|b| Bias::from_secs(*b)).collect(),
            corrupt: corrupt.to_vec(),
            good: corrupt.iter().map(|c| !c).collect(),
        }
    }

    fn suite(within_model: bool, slew: bool) -> (InvariantSuite, ViolationLog) {
        let mut plan = FaultPlan::quiet(4, 1, 0);
        if !within_model {
            plan.message_loss = 0.1;
        }
        if slew {
            plan.discipline = crate::plan::DisciplineSpec::Slew { max_rate: 0.05 };
        }
        InvariantSuite::for_plan(&plan, &bounds())
    }

    #[test]
    fn deviation_checked_only_after_warm_up() {
        let (mut s, log) = suite(true, false);
        // Large deviation before Δ = 40 s: warm-up, no violation.
        s.on_sample(&sample(10.0, &[0.5, -0.5, 0.0, 0.0], &[false; 4]));
        assert!(log.snapshot().is_empty());
        // Same deviation after warm-up: violation.
        s.on_sample(&sample(50.0, &[0.5, -0.5, 0.0, 0.0], &[false; 4]));
        let v = log.snapshot();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "deviation");
        assert_eq!(v[0].tau_secs, 50.0);
    }

    #[test]
    fn beyond_model_bound_is_looser() {
        let (within, _) = suite(true, false);
        let (beyond, _) = suite(false, false);
        assert!((within.deviation_bound() - 0.18).abs() < 1e-12);
        assert!((beyond.deviation_bound() - 0.72).abs() < 1e-12);
    }

    #[test]
    fn non_finite_adjustment_always_flagged() {
        let (mut s, log) = suite(false, true);
        s.on_adjustment(ProcId(2), f64::NAN, RealTime::from_secs(1.0), false);
        s.on_adjustment(ProcId(0), f64::INFINITY, RealTime::from_secs(2.0), true);
        let v = log.snapshot();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.invariant == "finite-adj"));
    }

    #[test]
    fn discontinuity_respects_goodness_and_warm_up() {
        let (mut s, log) = suite(true, false);
        let big = 0.05; // > psi = 0.0127
        s.on_adjustment(ProcId(0), big, RealTime::from_secs(10.0), true); // warm-up
        s.on_adjustment(ProcId(0), big, RealTime::from_secs(50.0), false); // not good
        s.on_adjustment(ProcId(0), 0.001, RealTime::from_secs(50.0), true); // small
        assert!(log.snapshot().is_empty());
        s.on_adjustment(ProcId(0), -big, RealTime::from_secs(60.0), true);
        let v = log.snapshot();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "discontinuity");
    }

    #[test]
    fn monotonicity_skips_corrupted_and_dirty_nodes() {
        let (mut s, log) = suite(true, true);
        s.on_sample(&sample(1.0, &[0.0, 0.0, 0.0, 0.0], &[false; 4]));
        // p1 jumps back 0.5 s but had a restart in between: skipped.
        s.on_restart(ProcId(1), RealTime::from_secs(1.5));
        s.on_sample(&sample(2.0, &[0.0, -0.5, 0.0, 0.0], &[false; 4]));
        assert!(log.snapshot().is_empty());
        // Next interval p1 is clean again; another backwards jump counts.
        s.on_sample(&sample(3.0, &[0.0, -2.0, 0.0, 0.0], &[false; 4]));
        let v = log.snapshot();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "monotonicity");
        assert!(v[0].detail.starts_with("p1"));
        // Corrupted nodes are never checked.
        s.on_sample(&sample(
            4.0,
            &[0.0, -9.0, 0.0, 0.0],
            &[false, true, false, false],
        ));
        assert_eq!(log.snapshot().len(), 1);
    }

    #[test]
    fn monotonicity_not_checked_under_step() {
        let (mut s, log) = suite(true, false);
        s.on_sample(&sample(1.0, &[0.0; 4], &[false; 4]));
        // Step discipline may legally step backwards (that is what ψ bounds).
        s.on_sample(&sample(2.0, &[-0.005, 0.0, 0.0, 0.0], &[false; 4]));
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn log_caps_at_max_violations() {
        let (mut s, log) = suite(true, false);
        for i in 0..(MAX_VIOLATIONS + 50) {
            s.on_adjustment(ProcId(0), f64::NAN, RealTime::from_secs(i as f64), true);
        }
        assert_eq!(log.snapshot().len(), MAX_VIOLATIONS);
    }
}
