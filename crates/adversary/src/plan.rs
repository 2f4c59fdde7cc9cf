//! Serializable adversary plans.
//!
//! Chaos campaigns (experiment E21) need to *record* an adversary
//! configuration in a replay artifact and rebuild it bit-identically
//! later. Live [`Adversary`] values cannot be serialized — strategies are
//! trait objects — so this module provides a plain-data mirror:
//! [`StrategySpec`] selects and parameterizes a strategy, and
//! [`AdversaryPlan`] pairs one with explicit corruption windows. A plan is
//! validated (including the exact Definition 2 `f`-per-Δ check) *before*
//! it is built, so malformed plans are rejected up front instead of
//! panicking mid-run.

use byzclock_sim::{ProcId, RealTime, SimDuration};
use serde::{Deserialize, Serialize};

use crate::adversary::Adversary;
use crate::schedule::{CorruptionInterval, CorruptionSchedule, ScheduleError};
use crate::strategy::{
    ByzantineStrategy, ColluderStrategy, ConstantOffsetStrategy, CrashStrategy, FloodStrategy,
    RandomReplyStrategy, SplitBrainStrategy, StealthStrategy,
};

/// A plan failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A strategy parameter is out of range.
    InvalidStrategy(String),
    /// A corruption window is malformed (empty, negative, or non-finite).
    InvalidWindow {
        /// Index into [`AdversaryPlan::windows`].
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The windows violate the Definition 2 `f`-per-Δ limit.
    NotFLimited(ScheduleError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidStrategy(msg) => write!(f, "invalid strategy: {msg}"),
            PlanError::InvalidWindow { index, reason } => {
                write!(f, "corruption window #{index}: {reason}")
            }
            PlanError::NotFLimited(e) => write!(f, "plan is not f-limited: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Plain-data selection of a [`ByzantineStrategy`].
///
/// Each variant mirrors one strategy constructor; [`StrategySpec::build`]
/// produces the live trait object. Parameters carry the same constraints
/// as the constructors — call [`StrategySpec::validate`] first on
/// untrusted (e.g. deserialized) specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// [`CrashStrategy`]: silent while corrupted.
    Crash,
    /// [`RandomReplyStrategy`]: lies uniform in `[−spread, +spread]`.
    Random {
        /// Half-width of the lie interval, seconds (finite, ≥ 0).
        spread: f64,
    },
    /// [`ConstantOffsetStrategy`]: consistent fixed-offset lie.
    ConstantOffset {
        /// Claimed bias, seconds (finite).
        offset: f64,
    },
    /// [`SplitBrainStrategy`]: ±magnitude by requester parity.
    SplitBrain {
        /// Magnitude of the claimed bias, seconds (finite, ≥ 0).
        magnitude: f64,
    },
    /// [`StealthStrategy`]: nudges the good range upward by `push`.
    Stealth {
        /// Push beyond the good maximum, seconds (finite, ≥ 0).
        push: f64,
    },
    /// [`ColluderStrategy`]: plausible-edge lies pulling requesters apart.
    Colluder {
        /// Fraction of `WayOff` to lie by, in `(0, 1]`.
        aggressiveness: f64,
    },
    /// [`FloodStrategy`]: absurd values, sanity baseline.
    Flood,
}

impl StrategySpec {
    /// Checks the parameter constraints the constructors would panic on.
    ///
    /// # Errors
    ///
    /// [`PlanError::InvalidStrategy`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), PlanError> {
        let bad = |msg: String| Err(PlanError::InvalidStrategy(msg));
        match *self {
            StrategySpec::Crash | StrategySpec::Flood => Ok(()),
            StrategySpec::Random { spread } => {
                if spread.is_finite() && spread >= 0.0 {
                    Ok(())
                } else {
                    bad(format!("random spread {spread} must be finite and >= 0"))
                }
            }
            StrategySpec::ConstantOffset { offset } => {
                if offset.is_finite() {
                    Ok(())
                } else {
                    bad(format!("constant offset {offset} must be finite"))
                }
            }
            StrategySpec::SplitBrain { magnitude } => {
                if magnitude.is_finite() && magnitude >= 0.0 {
                    Ok(())
                } else {
                    bad(format!(
                        "split-brain magnitude {magnitude} must be finite and >= 0"
                    ))
                }
            }
            StrategySpec::Stealth { push } => {
                if push.is_finite() && push >= 0.0 {
                    Ok(())
                } else {
                    bad(format!("stealth push {push} must be finite and >= 0"))
                }
            }
            StrategySpec::Colluder { aggressiveness } => {
                if aggressiveness > 0.0 && aggressiveness <= 1.0 {
                    Ok(())
                } else {
                    bad(format!(
                        "colluder aggressiveness {aggressiveness} must be in (0, 1]"
                    ))
                }
            }
        }
    }

    /// Builds the live strategy. Call [`validate`](Self::validate) first;
    /// the constructors panic on out-of-range parameters.
    pub fn build(&self) -> Box<dyn ByzantineStrategy> {
        match *self {
            StrategySpec::Crash => Box::new(CrashStrategy),
            StrategySpec::Random { spread } => Box::new(RandomReplyStrategy::new(spread)),
            StrategySpec::ConstantOffset { offset } => {
                Box::new(ConstantOffsetStrategy::new(offset))
            }
            StrategySpec::SplitBrain { magnitude } => Box::new(SplitBrainStrategy::new(magnitude)),
            StrategySpec::Stealth { push } => Box::new(StealthStrategy::new(push)),
            StrategySpec::Colluder { aggressiveness } => {
                Box::new(ColluderStrategy::with_aggressiveness(aggressiveness))
            }
            StrategySpec::Flood => Box::new(FloodStrategy),
        }
    }
}

/// One corruption episode in a plan: processor `proc` is controlled during
/// `[from_secs, until_secs)`. Times are seconds of simulated real time
/// (kept as plain `f64` so plans serialize without custom impls).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorruptionWindowSpec {
    /// Victim processor index.
    pub proc: u32,
    /// Episode start, seconds.
    pub from_secs: f64,
    /// Episode end, seconds (exclusive; must exceed `from_secs`).
    pub until_secs: f64,
}

impl CorruptionWindowSpec {
    fn to_interval(self) -> CorruptionInterval {
        CorruptionInterval::new(
            ProcId(self.proc),
            RealTime::from_secs(self.from_secs),
            RealTime::from_secs(self.until_secs),
        )
    }
}

/// A complete, serializable adversary configuration: one strategy plus
/// explicit corruption windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// Which Byzantine behaviour corrupted processors exhibit.
    pub strategy: StrategySpec,
    /// When which processors are controlled.
    pub windows: Vec<CorruptionWindowSpec>,
}

impl AdversaryPlan {
    /// The corruption schedule the windows describe.
    pub fn schedule(&self) -> CorruptionSchedule {
        CorruptionSchedule::from_intervals(self.windows.iter().map(|w| w.to_interval()).collect())
    }

    /// Full validation: strategy parameters, window sanity, and the exact
    /// Definition 2 check that at most `f` distinct processors are
    /// controlled in any `[τ, τ+Δ]` window inside `[0, horizon]`.
    ///
    /// # Errors
    ///
    /// The first [`PlanError`] encountered.
    pub fn verify(
        &self,
        f: usize,
        big_delta: SimDuration,
        horizon: RealTime,
    ) -> Result<(), PlanError> {
        self.strategy.validate()?;
        for (index, w) in self.windows.iter().enumerate() {
            let reason = if !(w.from_secs.is_finite() && w.until_secs.is_finite()) {
                Some("bounds must be finite".to_string())
            } else if w.from_secs < 0.0 {
                Some(format!("start {} is negative", w.from_secs))
            } else if w.until_secs <= w.from_secs {
                Some(format!("empty window [{}, {})", w.from_secs, w.until_secs))
            } else {
                None
            };
            if let Some(reason) = reason {
                return Err(PlanError::InvalidWindow { index, reason });
            }
        }
        self.schedule()
            .verify_f_limited(f, big_delta, horizon)
            .map_err(PlanError::NotFLimited)
    }

    /// Builds the live adversary. Verify first: strategy constructors
    /// panic on out-of-range parameters.
    pub fn build(&self) -> Adversary {
        Adversary::new(self.schedule(), self.strategy.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(proc: u32, from: f64, until: f64) -> CorruptionWindowSpec {
        CorruptionWindowSpec {
            proc,
            from_secs: from,
            until_secs: until,
        }
    }

    fn plan() -> AdversaryPlan {
        AdversaryPlan {
            strategy: StrategySpec::ConstantOffset { offset: 5.0 },
            windows: vec![window(1, 10.0, 15.0), window(2, 100.0, 110.0)],
        }
    }

    #[test]
    fn valid_plan_verifies_and_builds() {
        let p = plan();
        p.verify(1, SimDuration::from_secs(60.0), RealTime::from_secs(200.0))
            .unwrap();
        let adv = p.build();
        assert_eq!(adv.strategy_name(), "const-offset");
        assert_eq!(adv.schedule().episode_count(), 2);
    }

    #[test]
    fn over_f_plan_is_rejected() {
        // Two distinct victims inside one Δ window with f = 1.
        let p = AdversaryPlan {
            strategy: StrategySpec::Crash,
            windows: vec![window(1, 10.0, 15.0), window(2, 20.0, 25.0)],
        };
        let err = p
            .verify(1, SimDuration::from_secs(60.0), RealTime::from_secs(100.0))
            .unwrap_err();
        assert!(matches!(err, PlanError::NotFLimited(_)), "{err}");
    }

    #[test]
    fn malformed_windows_are_rejected() {
        let mut p = plan();
        p.windows[1] = window(2, 110.0, 100.0);
        let err = p
            .verify(1, SimDuration::from_secs(60.0), RealTime::from_secs(200.0))
            .unwrap_err();
        assert!(
            matches!(err, PlanError::InvalidWindow { index: 1, .. }),
            "{err}"
        );
        p.windows[1] = window(2, -5.0, 100.0);
        assert!(p
            .verify(1, SimDuration::from_secs(60.0), RealTime::from_secs(200.0))
            .is_err());
    }

    #[test]
    fn bad_strategy_parameters_are_rejected() {
        for spec in [
            StrategySpec::Random { spread: -1.0 },
            StrategySpec::Random { spread: f64::NAN },
            StrategySpec::ConstantOffset {
                offset: f64::INFINITY,
            },
            StrategySpec::SplitBrain { magnitude: -0.1 },
            StrategySpec::Stealth { push: f64::NAN },
            StrategySpec::Colluder {
                aggressiveness: 0.0,
            },
            StrategySpec::Colluder {
                aggressiveness: 1.5,
            },
        ] {
            assert!(spec.validate().is_err(), "{spec:?} should be invalid");
        }
    }

    #[test]
    fn all_strategies_build_with_matching_names() {
        let specs = [
            StrategySpec::Crash,
            StrategySpec::Random { spread: 1.0 },
            StrategySpec::ConstantOffset { offset: -2.0 },
            StrategySpec::SplitBrain { magnitude: 3.0 },
            StrategySpec::Stealth { push: 0.5 },
            StrategySpec::Colluder {
                aggressiveness: 0.9,
            },
            StrategySpec::Flood,
        ];
        let names = [
            "crash",
            "random",
            "const-offset",
            "split-brain",
            "stealth",
            "colluder",
            "flood",
        ];
        for (spec, name) in specs.into_iter().zip(names) {
            spec.validate().unwrap();
            assert_eq!(spec.build().name(), name);
        }
    }

    #[test]
    fn plans_round_trip_through_json() {
        let p = plan();
        let json = serde_json::to_string(&p).unwrap();
        let back: AdversaryPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
