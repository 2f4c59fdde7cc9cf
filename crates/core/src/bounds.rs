//! The network model and the Theorem 5 bound calculator.
//!
//! Inputs (the paper's model constants):
//!
//! * `δ` (`delta`) — message delivery bound,
//! * `ρ` (`rho`) — hardware drift bound,
//! * `Λ` (`lambda`) — clock-reading error of the estimation procedure
//!   (for the Section 3.1 ping/pong over links with delay ≤ δ, `Λ ≈ δ`),
//! * `Δ` (`big_delta`) — the adversary's time period (Definition 2).
//!
//! Derived (Section 3.2, Section 4, Appendix A):
//!
//! ```text
//! MaxWait = 2δ
//! T       = (1+ρ)·SyncInt + 2·MaxWait     (we *choose* T = Δ/K and solve for SyncInt)
//! K       = ⌊Δ/T⌋                          (required K ≥ 5)
//! C       = (17Λ + 18ρT) / 2^(K−3)
//! D       = 8Λ + 8ρT + 2C
//! γ       = 2D + 2ρT = 16Λ + 18ρT + 4C    (Theorem 5(i) max deviation)
//! ρ̃       = ρ + C/(2T)                    (Theorem 5(ii) logical drift)
//! ψ       = Λ + C/2                       (Theorem 5(ii) discontinuity)
//! WayOff  = γ + Λ                          (Appendix A.2)
//! ```
//!
//! **Formula-reading note.** The extended abstract typesets `C` as
//! `17Λ+18ρT / 2K−3`; the intro states the accuracy penalty is `O(2^−K)`
//! and requires `K ≥ 5`, so the denominator must be `2^(K−3)` (the reading
//! `2K−3` would be `O(1/K)`). See DESIGN.md §1.

use byzclock_sim::SimDuration;
use std::fmt;

use crate::params::{ParamError, ProtocolParams};

/// The model constants of the paper's network.
///
/// ```
/// use byzclock_core::NetworkModel;
/// use byzclock_sim::SimDuration;
///
/// let model = NetworkModel {
///     delta: SimDuration::from_millis(10.0),
///     rho: 1e-5,
///     lambda: NetworkModel::natural_lambda(SimDuration::from_millis(10.0), 1e-5),
///     big_delta: SimDuration::from_secs(600.0),
/// };
/// let derived = model.derive(10, 3, 8).unwrap();
/// assert!(derived.bounds.gamma > 16.0 * model.lambda); // γ above its floor
/// assert_eq!(derived.params.max_wait(), model.delta * 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Message delivery bound δ, real seconds.
    pub delta: SimDuration,
    /// Hardware drift bound ρ (dimensionless, e.g. `1e-6`).
    pub rho: f64,
    /// Clock-reading error Λ of the estimation procedure, seconds.
    pub lambda: f64,
    /// The adversary time period Δ (Definition 2), real seconds.
    pub big_delta: SimDuration,
}

/// Why a model/K combination cannot be instantiated.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundsError {
    /// `K < 5` — Theorem 5 requires at least five sync intervals per Δ.
    KTooSmall(u32),
    /// Δ is too short to fit `K` intervals of at least `(2+ρ)·2·MaxWait`.
    PeriodTooShort {
        /// minimal Δ that would work for this K, seconds
        required_secs: f64,
    },
    /// A model constant is non-positive / non-finite.
    InvalidModel(&'static str),
    /// The derived protocol parameters failed validation.
    Param(ParamError),
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsError::KTooSmall(k) => write!(f, "K = {k} but Theorem 5 requires K >= 5"),
            BoundsError::PeriodTooShort { required_secs } => {
                write!(f, "big_delta too short; need at least {required_secs} s")
            }
            BoundsError::InvalidModel(what) => write!(f, "invalid network model: {what}"),
            BoundsError::Param(e) => write!(f, "derived parameters invalid: {e}"),
        }
    }
}

impl std::error::Error for BoundsError {}

impl From<ParamError> for BoundsError {
    fn from(e: ParamError) -> Self {
        BoundsError::Param(e)
    }
}

/// The quantitative guarantees of Theorem 5 for a concrete configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoremBounds {
    /// The interval length `T = (1+ρ)·SyncInt + 2·MaxWait`, real seconds.
    pub t: SimDuration,
    /// `K = ⌊Δ/T⌋`.
    pub k: u32,
    /// The contraction residue `C = (17Λ + 18ρT)/2^(K−3)`, seconds.
    pub c: f64,
    /// Lemma 7 envelope half-width `D = 8Λ + 8ρT + 2C`, seconds.
    pub d: f64,
    /// Theorem 5(i): maximum deviation `γ = 16Λ + 18ρT + 4C`, seconds.
    pub gamma: f64,
    /// Theorem 5(ii): maximum logical drift `ρ̃ = ρ + C/(2T)`.
    pub logical_drift: f64,
    /// Theorem 5(ii): maximum discontinuity `ψ = Λ + C/2`, seconds.
    pub discontinuity: f64,
    /// The derived `WayOff = γ + Λ`, seconds.
    pub way_off: f64,
}

impl NetworkModel {
    /// Validates the model constants.
    ///
    /// # Errors
    ///
    /// [`BoundsError::InvalidModel`] naming the offending constant.
    pub fn validate(&self) -> Result<(), BoundsError> {
        if self.delta <= SimDuration::ZERO || !self.delta.is_finite() {
            return Err(BoundsError::InvalidModel("delta must be positive finite"));
        }
        if self.rho < 0.0 || !self.rho.is_finite() {
            return Err(BoundsError::InvalidModel("rho must be >= 0 and finite"));
        }
        if self.lambda <= 0.0 || !self.lambda.is_finite() {
            return Err(BoundsError::InvalidModel("lambda must be positive finite"));
        }
        if self.big_delta <= SimDuration::ZERO || !self.big_delta.is_finite() {
            return Err(BoundsError::InvalidModel(
                "big_delta must be positive finite",
            ));
        }
        Ok(())
    }

    /// The natural reading error of the Section 3.1 ping/pong estimator:
    /// half the worst-case round trip, `Λ = δ·(1+ρ)` (the requester's clock
    /// may run fast while it waits).
    pub fn natural_lambda(delta: SimDuration, rho: f64) -> f64 {
        delta.as_secs() * (1.0 + rho)
    }

    /// Computes the Theorem 5 bounds for a *given* `T` (without deriving
    /// protocol parameters).
    ///
    /// # Errors
    ///
    /// Fails if the model is invalid or `K = ⌊Δ/T⌋ < 5`.
    pub fn bounds_for_t(&self, t: SimDuration) -> Result<TheoremBounds, BoundsError> {
        self.validate()?;
        let k = (self.big_delta / t).floor() as u32;
        if k < 5 {
            return Err(BoundsError::KTooSmall(k));
        }
        let rho_t = self.rho * t.as_secs();
        let c = (17.0 * self.lambda + 18.0 * rho_t) / 2f64.powi(k as i32 - 3);
        let d = 8.0 * self.lambda + 8.0 * rho_t + 2.0 * c;
        let gamma = 16.0 * self.lambda + 18.0 * rho_t + 4.0 * c;
        debug_assert!(
            (gamma - (2.0 * d + 2.0 * rho_t)).abs() <= 1e-9 * gamma.max(1.0),
            "Theorem 5 and Appendix A.3 forms of gamma must agree"
        );
        Ok(TheoremBounds {
            t,
            k,
            c,
            d,
            gamma,
            logical_drift: self.rho + c / (2.0 * t.as_secs()),
            discontinuity: self.lambda + c / 2.0,
            way_off: gamma + self.lambda,
        })
    }

    /// Derives full protocol parameters and bounds for a chosen `K`
    /// (number of sync intervals per Δ): sets `T = Δ/K`,
    /// `MaxWait = 2δ`, and `SyncInt = (T − 2·MaxWait)/(1+ρ)`.
    ///
    /// # Errors
    ///
    /// Fails if `K < 5`, the model is invalid, or Δ is too short to fit
    /// `K` intervals respecting `SyncInt ≥ 2·MaxWait`.
    pub fn derive(&self, n: usize, f: usize, k: u32) -> Result<Derived, BoundsError> {
        let derived = self.derive_unchecked_resilience(n, f, k)?;
        if n < 3 * f + 1 {
            return Err(ParamError::TooFewProcessors { n, f }.into());
        }
        Ok(derived)
    }

    /// Like [`NetworkModel::derive`] but skips the `n ≥ 3f+1` check for the
    /// resilience-threshold experiment.
    ///
    /// # Errors
    ///
    /// Same as [`NetworkModel::derive`] except the resilience check.
    pub fn derive_unchecked_resilience(
        &self,
        n: usize,
        f: usize,
        k: u32,
    ) -> Result<Derived, BoundsError> {
        self.validate()?;
        if k < 5 {
            return Err(BoundsError::KTooSmall(k));
        }
        let t = self.big_delta / (k as f64);
        let max_wait = self.delta * 2.0;
        let sync_int = (t - max_wait * 2.0) / (1.0 + self.rho);
        if sync_int < max_wait * 2.0 {
            // minimal T: (1+rho)*2*MaxWait + 2*MaxWait
            let min_t = max_wait.as_secs() * (2.0 * (1.0 + self.rho) + 2.0);
            return Err(BoundsError::PeriodTooShort {
                required_secs: min_t * k as f64,
            });
        }
        let bounds = self.bounds_for_t(t)?;
        let params = ProtocolParams::builder(n, f)
            .sync_int(sync_int)
            .max_wait(max_wait)
            .way_off(bounds.way_off)
            .build_unchecked_resilience()?;
        Ok(Derived { params, bounds })
    }
}

/// A derived configuration: validated parameters plus their guarantees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derived {
    /// Protocol parameters to run with.
    pub params: ProtocolParams,
    /// The guarantees Theorem 5 promises for them.
    pub bounds: TheoremBounds,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NetworkModel {
        NetworkModel {
            delta: SimDuration::from_millis(10.0),
            rho: 1e-5,
            lambda: 0.010,
            big_delta: SimDuration::from_secs(600.0),
        }
    }

    #[test]
    fn bounds_formulas_match_paper() {
        let m = model();
        let t = SimDuration::from_secs(60.0); // K = 10
        let b = m.bounds_for_t(t).unwrap();
        assert_eq!(b.k, 10);
        let rho_t = 1e-5 * 60.0;
        let c = (17.0 * 0.010 + 18.0 * rho_t) / 2f64.powi(7);
        assert!((b.c - c).abs() < 1e-12);
        assert!((b.gamma - (16.0 * 0.010 + 18.0 * rho_t + 4.0 * c)).abs() < 1e-12);
        assert!((b.d - (8.0 * 0.010 + 8.0 * rho_t + 2.0 * c)).abs() < 1e-12);
        assert!((b.logical_drift - (1e-5 + c / 120.0)).abs() < 1e-15);
        assert!((b.discontinuity - (0.010 + c / 2.0)).abs() < 1e-12);
        assert!((b.way_off - (b.gamma + 0.010)).abs() < 1e-12);
    }

    #[test]
    fn gamma_forms_agree() {
        // Theorem 5 form (16Λ+18ρT+4C) equals A.3 form (2D+2ρT).
        let b = model().bounds_for_t(SimDuration::from_secs(100.0)).unwrap();
        let rho_t = 1e-5 * 100.0;
        assert!((b.gamma - (2.0 * b.d + 2.0 * rho_t)).abs() < 1e-12);
    }

    #[test]
    fn k_less_than_5_rejected() {
        let m = model();
        let err = m.bounds_for_t(SimDuration::from_secs(200.0)).unwrap_err();
        assert_eq!(err, BoundsError::KTooSmall(3));
        assert!(m.derive(10, 3, 4).is_err());
    }

    #[test]
    fn c_halves_with_each_extra_k_roughly() {
        let m = model();
        let b5 = m.bounds_for_t(m.big_delta / 5.0).unwrap();
        let b6 = m.bounds_for_t(m.big_delta / 6.0).unwrap();
        // K 5 -> 6 halves the 2^(K-3) denominator; numerator shrinks too
        // (smaller T), so C must drop by more than half... at least by half
        // modulo the ρT term.
        assert!(b6.c < b5.c * 0.6, "C should shrink quickly with K");
    }

    #[test]
    fn accuracy_approaches_rho_as_k_grows() {
        let m = model();
        let b20 = m.bounds_for_t(m.big_delta / 20.0).unwrap();
        assert!(b20.logical_drift - m.rho < 1e-6);
        let b5 = m.bounds_for_t(m.big_delta / 5.0).unwrap();
        assert!(b5.logical_drift > b20.logical_drift);
    }

    #[test]
    fn derive_produces_consistent_t() {
        let m = model();
        let d = m.derive(10, 3, 8).unwrap();
        // T = (1+rho)*SyncInt + 2*MaxWait must equal big_delta / K
        let t = (1.0 + m.rho) * d.params.sync_int().as_secs() + 2.0 * d.params.max_wait().as_secs();
        assert!((t - m.big_delta.as_secs() / 8.0).abs() < 1e-9);
        assert_eq!(d.bounds.k, 8);
        assert_eq!(d.params.max_wait(), m.delta * 2.0);
        assert!((d.params.way_off() - d.bounds.way_off).abs() < 1e-12);
    }

    #[test]
    fn derive_rejects_too_short_period() {
        let m = NetworkModel {
            delta: SimDuration::from_secs(1.0),
            rho: 1e-5,
            lambda: 1.0,
            big_delta: SimDuration::from_secs(30.0), // K=5 -> T=6 < 8+ε needed
        };
        match m.derive(4, 1, 5).unwrap_err() {
            BoundsError::PeriodTooShort { required_secs } => {
                assert!(required_secs > 30.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn derive_enforces_resilience_but_unchecked_does_not() {
        let m = model();
        assert!(matches!(
            m.derive(9, 3, 8).unwrap_err(),
            BoundsError::Param(ParamError::TooFewProcessors { .. })
        ));
        assert!(m.derive_unchecked_resilience(9, 3, 8).is_ok());
    }

    #[test]
    fn invalid_models_rejected() {
        let mut m = model();
        m.rho = -1.0;
        assert!(matches!(
            m.validate().unwrap_err(),
            BoundsError::InvalidModel(_)
        ));
        let mut m2 = model();
        m2.delta = SimDuration::ZERO;
        assert!(m2.validate().is_err());
        let mut m3 = model();
        m3.lambda = 0.0;
        assert!(m3.validate().is_err());
        let mut m4 = model();
        m4.big_delta = SimDuration::from_secs(f64::INFINITY);
        assert!(m4.validate().is_err());
    }

    #[test]
    fn natural_lambda_matches_ping_pong_worst_case() {
        let l = NetworkModel::natural_lambda(SimDuration::from_millis(10.0), 1e-4);
        assert!((l - 0.010001).abs() < 1e-9);
    }

    #[test]
    fn gamma_exceeds_16_lambda() {
        // The paper notes γ > 16Λ always.
        let b = model().bounds_for_t(SimDuration::from_secs(60.0)).unwrap();
        assert!(b.gamma > 16.0 * model().lambda);
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", BoundsError::KTooSmall(2)).contains("K >= 5"));
        assert!(format!("{}", BoundsError::PeriodTooShort { required_secs: 9.0 }).contains("9"));
    }
}
