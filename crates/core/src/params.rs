//! Protocol parameters and their validity constraints (paper Section 3.2).
//!
//! The protocol itself only needs four numbers besides `n` and `f`:
//!
//! * `SyncInt` — local time between two sync executions;
//! * `MaxWait` — the estimation timeout (`≥ 2δ` so an honest round trip
//!   always fits);
//! * `WayOff` — the own-clock plausibility bound (`≥ γ + Λ`);
//!
//! with the constraints `SyncInt ≥ 2·MaxWait` and `n ≥ 3f + 1`. A key
//! practical property the paper stresses (Section 3.3, "Known values"):
//! these may *overestimate* the true network values by multiplicative
//! factors without breaking correctness, so deployments don't need exact
//! knowledge of δ or ρ.

use byzclock_sim::SimDuration;
use std::fmt;

/// Why a parameter set is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// `n < 3f + 1` — the resilience bound of the paper.
    TooFewProcessors {
        /// configured number of processors
        n: usize,
        /// configured fault bound
        f: usize,
    },
    /// `SyncInt < 2·MaxWait` — rounds would overlap.
    SyncIntervalTooShort,
    /// `MaxWait` must be positive.
    NonPositiveMaxWait,
    /// `WayOff` must be positive and finite.
    InvalidWayOff,
    /// `pings_per_peer` must be between 1 and 64.
    InvalidPingCount,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::TooFewProcessors { n, f: fb } => {
                write!(f, "n = {n} violates n >= 3f+1 for f = {fb}")
            }
            ParamError::SyncIntervalTooShort => {
                write!(f, "SyncInt must be at least 2 * MaxWait")
            }
            ParamError::NonPositiveMaxWait => write!(f, "MaxWait must be positive"),
            ParamError::InvalidWayOff => write!(f, "WayOff must be positive and finite"),
            ParamError::InvalidPingCount => {
                write!(f, "pings_per_peer must be between 1 and 64")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Validated parameters for one `Sync` node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolParams {
    n: usize,
    f: usize,
    sync_int: SimDuration,
    max_wait: SimDuration,
    way_off: f64,
    pings_per_peer: usize,
}

impl ProtocolParams {
    /// Starts a builder for `n` processors tolerating `f` concurrent faults.
    pub fn builder(n: usize, f: usize) -> ProtocolParamsBuilder {
        ProtocolParamsBuilder {
            n,
            f,
            sync_int: None,
            max_wait: None,
            way_off: None,
            pings_per_peer: 1,
        }
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault bound `f` (per Δ window).
    pub fn f(&self) -> usize {
        self.f
    }

    /// Local time between sync executions.
    pub fn sync_int(&self) -> SimDuration {
        self.sync_int
    }

    /// Estimation timeout (local time).
    pub fn max_wait(&self) -> SimDuration {
        self.max_wait
    }

    /// The plausibility bound `WayOff`, seconds.
    pub fn way_off(&self) -> f64 {
        self.way_off
    }

    /// Number of pings sent to each peer per sync round (Section 3.1's
    /// min-round-trip refinement; 1 = the plain protocol).
    pub fn pings_per_peer(&self) -> usize {
        self.pings_per_peer
    }
}

/// Builder for [`ProtocolParams`].
#[derive(Debug, Clone)]
pub struct ProtocolParamsBuilder {
    n: usize,
    f: usize,
    sync_int: Option<SimDuration>,
    max_wait: Option<SimDuration>,
    way_off: Option<f64>,
    pings_per_peer: usize,
}

impl ProtocolParamsBuilder {
    /// Sets the local time between sync executions.
    pub fn sync_int(mut self, v: SimDuration) -> Self {
        self.sync_int = Some(v);
        self
    }

    /// Sets the estimation timeout.
    pub fn max_wait(mut self, v: SimDuration) -> Self {
        self.max_wait = Some(v);
        self
    }

    /// Sets the `WayOff` plausibility bound, in seconds.
    pub fn way_off(mut self, v: f64) -> Self {
        self.way_off = Some(v);
        self
    }

    /// Sets the number of pings per peer per round (min-RTT filtering).
    pub fn pings_per_peer(mut self, k: usize) -> Self {
        self.pings_per_peer = k;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint; see [`ParamError`].
    pub fn build(self) -> Result<ProtocolParams, ParamError> {
        let p = self.assemble()?;
        if p.n < 3 * p.f + 1 {
            return Err(ParamError::TooFewProcessors { n: p.n, f: p.f });
        }
        Ok(p)
    }

    /// Builds while *skipping* the `n ≥ 3f+1` check — used by the
    /// resilience-threshold experiment (E5), which deliberately runs the
    /// protocol outside its guaranteed region.
    ///
    /// # Errors
    ///
    /// All other constraints are still enforced.
    pub fn build_unchecked_resilience(self) -> Result<ProtocolParams, ParamError> {
        self.assemble()
    }

    fn assemble(self) -> Result<ProtocolParams, ParamError> {
        let max_wait = self.max_wait.unwrap_or(SimDuration::from_millis(100.0));
        if max_wait <= SimDuration::ZERO {
            return Err(ParamError::NonPositiveMaxWait);
        }
        let sync_int = self.sync_int.unwrap_or(max_wait * 4.0);
        if sync_int < max_wait * 2.0 {
            return Err(ParamError::SyncIntervalTooShort);
        }
        let way_off = self.way_off.unwrap_or(f64::INFINITY);
        if way_off <= 0.0 || way_off.is_nan() {
            return Err(ParamError::InvalidWayOff);
        }
        if !(1..=64).contains(&self.pings_per_peer) {
            return Err(ParamError::InvalidPingCount);
        }
        Ok(ProtocolParams {
            n: self.n,
            f: self.f,
            sync_int,
            max_wait,
            way_off,
            pings_per_peer: self.pings_per_peer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn builds_valid_params() {
        let p = ProtocolParams::builder(7, 2)
            .sync_int(d(10.0))
            .max_wait(d(1.0))
            .way_off(3.0)
            .build()
            .unwrap();
        assert_eq!(p.n(), 7);
        assert_eq!(p.f(), 2);
        assert_eq!(p.sync_int(), d(10.0));
        assert_eq!(p.max_wait(), d(1.0));
        assert_eq!(p.way_off(), 3.0);
    }

    #[test]
    fn rejects_too_few_processors() {
        let err = ProtocolParams::builder(6, 2)
            .sync_int(d(10.0))
            .max_wait(d(1.0))
            .way_off(1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamError::TooFewProcessors { n: 6, f: 2 });
        assert!(format!("{err}").contains("3f+1"));
    }

    #[test]
    fn boundary_n_equals_3f_plus_1_is_accepted() {
        assert!(ProtocolParams::builder(7, 2)
            .sync_int(d(10.0))
            .max_wait(d(1.0))
            .way_off(1.0)
            .build()
            .is_ok());
    }

    #[test]
    fn unchecked_resilience_allows_n_3f() {
        let p = ProtocolParams::builder(6, 2)
            .sync_int(d(10.0))
            .max_wait(d(1.0))
            .way_off(1.0)
            .build_unchecked_resilience()
            .unwrap();
        assert_eq!(p.n(), 6);
    }

    #[test]
    fn rejects_short_sync_interval() {
        let err = ProtocolParams::builder(4, 1)
            .sync_int(d(1.0))
            .max_wait(d(1.0))
            .way_off(1.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamError::SyncIntervalTooShort);
    }

    #[test]
    fn boundary_sync_int_exactly_twice_max_wait_ok() {
        assert!(ProtocolParams::builder(4, 1)
            .sync_int(d(2.0))
            .max_wait(d(1.0))
            .way_off(1.0)
            .build()
            .is_ok());
    }

    #[test]
    fn rejects_non_positive_max_wait() {
        let err = ProtocolParams::builder(4, 1)
            .max_wait(SimDuration::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamError::NonPositiveMaxWait);
    }

    #[test]
    fn rejects_bad_way_off() {
        let err = ProtocolParams::builder(4, 1)
            .sync_int(d(4.0))
            .max_wait(d(1.0))
            .way_off(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamError::InvalidWayOff);
        let err = ProtocolParams::builder(4, 1)
            .sync_int(d(4.0))
            .max_wait(d(1.0))
            .way_off(-2.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ParamError::InvalidWayOff);
    }

    #[test]
    fn infinite_way_off_is_allowed() {
        // "WayOff = ∞" disables the recovery jump — used in the E9 ablation.
        let p = ProtocolParams::builder(4, 1)
            .sync_int(d(4.0))
            .max_wait(d(1.0))
            .way_off(f64::INFINITY)
            .build()
            .unwrap();
        assert!(p.way_off().is_infinite());
    }

    #[test]
    fn defaults_are_consistent() {
        let p = ProtocolParams::builder(4, 1).build().unwrap();
        assert!(p.sync_int() >= p.max_wait() * 2.0);
    }

    #[test]
    fn ping_count_validated() {
        assert_eq!(
            ProtocolParams::builder(4, 1)
                .pings_per_peer(0)
                .build()
                .unwrap_err(),
            ParamError::InvalidPingCount
        );
        assert_eq!(
            ProtocolParams::builder(4, 1)
                .pings_per_peer(65)
                .build()
                .unwrap_err(),
            ParamError::InvalidPingCount
        );
        let p = ProtocolParams::builder(4, 1)
            .pings_per_peer(8)
            .build()
            .unwrap();
        assert_eq!(p.pings_per_peer(), 8);
        // default is 1
        assert_eq!(
            ProtocolParams::builder(4, 1)
                .build()
                .unwrap()
                .pings_per_peer(),
            1
        );
    }

    #[test]
    fn f_zero_is_valid() {
        // No faults tolerated — degenerates to plain averaging of all.
        let p = ProtocolParams::builder(1, 0).build().unwrap();
        assert_eq!(p.f(), 0);
    }
}
