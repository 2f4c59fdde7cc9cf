//! # byzclock
//!
//! A complete, from-scratch reproduction of **"Clock Synchronization with
//! Faults and Recoveries"** (Barak, Halevi, Herzberg, Naor — PODC 2000):
//! the convergence-function clock synchronization protocol that tolerates
//! an *unbounded* number of Byzantine faults over a system's lifetime, as
//! long as at most `f` processors (of `n ≥ 3f+1`) are controlled by the
//! adversary within any window of length `Δ` — including full recovery of
//! processors the adversary leaves, with no failure/recovery detection.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event engine, time types, RNG streams |
//! | [`clock`] | hardware clocks with bounded drift, logical clocks, biases |
//! | [`net`] | topologies, bounded-delay models, authenticated links |
//! | [`adversary`] | f-limited mobile Byzantine adversary and attack strategies |
//! | [`core`] | **the paper's protocol**: `SyncNode`, convergence functions, Theorem 5 bounds, the `Driver` host contract, the wire codec |
//! | [`runtime`] | the `World` binding everything, with observer hooks (the sim driver) |
//! | [`live`] | real-time UDP loopback runtime (the live driver); `byzclock live` CLI |
//! | [`harness`] | metrics, experiment suite E1–E21, tables/series |
//!
//! ## Quickstart
//!
//! ```
//! use byzclock::prelude::*;
//!
//! // 7 processors, up to 2 Byzantine per Delta-window, delta = 10 ms.
//! let mut world = WorldBuilder::new(7, 2)
//!     .seed(1)
//!     .delta(SimDuration::from_millis(10.0))
//!     .big_delta(SimDuration::from_secs(60.0))
//!     .initial_bias_spread(0.05)
//!     .build()?;
//! world.run_until(RealTime::from_secs(120.0));
//!
//! let sample = world.sample_now();
//! let gamma = world.bounds().unwrap().gamma;
//! assert!(sample.good_deviation().unwrap() <= gamma);
//! # Ok::<(), byzclock::runtime::BuildError>(())
//! ```
//!
//! See `examples/` for the paper's motivating scenarios (proactive
//! security, attacks, the two-cliques counterexample) and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology and results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Deterministic discrete-event simulation engine.
pub use byzclock_sim as sim;

/// Clock models (hardware drift, logical clocks, biases).
pub use byzclock_clock as clock;

/// Network substrate (topologies, delays, authenticated links).
pub use byzclock_net as net;

/// The mobile Byzantine adversary.
pub use byzclock_adversary as adversary;

/// The paper's protocol, its host contract and its wire codec.
pub use byzclock_core as core;

/// The simulation world runtime.
pub use byzclock_runtime as runtime;

/// The real-time UDP loopback runtime.
pub use byzclock_live as live;

/// Metrics and the experiment suite.
pub use byzclock_harness as harness;

/// The most common imports in one place.
pub mod prelude {
    pub use byzclock_adversary::{
        Adversary, ByzantineStrategy, ColluderStrategy, ConstantOffsetStrategy, CorruptionSchedule,
        CrashStrategy, RandomReplyStrategy, SplitBrainStrategy,
    };
    pub use byzclock_clock::{Bias, LocalTime};
    pub use byzclock_core::{
        ConvergenceFn, NetworkModel, PaperSync, ProtocolParams, SyncNode, TheoremBounds,
    };
    pub use byzclock_harness::RunLog;
    pub use byzclock_net::Topology;
    pub use byzclock_runtime::{DriftSpec, InitialBias, World, WorldBuilder};
    pub use byzclock_sim::{ProcId, RealTime, SimDuration};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compile_and_work() {
        let params = ProtocolParams::builder(4, 1).build().unwrap();
        assert_eq!(params.n(), 4);
        let world = WorldBuilder::new(4, 1).build().unwrap();
        assert_eq!(world.n(), 4);
    }
}
