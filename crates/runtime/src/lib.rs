//! Simulation runtime: the [`World`] that executes the paper's model.
//!
//! The runtime wires together the five substrates:
//!
//! * the discrete-event [`Engine`](byzclock_sim::Engine) (real-time axis),
//! * per-processor [`LogicalClock`](byzclock_clock::LogicalClock)s with
//!   drifting hardware rates,
//! * the [`Network`](byzclock_net::Network) (bounded-delay authenticated
//!   links),
//! * the [`Adversary`](byzclock_adversary::Adversary) (mobile Byzantine
//!   corruptions), and
//! * one sans-IO [`SyncNode`](byzclock_core::SyncNode) per processor.
//!
//! The [`World`] holds the deterministic implementor of core's
//! [`Driver`](byzclock_core::Driver) contract ([`sim_driver`]) beside its
//! nodes: a node carries out every effect by calling that driver while it
//! handles an input, with no buffer in between.
//!
//! Local-time alarms are converted to real-time events *exactly* using the
//! piecewise-linear hardware clocks, and are recomputed whenever the drift
//! walk changes a clock's rate — so the simulation is faithful to the
//! model even under time-varying drift.
//!
//! # Example
//!
//! ```
//! use byzclock_runtime::WorldBuilder;
//! use byzclock_sim::{RealTime, SimDuration};
//!
//! let mut world = WorldBuilder::new(4, 1)
//!     .seed(7)
//!     .delta(SimDuration::from_millis(10.0))
//!     .initial_bias_spread(0.05)
//!     .build()
//!     .unwrap();
//! world.run_until(RealTime::from_secs(60.0));
//! let sample = world.sample_now();
//! // all four clocks are within the paper's deviation bound of each other
//! assert!(sample.good_deviation().unwrap() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod events;
pub mod observer;
pub mod sim_driver;
pub mod world;

pub use builder::{BuildError, Discipline, DriftSpec, InitialBias, LinkOutage, WorldBuilder};
pub use events::SimEvent;
pub use observer::{Observer, WorldSample};
pub use world::World;
