//! Deterministic discrete-event simulation engine for the byzclock project.
//!
//! This crate is the lowest substrate of the reproduction of
//! *"Clock Synchronization with Faults and Recoveries"* (Barak, Halevi,
//! Herzberg, Naor — PODC 2000). The paper's analysis is carried out against
//! real time `τ`; this crate provides that real-time axis, an event queue
//! with fully deterministic tie-breaking, and labeled
//! deterministic random-number streams so that an entire simulation is a
//! pure function of its root seed.
//!
//! # Components
//!
//! * [`time`] — [`RealTime`] / [`SimDuration`] newtypes over `f64` seconds,
//!   with total ordering and checked arithmetic helpers.
//! * [`queue`] — [`EventQueue`], a priority queue with deterministic FIFO
//!   ordering of simultaneous events: a ring of 15 µs buckets takes the
//!   next ~62 ms of events in O(1), and a binary heap behind it takes the
//!   rest, in exactly the heap-only pop order. It has no cancellation: a
//!   layer that supersedes events drops them when they pop.
//! * [`engine`] — [`Engine`], which owns the queue and the current
//!   simulation time and drives event dispatch.
//! * [`rng`] — [`RngHub`] / [`DetRng`], deterministic seeded RNG streams
//!   forked by label so components cannot perturb each other's randomness.
//! * [`pool`] — order-preserving scoped-thread fan-out for running many
//!   independent seeds/scenarios at once with bit-identical results.
//!
//! # Example
//!
//! ```
//! use byzclock_sim::{Engine, RealTime, SimDuration};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_after(SimDuration::from_secs(2.0), "world");
//! engine.schedule_after(SimDuration::from_secs(1.0), "hello");
//! let deadline = RealTime::from_secs(10.0);
//! let (t1, e1) = engine.pop_until(deadline).unwrap();
//! let (t2, e2) = engine.pop_until(deadline).unwrap();
//! assert_eq!((e1, e2), ("hello", "world"));
//! assert_eq!(t1, RealTime::from_secs(1.0));
//! assert_eq!(t2, RealTime::from_secs(2.0));
//! // nothing left before the deadline: time advances to it
//! assert!(engine.pop_until(deadline).is_none());
//! assert_eq!(engine.now(), deadline);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod ids;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::Engine;
pub use ids::ProcId;
pub use pool::{default_workers, par_map, par_map_auto};
pub use queue::{EventId, EventQueue};
pub use rng::{DetRng, RngHub};
pub use time::{RealTime, SimDuration};
