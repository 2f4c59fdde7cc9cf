//! Real-time loopback runtime: the same sans-IO
//! [`SyncNode`](byzclock_core::SyncNode) the deterministic simulator
//! drives, running over real UDP sockets on localhost.
//!
//! This crate is the second implementor of the
//! [`Driver`](byzclock_core::Driver) contract. Where the sim driver
//! executes protocol outputs against a modeled world (event queue, drifting
//! piecewise-linear clocks, faulty network), this one executes them for
//! real: sends become UDP datagrams carrying the length-prefixed frames of
//! [`byzclock_core::wire`] and timers become deadline entries in a
//! per-node thread. Clocks are the simulator's own
//! [`LogicalClock`](byzclock_clock::LogicalClock): each node's hardware
//! clock drifts at a constant rate within ρ, drawn as a simulated world
//! with the same seed draws it, over real time read from the machine's
//! monotonic clock; its adjustment starts at an injected initial offset
//! and takes the protocol's steps.
//!
//! The node calls either host through the same trait, in the same order,
//! so the protocol core cannot tell which world it lives in. The deterministic guarantees (chaos
//! campaigns, golden replays, loom schedules) attach to the sim driver
//! only; this runtime is inherently nondeterministic and exists to
//! demonstrate the very same state machine converging on real sockets
//! inside the paper's Theorem 5 envelope.
//!
//! ```no_run
//! use byzclock_live::{run, LiveConfig};
//!
//! let report = run(LiveConfig::quick(4, 1)).unwrap();
//! println!("{}", report.render());
//! assert!(report.converged());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runtime;

pub use runtime::{run, DeviationSample, LiveConfig, LiveError, LiveReport, NodeStats};
