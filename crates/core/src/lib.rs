//! The paper's primary contribution: the `Sync` clock synchronization
//! protocol of Barak, Halevi, Herzberg and Naor (PODC 2000) and its
//! Theorem 5 bounds. The crate holds Figure 1 and the seam that plugs a
//! convergence function into it; what only one experiment needs (E7's
//! comparison controls, the checks of Lemma 7 and Claim 8 against measured
//! runs) lives in the experiment harness.
//!
//! # Layout
//!
//! * [`params`] — protocol parameters (`SyncInt`, `MaxWait`, `WayOff`,
//!   `n`, `f`) and their validity constraints.
//! * [`bounds`] — the network model (δ, ρ, Λ, Δ) and the Theorem 5 bound
//!   calculator (`T`, `K`, `C`, γ, ρ̃, ψ) with the parameter-derivation
//!   recipe from the paper's Section 3.2 / Appendix A.
//! * [`estimate`] — the ping/pong clock-estimation arithmetic of
//!   Section 3.1 (`d = C − (R+S)/2`, `a = (R−S)/2`) and the min-round-trip
//!   filter used by NTP-style refinement.
//! * [`convergence`] — the paper's convergence function (Figure 1) and the
//!   [`ConvergenceFn`] seam other functions plug into. A function borrows
//!   its working storage from the host's [`ConvergenceScratch`], whose
//!   buffers any implementor, in this crate or outside it, may use.
//! * [`node`] — the sans-IO `Sync` protocol state machine: feed it inputs
//!   (timers, messages) stamped with local clock readings; it emits outputs
//!   (sends, timers, clock adjustments). No IO, no simulator dependency —
//!   fully unit-testable and embeddable. It holds only Figure 1's state.
//!   Next to the outputs sits the host contract: the [`Driver`] trait, one
//!   method per output, and [`apply_outputs`], which maps one to the other.
//! * [`wire`] — the ping/pong messages and their length-prefixed binary
//!   frame codec for real-socket hosts.
//! * [`cached`] — the cached-estimation variant Section 3.1 warns about,
//!   composed around a node and converging over that node's own per-peer
//!   slots (experiment E19).
//!
//! # Quick taste (pure state machine)
//!
//! ```
//! use byzclock_core::node::{Input, Output, RoundScratch, SyncNode};
//! use byzclock_core::params::ProtocolParams;
//! use byzclock_clock::LocalTime;
//! use byzclock_sim::{ProcId, SimDuration};
//!
//! let params = ProtocolParams::builder(4, 1)
//!     .sync_int(SimDuration::from_secs(10.0))
//!     .max_wait(SimDuration::from_secs(1.0))
//!     .way_off(5.0)
//!     .build()
//!     .unwrap();
//! let mut node = SyncNode::new(ProcId(0), params);
//! // The host owns the output buffer and the round-completion scratch.
//! let mut scratch = RoundScratch::with_capacity(4);
//! let mut outputs = Vec::new();
//! node.handle_into(Input::Start { local_now: LocalTime::ZERO }, &mut scratch, &mut outputs);
//! // The node immediately begins a sync round: 3 pings + a round timeout.
//! let pings = outputs.iter().filter(|o| matches!(o, Output::Send { .. })).count();
//! assert_eq!(pings, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod cached;
pub mod convergence;
pub mod estimate;
pub mod node;
pub mod params;
pub mod wire;

pub use bounds::{BoundsError, Derived, NetworkModel, TheoremBounds};
pub use cached::CachedSync;
pub use convergence::{ConvergenceFn, ConvergenceScratch, PaperSync, PeerEstimate};
pub use estimate::OffsetSample;
pub use node::{
    apply_outputs, Driver, Input, Output, RoundScratch, RoundSummary, SyncNode, TimerKind,
};
pub use params::{ParamError, ProtocolParams};
pub use wire::WireMessage;
