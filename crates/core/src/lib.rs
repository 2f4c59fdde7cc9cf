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
//!   (timers, messages) stamped with local clock readings; it carries out
//!   its effects (sends, timers, clock adjustments, round reports) by
//!   calling its host's [`Driver`], in Figure 1's order. No IO, no
//!   simulator dependency — fully unit-testable and embeddable. It holds
//!   only Figure 1's state.
//! * [`wire`] — the ping/pong messages and their length-prefixed binary
//!   frame codec for real-socket hosts.
//! * [`cached`] — the cached-estimation variant Section 3.1 warns about,
//!   composed around a node and converging over that node's own per-peer
//!   slots (experiment E19).
//!
//! # Quick taste (pure state machine)
//!
//! ```
//! use byzclock_core::node::{Driver, Input, RoundScratch, RoundSummary, SyncNode, TimerKind};
//! use byzclock_core::params::ProtocolParams;
//! use byzclock_core::WireMessage;
//! use byzclock_clock::LocalTime;
//! use byzclock_sim::{ProcId, SimDuration};
//!
//! /// A host that only records what the node asks of it.
//! #[derive(Default)]
//! struct Recorder {
//!     calls: Vec<String>,
//! }
//!
//! impl Driver for Recorder {
//!     fn send(&mut self, from: ProcId, to: ProcId, _msg: WireMessage) {
//!         self.calls.push(format!("send {from}->{to}"));
//!     }
//!     fn set_timer(&mut self, _node: ProcId, after: SimDuration, kind: TimerKind) {
//!         self.calls.push(format!("{kind:?} in {after}"));
//!     }
//!     fn adjust_clock(&mut self, _node: ProcId, delta: SimDuration) {
//!         self.calls.push(format!("adjust {delta}"));
//!     }
//!     fn round_completed(&mut self, _node: ProcId, summary: &RoundSummary) {
//!         self.calls.push(format!("round {}", summary.round));
//!     }
//! }
//!
//! let params = ProtocolParams::builder(4, 1)
//!     .sync_int(SimDuration::from_secs(10.0))
//!     .max_wait(SimDuration::from_secs(1.0))
//!     .way_off(5.0)
//!     .build()
//!     .unwrap();
//! let mut node = SyncNode::new(ProcId(0), params);
//! // The host lends the round-completion scratch and receives the effects.
//! let mut scratch = RoundScratch::with_capacity(4);
//! let mut host = Recorder::default();
//! node.handle_into(Input::Start { local_now: LocalTime::ZERO }, &mut scratch, &mut host);
//! // The node immediately begins a sync round: 3 pings, then a round timeout.
//! assert_eq!(host.calls[..3], ["send p0->p1", "send p0->p2", "send p0->p3"]);
//! assert!(host.calls[3].starts_with("RoundTimeout { round: 1 }"));
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
pub use node::{Driver, Input, RoundScratch, RoundSummary, SyncNode, TimerKind};
pub use params::{ParamError, ProtocolParams};
pub use wire::WireMessage;
