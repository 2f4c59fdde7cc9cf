//! Network substrate for the byzclock reproduction.
//!
//! Models the paper's communication assumptions (Section 2.2):
//!
//! * **Reliable, authenticated links** between non-faulty processors: a
//!   message sent at `τ` from `p` to `q` arrives *exactly once*, unmodified,
//!   within `[τ, τ+δ]` — and `q` never receives a message "from `p`" that
//!   `p` did not send, unless `p` was faulty during the window. The
//!   authentication rule is enforced by construction: honest sends go
//!   through [`Network::send_times`], and forged traffic must go through
//!   [`Network::send_forged_times`], which the runtime only exposes to the
//!   adversary for processors it currently controls.
//! * **Message delivery bound δ**: every delay model is validated against
//!   the configured bound; sampling above it is a panic (it would silently
//!   void the paper's analysis).
//! * **Topology**: the paper assumes a fully connected graph; Section 5
//!   discusses the two-cliques counterexample showing (3f+1)-connectivity is
//!   insufficient. [`Topology`] supports both, plus circulant and random
//!   graphs for exploratory experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod network;
pub mod topology;

pub use delay::{DelayModel, UniformDelay};
pub use network::{DelaySpike, Deliveries, FaultProfile, LinkFilter, Network, NetworkStats};
pub use topology::Topology;
