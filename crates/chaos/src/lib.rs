//! Chaos campaigns for the byzclock reproduction.
//!
//! The paper's theorems promise a lot — bounded deviation for the good
//! set (Theorem 5(i)), bounded discontinuity (5(ii)) — under a precisely
//! circumscribed fault model. The rest of the workspace probes those
//! claims one dimension at a time (experiments E1–E20); this crate probes
//! them **composed**: a campaign samples dozens of [`FaultPlan`]s mixing
//! Byzantine corruption, message loss, duplication, reordering,
//! δ-violating delay spikes, link cuts and benign restarts, runs each in
//! the standard [`World`](byzclock_runtime::World), and holds every run
//! to a suite of online invariants (deviation ≤ bound, discontinuity ≤
//! ψ, logical-clock monotonicity under slew, adjustments always finite).
//!
//! The pipeline for a violation:
//!
//! ```text
//! sample → validate (Definition 2 f-per-Δ) → run → violation?
//!                                               └→ shrink (greedy) → replay artifact (JSON)
//! ```
//!
//! Everything is a pure function of the campaign root seed, so verdicts
//! are bit-reproducible and an artifact replays exactly — see
//! [`campaign`] for the determinism contract and [`replay`](mod@replay)
//! for the artifact format. The `chaos` binary exposes `campaign` and
//! `replay` subcommands; experiment E21 in `byzclock-harness` wraps the
//! same machinery with a paper-style report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod invariant;
pub mod plan;
pub mod replay;
pub mod shrink;

pub use campaign::{
    run_campaign, run_campaign_with_workers, run_plan, CampaignConfig, CampaignReport, PlanVerdict,
};
pub use invariant::{InvariantSuite, Violation, ViolationLog, MAX_VIOLATIONS};
pub use plan::{DisciplineSpec, FaultPlan, LinkCutSpec, RestartSpec, SpikeSpec};
pub use replay::{replay, replay_with_workers, ReplayArtifact, ReplayOutcome};
pub use shrink::{shrink, SHRINK_BUDGET};
