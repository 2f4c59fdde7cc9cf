//! Experiment harness for the byzclock reproduction.
//!
//! The paper is an extended abstract with *no measured evaluation*; what it
//! offers instead are precise quantitative claims (Theorem 5, Lemma 7,
//! Claim 8) and comparative discussion claims (Sections 1.1, 3.3, 5). This
//! crate regenerates each of those as a table or series — see DESIGN.md §3
//! for the experiment index E1–E21 and EXPERIMENTS.md for the recorded
//! results.
//!
//! Structure:
//!
//! * [`stats`] — summary statistics and linear regression.
//! * [`table`] / [`series`] — paper-style table and ASCII-plot rendering
//!   (plus CSV for machine consumption), and [`svg`] for publication-style
//!   figures.
//! * [`metrics`] — [`RunLog`], the one
//!   [`Observer`](byzclock_runtime::Observer): it records a run's samples,
//!   adjustments and releases, and deviation, recovery, discontinuity and
//!   accuracy are queries over that record (shared-handle pattern: box one
//!   clone into the world, query the other afterwards).
//! * [`scenario`] — canned world configurations used across experiments.
//! * [`experiments`] — one module per experiment, each returning an
//!   [`experiments::ExperimentReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
#[cfg(test)]
mod parallel;
pub mod scenario;
pub mod series;
pub mod stats;
pub mod svg;
pub mod table;

pub use experiments::{ExperimentReport, Mode};
pub use metrics::RunLog;
pub use series::Series;
pub use stats::Summary;
pub use table::Table;
