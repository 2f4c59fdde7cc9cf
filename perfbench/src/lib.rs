//! The byzclock benchmark: end-to-end metrics of three workloads and, in
//! a separate traced run, per-layer metrics taken at the program's public
//! seams. See `README.md` in this directory for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod chaos;
pub mod clock;
pub mod churn;
pub mod layers;
pub mod probe;
pub mod run;
pub mod stats;
