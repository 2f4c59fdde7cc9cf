//! Replay artifacts: a violation you can hand to someone else.
//!
//! A [`ReplayArtifact`] is a self-contained JSON document: the campaign
//! root seed (provenance), the plan index it came from, the violated
//! invariant, the **shrunk** plan, and the exact violation list the
//! shrunk plan produces. Because every run is a pure function of its
//! plan, [`replay`] re-executes the plan and compares violation lists
//! for *exact* equality — bit-identical reproduction, or an explicit
//! divergence report (which would indicate a determinism bug, the most
//! serious failure a simulation harness can have).

use serde::{Deserialize, Serialize};

use crate::campaign::run_plan;
use crate::invariant::Violation;
use crate::plan::FaultPlan;

/// A serialized, re-runnable violation. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayArtifact {
    /// Root seed of the campaign that found it.
    pub root_seed: u64,
    /// Index of the originating plan within that campaign.
    pub plan_index: usize,
    /// The invariant the shrink preserved.
    pub invariant: String,
    /// The shrunk plan (world seed included — fully self-contained).
    pub plan: FaultPlan,
    /// The exact violations the shrunk plan produces.
    pub violations: Vec<Violation>,
}

impl ReplayArtifact {
    /// Parses an artifact back from JSON.
    ///
    /// # Errors
    ///
    /// Any JSON/shape error from the underlying parser.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Outcome of re-executing an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayOutcome {
    /// The run reproduced the recorded violations exactly.
    Reproduced,
    /// The run produced something else — a determinism bug.
    Diverged {
        /// What the artifact recorded.
        expected: Vec<Violation>,
        /// What the re-run produced.
        got: Vec<Violation>,
    },
}

/// Re-runs the artifact's plan and compares against its recorded
/// violations, bit for bit.
pub fn replay(artifact: &ReplayArtifact) -> ReplayOutcome {
    replay_with_workers(artifact, 1)
}

/// Like [`replay`], but runs `workers` independent replicas of the plan in
/// parallel and requires **every** replica to reproduce the recorded
/// violations.
///
/// This is the strictest form of the determinism claim: the run must be a
/// pure function of the plan even across threads racing on the same
/// machine. A single diverging replica fails the whole replay (the
/// lowest-index divergence is reported, so the outcome itself is
/// deterministic).
pub fn replay_with_workers(artifact: &ReplayArtifact, workers: usize) -> ReplayOutcome {
    let replicas = workers.max(1);
    let runs = byzclock_sim::pool::par_map(vec![&artifact.plan; replicas], workers, |_, plan| {
        run_plan(plan)
    });
    for got in runs {
        if got != artifact.violations {
            return ReplayOutcome::Diverged {
                expected: artifact.violations.clone(),
                got,
            };
        }
    }
    ReplayOutcome::Reproduced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::shrink;

    fn artifact() -> ReplayArtifact {
        let plan = crate::shrink::violating_plan();
        let shrunk = shrink(&plan, "deviation");
        let violations = run_plan(&shrunk);
        ReplayArtifact {
            root_seed: 0,
            plan_index: 0,
            invariant: "deviation".into(),
            plan: shrunk,
            violations,
        }
    }

    #[test]
    fn artifact_round_trips_and_reproduces() {
        let a = artifact();
        let json = serde_json::to_string_pretty(&a).unwrap();
        let back = ReplayArtifact::from_json(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(replay(&back), ReplayOutcome::Reproduced);
    }

    #[test]
    fn tampered_artifact_diverges() {
        let mut a = artifact();
        a.violations.pop();
        match replay(&a) {
            ReplayOutcome::Diverged { expected, got } => {
                assert_eq!(expected.len() + 1, got.len());
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(ReplayArtifact::from_json("{not json").is_err());
    }

    #[test]
    fn parallel_replicas_all_reproduce() {
        let a = artifact();
        assert_eq!(replay_with_workers(&a, 4), ReplayOutcome::Reproduced);
    }

    #[test]
    fn parallel_replay_detects_tampering_too() {
        let mut a = artifact();
        a.violations.pop();
        assert!(matches!(
            replay_with_workers(&a, 3),
            ReplayOutcome::Diverged { .. }
        ));
    }
}
