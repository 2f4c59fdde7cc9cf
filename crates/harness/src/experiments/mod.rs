//! The experiment suite: one module per reproduced claim (DESIGN.md §3).
//!
//! Each experiment builds worlds via [`Scenario`](crate::scenario::Scenario),
//! runs them, and renders a paper-style [`Table`] and/or [`Series`],
//! together with a machine-checkable `pass` verdict comparing the
//! measurement against the paper's stated bound. `Mode::Quick` shrinks
//! horizons for CI; `Mode::Full` is what the bench targets run and what
//! EXPERIMENTS.md records.

pub mod e01_deviation;
pub mod e02_contraction;
pub mod e03_recovery;
pub mod e04_accuracy;
pub mod e05_resilience;
pub mod e06_mobile;
pub mod e07_baselines;
pub mod e08_two_cliques;
pub mod e09_wayoff;
pub mod e10_k_tradeoff;
pub mod e11_estimation;
pub mod e12_attacks;
pub mod e13_self_stabilization;
pub mod e14_connectivity;
pub mod e15_overpowered;
pub mod e16_link_faults;
pub mod e17_message_loss;
pub mod e18_disciplines;
pub mod e19_cached_estimation;
pub mod e20_neighbors;
pub mod e21_chaos;

use serde::Serialize;

use crate::series::Series;
use crate::table::Table;

/// Execution mode: quick (CI-sized) or full (bench / EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Short horizons, fewer sweep points — finishes in well under a second
    /// per experiment.
    Quick,
    /// The full sweep recorded in EXPERIMENTS.md.
    Full,
}

impl Mode {
    /// Scales a horizon expressed in "Δ units": quick runs use fewer.
    pub fn horizon_deltas(self, quick: f64, full: f64) -> f64 {
        match self {
            Mode::Quick => quick,
            Mode::Full => full,
        }
    }
}

/// The rendered result of one experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E1"`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// The paper claim being reproduced (with its source location).
    pub claim: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Result series ("figures").
    pub series: Vec<Series>,
    /// Free-form notes (methodology, caveats).
    pub notes: Vec<String>,
    /// Whether the measurement is consistent with the claim.
    pub pass: bool,
}

impl ExperimentReport {
    /// Serializes the report (tables, series points, verdict) as JSON for
    /// machine consumption.
    ///
    /// # Panics
    ///
    /// Never panics: the report types serialize infallibly.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// Renders the full report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "###### {} — {} [{}]\n",
            self.id,
            self.title,
            if self.pass { "PASS" } else { "FAIL" }
        ));
        out.push_str(&format!("claim: {}\n\n", self.claim));
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        for s in &self.series {
            out.push_str(&s.render_ascii(72, 16));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// The signature every experiment's `run` function shares.
pub type ExperimentRunner = fn(Mode) -> ExperimentReport;

/// All experiments in order, as `(id, runner)` pairs.
pub fn registry() -> Vec<(&'static str, ExperimentRunner)> {
    vec![
        ("E1", e01_deviation::run),
        ("E2", e02_contraction::run),
        ("E3", e03_recovery::run),
        ("E4", e04_accuracy::run),
        ("E5", e05_resilience::run),
        ("E6", e06_mobile::run),
        ("E7", e07_baselines::run),
        ("E8", e08_two_cliques::run),
        ("E9", e09_wayoff::run),
        ("E10", e10_k_tradeoff::run),
        ("E11", e11_estimation::run),
        ("E12", e12_attacks::run),
        ("E13", e13_self_stabilization::run),
        ("E14", e14_connectivity::run),
        ("E15", e15_overpowered::run),
        ("E16", e16_link_faults::run),
        ("E17", e17_message_loss::run),
        ("E18", e18_disciplines::run),
        ("E19", e19_cached_estimation::run),
        ("E20", e20_neighbors::run),
        ("E21", e21_chaos::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = registry().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 21);
        let set: std::collections::HashSet<&&str> = ids.iter().collect();
        assert_eq!(set.len(), 21);
        assert_eq!(ids[0], "E1");
        assert_eq!(ids[20], "E21");
    }

    #[test]
    fn report_render_contains_verdict() {
        let r = ExperimentReport {
            id: "EX",
            title: "demo".into(),
            claim: "c".into(),
            tables: vec![],
            series: vec![],
            notes: vec!["n1".into()],
            pass: true,
        };
        let text = r.render();
        assert!(text.contains("PASS"));
        assert!(text.contains("note: n1"));
    }

    #[test]
    fn report_serializes_to_json() {
        let r = ExperimentReport {
            id: "EX",
            title: "demo".into(),
            claim: "c".into(),
            tables: vec![{
                let mut t = Table::new("T", &["a"]);
                t.row(&["1"]);
                t
            }],
            series: vec![{
                let mut s = Series::new("S", "x", "y");
                s.push(1.0, 2.0);
                s
            }],
            notes: vec![],
            pass: true,
        };
        let json = r.to_json();
        assert!(json.contains("\"id\": \"EX\""));
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn mode_horizon_scaling() {
        assert_eq!(Mode::Quick.horizon_deltas(2.0, 10.0), 2.0);
        assert_eq!(Mode::Full.horizon_deltas(2.0, 10.0), 10.0);
    }
}
