//! Paper-style text tables.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple column-aligned table.
///
/// ```
/// use byzclock_harness::Table;
///
/// let mut t = Table::new("Demo", &["k", "value"]);
/// t.row(&["1", "0.5"]);
/// t.row(&["2", "0.25"]);
/// let text = t.render();
/// assert!(text.contains("Demo"));
/// assert!(text.contains("0.25"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row/column mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a seconds value with an adaptive unit (s / ms / µs).
pub fn fmt_secs(v: f64) -> String {
    let a = v.abs();
    if !v.is_finite() {
        format!("{v}")
    } else if a >= 1.0 || a == 0.0 {
        format!("{v:.3}s")
    } else if a >= 1e-3 {
        format!("{:.3}ms", v * 1e3)
    } else {
        format!("{:.3}us", v * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        /// Number of data rows.
        pub(crate) fn row_count(&self) -> usize {
            self.rows.len()
        }
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("T", &["name", "v"]);
        t.row(&["a", "1"]).row(&["longer", "22"]);
        let r = t.render();
        assert!(r.contains("== T =="));
        let lines: Vec<&str> = r.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        // all data lines have equal width
        assert_eq!(lines[2].len(), lines[3].len().max(lines[2].len()));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn row_length_mismatch_panics() {
        Table::new("T", &["a", "b"]).row(&["only-one"]);
    }

    #[test]
    #[should_panic(expected = "column")]
    fn empty_headers_panic() {
        Table::new("T", &[]);
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("D", &["c"]);
        t.row(&["v"]);
        assert_eq!(format!("{t}"), t.render());
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(1.5), "1.500s");
        assert_eq!(fmt_secs(0.0025), "2.500ms");
        assert_eq!(fmt_secs(2.5e-6), "2.500us");
        assert_eq!(fmt_secs(0.0), "0.000s");
        assert_eq!(fmt_secs(f64::INFINITY), "inf");
    }

    #[test]
    fn row_owned_works() {
        let mut t = Table::new("T", &["a"]);
        t.row_owned(vec!["1".into()]);
        assert_eq!(t.row_count(), 1);
    }
}
