//! (x, y) series with ASCII-plot rendering — the harness's "figures".

use serde::{Deserialize, Serialize};
use std::fmt;

/// A named data series (one "curve" of a figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    name: String,
    x_label: String,
    y_label: String,
    points: Vec<(f64, f64)>,
    log_y: bool,
}

impl Series {
    /// Creates an empty series.
    pub fn new(
        name: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Series {
            name: name.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            points: Vec::new(),
            log_y: false,
        }
    }

    /// Switches the ASCII plot to a log10 y-axis (for decay curves).
    pub fn log_y(mut self) -> Self {
        self.log_y = true;
        self
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The raw points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Renders an ASCII scatter/line plot (width×height characters).
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        let width = width.max(16);
        let height = height.max(4);
        if self.points.is_empty() {
            return format!("[{}: no data]\n", self.name);
        }
        let ys: Vec<f64> = self
            .points
            .iter()
            .map(|(_, y)| {
                if self.log_y {
                    y.max(1e-300).log10()
                } else {
                    *y
                }
            })
            .collect();
        let xs: Vec<f64> = self.points.iter().map(|(x, _)| *x).collect();
        let (xmin, xmax) = bounds(&xs);
        let (ymin, ymax) = bounds(&ys);
        let xspan = (xmax - xmin).max(1e-300);
        let yspan = (ymax - ymin).max(1e-300);
        let mut grid = vec![vec![' '; width]; height];
        for (x, y) in xs.iter().zip(&ys) {
            let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
            let row = (((ymax - y) / yspan) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = '*';
        }
        let mut out = String::new();
        out.push_str(&format!(
            "-- {} ({} vs {}{}) --\n",
            self.name,
            self.y_label,
            self.x_label,
            if self.log_y { ", log y" } else { "" }
        ));
        let y_hi = if self.log_y {
            format!("1e{ymax:.1}")
        } else {
            format!("{ymax:.4}")
        };
        let y_lo = if self.log_y {
            format!("1e{ymin:.1}")
        } else {
            format!("{ymin:.4}")
        };
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{y_hi:>10} |")
            } else if i == height - 1 {
                format!("{y_lo:>10} |")
            } else {
                format!("{:>10} |", "")
            };
            out.push_str(&label);
            out.push_str(&row.iter().collect::<String>());
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>10} +{}\n{:>12}{:<w$.4}{:>w2$.4}\n",
            "",
            "-".repeat(width),
            "",
            xmin,
            xmax,
            w = width / 2,
            w2 = width - width / 2
        ));
        out
    }
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_ascii(64, 16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Series {
        let mut s = Series::new("decay", "t", "dev");
        for i in 0..10 {
            s.push(i as f64, 100.0 * 0.5f64.powi(i));
        }
        s
    }

    #[test]
    fn push_and_len() {
        let s = demo();
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.points()[0], (0.0, 100.0));
        assert_eq!(s.name(), "decay");
    }

    #[test]
    fn ascii_plot_contains_points_and_labels() {
        let s = demo();
        let plot = s.render_ascii(40, 10);
        assert!(plot.contains("decay"));
        assert!(plot.contains('*'));
        assert!(plot.lines().count() >= 12);
    }

    #[test]
    fn empty_series_renders_placeholder() {
        let s = Series::new("empty", "x", "y");
        assert!(s.render_ascii(40, 10).contains("no data"));
    }

    #[test]
    fn log_scale_marks_title() {
        let s = demo().log_y();
        assert!(s.render_ascii(40, 10).contains("log y"));
    }

    #[test]
    fn single_point_no_panic() {
        let mut s = Series::new("one", "x", "y");
        s.push(1.0, 2.0);
        let plot = s.render_ascii(40, 10);
        assert!(plot.contains('*'));
    }

    #[test]
    fn constant_series_no_panic() {
        let mut s = Series::new("const", "x", "y");
        for i in 0..5 {
            s.push(i as f64, 3.0);
        }
        let _ = s.render_ascii(40, 8);
    }
}
