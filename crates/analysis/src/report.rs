//! Report rendering: aligned text tables and numeric series.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// The header labels.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render with space-aligned columns.
    pub fn render(&self) -> String {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let _ = writeln!(out, "{}", render_row(&self.headers, &widths));
        let total_width: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total_width));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }
}

/// A named numeric series — what a plotting tool would consume to draw one
/// line of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create a series.
    pub fn new<S: Into<String>>(name: S, points: Vec<(f64, f64)>) -> Series {
        Series {
            name: name.into(),
            points,
        }
    }
}

/// The output of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Experiment id (e.g. `table1`, `figure4`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Named tables.
    pub tables: Vec<(String, TextTable)>,
    /// Named series.
    pub series: Vec<Series>,
    /// Free-form notes — headline numbers, comparisons with the paper's
    /// reported values, caveats.
    pub notes: Vec<String>,
}

impl Report {
    /// Create an empty report.
    pub fn new<S: Into<String>, T: Into<String>>(id: S, title: T) -> Report {
        Report {
            id: id.into(),
            title: title.into(),
            tables: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a table.
    pub fn add_table<S: Into<String>>(&mut self, name: S, table: TextTable) -> &mut Self {
        self.tables.push((name.into(), table));
        self
    }

    /// Add a series.
    pub fn add_series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Add a note line.
    pub fn add_note<S: Into<String>>(&mut self, note: S) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Option<&TextTable> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Render the whole report as plain text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ===", self.id, self.title);
        for (name, table) in &self.tables {
            let _ = writeln!(out, "\n[{name}]");
            out.push_str(&table.render());
        }
        for series in &self.series {
            let _ = writeln!(
                out,
                "\n[series: {} — {} points]",
                series.name,
                series.points.len()
            );
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "\nNotes:");
            for note in &self.notes {
                let _ = writeln!(out, "  - {note}");
            }
        }
        out
    }
}

/// Format a count with a percentage of a total, as the paper's tables do
/// (`72 (63.2%)`).
pub fn count_with_pct(count: usize, total: usize) -> String {
    if total == 0 {
        format!("{count} (0.0%)")
    } else {
        format!("{count} ({:.1}%)", 100.0 * count as f64 / total as f64)
    }
}

/// Format a count with a mean time in seconds, as Table 1 does
/// (`72 (28.1s)`).
pub fn count_with_seconds(count: usize, seconds: f64) -> String {
    format!("{count} ({seconds:.1}s)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new(vec!["Category", "Related", "Unrelated"]);
        table.add_row(vec!["RWS (same set)", "72 (28.1s)", "42 (39.4s)"]);
        table.add_row(vec!["RWS (other set)", "5 (25.5s)", "100 (32.5s)"]);
        let rendered = table.render();
        assert!(rendered.contains("Category"));
        assert!(rendered.contains("RWS (same set)"));
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(table.rows().len(), 2);
    }

    #[test]
    fn table_pads_and_truncates_rows() {
        let mut table = TextTable::new(vec!["a", "b"]);
        table.add_row(vec!["only-one"]);
        table.add_row(vec!["x", "y", "overflow"]);
        assert_eq!(table.rows()[0], vec!["only-one".to_string(), String::new()]);
        assert_eq!(table.rows()[1].len(), 2);
    }

    #[test]
    fn report_accessors_and_text() {
        let mut report = Report::new("table1", "Survey summary");
        let mut table = TextTable::new(vec!["k", "v"]);
        table.add_row(vec!["x", "1"]);
        report.add_table("main", table);
        report.add_series(Series::new("timing", vec![(1.0, 0.5)]));
        report.add_note("42 responses");
        assert!(report.table("main").is_some());
        assert!(report.table("missing").is_none());
        assert!(report.series.iter().any(|s| s.name == "timing"));
        let text = report.to_text();
        assert!(text.contains("table1"));
        assert!(text.contains("[main]"));
        assert!(text.contains("42 responses"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(count_with_pct(72, 114), "72 (63.2%)");
        assert_eq!(count_with_pct(0, 0), "0 (0.0%)");
        assert_eq!(count_with_seconds(42, 39.42), "42 (39.4s)");
    }
}
