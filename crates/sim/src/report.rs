//! Plain-text table rendering for the benchmark harnesses.
//!
//! Every figure/table harness in `kvd-bench` prints its series as an
//! aligned text table with a caption referencing the paper's figure, plus
//! (where the paper gives numbers) a "paper" column next to our "measured"
//! column so the shape comparison is immediate.

use std::fmt::Write as _;

/// An aligned plain-text table builder.
///
/// # Examples
///
/// ```
/// use kvd_sim::report::Table;
///
/// let mut t = Table::new("Figure 3a: PCIe DMA throughput", &["size", "read Mops"]);
/// t.row(&["64".into(), "60.1".into()]);
/// let s = t.render();
/// assert!(s.contains("Figure 3a"));
/// assert!(s.contains("60.1"));
/// ```
pub struct Table {
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a caption and column headers.
    pub fn new(caption: &str, headers: &[&str]) -> Self {
        Table {
            caption: caption.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must have the same arity as the headers.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.caption);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths
            .iter()
            .map(|w| w + 2)
            .sum::<usize>()
            .saturating_sub(2);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

/// Formats a float with `digits` decimal places.
pub fn fmt_f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("cap", &["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "20000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== cap ==");
        // Header and rows right-aligned to the same width.
        assert!(lines[1].contains("long_header"));
        assert!(lines[3].ends_with("2"));
        assert!(lines[4].ends_with("20000"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("cap", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
    }
}
