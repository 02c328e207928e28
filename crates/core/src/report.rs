//! Plain-text report formatting for the figure harnesses.

use pagesim_stats::Summary;

/// A simple aligned text table.
///
/// ```rust
/// use pagesim::report::Table;
/// let mut t = Table::new(&["workload", "clock", "mglru"]);
/// t.row(&["tpch".into(), "1.00".into(), "0.82".into()]);
/// let s = t.render();
/// assert!(s.contains("tpch"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio like the paper's normalized bars.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a summary as `mean ± std [min, max]`.
pub fn summary_line(s: &Summary) -> String {
    format!("{:.3} ± {:.3} [{:.3}, {:.3}]", s.mean, s.std, s.min, s.max)
}

/// Formats nanoseconds as a human latency.
pub fn latency(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Marker line for a figure whose cell was lost to a sweep failure. Holes
/// are rendered *instead of* the figure body so a degraded run can never be
/// mistaken for a complete one: every line is `#`-prefixed (comment
/// convention of the figure stream) and names the missing cell and cause.
pub fn hole_line(fig: &str, ident: &str, why: &str) -> String {
    format!("# HOLE {fig}: cell {ident} unavailable ({why})")
}

/// Banner printed once at the top of a figure stream that contains holes.
pub fn incomplete_banner(failed_cells: usize) -> String {
    format!(
        "# INCOMPLETE SWEEP: {failed_cells} cell(s) failed; affected figures \
         are rendered as holes, not data"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hole_lines_are_comment_prefixed() {
        let h = hole_line("fig7", "tpch/clock/Ssd/r0.75", "panic: boom");
        assert!(h.starts_with("# HOLE fig7"), "{h}");
        assert!(h.contains("tpch/clock/Ssd/r0.75"), "{h}");
        assert!(incomplete_banner(2).starts_with("# INCOMPLETE SWEEP: 2"));
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn latency_units() {
        assert_eq!(latency(900), "900ns");
        assert_eq!(latency(1_500), "1.50us");
        assert_eq!(latency(2_500_000), "2.50ms");
        assert_eq!(latency(3_000_000_000), "3.00s");
    }
}
