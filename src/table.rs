//! Plain-text table printer for the paper ledger and the benches.
//!
//! The paper's figures are bar charts; [`crate::paper`] prints the same
//! data as aligned text tables (one row per workload, one column per
//! series).

/// A simple aligned-column table.
///
/// # Examples
///
/// ```
/// use fuse::table::Table;
/// let mut t = Table::new("Fig. X — demo");
/// t.headers(&["workload", "IPC"]);
/// t.row(vec!["ATAX".into(), "1.23".into()]);
/// let s = t.render();
/// assert!(s.contains("ATAX"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn headers(&mut self, headers: &[&str]) -> &mut Self {
        self.headers = headers.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert!(
            self.headers.is_empty() || cells.len() == self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<width$}", c, width = widths[i] + 2));
                } else {
                    line.push_str(&format!("{:>width$}", c, width = widths[i] + 2));
                }
            }
            line
        };
        if !self.headers.is_empty() {
            out.push_str(&fmt_row(&self.headers, &widths));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum()));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with `prec` decimals.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a ratio as `x.xx×`.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo");
        t.headers(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 5, "title, header, rule, two rows");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(x(2.5), "2.50x");
        assert_eq!(pct(0.123), "12.3%");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("demo");
        t.headers(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
