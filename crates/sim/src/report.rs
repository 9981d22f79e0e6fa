//! Plain-text report tables (aligned ASCII + CSV) for the experiment
//! harness. No dependencies: experiments print to stdout and
//! `EXPERIMENTS.md` embeds the output verbatim.

use cblog_common::obs::json_escape;
use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The cells of data row `r`.
    pub fn cells(&self, r: usize) -> &[String] {
        &self.rows[r]
    }

    /// Cell accessor (row, column).
    pub fn cell(&self, r: usize, c: usize) -> &str {
        &self.rows[r][c]
    }

    /// Renders the aligned ASCII form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {c:>w$} |", w = w);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders the table as a JSON object: `{"title", "headers",
    /// "rows"}` with every cell a string (cells already carry their
    /// formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"title\":\"{}\",", json_escape(&self.title));
        let _ = write!(out, "\"headers\":[");
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(h));
        }
        out.push_str("],\"rows\":[");
        for (r, row) in self.rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push('[');
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(cell));
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Renders CSV (title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a float compactly for table cells.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows after the title.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1].len(), lines[3].len(), "aligned widths");
        assert_eq!(t.cell(1, 0), "long-name");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("a,b"));
        assert!(csv.contains("1,2"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_round_trips_structure() {
        let mut t = Table::new("demo \"quoted\"", &["a", "b"]);
        t.row(vec!["1".into(), "x\ny".into()]);
        let j = t.to_json();
        assert!(j.starts_with("{\"title\":\"demo \\\"quoted\\\"\""));
        assert!(j.contains("\"headers\":[\"a\",\"b\"]"));
        assert!(j.contains("\"rows\":[[\"1\",\"x\\ny\"]]"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(42.4242), "42.42");
        assert_eq!(f(0.01234), "0.0123");
    }
}
