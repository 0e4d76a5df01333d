//! Plain-text experiment reports: titled tables with aligned columns and
//! optional paper-vs-measured annotations.

use std::fmt;

/// A report: a title, optional notes, and one aligned table.
///
/// # Examples
///
/// ```
/// use mp_bench::Report;
///
/// let mut r = Report::new("Table X: demo");
/// r.columns(&["config", "value"]);
/// r.row(&["a".into(), "1.00".into()]);
/// let text = r.to_string();
/// assert!(text.contains("Table X"));
/// assert!(text.contains("config"));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    title: String,
    notes: Vec<String>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Report {
        Report {
            title: title.into(),
            ..Report::default()
        }
    }

    /// Adds a free-form note line (printed under the title).
    pub fn note(&mut self, line: impl Into<String>) -> &mut Report {
        self.notes.push(line.into());
        self
    }

    /// Sets the column headers.
    pub fn columns(&mut self, names: &[&str]) -> &mut Report {
        self.header = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Report {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// The data rows (for assertions in tests).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Looks up a cell by row label (first column) and column name.
    pub fn cell(&self, row_label: &str, column: &str) -> Option<&str> {
        let c = self.header.iter().position(|h| h == column)?;
        let r = self.rows.iter().find(|r| r[0] == row_label)?;
        Some(&r[c])
    }

    /// Serializes the table to CSV (header + rows; notes become `#`
    /// comment lines), for downstream plotting tools.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        for n in &self.notes {
            writeln!(f, "   {n}")?;
        }
        if self.header.is_empty() {
            return Ok(());
        }
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "  {}", line.join("  "))
        };
        print_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a ratio as `x.xx×`.
pub fn times(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a value as a percentage change versus a baseline of 1.0
/// (e.g. `1.06` → `+6.0%`).
pub fn pct_change(v: f64) -> String {
    format!("{:+.1}%", (v - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut r = Report::new("T");
        r.note("a note");
        r.columns(&["name", "wide-column"]);
        r.row(&["x".into(), "1".into()]);
        r.row(&["longer-name".into(), "2".into()]);
        let s = r.to_string();
        assert!(s.contains("== T =="));
        assert!(s.contains("a note"));
        assert!(s.contains("longer-name"));
        // Header and rows align on the same column width.
        let lines: Vec<&str> = s.lines().collect();
        let name_col_end = lines[2].find("wide-column").unwrap();
        assert_eq!(lines[4].find('1').map(|p| p > name_col_end), Some(true));
    }

    #[test]
    fn cell_lookup() {
        let mut r = Report::new("T");
        r.columns(&["cfg", "v"]);
        r.row(&["a".into(), "1.5".into()]);
        assert_eq!(r.cell("a", "v"), Some("1.5"));
        assert_eq!(r.cell("b", "v"), None);
        assert_eq!(r.cell("a", "nope"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_validated() {
        let mut r = Report::new("T");
        r.columns(&["a", "b"]);
        r.row(&["only-one".into()]);
    }

    #[test]
    fn csv_escapes_and_renders() {
        let mut r = Report::new("T, with comma");
        r.note("a note");
        r.columns(&["name", "v"]);
        r.row(&["plain".into(), "1".into()]);
        r.row(&["with,comma".into(), "quo\"te".into()]);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# T, with comma");
        assert_eq!(lines[1], "# a note");
        assert_eq!(lines[2], "name,v");
        assert_eq!(lines[3], "plain,1");
        assert_eq!(lines[4], "\"with,comma\",\"quo\"\"te\"");
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00"); // default rounding
        assert_eq!(times(7.0), "7.00x");
        assert_eq!(pct_change(1.06), "+6.0%");
        assert_eq!(pct_change(0.94), "-6.0%");
        assert_eq!(f3(0.123456), "0.123");
    }
}
