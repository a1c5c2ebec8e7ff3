//! Plain-text table rendering for experiment harnesses.
//!
//! The `table1` binary prints measured analogues of the paper's Table 1;
//! [`TextTable`] renders aligned ASCII tables without pulling in a
//! formatting dependency.

use std::fmt;

/// A simple column-aligned ASCII table.
///
/// # Examples
///
/// ```
/// let mut t = bi_util::table::TextTable::new(vec!["k", "ratio"]);
/// t.add_row(vec!["4".to_string(), "3.20".to_string()]);
/// let s = t.to_string();
/// assert!(s.contains("ratio"));
/// assert!(s.contains("3.20"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn add_row(&mut self, row: Vec<String>) -> &mut Self {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with 4 significant digits, used consistently in harness
/// output so tables stay narrow.
///
/// # Examples
///
/// ```
/// assert_eq!(bi_util::table::fmt_f64(1234.5678), "1235");
/// assert_eq!(bi_util::table::fmt_f64(0.0125), "0.01250");
/// ```
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    if !x.is_finite() {
        return format!("{x}");
    }
    let digits = 4i32;
    let magnitude = x.abs().log10().floor() as i32;
    let decimals = (digits - 1 - magnitude).max(0) as usize;
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.add_row(vec!["alpha".into(), "1".into()]);
        t.add_row(vec!["b".into(), "22".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn len_and_is_empty_track_rows() {
        let mut t = TextTable::new(vec!["x"]);
        assert!(t.is_empty());
        t.add_row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn fmt_f64_handles_extremes() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert!(fmt_f64(123.456).starts_with("123.5"));
    }
}
