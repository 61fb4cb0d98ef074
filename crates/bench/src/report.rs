//! Fixed-width table printing for the experiment binaries.

use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a header row.
    #[must_use]
    pub fn new<S: AsRef<str>>(header: &[S]) -> Self {
        Table {
            header: header.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn add_row<S: AsRef<str>>(&mut self, row: &[S]) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(row.iter().map(|s| s.as_ref().to_owned()).collect());
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (cell, w) in cells.iter().zip(&widths) {
                let _ = write!(out, "| {cell:<w$} ");
            }
            out.push_str("|\n");
        };
        write_row(&mut out, &self.header);
        for w in &widths {
            let _ = write!(out, "|{}", "-".repeat(w + 2));
        }
        out.push_str("|\n");
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with a fixed number of decimals (helper for table
/// cells).
#[must_use]
pub fn fmt_f64(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Prints a section banner so the output of a multi-part experiment binary
/// is easy to scan.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["system", "answered"]);
        t.add_row(&["DProvDB", "4231"]);
        t.add_row(&["Chorus", "62"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("system"));
        assert!(lines[2].contains("DProvDB"));
        // Every row has the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn mismatched_rows_panic() {
        let mut t = Table::new(&["a", "b"]);
        t.add_row(&["only one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(2.0, 0), "2");
    }
}
