//! Plain-text table rendering, CSV artifacts, and the [`Report`] every
//! experiment returns: its tables, its notes and its headline claims.

use crate::HarnessArgs;
use std::fmt::Write as _;
use std::path::Path;

/// One headline claim of the reproduction gate, as checked by the
/// experiment that measures it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// The claim, as `paper summary` prints it.
    pub text: &'static str,
    /// Whether the measurement met the claim's threshold.
    pub pass: bool,
    /// The measured numbers the verdict rests on.
    pub evidence: String,
}

/// A piece of an experiment's output, in print order.
#[derive(Debug, Clone)]
enum Section {
    /// A table, printed and saved as `csv` in the artifact directory.
    Table { csv: &'static str, table: Table },
    /// Free text printed as-is.
    Note(String),
}

/// What one experiment produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    sections: Vec<Section>,
    /// The claims the experiment checked, in gate order.
    pub claims: Vec<Claim>,
    /// Set when the run itself went wrong (a diverged row, a missing
    /// binary): the harness exits non-zero after emitting the report.
    pub failure: Option<String>,
}

impl Report {
    /// Adds a table, saved as `csv` under the artifact directory.
    pub fn table(&mut self, csv: &'static str, table: Table) {
        self.sections.push(Section::Table { csv, table });
    }

    /// Adds free text, printed after what was added before it.
    pub fn note(&mut self, text: impl Into<String>) {
        self.sections.push(Section::Note(text.into()));
    }

    /// Records one checked claim.
    pub fn claim(&mut self, text: &'static str, pass: bool, evidence: String) {
        self.claims.push(Claim {
            text,
            pass,
            evidence,
        });
    }

    /// Prints every section in order, writes each table's CSV, and
    /// reports the failure, if any, on stderr. Returns whether the run
    /// was clean.
    pub fn emit(&self, args: &HarnessArgs) -> bool {
        for section in &self.sections {
            match section {
                Section::Table { csv, table } => {
                    println!("{}", table.render());
                    table.save_csv(&args.artifact(csv)).expect("csv");
                }
                Section::Note(text) => println!("{text}\n"),
            }
        }
        if let Some(failure) = &self.failure {
            eprintln!("{failure}");
        }
        self.failure.is_none()
    }
}

/// A simple column-aligned text table that can also be saved as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: AsRef<str>>(title: &str, header: &[S]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|h| h.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Writes the table as CSV.
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long_header"]);
        t.row(&["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("long_header"));
        assert!(r.contains('1'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn csv_round_trip_escaping() {
        let dir = std::env::temp_dir().join("genomedsm_bench_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["hello, world".into(), "q\"q".into()]);
        t.save_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"hello, world\""));
        assert!(text.contains("\"q\"\"q\""));
        std::fs::remove_file(&path).ok();
    }
}
