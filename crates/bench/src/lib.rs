//! Shared plumbing for the experiment binaries.
//!
//! Every figure and table of the paper has one binary under `src/bin/`;
//! see `EXPERIMENTS.md` at the workspace root for the index. Each binary
//! prints a human-readable table to stdout and writes the same series as
//! CSV into `results/` so plots can be regenerated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple experiment table: named columns, float rows, CSV output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column names.
    #[must_use]
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (already formatted).
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the column count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row/column mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Appends one row of floats, formatted to 4 decimals.
    pub fn row_f64(&mut self, cells: &[f64]) {
        let formatted: Vec<String> = cells.iter().map(|v| format!("{v:.4}")).collect();
        self.row(&formatted);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([c.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
    }

    /// Writes the table as CSV under `results/<name>.csv` (relative to the
    /// workspace root when run via cargo, else the current directory).
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = fs::File::create(&path)?;
        writeln!(out, "{}", self.columns.join(","))?;
        for row in &self.rows {
            writeln!(out, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// Prints and writes in one call, logging the CSV location.
    pub fn finish(&self, name: &str) {
        self.print();
        match self.write_csv(name) {
            Ok(path) => println!("(csv: {})", path.display()),
            Err(err) => eprintln!("warning: could not write csv: {err}"),
        }
    }
}

/// The value of a `--flag PATH` (or `--flag=PATH`) argument on the
/// process command line, if present.
#[must_use]
pub fn arg_value(flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut args = std::env::args().skip(1);
    let mut value = None;
    while let Some(arg) = args.next() {
        if arg == flag {
            value = args.next();
        } else if let Some(v) = arg.strip_prefix(&prefix) {
            value = Some(v.to_string());
        }
    }
    value
}

/// Honors the telemetry output flags on the experiment binary's command
/// line through [`mdrep_obs::export`]. Every `exp_*` binary calls this
/// after its tables, so telemetry lands next to the CSVs:
///
/// - `--metrics-out PATH` — the global instrumentation registry
///   (per-phase `engine.recompute.*` and `dht.*.op` timings,
///   `dht.lookup.*` counters, `sim.run.events_per_sec`) as JSON.
/// - `--trace-out PATH` — the global causal trace in Chrome Trace Event
///   Format (load in `chrome://tracing` or Perfetto).
/// - `--series-out PATH` — the global sim-time series, as CSV when the
///   path ends in `.csv`, else as JSON.
///
/// A failed write warns and the binary carries on, so a long run's tables
/// are not lost.
pub fn write_metrics_if_requested() {
    for file in mdrep_obs::export(|flag| arg_value(&format!("--{flag}"))) {
        match file.result {
            Ok(()) => println!("({}: {})", file.what, file.path),
            Err(err) => eprintln!(
                "warning: could not write {} to {}: {err}",
                file.what, file.path
            ),
        }
    }
}

/// The `results/` directory: workspace root when invoked through cargo.
#[must_use]
pub fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row_f64(&[1.0, 2.5]);
        t.row(&["x".into(), "y".into()]);
        assert_eq!(t.rows.len(), 2);
        t.print();
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
