//! Aligned table printing and JSON experiment records.

use sg_json::{json, Value};
use std::io::Write;
use std::path::PathBuf;

/// A printable experiment table that can also be saved as JSON.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header count).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// JSON representation (`{title, headers, rows}`).
    pub fn to_json(&self) -> Value {
        json!({
            "title": self.title.clone(),
            "headers": self.headers.clone(),
            "rows": Value::Array(
                self.rows
                    .iter()
                    .map(|r| Value::from(r.clone()))
                    .collect(),
            ),
        })
    }
}

/// Features compiled into this bench build, for provenance.
fn enabled_features() -> &'static [&'static str] {
    if cfg!(feature = "telemetry") {
        &["telemetry"]
    } else {
        &[]
    }
}

/// Write a JSON experiment record to `results/<name>.json` (directory
/// created on demand), stamping run provenance (git SHA, UTC timestamp,
/// thread count, features, machine model) into the record so every
/// figure output is attributable. Returns the path written.
pub fn save_json(name: &str, value: &Value) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut record = value.clone();
    if let Value::Object(_) = &record {
        record["provenance"] = sg_telemetry::provenance(enabled_features());
    }
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{}", record.to_string_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["d", "value"]);
        t.add_row(vec!["5".into(), "1.25".into()]);
        t.add_row(vec!["10".into(), "200".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        let lines: Vec<&str> = r.lines().collect();
        // Header and rows share the same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn json_roundtrip() {
        let mut t = Table::new("x", &["a"]);
        t.add_row(vec!["1".into()]);
        let j = t.to_json();
        assert_eq!(j["title"], "x");
        assert_eq!(j["rows"][0][0], "1");
    }
}
