//! The section reporter: prints each table for people and, with
//! `experiments --json`, mirrors it into `BENCH_<section>.json`.
//!
//! The vendor set has no serde (this repository builds offline), so a
//! small writer is the whole dependency.  Every section serializes as
//!
//! ```json
//! {
//!   "experiment": "E10",
//!   "tables": [{"title": "...", "headers": ["..."],
//!               "rows": [["16", {"value": 412, "unit": "ns"}]]}],
//!   "notes": ["host CPUs: 2; section elapsed: 1.58ms"]
//! }
//! ```
//!
//! A text cell is a JSON string; a numeric [`Cell`] is an object with a
//! number `value` and its `unit` (`ns`, `count`, `ratio` or `1/s`).

use std::path::PathBuf;
use std::time::Instant;

use crate::Cell;

/// One printed table, as captured for JSON.
struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(", "))
}

/// A cell as JSON.  Numbers keep three decimals; a non-finite value
/// (never produced on purpose) is `null`, which the CI check rejects.
fn cell_json(cell: &Cell) -> String {
    match cell {
        Cell::Text(s) => format!("\"{}\"", escape(s)),
        Cell::Value(v, unit) => {
            let value = if v.is_finite() {
                format!("{}", (v * 1e3).round() / 1e3)
            } else {
                "null".to_string()
            };
            format!("{{\"value\": {value}, \"unit\": \"{}\"}}", unit.name())
        }
    }
}

/// Renders one experiment's JSON document.
fn render_experiment(experiment: &str, tables: &[Table], notes: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", escape(experiment)));
    out.push_str("  \"tables\": [\n");
    for (i, t) in tables.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"title\": \"{}\",\n", escape(&t.title)));
        out.push_str(&format!(
            "      \"headers\": {},\n",
            string_array(&t.headers)
        ));
        out.push_str("      \"rows\": [\n");
        for (j, row) in t.rows.iter().enumerate() {
            let cells: Vec<String> = row.iter().map(cell_json).collect();
            out.push_str(&format!(
                "        [{}]{}\n",
                cells.join(", "),
                if j + 1 < t.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < tables.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"notes\": {}\n", string_array(notes)));
    out.push_str("}\n");
    out
}

/// Prints an experiment table (markdown-style, aligned).
fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let hs: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let mut widths: Vec<usize> = hs.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&hs);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in rows {
        line(row);
    }
}

/// Collects what an experiment section prints — tables and note lines —
/// so `--json` mode can mirror it into `BENCH_<section>.json`.  Without
/// JSON capture it only prints.
///
/// Every flushed document gets a provenance note: the host CPU count
/// and the section's wall-clock elapsed time.
pub struct Reporter {
    json_dir: Option<PathBuf>,
    tables: Vec<Table>,
    notes: Vec<String>,
    section_started: Instant,
}

impl Reporter {
    /// A reporter; with `json` on, sections flush into the current
    /// directory as `BENCH_<section>.json`.
    pub fn new(json: bool) -> Self {
        Reporter {
            json_dir: json.then(|| std::env::current_dir().expect("current directory")),
            tables: Vec::new(),
            notes: Vec::new(),
            section_started: Instant::now(),
        }
    }

    /// Prints a table (and captures it when JSON capture is on).
    pub fn table(&mut self, title: &str, headers: &[&str], rows: Vec<Vec<Cell>>) {
        let printed: Vec<Vec<String>> = rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        print_table(title, headers, &printed);
        if self.json_dir.is_some() {
            self.tables.push(Table {
                title: title.to_string(),
                headers: headers.iter().map(|h| h.to_string()).collect(),
                rows,
            });
        }
    }

    /// Prints a free-form note line under the section's tables.
    pub fn note(&mut self, text: String) {
        println!("{text}");
        if self.json_dir.is_some() {
            self.notes.push(text);
        }
    }

    /// Ends a section: writes `BENCH_<section>.json` (when capturing)
    /// with the provenance note appended, then clears the capture and
    /// restarts the section clock either way.
    pub fn flush(&mut self, section: &str) {
        if let Some(dir) = &self.json_dir {
            self.notes.push(format!(
                "host CPUs: {}; section elapsed: {}",
                crate::available_cpus(),
                crate::fmt_duration(self.section_started.elapsed()),
            ));
            let path = dir.join(format!("BENCH_{section}.json"));
            std::fs::write(&path, render_experiment(section, &self.tables, &self.notes))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        }
        self.tables.clear();
        self.notes.clear();
        self.section_started = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unit;

    #[test]
    fn escaping_covers_the_json_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\tz"), "x\\ny\\tz");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // Non-ASCII passes through (JSON strings are UTF-8).
        assert_eq!(escape("µs → 1×"), "µs → 1×");
    }

    #[test]
    fn numeric_cells_are_numbers_with_units() {
        assert_eq!(
            cell_json(&Cell::count(30)),
            r#"{"value": 30, "unit": "count"}"#
        );
        assert_eq!(
            cell_json(&Cell::ratio(24.61234)),
            r#"{"value": 24.612, "unit": "ratio"}"#
        );
        assert_eq!(
            cell_json(&Cell::Value(f64::NAN, Unit::Ns)),
            r#"{"value": null, "unit": "ns"}"#
        );
        assert_eq!(cell_json(&Cell::from("yes")), r#""yes""#);
    }

    #[test]
    fn rendered_document_has_the_expected_shape() {
        let tables = vec![Table {
            title: "T — demo".into(),
            headers: vec!["a".into(), "b".into()],
            rows: vec![
                vec!["1".into(), Cell::ns(std::time::Duration::from_micros(2))],
                vec!["3".into(), Cell::count(4)],
            ],
        }];
        let notes = vec!["host CPUs: 1".to_string()];
        let doc = render_experiment("E10", &tables, &notes);
        assert!(doc.contains("\"experiment\": \"E10\""));
        assert!(doc.contains("\"title\": \"T — demo\""));
        assert!(doc.contains(r#"["1", {"value": 2000, "unit": "ns"}]"#));
        assert!(doc.contains(r#"["3", {"value": 4, "unit": "count"}]"#));
        assert!(doc.contains("\"notes\": [\"host CPUs: 1\"]"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                doc.chars().filter(|&c| c == open).count(),
                doc.chars().filter(|&c| c == close).count()
            );
        }
    }
}
