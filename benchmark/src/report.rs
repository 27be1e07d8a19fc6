//! What the benchmark prints and reads back: the run header, the metric
//! tables, the driver's one-line result, the `run` file and `compare`.
//! JSON is written and parsed by hand — the sandbox has no serde.

use std::fmt::Write as _;
use std::path::Path;

use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::trace::TraceReport;
use crate::workloads::{RunReport, SLICES, WINDOW};

/// Facts about the run's surroundings, so a reader can tell a slow disk
/// or a different toolchain from a slow commit.
pub struct Header {
    pub git_sha: String,
    pub rustc: String,
    pub host_cpus: usize,
    /// The CPU every thread of the run is pinned to, if pinning worked.
    pub pinned_cpu: Option<usize>,
    pub seed: u64,
    pub seconds: f64,
    pub scratch_filesystem: String,
    pub device_fsync_us: f64,
}

/// The commit of the enclosing git checkout, read from `.git` directly
/// (the driver's checkout has none, and no process needs starting).
fn git_sha() -> String {
    for root in [".", ".."] {
        let git = Path::new(root).join(".git");
        let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
            continue;
        };
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head.to_string();
        };
        if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
            return sha.trim().to_string();
        }
        if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
            if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
                return line.split(' ').next().unwrap_or("unknown").to_string();
            }
        }
    }
    "unknown".to_string()
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type and device of the mount holding `dir`, from
/// `/proc/mounts` (longest mount-point prefix wins).
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (device, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), format!("{kind} on {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

impl Header {
    pub fn gather(
        seed: u64,
        seconds: f64,
        host_cpus: usize,
        pinned_cpu: Option<usize>,
        scratch: &Path,
    ) -> Result<Self, String> {
        Ok(Header {
            git_sha: git_sha(),
            rustc: rustc_version(),
            host_cpus,
            pinned_cpu,
            seed,
            seconds,
            scratch_filesystem: filesystem_of(scratch),
            device_fsync_us: crate::trace::device_fsync_us(scratch)?,
        })
    }

    pub fn print(&self) {
        println!("# independent-schemas benchmark");
        println!("# git sha        {}", self.git_sha);
        println!("# rustc          {}", self.rustc);
        println!("# host_cpus      {}", self.host_cpus);
        match self.pinned_cpu {
            Some(cpu) => println!(
                "# pinned to      cpu {cpu} (all threads: hand-offs never wait for a halted vCPU)"
            ),
            None => println!(
                "# pinned to      nothing: sched_setaffinity refused, expect wider spreads"
            ),
        }
        println!("# seed           {}", self.seed);
        println!("# seconds        {} per workload (5% warm-up, 60% throughput in {SLICES} slices at window {WINDOW}, 35% window 1)", self.seconds);
        println!(
            "# scratch dir    {} (latencies below are this sandbox's, not a device's)",
            self.scratch_filesystem
        );
        println!(
            "# device fsync   {:.1} us p50 of 200 (wal.device_fsync_us)",
            self.device_fsync_us
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"git_sha\":{},\"rustc\":{},\"host_cpus\":{},\"pinned_cpu\":{},\"seed\":{},\"seconds\":{},\"scratch_filesystem\":{},\"wal.device_fsync_us\":{}}}",
            quote(&self.git_sha),
            quote(&self.rustc),
            self.host_cpus,
            self.pinned_cpu.map_or("null".to_string(), |cpu| cpu.to_string()),
            self.seed,
            self.seconds,
            quote(&self.scratch_filesystem),
            self.device_fsync_us
        )
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn print_run(report: &RunReport) {
    println!(
        "## {} — seed {}, {} load thread(s), phases {:.2}/{:.2}/{:.2} s",
        report.workload,
        report.seed,
        report.load_threads,
        report.phases.warmup.as_secs_f64(),
        report.phases.throughput.as_secs_f64(),
        report.phases.window1.as_secs_f64()
    );
    println!(
        "{:<34} {:>16} {:<6} {:>10} {:>9} {:>6}",
        "metric", "value", "unit", "samples", "spread", "bound"
    );
    for (name, estimate) in &report.metrics {
        let row = metrics::end_to_end(name).expect("run reports only table metrics");
        println!(
            "{:<34} {:>16.4} {:<6} {:>10} {:>8.1}% {:>5.0}%",
            name,
            estimate.value,
            row.unit,
            estimate.samples,
            estimate.spread * 100.0,
            row.bound * 100.0
        );
    }
    let slices: Vec<String> = report
        .slice_rates
        .iter()
        .map(|rate| format!("{rate:.0}"))
        .collect();
    println!("throughput slices (1/s): {}", slices.join(" "));
    for (name, value, unit, samples) in &report.extras {
        println!("{name:<34} {value:>16.4} {unit:<6} {samples:>10}   (not gated)");
    }
    println!(
        "failed_share                       {:>16} of {} attempted{}",
        report.failed,
        report.attempted,
        if report.failed == 0 {
            ""
        } else {
            "   <-- WRONG ANSWERS"
        }
    );
    for failure in &report.failures {
        println!("  failure: {failure}");
    }
}

pub fn print_trace(report: &TraceReport) {
    println!(
        "## {} — traced replay, seed {}",
        report.workload, report.seed
    );
    println!("{:<34} {:>16} {:<6}", "metric", "value", "unit");
    for ((name, value), row) in report.metrics.iter().zip(&PER_LAYER) {
        println!("{name:<34} {value:>16.4} {:<6}", row.unit);
    }
    println!(
        "{} spans written to {}; {} of {} replayed calls disagreed with the oracle",
        report.spans,
        report.trace_file.display(),
        report.failed,
        report.attempted
    );
    for failure in &report.failures {
        println!("  failure: {failure}");
    }
}

/// The driver's result: one JSON object, last line of standard output.
pub fn result_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> String {
    let metrics: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    )
}

pub fn run_result_line(report: &RunReport) -> String {
    result_line(
        report.attempted,
        report.failed,
        report
            .metrics
            .iter()
            .zip(&END_TO_END)
            .map(|((name, e), row)| (*name, e.value, row.unit)),
    )
}

pub fn trace_result_line(report: &TraceReport) -> String {
    result_line(
        report.attempted,
        report.failed,
        report
            .metrics
            .iter()
            .zip(&PER_LAYER)
            .map(|((name, v), row)| (*name, *v, row.unit)),
    )
}

/// The file `run` leaves behind for `compare`.
pub fn run_file(header: &Header, reports: &[RunReport]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|report| {
            let metrics: Vec<String> = report
                .metrics
                .iter()
                .zip(&END_TO_END)
                .map(|((name, e), row)| {
                    format!(
                        "    {}:{{\"value\":{},\"unit\":{},\"samples\":{},\"spread\":{},\"better\":{},\"bound\":{}}}",
                        quote(name),
                        e.value,
                        quote(row.unit),
                        e.samples,
                        e.spread,
                        quote(row.better.as_str()),
                        row.bound
                    )
                })
                .collect();
            format!(
                "  {{\"name\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{\n{}\n  }}}}",
                quote(report.workload),
                report.attempted,
                report.failed,
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\"header\":{},\n\"workloads\":[\n{}\n]}}\n",
        header.json(),
        workloads.join(",\n")
    )
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn text(&self) -> Option<&str> {
        match self {
            Json::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    pub fn object(&self) -> &[(String, Json)] {
        match self {
            Json::Object(fields) => fields,
            _ => &[],
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.space();
        if parser.at != parser.bytes.len() {
            return Err(format!("trailing bytes at offset {}", parser.at));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Text),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.at + 1).ok_or("unterminated escape")?;
                    self.at += 2;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.extend_from_slice(code.to_string().as_bytes());
                            self.at += 4;
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// Compares two `run` files.  Returns the rendered table and whether any
/// gated metric on any workload differs by more than its bound.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut differs = false;
    writeln!(
        out,
        "{:<20} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "b vs a", "bound"
    )
    .expect("writing to a String");
    let workloads_b = b
        .get("workloads")
        .ok_or("second file has no workloads")?
        .array();
    for wa in a
        .get("workloads")
        .ok_or("first file has no workloads")?
        .array()
    {
        let name = wa
            .get("name")
            .and_then(Json::text)
            .ok_or("workload without a name")?;
        let Some(wb) = workloads_b
            .iter()
            .find(|w| w.get("name").and_then(Json::text) == Some(name))
        else {
            writeln!(out, "{name:<20} only in the first file").expect("writing to a String");
            differs = true;
            continue;
        };
        for row in &END_TO_END {
            let field = |w: &Json, key: &str| -> Result<f64, String> {
                w.get("metrics")
                    .and_then(|m| m.get(row.name))
                    .and_then(|m| m.get(key))
                    .and_then(Json::number)
                    .ok_or_else(|| format!("{name}: {} has no numeric {key}", row.name))
            };
            let (va, vb) = (field(wa, "value")?, field(wb, "value")?);
            let spread = field(wa, "spread")?.max(field(wb, "spread")?);
            let change = (vb - va) / va;
            let worse = match row.better {
                Better::Lower => change > 0.0,
                Better::Higher => change < 0.0,
            };
            let verdict = if change.abs() > row.bound {
                differs = true;
                if worse {
                    "DIFFERS (worse)"
                } else {
                    "DIFFERS (better)"
                }
            } else if spread > row.bound {
                "unresolved (in-run spread exceeds the bound)"
            } else {
                "unchanged"
            };
            writeln!(
                out,
                "{name:<20} {:<20} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>5.0}%  {verdict}",
                row.name,
                change * 100.0,
                row.bound * 100.0
            )
            .expect("writing to a String");
        }
        for (w, label) in [(wa, "first"), (wb, "second")] {
            let failed = w.get("failed").and_then(Json::number).unwrap_or(f64::NAN);
            if failed != 0.0 {
                writeln!(out, "{name:<20} failed = {failed} in the {label} file")
                    .expect("writing to a String");
                differs = true;
            }
        }
    }
    Ok((out, differs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_what_the_benchmark_writes() {
        let line = result_line(
            10,
            0,
            [("a.b_c", 1.5, "us"), ("n", 2e-7, "1/s")].into_iter(),
        );
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::number), Some(10.0));
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("a.b_c")
                .and_then(|m| m.get("value"))
                .and_then(Json::number),
            Some(1.5)
        );
        assert_eq!(
            metrics
                .get("n")
                .and_then(|m| m.get("value"))
                .and_then(Json::number),
            Some(2e-7)
        );
        assert_eq!(
            metrics
                .get("n")
                .and_then(|m| m.get("unit"))
                .and_then(Json::text),
            Some("1/s")
        );
        assert_eq!(
            Json::parse(&quote("a\"b\\c\n")).unwrap(),
            Json::Text("a\"b\\c\n".to_string())
        );
    }

    fn run_file_with(ops: f64, spread: f64) -> Json {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let value = if m.name == "ops_per_s" { ops } else { 10.0 };
                format!("\"{}\":{{\"value\":{value},\"spread\":{spread}}}", m.name)
            })
            .collect();
        Json::parse(&format!(
            "{{\"workloads\":[{{\"name\":\"w\",\"failed\":0,\"metrics\":{{{}}}}}]}}",
            metrics.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn compare_flags_only_differences_beyond_the_bound() {
        let bound = metrics::end_to_end("ops_per_s").unwrap().bound;
        let base = run_file_with(1000.0, 0.01);
        let (table, differs) =
            compare(&base, &run_file_with(1000.0 * (1.0 - bound / 2.0), 0.01)).unwrap();
        assert!(!differs, "{table}");
        assert!(table.contains("unchanged"));
        let (table, differs) =
            compare(&base, &run_file_with(1000.0 * (1.0 - bound * 1.5), 0.01)).unwrap();
        assert!(differs, "{table}");
        assert!(table.contains("DIFFERS (worse)"));
        let (table, differs) = compare(&base, &run_file_with(1000.0, bound * 2.0)).unwrap();
        assert!(!differs, "{table}");
        assert!(table.contains("unresolved"));
    }
}
