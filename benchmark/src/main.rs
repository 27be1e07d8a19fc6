//! The repository's benchmark.  Four ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — what
//!   `BENCHMARK.json`'s command runs: one workload, one JSON result as the
//!   last line of standard output (end-to-end metrics with `--trace 0`,
//!   per-layer metrics with `--trace 1`);
//! * `run [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]` — every
//!   workload with tracing off, every end-to-end metric printed by name,
//!   and a file `compare` can read;
//! * `trace [--seed <n>] [--smoke]` — every workload's traced replay;
//! * `compare <a.json> <b.json>` — non-zero exit when two `run` files
//!   differ by more than a metric's bound.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ids_benchmark::workloads::{self, Workload, WORKLOADS};
use ids_benchmark::{report, stats, trace, ScratchDir};

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: what `run` uses unless told otherwise.
const DEFAULT_SECONDS: f64 = 30.0;
/// Mix ops the traced replay takes per second of `--seconds`.
const TRACE_OPS_PER_SECOND: f64 = 1_000.0;
const SMOKE_SECONDS: f64 = 4.0;
const SMOKE_GROUPS: u64 = 50;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
            smoke: false,
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if arg == "--smoke" {
                args.smoke = true;
            } else if let Some(key) = arg.strip_prefix("--") {
                let value = raw.next().ok_or_else(|| format!("--{key} needs a value"))?;
                args.options.push((key.to_string(), value));
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    fn option(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.option(key)
            .map(|v| v.parse().map_err(|_| format!("--{key} {v}: not a number")))
            .transpose()
    }
}

/// Where output and scratch files go: the benchmark's own directory,
/// whether the command runs from the repository root or from `benchmark/`.
fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Sizes one invocation runs at.
struct Sizes {
    seconds: f64,
    smoke: bool,
}

impl Sizes {
    fn groups(&self, w: &Workload) -> u64 {
        if self.smoke {
            w.groups.min(SMOKE_GROUPS)
        } else {
            w.groups
        }
    }

    fn trace_ops(&self) -> usize {
        (self.seconds * TRACE_OPS_PER_SECOND) as usize
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let command = args.positional.first().map(String::as_str);
    if command == Some("compare") {
        let [_, a, b] = args.positional.as_slice() else {
            return Err("usage: compare <a.json> <b.json>".to_string());
        };
        let load = |path: &String| -> Result<report::Json, String> {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            report::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        let (table, differs) = report::compare(&load(a)?, &load(b)?)?;
        print!("{table}");
        return Ok(if differs {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let seed: u64 = args.number("seed")?.unwrap_or(1);
    let sizes = Sizes {
        seconds: match args.number("seconds")? {
            Some(seconds) => seconds,
            None if args.smoke => SMOKE_SECONDS,
            None => DEFAULT_SECONDS,
        },
        smoke: args.smoke,
    };
    if sizes.seconds.is_nan() || sizes.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let out = out_dir();
    // Durable databases live here; removed when the run ends.
    let scratch = ScratchDir::new(&out, &format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    // Counted before pinning, which leaves one CPU visible.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned_cpu = stats::pin_to_one_cpu();
    let header = report::Header::gather(seed, sizes.seconds, host_cpus, pinned_cpu, &scratch.0)?;

    match command {
        None => {
            let name = args
                .option("workload")
                .ok_or("--workload <name> is required")?;
            let w = workloads::workload(name).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; known: {}", names.join(", "))
            })?;
            header.print();
            let line = match args.option("trace").unwrap_or("0") {
                "0" => {
                    let report = workloads::run(
                        w,
                        seed,
                        sizes.seconds,
                        sizes.groups(w),
                        header.host_cpus,
                        &scratch.0,
                    )?;
                    report::print_run(&report);
                    report::run_result_line(&report)
                }
                "1" => {
                    let report = trace::run(
                        w,
                        seed,
                        sizes.groups(w),
                        sizes.trace_ops(),
                        &scratch.0,
                        &out,
                    )?;
                    report::print_trace(&report);
                    report::trace_result_line(&report)
                }
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            println!("{line}");
        }
        Some("run") => {
            header.print();
            let mut reports = Vec::new();
            for w in &WORKLOADS {
                let report = workloads::run(
                    w,
                    seed,
                    sizes.seconds,
                    sizes.groups(w),
                    header.host_cpus,
                    &scratch.0,
                )?;
                report::print_run(&report);
                reports.push(report);
            }
            let file = match args.option("out") {
                Some(path) => PathBuf::from(path),
                None => out.join(format!("run-{seed}.json")),
            };
            std::fs::write(&file, report::run_file(&header, &reports))
                .map_err(|e| format!("{}: {e}", file.display()))?;
            println!("# written {}", file.display());
        }
        Some("trace") => {
            header.print();
            for w in &WORKLOADS {
                let report = trace::run(
                    w,
                    seed,
                    sizes.groups(w),
                    sizes.trace_ops(),
                    &scratch.0,
                    &out,
                )?;
                report::print_trace(&report);
            }
        }
        Some(other) => {
            return Err(format!(
                "unknown command {other}; expected run, trace or compare"
            ))
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("ids-benchmark: {e}");
        ExitCode::FAILURE
    })
}
