//! The paper's reproduction, asserted.  The `experiments` binary runs
//! the worked examples (X1–X3) and the claims built on Theorem 3
//! (E1–E14), and every section `assert!`s its claim, so
//! `tests/smoke.rs` fails when one regresses.  This crate holds what
//! those sections share: wall-clock timing with warmup and median-of-N,
//! table [`Cell`]s with units, the reporter that prints them and mirrors
//! them to `BENCH_<section>.json` ([`json`]), and the kernels too large
//! to inline: E8 read vs snapshot ([`reads`]), E10 query pushdown
//! ([`queries`]), E12 metrics on/off ([`obs`]), E13 read replicas
//! ([`replica`]) and E14 planned joins ([`joins`]).
//!
//! Absolute store, wire and durable throughput are measured by the
//! separate `benchmark/` package, not here.

#![warn(missing_docs)]

pub mod joins;
pub mod json;
pub mod obs;
pub mod queries;
pub mod reads;
pub mod replica;

use std::fmt;
use std::time::{Duration, Instant};

/// Runs `f` once for warmup, then `reps` times, returning the median
/// duration.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    f(); // warmup
    let mut samples: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Formats a duration compactly (µs/ms/s).
pub(crate) fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.3}s", us / 1_000_000.0)
    }
}

/// Growth-ratio helper: consecutive ratios of a series (for judging
/// polynomial vs. exponential shapes in the tables).
pub fn growth_ratios(series: &[f64]) -> Vec<f64> {
    series
        .windows(2)
        .map(|w| if w[0] > 0.0 { w[1] / w[0] } else { f64::NAN })
        .collect()
}

/// CPUs the host exposes, stamped on every section's JSON.
pub(crate) fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The unit of a numeric [`Cell`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// A duration in nanoseconds.
    Ns,
    /// A count of things (tuples, rows, keys, ops); a mean may be
    /// fractional.
    Count,
    /// A dimensionless ratio.
    Ratio,
    /// A rate per second.
    PerSec,
}

impl Unit {
    /// The unit's name in `BENCH_*.json`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
            Unit::PerSec => "1/s",
        }
    }
}

/// One table cell: text, or a number with its unit.  Printed for
/// people (`2.6µs`, `24.6x`), written to JSON as
/// `{"value": n, "unit": "…"}`.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label or a verdict.
    Text(String),
    /// A measured or counted number.
    Value(f64, Unit),
}

impl Cell {
    /// A duration.
    pub fn ns(d: Duration) -> Cell {
        Cell::Value(d.as_nanos() as f64, Unit::Ns)
    }

    /// An exact count.
    pub fn count(n: usize) -> Cell {
        Cell::Value(n as f64, Unit::Count)
    }

    /// A ratio.
    pub fn ratio(r: f64) -> Cell {
        Cell::Value(r, Unit::Ratio)
    }

    /// A rate per second.
    pub fn per_sec(r: f64) -> Cell {
        Cell::Value(r, Unit::PerSec)
    }

    /// `yes` or `no`.
    pub fn yn(b: bool) -> Cell {
        Cell::from(if b { "yes" } else { "no" })
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Cell::Text(ref s) => f.write_str(s),
            Cell::Value(v, Unit::Ns) => f.write_str(&fmt_duration(Duration::from_nanos(v as u64))),
            Cell::Value(v, Unit::Count) if v.fract() == 0.0 => write!(f, "{v:.0}"),
            Cell::Value(v, Unit::Count) => write!(f, "{v:.2}"),
            Cell::Value(v, Unit::Ratio) => write!(f, "{v:.1}x"),
            Cell::Value(v, Unit::PerSec) if v >= 1e6 => write!(f, "{:.2} Mops/s", v / 1e6),
            Cell::Value(v, Unit::PerSec) => write!(f, "{v:.0}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_timing_is_positive() {
        let d = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting() {
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with("s"));
    }

    #[test]
    fn ratios() {
        let r = growth_ratios(&[1.0, 2.0, 8.0]);
        assert_eq!(r, vec![2.0, 4.0]);
    }

    #[test]
    fn cells_print_as_the_tables_always_have() {
        assert_eq!(Cell::ns(Duration::from_nanos(2_600)).to_string(), "2.6µs");
        assert_eq!(Cell::count(2374).to_string(), "2374");
        assert_eq!(Cell::Value(0.82, Unit::Count).to_string(), "0.82");
        assert_eq!(Cell::ratio(24.63).to_string(), "24.6x");
        assert_eq!(Cell::per_sec(6_910_000.0).to_string(), "6.91 Mops/s");
        assert_eq!(Cell::per_sec(8343.2).to_string(), "8343");
        assert_eq!(Cell::yn(true).to_string(), "yes");
    }
}
