//! Measurement primitives that touch no product code: the counting
//! allocator, process CPU time, quantiles, and the `Estimate` every
//! reported number travels in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with two relaxed counters in front of it: live
/// heap bytes and allocation calls.  Exact where RSS is not (RSS keeps
/// whatever earlier phases touched).
pub struct CountingAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer; the counters are statistics and guard no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap bytes currently allocated by the whole process.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocation calls (`alloc` + `realloc`) made so far by the whole process.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Process CPU time (user + system, all threads) in microseconds, from
/// `/proc/self/stat`.  Tick resolution (10 ms), so only differences over
/// seconds are meaningful.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after ')'.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // USER_HZ is 100 on every Linux ABI Rust targets.
    (ticks(11) + ticks(12)) * 10_000
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread spawned after the call, to
/// the lowest-numbered CPU it is allowed on; returns that CPU, or `None`
/// when the kernel refuses (the run then goes on unpinned).
///
/// Why: on the 2-vCPU sandbox a thread woken on the *other*, halted vCPU
/// waits ~40 µs for it to come back, and the scheduler flips between
/// same-CPU and cross-CPU hand-offs from run to run.  One request crosses
/// five threads, so unpinned window-1 latency read 134–184 µs where the
/// pinned one reads 27–31 µs (README, "Calibration").  Pinned numbers
/// are the software's path length; parallel speed-up is not measured.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a live, writable buffer of exactly `bytes`
    // bytes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = allowed.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + allowed[word].trailing_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly `bytes` bytes that the
    // call only reads; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

/// The `q`-quantile of `sorted` by linear interpolation (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let at = q * (n - 1) as f64;
            let lo = at.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile of unsorted `values`.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    quantile(&sorted(values), q)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Interquartile range of `values` as a share of their median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let m = quantile(&s, 0.5);
    if s.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quantile(&s, 0.75) - quantile(&s, 0.25)) / m.abs()
}

/// `iqr_share` of a time series with its local trend removed: each
/// interior point is compared with the mean of its two neighbours.  The
/// write workloads slow down as their relations grow, and that drift is
/// the product's behaviour, not measurement noise.  Scaled so that
/// trend-free noise reads the same as under `iqr_share`.
pub fn trendless_iqr_share(series: &[f64]) -> f64 {
    if series.len() < 3 {
        return iqr_share(series);
    }
    let m = median(series);
    if m == 0.0 {
        return 0.0;
    }
    let residuals: Vec<f64> = series
        .windows(3)
        .map(|w| w[1] - (w[0] + w[2]) / 2.0)
        .collect();
    let s = sorted(&residuals);
    // var(x1 - (x0 + x2) / 2) = 1.5 var(x) for independent noise.
    (quantile(&s, 0.75) - quantile(&s, 0.25)) / m.abs() / 1.5f64.sqrt()
}

/// One reported number: the value, how many raw samples stand behind it,
/// and the spread seen inside this run (IQR ÷ median of the run's own
/// sub-estimates).  `compare` calls a difference "unresolved" when this
/// spread is wider than the metric's bound.
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    pub value: f64,
    pub samples: u64,
    pub spread: f64,
}

impl Estimate {
    /// Median of repeated measurements of one quantity.
    pub fn of_slices(slices: &[f64], samples: u64) -> Self {
        Estimate {
            value: median(slices),
            samples,
            spread: iqr_share(slices),
        }
    }

    /// The quiet percentile of raw latency samples (ns in, µs out).  The
    /// in-run spread is taken over the same percentile of ten consecutive
    /// chunks of the samples.
    pub fn quiet_latency_us(samples_ns: &[u64]) -> Self {
        let chunk = (samples_ns.len() / 10).max(1);
        let chunk_values: Vec<f64> = samples_ns
            .chunks(chunk)
            .map(|c| percentile_us(c, QUIET_PERCENTILE))
            .collect();
        Estimate {
            value: percentile_us(samples_ns, QUIET_PERCENTILE),
            samples: samples_ns.len() as u64,
            spread: iqr_share(&chunk_values),
        }
    }
}

/// The percentile every reported latency is read at.
///
/// The sandbox's host slows the guest by ~1.5x in bursts of 0.1-2 s that
/// cover anything from 5 % to 90 % of a run (README, "Calibration"), so a
/// run's latency samples are a mixture of a quiet and a disturbed mode and
/// the median jumps between the two.  Over 24 runs of one workload the
/// p50 of an insert read 9.0-12.7 us, its p10 8.2-9.2 us: the 10th
/// percentile stays in the quiet mode, which is the software's own cost.
pub const QUIET_PERCENTILE: f64 = 10.0;

/// `p`-th percentile (0..=100) of raw ns samples, in µs.
pub fn percentile_us(samples_ns: &[u64], p: f64) -> f64 {
    let mut v: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1000.0).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    quantile(&v, p / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_steady_drift_is_not_spread() {
        let ramp: Vec<f64> = (0..24).map(|i| 25_000.0 - 400.0 * i as f64).collect();
        assert!(iqr_share(&ramp) > 0.2);
        assert!(trendless_iqr_share(&ramp) < 1e-9);
        let jitter: Vec<f64> = ramp
            .iter()
            .enumerate()
            .map(|(i, v)| v + if i % 2 == 0 { 500.0 } else { -500.0 })
            .collect();
        assert!(trendless_iqr_share(&jitter) > 0.01);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile_of(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(percentile_us(&[1_000, 2_000, 3_000], 50.0), 2.0);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }
}
