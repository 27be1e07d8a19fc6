//! E7 kernel timings: concurrent store throughput from 1/2/4/8 caller
//! threads (each owning a disjoint set of relations) vs the
//! single-threaded local engine, on the shared multi-relation insert
//! workload (Criterion precision companion to `experiments e7`).
//!
//! Caller speedups require real CPUs; on a single-CPU host the store
//! rows measure batching and locking overhead, not parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ids_bench::throughput::{build_workload, run_local, run_store};

fn bench_throughput(c: &mut Criterion) {
    // Criterion-sized workload: big enough to amortize batching, small
    // enough for the per-iteration model.
    let w = build_workload(8, 256, 8_000);
    let mut g = c.benchmark_group("e7_throughput");

    g.bench_function("local_single_thread", |b| {
        b.iter_custom(|iters| (0..iters).map(|_| run_local(&w)).sum());
    });
    for callers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("store", callers), &callers, |b, &n| {
            b.iter_custom(|iters| (0..iters).map(|_| run_store(&w, n, 1_024)).sum());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
