//! E9 kernel timings: write-ahead-logged store throughput under each
//! sync policy vs the in-memory store, plus a recovery timing
//! (Criterion precision companion to `experiments e9`).
//!
//! The interesting ratio is `wal-batch / memory`: group commit at 4096
//! records should keep the durable store within ~2× of the in-memory
//! one on this insert kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ids_bench::durability::{run_recovery, run_store_durable};
use ids_bench::throughput::{build_workload, run_store};
use ids_store::SyncPolicy;

fn scratch(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-e9-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn bench_durability(c: &mut Criterion) {
    let w = build_workload(8, 256, 8_000);
    let mut g = c.benchmark_group("e9_durability");

    g.bench_function("store_memory", |b| {
        b.iter_custom(|iters| (0..iters).map(|_| run_store(&w, 1, 1_024)).sum());
    });
    for (label, sync) in [
        ("wal_never", SyncPolicy::Never),
        ("wal_batch_4096", SyncPolicy::Batch(4_096)),
        ("wal_always", SyncPolicy::Always),
    ] {
        g.bench_with_input(BenchmarkId::new("store", label), &sync, |b, &sync| {
            b.iter_custom(|iters| {
                (0..iters)
                    .map(|_| {
                        let root = scratch(label);
                        let d = run_store_durable(&w, 1_024, sync, &root);
                        let _ = std::fs::remove_dir_all(&root);
                        d
                    })
                    .sum()
            });
        });
    }
    g.bench_function("recovery", |b| {
        b.iter_custom(|iters| {
            (0..iters)
                .map(|_| {
                    let root = scratch("recovery");
                    let _ = run_store_durable(&w, 1_024, SyncPolicy::Batch(4_096), &root);
                    let row = run_recovery(&w, &root);
                    let _ = std::fs::remove_dir_all(&root);
                    row.elapsed
                })
                .sum()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
