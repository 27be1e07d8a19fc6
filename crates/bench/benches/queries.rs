//! E10 kernel timings: pushed-down point queries vs `read`+client-side
//! filter vs full snapshot on a 4-shard key-chain store (Criterion
//! precision companion to `experiments e10`).
//!
//! The gap is index-vs-scan plus shipped-tuples, not parallelism, so the
//! numbers are meaningful even on a single-CPU host.

use criterion::{criterion_group, criterion_main, Criterion};
use ids_bench::queries::{build, probe_predicate, QueryBench};

fn bench_queries(c: &mut Criterion) {
    // Criterion-sized workload: one mid-size configuration.
    let bench = build(8, 2_000, 64);
    let QueryBench { store, lookups, .. } = &bench;
    let mut g = c.benchmark_group("e10_queries");
    let mut next = {
        let mut i = 0usize;
        move || {
            let op = &lookups[i % lookups.len()];
            i += 1;
            (op, probe_predicate(op))
        }
    };

    g.bench_function("pushed_down_point_query", |b| {
        b.iter(|| {
            let (op, pred) = next();
            std::hint::black_box(store.query(op.scheme, &pred).unwrap());
        })
    });
    g.bench_function("read_plus_client_filter", |b| {
        b.iter(|| {
            let (op, pred) = next();
            std::hint::black_box(bench.read_then_filter(op, &pred));
        })
    });
    g.bench_function("snapshot_plus_filter", |b| {
        b.iter(|| {
            let (op, pred) = next();
            let snap = store.snapshot().unwrap();
            std::hint::black_box(snap.relation(op.scheme).filter_tuples(&pred));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
