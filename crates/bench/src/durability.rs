//! E9 kernel: write-ahead-logged throughput vs the in-memory store,
//! plus recovery time.
//!
//! Shared by the `experiments e9` section, the Criterion bench
//! (`benches/durability.rs`) and the `--smoke` gate in
//! `tests/smoke.rs`, so every reported number comes from one code path.
//!
//! Two claims under measurement:
//!
//! * **Logging overhead** — on the E7 insert kernel, a durable store
//!   with `SyncPolicy::Batch(4096)` (group commit) should stay within
//!   ~2× of the in-memory store: the log append is one buffered `write`
//!   per accepted op, and the fsync amortizes over thousands of records.
//!   `SyncPolicy::Always` pays one fsync per applied batch and bounds
//!   the cost of full ack-implies-durable semantics.
//! * **Recovery time** — reopening replays snapshot + per-relation log
//!   tails through the normal probe/commit path; the kernel reports
//!   records/s so the cost of crash recovery is a tracked number, not a
//!   surprise.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ids_store::{DurableConfig, Store, StoreConfig, SyncPolicy};

use crate::throughput::{build_workload, run_store, workload_sizes, ThroughputWorkload};

/// One row of the E9 throughput comparison.
pub struct DurabilityRow {
    /// Mode label (`store` for the in-memory baseline, `wal-…` for the
    /// logged runs).
    pub mode: &'static str,
    /// Operations pushed.
    pub ops: usize,
    /// Wall-clock time of the batched apply loop.
    pub elapsed: Duration,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Slowdown versus the in-memory store (1.0 for the baseline;
    /// the acceptance target for `wal-batch` is ≤ ~2×).
    pub overhead: f64,
}

/// The recovery measurement attached to an E9 sweep.
pub struct RecoveryRow {
    /// Log records replayed through probe/commit.
    pub records: u64,
    /// Tuples in the recovered state.
    pub tuples: usize,
    /// Wall-clock time of the reopen (recovery included).
    pub elapsed: Duration,
    /// Replay rate in records per second.
    pub records_per_sec: f64,
}

/// A scratch directory for one durable run, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("ids-e9-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        ScratchDir(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the shared workload through a fresh durable store; returns the
/// elapsed time of the batched apply loop alone (open, recovery and op
/// cloning excluded — identical measurement discipline to
/// [`run_store`]).
pub fn run_store_durable(
    w: &ThroughputWorkload,
    batch: usize,
    sync: SyncPolicy,
    root: &std::path::Path,
) -> Duration {
    let store = Store::open_durable_with(
        root,
        &w.inst.schema,
        &w.inst.fds,
        DurableConfig {
            store: StoreConfig {
                initial_state: Some(w.base.clone()),
                ..Default::default()
            },
            sync,
            ..Default::default()
        },
    )
    .expect("family is independent");
    let chunks: Vec<_> = w.ops.chunks(batch).map(|c| c.to_vec()).collect();
    let t = Instant::now();
    for chunk in chunks {
        let _ = std::hint::black_box(store.apply_batch(chunk).unwrap());
    }
    let elapsed = t.elapsed();
    drop(store);
    elapsed
}

/// Times a recovery of the durable directory left behind by
/// [`run_store_durable`].
pub fn run_recovery(w: &ThroughputWorkload, root: &std::path::Path) -> RecoveryRow {
    let t = Instant::now();
    let store = Store::open_durable(root, &w.inst.schema, &w.inst.fds).expect("recover");
    let elapsed = t.elapsed();
    let state = store.shutdown().unwrap();
    let tuples = state.total_tuples();
    // Replayed records = effective ops = tuples gained over the preload
    // (the kernel is insert-only), read back from the logs' seqnos via
    // the recovered state size.
    let records = tuples.saturating_sub(w.base.total_tuples()) as u64;
    RecoveryRow {
        records,
        tuples,
        elapsed,
        records_per_sec: records as f64 / elapsed.as_secs_f64().max(1e-12),
    }
}

/// The E9 sweep: in-memory baseline, then the durable store under each
/// sync policy, then one recovery timing.  All runs share the E7
/// workload and batch size.
pub fn sweep(smoke: bool) -> (Vec<DurabilityRow>, RecoveryRow) {
    let (relations, preload, n_ops) = workload_sizes(smoke);
    let w = build_workload(relations, preload, n_ops);
    let batch = if smoke { 256 } else { 4_096 };
    let n = w.ops.len();
    let mut rows = Vec::new();

    let base = run_store(&w, 1, batch);
    let base_secs = base.as_secs_f64();
    rows.push(DurabilityRow {
        mode: "store (memory)",
        ops: n,
        elapsed: base,
        ops_per_sec: n as f64 / base_secs,
        overhead: 1.0,
    });
    for (mode, sync) in [
        ("wal-never", SyncPolicy::Never),
        ("wal-batch(4096)", SyncPolicy::Batch(4_096)),
        ("wal-always", SyncPolicy::Always),
    ] {
        let scratch = ScratchDir::new(mode);
        let d = run_store_durable(&w, batch, sync, &scratch.0);
        let secs = d.as_secs_f64();
        rows.push(DurabilityRow {
            mode,
            ops: n,
            elapsed: d,
            ops_per_sec: n as f64 / secs,
            overhead: secs / base_secs,
        });
    }
    // Recovery of the batch-policy directory (freshly rebuilt so the
    // timing includes a realistic log tail).
    let scratch = ScratchDir::new("recovery");
    let _ = run_store_durable(&w, batch, SyncPolicy::Batch(4_096), &scratch.0);
    let recovery = run_recovery(&w, &scratch.0);
    (rows, recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_runs_reach_the_same_state_as_memory() {
        // The overhead comparison is only honest if both engines do the
        // same work: equal final states, op for op.
        let w = build_workload(4, 32, 400);
        let scratch = ScratchDir::new("agree");
        let _ = run_store_durable(&w, 64, SyncPolicy::Batch(64), &scratch.0);
        let durable = Store::open_durable(&scratch.0, &w.inst.schema, &w.inst.fds)
            .unwrap()
            .shutdown()
            .unwrap();

        let mem = Store::open_with(
            &w.inst.schema,
            &w.inst.fds,
            StoreConfig {
                initial_state: Some(w.base.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        for chunk in w.ops.chunks(64) {
            mem.apply_batch(chunk.to_vec()).unwrap();
        }
        let expected = mem.shutdown().unwrap();
        for (id, rel) in expected.iter() {
            assert!(rel.set_eq(durable.relation(id)));
        }
    }
}
