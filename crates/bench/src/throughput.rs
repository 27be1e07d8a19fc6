//! E7 kernel: concurrent store throughput vs the single-threaded engine.
//!
//! One workload, three consumers: the Criterion bench
//! (`benches/throughput.rs`), the `experiments e7` section, and the
//! `--smoke` gate in `tests/smoke.rs` all call into here, so the numbers
//! they report come from the same code path.
//!
//! The workload is a multi-relation insert stream over `key-chain(n)` —
//! `n` relations, one key FD each.  The baseline is the sequential
//! [`LocalMaintainer`]; the store runs the identical ops through
//! [`Store::apply_batch`] from 1, 2, 4 and 8 caller threads, each owning
//! a disjoint set of relations.  The claim is Theorem 3's: N callers on
//! N relations never meet — a relation is a lock its caller runs, and no
//! two callers here ever want the same one.
//!
//! **Interpreting speedups:** callers only overlap when the host exposes
//! more than one CPU ([`available_cpus`] is printed alongside the
//! tables).  The 1-caller row is the store's whole per-op overhead over
//! the sequential engine (batch grouping, one lock scope per relation,
//! metrics); on a single-CPU host the multi-caller rows add only
//! time-slicing, so they should sit level with it, not below it.

use std::time::{Duration, Instant};

use ids_core::{analyze, LocalMaintainer};
use ids_relational::DatabaseState;
use ids_store::{Store, StoreConfig, StoreOp};
use ids_workloads::families::{key_chain, FamilyInstance};
use ids_workloads::states::{insert_stream, random_satisfying_state};

/// The throughput workload: a schema family instance, a preloaded
/// satisfying state, and an insert-stream to push through an engine.
pub struct ThroughputWorkload {
    /// The (independent) schema family instance.
    pub inst: FamilyInstance,
    /// Preloaded satisfying state, shared by every engine under test.
    pub base: DatabaseState,
    /// The operations, in submission order.
    pub ops: Vec<StoreOp>,
}

/// Default workload sizes: `(relations, preload, ops)`.
pub fn workload_sizes(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (8, 64, 2_000)
    } else {
        (16, 2_000, 200_000)
    }
}

/// Builds the standard multi-relation insert workload.
pub fn build_workload(relations: usize, preload: usize, n_ops: usize) -> ThroughputWorkload {
    let inst = key_chain(relations);
    let base = random_satisfying_state(&inst.schema, &inst.fds, preload, 64, 1);
    let ops = insert_stream(&inst.schema, n_ops, 64, 2)
        .into_iter()
        .map(|op| StoreOp::Insert {
            scheme: op.scheme,
            tuple: op.tuple,
        })
        .collect();
    ThroughputWorkload { inst, base, ops }
}

/// Runs the ops through a fresh sequential [`LocalMaintainer`]; returns
/// the elapsed wall-clock time of the op loop alone (engine construction
/// and op cloning excluded — the store runs are measured the same way).
pub fn run_local(w: &ThroughputWorkload) -> Duration {
    let analysis = analyze(&w.inst.schema, &w.inst.fds);
    let mut m = LocalMaintainer::from_analysis(&w.inst.schema, &analysis, w.base.clone())
        .expect("family is independent");
    let ops = w.ops.clone();
    let t = Instant::now();
    for op in ops {
        match op {
            StoreOp::Insert { scheme, tuple } => {
                let _ = std::hint::black_box(m.insert(scheme, tuple).unwrap());
            }
            StoreOp::Remove { scheme, tuple } => {
                let _ = std::hint::black_box(m.remove(scheme, &tuple).unwrap());
            }
        }
    }
    t.elapsed()
}

/// Runs the ops through a fresh [`Store`] from `callers` threads: thread
/// `i` owns the relations with `scheme % callers == i` and submits their
/// ops, in stream order, `batch` at a time.  Returns the elapsed time of
/// the apply phase alone (open/shutdown, partitioning and op cloning
/// excluded).
pub fn run_store(w: &ThroughputWorkload, callers: usize, batch: usize) -> Duration {
    let store = Store::open_with(
        &w.inst.schema,
        &w.inst.fds,
        StoreConfig {
            initial_state: Some(w.base.clone()),
            ..Default::default()
        },
    )
    .expect("family is independent");
    let callers = callers.max(1);
    let mut owned: Vec<Vec<StoreOp>> = vec![Vec::new(); callers];
    for op in &w.ops {
        owned[op.scheme().index() % callers].push(op.clone());
    }
    let scripts: Vec<Vec<Vec<StoreOp>>> = owned
        .iter()
        .map(|ops| ops.chunks(batch).map(<[StoreOp]>::to_vec).collect())
        .collect();
    let t = Instant::now();
    std::thread::scope(|s| {
        for script in scripts {
            let store = &store;
            s.spawn(move || {
                for chunk in script {
                    let _ = std::hint::black_box(store.apply_batch(chunk).unwrap());
                }
            });
        }
    });
    let elapsed = t.elapsed();
    drop(store);
    elapsed
}

/// One row of the E7 sweep.
pub struct ThroughputRow {
    /// Engine label (`local` or `store`).
    pub engine: &'static str,
    /// Caller threads (1 for the sequential engine).
    pub callers: usize,
    /// Operations pushed.
    pub ops: usize,
    /// Wall-clock time of the op loop.
    pub elapsed: Duration,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Speedup over the sequential engine (1.0 for the baseline itself).
    pub speedup: f64,
}

/// CPUs the host exposes — the hard ceiling on caller overlap.
pub fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The full sweep: sequential baseline, then the store from 1/2/4/8
/// caller threads.
pub fn sweep(smoke: bool) -> Vec<ThroughputRow> {
    let (relations, preload, n_ops) = workload_sizes(smoke);
    let w = build_workload(relations, preload, n_ops);
    let batch = if smoke { 256 } else { 4_096 };
    let n = w.ops.len();
    let mut rows = Vec::new();

    let local = run_local(&w);
    let base_secs = local.as_secs_f64();
    rows.push(ThroughputRow {
        engine: "local",
        callers: 1,
        ops: n,
        elapsed: local,
        ops_per_sec: n as f64 / base_secs,
        speedup: 1.0,
    });
    for callers in [1usize, 2, 4, 8] {
        let d = run_store(&w, callers, batch);
        let secs = d.as_secs_f64();
        rows.push(ThroughputRow {
            engine: "store",
            callers,
            ops: n,
            elapsed: d,
            ops_per_sec: n as f64 / secs,
            speedup: base_secs / secs,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_ops_route_to_many_relations() {
        let w = build_workload(4, 16, 200);
        let mut touched = std::collections::HashSet::new();
        for op in &w.ops {
            touched.insert(op.scheme());
        }
        assert!(touched.len() >= 3, "ops should spread across relations");
    }

    #[test]
    fn engines_agree_on_the_workload() {
        // The timing harness must drive both engines to the same state,
        // otherwise the "speedup" compares different work.
        let w = build_workload(4, 32, 300);
        let analysis = analyze(&w.inst.schema, &w.inst.fds);
        let mut m =
            LocalMaintainer::from_analysis(&w.inst.schema, &analysis, w.base.clone()).unwrap();
        for op in &w.ops {
            match op {
                StoreOp::Insert { scheme, tuple } => {
                    let _ = m.insert(*scheme, tuple.clone()).unwrap();
                }
                StoreOp::Remove { scheme, tuple } => {
                    let _ = m.remove(*scheme, tuple).unwrap();
                }
            }
        }
        let store = Store::open_with(
            &w.inst.schema,
            &w.inst.fds,
            StoreConfig {
                initial_state: Some(w.base.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        for chunk in w.ops.chunks(64) {
            store.apply_batch(chunk.to_vec()).unwrap();
        }
        let state = store.shutdown().unwrap();
        for (id, rel) in m.state().iter() {
            assert!(rel.set_eq(state.relation(id)));
        }
    }
}
