//! E8 kernel: one-relation [`Store::read`] vs the whole-store
//! [`Store::snapshot`].
//!
//! Shared by the `experiments e8` section and the `--smoke` gate in
//! `tests/smoke.rs`, so the reported numbers come from one code path.
//!
//! The claim under measurement is the API-design payoff of independence:
//! a per-relation read locks **one** shard and copies **one**
//! relation's tuples, so its latency is flat in the number of relations, while a
//! snapshot locks every shard and copies the whole
//! database.  On an independent schema the cheap read is still *sound*
//! (the relation it returns is one some snapshot also contains)
//! — a dependent schema would offer no such shortcut, since global
//! consistency there is not a per-relation property.
//!
//! Unlike E7's caller overlap, the read advantage does **not** depend
//! on parallelism — it comes from touching `1/n` of the data and `1` of
//! `n` locks — so the gap shows even on a single-CPU host.  CPUs are
//! printed alongside for interpretability.

use std::time::{Duration, Instant};

use ids_relational::{Predicate, ReadPlan, SchemeId};
use ids_store::{Store, StoreConfig};
use ids_workloads::families::key_chain;
use ids_workloads::states::random_satisfying_state;

/// One row of the E8 sweep: read and snapshot latency on one store.
pub struct ReadRow {
    /// Relations in the schema.
    pub relations: usize,
    /// Tuples preloaded across the whole store.
    pub preloaded: usize,
    /// Median latency of one barrier-free per-relation read.
    pub read: Duration,
    /// Median latency of one full snapshot barrier.
    pub snapshot: Duration,
    /// `snapshot / read` — how much the barrier costs over the shortcut.
    pub snapshot_over_read: f64,
}

/// Measures one configuration: a `key-chain(relations)` store preloaded
/// with a satisfying state, reads cycling round-robin over relations.
pub fn read_vs_snapshot(relations: usize, preloaded: usize, reps: usize) -> ReadRow {
    let inst = key_chain(relations);
    // Key FDs cap each relation at ~domain distinct tuples; scale the
    // domain with the requested preload so the state actually grows.
    let domain = ((2 * preloaded / relations.max(1)) as u64).max(64);
    let base = random_satisfying_state(&inst.schema, &inst.fds, preloaded, domain, 5);
    let store = Store::open_with(
        &inst.schema,
        &inst.fds,
        StoreConfig {
            initial_state: Some(base),
            ..Default::default()
        },
    )
    .expect("key-chain is independent");

    let n = inst.schema.len();
    let whole = ReadPlan::tuples(Predicate::new());
    let _ = store.read(SchemeId(0), &whole).unwrap(); // warmup
    let mut reads = Vec::with_capacity(reps);
    for i in 0..reps {
        let id = SchemeId::from_index(i % n);
        let t = Instant::now();
        let rel = store.read(id, &whole).unwrap();
        reads.push(t.elapsed());
        std::hint::black_box(rel);
    }
    reads.sort();
    let read = reads[reads.len() / 2];

    let snap_reps = (reps / 8).clamp(3, 32);
    let _ = store.snapshot().unwrap(); // warmup
    let mut snaps = Vec::with_capacity(snap_reps);
    for _ in 0..snap_reps {
        let t = Instant::now();
        let s = store.snapshot().unwrap();
        snaps.push(t.elapsed());
        std::hint::black_box(s);
    }
    snaps.sort();
    let snapshot = snaps[snaps.len() / 2];

    ReadRow {
        relations,
        preloaded,
        read,
        snapshot,
        snapshot_over_read: snapshot.as_secs_f64() / read.as_secs_f64().max(1e-12),
    }
}

/// The full sweep: read latency should stay flat while snapshot latency
/// grows with the database.
pub fn sweep(smoke: bool) -> Vec<ReadRow> {
    let configs: &[(usize, usize, usize)] = if smoke {
        &[(8, 200, 64)]
    } else {
        &[
            (8, 1_000, 512),
            (16, 2_000, 512),
            (16, 10_000, 512),
            (32, 20_000, 512),
        ]
    };
    configs
        .iter()
        .map(|&(relations, preloaded, reps)| read_vs_snapshot(relations, preloaded, reps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_produces_sane_rows() {
        let rows = sweep(true);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.relations, 8);
        assert!(row.read > Duration::ZERO);
        assert!(row.snapshot > Duration::ZERO);
        assert!(row.snapshot_over_read > 0.0);
    }
}
