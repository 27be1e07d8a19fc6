//! E8 kernel: one-relation read vs the whole-store [`Store::snapshot`].
//!
//! The claim is the API-design payoff of independence: a per-relation
//! read locks **one** shard and ships **one** relation's tuples, while
//! a snapshot locks every shard and copies the whole database.  On an
//! independent schema the cheap read is still *sound* (the relation it
//! returns is one some snapshot also contains) — a dependent schema
//! would offer no such shortcut, since global consistency there is not
//! a per-relation property.
//!
//! The read is timed on the path the string-level reads take:
//! [`ids_store::Era::gather`], which visits the relation's rows in place under its
//! lock and appends their values to one reused buffer, with no
//! allocation per row.  The shipped-tuple counts are exact and asserted
//! by `experiments e8`: a read returns `|R|`, a snapshot `Σ|R|`; so is
//! the ordering of the latencies, a snapshot never cheaper than a read.

use std::time::{Duration, Instant};

use ids_relational::{Predicate, SchemeId, Value};
use ids_store::{Schema, Store, StoreConfig};
use ids_workloads::families::key_chain;
use ids_workloads::states::random_satisfying_state;

/// One row of the E8 sweep: read and snapshot on one store.
pub struct ReadRow {
    /// Relations in the schema.
    pub relations: usize,
    /// Tuples stored across the whole store (`Σ|R|`).
    pub stored: usize,
    /// Median latency of one barrier-free per-relation read, gathered
    /// into a reused buffer.
    pub read: Duration,
    /// Median latency of one full snapshot barrier.
    pub snapshot: Duration,
    /// `snapshot / read`.
    pub snapshot_over_read: f64,
    /// Reads timed.
    pub reads: usize,
    /// Tuples those reads returned.
    pub read_tuples: usize,
    /// `Σ |R|` over the relations those reads named — what they should
    /// have returned.
    pub read_expected: usize,
    /// Tuples one snapshot returned.
    pub snapshot_tuples: usize,
}

/// Measures one configuration: a `key-chain(relations)` store preloaded
/// with a satisfying state, reads cycling round-robin over relations.
fn read_vs_snapshot(relations: usize, preloaded: usize, reps: usize) -> ReadRow {
    let inst = key_chain(relations);
    // Key FDs cap each relation at ~domain distinct tuples; scale the
    // domain with the requested preload so the state actually grows.
    let domain = ((2 * preloaded / relations.max(1)) as u64).max(64);
    let base = random_satisfying_state(&inst.schema, &inst.fds, preloaded, domain, 5);
    let sizes: Vec<usize> = base.iter().map(|(_, rel)| rel.len()).collect();
    let store = Store::open(
        Schema::canonical(&inst.schema, &inst.fds),
        StoreConfig {
            initial_state: Some(base),
            ..Default::default()
        },
    )
    .expect("key-chain is independent");

    let n = inst.schema.len();
    let whole = Predicate::new();
    // One read: relation `id` gathered into the reused buffer.
    let read = |id: SchemeId, buf: &mut Vec<Value>| -> usize {
        buf.clear();
        store.era().unwrap().gather(id, &whole, buf).unwrap()
    };
    let mut buf = Vec::new();
    for i in 0..n {
        read(SchemeId::from_index(i), &mut buf); // warmup, and sizes the buffer
    }
    let mut reads = Vec::with_capacity(reps);
    let (mut read_tuples, mut read_expected) = (0, 0);
    for i in 0..reps {
        let id = SchemeId::from_index(i % n);
        let t = Instant::now();
        read_tuples += read(id, &mut buf);
        reads.push(t.elapsed());
        read_expected += sizes[id.index()];
        std::hint::black_box(&buf);
    }
    reads.sort();
    let read = reads[reads.len() / 2];

    let snap_reps = (reps / 8).clamp(3, 32);
    let snapshot_tuples = store.snapshot().unwrap().total_tuples(); // warmup
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
        stored: sizes.iter().sum(),
        read,
        snapshot,
        snapshot_over_read: snapshot.as_secs_f64() / read.as_secs_f64().max(1e-12),
        reads: reps,
        read_tuples,
        read_expected,
        snapshot_tuples,
    }
}

/// The full sweep over growing stores.
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
