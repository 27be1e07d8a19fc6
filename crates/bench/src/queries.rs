//! E10 kernel: pushed-down filtered queries vs `read` + client-side
//! filter vs the full `snapshot` barrier.
//!
//! The claim is the read-side payoff of independence *plus* pushdown: a
//! filtered read needs no barrier (E8 already shows that), and pushing
//! the predicate into the owning shard means
//!
//! 1. a point lookup on a key FD's left-hand side is answered in O(1)
//!    from the enforcement hash index the shard maintains anyway —
//!    instead of copying the whole relation and filtering client-side —
//!    and
//! 2. only *matching* tuples ship: at most one per probe on a key,
//!    against the whole relation for `read` + filter.
//!
//! The shipped counts are exact and asserted by `experiments e10`; the
//! speedup is asserted at full size only.

use std::time::{Duration, Instant};

use ids_relational::{DatabaseSchema, DatabaseState, Predicate, Tuple, Value};
use ids_store::{Schema, Store, StoreConfig};
use ids_workloads::families::key_chain;
use ids_workloads::states::{lookup_stream, LookupOp};

/// A prepared query workload: a key-chain store preloaded with an exact
/// per-relation tuple count, plus a read-heavy probe stream.
struct QueryBench {
    store: Store,
    schema: DatabaseSchema,
    /// Point probes, ~80% hitting stored keys.
    lookups: Vec<LookupOp>,
}

/// The equality predicate of one probe.
fn probe_predicate(op: &LookupOp) -> Predicate {
    Predicate::new().and_eq(op.attr, op.value)
}

impl QueryBench {
    /// Builds a `key-chain(relations)` store with exactly
    /// `per_relation` tuples in every relation (`Ri` gets `(v, v)` for
    /// `v < per_relation`, trivially satisfying `Ai → Ai+1` and globally
    /// consistent), plus `probes` point lookups from the read-heavy
    /// generator.
    fn build(relations: usize, per_relation: usize, probes: usize) -> QueryBench {
        let inst = key_chain(relations);
        let mut state = DatabaseState::empty(&inst.schema);
        for id in inst.schema.ids() {
            for v in 0..per_relation as u64 {
                state
                    .insert(id, vec![Value::int(v), Value::int(v)])
                    .expect("key-chain schemes are binary");
            }
        }
        let lookups = lookup_stream(&inst.schema, &state, probes, 80, 11);
        let store = Store::open(
            Schema::canonical(&inst.schema, &inst.fds),
            StoreConfig {
                initial_state: Some(state),
                ..Default::default()
            },
        )
        .expect("key-chain is independent");
        QueryBench {
            store,
            schema: inst.schema,
            lookups,
        }
    }

    /// The client-side path for one probe: ship the whole relation, then
    /// filter here.  Returns the tuples shipped and the matches.
    fn read_then_filter(&self, op: &LookupOp, pred: &Predicate) -> (usize, Vec<Tuple>) {
        let whole = self.store.query(op.scheme, &Predicate::new()).unwrap();
        let attrs = self.schema.attrs(op.scheme);
        let shipped = whole.len();
        let hits = whole.into_iter().filter(|t| pred.matches(attrs, t));
        (shipped, hits.collect())
    }
}

/// One row of the E10 sweep.
pub struct QueryRow {
    /// Relations in the schema.
    pub relations: usize,
    /// Tuples per relation (exact).
    pub per_relation: usize,
    /// Median latency of one pushed-down point lookup ([`Store::query`]).
    pub pushed: Duration,
    /// Median latency of one `read` + client-side filter.
    pub read_filter: Duration,
    /// Median latency of one full `snapshot` + filter.
    pub snapshot_filter: Duration,
    /// `read_filter / pushed` — what pushdown saves.
    pub speedup: f64,
    /// Mean tuples shipped per pushed-down query (≈ hit rate).
    pub shipped_pushed: f64,
    /// Most tuples any one pushed-down query shipped.
    pub max_shipped_pushed: usize,
    /// Mean tuples shipped per whole-relation read (= per_relation).
    pub shipped_read: f64,
}

/// Measures one configuration.
fn query_vs_read(relations: usize, per_relation: usize, probes: usize) -> QueryRow {
    let bench = QueryBench::build(relations, per_relation, probes);
    let QueryBench { store, lookups, .. } = &bench;

    // Pushed-down path: the shard evaluates, only matches come back.
    let mut pushed_times = Vec::with_capacity(lookups.len());
    let (mut shipped_pushed, mut max_shipped_pushed) = (0usize, 0usize);
    let _ = store
        .query(lookups[0].scheme, &probe_predicate(&lookups[0]))
        .unwrap(); // warmup
    for op in lookups {
        let pred = probe_predicate(op);
        let t = Instant::now();
        let hits = store.query(op.scheme, &pred).unwrap();
        pushed_times.push(t.elapsed());
        shipped_pushed += hits.len();
        max_shipped_pushed = max_shipped_pushed.max(hits.len());
        std::hint::black_box(hits);
    }
    pushed_times.sort();
    let pushed = pushed_times[pushed_times.len() / 2];

    // Client-side path: ship the whole relation, then filter.
    let mut read_times = Vec::with_capacity(lookups.len());
    let mut shipped_read = 0usize;
    let _ = bench.read_then_filter(&lookups[0], &Predicate::new()); // warmup
    for op in lookups {
        let pred = probe_predicate(op);
        let t = Instant::now();
        let (shipped, hits) = bench.read_then_filter(op, &pred);
        read_times.push(t.elapsed());
        shipped_read += shipped;
        std::hint::black_box(hits);
    }
    read_times.sort();
    let read_filter = read_times[read_times.len() / 2];

    // Barrier path: one globally consistent snapshot, then filter.
    let snap_reps = (probes / 32).clamp(3, 8);
    let mut snap_times = Vec::with_capacity(snap_reps);
    for op in lookups.iter().take(snap_reps) {
        let pred = probe_predicate(op);
        let t = Instant::now();
        let snap = store.snapshot().unwrap();
        let hits = snap.relation(op.scheme).filter_tuples(&pred);
        snap_times.push(t.elapsed());
        std::hint::black_box(hits);
    }
    snap_times.sort();
    let snapshot_filter = snap_times[snap_times.len() / 2];

    QueryRow {
        relations,
        per_relation,
        pushed,
        read_filter,
        snapshot_filter,
        speedup: read_filter.as_secs_f64() / pushed.as_secs_f64().max(1e-12),
        shipped_pushed: shipped_pushed as f64 / lookups.len() as f64,
        max_shipped_pushed,
        shipped_read: shipped_read as f64 / lookups.len() as f64,
    }
}

/// The full sweep: pushed-down latency should stay flat while
/// read+filter grows with the relation and snapshot+filter with the
/// whole database.
pub fn sweep(smoke: bool) -> Vec<QueryRow> {
    let configs: &[(usize, usize, usize)] = if smoke {
        &[(4, 200, 64)]
    } else {
        &[
            (8, 1_000, 256),
            (16, 2_000, 256),
            (16, 10_000, 256),
            (32, 10_000, 256),
        ]
    };
    configs
        .iter()
        .map(|&(relations, per_relation, probes)| query_vs_read(relations, per_relation, probes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The claims are asserted by `experiments e10`; here only the
    // correctness property the timings rest on.
    #[test]
    fn pushed_down_results_match_the_client_side_filter() {
        let bench = QueryBench::build(4, 100, 32);
        for op in &bench.lookups {
            let pred = probe_predicate(op);
            let pushed = bench.store.query(op.scheme, &pred).unwrap();
            assert_eq!(pushed, bench.read_then_filter(op, &pred).1);
        }
    }
}
