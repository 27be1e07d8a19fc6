//! Differential testing of the concurrent store — the correctness anchor.
//!
//! Independence is what makes sharding sound, and these tests are where
//! that soundness is *asserted* rather than assumed:
//!
//! * **Sequential agreement** — any trace executed by the store (from
//!   any number of caller threads, each owning a disjoint set of
//!   relations) must produce exactly the outcomes and final state of a
//!   sequential [`LocalMaintainer`] replay, because every
//!   per-relation-order-preserving interleaving is a serialization.
//! * **One relation, many writers** — callers racing on a single
//!   relation are serialized by its slot's mutex: exactly one of the
//!   conflicting inserts per key wins, whatever the interleaving.
//! * **Chase agreement** — on small instances the sequential baseline is
//!   itself cross-checked against the honest whole-state re-chase
//!   ([`ChaseMaintainer`]), closing the loop to the paper's semantics.
//! * **Snapshot global satisfaction** — a snapshot taken mid-stream is
//!   always *globally* satisfying under the full chase (`LSAT = WSAT`,
//!   Theorem 3), not merely per-relation consistent.

use ids_chase::{satisfies, ChaseConfig};
use ids_core::{ChaseMaintainer, LocalMaintainer};
use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState};
use ids_store::{DurableConfig, OpOutcome, Schema, Store, StoreConfig, StoreOp, SyncPolicy};
use ids_workloads::families::{bcnf_tree, key_chain, key_star};
use ids_workloads::generators::{random_independent_instance, SchemaParams};
use ids_workloads::traces::{interleaved_trace, TraceKind, TraceOp, TraceParams};

use proptest::prelude::*;

fn to_store_ops(trace: &[TraceOp]) -> Vec<StoreOp> {
    trace
        .iter()
        .map(|op| match op.kind {
            TraceKind::Insert => StoreOp::Insert {
                scheme: op.scheme,
                tuple: op.tuple.clone(),
            },
            TraceKind::Remove => StoreOp::Remove {
                scheme: op.scheme,
                tuple: op.tuple.clone(),
            },
        })
        .collect()
}

/// Replays a trace through a fresh sequential LocalMaintainer, returning
/// per-op outcomes and the final state.
fn sequential_replay(
    schema: &ids_relational::DatabaseSchema,
    fds: &ids_deps::FdSet,
    trace: &[TraceOp],
) -> (Vec<OpOutcome>, DatabaseState) {
    let analysis = ids_core::analyze(schema, fds);
    let mut m = LocalMaintainer::from_analysis(schema, &analysis, DatabaseState::empty(schema))
        .expect("instance certified independent");
    let outcomes = trace
        .iter()
        .map(|op| match op.kind {
            TraceKind::Insert => OpOutcome::Insert(m.insert(op.scheme, op.tuple.clone()).unwrap()),
            TraceKind::Remove => OpOutcome::Remove(m.remove(op.scheme, &op.tuple).unwrap()),
        })
        .collect();
    (outcomes, m.state().clone())
}

/// Submits `ops` from `callers` threads: thread `i` owns the relations
/// with `scheme % callers == i` and submits their ops, in trace order,
/// `chunk` at a time.  Per-relation order is kept and cross-relation
/// order is free — exactly the interleavings the consistency model
/// admits — so the outcomes, matched back by original index, must equal
/// the sequential oracle's.
fn submit_from_callers(
    store: &Store,
    ops: &[StoreOp],
    callers: usize,
    chunk: usize,
) -> Vec<OpOutcome> {
    let mut out: Vec<Option<OpOutcome>> = vec![None; ops.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                s.spawn(move || {
                    let mine: Vec<usize> = (0..ops.len())
                        .filter(|&i| ops[i].scheme().index() % callers == c)
                        .collect();
                    let mut got = Vec::with_capacity(mine.len());
                    for batch in mine.chunks(chunk) {
                        let batch = batch.iter().map(|&i| ops[i].clone()).collect();
                        got.extend(store.apply_batch(batch).unwrap());
                    }
                    (mine, got)
                })
            })
            .collect();
        for handle in handles {
            let (mine, got) = handle.join().unwrap();
            for (i, outcome) in mine.into_iter().zip(got) {
                out[i] = Some(outcome);
            }
        }
    });
    out.into_iter().map(Option::unwrap).collect()
}

fn assert_states_equal(a: &DatabaseState, b: &DatabaseState, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: relation counts differ");
    for (id, rel) in a.iter() {
        assert!(
            rel.set_eq(b.relation(id)),
            "{context}: relation {id:?} differs ({} vs {} tuples)",
            rel.len(),
            b.relation(id).len()
        );
    }
}

/// The named independent families the proptest draws from.
fn family_instance(pick: usize, size: usize) -> ids_workloads::families::FamilyInstance {
    match pick {
        0 => key_chain(2 + size),        // 3..8 relations
        1 => key_star(1 + size),         // hub + satellites
        _ => bcnf_tree(1 + size % 2, 2), // binary tree of depth 1-2
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent final state == sequential replay, per-op outcomes
    /// included, across caller-thread counts — on named independent
    /// families.  Each caller submits its relations' ops as one batch.
    #[test]
    fn store_matches_sequential_replay_on_families(
        pick in 0usize..3,
        size in 0usize..6,
        seed in 0u64..1_000_000,
        callers in 1usize..5,
    ) {
        let inst = family_instance(pick, size);
        let trace = interleaved_trace(
            &inst.schema,
            TraceParams { clients: 3, ops_per_client: 40, domain: 6, remove_percent: 20 },
            seed,
        );
        let (expected_outcomes, expected_state) =
            sequential_replay(&inst.schema, &inst.fds, &trace);

        let store = Store::open(Schema::canonical(&inst.schema, &inst.fds), StoreConfig::default()).unwrap();
        let got = submit_from_callers(&store, &to_store_ops(&trace), callers, usize::MAX);
        prop_assert_eq!(&got, &expected_outcomes);
        let final_state = store.shutdown().unwrap();
        assert_states_equal(&final_state, &expected_state, "final state");
    }

    /// Same property on *random* certified-independent instances, with
    /// the callers submitting one op per call, the trace split in two and
    /// a mid-stream snapshot that must be globally satisfying under the
    /// full chase.
    #[test]
    fn random_independent_instances_with_midstream_snapshot(
        seed in 0u64..1_000_000,
        callers in 1usize..4,
    ) {
        let params = SchemaParams { attrs: 8, schemes: 4, max_scheme_size: 4 };
        let Some((schema, fds)) = random_independent_instance(params, 3, seed, 20) else {
            return Ok(()); // rare: no independent draw in 20 attempts
        };
        let trace = interleaved_trace(
            &schema,
            TraceParams { clients: 4, ops_per_client: 25, domain: 5, remove_percent: 25 },
            seed ^ 0x5EED,
        );
        let (expected_outcomes, expected_state) = sequential_replay(&schema, &fds, &trace);

        let store = Store::open(Schema::canonical(&schema, &fds), StoreConfig::default()).unwrap();
        let ops = to_store_ops(&trace);
        let mut got = Vec::new();
        let mid = ops.len() / 2;
        for chunk in [&ops[..mid], &ops[mid..]] {
            got.extend(submit_from_callers(&store, chunk, callers, 1));
            // Snapshot after each chunk: must be *globally* satisfying —
            // locally enforced Fi plus independence (LSAT = WSAT).
            let snap = store.snapshot().unwrap();
            let cfg = ChaseConfig::default();
            prop_assert!(
                satisfies(&schema, &fds, &snap, &cfg).unwrap().is_satisfying(),
                "mid-stream snapshot not globally satisfying (seed {})", seed
            );
        }
        prop_assert_eq!(&got, &expected_outcomes);
        let final_state = store.shutdown().unwrap();
        assert_states_equal(&final_state, &expected_state, "final state");
    }
}

/// Two (here four) writers on **one** relation, which no other test
/// exercises: `WRITERS` threads each insert `(k, t)` for every key `k`
/// into CT under `C → T`, while a fifth thread takes snapshots.  The
/// slot's mutex serializes them, so whatever the interleaving exactly
/// one writer wins each key: `KEYS` accepted, the rest rejected, the
/// metric totals say the same, and every snapshot — a true cut — passes
/// the full chase.
fn writers_racing_on_one_relation(store: Store, schema: &DatabaseSchema, fds: &FdSet) {
    use ids_core::InsertOutcome;
    use ids_relational::Value;
    use std::sync::atomic::{AtomicBool, Ordering};
    const WRITERS: u64 = 4;
    const KEYS: u64 = 48;
    let ct = schema.scheme_by_name("CT").unwrap();
    let start = std::sync::Barrier::new(WRITERS as usize + 1);
    let done = AtomicBool::new(false);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    start.wait();
                    (0..KEYS)
                        .map(|k| {
                            let row = vec![Value::int(k), Value::int(1_000 + t)];
                            store.insert(ct, row).unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let snapshots = s.spawn(|| {
            start.wait();
            let mut taken = 0;
            // At least one snapshot after the writers finished, too.
            loop {
                let finished = done.load(Ordering::Acquire);
                let snap = store.snapshot().unwrap();
                let verdict = satisfies(schema, fds, &snap, &ChaseConfig::default()).unwrap();
                assert!(verdict.is_satisfying(), "snapshot {taken} fails the chase");
                taken += 1;
                if finished {
                    return snap;
                }
            }
        });
        // Release the snapshot thread before looking at any result, so a
        // failed writer fails the test instead of hanging it.
        let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Release);
        for outcome in joined.into_iter().flat_map(Result::unwrap) {
            match outcome {
                InsertOutcome::Accepted => accepted += 1,
                InsertOutcome::Rejected { .. } => rejected += 1,
                InsertOutcome::Duplicate => panic!("no two writers share a tuple"),
            }
        }
        assert_eq!(snapshots.join().unwrap().relation(ct).len() as u64, KEYS);
    });
    assert_eq!((accepted, rejected), (KEYS, KEYS * (WRITERS - 1)));
    let metrics = store.metrics();
    assert_eq!(metrics.counter_sum("accepted"), accepted);
    assert_eq!(metrics.counter_sum("rejected"), rejected);
    assert_eq!(metrics.counter_sum("duplicate"), 0);
    assert_eq!(store.shutdown().unwrap().relation(ct).len() as u64, KEYS);
}

#[test]
fn writers_racing_on_one_relation_in_memory() {
    let inst = ids_workloads::examples::example2();
    let store = Store::open(
        Schema::canonical(&inst.schema, &inst.fds),
        StoreConfig::default(),
    )
    .unwrap();
    writers_racing_on_one_relation(store, &inst.schema, &inst.fds);
}

#[test]
fn writers_racing_on_one_relation_durable_always() {
    let inst = ids_workloads::examples::example2();
    let root = std::env::temp_dir().join(format!("ids-store-racing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = DurableConfig {
        sync: SyncPolicy::Always,
        ..DurableConfig::default()
    };
    let store = Store::open_at(&root, Schema::canonical(&inst.schema, &inst.fds), config).unwrap();
    writers_racing_on_one_relation(store, &inst.schema, &inst.fds);
    // Exactly the accepted inserts were logged: recovery lands on them.
    let ct = inst.schema.scheme_by_name("CT").unwrap();
    let store = Store::open_at(
        &root,
        Schema::canonical(&inst.schema, &inst.fds),
        DurableConfig::default(),
    )
    .unwrap();
    assert_eq!(store.shutdown().unwrap().relation(ct).len(), 48);
    let _ = std::fs::remove_dir_all(&root);
}

/// The observability counters are not a parallel bookkeeping scheme
/// that can drift: once the workload has quiesced, the per-relation metric
/// totals must equal the sequential-replay oracle's outcome counts
/// *exactly* — same differential discipline as the states above, applied
/// to the telemetry.
#[test]
fn metric_counter_totals_match_the_sequential_oracle() {
    use ids_core::InsertOutcome;
    let inst = key_chain(4);
    let trace = interleaved_trace(
        &inst.schema,
        TraceParams {
            clients: 4,
            ops_per_client: 50,
            domain: 5,
            remove_percent: 25,
        },
        7,
    );
    let (expected_outcomes, _) = sequential_replay(&inst.schema, &inst.fds, &trace);
    let (mut accepted, mut duplicate, mut rejected, mut removed) = (0u64, 0u64, 0u64, 0u64);
    for o in &expected_outcomes {
        match o {
            OpOutcome::Insert(InsertOutcome::Accepted) => accepted += 1,
            OpOutcome::Insert(InsertOutcome::Duplicate) => duplicate += 1,
            OpOutcome::Insert(InsertOutcome::Rejected { .. }) => rejected += 1,
            OpOutcome::Remove(true) => removed += 1,
            OpOutcome::Remove(false) => {}
        }
    }

    let store = Store::open(
        Schema::canonical(&inst.schema, &inst.fds),
        StoreConfig::default(),
    )
    .unwrap();
    let got = store.apply_batch(to_store_ops(&trace)).unwrap();
    assert_eq!(got, expected_outcomes);

    let snap = store.metrics();
    assert_eq!(snap.counter_sum("accepted"), accepted);
    assert_eq!(snap.counter_sum("duplicate"), duplicate);
    assert_eq!(snap.counter_sum("rejected"), rejected);
    assert_eq!(snap.counter_sum("removed"), removed);
    store.shutdown().unwrap();
}

/// Closing the loop to the paper's semantics: on a small instance the
/// store, the sequential local engine, and the whole-state re-chase all
/// agree step for step.
#[test]
fn store_agrees_with_full_chase_on_example2() {
    let inst = ids_workloads::examples::example2();
    let trace = interleaved_trace(
        &inst.schema,
        TraceParams {
            clients: 3,
            ops_per_client: 20,
            domain: 4,
            remove_percent: 15,
        },
        42,
    );
    let store = Store::open(
        Schema::canonical(&inst.schema, &inst.fds),
        StoreConfig::default(),
    )
    .unwrap();
    let got = store.apply_batch(to_store_ops(&trace)).unwrap();

    let mut chase = ChaseMaintainer::new(
        &inst.schema,
        &inst.fds,
        DatabaseState::empty(&inst.schema),
        ChaseConfig::default(),
    );
    for (op, outcome) in trace.iter().zip(got.iter()) {
        match op.kind {
            TraceKind::Insert => {
                let c = chase.insert(op.scheme, op.tuple.clone()).unwrap();
                let OpOutcome::Insert(s) = outcome else {
                    panic!("outcome kind mismatch");
                };
                // The chase cannot name the violated FD; compare by class.
                assert_eq!(
                    std::mem::discriminant(s),
                    std::mem::discriminant(&c),
                    "store {s:?} vs chase {c:?} on {op:?}"
                );
            }
            TraceKind::Remove => {
                let c = chase.remove(op.scheme, &op.tuple).unwrap();
                assert_eq!(outcome, &OpOutcome::Remove(c));
            }
        }
    }
    let final_state = store.shutdown().unwrap();
    assert_states_equal(&final_state, chase.state(), "store vs chase");
}
