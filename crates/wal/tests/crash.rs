//! Crash-injection differential testing of the durability pipeline —
//! the correctness anchor of `ids-wal`.
//!
//! The paper's Theorem 3 is what makes this test's oracle simple: on an
//! independent schema every accepted op is a *local* decision of one
//! relation's cover, so the per-relation log is a complete record of
//! enforcement, and recovery after losing an arbitrary log suffix must
//! equal the sequential replay of exactly the surviving per-relation
//! prefix — with no cross-relation repair, and with the result still
//! globally satisfying under the full chase (`LSAT = WSAT`).
//!
//! Each case: run a random `ids_workloads::traces` script through a
//! durable store (`SyncPolicy::Always`, so every acknowledged record is
//! on disk), optionally checkpoint mid-stream, shut down, then
//! **truncate one relation's live log segment at an arbitrary byte
//! offset** — the torn write.  Recovery must produce, relation by
//! relation, the state of a sequential `LocalMaintainer` replay of the
//! acknowledged-and-synced prefix the truncation left behind.  Half the
//! cases cut inside the segment's header, as a crash right after the
//! file's creation does.  Then the store lives on: a follow loop started
//! from the snapshot must read back exactly what recovery reads, across
//! the torn segment.

use ids_chase::{satisfies, ChaseConfig};
use ids_core::{InsertOutcome, LocalMaintainer};
use ids_relational::{DatabaseState, SchemeId, Value};
use ids_store::{DurableConfig, Schema, Store, StoreOp, SyncPolicy};
use ids_wal::format::{read_frame, FrameOutcome};
use ids_wal::{Cursor, FollowPoll, Follower, Shipment, WalDir, WalRecord};
use ids_workloads::families::{bcnf_tree, key_chain, key_star, FamilyInstance};
use ids_workloads::traces::{
    effective_ops_per_relation, interleaved_trace, TraceKind, TraceOp, TraceParams,
};

use proptest::prelude::*;

/// The named independent families the proptest draws from (mirrors the
/// store differential suite).
fn family_instance(pick: usize, size: usize) -> FamilyInstance {
    match pick {
        0 => key_chain(2 + size),
        1 => key_star(1 + size),
        _ => bcnf_tree(1 + size % 2, 2),
    }
}

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

/// Replays per-relation effective-op prefixes through a fresh
/// sequential engine; every step must be effective again.
fn replay_prefixes(
    schema: &ids_relational::DatabaseSchema,
    fds: &ids_deps::FdSet,
    effective: &[Vec<(TraceKind, Vec<ids_relational::Value>)>],
    upto: &[u64],
) -> DatabaseState {
    let analysis = ids_core::analyze(schema, fds);
    let mut m = LocalMaintainer::from_analysis(schema, &analysis, DatabaseState::empty(schema))
        .expect("instance is independent");
    for (i, ops) in effective.iter().enumerate() {
        let id = SchemeId::from_index(i);
        for (kind, tuple) in &ops[..upto[i] as usize] {
            match kind {
                TraceKind::Insert => {
                    assert_eq!(
                        m.insert(id, tuple.clone()).unwrap(),
                        InsertOutcome::Accepted,
                        "oracle replay must re-accept"
                    );
                }
                TraceKind::Remove => {
                    assert!(m.remove(id, tuple).unwrap(), "oracle replay must re-remove");
                }
            }
        }
    }
    m.state().clone()
}

fn unique_root(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("ids-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every truncation point: recovered state ≡ sequential replay
    /// of the acknowledged prefix, and the recovered state satisfies
    /// the dependencies under the full chase — with or without a
    /// mid-stream checkpoint.
    #[test]
    fn truncated_wal_recovers_exactly_the_acknowledged_prefix(
        pick in 0usize..3,
        size in 0usize..5,
        seed in 0u64..1_000_000,
        checkpoint_mid in 0u8..2,
        victim_pick in 0usize..64,
        cut_millis in 0u32..1000,
        in_header in 0u8..2,
    ) {
        let inst = family_instance(pick, size);
        let trace = interleaved_trace(
            &inst.schema,
            TraceParams { clients: 3, ops_per_client: 30, domain: 5, remove_percent: 20 },
            seed,
        );
        let effective = effective_ops_per_relation(&inst.schema, &inst.fds, &trace).unwrap();
        let totals: Vec<u64> = effective.iter().map(|v| v.len() as u64).collect();

        let root = unique_root(&format!(
            "{pick}-{size}-{seed}-{checkpoint_mid}-{victim_pick}-{cut_millis}-{in_header}"
        ));
        // Run the trace durably; Always-sync makes ack ⇒ on disk.
        {
            let store = Store::open_at(&root, Schema::canonical(&inst.schema, &inst.fds),
                DurableConfig {
                    sync: SyncPolicy::Always,
                    ..Default::default()
                },
            ).unwrap();
            let ops = to_store_ops(&trace);
            let mid = ops.len() / 2;
            store.apply_batch(ops[..mid].to_vec()).unwrap();
            if checkpoint_mid == 1 {
                store.checkpoint().unwrap();
            }
            store.apply_batch(ops[mid..].to_vec()).unwrap();
            store.shutdown().unwrap();
        }

        // The torn write: truncate the victim relation's live (highest
        // generation) segment at an arbitrary byte offset.
        let victim = victim_pick % inst.schema.len();
        let wal = root.join("wal");
        let mut victim_segments: Vec<std::path::PathBuf> = std::fs::read_dir(&wal)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&format!("r{victim:05}-")))
            })
            .collect();
        victim_segments.sort();
        let seg = victim_segments.last().expect("every relation has a live segment");
        let bytes = std::fs::read(seg).unwrap();
        let FrameOutcome::Complete { rest, .. } = read_frame(&bytes) else {
            panic!("the live segment's header frame is whole before the tear");
        };
        let header_len = bytes.len() - rest.len();
        let cut = match in_header {
            1 => cut_millis as usize % header_len,
            _ => (bytes.len() as u64 * cut_millis as u64 / 1000) as usize,
        };
        std::fs::write(seg, &bytes[..cut]).unwrap();

        // What survived, per the format: read back through WalDir.
        let dir = WalDir::open(&root).unwrap();
        let mut recovered = dir.recover().unwrap();
        recovered.log.replay(|_| Ok::<_, ids_wal::WalError>(())).unwrap();
        let recovered_seqs: Vec<u64> = recovered.log.cursors().iter().map(|c| c.seq).collect();
        drop(dir);
        // Non-victim relations keep everything; the victim keeps a
        // prefix.
        for (i, total) in totals.iter().enumerate() {
            if i == victim {
                prop_assert!(recovered_seqs[i] <= *total);
            } else {
                prop_assert_eq!(recovered_seqs[i], *total, "relation {} lost data", i);
            }
        }

        // The differential: full recovery through the store's normal
        // probe/commit path equals the sequential replay of exactly the
        // surviving prefixes...
        let expected = replay_prefixes(&inst.schema, &inst.fds, &effective, &recovered_seqs);
        let store = Store::open_at(&root, Schema::canonical(&inst.schema, &inst.fds),
            DurableConfig {
                sync: SyncPolicy::Always,
                ..Default::default()
            },
        ).unwrap();
        let recovered = store.shutdown().unwrap();
        for (id, rel) in expected.iter() {
            prop_assert!(
                rel.set_eq(recovered.relation(id)),
                "relation {:?} differs after recovery ({} vs {} tuples)",
                id, rel.len(), recovered.relation(id).len()
            );
        }
        // ...and is globally satisfying under the full chase: recovery
        // never needs (or performs) cross-relation repair, LSAT = WSAT
        // does the rest.
        prop_assert!(
            satisfies(&inst.schema, &inst.fds, &recovered, &ChaseConfig::default())
                .unwrap()
                .is_satisfying(),
            "recovered state not globally satisfying (seed {})", seed
        );

        // A second life: k more accepted ops per relation (values no
        // trace uses, so every FD accepts them), then the follow loop
        // from the snapshot's cursors — zero cursors when no checkpoint
        // was taken — ships each relation exactly recovery's tail.
        let store = Store::open_at(&root, Schema::canonical(&inst.schema, &inst.fds), DurableConfig::default()).unwrap();
        for (id, scheme) in inst.schema.iter() {
            for j in 0..3u64 {
                let arity = scheme.attrs.len() as u64;
                let tuple = (0..arity).map(|c| Value(1_000_000 + 10 * j + c)).collect();
                prop_assert_eq!(store.insert(id, tuple).unwrap(), InsertOutcome::Accepted);
            }
        }
        store.shutdown().unwrap();
        let dir = WalDir::open(&root).unwrap();
        let mut recovered = dir.recover().unwrap();
        let mut tails: Vec<Vec<WalRecord>> = vec![Vec::new(); inst.schema.len()];
        recovered.log.replay(|shipment| {
            if let Shipment::Records { relation, records, .. } = shipment {
                tails[relation as usize].extend(records.into_iter().map(|r| r.record));
            }
            Ok::<_, ids_wal::WalError>(())
        }).unwrap();
        let cursors: Vec<Cursor> = (recovered.base_seqs.iter())
            .map(|&seq| Cursor { gen: recovered.covered_gen, seq })
            .collect();
        let mut follower = Follower::new(&dir, &cursors).unwrap();
        let mut shipped: Vec<Vec<WalRecord>> = vec![Vec::new(); inst.schema.len()];
        let mut polls = 0;
        while follower
            .poll(|shipment| {
                if let Shipment::Records { relation, records, .. } = shipment {
                    shipped[relation as usize].extend(records.into_iter().map(|r| r.record));
                }
                Ok::<_, ids_wal::WalError>(())
            })
            .unwrap()
            != FollowPoll::Shipped(0)
        {
            polls += 1;
            prop_assert!(polls < 8, "the follow loop never drained");
        }
        for (i, tail) in tails.into_iter().enumerate() {
            prop_assert_eq!(&shipped[i], &tail, "relation {} ships other records", i);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A torn tail must not brick the database on the *second* reopen:
/// after recovering from a truncation, the store writes new segments
/// while the torn bytes stay behind in the old one — later recoveries
/// must keep treating that tail as a clean end (the next segment's
/// contiguous sequence numbers vouch for it), not as corruption.
#[test]
fn recovery_after_recovery_from_a_torn_tail_keeps_working() {
    let inst = family_instance(0, 1); // key-chain(3)
    let root = unique_root("re-reopen");
    let r0 = SchemeId::from_index(0);
    let open = |root: &std::path::Path| {
        Store::open_at(
            root,
            Schema::canonical(&inst.schema, &inst.fds),
            DurableConfig {
                sync: SyncPolicy::Always,
                ..Default::default()
            },
        )
        .unwrap()
    };
    // Session 1: two accepted inserts on relation 0, then a torn write.
    {
        let store = open(&root);
        store
            .insert(
                r0,
                vec![ids_relational::Value(1), ids_relational::Value(10)],
            )
            .unwrap();
        store
            .insert(
                r0,
                vec![ids_relational::Value(2), ids_relational::Value(20)],
            )
            .unwrap();
        store.shutdown().unwrap();
    }
    let seg = root.join("wal").join("r00000-g0000000001.log");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();

    // Session 2: recovers the prefix, writes one more op (into gen 2),
    // clean shutdown — the torn bytes remain in gen 1.
    {
        let store = open(&root);
        let recovered = store.query(r0, &ids_relational::Predicate::new()).unwrap();
        assert_eq!(recovered.len(), 1, "prefix recovered");
        store
            .insert(
                r0,
                vec![ids_relational::Value(3), ids_relational::Value(30)],
            )
            .unwrap();
        store.shutdown().unwrap();
    }
    // Sessions 3 and 4: every further reopen keeps working and agrees.
    for _ in 0..2 {
        let store = open(&root);
        let state = store.shutdown().unwrap();
        assert_eq!(state.relation(r0).len(), 2);
        assert!(state
            .relation(r0)
            .contains(&[ids_relational::Value(1), ids_relational::Value(10)]));
        assert!(state
            .relation(r0)
            .contains(&[ids_relational::Value(3), ids_relational::Value(30)]));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint that failed mid-way (generation already rotated) must
/// leave the store retryable: the next checkpoint lands on a fresh
/// generation instead of colliding with the sealed segments.
#[test]
fn repeated_checkpoints_never_collide_on_generations() {
    let inst = family_instance(0, 1);
    let root = unique_root("ckpt-gen");
    let store = Store::open_at(
        &root,
        Schema::canonical(&inst.schema, &inst.fds),
        DurableConfig::default(),
    )
    .unwrap();
    let r0 = SchemeId::from_index(0);
    for i in 0..4u64 {
        store
            .insert(
                r0,
                vec![ids_relational::Value(100 + i), ids_relational::Value(i)],
            )
            .unwrap();
        store.checkpoint().unwrap();
        store.checkpoint().unwrap();
    }
    let state = store.shutdown().unwrap();
    assert_eq!(state.relation(r0).len(), 4);
    let reopened = Store::open_at(
        &root,
        Schema::canonical(&inst.schema, &inst.fds),
        DurableConfig::default(),
    )
    .unwrap();
    assert_eq!(reopened.shutdown().unwrap().relation(r0).len(), 4);
    let _ = std::fs::remove_dir_all(&root);
}

/// Deterministic end-to-end: crash (drop without shutdown) under
/// `SyncPolicy::Always` loses nothing acknowledged; recovery continues
/// seamlessly, including across a checkpoint.
#[test]
fn acknowledged_ops_survive_an_unclean_drop() {
    let inst = ids_workloads::examples::example2();
    let root = unique_root("unclean-drop");
    let trace = interleaved_trace(
        &inst.schema,
        TraceParams {
            clients: 2,
            ops_per_client: 40,
            domain: 4,
            remove_percent: 25,
        },
        7,
    );
    let effective = effective_ops_per_relation(&inst.schema, &inst.fds, &trace).unwrap();
    let totals: Vec<u64> = effective.iter().map(|v| v.len() as u64).collect();
    {
        let store = Store::open_at(
            &root,
            Schema::canonical(&inst.schema, &inst.fds),
            DurableConfig {
                sync: SyncPolicy::Always,
                ..Default::default()
            },
        )
        .unwrap();
        let ops = to_store_ops(&trace);
        let mid = ops.len() / 2;
        store.apply_batch(ops[..mid].to_vec()).unwrap();
        store.checkpoint().unwrap();
        store.apply_batch(ops[mid..].to_vec()).unwrap();
        // No shutdown(): simulate the process dying with queues drained
        // (apply_batch already acknowledged — and therefore synced —
        // every op).
        drop(store);
    }
    let store = Store::open_at(
        &root,
        Schema::canonical(&inst.schema, &inst.fds),
        DurableConfig::default(),
    )
    .unwrap();
    let recovered = store.shutdown().unwrap();
    let expected = replay_prefixes(&inst.schema, &inst.fds, &effective, &totals);
    for (id, rel) in expected.iter() {
        assert!(rel.set_eq(recovered.relation(id)));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `recover(log(S)) = S`, **row order included**, on a remove-heavy
/// trace: seven ops in ten are removes, so every relation compacts its
/// slot vector again and again — in the live store, and once more in the
/// replay.  Recovery, with and without a mid-stream checkpoint, must
/// rebuild each relation tuple-for-tuple in the order the live store
/// held it, which is also the sequential oracle's.
#[test]
fn a_remove_heavy_trace_recovers_row_for_row_across_compactions() {
    let inst = family_instance(0, 1); // key-chain(3)
    let trace = interleaved_trace(
        &inst.schema,
        TraceParams {
            clients: 3,
            ops_per_client: 400,
            domain: 6,
            remove_percent: 70,
        },
        24,
    );
    let removes = trace
        .iter()
        .filter(|op| matches!(op.kind, TraceKind::Remove))
        .count();
    assert!(removes * 10 >= trace.len() * 6, "{removes} removes");
    let effective = effective_ops_per_relation(&inst.schema, &inst.fds, &trace).unwrap();
    let totals: Vec<u64> = effective.iter().map(|v| v.len() as u64).collect();
    let expected = replay_prefixes(&inst.schema, &inst.fds, &effective, &totals);

    for checkpoint_mid in [false, true] {
        let root = unique_root(&format!("remove-heavy-{checkpoint_mid}"));
        let store = Store::open_at(
            &root,
            Schema::canonical(&inst.schema, &inst.fds),
            DurableConfig::default(),
        )
        .unwrap();
        let ops = to_store_ops(&trace);
        let mid = ops.len() / 2;
        store.apply_batch(ops[..mid].to_vec()).unwrap();
        if checkpoint_mid {
            store.checkpoint().unwrap();
        }
        store.apply_batch(ops[mid..].to_vec()).unwrap();
        let live = store.shutdown().unwrap();
        for (id, rel) in live.iter() {
            assert!(rel.epoch() >= 2, "{id:?} compacted {} times", rel.epoch());
        }

        let recovered = Store::open_at(
            &root,
            Schema::canonical(&inst.schema, &inst.fds),
            DurableConfig::default(),
        )
        .unwrap()
        .shutdown()
        .unwrap();
        for (id, rel) in live.iter() {
            assert!(
                rel.iter().eq(recovered.relation(id).iter()),
                "{id:?}: recovered rows or their order differ (checkpoint {checkpoint_mid})"
            );
            assert!(
                rel.iter().eq(expected.relation(id).iter()),
                "{id:?}: live rows or their order differ from the oracle"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
