//! A sharded store serving many concurrent clients — opened through the
//! typed `Database` API.
//!
//! Theorem 3's systems payoff: on an independent schema, relations share
//! no enforcement state, so the store gives every relation its own
//! mutex-guarded slot and lets any number of clients hammer it
//! concurrently — each runs its operation itself, inside the one
//! relation's lock, with no cross-relation coordination and no store
//! threads.  The example declares the
//! schema fluently (analysis runs once, in `build`), opens the sharded
//! engine via `Database::open`, spawns a fleet of client threads
//! submitting interleaved insert/remove batches through the one shared
//! `&Database`, reads single relations barrier-free mid-flight, and proves
//! the final state globally satisfying under the full chase.  (That the
//! store reaches exactly the sequential engines' state is asserted by
//! the differential suites in `crates/store/tests` and
//! `crates/api/tests`, not re-proven here.)
//!
//! Run with: `cargo run --release --example store_server`

use std::time::Instant;

use independent_schemas::prelude::*;
use independent_schemas::workloads::traces::{interleaved_trace, TraceKind, TraceParams};

/// Declares the key-chain(12) family through the fluent builder: 12
/// relations `Ri = (Ai, Ai+1)` with `Ai → Ai+1` — certified independent
/// by `build()` itself (a dependent schema would be refused here, with
/// the counterexample attached).
fn declare(n: usize) -> Schema {
    let mut b = Schema::builder();
    for i in 0..n {
        b = b
            .relation(format!("R{i}"), [format!("A{i}"), format!("A{}", i + 1)])
            .fd(format!("A{i} -> A{}", i + 1));
    }
    b.build().expect("key-chain is independent")
}

fn main() {
    let schema = declare(12);
    println!("{}", schema.definition());
    println!(
        "F = {}",
        schema.fds().render(schema.definition().universe())
    );

    let clients = 6usize;
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default()))
        .expect("build() already certified independence");
    println!(
        "\nstore open: {} relations, each its own lock — no store threads; {} clients\n",
        db.schema().definition().len(),
        clients
    );

    // Each client gets its own deterministic script of inserts/removes.
    let scripts: Vec<Vec<StoreOp>> = (0..clients)
        .map(|c| {
            interleaved_trace(
                db.schema().definition(),
                TraceParams {
                    clients: 1,
                    ops_per_client: 5_000,
                    domain: 32,
                    remove_percent: 15,
                },
                0xC11E57 + c as u64,
            )
            .into_iter()
            .map(|op| match op.kind {
                TraceKind::Insert => StoreOp::Insert {
                    scheme: op.scheme,
                    tuple: op.tuple,
                },
                TraceKind::Remove => StoreOp::Remove {
                    scheme: op.scheme,
                    tuple: op.tuple,
                },
            })
            .collect()
        })
        .collect();
    let total_ops: usize = scripts.iter().map(Vec::len).sum();

    // The fleet: every client batches its script through the shared `&db`;
    // one observer reads mid-flight — barrier-free single relations plus
    // one full snapshot barrier for contrast.
    let t0 = Instant::now();
    let mut accepted = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let db = &db;
                s.spawn(move || {
                    let mut accepted = 0usize;
                    for chunk in script.chunks(512) {
                        for outcome in db.apply_batch(chunk.to_vec()).unwrap() {
                            if matches!(outcome, OpOutcome::Insert(InsertOutcome::Accepted)) {
                                accepted += 1;
                            }
                        }
                    }
                    accepted
                })
            })
            .collect();
        // Barrier-free reads: only R0's shard answers; the other eleven
        // relations keep streaming untouched.
        for _ in 0..3 {
            let r0 = db.read("R0").unwrap();
            println!(
                "mid-flight read(R0): {} rows (no barrier, one shard consulted)",
                r0.len()
            );
        }
        // The snapshot, for contrast: every relation locked, one true cut.
        let snap = db.snapshot().unwrap();
        println!(
            "mid-flight snapshot: {} tuples (consistent cut across relations)",
            snap.total_tuples()
        );
        for h in handles {
            accepted += h.join().unwrap();
        }
    });
    let elapsed = t0.elapsed();
    println!(
        "\n{total_ops} ops from {clients} clients in {elapsed:?} \
         ({:.2} Mops/s), {accepted} inserts accepted",
        total_ops as f64 / elapsed.as_secs_f64() / 1e6,
    );

    let final_state = db.snapshot().unwrap();
    println!("final state: {} tuples", final_state.total_tuples());

    // Every snapshot of an independent store is *globally* satisfying —
    // local Fi enforcement plus LSAT = WSAT.  Verify with the full chase.
    let cfg = ChaseConfig::default();
    assert!(satisfies(
        db.schema().definition(),
        db.schema().fds(),
        &final_state,
        &cfg
    )
    .unwrap()
    .is_satisfying());
    println!("full chase agrees: final state is globally satisfying ✓");
}
