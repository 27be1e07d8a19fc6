//! Regression: a self-join must read its relation **once**.
//!
//! The old `join_raw` issued one barrier-free read per *listed* id, so
//! `join(["R", "R"])` intersected two cuts of the same relation taken at
//! different instants — a result corresponding to no cut of that
//! relation's history.  The probe below makes that observable: a writer
//! walks the relation through a cyclic sequence of states in which two
//! "live" rows always overlap in exactly one element with the previous
//! state.  Every genuine cut is one of the visited states; the
//! intersection of two *different* visited states from opposite phases
//! of the cycle is a set (often empty) that no cut ever equals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ids_api::{Database, EngineKind, Schema};
use ids_store::StoreConfig;

/// The cyclic state walk: rows are `(i, i)` for `i` in `0..4`; the state
/// always holds `{i}` or `{i, i+1 mod 4}`.  Transitions insert the next
/// row, then remove the previous — so the relation is never empty, and
/// every visited state is one of the eight below.
fn visited_states() -> Vec<Vec<Vec<String>>> {
    let row = |i: u64| vec![i.to_string(), i.to_string()];
    let mut states = Vec::new();
    for i in 0..4u64 {
        states.push(vec![row(i)]);
        let mut pair = vec![row(i), row((i + 1) % 4)];
        pair.sort();
        states.push(pair);
    }
    states
}

#[test]
fn self_join_under_a_writer_fleet_is_a_single_cut() {
    let schema = Schema::builder()
        .relation("R", ["a", "b"])
        .build()
        .expect("no FDs: trivially independent");
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    // Pre-intern every value the writer will use, so writer threads
    // never race the reader for the name lock in a surprising order.
    for i in 0..4u64 {
        let s = i.to_string();
        db.insert("R", [s.clone(), s]).unwrap();
    }
    for i in 1..4u64 {
        let s = i.to_string();
        db.remove("R", [s.clone(), s]).unwrap();
    }
    let shared = Arc::new(db.into_shared().unwrap());
    let legal = visited_states();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // State is {i}; insert i+1, then remove i; repeat.
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let next = (i + 1) % 4;
                let n = next.to_string();
                let c = i.to_string();
                shared.insert("R", [n.clone(), n]).unwrap();
                shared.remove("R", [c.clone(), c]).unwrap();
                i = next;
            }
        })
    };

    for _ in 0..2_000 {
        let mut got = shared.join(["R", "R"]).unwrap().into_string_rows();
        got.sort();
        assert!(
            legal.contains(&got),
            "self-join returned {got:?}, which is not a cut of the relation's history"
        );
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}
