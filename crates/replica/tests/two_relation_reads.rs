//! A follower's reads on two relations share no lock: a read of `R1`
//! started while a full scan of `R0` is in flight does not wait for it.
//! Each relation of an independent schema lives behind its own lock in
//! the follower's store, exactly as on the primary; a follower whose
//! reads went through one database-wide lock would queue every `R1` read
//! behind the scan holding it, for the rest of that scan at least.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ids_api::Schema;
use ids_relational::{Predicate, Value};
use ids_replica::Replica;
use ids_store::DurableConfig;

/// `R0` holds `SIDE × SIDE` rows built from `2 × SIDE` names (the
/// durable name log syncs once per fresh name, so names stay few).
const SIDE: usize = 200;

/// `R1` reads started while an `R0` scan was in flight.
const ATTEMPTS: usize = 32;

/// How long the `R1` reads may take in all.  Behind a shared lock each
/// one can starve for many scans; without one they take microseconds.
const BOUND: Duration = Duration::from_secs(10);

#[test]
fn a_follower_reads_two_relations_without_a_common_lock() {
    let root = std::env::temp_dir().join(format!("ids-replica-two-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let schema = Schema::builder()
        .relation("R0", ["a", "b"])
        .relation("R1", ["c", "d"])
        .build()
        .unwrap();
    let primary = ids_api::Database::open_at(&root, schema, DurableConfig::default()).unwrap();
    for i in 0..SIDE {
        for j in 0..SIDE {
            primary
                .insert("R0", [format!("a{i}"), format!("b{j}")])
                .unwrap();
        }
    }
    primary.insert("R1", ["c0", "d0"]).unwrap();
    let mut replica = Replica::open(&root).unwrap();
    assert!(replica.wait_caught_up(Duration::from_secs(10)).unwrap());
    let db = replica.database();
    let schema = db.schema();
    let (r0, r1) = (
        schema.scheme_id("R0").unwrap(),
        schema.scheme_id("R1").unwrap(),
    );
    // A condition no row meets, on a column no index covers: every scan
    // visits all of `R0` under its lock and ships only a count.
    let b = schema.definition().universe().attr("b").unwrap();
    let scan = Predicate::new().and_eq(b, Value(u64::MAX));
    let one = Predicate::new();

    // Thread A scans `R0` back to back, raising `scanning` for each scan
    // and keeping the shortest one; thread B (this one) times an `R1`
    // read each time it sees a scan in flight.
    let (stop, scanning) = (AtomicBool::new(false), AtomicBool::new(false));
    let shortest_scan = Mutex::new(Duration::MAX);
    let mut waits = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(SeqCst) {
                scanning.store(true, SeqCst);
                let started = Instant::now();
                assert_eq!(db.store().era().unwrap().count(r0, &scan).unwrap(), 0);
                let took = started.elapsed();
                scanning.store(false, SeqCst);
                let mut shortest = shortest_scan.lock().unwrap();
                *shortest = (*shortest).min(took);
            }
        });
        let deadline = Instant::now() + BOUND;
        let mut waits = Vec::with_capacity(ATTEMPTS);
        while waits.len() < ATTEMPTS && Instant::now() < deadline {
            if !scanning.load(SeqCst) {
                std::hint::spin_loop();
                continue;
            }
            let started = Instant::now();
            assert_eq!(db.store().era().unwrap().count(r1, &one).unwrap(), 1);
            waits.push(started.elapsed());
        }
        stop.store(true, SeqCst);
        waits
    });
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        waits.len(),
        ATTEMPTS,
        "only {} R1 reads finished within {BOUND:?} of R0 scans: the relations share a lock",
        waits.len()
    );
    waits.sort();
    let (median, shortest) = (waits[ATTEMPTS / 2], *shortest_scan.lock().unwrap());
    assert!(
        median * 4 < shortest,
        "an R1 read took {median:?} (median) beside R0 scans of {shortest:?} or more: \
         it waited for them, so the relations share a lock"
    );
}
