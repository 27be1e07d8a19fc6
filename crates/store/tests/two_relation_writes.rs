//! Writes to one relation never wait for work on another: an insert
//! into `R1` started while a full scan of `R0` holds `R0`'s lock goes
//! straight through.  This is Theorem 3 as a locking property — two
//! relations of an independent schema share no enforcement state, so
//! the store gives each its own lock and nothing database-wide.  A store
//! whose writes took a lock the scan also held would queue every `R1`
//! insert behind the scan holding it, for the rest of that scan at
//! least.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, DatabaseState, Predicate, Universe, Value};
use ids_store::{Schema, Store, StoreConfig};

/// Rows preloaded into `R0`: enough that one scan of it takes far
/// longer than one insert.
const ROWS: u64 = 40_000;

/// `R1` inserts started while an `R0` scan was in flight.
const ATTEMPTS: usize = 32;

/// How long the `R1` inserts may take in all.  Behind a shared lock
/// each one can starve for many scans; without one they take
/// microseconds.
const BOUND: Duration = Duration::from_secs(10);

#[test]
fn an_insert_into_one_relation_does_not_wait_for_a_scan_of_another() {
    let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
    let schema = DatabaseSchema::parse(u, &[("R0", "A B"), ("R1", "C D")]).unwrap();
    let fds = FdSet::new();
    let (r0, r1) = (
        schema.scheme_by_name("R0").unwrap(),
        schema.scheme_by_name("R1").unwrap(),
    );
    let mut state = DatabaseState::empty(&schema);
    for i in 0..ROWS {
        state
            .insert(r0, vec![Value::int(i), Value::int(i)])
            .unwrap();
    }
    let store = Store::open(
        Schema::canonical(&schema, &fds),
        StoreConfig {
            initial_state: Some(state),
            ..Default::default()
        },
    )
    .unwrap();
    // A condition no row meets, on a column no index covers: every scan
    // visits all of `R0` under its lock and ships only a count.
    let b = schema.universe().attr("B").unwrap();
    let scan = Predicate::new().and_eq(b, Value(u64::MAX));

    // How long one scan takes with nothing else running.
    let solo = (0..3)
        .map(|_| {
            let started = Instant::now();
            assert_eq!(store.era().unwrap().count(r0, &scan).unwrap(), 0);
            started.elapsed()
        })
        .min()
        .unwrap();

    // Thread A scans `R0` back to back, publishing each scan's number
    // while it runs (0 between scans) and keeping the shortest scan.
    // Thread B (this one) times one `R1` insert per scan, a quarter of a
    // solo scan after that scan began: by then the scan holds `R0`'s
    // lock, so an insert that needed it too would wait out the rest.
    let (stop, in_flight) = (AtomicBool::new(false), AtomicU64::new(0));
    let shortest_scan = Mutex::new(Duration::MAX);
    let mut waits = std::thread::scope(|s| {
        s.spawn(|| {
            for n in 1.. {
                if stop.load(SeqCst) {
                    break;
                }
                in_flight.store(n, SeqCst);
                let started = Instant::now();
                assert_eq!(store.era().unwrap().count(r0, &scan).unwrap(), 0);
                let took = started.elapsed();
                in_flight.store(0, SeqCst);
                let mut shortest = shortest_scan.lock().unwrap();
                *shortest = (*shortest).min(took);
            }
        });
        let deadline = Instant::now() + BOUND;
        let mut waits = Vec::with_capacity(ATTEMPTS);
        let mut last = 0;
        while waits.len() < ATTEMPTS && Instant::now() < deadline {
            let n = in_flight.load(SeqCst);
            if n == 0 || n == last {
                std::hint::spin_loop();
                continue;
            }
            last = n;
            let seen = Instant::now();
            while seen.elapsed() < solo / 4 {
                std::hint::spin_loop();
            }
            if in_flight.load(SeqCst) != n {
                continue; // that scan already ended; wait for the next
            }
            let started = Instant::now();
            assert!(store
                .insert(r1, vec![Value::int(n), Value::int(n)])
                .unwrap()
                .is_accepted());
            waits.push(started.elapsed());
        }
        stop.store(true, SeqCst);
        waits
    });
    assert_eq!(
        waits.len(),
        ATTEMPTS,
        "only {} R1 inserts finished within {BOUND:?} of R0 scans: the relations share a lock",
        waits.len()
    );
    waits.sort();
    let (median, shortest) = (waits[ATTEMPTS / 2], *shortest_scan.lock().unwrap());
    assert!(
        median * 4 < shortest,
        "an R1 insert took {median:?} (median) beside R0 scans of {shortest:?} or more: \
         it waited for them, so the relations share a lock"
    );
}
