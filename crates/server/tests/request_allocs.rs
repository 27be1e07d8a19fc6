//! Allocations per string write, counted rather than timed.
//!
//! A string `Insert` or `Remove` crosses client → wire → server → store.
//! Its names are already in the pool and its relation's tables are
//! already sized, so none of those layers needs memory of its own: the
//! client encodes the request into its send buffer, each end lends the
//! frame out of its read buffer, the server runs the write from a view
//! of the frame, and the database resolves the row on the stack, to be
//! copied once into the relation's slab.  A counting allocator checks
//! that every one of those steps allocates nothing:
//!
//! * `Database::{insert, remove}` in memory, each outcome (an accepted
//!   and a duplicate insert, a present and an absent remove): 0.  Before
//!   the row was resolved on the stack each made 2 (the collected values
//!   and the boxed tuple).
//! * The same four writes pipelined through `Client` and a loopback
//!   `Server`: 0 outside the caller's own `Request`, which is built
//!   before counting starts.  Before the client encoded in place, the
//!   frame readers lent their payloads and the server viewed the frame,
//!   this made 11 per write (11264 over 1024 writes).
//!
//! The count is process-wide — the session runs on the server's thread —
//! so this file holds one `#[test]`.  Release and debug builds count the
//! same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ids_api::{Database, EngineKind, Schema};
use ids_client::Client;
use ids_core::InsertOutcome;
use ids_server::wire::{Reply, Request, WireOutcome};
use ids_server::Server;
use ids_store::StoreConfig;

/// Whether allocation calls are being counted, on any thread.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocation calls since counting last started.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc` and `realloc` calls made on
/// any thread while [`COUNTING`] is set.
struct Counting;

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments, unchanged, to `System` —
// the caller's `GlobalAlloc` contract is exactly the one `System` needs
// — and `note` only touches two atomics (it never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the allocation calls the whole
/// process made meanwhile.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let result = f();
    COUNTING.store(false, Ordering::SeqCst);
    (result, ALLOCS.load(Ordering::SeqCst))
}

/// Live rows of `R` before any counted write.
const LIVE: usize = 4096;
/// Write cycles per round; a round leaves this many tombstones, and two
/// rounds stay well short of the `LIVE` that would compact the relation.
const CYCLES: usize = 256;
/// Requests in flight at once on the wire, the benchmark's window.
const WINDOW: usize = 64;

/// `R(a b)` shaped like the benchmark's `R0`: `a -> b` and an ordered
/// index on `b`, holding `LIVE` rows over ten `b` values.  The names of
/// the cycles' rows are interned too, so no counted write adds one.
fn database() -> Database {
    let schema = Schema::builder()
        .relation("R", ["a", "b"])
        .fd("a -> b")
        .index("R", "b")
        .build()
        .unwrap();
    let mut db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    for i in 0..LIVE {
        db.insert("R", [format!("k{i}"), format!("v{}", i % 10)])
            .unwrap();
    }
    for i in 0..CYCLES {
        db.intern(fresh(i)[0].as_str()).unwrap();
    }
    db
}

/// The row the `i`th cycle writes: a fresh key, a recurring value.
fn fresh(i: usize) -> [String; 2] {
    [format!("n{i}"), format!("v{}", i % 10)]
}

/// One cycle's four writes of row `i`, and the reply each must get: an
/// accepted insert, a duplicate, a remove of the present row and one of
/// the absent row.
fn cycle(i: usize) -> [(Request, Reply); 4] {
    let row = || fresh(i).to_vec();
    let insert = || Request::Insert {
        relation: "R".into(),
        values: row(),
    };
    let remove = || Request::Remove {
        relation: "R".into(),
        values: row(),
    };
    [
        (insert(), Reply::Insert(WireOutcome::Accepted)),
        (insert(), Reply::Insert(WireOutcome::Duplicate)),
        (remove(), Reply::Remove(true)),
        (remove(), Reply::Remove(false)),
    ]
}

/// One round of `CYCLES` cycles straight into the database, returning
/// the allocation calls it made.
fn embedded_round(db: &Database) -> u64 {
    // The rows are built before counting: they are the caller's.
    let rows: Vec<[String; 2]> = (0..CYCLES).map(fresh).collect();
    let mut outcomes = Vec::with_capacity(4 * CYCLES);
    let ((), allocs) = allocs_during(|| {
        for row in &rows {
            let accepted = db.insert("R", row).unwrap();
            outcomes.push(matches!(accepted, InsertOutcome::Accepted));
            let duplicate = db.insert("R", row).unwrap();
            outcomes.push(matches!(duplicate, InsertOutcome::Duplicate));
            outcomes.push(db.remove("R", row).unwrap());
            outcomes.push(!db.remove("R", row).unwrap());
        }
    });
    assert!(outcomes.iter().all(|&ok| ok));
    allocs
}

/// One round of `CYCLES` cycles pipelined through `client`, `WINDOW`
/// requests in flight, returning the allocation calls it made.
fn wire_round(client: &mut Client) -> u64 {
    // The requests are built before counting: they are the caller's.
    let (requests, expected): (Vec<Request>, Vec<Reply>) = (0..CYCLES).flat_map(cycle).unzip();
    let mut replies = Vec::with_capacity(requests.len());
    let mut ids = Vec::with_capacity(WINDOW);
    let ((), allocs) = allocs_during(|| {
        let mut requests = requests.into_iter();
        loop {
            ids.clear();
            ids.extend(
                requests
                    .by_ref()
                    .take(WINDOW)
                    .map(|r| client.send(r).unwrap()),
            );
            if ids.is_empty() {
                break;
            }
            for &id in &ids {
                replies.push(client.recv(id).unwrap());
            }
        }
    });
    assert_eq!(replies, expected);
    allocs
}

#[test]
fn a_string_write_allocates_nothing_from_client_to_store() {
    // Embedded: the first round sizes the relation's tables for the
    // second.
    let db = database();
    embedded_round(&db);
    let embedded = embedded_round(&db);

    // Over loopback: the first round sizes both ends' buffers too.
    let shared = Arc::new(database().into_shared().unwrap());
    let server = Server::serve(shared, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    wire_round(&mut client);
    let wire = wire_round(&mut client);
    drop(client);
    server.shutdown();

    let writes = 4 * CYCLES as u64;
    for (path, allocs) in [
        ("Database::{insert, remove}", embedded),
        ("Client → Server", wire),
    ] {
        let per_write = allocs as f64 / writes as f64;
        eprintln!("{path}: {allocs} allocations over {writes} writes, {per_write:.3} per write");
    }
    assert_eq!(embedded, 0, "Database::{{insert, remove}} allocated");
    assert_eq!(wire, 0, "the wire write path allocated");
}
