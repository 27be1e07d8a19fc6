//! Allocations per request, counted rather than timed.
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
//! * A rejected insert (an existing key with another value) is counted
//!   too, and pinned at its exact cost: 0 in memory, where the outcome
//!   carries the violated FD by value, and 1 per write over the wire: the
//!   server writes the FD's text as the schema rendered it once, and the
//!   client decodes it into a `String`.  Before the text was cached the
//!   server rendered it per reply: 8 per write.
//!
//! Every other request kind is pinned the same way, one exact row each
//! (Ping, Count, a point, an absent and a group `Query`, a `Join`, the
//! rejected insert): its whole-process count per request, and beside it
//! what the client's `decode_reply` of that reply makes on its own.  The
//! difference is the server's share, asserted exactly.  A read runs from
//! a view of its frame, through the database's per-thread scratch, into
//! the session's reply buffer, so the server's share of a point, absent
//! or group query and of a count is 0 — a point read was 20 in all, 12
//! of them the server's — and what is left is the client's `Reply`: 8
//! for a point read, 0 for a count.  A join's server share, 11 per
//! reply, is its plan: the join tree, the joined columns' names and
//! the reducer's key set.
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
use ids_server::wire::{decode_reply, encode_reply, Reply, Request, WireOutcome, FRAME_HEADER_LEN};
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
/// Beside it the key chain `S(b c)`, `T(c d)` the joins read: ten rows
/// joined to five.
fn database() -> Database {
    let schema = Schema::builder()
        .relation("R", ["a", "b"])
        .relation("S", ["b", "c"])
        .relation("T", ["c", "d"])
        .fd("a -> b")
        .fd("b -> c")
        .fd("c -> d")
        .index("R", "b")
        .build()
        .unwrap();
    let mut db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    for i in 0..LIVE {
        db.insert("R", [format!("k{i}"), format!("v{}", i % 10)])
            .unwrap();
    }
    for i in 0..10 {
        db.insert("S", [format!("v{i}"), format!("c{}", i % 5)])
            .unwrap();
    }
    for i in 0..5 {
        db.insert("T", [format!("c{i}"), format!("d{i}")]).unwrap();
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

/// The row the `i`th cycle gets rejected: an existing key with another
/// recurring value, so `a -> b` refuses it.
fn refused(i: usize) -> [String; 2] {
    [format!("k{i}"), format!("v{}", (i + 1) % 10)]
}

/// The `i`th cycle's rejected insert and its reply.
fn rejected(i: usize) -> [(Request, Reply); 1] {
    [(
        Request::Insert {
            relation: "R".into(),
            values: refused(i).to_vec(),
        },
        Reply::Insert(WireOutcome::Rejected {
            violated: Some("a -> b".into()),
        }),
    )]
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

/// `CYCLES` rejected inserts straight into the database, returning the
/// allocation calls they made.
fn embedded_rejects(db: &Database) -> u64 {
    let rows: Vec<[String; 2]> = (0..CYCLES).map(refused).collect();
    let mut outcomes = Vec::with_capacity(CYCLES);
    let ((), allocs) = allocs_during(|| {
        for row in &rows {
            let rejected = db.insert("R", row).unwrap();
            outcomes.push(matches!(rejected, InsertOutcome::Rejected { .. }));
        }
    });
    assert!(outcomes.iter().all(|&ok| ok));
    allocs
}

/// The `i`th read of each kind and the reply it must get, built before
/// counting: the caller's.
fn ping(_: usize) -> (Request, Reply) {
    (Request::Ping, Reply::Pong)
}

fn count(_: usize) -> (Request, Reply) {
    let relation = "R".to_string();
    (Request::Count { relation }, Reply::Count(LIVE as u64))
}

/// A `Query` of `R` on one column, with the rows it must find.
fn query(column: &str, value: String, rows: Vec<Vec<String>>) -> (Request, Reply) {
    let request = Request::Query {
        relation: "R".into(),
        filters: vec![(column.into(), value)],
        select: None,
    };
    let columns = vec!["a".into(), "b".into()];
    (request, Reply::Rows { columns, rows })
}

/// A live key: one row.
fn point(i: usize) -> (Request, Reply) {
    let row = vec![format!("k{i}"), format!("v{}", i % 10)];
    query("a", format!("k{i}"), vec![row])
}

/// A key never interned: no row, and no store visit.
fn absent(i: usize) -> (Request, Reply) {
    query("a", format!("x{i}"), Vec::new())
}

/// One of the ten `b` groups: `LIVE / 10` rows, in insertion order.
fn group(i: usize) -> (Request, Reply) {
    let g = format!("v{}", i % 10);
    let rows = (0..LIVE).filter(|j| j % 10 == i % 10);
    let rows = rows.map(|j| vec![format!("k{j}"), g.clone()]).collect();
    query("b", g, rows)
}

/// `S ⋈ T`, with the reply the embedded join renders.
fn join(_: usize) -> (Request, Reply) {
    let relations = vec!["S".to_string(), "T".to_string()];
    let rows = database().join(&relations).unwrap();
    let reply = Reply::Rows {
        columns: rows.columns().to_vec(),
        rows: rows.into_string_rows(),
    };
    (Request::Join { relations }, reply)
}

/// What the client's `decode_reply` of each of `replies` allocates, on
/// its own.
fn decode_allocs(replies: &[Reply]) -> u64 {
    let frames: Vec<Vec<u8>> = replies.iter().map(|r| encode_reply(7, r)).collect();
    let ((), allocs) = allocs_during(|| {
        for frame in &frames {
            drop(decode_reply(&frame[FRAME_HEADER_LEN..]).unwrap());
        }
    });
    allocs
}

/// One round of `CYCLES` cycles of `ops` pipelined through `client`,
/// `WINDOW` requests in flight, returning the allocation calls it made.
fn wire_round<const N: usize>(client: &mut Client, ops: fn(usize) -> [(Request, Reply); N]) -> u64 {
    // The requests are built before counting: they are the caller's.
    let (requests, expected): (Vec<Request>, Vec<Reply>) = (0..CYCLES).flat_map(ops).unzip();
    pipelined(client, requests, expected)
}

/// `requests` pipelined through `client`, `WINDOW` in flight, each
/// checked against its `expected` reply: the allocation calls made.
fn pipelined(client: &mut Client, requests: Vec<Request>, expected: Vec<Reply>) -> u64 {
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
    embedded_rejects(&db);
    let embedded_rejected = embedded_rejects(&db);

    // Over loopback: the first round sizes both ends' buffers too.
    let shared = Arc::new(database().into_shared().unwrap());
    let server = Server::serve(shared, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    wire_round(&mut client, cycle);
    let wire = wire_round(&mut client, cycle);
    wire_round(&mut client, rejected);
    let wire_rejected = wire_round(&mut client, rejected);

    // (kind, requests, whole-process count over the round's `CYCLES`
    // requests, the client's decode_reply over their replies).  The
    // server's share is the difference.  A group reply is 409 or 410
    // rows, each decoded into a vector and two `String`s, in a row list
    // grown past what its first reservation fits.
    type Read = fn(usize) -> (Request, Reply);
    let reads: [(&str, Read, u64, u64); 6] = [
        ("Ping", ping, 0, 0),
        ("Count", count, 0, 0),
        ("point Query", point, 8 * 256, 8 * 256),
        ("absent Query", absent, 3 * 256, 3 * 256),
        ("group Query", group, 316116, 316116),
        ("Join", join, 59 * 256, 48 * 256),
    ];
    let mut measured = Vec::new();
    for (_, read, ..) in reads {
        let built = || (0..CYCLES).map(read).unzip::<_, _, Vec<_>, Vec<_>>();
        let (requests, expected) = built();
        pipelined(&mut client, requests, expected);
        let (requests, expected) = built();
        let decoded = decode_allocs(&expected);
        measured.push((pipelined(&mut client, requests, expected), decoded));
    }
    let rejected_decoded = decode_allocs(
        &(0..CYCLES)
            .map(|i| rejected(i)[0].1.clone())
            .collect::<Vec<_>>(),
    );
    drop(client);
    server.shutdown();

    let writes = 4 * CYCLES as u64;
    let rejects = CYCLES as u64;
    for (path, allocs, writes) in [
        ("Database::{insert, remove}", embedded, writes),
        ("Client → Server", wire, writes),
        ("Database::insert, rejected", embedded_rejected, rejects),
        ("Client → Server, rejected", wire_rejected, rejects),
    ] {
        let per_write = allocs as f64 / writes as f64;
        eprintln!("{path}: {allocs} allocations over {writes} writes, {per_write:.3} per write");
    }
    assert_eq!(embedded, 0, "Database::{{insert, remove}} allocated");
    assert_eq!(wire, 0, "the wire write path allocated");
    assert_eq!(
        embedded_rejected, 0,
        "a rejected Database::insert allocated"
    );
    assert_eq!(
        wire_rejected, rejects,
        "a rejected insert over the wire: the violated FD decoded by the client"
    );
    assert_eq!(
        rejected_decoded, rejects,
        "the client's decode of a rejection"
    );

    let n = CYCLES as f64;
    for ((kind, _, total, client), (got, decoded)) in reads.iter().zip(&measured) {
        let (per, per_decode) = (*got as f64 / n, *decoded as f64 / n);
        eprintln!(
            "{kind}: {got} allocations over {CYCLES} requests, {per:.3} per request, \
             {per_decode:.3} of them the client's decode_reply"
        );
        assert_eq!(*decoded, *client, "{kind}: the client's decode_reply");
        assert_eq!(got - decoded, total - client, "{kind}: the server's share");
        assert_eq!(*got, *total, "{kind}: the whole request");
    }
}
