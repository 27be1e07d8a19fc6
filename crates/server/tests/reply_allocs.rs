//! Allocations per read, counted rather than timed.
//!
//! A 1000-row join shaped like the benchmark's `D1 ⋈ D2` (1000 tuples
//! joined to 50 through a key chain) is read twice: through
//! `Database::join`, which collects `String` rows, and through the
//! server's streamed reply, which renders pool names straight into a
//! reused reply buffer.  A counting allocator reports how many
//! allocation calls each made.  No tuple is copied out of its relation
//! on its own: each read gathers its matches' values into one buffer
//! under the relation's lock, and the planner's flat fold allocates per
//! edge, not per row, so only the `String` rows allocate per value.
//!
//! A single-relation read is the join of one relation, rendered from
//! its gathered buffer: a point read and a 100-row group read through
//! `Database::query_into` are counted the same two ways.  The plan, its
//! predicates and the gathered buffer are the thread's scratch, reused
//! read after read, and the columns are the relation's shared layout:
//! streamed, such a read allocates nothing.
//!
//! Every bound is the exact count the read makes today (release and
//! debug builds agree): a change that allocates once more per read
//! fails here and has to say why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ids_api::{eq, Cond, Database, EngineKind, Rows, Schema};
use ids_server::wire::{encode_reply, Reply, RowsWriter};
use ids_store::StoreConfig;

thread_local! {
    /// Allocation calls on this thread since it was set to `Some(0)`;
    /// `None` = this thread is not counting.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting `alloc` and `realloc` calls on a
/// counting thread.
struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|n| {
        if let Some(seen) = n.get() {
            n.set(Some(seen + 1));
        }
    });
}

// SAFETY: every method hands its arguments, unchanged, to `System` —
// the caller's `GlobalAlloc` contract is exactly the one `System` needs
// — and `note` only reads and writes a `Cell` (it never allocates).
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

/// Runs `f`, returning its result and the allocation calls it made.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(Some(0)));
    let result = f();
    let n = ALLOCS.with(|n| n.take());
    (result, n.expect("counting"))
}

const D1_ROWS: usize = 1000;
const D2_ROWS: usize = 50;

/// `D1(b0 c)` with 1000 rows and `D2(c d)` with 50, under `b0 -> c` and
/// `c -> d`: every `D1` row joins exactly one `D2` row.
fn database() -> Database {
    let schema = Schema::builder()
        .relation("D1", ["b0", "c"])
        .relation("D2", ["c", "d"])
        .fd("b0 -> c")
        .fd("c -> d")
        .build()
        .unwrap();
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    for i in 0..D1_ROWS {
        db.insert("D1", [format!("g{i}"), format!("c{}", i % D2_ROWS)])
            .unwrap();
    }
    for j in 0..D2_ROWS {
        db.insert("D2", [format!("c{j}"), format!("d{j}")]).unwrap();
    }
    db
}

fn relations() -> Vec<String> {
    vec!["D1".to_string(), "D2".to_string()]
}

/// `Database::join`: four allocations per output row — the `Row`'s
/// value vector and its three `String`s — and 50 per join, counted on
/// the thread's first read, which sizes its scratch (52 before).
const JOIN_ALLOCS: u64 = 4050;
/// The streamed join reply: per reply — the join tree, the joined
/// columns' names, the reducer's key set — none per row and none per
/// fold edge (45 before the fold's tables were the thread's scratch).
const STREAMED_JOIN_ALLOCS: u64 = 16;

#[test]
fn database_join_allocates_only_for_its_string_rows() {
    let db = database();
    let (rows, allocs) = allocs_during(|| db.join(relations()).unwrap());
    assert_eq!(rows.len(), D1_ROWS);
    let per_row = allocs as f64 / D1_ROWS as f64;
    eprintln!("Database::join: {allocs} allocations, {per_row:.3} per output row");
    assert!(allocs <= JOIN_ALLOCS, "{allocs} allocations");
}

#[test]
fn a_streamed_join_reply_allocates_per_reply_not_per_row() {
    let db = database();
    let stream = |out: &mut Vec<u8>| {
        let mut rows = RowsWriter::new(out, 7);
        db.join_into(relations(), &[], &mut rows).unwrap();
        rows.finish();
    };
    // The session's buffer is reused across replies: the first one sizes
    // it, the second is the steady state.
    let mut out = Vec::new();
    stream(&mut out);
    out.clear();
    let ((), allocs) = allocs_during(|| stream(&mut out));
    let per_row = allocs as f64 / D1_ROWS as f64;
    eprintln!("streamed join reply: {allocs} allocations, {per_row:.3} per output row");
    assert!(per_row <= 0.05, "{per_row:.3} allocations per row");
    assert!(allocs <= STREAMED_JOIN_ALLOCS, "{allocs} allocations");

    // The bytes are the reply the `Rows` table encodes.
    let rows = db.join(relations()).unwrap();
    let reply = Reply::Rows {
        columns: rows.columns().to_vec(),
        rows: rows.into_string_rows(),
    };
    assert_eq!(out, encode_reply(7, &reply));
}

/// `G(k g)` with 1000 rows under `k -> g`, an ordered index on `g`, and
/// 100 rows in each of 10 groups.
fn grouped() -> Database {
    let schema = Schema::builder()
        .relation("G", ["k", "g"])
        .fd("k -> g")
        .index("G", "g")
        .build()
        .unwrap();
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    for i in 0..1000 {
        db.insert("G", [format!("k{i}"), format!("g{}", i % 10)])
            .unwrap();
    }
    db
}

/// One `Database::query_into` of `G`, streamed into a reused reply
/// buffer and collected into `Rows`: the allocation calls of each, and
/// the rows.
fn counted_query(db: &Database, filters: &[(String, Cond)]) -> (u64, u64, Rows) {
    let stream = |out: &mut Vec<u8>| {
        let mut rows = RowsWriter::new(out, 7);
        db.query_into("G", filters, None, &mut rows).unwrap();
        rows.finish();
    };
    let mut out = Vec::new();
    stream(&mut out);
    out.clear();
    let ((), streamed) = allocs_during(|| stream(&mut out));
    let (rows, collected) = allocs_during(|| {
        let mut rows = Rows::default();
        db.query_into("G", filters, None, &mut rows).unwrap();
        rows
    });
    // The bytes are the reply the `Rows` table encodes.
    let reply = Reply::Rows {
        columns: rows.columns().to_vec(),
        rows: rows.clone().into_string_rows(),
    };
    assert_eq!(out, encode_reply(7, &reply));
    (streamed, collected, rows)
}

#[test]
fn single_relation_reads_allocate_per_read_not_per_row() {
    let db = grouped();
    // (filter, rows, streamed bound, collected bound).  Streamed, neither
    // read allocates (7 and 14 when each read built its own plan, copied
    // the column names twice and gathered into a fresh buffer; 8 and 112
    // when it boxed its matches).  Into `Rows` only the rows allocate:
    // the row list, and per row its value vector and its `String`s (14
    // and 318 before, 15 and 416 boxed).
    let cases = [(("k", "k7"), 1, 0, 4), (("g", "g3"), 100, 0, 301)];
    for ((column, value), len, streamed_max, collected_max) in cases {
        let filters = [(column.to_string(), eq(value))];
        let (streamed, collected, rows) = counted_query(&db, &filters);
        assert_eq!(rows.len(), len);
        eprintln!(
            "{len}-row query on {column}: {streamed} allocations streamed, {collected} into Rows"
        );
        assert!(streamed <= streamed_max, "{streamed} allocations streamed");
        assert!(
            collected <= collected_max,
            "{collected} allocations into Rows"
        );
    }
}
