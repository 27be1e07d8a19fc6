//! Allocations per joined row, counted rather than timed.
//!
//! A 1000-row join shaped like the benchmark's `D1 ⋈ D2` (1000 tuples
//! joined to 50 through a key chain) is read twice: through
//! `Database::join`, which collects `String` rows, and through the
//! server's streamed reply, which renders pool names straight into a
//! reused reply buffer.  A counting allocator reports how many
//! allocation calls each made per output row.  Each tuple is copied out
//! of its relation once (one allocation per fetched tuple, 1.05 per
//! output row here); after that the planner's flat fold allocates per
//! edge, not per row, and only the `String` rows allocate per value.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ids_api::{Database, EngineKind, Schema};
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

#[test]
fn database_join_makes_at_most_six_allocations_per_row() {
    let db = database();
    let (rows, allocs) = allocs_during(|| db.join(relations()).unwrap());
    assert_eq!(rows.len(), D1_ROWS);
    let per_row = allocs as f64 / D1_ROWS as f64;
    eprintln!("Database::join: {allocs} allocations, {per_row:.3} per output row");
    assert!(per_row <= 6.0, "{per_row:.3} allocations per row");
}

#[test]
fn a_streamed_join_reply_makes_at_most_one_and_a_half_allocations_per_row() {
    let db = database();
    let stream = |out: &mut Vec<u8>| {
        let mut rows = RowsWriter::new(out, 7);
        db.join_into(&relations(), &[], &mut rows).unwrap();
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
    assert!(per_row <= 1.5, "{per_row:.3} allocations per row");

    // The bytes are the reply the `Rows` table encodes.
    let rows = db.join(relations()).unwrap();
    let reply = Reply::Rows {
        columns: rows.columns().to_vec(),
        rows: rows.into_string_rows(),
    };
    assert_eq!(out, encode_reply(7, &reply));
}
