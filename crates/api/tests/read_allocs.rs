//! Allocations per embedded string read, counted rather than timed, and
//! a sink that reads while it is fed.
//!
//! A read's plan, its predicates and its gathered rows live in the
//! reading thread's scratch, reused read after read, and a one-relation
//! read without a select list hands its sink the relation's own layout
//! columns.  So a read allocates only what its caller keeps:
//!
//! * `Database::query_into` of a point read into a sink that keeps
//!   nothing: 0 (7 when each read built its own plan, copied the column
//!   names twice and gathered into a fresh buffer).
//! * The shim point read `SharedDatabase::query(..).into_string_rows()`,
//!   its two argument strings (the column and the key) included: 7 — the
//!   two strings, then `Rows`' row list and its one row's value vector
//!   and two `String`s, then the `Vec<Vec<String>>` it flattens into
//!   (18 before).
//!
//! Release and debug builds count the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ids_api::{eq, Database, EngineKind, RowSink, Schema, SharedDatabase};
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

/// `R0(a0 b0)` as the benchmark declares it — `a0 -> b0`, an ordered
/// index on `b0` — with 1000 rows `(p<n>, g<n / 100>)`.
fn database() -> Database {
    let schema = Schema::builder()
        .relation("R0", ["a0", "b0"])
        .fd("a0 -> b0")
        .index("R0", "b0")
        .build()
        .unwrap();
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    for n in 0..1000 {
        db.insert("R0", [format!("p{n}"), format!("g{}", n / 100)])
            .unwrap();
    }
    db
}

/// A sink that keeps nothing: what the read itself allocates.
#[derive(Default)]
struct Null {
    values: usize,
}

impl RowSink for Null {
    fn start(&mut self, _: &Arc<[String]>, _: usize) {}
    fn row(&mut self) {}
    fn value(&mut self, _: &str) {
        self.values += 1;
    }
}

#[test]
fn a_point_read_allocates_only_what_it_returns() {
    let shared: SharedDatabase = database().into_shared().unwrap();
    let point = |key: usize| {
        let filters = [("a0".to_string(), eq(format!("p{key}")))];
        let mut sink = Null::default();
        shared.query_into("R0", &filters, None, &mut sink).unwrap();
        assert_eq!(sink.values, 2);
    };
    // The first read on this thread sizes its scratch.
    point(0);
    let filters = [("a0".to_string(), eq("p7"))];
    let ((), sink_allocs) = allocs_during(|| {
        let mut sink = Null::default();
        shared.query_into("R0", &filters, None, &mut sink).unwrap();
    });

    // The benchmark's shim read, argument strings and all.
    let (rows, shim_allocs) = allocs_during(|| {
        let key = format!("p{}", 7);
        let column = "a0";
        shared
            .query("R0", &[(column.to_string(), eq(key))], None)
            .map(|rows| rows.into_string_rows())
            .unwrap()
    });
    assert_eq!(rows, [["p7", "g0"]]);
    eprintln!("query_into, point, null sink: {sink_allocs} allocations");
    eprintln!("SharedDatabase::query(..).into_string_rows(), point: {shim_allocs} allocations");
    assert_eq!(sink_allocs, 0, "a point read into a null sink allocated");
    assert_eq!(shim_allocs, 7, "the shim point read");
    assert!(shim_allocs <= 8);
}

/// Copies every row it is fed into `into`, reading both databases as it
/// goes: `into`'s group read, and `from`'s barrier-free count and typed
/// read, which take no name lock.
struct Copier<'a> {
    from: &'a Database,
    into: &'a Database,
    row: Vec<String>,
    /// Per copied row: the group read's rows in `into` afterwards.
    seen: Vec<Vec<Vec<String>>>,
}

impl RowSink for Copier<'_> {
    fn start(&mut self, columns: &Arc<[String]>, _: usize) {
        assert_eq!(&columns[..], ["a0", "b0"]);
    }

    fn row(&mut self) {}

    fn value(&mut self, value: &str) {
        self.row.push(value.to_string());
        if self.row.len() < 2 {
            return;
        }
        let row = std::mem::take(&mut self.row);
        assert_eq!(self.from.count("R0").unwrap(), 1000);
        assert_eq!(self.from.read("R0").unwrap().len(), 1000);
        self.into.insert("R0", &row).unwrap();
        let group = (self.into.query("R0").filter("b0", eq(&row[1])))
            .run()
            .unwrap();
        self.seen.push(group.into_string_rows());
    }
}

#[test]
fn a_sink_that_reads_while_it_is_fed_gets_every_row_right() {
    let from = database();
    let into = Database::open(from.schema().as_ref().clone(), EngineKind::default()).unwrap();
    let mut copier = Copier {
        from: &from,
        into: &into,
        row: Vec::new(),
        seen: Vec::new(),
    };
    let filters = [("b0".to_string(), eq("g3"))];
    from.query_into("R0", &filters, None, &mut copier).unwrap();
    // Each group read inside the sink saw exactly the rows copied so far.
    let copied: Vec<Vec<String>> = (300..400)
        .map(|n| vec![format!("p{n}"), "g3".to_string()])
        .collect();
    assert_eq!(copier.seen.len(), 100);
    for (i, seen) in copier.seen.iter().enumerate() {
        assert_eq!(seen[..], copied[..=i], "after row {i}");
    }
    // And the outer read, its scratch taken back after the sink's reads,
    // still reads right.
    assert_eq!(from.rows("R0").unwrap().len(), 1000);
    assert_eq!(into.rows("R0").unwrap(), copied);
}
