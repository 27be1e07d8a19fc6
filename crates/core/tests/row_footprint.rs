//! Bytes per row and allocations per write, counted rather than timed.
//!
//! A relation stores each row's values once, in a row-major slab; its
//! membership table, a shard's FD index and the value pool's name table
//! are `u32` slot tables that read keys back through the slab or the
//! pool's arena instead of owning copies.  A counting allocator measures
//! what 100k two-column rows under one key FD, and 100k interned names,
//! actually hold, and how many allocation calls the write path makes.
//! Bytes are the sizes requested from the allocator, capacity included,
//! as the benchmark's `mem_bytes_per_row` counts them.  Run with
//! `--nocapture` to see the exact figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ids_core::RelationShard;
use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, Relation, SchemeId, Universe, Value, ValuePool};

thread_local! {
    /// Bytes this thread holds allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Allocation calls on this thread since it was set to `Some(0)`;
    /// `None` = this thread is not counting calls.
    static CALLS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, keeping each thread's live bytes and counting
/// `alloc` and `realloc` calls on a counting thread.
struct Counting;

fn note(grown: i64, call: bool) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LIVE.try_with(|live| live.set(live.get() + grown));
    if call {
        let _ = CALLS.try_with(|n| {
            if let Some(seen) = n.get() {
                n.set(Some(seen + 1));
            }
        });
    }
}

fn size(n: usize) -> i64 {
    i64::try_from(n).expect("allocation sizes fit i64")
}

// SAFETY: every method hands its arguments, unchanged, to `System` —
// the caller's `GlobalAlloc` contract is exactly the one `System` needs
// — and `note` only reads and writes `Cell`s (it never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(size(layout.size()), true);
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-size(layout.size()), false);
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(size(new_size) - size(layout.size()), true);
        // SAFETY: see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the heap bytes it left allocated.
fn bytes_kept<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let result = f();
    (result, LIVE.with(Cell::get) - before)
}

/// Runs `f`, returning its result and the allocation calls it made.
fn calls_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS.with(|n| n.set(Some(0)));
    let result = f();
    (result, CALLS.with(Cell::take).expect("counting"))
}

const ROWS: u64 = 100_000;

/// `R(A, B)` under the key FD `A → B`.
fn schema() -> (DatabaseSchema, FdSet) {
    let u = Universe::from_names(["A", "B"]).unwrap();
    let schema = DatabaseSchema::parse(u, &[("R", "AB")]).unwrap();
    let fds = FdSet::parse(schema.universe(), &["A -> B"]).unwrap();
    (schema, fds)
}

fn row(i: u64) -> Vec<Value> {
    vec![Value::int(i), Value::int(i % 97)]
}

fn per(bytes: i64, n: u64) -> f64 {
    bytes as f64 / n as f64
}

#[test]
fn a_row_is_held_once_and_its_fd_image_as_one_slot() {
    let (schema, fds) = schema();
    let id = SchemeId(0);
    // The relation alone, filled through its own insert.
    let (rel, rel_bytes) = bytes_kept(|| {
        let mut rel = Relation::new(schema.attrs(id));
        for i in 0..ROWS {
            rel.insert(row(i)).unwrap();
        }
        rel
    });
    drop(rel);
    // The same rows through a shard: relation + the `A → B` index.
    let ((shard, rel), both_bytes) = bytes_kept(|| {
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        for i in 0..ROWS {
            assert!(shard.insert(&mut rel, row(i)).unwrap().is_accepted());
        }
        (shard, rel)
    });
    assert_eq!(rel.len(), ROWS as usize);
    let relation = per(rel_bytes, ROWS);
    let fd_index = per(both_bytes - rel_bytes, ROWS);
    println!("Relation: {relation:.2} B/row; FD index: {fd_index:.2} B/row");
    // 16 bytes of values per row in a doubling slab, plus an 8-byte
    // bucket per row in a ≤ 7/8-full power-of-two table.
    assert!(relation <= 34.0, "Relation holds {relation:.2} B/row");
    // A 12-byte (tag, slot, count) bucket per distinct image.
    assert!(fd_index <= 20.0, "the FD index holds {fd_index:.2} B/row");
    drop((shard, rel));
}

#[test]
fn inserts_allocate_only_to_grow_and_removes_not_at_all() {
    let (schema, fds) = schema();
    let id = SchemeId(0);
    let mut shard = RelationShard::new(&schema, id, fds);
    let mut rel = Relation::new(schema.attrs(id));
    let mut insert_calls = 0;
    for i in 0..ROWS {
        // The tuple is the caller's allocation, made outside the count.
        let tuple = row(i);
        let (outcome, calls) = calls_during(|| shard.insert(&mut rel, tuple));
        assert!(outcome.unwrap().is_accepted());
        insert_calls += calls;
    }
    // A refused and a duplicate insert allocate nothing either.
    let (conflicting, duplicate) = (vec![Value::int(5), Value::int(1)], row(5));
    let (refused, refused_calls) = calls_during(|| shard.insert(&mut rel, conflicting));
    assert!(!refused.unwrap().is_accepted());
    let (_, duplicate_calls) = calls_during(|| shard.insert(&mut rel, duplicate));
    // Removes spread over the relation, too few to compact it.
    let mut remove_calls = 0;
    for i in (0..ROWS).step_by(7) {
        let tuple = row(i);
        let (removed, calls) = calls_during(|| shard.remove(&mut rel, &tuple));
        assert!(removed.unwrap());
        remove_calls += calls;
    }
    assert_eq!(rel.epoch(), 0, "no remove compacted");
    println!(
        "{ROWS} inserts: {insert_calls} allocation calls; refused: {refused_calls}; \
         duplicate: {duplicate_calls}; {} removes: {remove_calls}",
        ROWS.div_ceil(7)
    );
    // Slab, tombstone bits and two tables, each doubling ≈ 15–17 times.
    assert!(insert_calls <= 64, "{insert_calls} allocation calls");
    assert_eq!((refused_calls, duplicate_calls, remove_calls), (0, 0, 0));
}

#[test]
fn a_name_is_interned_once() {
    let names: Vec<String> = (0..ROWS).map(|n| format!("p{n}")).collect();
    let (pool, bytes) = bytes_kept(|| {
        let mut pool = ValuePool::new();
        for name in &names {
            pool.value(name);
        }
        pool
    });
    let name_bytes: usize = names.iter().map(String::len).sum();
    assert_eq!((pool.len(), pool.name_bytes()), (ROWS as usize, name_bytes));
    for (n, name) in names.iter().enumerate().step_by(997) {
        assert_eq!(pool.get(name), Some(Value::int(n as u64)));
        assert_eq!(pool.name(Value::int(n as u64)), Some(name.as_str()));
    }
    let per_name = per(bytes, ROWS);
    println!("ValuePool: {per_name:.2} B/name ({name_bytes} name bytes)");
    // ≈ 5.9 bytes of name in a doubling arena, a 4-byte end offset and
    // an 8-byte bucket per name.
    assert!(per_name <= 34.0, "the pool holds {per_name:.2} B/name");
}
