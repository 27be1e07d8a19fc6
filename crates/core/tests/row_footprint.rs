//! Bytes per row and allocations per write, counted rather than timed.
//!
//! A relation stores each row's values once, in a row-major slab; its
//! membership table, a shard's FD index and the value pool's name table
//! are `u32` slot tables that read keys back through the slab or the
//! pool's arena instead of owning copies; an ordered index chains slots
//! per distinct value.  The slab, the chains' links and the pool's arena
//! and end offsets grow in fixed-size chunks (`CHUNK_BYTES`), not by
//! doubling: they hold at most one chunk of slack, and no growth copies
//! more than one chunk.  A keyed relation is its own key index: the shard
//! files the membership table under the key FD's left-hand side, so an
//! FD on the key costs no table of its own, and only an FD whose
//! left-hand side is not a key keeps an FD index.  A counting allocator
//! measures what 100k rows under a key FD, a split key cover and a
//! non-key FD, an ordered index over them, and 100k interned names
//! actually hold, how many allocation calls the write path makes, and
//! the largest `realloc` it makes.
//! Bytes are the sizes requested from the allocator, capacity included,
//! as the benchmark's `mem_bytes_per_row` counts them.  Run with
//! `--nocapture` to see the exact figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ids_core::RelationShard;
use ids_deps::FdSet;
use ids_relational::{DatabaseSchema, Relation, SchemeId, Universe, Value, ValuePool, CHUNK_BYTES};

thread_local! {
    /// Bytes this thread holds allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Allocation calls on this thread since it was set to `Some(0)`;
    /// `None` = this thread is not counting calls.
    static CALLS: Cell<Option<u64>> = const { Cell::new(None) };
    /// The largest size a `realloc` on this thread asked for since it was
    /// set to `Some(0)`; `None` = this thread is not watching.
    static LARGEST_REALLOC: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The system allocator, keeping each thread's live bytes, counting
/// `alloc` and `realloc` calls on a counting thread, and keeping the
/// largest `realloc` on a watching thread.
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
        let _ = LARGEST_REALLOC.try_with(|largest| {
            if let Some(seen) = largest.get() {
                largest.set(Some(seen.max(new_size)));
            }
        });
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

/// Runs `f`, returning its result and the largest `realloc` it made.
fn largest_realloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REALLOC.with(|n| n.set(Some(0)));
    let result = f();
    (result, LARGEST_REALLOC.with(Cell::take).expect("watching"))
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

/// The heap bytes per row a relation over `attrs` holds once the 100k
/// rows `row(i)` are inserted through its own insert, and the bytes per
/// row a shard enforcing `fds` adds when the same rows go through it.
fn relation_and_index_bytes(attrs: &str, fds: &[&str], row: fn(u64) -> Vec<Value>) -> (f64, f64) {
    let names: Vec<String> = attrs.chars().map(String::from).collect();
    let u = Universe::from_names(names).unwrap();
    let schema = DatabaseSchema::parse(u, &[("R", attrs)]).unwrap();
    let fds = FdSet::parse(schema.universe(), fds).unwrap();
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
    // The same rows through a shard: relation + whatever the shard keeps.
    let ((shard, rel), both_bytes) = bytes_kept(|| {
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        for i in 0..ROWS {
            assert!(shard.insert(&mut rel, row(i)).unwrap().is_accepted());
        }
        (shard, rel)
    });
    assert_eq!(rel.len(), ROWS as usize);
    drop((shard, rel));
    (per(rel_bytes, ROWS), per(both_bytes - rel_bytes, ROWS))
}

#[test]
fn a_row_is_held_once_and_a_key_fd_costs_no_index() {
    let (relation, key_fd) = relation_and_index_bytes("AB", &["A -> B"], row);
    let abc = |i: u64| vec![Value::int(i), Value::int(i % 97), Value::int(i % 89)];
    let (_, split_key) = relation_and_index_bytes("ABC", &["A -> B", "A -> C"], abc);
    let (_, non_key) = relation_and_index_bytes("ABC", &["A -> B"], abc);
    println!(
        "Relation: {relation:.2} B/row; key FD A → B: {key_fd:.4} B/row; \
         split key A → B, A → C: {split_key:.4} B/row; non-key A → B on ABC: {non_key:.2} B/row"
    );
    // 16 bytes of values per row in a chunked slab (at most one chunk of
    // slack), plus an 8-byte bucket per row in a ≤ 7/8-full power-of-two
    // table.
    assert!(relation <= 29.0, "Relation holds {relation:.2} B/row");
    // The relation's table, filed under the key, is the key's index: the
    // shard adds a few fixed-size fields, nothing per row.
    assert!(key_fd <= 0.01, "the key FD costs {key_fd:.4} B/row");
    assert!(
        split_key <= 0.01,
        "the split key costs {split_key:.4} B/row"
    );
    // A 12-byte (tag, slot, count) bucket per distinct image.
    assert!(non_key <= 20.0, "the FD index holds {non_key:.2} B/row");
}

/// The heap bytes per row an ordered index on `B` holds once 100k rows
/// `(i, b(i))` are inserted through a shard: relation, FD index and
/// ordered index, less the same rows without the ordered index.
fn ordered_index_bytes(b: fn(u64) -> u64) -> f64 {
    let (schema, fds) = schema();
    let id = SchemeId(0);
    let fill = |indexed: bool| {
        bytes_kept(|| {
            let mut shard = RelationShard::new(&schema, id, fds.clone());
            let mut rel = Relation::new(schema.attrs(id));
            if indexed {
                let b_attr = schema.universe().attr("B").unwrap();
                shard.add_ordered_index(b_attr, &rel).unwrap();
            }
            for i in 0..ROWS {
                let tuple = vec![Value::int(i), Value::int(b(i))];
                assert!(shard.insert(&mut rel, tuple).unwrap().is_accepted());
            }
            (shard, rel)
        })
    };
    let (plain, plain_bytes) = fill(false);
    drop(plain);
    let (indexed, indexed_bytes) = fill(true);
    drop(indexed);
    per(indexed_bytes - plain_bytes, ROWS)
}

#[test]
fn an_ordered_index_holds_a_link_pair_per_row_and_an_entry_per_value() {
    let hundred_per_value = ordered_index_bytes(|i| i / 100);
    let recurring = ordered_index_bytes(|i| i % 97);
    let unique = ordered_index_bytes(|i| i);
    println!(
        "ordered index: {hundred_per_value:.2} B/row at 100 rows per value, \
         {recurring:.2} B/row over 97 values, {unique:.2} B/row on a unique column"
    );
    // An 8-byte `[prev, next]` pair per row in chunks, plus a map entry
    // per distinct value.
    assert!(hundred_per_value <= 10.0, "{hundred_per_value:.2} B/row");
    assert!(recurring <= 10.0, "{recurring:.2} B/row");
    // The trade-off: a unique column pays the pair *and* a map entry per
    // row — more than one `(value, slot)` entry per row would cost.
    assert!(unique <= 45.0, "{unique:.2} B/row");
}

/// Allocation calls a shard over `R(A, B)` makes for 100k inserts of
/// `(i, i mod 97)`, then for one refused insert, one duplicate insert and
/// 14 286 removes spread over the relation — with an ordered index on `B`
/// when `indexed`.
fn write_path_calls(indexed: bool) -> [u64; 4] {
    let (schema, fds) = schema();
    let id = SchemeId(0);
    let mut shard = RelationShard::new(&schema, id, fds);
    let mut rel = Relation::new(schema.attrs(id));
    if indexed {
        let b = schema.universe().attr("B").unwrap();
        shard.add_ordered_index(b, &rel).unwrap();
    }
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
    let index = if indexed { "with" } else { "without" };
    println!(
        "{ROWS} inserts {index} an ordered index: {insert_calls} allocation calls; \
         refused: {refused_calls}; duplicate: {duplicate_calls}; {} removes: {remove_calls}",
        ROWS.div_ceil(7)
    );
    [insert_calls, refused_calls, duplicate_calls, remove_calls]
}

#[test]
fn inserts_allocate_only_to_grow_and_removes_not_at_all() {
    let [insert_calls, rest @ ..] = write_path_calls(false);
    // The slab's first chunk doubling 12 times and its 12 later chunks,
    // each allocated whole; the tombstone bits and the membership table,
    // each doubling ≈ 10–15 times.
    assert!(insert_calls <= 64, "{insert_calls} allocation calls");
    assert_eq!(rest, [0; 3]);
}

#[test]
fn an_ordered_index_allocates_only_to_grow_and_for_new_values() {
    let [insert_calls, rest @ ..] = write_path_calls(true);
    // The same, plus the links' chunks (the first doubling up to one
    // chunk) and the map's nodes for 97 values.
    assert!(insert_calls <= 100, "{insert_calls} allocation calls");
    assert_eq!(rest, [0; 3]);
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
    // ≈ 5.9 bytes of name in a chunked arena, a 4-byte end offset in
    // chunks and an 8-byte bucket per name.
    assert!(per_name <= 24.0, "the pool holds {per_name:.2} B/name");
}

#[test]
fn no_growth_copies_more_than_a_chunk() {
    let (schema, fds) = schema();
    let id = SchemeId(0);
    let names: Vec<String> = (0..ROWS).map(|n| format!("p{n}")).collect();
    let rows: Vec<Vec<Value>> = (0..ROWS).map(row).collect();
    let ((), largest) = largest_realloc_during(|| {
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        let b = schema.universe().attr("B").unwrap();
        shard.add_ordered_index(b, &rel).unwrap();
        for tuple in rows {
            assert!(shard.insert(&mut rel, tuple).unwrap().is_accepted());
        }
        let mut pool = ValuePool::new();
        for name in &names {
            pool.value(name);
        }
    });
    println!("largest realloc: {largest} bytes (a chunk is {CHUNK_BYTES})");
    // The slab, the links, the arena and the end offsets move at most
    // their first chunk; the slot tables grow into fresh buckets.
    assert!(largest <= CHUNK_BYTES, "a {largest}-byte realloc");
}
