//! A tour of the query subsystem: fluent filtered reads with typed
//! rows, pushed-down execution, and barrier-free multi-relation joins —
//! the read-side payoff of schema independence.
//!
//! Run with: `cargo run --example query_tour`

use independent_schemas::prelude::*;

fn main() {
    // A registrar schema; the builder runs the independence analysis
    // once and certifies the read-side shortcuts below are sound.
    let schema = Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course, hour -> room")
        .build()
        .expect("Example 2 is independent");

    // Run on the sharded store: every relation is its own lock-guarded
    // shard, and every read below is answered by one shard alone.
    let mut db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    for (course, teacher) in [("CS402", "Jones"), ("CS500", "Curie"), ("EE110", "Ohm")] {
        db.insert("CT", [course, teacher]).unwrap();
    }
    for (course, student) in [("CS402", "Ada"), ("CS402", "Alan"), ("CS500", "Ada")] {
        db.insert("CS", [course, student]).unwrap();
    }
    for (course, hour, room) in [("CS402", "9am", "R128"), ("CS500", "10am", "R200")] {
        db.insert("CHR", [course, hour, room]).unwrap();
    }

    // ── 1. Fluent filtered reads, typed rows. ────────────────────────
    // `course` is CT's key (the FD's left-hand side), so the owning
    // shard answers this from its enforcement hash index in O(1) — and
    // ships exactly one tuple back, not a clone of the relation.
    let rows = db.query("CT").filter("course", eq("CS402")).run().unwrap();
    println!("teacher of CS402 → {rows}");
    assert_eq!(rows.iter().next().unwrap().get("teacher"), Some("Jones"));

    // Select lists reorder and narrow the output columns.
    let rows = db
        .query("CS")
        .filter("student", eq("Ada"))
        .select(["student", "course"])
        .run()
        .unwrap();
    println!("Ada's courses → {rows}");
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(&row[0], "Ada");
    }

    // Mistakes are typed errors, caught before any engine runs.
    let err = db.query("CT").filter("room", eq("R128")).run().unwrap_err();
    println!("bad column: {err}");
    assert!(matches!(err, ApiError::UnknownColumn { .. }));

    // ── 2. Barrier-free joins. ───────────────────────────────────────
    // Each relation is read from its own shard with no barrier and no
    // cross-shard coordination; independence (LSAT = WSAT) guarantees
    // the combination is a globally satisfying state, so the join is
    // always the join of a consistent database.
    let joined = db.join(["CT", "CS", "CHR"]).unwrap();
    println!("CT ⋈ CS ⋈ CHR →\n{joined}");
    assert_eq!(
        joined.columns(),
        ["course", "teacher", "student", "hour", "room"]
    );
    assert_eq!(joined.len(), 3); // EE110 has no students/rooms: joins away
    for row in &joined {
        assert!(row.get("room").is_some());
    }

    // ── 3. What the pushdown buys, measured. ─────────────────────────
    // The same point lookup three ways; on real workloads E10 measures
    // the gap (experiments -- e10): pushed stays O(1) while the others
    // scale with the relation / database.
    let ct = db.schema().scheme_id("CT").unwrap();
    let course = db.schema().definition().universe().attr("course").unwrap();
    let key = db.intern("CS500").unwrap();
    let pred = Predicate::new().and_eq(course, key);
    let pushed = db.store().query(ct, &pred).unwrap(); // shard-side index hit
    let via_read = db.read("CT").unwrap().filter_tuples(&pred); // clone + scan
    let via_snapshot = db.snapshot().unwrap().relation(ct).filter_tuples(&pred); // barrier
    assert_eq!(pushed, via_read);
    assert_eq!(pushed, via_snapshot);
    println!(
        "point lookup: pushed ships {} tuple(s); read ships {}; snapshot copies {}",
        pushed.len(),
        db.count("CT").unwrap(),
        db.snapshot().unwrap().total_tuples()
    );
}
