//! A tour of the typed `Database` API: one schema declaration, four
//! engines behind one interface, two read paths, and the independence
//! gate with its machine-checkable counterexample.
//!
//! Run with: `cargo run --example api_tour`

use independent_schemas::prelude::*;

fn declare() -> SchemaBuilder {
    // The paper's Example 2: courses, teachers, students, hours, rooms.
    // The universe is collected from the columns; `build()` runs the
    // independence analysis exactly once.
    Schema::builder()
        .relation("CT", ["course", "teacher"])
        .relation("CS", ["course", "student"])
        .relation("CHR", ["course", "hour", "room"])
        .fd("course -> teacher")
        .fd("course hour -> room")
}

fn main() {
    // ── 1. Build: declaration in, certified handle out. ──────────────
    let schema = declare().build().expect("Example 2 is independent");
    println!("{}", schema.definition());
    println!(
        "independent: {} (enforcement covers: {:?})\n",
        schema.is_independent(),
        schema
            .enforcement()
            .unwrap()
            .iter()
            .map(|fi| fi.render(schema.definition().universe()))
            .collect::<Vec<_>>()
    );

    // ── 2. One script, four engines, identical outcomes. ─────────────
    let kinds = || {
        vec![
            ("local", EngineKind::Local),
            ("chase", EngineKind::Chase),
            ("fd-only", EngineKind::FdOnly),
            ("sharded", EngineKind::Sharded(StoreConfig::default())),
        ]
    };
    for (name, kind) in kinds() {
        let db = Database::open(declare().build().unwrap(), kind).unwrap();
        let a = db.insert("CT", ["CS402", "Jones"]).unwrap();
        let b = db.insert("CT", ["CS402", "Jones"]).unwrap(); // duplicate
        let c = db.insert("CT", ["CS402", "Smith"]).unwrap(); // violates course → teacher
        let d = db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
        println!("{name:>8}: insert={a:?}  again={b:?}  conflicting={c:?}  chr={d:?}");
        assert!(a.is_accepted() && b.is_duplicate() && c.is_rejected() && d.is_accepted());
    }

    // ── 3. Reading: barrier-free rows vs snapshot barrier. ───────────
    let db = Database::open(schema, EngineKind::Sharded(StoreConfig::default())).unwrap();
    db.insert("CT", ["CS402", "Jones"]).unwrap();
    db.insert("CS", ["CS402", "Ada"]).unwrap();
    db.insert("CS", ["CS402", "Alan"]).unwrap();
    db.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
    // rows(): consults only the owning shard, renders in declared order.
    println!("\nCS rows (barrier-free): {:?}", db.rows("CS").unwrap());
    // query(): the filtered read, pushed down to the owning shard —
    // a key-column filter is an O(1) index hit, and only matching
    // tuples ship back (see `query_tour` for the full surface).
    let jones = db
        .query("CT")
        .filter("course", eq("CS402"))
        .select(["teacher"])
        .run()
        .unwrap();
    println!("teacher of CS402 (pushed-down): {jones}");
    // join(): a natural join from independent barrier-free reads —
    // sound because LSAT = WSAT makes every per-relation cut part of a
    // globally satisfying state.
    let enrolled = db.join(["CS", "CHR"]).unwrap();
    println!("CS ⋈ CHR: {} rows", enrolled.len());
    assert_eq!(enrolled.len(), 2);
    // snapshot(): a consistent, globally satisfying cut of everything.
    let snap = db.snapshot().unwrap();
    println!(
        "snapshot: {} tuples across 3 relations",
        snap.total_tuples()
    );

    // ── 4. The independence gate, with evidence. ─────────────────────
    // "A student can't be in two rooms at once" breaks independence.
    let err = declare().fd("student hour -> room").build().unwrap_err();
    println!("\nextended schema refused: {err}");
    let witness = err.witness().expect("refusal carries a witness");
    println!(
        "counterexample state: {} tuples, locally satisfying, globally not",
        witness.state.total_tuples()
    );
    // Machine-check it: reconstruct the handle (verdict kept) and verify.
    let extended = declare().fd("student hour -> room").build_any().unwrap();
    assert!(verify_witness(
        extended.definition(),
        extended.fds(),
        &extended.witness().unwrap().state,
        &ChaseConfig::default()
    )
    .unwrap());
    println!("witness machine-checked (LSAT \\ WSAT): true");

    // Dependent schemas still get the honest engines.
    let dependent = Database::open(extended, EngineKind::Chase).unwrap();
    dependent.insert("CHR", ["CS402", "9am", "R128"]).unwrap();
    println!(
        "chase engine serves the dependent schema: {} tuple(s)",
        dependent.snapshot().unwrap().total_tuples()
    );
}
