//! A tour of the typed `Database` API: one schema declaration, the
//! store behind it checked against the paper's maintainers, two read
//! paths, and the independence gate with its machine-checkable
//! counterexample.
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

    // ── 2. One script: the store and the paper's three maintainers. ──
    // The `Database` speaks names; the maintainers, the oracles, take
    // the same rows as interned values in canonical order.
    let db = Database::open(declare().build().unwrap(), EngineKind::default()).unwrap();
    let script: [(&str, &[&str]); 4] = [
        ("CT", &["CS402", "Jones"]),
        ("CT", &["CS402", "Jones"]), // duplicate
        ("CT", &["CS402", "Smith"]), // violates course → teacher
        ("CHR", &["CS402", "9am", "R128"]),
    ];
    // Decisions, not outcomes: the maintainers name a violated FD (or
    // not) each in their own way.
    let decision = |o: InsertOutcome| match o {
        InsertOutcome::Accepted => "accepted",
        InsertOutcome::Duplicate => "duplicate",
        InsertOutcome::Rejected { .. } => "rejected",
    };
    let store: Vec<&str> = (script.iter())
        .map(|&(rel, row)| decision(db.insert(rel, row).unwrap()))
        .collect();
    println!("{:>8}: {store:?}", "store");
    assert_eq!(store, ["accepted", "duplicate", "rejected", "accepted"]);
    let (definition, fds) = (schema.definition(), schema.fds());
    let empty = || DatabaseState::empty(definition);
    let oracles: Vec<(&str, Box<dyn Maintainer>)> = vec![
        (
            "local",
            Box::new(
                LocalMaintainer::from_analysis(definition, schema.analysis(), empty()).unwrap(),
            ),
        ),
        (
            "chase",
            Box::new(ChaseMaintainer::new(
                definition,
                fds,
                empty(),
                ChaseConfig::default(),
            )),
        ),
        (
            "fd-only",
            Box::new(FdOnlyMaintainer::new(definition, fds, empty())),
        ),
    ];
    let mut pool = ValuePool::new();
    for (name, mut oracle) in oracles {
        let decisions: Vec<&str> = (script.iter())
            .map(|&(rel, row)| {
                let id = definition.scheme_by_name(rel).unwrap();
                // Declared order is canonical for CT and CHR.
                let tuple = row.iter().map(|v| pool.value(v)).collect();
                decision(oracle.insert(id, tuple).unwrap())
            })
            .collect();
        println!("{name:>8}: {decisions:?}");
        assert_eq!(decisions, store);
    }
    println!("store and maintainers agree on every decision: true");

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

    // A `Database` refuses it; the chase maintainer still serves it.
    let refused = Database::open(extended.clone(), EngineKind::default());
    assert!(matches!(refused, Err(ApiError::NotIndependent { .. })));
    let definition = extended.definition();
    let mut dependent = ChaseMaintainer::new(
        definition,
        extended.fds(),
        DatabaseState::empty(definition),
        ChaseConfig::default(),
    );
    let chr = definition.scheme_by_name("CHR").unwrap();
    let row = ["CS402", "9am", "R128"].map(|v| pool.value(v));
    dependent.insert(chr, row.to_vec()).unwrap();
    println!(
        "chase maintainer serves the dependent schema: {} tuple(s)",
        dependent.state().total_tuples()
    );
}
